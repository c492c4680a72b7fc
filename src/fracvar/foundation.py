"""Grids, sampled functions, special functions, and quadrature.

Everything downstream works on uniform grids.  Functions are carried as
node samples, integrals are composite trapezoid sums, and integrals with
an integrable power singularity at the moving endpoint use product
integration against a piecewise-linear interpolant (``singular_weights``).
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError, InputError, NumericError

__all__ = [
    "Grid",
    "SampledFunction",
    "SymmetricMatrix",
    "gamma",
    "erfc",
    "mittag_leffler",
    "trapezoid",
    "cumulative_trapezoid",
    "singular_weights",
    "symmetric_eigen",
    "interior_slice",
    "interior_sup",
]

_SERIES_CAP = 10000
#: the largest matrix ``symmetric_eigen`` accepts
_MAX_EIGEN_DIM = 200


def _outside_stacklevel() -> int:
    """The ``stacklevel`` at which a ``warnings.warn`` call in the caller
    names the first frame outside this package, however deep the call came in."""
    frame, level = sys._getframe(2), 2
    while frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    return level


def _check_endpoints(a: float, b: float) -> None:
    """Raise ``InputError`` unless ``a`` and ``b`` are finite and
    ``0 < b - a < inf``; the one test every interval passes."""
    if not (math.isfinite(a) and math.isfinite(b) and 0.0 < b - a < math.inf):
        raise InputError(f"interval needs finite a < b with finite b - a, got a={a}, b={b}")


@dataclass(frozen=True)
class Grid:
    """Uniform partition of ``[a, b]`` into ``n`` cells (``n + 1`` nodes)."""

    a: float
    b: float
    n: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_endpoints(self.a, self.b)
        if not isinstance(self.n, numbers.Integral) or self.n < 2:  # True and False are below 2
            raise InputError(f"grid needs an integer n >= 2, got n={self.n!r}")
        object.__setattr__(self, "nodes", np.linspace(self.a, self.b, self.n + 1))

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n


def _evaluate(fn: Callable, *args) -> np.ndarray:
    """Evaluate a scalar callable on array arguments, broadcast together.

    Tries one vectorized call first.  A callable that cannot take arrays
    (written with ``math`` functions, say) or that returns the wrong shape
    is evaluated elementwise instead; any exception of the vectorized
    attempt means the former, and a genuine error raises again from the
    elementwise pass.
    """
    try:
        out = np.asarray(fn(*args), dtype=float)
        if out.shape == np.broadcast(*args).shape:
            return out
    except Exception:
        pass
    return np.frompyfunc(fn, len(args), 1)(*args).astype(float)


def _check_interval(grid: Grid, a: float, b: float) -> None:
    """Raise ``InputError`` unless ``grid`` spans ``[a, b]`` to 1e-12 relative."""
    if abs(grid.a - a) > 1e-12 * (1.0 + abs(a)) or abs(grid.b - b) > 1e-12 * (1.0 + abs(b)):
        raise InputError(
            f"grid interval [{grid.a}, {grid.b}] does not match interval [{a}, {b}]"
        )


@dataclass(frozen=True)
class SampledFunction:
    """Node samples of a function on a :class:`Grid`.

    Values must be finite everywhere; operators that would produce a
    non-finite sample deal with it before constructing their result.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n + 1,):
            raise InputError(
                f"expected {self.grid.n + 1} samples, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            bad = int(np.flatnonzero(~np.isfinite(v))[0])
            raise InputError(f"non-finite sample at node {bad}")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable[[float], float]) -> "SampledFunction":
        return cls(grid, _evaluate(fn, grid.nodes))

    def derivative(self) -> "SampledFunction":
        """Second-order finite-difference derivative on the same grid."""
        return SampledFunction(self.grid, np.gradient(self.values, self.grid.h, edge_order=2))


@dataclass(frozen=True)
class SymmetricMatrix:
    """Dense symmetric matrix with symmetry checked at construction."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"expected a square matrix, got shape {m.shape}")
        scale = 1.0 + np.abs(m)
        if not np.all(np.abs(m - m.T) <= 1e-12 * scale):
            raise InputError("matrix is not symmetric within 1e-12 relative tolerance")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def gamma(x: float) -> float:
    """Gamma function for positive real arguments."""
    if not x > 0:
        raise DomainError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


def erfc(x: float) -> float:
    """Complementary error function."""
    return math.erfc(x)


def mittag_leffler(alpha: float, z: float | np.ndarray) -> float | np.ndarray:
    """One-parameter Mittag-Leffler function ``E_alpha(z)``, elementwise.

    All elements share one compensated float64 pass over the power series
    (``lgamma(alpha k + 1)`` once per ``k``), which each element leaves by
    the first of three exits:

    * the series settles, and its sum is the value;
    * ``z < 0`` and the absolute sum, which tends to ``E_alpha(|z|)``,
      passes 10, where cancellation would cost more than 10 ulps: the
      float64 contour ``_mittag_leffler_contour``;
    * ``z > 0`` and the absolute sum passes 1e3: the 30-digit mpmath series
      ``_mittag_leffler_mp``, since a float64 route there errs by about
      eps times the exponent of ``E`` (4e-14 at ``E_0.5(10)``).

    For ``alpha`` in ``[0.01, 1]`` and ``z`` in ``[-50, 0]``, every value is
    within 3e-15 * max(1, |E|) of a 60-digit reference.  A scalar (or 0-d)
    ``z`` returns a ``float``, an array an array of its shape; the series
    values differ from a scalar loop with ``math.exp`` by at most
    4.4e-16 * max(1, |E|).

    ``DomainError`` is raised unless ``alpha`` lies in ``(0, 1]`` and every
    ``|z| <= 50`` (NaN fails), and ``AccuracyError`` if a ``z > 0`` value
    leaves the double range or a series does not settle within
    ``_SERIES_CAP`` terms.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    zs = np.asarray(z, dtype=float)
    flat = zs.ravel()
    bad = np.flatnonzero(~(np.abs(flat) <= 50.0))
    if bad.size:
        raise DomainError(f"|z| must not exceed 50, got {flat[bad[0]]}")

    out = np.ones(flat.size)  # E_alpha(0) = 1
    leaving = np.zeros(flat.size, dtype=bool)
    idx = np.flatnonzero(flat)
    log_az = np.log(np.abs(flat[idx]))
    sign = np.sign(flat[idx])
    s, abs_sum = np.ones((2, idx.size))
    comp, prev_lt = np.zeros((2, idx.size))
    for k in range(1, _SERIES_CAP):
        if not idx.size:
            break
        lt = k * log_az - math.lgamma(alpha * k + 1.0)
        mag = np.exp(lt)
        term = mag * sign if k % 2 else mag
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        abs_sum += mag
        # The term profile k*log|z| - lgamma(alpha*k + 1) is concave in k, so
        # once it decreases the peak is behind us.
        settled = (mag < 1e-16 * (1.0 + np.abs(s))) & (lt < prev_lt)
        prev_lt = lt
        leaves = abs_sum > np.where(sign < 0, 10.0, 1e3)
        done = settled | leaves
        if done.any():
            keep = done & ~leaves
            out[idx[keep]] = s[keep]
            leaving[idx[leaves]] = True
            live = ~done
            idx, log_az, sign, s, comp, abs_sum, prev_lt = (
                a[live] for a in (idx, log_az, sign, s, comp, abs_sum, prev_lt)
            )
    if idx.size:
        raise AccuracyError(
            f"Mittag-Leffler series did not converge within {_SERIES_CAP} terms "
            f"for alpha={alpha}, z={flat[idx[0]]}"
        )
    for i in np.flatnonzero(leaving & (flat > 0)):
        out[i] = _mittag_leffler_mp(alpha, float(flat[i]))
    neg = np.flatnonzero(leaving & (flat < 0))
    out[neg] = _mittag_leffler_contour(alpha, flat[neg])
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def _mittag_leffler_contour(alpha: float, z: np.ndarray) -> np.ndarray:
    """``E_alpha(z)`` for an array of ``z < 0``: the trapezoid rule for
    ``1/(2 pi i) int e^s s**(alpha - 1) / (s**alpha - z) ds`` on the parabola
    ``s(u) = mu (1 + iu)**2``, ``N = 16``, ``h = 3/N``, ``mu = pi N / 12``
    (Weideman and Trefethen, Math. Comp. 76, 2007; Garrappa, SIAM J. Numer.
    Anal. 53, 2015).  The singularities, ``s = 0`` and at ``alpha = 1`` the
    pole ``s = z``, map to ``Im u = 1``.  The nodes at ``-u`` are the
    conjugates of those at ``u``, so only ``u = 0, h, ..., Nh`` are formed."""
    n = 16
    h, mu = 3.0 / n, math.pi * n / 12.0
    v = 1.0 + 1j * h * np.arange(n + 1)
    s = mu * v**2
    # ds = 2i mu v du: each node carries e^s s^(alpha - 1) v mu h / pi
    weight = np.exp(s) * s ** (alpha - 1.0) * v * (mu * h / math.pi)
    weight[1:] *= 2.0
    return (weight / (s**alpha - z[:, None])).real.sum(axis=1)


def _mittag_leffler_mp(alpha: float, z: float) -> float:
    """``E_alpha(z)`` for ``z > 0`` by the series in 30-digit ``mpmath``.
    The terms are all positive, so nothing cancels, and the sum is checked
    against the double range as it grows."""
    import mpmath  # here, not at module level: only this exit needs it
    with mpmath.workdps(30):
        am, zm = mpmath.mpf(alpha), mpmath.mpf(z)
        # about the index of the largest term: if it alone leaves the double
        # range, so does the sum of these positive terms
        k = max(0, int((zm ** (1 / am) - 1) / am))
        if k * mpmath.log(zm) - mpmath.loggamma(am * k + 1) > math.log(sys.float_info.max):
            raise AccuracyError(f"E_{alpha}({z}) exceeds the double-precision range")
        total = term = gamma = mpmath.mpf(1)  # gamma is Gamma(alpha (k - 1) + 1)
        for k in range(1, _SERIES_CAP):
            previous, gamma = gamma, mpmath.gamma(am * k + 1)
            term = term * zm * previous / gamma
            total += term
            if total > sys.float_info.max:
                raise AccuracyError(f"E_{alpha}({z}) exceeds the double-precision range")
            if term < 1e-22 * (1 + total):
                return float(total)
    raise AccuracyError(
        f"Mittag-Leffler series did not converge within {_SERIES_CAP} terms "
        f"for alpha={alpha}, z={z}"
    )


def trapezoid(f: SampledFunction) -> float:
    """Composite trapezoid integral over the full grid."""
    v = f.values
    return f.grid.h * (0.5 * (v[0] + v[-1]) + float(v[1:-1].sum()))


def _trapezoid_weights(grid: Grid) -> np.ndarray:
    """Composite trapezoid weights at the ``n + 1`` nodes."""
    tw = np.full(grid.n + 1, grid.h)
    tw[0] = 0.5 * grid.h
    tw[-1] = 0.5 * grid.h
    return tw


def cumulative_trapezoid(f: SampledFunction) -> SampledFunction:
    """Running trapezoid integral, zero at the left endpoint."""
    v = f.values
    steps = 0.5 * f.grid.h * (v[1:] + v[:-1])
    out = np.empty_like(v)
    out[0] = 0.0
    np.cumsum(steps, out=out[1:])
    return SampledFunction(f.grid, out)


#: ``j = 1..55``, the moments ``1/((j + 1)(j + 2))`` and ``1/(j + 2)`` that weigh
#: term ``j`` of ``_lag_tables``, and ``m**-(j - 9)`` for ``m = 2..63``, ``j = 55..10``
_J = np.arange(1.0, 56.0)
_MOMENTS = 1.0 / np.array([(_J + 1.0) * (_J + 2.0), _J + 2.0])
_TAIL_POWERS = np.arange(2.0, 64.0) ** -_J[45::-1, None]


#: what one run has built so far, while a ``_run_memo`` is open: lag tables
#: by ``(mu, count)`` and operator rules by ``(left_rule, kernel, grid)`` (see
#: ``operators._two_sided``); ``None`` (nothing kept) otherwise
_RUN_MEMO: contextvars.ContextVar = contextvars.ContextVar("run_memo", default=None)


@contextlib.contextmanager
def _run_memo():
    """Keep every lag table and operator rule built inside the block for
    reuse inside it; all are dropped when the block exits, however it exits."""
    token = _RUN_MEMO.set({})
    try:
        yield
    finally:
        _RUN_MEMO.reset(token)


def _lag_tables(mu: float, count: int):
    """Lag tables ``T1[k] = int_0^1 (1 - s) (k - s)**(mu - 1) ds`` and
    ``T2[k] = int_0^1 (1 - s) (k + s)**(mu - 1) ds``, ``k < count``, the
    halves of a hat function: row ``j`` weighs node ``i > 0`` by
    ``T1[j - i] + T2[j - i]`` and node 0 by ``T1[j]``.

    ``T1[0] = 0``, ``T1[1] = 1/(mu + 1)``, ``T2[0] = 1/(mu (mu + 1))``; past
    them, with ``m = k`` (``T1``) or ``k + 1`` (``T2``), the binomial series
    ``m**(mu - 1) sum_j (1 - mu)_j / j! c_j m**-j``, ``c_j = 1/((j + 1)(j + 2))``
    (``T1``) or ``1/(j + 2)`` (``T2``).  No term is negative, so nothing
    cancels: each entry is within 2 eps of the integral, and at ``mu = 1``
    exactly 1/2.  Terms add smallest first: below ``m = 64`` the terms
    ``j = 55..10`` from ``_TAIL_POWERS`` (``2**-55 < 3e-17``), then Horner's
    rule for ``j = 9..1``, each where ``m**-j >= 2**-60``.
    Inside a ``_run_memo`` each pair is built once and is read-only."""
    memo = _RUN_MEMO.get()
    if memo is not None and (mu, count) in memo:
        return memo[mu, count]
    c = np.cumprod((_J - mu) / _J) * _MOMENTS  # r_j c_j, j >= 1: T1's row, then T2's
    sums = np.zeros((2, count + 1))  # column m: both series at m
    sums[:, 2:64] = np.add.reduce(c[:, :8:-1, None] * _TAIL_POWERS[:, : count - 1], axis=1)
    m = np.arange(2.0, count + 1)
    x = 1.0 / m
    for j in range(9, 0, -1):
        part = sums[:, 2 : int(2.0 ** (60 / j))]
        part += c[:, j - 1 : j]
        part *= x[: part.shape[1]]
    sums += 0.5  # c_0
    sums[:, 2:] *= m**mu / m
    sums[0, :2] = 0.0, 1.0 / (mu + 1.0)
    sums[1, 1] = 1.0 / (mu * (mu + 1.0))
    sums.flags.writeable = memo is None
    tables = sums[0, :count], sums[1, 1:]
    if memo is not None:
        memo[mu, count] = tables
    return tables


def singular_weights(mu: float, grid: Grid, j: int) -> np.ndarray:
    """Quadrature weights for the integral of ``(t_j - tau)**(mu-1) f(tau)`` over ``[a, t_j]``.

    The rule integrates the piecewise-linear interpolant of ``f`` exactly,
    so constants are reproduced without error:  the weights sum to
    ``(t_j - a)**mu / mu``.  In the limit ``mu = 1`` the rule reduces to
    the composite trapezoid rule.

    Parameters
    ----------
    mu:
        Exponent in ``(0, 1]``; the integrand kernel is ``(t_j - tau)**(mu-1)``.
    grid:
        Uniform grid supplying the spacing.
    j:
        Index of the moving endpoint.  ``j = 0`` returns an empty array.

    Returns
    -------
    numpy.ndarray
        Weights for samples ``f(t_0), ..., f(t_j)``.
    """
    if not 0.0 < mu <= 1.0:
        raise DomainError(f"mu must lie in (0, 1], got {mu}")
    if isinstance(j, bool) or not isinstance(j, numbers.Integral) or not 0 <= j <= grid.n:
        raise InputError(f"node index must be an integer in 0..{grid.n}, got {j!r}")
    if j == 0:
        return np.zeros(0)
    t1, t2 = _lag_tables(mu, j + 1)
    w = t1[::-1] + t2[::-1]
    w[0] = t1[j]  # node 0 has no T2 part
    return w * grid.h ** mu


def symmetric_eigen(matrix: SymmetricMatrix):
    """Full eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors in the corresponding columns.  Each column is signed so
    that its entry of largest magnitude is positive, which makes the
    eigenvectors deterministic.
    """
    if matrix.dim > _MAX_EIGEN_DIM:
        raise InputError(f"dimension capped at {_MAX_EIGEN_DIM}, got {matrix.dim}")
    try:
        vals, vecs = np.linalg.eigh(matrix.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from None
    if matrix.dim:
        lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(matrix.dim)]
        vecs *= np.where(lead < 0.0, -1.0, 1.0)
    return vals, vecs


def interior_slice(n: int) -> slice:
    """Index slice for the central 80% of ``n + 1`` nodes."""
    margin = (1.0 - 0.8) / 2.0
    lo = int(math.ceil(n * margin))
    hi = int(math.floor(n * (1.0 - margin)))
    return slice(lo, hi + 1)


def interior_sup(values: np.ndarray) -> float:
    """Sup norm over the central 80% of the nodes."""
    v = np.asarray(values)
    return float(np.abs(v[interior_slice(v.shape[0] - 1)]).max())
