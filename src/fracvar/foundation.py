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
        if self.n < 2:
            raise InputError(f"grid needs n >= 2, got n={self.n}")
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
        total = term = mpmath.mpf(1)
        for k in range(1, _SERIES_CAP):
            term = term * zm * mpmath.gamma(am * (k - 1) + 1) / mpmath.gamma(am * k + 1)
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


def _power_diff(m: np.ndarray, p: float) -> np.ndarray:
    """Stable ``m**p - (m-1)**p`` for integer arrays ``m >= 1``."""
    out = np.empty(m.shape, dtype=float)
    first = m == 1
    out[first] = 1.0
    rest = m[~first].astype(float)
    out[~first] = rest ** p * (-np.expm1(p * np.log1p(-1.0 / rest)))
    return out


def _pi_coefficients(mu: float, count: int):
    """Product-integration building blocks ``A(m)`` and ``B(m)``.

    For the moving-endpoint integral of ``(t_j - tau)**(mu - 1)`` against a
    piecewise-linear interpolant, define (with ``m`` counting cells back
    from the endpoint)

        A(m) = (m**mu - (m-1)**mu) / mu
        S(m) = (m**(mu+1) - (m-1)**(mu+1)) / (mu + 1)
        B(m) = m * A(m) - S(m)

    Returns arrays of ``A(1..count)`` and ``B(1..count)``.
    """
    m = np.arange(1, count + 1)
    a = _power_diff(m, mu) / mu
    s = _power_diff(m, mu + 1.0) / (mu + 1.0)
    b = m * a - s
    return a, b


#: the lag tables built so far by ``(mu, count)``, while a ``_lag_table_memo``
#: is open; ``None`` (nothing kept) otherwise
_LAG_MEMO: contextvars.ContextVar = contextvars.ContextVar("lag_memo", default=None)


@contextlib.contextmanager
def _lag_table_memo():
    """Keep every lag table built inside the block, read-only, for reuse
    inside it; all are dropped when the block exits, however it exits."""
    token = _LAG_MEMO.set({})
    try:
        yield
    finally:
        _LAG_MEMO.reset(token)


def _lag_tables(mu: float, count: int):
    """Lag tables ``T1[k] = A(k) - B(k)`` (``T1[0] = 0``) and ``T2[k] = B(k + 1)``,
    ``k < count``: row ``j`` weighs node ``i > 0`` by ``T1[j - i] + T2[j - i]``.
    Inside a ``_lag_table_memo`` each pair is built once and is read-only."""
    memo = _LAG_MEMO.get()
    if memo is not None and (mu, count) in memo:
        return memo[mu, count]
    a, b = _pi_coefficients(mu, count)
    tables = np.concatenate(([0.0], a[:-1] - b[:-1])), b
    if memo is not None:
        for table in tables:
            table.flags.writeable = False
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
    if j < 0 or j > grid.n:
        raise InputError(f"node index {j} outside 0..{grid.n}")
    if j == 0:
        return np.zeros(0)
    t1, t2 = _lag_tables(mu, j + 1)
    w = t1[::-1] + t2[::-1]
    w[0] = t1[j]  # node 0 has no B(j + 1) part
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
