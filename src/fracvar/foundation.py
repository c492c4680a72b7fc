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

    Evaluates the power series with compensated float64 summation, with
    term magnitudes formed through ``lgamma`` so the pass doubles as a
    log-domain scan of the term profile.  An element whose round-off
    against its accumulated absolute mass (heavy cancellation at negative
    ``z``) or whose outright term overflow would break the absolute
    accuracy target is re-summed with ``mpmath``, at a precision sized
    from the largest term it saw.

    ``z`` may be a scalar or an array of any shape.  All elements share
    one pass: ``lgamma(alpha k + 1)`` is formed once per ``k``, and each
    element leaves the pass when its own stopping rule fires.  A scalar
    (or 0-d) ``z`` returns a Python ``float``, an array returns an array
    of the same shape.  Against a loop over the scalars with ``math.exp``,
    the float64 results differ by at most 4.4e-16 times ``max(1, |E|)``
    (``np.exp`` against ``math.exp``).  The escalated pass forms its gamma
    arguments in mpmath, so ``alpha * k`` carries no float64 round-off.

    The series settles on less than the stated domain.  It raises
    ``AccuracyError`` for ``alpha <= 0.3`` at every ``|z| >= 10`` tried,
    and at ``alpha = 0.5`` for ``z = -40, -45, -50`` and ``z = 50`` (more
    than ``_SERIES_CAP`` terms) and for ``z = 27, 30`` (``E`` is about
    ``2 exp(z**2)``, beyond the double range).  At ``alpha = 0.5`` the
    mpmath pass takes about 8 s at ``z = -30`` and 17-19 s at ``z = -35``.

    Parameters
    ----------
    alpha:
        Series parameter, in ``(0, 1]``.
    z:
        Real argument(s) with ``|z| <= 50``.

    Raises
    ------
    DomainError
        If ``alpha`` or any element of ``z`` (NaN included) is out of range.
    AccuracyError
        If any element's series does not settle within ``_SERIES_CAP``
        terms or its value leaves the double range.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    zs = np.asarray(z, dtype=float)
    flat = zs.ravel()
    bad = np.flatnonzero(~(np.abs(flat) <= 50.0))
    if bad.size:
        raise DomainError(f"|z| must not exceed 50, got {flat[bad[0]]}")

    ln10 = math.log(10.0)
    out = np.ones(flat.size)  # E_alpha(0) = 1
    idx = np.flatnonzero(flat)
    log_az = np.log(np.abs(flat[idx]))
    sign = np.sign(flat[idx])
    s, abs_sum = np.ones((2, idx.size))
    comp, peak_log, prev_lt = np.zeros((3, idx.size))
    overflow = np.zeros(idx.size, dtype=bool)
    escalate = []
    # The term profile k*log|z| - lgamma(alpha*k + 1) is concave in k, so
    # once it decreases the peak is behind us.
    for k in range(1, _SERIES_CAP):
        if not idx.size:
            break
        lt = k * log_az - math.lgamma(alpha * k + 1.0)
        np.maximum(peak_log, lt, out=peak_log)
        overflow |= lt > 700.0
        digits = 30.0 + np.floor(peak_log / ln10)
        done = overflow & (lt < -(digits - 8.0) * ln10)
        if not overflow.all():
            # An overflowed element adds nothing more; it is re-summed in mpmath.
            mag = np.exp(np.where(overflow, -np.inf, lt))
            term = mag * sign if k % 2 else mag
            y = term - comp
            t = s + y
            comp = (t - s) - y
            s = t
            abs_sum += mag
            done |= ~overflow & (mag < 1e-16 * (1.0 + np.abs(s)))
        done &= lt < prev_lt
        prev_lt = lt
        if done.any():
            up = overflow | (abs_sum > 1e3)
            keep = done & ~up
            out[idx[keep]] = s[keep]
            escalate += zip(idx[done & up].tolist(), digits[done & up].tolist())
            live = ~done
            idx, log_az, sign, s, comp, abs_sum, peak_log, prev_lt, overflow = (
                a[live] for a in (idx, log_az, sign, s, comp, abs_sum, peak_log, prev_lt, overflow)
            )
    if idx.size:
        raise AccuracyError(
            f"Mittag-Leffler series did not converge within {_SERIES_CAP} terms "
            f"for alpha={alpha}, z={flat[idx[0]]}"
        )
    for i, digits in escalate:
        out[i] = _mittag_leffler_mp(alpha, float(flat[i]), int(digits))
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def _mittag_leffler_mp(alpha: float, z: float, digits: int) -> float:
    """Re-sum the series of ``E_alpha(z)`` in ``mpmath`` at ``digits`` digits,
    where float64 round-off would exceed the error budget."""
    import mpmath  # here, not at module level: only this pass needs it
    with mpmath.workdps(digits):
        am, zm = mpmath.mpf(alpha), mpmath.mpf(z)
        total = mpmath.mpf(1)
        term = mpmath.mpf(1)
        tol = mpmath.mpf(10) ** (-(digits - 8))
        for k in range(1, _SERIES_CAP):
            term = term * zm * mpmath.gamma(am * (k - 1) + 1) / mpmath.gamma(am * k + 1)
            total += term
            if abs(term) < tol * (1 + abs(total)):
                out = float(total)
                if not math.isfinite(out):
                    raise AccuracyError(
                        f"E_{alpha}({z}) exceeds the double-precision range"
                    )
                return out
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
