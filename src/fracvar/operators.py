"""Two-sided integral operators with memory kernels and their derivatives.

The central object is the weighted pair

    K[f](t) = lam * (left integral of k(t, tau) f(tau) over [a, t])
            + mu  * (right integral of k(tau, t) f(tau) over [t, b])

parameterized by ``ParameterSet``.  Composing with differentiation on the
outside (``a_apply``) or inside (``b_apply``) yields the derivative-type
operators.  Kernels declare how singular they are on the diagonal through
``singularity_exponent`` ``s``; evaluation always works with the bounded
cofactor ``k(t, tau) * (t - tau)**s`` and hands the singular power factor
to product-integration quadrature.

Difference-type kernels make the product-integration weights a Toeplitz
matrix, so the left-sided integral at all ``n + 1`` nodes is one linear
convolution, evaluated by zero-padded real FFT in O(n log n) (Hairer,
Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).  Every other
kernel goes through one shared row loop at O(n**2) cost: it evaluates
each cofactor row once and applies the K or B row formula to it.  The
right-sided integral is reduced to a left-sided one by reflecting the
interval, so difference-type kernels keep their FFT path on both sides.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    InputError,
    NumericError,
)
from .foundation import (
    Grid,
    SampledFunction,
    _check_interval,
    _evaluate,
    _pi_coefficients,
    _row_weights,
    gamma,
    interior_sup,
    trapezoid,
)

__all__ = [
    "ParameterSet",
    "dual",
    "Kernel",
    "DifferenceKernel",
    "PowerLawKernel",
    "HadamardKernel",
    "GeneralKernel",
    "OperatorBinding",
    "ClassicalOp",
    "CornerExtrapolationWarning",
    "IBPReport",
    "k_apply",
    "a_apply",
    "b_apply",
    "classical",
    "boundedness_constant",
    "verify_ibp",
    "verify_semigroup",
]

# Output nodes within this distance of a flagged corner node are replaced
# by extrapolation from clean neighbours; see _patch_corners.
_CORNER_PAD = 2
_CORNER_FIT = 6


class CornerExtrapolationWarning(UserWarning):
    """Some output nodes near an interval endpoint were extrapolated."""


@dataclass(frozen=True)
class ParameterSet:
    """Interval and side weights ``(a, b, lam, mu)`` of a two-sided operator."""

    a: float
    b: float
    lam: float
    mu: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "lam", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"parameter {name} must be finite")
        if not self.b > self.a:
            raise InputError(f"parameter set needs b > a, got a={self.a}, b={self.b}")
        if self.lam == 0.0 and self.mu == 0.0:
            warnings.warn("both side weights are zero; the operator is trivial", UserWarning)


def dual(p: ParameterSet) -> ParameterSet:
    """Parameter set with the side weights swapped."""
    return ParameterSet(p.a, p.b, p.mu, p.lam)


class Kernel:
    """Base interface: diagonal singularity strength plus bounded cofactor."""

    #: difference-type kernels depend on t - tau only and take the FFT
    #: convolution path, O(n log n) instead of the O(n**2) row loop
    is_difference: bool = False
    #: kernels on multiplicative time need a strictly positive interval
    requires_positive_domain: bool = False
    #: strength ``s`` in [0, 1) of the ``(t - tau)**(-s)`` diagonal singularity
    singularity_exponent: float = 0.0

    def cofactor(self, x, y) -> np.ndarray:
        """Bounded part ``k(x, y) * (x - y)**s`` for ``y <= x`` elementwise."""
        raise NotImplementedError

    def profile(self, u: np.ndarray) -> np.ndarray:
        """Cofactor as a function of the lag ``u = x - y`` (difference type only)."""
        raise ConfigurationError(f"{type(self).__name__} is not difference-type")


@dataclass(frozen=True)
class DifferenceKernel(Kernel):
    """Bounded convolution kernel ``k(t, tau) = h(t - tau)``."""

    h: Callable[[float], float]
    is_difference = True

    def cofactor(self, x, y) -> np.ndarray:
        return _evaluate(self.h, np.asarray(x) - np.asarray(y))

    def profile(self, u: np.ndarray) -> np.ndarray:
        return _evaluate(self.h, u)


@dataclass(frozen=True)
class PowerLawKernel(Kernel):
    """Power-law kernel of Riemann-Liouville type.

    ``variant="integral"`` is ``(t - tau)**(order - 1) / Gamma(order)``
    (singularity exponent ``1 - order``); ``variant="derivative"`` is
    ``(t - tau)**(-order) / Gamma(1 - order)`` (exponent ``order``).
    """

    order: float
    variant: str
    is_difference = True

    def __post_init__(self) -> None:
        if self.variant not in ("integral", "derivative"):
            raise ConfigurationError(f"unknown power-law variant {self.variant!r}")
        if not 0.0 < self.order < 1.0:
            raise DomainError(f"order must lie in (0, 1), got {self.order}")

    @property
    def singularity_exponent(self) -> float:
        return 1.0 - self.order if self.variant == "integral" else self.order

    def _const(self) -> float:
        if self.variant == "integral":
            return 1.0 / gamma(self.order)
        return 1.0 / gamma(1.0 - self.order)

    def cofactor(self, x, y) -> np.ndarray:
        return np.full(np.broadcast(x, y).shape, self._const())

    def profile(self, u: np.ndarray) -> np.ndarray:
        return np.full(np.shape(u), self._const())


@dataclass(frozen=True)
class HadamardKernel(Kernel):
    """Logarithmic kernel ``log(t/tau)**(order-1) / (Gamma(order) tau)``.

    Lives on multiplicative time, so the interval must satisfy ``a > 0``.
    The cofactor is evaluated through ``log1p((t-tau)/tau) / (t-tau)``,
    which stays well conditioned up to the diagonal, where it equals
    ``1/tau``.
    """

    order: float
    requires_positive_domain = True

    def __post_init__(self) -> None:
        if not 0.0 < self.order < 1.0:
            raise DomainError(f"order must lie in (0, 1), got {self.order}")

    @property
    def singularity_exponent(self) -> float:
        return 1.0 - self.order

    def cofactor(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0.0):
            raise DomainError("logarithmic kernel needs strictly positive times")
        d = x - y
        safe = np.where(d > 0.0, d, 1.0)
        ratio = np.where(d > 0.0, np.log1p(d / y) / safe, 1.0 / y)
        return ratio ** (self.order - 1.0) / (gamma(self.order) * y)


@dataclass(frozen=True)
class GeneralKernel(Kernel):
    """Arbitrary kernel callable with a declared diagonal singularity exponent."""

    k: Callable[[float, float], float]
    singularity_exponent: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.singularity_exponent < 1.0:
            raise DomainError(
                f"singularity exponent must lie in [0, 1), got {self.singularity_exponent}"
            )

    def cofactor(self, x, y) -> np.ndarray:
        kv = _evaluate(self.k, x, y)
        s = self.singularity_exponent
        if s == 0.0:
            return kv
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return kv * np.where(d > 0.0, d, 0.0) ** s


class _ReflectedKernel(Kernel):
    """View of a kernel under the interval reflection ``t -> a + b - t``.

    Turns the right-sided integral into a left-sided one on the reversed
    samples; difference-type kernels reflect onto themselves.
    """

    def __init__(self, base: Kernel, a: float, b: float) -> None:
        self.base = base
        self.ab = a + b
        self.is_difference = base.is_difference
        self.requires_positive_domain = base.requires_positive_domain
        self.singularity_exponent = base.singularity_exponent

    def cofactor(self, x, y) -> np.ndarray:
        return self.base.cofactor(self.ab - np.asarray(y), self.ab - np.asarray(x))

    def profile(self, u: np.ndarray) -> np.ndarray:
        return self.base.profile(u)


def _convolve(x: np.ndarray, y: np.ndarray, count: int) -> np.ndarray:
    """First ``count`` entries of the linear convolution of ``x`` and ``y``.

    Both are zero-padded to the power of two at or above
    ``len(x) + len(y) - 1``, so the circular convolution of the real FFT
    does not wrap around.
    """
    size = 1 << (len(x) + len(y) - 2).bit_length()
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)[:count]


def _difference_tables(kernel: Kernel, grid: Grid, count: int):
    """Shared setup of the difference-kernel paths.

    Returns the quadrature exponent ``mu = 1 - s``, the product-integration
    tables ``A(1..count)`` and ``B(1..count)``, and the kernel profile at
    every lag ``t_j - a``.
    """
    mu = 1.0 - kernel.singularity_exponent
    a_coef, b_coef = _pi_coefficients(mu, count)
    prof = np.asarray(kernel.profile(grid.nodes - grid.a), dtype=float)
    if not np.all(np.isfinite(prof)):
        bad = int(np.flatnonzero(~np.isfinite(prof))[0])
        raise NumericError(f"kernel profile non-finite at lag index {bad}")
    return mu, a_coef, b_coef, prof


def _apply_left(kernel: Kernel, grid: Grid, fv: np.ndarray):
    """Left-sided integral at every node.  Returns (values, flagged nodes).

    Flagged nodes hold no trustworthy value (NaN placeholder); they arise
    only when a kernel declared bounded turns out non-finite at an
    interval corner, and are patched afterwards by the caller.
    """
    n, h = grid.n, grid.h

    if kernel.is_difference:
        mu, a_coef, b_coef, prof = _difference_tables(kernel, grid, n + 1)
        weights = np.empty(n + 1)
        weights[0] = b_coef[0]
        weights[1:] = (a_coef[:n] - b_coef[:n]) + b_coef[1:]
        conv = _convolve(fv, weights * prof, n + 1)
        out = h ** mu * (conv - b_coef * prof * fv[0])
        out[0] = 0.0
        return out, []

    scale = h ** (1.0 - kernel.singularity_exponent)

    def weighted_sum(j, c, a_coef, b_coef):
        return scale * float(_row_weights(j, a_coef, b_coef) @ (c * fv[: j + 1]))

    return _row_loop(kernel, grid, weighted_sum)


def _row_loop(kernel: Kernel, grid: Grid, row_formula):
    """Left-sided engine of non-difference kernels, one output node at a time.

    Builds the product-integration tables ``A(1..n+1)``, ``B(1..n+1)`` once,
    evaluates the cofactor row ``c = cofactor(t_j, t_0..t_j)`` of each node
    once, mends it or flags the node (``_mend_row``), and stores
    ``row_formula(j, c, A, B)``, the rule's quadrature sum at node ``j``.
    Returns (values, flagged nodes) like the engines that call it.
    """
    n, t = grid.n, grid.nodes
    s = kernel.singularity_exponent
    a_coef, b_coef = _pi_coefficients(1.0 - s, n + 1)
    out = np.zeros(n + 1)
    flagged: list[int] = []
    for j in range(1, n + 1):
        with np.errstate(invalid="ignore", divide="ignore"):
            c = np.asarray(kernel.cofactor(t[j], t[: j + 1]), dtype=float)
        if not np.all(np.isfinite(c)):
            c = c.copy()
            if _mend_row(c, j, t, s, kernel.cofactor) == "flag":
                flagged.append(j)
                out[j] = np.nan
                continue
        out[j] = row_formula(j, c, a_coef, b_coef)
    return out, flagged


def _mend_row(c: np.ndarray, j: int, t: np.ndarray, s: float, cofactor) -> str:
    """Repair non-finite samples of the cofactor row
    ``c = cofactor(t_j, t_0..t_j)`` in place.

    A singular kernel (``s > 0``) has a smooth cofactor, so a non-finite
    diagonal sample is continued linearly from its two neighbours; the
    first row, which has one, continues through the cofactor at its cell
    midpoint instead.  A kernel declared bounded that still blows up at an
    interval corner marks the row for output extrapolation.  Anything else
    is a hard error.
    """
    for i in np.flatnonzero(~np.isfinite(c)):
        i = int(i)
        if i == j and s > 0.0:
            if j >= 2:
                filled = 2.0 * c[j - 1] - c[j - 2]
            else:
                filled = 2.0 * float(cofactor(t[1], 0.5 * (t[0] + t[1]))) - c[0]
            if not np.isfinite(filled):
                raise NumericError(f"kernel cofactor non-finite near node {j}")
            c[j] = filled
        elif (i == j == len(t) - 1 and s == 0.0) or (i == 0 and j <= _CORNER_FIT):
            return "flag"
        else:
            raise NumericError(
                f"kernel evaluation non-finite at node {j} (sample index {i})"
            )
    return "ok"


def _patch_corners(values: np.ndarray, bad: set, n: int) -> np.ndarray:
    """Replace corner-adjacent garbage nodes by quadratic extrapolation."""
    for node in bad:
        if min(node, n - node) > _CORNER_FIT:
            raise NumericError(
                f"kernel non-finite away from the interval corners (node {node})"
            )
    out = values.copy()
    left = [i for i in bad if i <= n // 2]
    right = [i for i in bad if i > n // 2]
    patched = 0
    for cluster, at_left in ((left, True), (right, False)):
        if not cluster:
            continue
        if at_left:
            hi = max(cluster) + _CORNER_PAD
            fit = np.arange(hi + 1, hi + 1 + _CORNER_FIT)
            fix = np.arange(0, hi + 1)
        else:
            lo = min(cluster) - _CORNER_PAD
            fit = np.arange(lo - _CORNER_FIT, lo)
            fix = np.arange(lo, n + 1)
        coeffs = np.polyfit(fit.astype(float), out[fit], 2)
        out[fix] = np.polyval(coeffs, fix.astype(float))
        patched += len(fix)
    warnings.warn(
        f"extrapolated {patched} corner-adjacent output nodes",
        CornerExtrapolationWarning,
        stacklevel=4,
    )
    return out


def _two_sided(p: ParameterSet, kernel: Kernel, f: SampledFunction, left_rule, right_sign: float):
    """``lam * left + right_sign * mu * right`` with corner patching.

    ``left_rule`` is a left-sided engine (``_apply_left`` or
    ``_bapply_left``); the right side runs it on the reflected interval.
    """
    grid = f.grid
    _check_interval(grid, p.a, p.b)
    if kernel.requires_positive_domain and grid.a <= 0.0:
        raise DomainError("this kernel needs a strictly positive interval, got a <= 0")
    n = grid.n
    out = np.zeros(n + 1)
    bad: set = set()
    if p.lam != 0.0:
        left, flags = left_rule(kernel, grid, f.values)
        out += p.lam * left
        bad.update(flags)
    if p.mu != 0.0:
        reflected = _ReflectedKernel(kernel, grid.a, grid.b)
        res, flags = left_rule(reflected, grid, f.values[::-1].copy())
        out += right_sign * p.mu * res[::-1]
        bad.update(n - j for j in flags)
    if bad:
        out = _patch_corners(out, bad, n)
    return SampledFunction(grid, out)


def k_apply(p: ParameterSet, kernel: Kernel, f: SampledFunction) -> SampledFunction:
    """Apply the two-sided integral operator to sampled data.

    The left integral uses product-integration weights that are exact for
    the piecewise-linear interpolant of the bounded cofactor times ``f``;
    the right integral reuses the same machinery on the reflected
    interval.
    """
    return _two_sided(p, kernel, f, _apply_left, 1.0)


def a_apply(p: ParameterSet, kernel: Kernel, f: SampledFunction) -> SampledFunction:
    """Derivative-outside operator: grid derivative of ``k_apply``.

    Output values at an active endpoint (left when ``lam != 0``, right
    when ``mu != 0``) are continued linearly from the two nearest interior
    nodes, since the true derivative may be unbounded there.
    """
    inner = k_apply(p, kernel, f)
    grid = f.grid
    d = np.gradient(inner.values, grid.h, edge_order=2)
    if p.lam != 0.0:
        d[0] = 2.0 * d[1] - d[2]
    if p.mu != 0.0:
        d[-1] = 2.0 * d[-2] - d[-3]
    return SampledFunction(grid, d)


def _bapply_left(kernel: Kernel, grid: Grid, fv: np.ndarray):
    """Left integral of the kernel against the cell derivative of ``fv``.

    The derivative inside the composition is the exact (cellwise
    constant) derivative of the piecewise-linear interpolant, so the
    interpolation error of ``f`` telescopes within each cell instead of
    polluting the quadrature near a startup cusp.
    """
    n, h = grid.n, grid.h
    df = np.diff(fv)

    if kernel.is_difference:
        mu, a_coef, b_coef, prof = _difference_tables(kernel, grid, n)
        cell = prof[1:] * (a_coef - b_coef) + prof[:-1] * b_coef
        out = np.empty(n + 1)
        out[0] = 0.0
        out[1:] = h ** (mu - 1.0) * _convolve(df, cell, n)
        return out, []

    mu = 1.0 - kernel.singularity_exponent
    scale = h ** (mu - 1.0)

    def cell_sum(j, c, a_coef, b_coef):
        cell = c[:-1] * (a_coef[j - 1::-1] - b_coef[j - 1::-1]) + c[1:] * b_coef[j - 1::-1]
        return scale * float(df[:j] @ cell)

    return _row_loop(kernel, grid, cell_sum)


def b_apply(p: ParameterSet, kernel: Kernel, f: SampledFunction) -> SampledFunction:
    """Derivative-inside operator: kernel integral of the derivative of ``f``."""
    return _two_sided(p, kernel, f, _bapply_left, -1.0)


@dataclass(frozen=True)
class OperatorBinding:
    """A kernel tied to a parameter set, ready to act on sampled functions."""

    p: ParameterSet
    kernel: Kernel

    def k(self, f: SampledFunction) -> SampledFunction:
        return k_apply(self.p, self.kernel, f)

    def a(self, f: SampledFunction) -> SampledFunction:
        return a_apply(self.p, self.kernel, f)

    def b(self, f: SampledFunction) -> SampledFunction:
        return b_apply(self.p, self.kernel, f)

    def dual(self) -> "OperatorBinding":
        return OperatorBinding(dual(self.p), self.kernel)


class ClassicalOp(str, Enum):
    RL_INT_LEFT = "RLIntLeft"
    RL_INT_RIGHT = "RLIntRight"
    RL_DER_LEFT = "RLDerLeft"
    RL_DER_RIGHT = "RLDerRight"
    CAPUTO_LEFT = "CaputoLeft"
    CAPUTO_RIGHT = "CaputoRight"
    HADAMARD_LEFT = "HadamardLeft"


def classical(op, order: float, f: SampledFunction) -> SampledFunction:
    """Evaluate a named one-sided operator of the classical families.

    ``order`` is a float in ``(0, 1)``.
    """
    try:
        op = ClassicalOp(op)
    except ValueError:
        raise ConfigurationError(f"unknown operator name {op!r}") from None
    grid = f.grid
    if callable(order):
        raise ConfigurationError(f"{op.value} takes a constant order, not a callable")
    if not 0.0 < order < 1.0:
        raise DomainError(f"order must lie in (0, 1), got {order}")

    left = ParameterSet(grid.a, grid.b, 1.0, 0.0)
    right = ParameterSet(grid.a, grid.b, 0.0, 1.0)
    if op is ClassicalOp.RL_INT_LEFT:
        return k_apply(left, PowerLawKernel(order, "integral"), f)
    if op is ClassicalOp.RL_INT_RIGHT:
        return k_apply(right, PowerLawKernel(order, "integral"), f)
    if op is ClassicalOp.RL_DER_LEFT:
        return a_apply(left, PowerLawKernel(order, "derivative"), f)
    if op is ClassicalOp.RL_DER_RIGHT:
        out = a_apply(right, PowerLawKernel(order, "derivative"), f)
        return SampledFunction(grid, -out.values)
    if op is ClassicalOp.CAPUTO_LEFT:
        return b_apply(left, PowerLawKernel(order, "derivative"), f)
    if op is ClassicalOp.CAPUTO_RIGHT:
        out = b_apply(right, PowerLawKernel(order, "derivative"), f)
        return SampledFunction(grid, -out.values)
    return k_apply(left, HadamardKernel(order), f)


def boundedness_constant(order: float, a: float, b: float) -> float:
    """Operator-norm bound ``(b - a)**order / Gamma(order + 1)`` of the
    left power-law integral on square-integrable functions."""
    if not 0.0 < order < 1.0:
        raise DomainError(f"order must lie in (0, 1), got {order}")
    if not b > a:
        raise InputError(f"need b > a, got a={a}, b={b}")
    return (b - a) ** order / gamma(order + 1.0)


class IBPReport(NamedTuple):
    lhs: float
    rhs: float
    residual: float


def verify_ibp(p: ParameterSet, kernel: Kernel, f: SampledFunction, g: SampledFunction) -> IBPReport:
    """Check the swap identity: integrating ``f * K[g]`` equals
    integrating ``g * K_dual[f]``."""
    if f.grid != g.grid:
        raise InputError("f and g must share one grid")
    lhs = trapezoid(SampledFunction(f.grid, f.values * k_apply(p, kernel, g).values))
    rhs = trapezoid(SampledFunction(f.grid, g.values * k_apply(dual(p), kernel, f).values))
    return IBPReport(lhs, rhs, abs(lhs - rhs))


def verify_semigroup(alpha: float, beta: float, f: SampledFunction) -> float:
    """Interior sup distance between composed and single-step power-law
    integrals of orders ``alpha`` then ``beta`` versus ``alpha + beta``."""
    for name, val in (("alpha", alpha), ("beta", beta)):
        if not 0.0 < val < 1.0:
            raise DomainError(f"{name} must lie in (0, 1), got {val}")
    if not alpha + beta < 1.0:
        raise DomainError(f"alpha + beta must stay below 1, got {alpha + beta}")
    staged = classical(ClassicalOp.RL_INT_LEFT, alpha, classical(ClassicalOp.RL_INT_LEFT, beta, f))
    direct = classical(ClassicalOp.RL_INT_LEFT, alpha + beta, f)
    return interior_sup(staged.values - direct.values)
