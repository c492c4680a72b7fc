"""Functionals built on memory operators: optimality residuals and
conserved quantities.

A problem couples a five-slot Lagrangian ``F(x1, x2, x3, x4, t)`` with one
operator binding:  along a trajectory ``y``, slot ``x1`` carries ``y``
itself, ``x2`` the integral operator image, ``x3`` the classical
derivative, and ``x4`` the derivative-inside image.  The stationarity
residual, the natural boundary condition, the isoperimetric multiplier
recovery, and the conserved-quantity drift all reduce to combinations of
the dual operators acting on partial derivatives of ``F``.  Each check
forms the partials' dual images in one stacked application
(``_stationarity``) and every other image as a trajectory's slot.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, DegeneracyError, DomainError, InputError
from .foundation import (
    Grid,
    SampledFunction,
    _check_interval,
    _evaluate,
    _outside_stacklevel,
    cumulative_trapezoid,
    interior_slice,
    interior_sup,
    trapezoid,
)
from .operators import OperatorBinding, b_apply, dual, k_apply
from .operators import _apply_left, _bapply_left, _outside, _two_sided

__all__ = [
    "Lagrangian",
    "VariationalProblem",
    "NoetherGenerator",
    "IsoperimetricReport",
    "NoetherReport",
    "evaluate_functional",
    "el_residual",
    "natural_bc_residual",
    "isoperimetric_residual",
    "noether_drift",
    "dissipative_parameter",
]

_SELF_CHECK_POINTS = 100
_FD_SCALE = 1e-6


def _fd_partial(f: Callable, i: int, x1, x2, x3, x4, t) -> np.ndarray:
    """Central difference of ``f`` in slot ``i + 1``, with step
    ``_FD_SCALE * (1 + |x_i|)``."""
    args = [x1, x2, x3, x4]
    e = _FD_SCALE * (1.0 + np.abs(args[i]))
    hi = list(args)
    lo = list(args)
    hi[i] = args[i] + e
    lo[i] = args[i] - e
    return (_evaluate(f, *hi, t) - _evaluate(f, *lo, t)) / (2.0 * e)


def _nan_where_raising(fn: Callable) -> Callable:
    """``fn``, returning NaN where a call raises or a scalar result is not
    a real number."""
    def call(*args):
        try:
            out = fn(*args)
            return out if np.ndim(out) else float(out)
        except Exception:
            return math.nan
    return call


@dataclass(frozen=True)
class Lagrangian:
    """Five-slot integrand with optional analytic partial derivatives.

    Missing partials fall back to central finite differences with step
    ``1e-6 * (1 + |x_i|)``, taken in those slots only.  When analytic
    partials are supplied they are cross-checked against the
    finite-difference values at a fixed set of random points; a
    disagreement beyond ``1e-4`` relative is rejected, which catches the
    classic mistake of editing ``f`` but not its derivatives.
    """

    f: Callable
    d1: Optional[Callable] = None
    d2: Optional[Callable] = None
    d3: Optional[Callable] = None
    d4: Optional[Callable] = None

    def __post_init__(self) -> None:
        if not callable(self.f):
            raise InputError("Lagrangian needs a callable integrand")
        if any(d is not None for d in self._analytic):
            self._self_check()

    def _self_check(self) -> None:
        """Compare each analytic partial with its central difference at
        ``_SELF_CHECK_POINTS`` seeded points, one array call per callable.

        Points are taken in order, and at each point the partials in slot
        order.  The first partial that is off by more than ``1e-4``
        relative raises; one that raises or is not finite, or whose
        difference is not, skips the rest of its point.  A check that
        skips every point raises too.
        """
        rng = np.random.default_rng(1234)
        # each point draws x1..x4 in [-2, 2), then t in [0, 1)
        points = rng.uniform([-2.0] * 4 + [0.0], [2.0] * 4 + [1.0], size=(_SELF_CHECK_POINTS, 5))
        args = tuple(points.T)
        analytic = [(i, d) for i, d in enumerate(self._analytic) if d is not None]
        f = _nan_where_raising(self.f)
        with np.errstate(invalid="ignore"):  # NaN and inf - inf at points that are skipped anyway
            got = np.array([_evaluate(_nan_where_raising(d), *args) for _, d in analytic])
            want = np.array([_fd_partial(f, i, *args) for i, _ in analytic])
            usable = np.isfinite(got) & np.isfinite(want)
            off = usable & (np.abs(got - want) > 1e-4 * (1.0 + np.abs(got) + np.abs(want)))
        stop = off | ~usable
        first = stop.argmax(axis=0)  # the partial each point stops at, if it stops
        failing = np.flatnonzero(off[first, np.arange(_SELF_CHECK_POINTS)])
        if failing.size:
            p = failing[0]
            k = first[p]
            raise InputError(
                f"analytic partial d{analytic[k][0] + 1} disagrees with finite "
                f"differences at x={tuple(points[p, :4])}, t={float(points[p, 4])}: "
                f"{float(got[k, p])} vs {float(want[k, p])}"
            )
        if stop.any(axis=0).all():
            raise InputError("could not validate analytic partials at any probe point")

    @property
    def _analytic(self):
        return (self.d1, self.d2, self.d3, self.d4)

    def value(self, x1, x2, x3, x4, t) -> np.ndarray:
        return _evaluate(self.f, x1, x2, x3, x4, t)

    def partial(self, i, x1, x2, x3, x4, t) -> np.ndarray:
        """Derivative in slot ``i + 1`` along sample arrays: the analytic
        partial when supplied, else the central difference."""
        d = self._analytic[i]
        if d is not None:
            return _evaluate(d, x1, x2, x3, x4, t)
        return np.asarray(_fd_partial(self.f, i, x1, x2, x3, x4, t), dtype=float)

    def partials(self, x1, x2, x3, x4, t):
        """All four slot derivatives along sample arrays."""
        return [self.partial(i, x1, x2, x3, x4, t) for i in range(4)]


@dataclass(frozen=True)
class VariationalProblem:
    """Lagrangian, operator binding, boundary data, and optional weight.

    ``ya``/``yb`` of ``None`` mean a free boundary.  A weight turns the
    plain integral into an integral against ``weight(t) dt`` and switches
    the stationarity residual to its weighted form.
    """

    lagrangian: Lagrangian
    binding: OperatorBinding
    ya: Optional[float] = None
    yb: Optional[float] = None
    weight: Optional[SampledFunction] = None

    def __post_init__(self) -> None:
        if self.weight is not None:
            _check_interval(self.weight.grid, self.binding.p.a, self.binding.p.b)


@dataclass(frozen=True)
class NoetherGenerator:
    """Infinitesimal symmetry direction ``xi(t, x)`` of a one-parameter
    family of trajectory transformations."""

    xi: Callable[[float, float], float]


def _check_boundary(problem: VariationalProblem, y: SampledFunction) -> None:
    for name, want, got in (
        ("a", problem.ya, float(y.values[0])),
        ("b", problem.yb, float(y.values[-1])),
    ):
        if want is not None and abs(got - want) > 1e-10 * (1.0 + abs(want)):
            raise InputError(
                f"boundary value at t={name} is {got}, expected {want}"
            )


def _check_weight_grid(problem: VariationalProblem, grid: Grid) -> None:
    """``InputError`` unless the weight, if any, has ``grid.n`` cells (its interval is checked)."""
    if problem.weight is not None and problem.weight.grid.n != grid.n:
        raise InputError(f"weight grid {problem.weight.grid} does not match grid {grid}")


def _slots(binding: OperatorBinding, grid: Grid, rows: np.ndarray):
    """The four trajectory slots ``(y, K y, y', B y)`` of each row of
    ``rows``, shape ``(rows, n + 1)``, one stacked application per operator."""
    p, kernel = binding.p, binding.kernel
    return (
        rows,
        _two_sided(p, kernel, grid, rows, _apply_left),
        np.gradient(rows, grid.h, axis=1, edge_order=2),
        _two_sided(p, kernel, grid, rows, _bapply_left),
    )


def _trajectory(problem: VariationalProblem, y: SampledFunction):
    """``_slots`` of the one row ``y``, through the public ``k_apply`` and
    ``b_apply``, so that a trace of those names sees the checks' operator work."""
    _check_weight_grid(problem, y.grid)
    p, kern = problem.binding.p, problem.binding.kernel
    return y.values, k_apply(p, kern, y).values, y.derivative().values, b_apply(p, kern, y).values


def _functional(problem: VariationalProblem, grid: Grid, slots) -> float:
    vals = problem.lagrangian.value(*slots, grid.nodes)
    if problem.weight is not None:
        vals = vals * problem.weight.values
    return trapezoid(SampledFunction(grid, vals))


def evaluate_functional(problem: VariationalProblem, y: SampledFunction) -> float:
    """Value of the functional along ``y`` (boundary data must match)."""
    _check_boundary(problem, y)
    return _functional(problem, y.grid, _trajectory(problem, y))


def _weighted_partials(problem: VariationalProblem, grid: Grid, slots):
    p1, p2, p3, p4 = problem.lagrangian.partials(*slots, grid.nodes)
    if problem.weight is not None:
        w = problem.weight.values
        p1, p2, p3, p4 = p1 * w, p2 * w, p3 * w, p4 * w
    return p1, p2, p3, p4


def _stationarity(problem: VariationalProblem, grid: Grid, slots):
    """``el_residual`` values along ``slots``, the weighted partials
    ``(p1, p2, p3, p4)`` and their dual images ``(A*[p4], K*[p4], K*[p2])``:
    one stacked dual K of the rows ``(p4, p2)``, and A's rule on the first."""
    p1, p2, p3, p4 = partials = _weighted_partials(problem, grid, slots)
    pstar = dual(problem.binding.p)
    k_p4, k_p2 = _two_sided(pstar, problem.binding.kernel, grid, np.vstack((p4, p2)), _apply_left)
    a_p4 = _outside(pstar, k_p4[None], grid.h)[0]
    term_dt = np.gradient(p3, grid.h, edge_order=2)
    return term_dt + a_p4 - p1 - k_p2, partials, (a_p4, k_p4, k_p2)


def el_residual(problem: VariationalProblem, y: SampledFunction) -> SampledFunction:
    """Pointwise stationarity residual along ``y``.

    Zero (up to discretization) exactly when ``y`` solves the associated
    two-term optimality equation: the time derivative of the third-slot
    partial plus the derivative-outside dual image of the fourth-slot
    partial, balanced against the first-slot partial and the dual
    integral image of the second-slot partial.  With a weight attached,
    every partial is premultiplied by the weight first.
    """
    return SampledFunction(y.grid, _stationarity(problem, y.grid, _trajectory(problem, y))[0])


def natural_bc_residual(problem: VariationalProblem, y: SampledFunction) -> float:
    """Residual of the free-left-boundary condition.

    For problems whose left boundary value is not prescribed, a minimizer
    also satisfies ``(d3 F + K_dual[d4 F])(a) = 0``.  The one-sided value
    at ``a`` is obtained by linear extrapolation from the two nearest
    interior nodes, since the dual image may be singular right at the
    endpoint.
    """
    if problem.ya is not None:
        raise InputError(
            "the natural condition applies to a free left boundary, "
            "but this problem prescribes y(a)"
        )
    _check_boundary(problem, y)
    _, (_, _, p3, _), (_, k_p4, _) = _stationarity(problem, y.grid, _trajectory(problem, y))
    expr = p3 + k_p4
    return abs(2.0 * expr[1] - expr[2])


class IsoperimetricReport(NamedTuple):
    multiplier: float
    residual: float


def isoperimetric_residual(
    problem: VariationalProblem,
    constraint: Lagrangian,
    xi_value: float,
    y: SampledFunction,
) -> IsoperimetricReport:
    """Recover the constraint multiplier and the augmented residual.

    ``constraint`` is the integrand of the side condition with prescribed
    level ``xi_value``.  The candidate ``y`` must actually meet the
    constraint.  The multiplier is the least-squares fit of the main
    stationarity residual against the constraint's over the interior
    window; the report carries the sup of the augmented combination.
    """
    con_problem = VariationalProblem(
        constraint, problem.binding, problem.ya, problem.yb, problem.weight
    )
    # both problems share the binding, so one trajectory serves all three
    _check_boundary(con_problem, y)
    grid, slots = y.grid, _trajectory(problem, y)
    j_val = _functional(con_problem, grid, slots)
    if abs(j_val - xi_value) > 1e-6 * (1.0 + abs(xi_value)):
        raise InputError(
            f"candidate violates the constraint: functional value {j_val} "
            f"vs prescribed level {xi_value}"
        )
    win = interior_slice(grid.n)
    rf = _stationarity(problem, grid, slots)[0][win]
    rg = _stationarity(con_problem, grid, slots)[0][win]
    denom = float(rg @ rg)
    if math.sqrt(denom / rg.size) <= 1e-10:
        raise DegeneracyError(
            "constraint stationarity residual vanishes; the side condition "
            "is degenerate and no multiplier exists"
        )
    lam0 = float(rf @ rg) / denom
    residual = float(np.abs(rf - lam0 * rg).max())
    return IsoperimetricReport(lam0, residual)


class NoetherReport(NamedTuple):
    constant: SampledFunction
    drift: float


def noether_drift(
    problem: VariationalProblem,
    y: SampledFunction,
    generator: NoetherGenerator,
) -> NoetherReport:
    """Conserved quantity along ``y`` for an invariance direction.

    The general construction accumulates

        C(t) = xi * d3F + integral of (D[xi, d4F] + I[xi, d2F])

    with the bilinear pairings ``D[f, g] = f * A_dual[g] + g * B[f]`` and
    ``I[f, g] = -f * K_dual[g] + g * K[f]``.  When the Lagrangian depends
    on the fourth slot only and the direction is a constant shift, the
    quantity collapses to ``K_dual[d4 F]`` and is computed that way.

    The drift is the interior peak-to-peak variation of ``C`` relative to
    its mean magnitude; a conserved quantity has drift at round-off level.
    """
    if problem.weight is not None:
        raise ConfigurationError("conserved-quantity checks support unweighted functionals only")
    grid, slots = y.grid, _trajectory(problem, y)
    # unweighted, so the partials are the Lagrangian's own
    residual, (p1, p2, p3, p4), (a_p4, k_p4, k_p2) = _stationarity(problem, grid, slots)
    check = interior_sup(residual)
    if check > 1e-2:
        warnings.warn(
            f"trajectory fails the stationarity check (residual {check:.2e}); "
            "the conservation statement only holds along extremals",
            UserWarning,
            stacklevel=_outside_stacklevel(),
        )
    xi_v = _evaluate(generator.xi, grid.nodes, y.values)
    if not np.all(np.isfinite(xi_v)):
        raise InputError("generator produced non-finite values along the trajectory")

    scale = 1.0 + float(np.abs(p4).max())
    reduced = (
        max(float(np.abs(p).max()) for p in (p1, p2, p3)) <= 1e-12 * scale
        and float(xi_v.max() - xi_v.min()) <= 1e-13 * (1.0 + float(np.abs(xi_v).mean()))
    )
    if reduced:
        c_vals = k_p4
    else:
        _, k_xi, _, b_xi = _trajectory(problem, SampledFunction(grid, xi_v))
        pair_d = xi_v * a_p4 + p4 * b_xi
        pair_i = -xi_v * k_p2 + p2 * k_xi
        accumulated = cumulative_trapezoid(SampledFunction(grid, pair_d + pair_i))
        c_vals = xi_v * p3 + accumulated.values
    win = interior_slice(grid.n)
    cw = c_vals[win]
    drift = float(cw.max() - cw.min()) / (1.0 + float(np.abs(cw).mean()))
    return NoetherReport(SampledFunction(grid, c_vals), drift)


def dissipative_parameter(weight: SampledFunction) -> SampledFunction:
    """Logarithmic derivative of a positive weight."""
    w = weight.values
    if np.any(w <= 0.0):
        raise DomainError("weight must be strictly positive")
    return SampledFunction(weight.grid, weight.derivative().values / w)
