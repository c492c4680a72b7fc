"""Ritz eigensolver for two-point problems with a derivative-inside
operator, plus direct minimization over the same trial spaces.

The eigenvalue problem on ``[a, b]`` with zero boundary values reads

    (right Caputo-type derivative of p * (left Caputo-type derivative of y))
        + q * y = lambda * w * y

for an order ``alpha`` in (0.5, 1); ``alpha = 1`` marks the classical
problem ``-(p y')' + q y = lambda w y``.  Trial functions are sine shapes
divided by ``sqrt(w)``, which makes the weighted mass matrix exactly
diagonal under the trapezoid rule, so the Ritz system is an ordinary
symmetric eigenproblem.
"""

from __future__ import annotations

import contextvars
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    CoercivityError,
    ConfigurationError,
    DomainError,
    InputError,
    NumericError,
)
from .foundation import (
    _MAX_EIGEN_DIM,
    Grid,
    SampledFunction,
    SymmetricMatrix,
    _check_endpoints,
    _check_interval,
    _evaluate,
    _trapezoid_weights,
    interior_sup,
    symmetric_eigen,
    trapezoid,
)
from .operators import ClassicalOp, _classical_rows
from .variational import VariationalProblem, _check_weight_grid, _slots

__all__ = [
    "SLProblem",
    "RitzBasis",
    "Spectrum",
    "ConvergenceReport",
    "MinimizeOptions",
    "MinimizeResult",
    "ProbeReport",
    "assemble",
    "solve_spectrum",
    "converge",
    "rayleigh_quotient",
    "sl_residual",
    "direct_minimize",
    "coercivity_probe",
]

_MIN_NODES_PER_MODE = 32

# The direct minimizer's fixed recipe, described in ``direct_minimize``.
_GRAD_TOL = 1e-8
_MAX_ITER = 10000
_INITIAL_STEP = 1.0
_DIVERGENCE_PATIENCE = 50
_MEMORY = 10
_CURVATURE_STEP = 1e-3
_DIAGONAL_FLOOR = 1e-8

_PROBE_DIRECTIONS = 8


@dataclass(frozen=True)
class SLProblem:
    """Coefficients ``p, q, w`` and derivative order of the eigenproblem."""

    alpha: float
    p: Callable[[float], float]
    q: Callable[[float], float]
    w: Callable[[float], float]
    a: float = 0.0
    b: float = math.pi

    def __post_init__(self) -> None:
        if isinstance(self.alpha, bool) or self.alpha != 1.0 and not 0.5 < self.alpha < 1.0:
            raise DomainError(f"alpha must be a number in (0.5, 1) or 1, got {self.alpha!r}")
        _check_endpoints(self.a, self.b)

    def derivative_image(self, f: SampledFunction) -> SampledFunction:
        """Left derivative of order ``alpha`` (classical one at ``alpha = 1``)."""
        return SampledFunction(f.grid, self._derivative(f.grid, f.values[None], False)[0])

    def right_derivative_image(self, f: SampledFunction) -> SampledFunction:
        return SampledFunction(f.grid, self._derivative(f.grid, f.values[None], True)[0])

    def _derivative(self, grid: Grid, rows: np.ndarray, right: bool) -> np.ndarray:
        """Left (right) derivative image of each row of ``rows``, shape
        ``(rows, n + 1)``, in one stacked call: the left (right) Caputo
        derivative of ``classical``, or at ``alpha = 1`` the grid
        derivative, negated on the right."""
        if self.alpha != 1.0:
            op = ClassicalOp.CAPUTO_RIGHT if right else ClassicalOp.CAPUTO_LEFT
            return _classical_rows(op, self.alpha, grid, rows)
        d = np.gradient(rows, grid.h, axis=1, edge_order=2)
        return -d if right else d


def _sample_coefficients(problem: SLProblem, grid: Grid):
    """Samples ``(p, q, w)`` on the grid nodes, checked: ``p`` and ``w``
    finite and strictly positive, ``q`` finite."""
    p, q, w = (_evaluate(fn, grid.nodes) for fn in (problem.p, problem.q, problem.w))
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise DomainError("weight w must be finite and strictly positive")
    if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
        raise DomainError("coefficient p must be finite and strictly positive")
    if not np.all(np.isfinite(q)):
        raise DomainError("coefficient q must be finite")
    return p, q, w


def _basis_size(m, what: str = "basis size") -> int:
    """``m`` as an int; ``InputError`` naming ``what`` unless it is a
    positive integer (numpy's too, but not a bool) of at most
    ``_MAX_EIGEN_DIM``, the largest matrix the eigensolver takes."""
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or not 1 <= m <= _MAX_EIGEN_DIM:
        raise InputError(
            f"{what} must be a positive integer at most {_MAX_EIGEN_DIM}, got {m!r}"
        )
    return int(m)


@dataclass(frozen=True)
class RitzBasis:
    """Sine-shape trial functions with precomputed derivative images.

    Row ``k`` of ``phi`` is ``sin((k+1) s(t)) / sqrt(w(t))`` with ``s``
    mapping the interval onto ``(0, pi)``; endpoint values are exactly
    zero.  ``dphi`` holds the order-``alpha`` derivative image of each
    row, the single expensive part of assembly, computed here by one
    stacked application that builds the tables once for all rows.
    ``_coefficients`` holds the checked samples ``(p, q, w)`` on the grid.

    Row ``k`` and its image do not depend on ``m``, so the trial spaces
    are nested and ``build`` shares rows between them: it keeps the last
    basis it made (see ``_LAST_BASIS``), and a later build on an equal
    problem and grid with at most as many rows returns that basis's
    leading rows, bit for bit what a fresh build computes.  ``phi`` and
    ``dphi`` are therefore read-only.  Problems compare their callables
    by identity, so ``p``, ``q`` and ``w`` are taken to be pure, as the
    frozen ``SLProblem`` implies.  More rows, another grid or an unequal
    problem is a full build, which drops the kept basis first.  One basis
    per thread is kept, and with it its problem's callables, until the
    next build in that thread that does not reuse it.
    """

    problem: SLProblem
    grid: Grid
    m: int
    phi: np.ndarray = field(repr=False, compare=False)
    dphi: np.ndarray = field(repr=False, compare=False)
    _coefficients: tuple = field(repr=False, compare=False)

    @classmethod
    def build(cls, problem: SLProblem, m: int, grid: Grid) -> "RitzBasis":
        m = _basis_size(m)
        _check_interval(grid, problem.a, problem.b)
        if grid.n < _MIN_NODES_PER_MODE * m:
            raise ConfigurationError(
                f"grid too coarse for m={m} modes: need n >= {_MIN_NODES_PER_MODE * m}, "
                f"got n={grid.n}"
            )
        kept = _LAST_BASIS.get()
        if kept is not None and kept.m >= m and kept.problem == problem and kept.grid == grid:
            return cls(problem, grid, m, kept.phi[:m], kept.dphi[:m], kept._coefficients)
        _LAST_BASIS.set(None)  # free the old rows before the new ones are made
        coefficients = _sample_coefficients(problem, grid)
        s = math.pi * (grid.nodes - grid.a) / (grid.b - grid.a)
        phi = np.outer(np.arange(1, m + 1), s)
        np.sin(phi, out=phi)
        phi *= 1.0 / np.sqrt(coefficients[2])
        phi[:, 0] = 0.0
        phi[:, -1] = 0.0
        dphi = problem._derivative(grid, phi, False)
        phi.flags.writeable = dphi.flags.writeable = False
        basis = cls(problem, grid, m, phi, dphi, coefficients)
        _LAST_BASIS.set(basis)
        return basis


#: the last basis ``RitzBasis.build`` made in this thread; ``None`` before
#: the first build and during a build that does not reuse it
_LAST_BASIS: contextvars.ContextVar = contextvars.ContextVar("last_basis", default=None)


def _ritz_system(problem: SLProblem, m: int, grid: Optional[Grid]):
    """The basis of an ``m``-mode space, its Ritz matrix and ``c`` (see
    ``assemble``), on ``grid`` or else on ``max(1024, 32 m)`` cells.

    The basis comes from ``RitzBasis.build``, so it shares the rows of the
    last basis built in this thread on an equal problem (the same pure
    callables) and grid when that one has at least ``m``; without a grid
    that needs the same ``max(1024, 32 m)``.  Shared rows are the leading
    rows of a C-contiguous array, so both products see the operands a
    fresh build gives, and so the same bits.  The kept basis, and its
    problem's callables, stay in memory until the next build in this
    thread that does not reuse it.
    """
    m = _basis_size(m)
    if grid is None:
        grid = Grid(problem.a, problem.b, max(1024, _MIN_NODES_PER_MODE * m))
    basis = RitzBasis.build(problem, m, grid)
    p_vals, q_vals, _ = basis._coefficients
    tw = _trapezoid_weights(grid)
    stiff = (basis.dphi * (p_vals * tw)) @ basis.dphi.T
    mass_q = (basis.phi * (q_vals * tw)) @ basis.phi.T
    a = stiff + mass_q
    return basis, SymmetricMatrix(0.5 * (a + a.T)), 0.5 * (grid.b - grid.a)


def assemble(problem: SLProblem, m: int, grid: Grid):
    """Ritz matrix and the mass normalization ``c = (b - a) / 2``.

    Entry ``(k, j)`` is the trapezoid integral of
    ``p * dphi_k * dphi_j + q * phi_k * phi_j``; by the exact discrete
    orthogonality of the sine shapes the weighted mass matrix is ``c``
    times the identity, so eigenvalues of the returned matrix divided by
    ``c`` approximate the problem's spectrum from above.
    """
    return _ritz_system(problem, m, grid)[1:]


@dataclass(frozen=True)
class Spectrum:
    """Leading Ritz eigenvalues with normalized eigenfunctions.

    ``right_trace`` records ``p(b)`` times the derivative image of each
    eigenfunction at the right endpoint, a cheap indicator of how the
    mode behaves where the composed operator concentrates its weight.
    """

    lambdas: np.ndarray
    coefficients: np.ndarray
    eigenfunctions: tuple
    m: int
    right_trace: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.lambdas, dtype=float)
        if np.any(np.diff(lam) < -1e-10 * (1.0 + np.abs(lam[:-1]))):
            raise InputError("eigenvalues must be ascending")


def solve_spectrum(problem: SLProblem, m: int, r: int, grid: Optional[Grid] = None) -> Spectrum:
    """First ``r`` eigenpairs from an ``m``-mode Ritz space.

    Eigenfunctions are normalized so the weighted square integral is one.
    Without an explicit grid, a grid fine enough for ``m`` modes is
    chosen automatically.
    """
    m, r = _basis_size(m), _basis_size(r, "number of eigenpairs")
    if r > m:
        raise InputError(f"requested {r} eigenpairs from an m={m} basis")
    basis, matrix, c = _ritz_system(problem, m, grid)
    vals, vecs = symmetric_eigen(matrix)
    lambdas = vals[:r] / c
    coeffs = (vecs[:, :r] / math.sqrt(c)).T
    funcs = tuple(SampledFunction(basis.grid, coeffs[j] @ basis.phi) for j in range(r))
    p_b = float(basis._coefficients[0][-1])
    trace = np.array([p_b * float((coeffs[j] @ basis.dphi)[-1]) for j in range(r)])
    return Spectrum(lambdas, coeffs, funcs, basis.m, trace)


@dataclass(frozen=True)
class ConvergenceReport:
    """Eigenvalue table across a schedule of nested basis sizes."""

    m_schedule: tuple
    table: np.ndarray  # (len(m_schedule), r)
    max_upward_step: float
    converged: np.ndarray  # (r,) bool

    @property
    def monotone(self) -> bool:
        return self.max_upward_step <= 1e-10


def converge(
    problem: SLProblem,
    m_schedule,
    r: int,
    grid: Optional[Grid] = None,
) -> ConvergenceReport:
    """Ritz eigenvalues along nested trial spaces of growing size.

    The basis and matrix are built once at the largest size and sliced,
    so the nesting is exact and the eigenvalue columns can only move
    down (up to eigensolver round-off, reported separately as
    ``max_upward_step``).
    """
    schedule = [_basis_size(m) for m in m_schedule]
    if len(schedule) < 2 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise InputError("m_schedule must be strictly increasing with at least two entries")
    r = _basis_size(r, "number of eigenpairs")
    if r > schedule[0]:
        raise InputError(f"r={r} exceeds the smallest basis size {schedule[0]}")
    _, full, c = _ritz_system(problem, schedule[-1], grid)
    rows = []
    for m in schedule:
        vals, _ = symmetric_eigen(SymmetricMatrix(full.entries[:m, :m]))
        rows.append(vals[:r] / c)
    table = np.vstack(rows)
    steps = np.diff(table, axis=0)
    max_up = float(steps.max(initial=0.0))
    last, prev = table[-1], table[-2]
    converged = np.abs(last - prev) < 1e-6 * (1.0 + np.abs(last))
    return ConvergenceReport(tuple(schedule), table, max_up, converged)


def rayleigh_quotient(problem: SLProblem, y: SampledFunction) -> float:
    """Energy ratio of a trial function vanishing at both endpoints."""
    _check_interval(y.grid, problem.a, problem.b)
    v = y.values
    if abs(v[0]) > 1e-10 or abs(v[-1]) > 1e-10:
        raise InputError("trial function must vanish at both endpoints")
    p_vals, q_vals, w_vals = _sample_coefficients(problem, y.grid)
    d = problem.derivative_image(y).values
    num = trapezoid(SampledFunction(y.grid, p_vals * d * d + q_vals * v * v))
    den = trapezoid(SampledFunction(y.grid, w_vals * v * v))
    if den <= 1e-14 * (y.grid.b - y.grid.a) * float(np.abs(v).max() ** 2 + 1.0):
        raise InputError("trial function is numerically zero")
    return num / den


def sl_residual(problem: SLProblem, lam: float, y: SampledFunction) -> float:
    """Interior sup of the strong-form residual at a candidate eigenpair."""
    _check_interval(y.grid, problem.a, problem.b)
    p_vals, q_vals, w_vals = _sample_coefficients(problem, y.grid)
    inner = SampledFunction(y.grid, p_vals * problem.derivative_image(y).values)
    res = problem.right_derivative_image(inner).values + q_vals * y.values - lam * w_vals * y.values
    return interior_sup(res)


@dataclass(frozen=True)
class MinimizeOptions:
    """Start of the descent: basis coefficients ``beta0``, zero when None."""

    beta0: Optional[np.ndarray] = None


class MinimizeResult(NamedTuple):
    y: SampledFunction
    value: float
    gradient_norm: float
    iterations: int
    beta: np.ndarray
    #: why descent stopped: "converged", "stalled" or "max_iter"
    stop: str


def _affine_background(problem: VariationalProblem, grid: Grid) -> np.ndarray:
    ya = problem.ya if problem.ya is not None else 0.0
    yb = problem.yb if problem.yb is not None else 0.0
    t = grid.nodes
    return ya + (yb - ya) * (t - grid.a) / (grid.b - grid.a)


class _TrialSpace:
    """Operator images of the background and of every basis direction.

    All four trajectory slots are affine in the coefficients, so one
    stacked application per slot turns each objective or gradient
    evaluation into dense linear algebra.  ``value`` and ``gradient``
    take the slots of one coefficient vector, so an iterate's slots are
    formed once for both.
    """

    def __init__(self, problem: VariationalProblem, basis: RitzBasis) -> None:
        grid = basis.grid
        _check_interval(grid, problem.binding.p.a, problem.binding.p.b)
        _check_weight_grid(problem, grid)
        self.problem = problem
        self.grid = grid
        self.tw = _trapezoid_weights(grid)
        if problem.weight is not None:
            self.tw = self.tw * problem.weight.values
        bg = SampledFunction(grid, _affine_background(problem, grid))
        # the slots of every basis row and, in the last row, the background
        stacks = _slots(problem.binding, grid, np.vstack((basis.phi, bg.values)))
        self.base = tuple(stack[-1] for stack in stacks)
        self.images = tuple(stack[:-1] for stack in stacks)

    def slots(self, beta: np.ndarray):
        (b1, b2, b3, b4), (i1, i2, i3, i4) = self.base, self.images
        return (b1 + beta @ i1, b2 + beta @ i2, b3 + beta @ i3, b4 + beta @ i4)

    def value(self, slots) -> float:
        vals = self.problem.lagrangian.value(*slots, self.grid.nodes)
        return float(vals @ self.tw)

    def gradient(self, slots) -> np.ndarray:
        p1, p2, p3, p4 = self.problem.lagrangian.partials(*slots, self.grid.nodes)
        (i1, i2, i3, i4), tw = self.images, self.tw
        return i1 @ (p1 * tw) + i2 @ (p2 * tw) + i3 @ (p3 * tw) + i4 @ (p4 * tw)

    def diagonal(self, slots) -> np.ndarray:
        """Diagonal preconditioner ``d_k = sum_s sum_t tw |c_s| image_{s,k}**2``.

        The curvature ``c_s`` of slot ``s`` is one forward difference of
        its partial, step ``1e-3 * (1 + |x_s|)``, at ``slots``; it is exact
        for quadratic Lagrangians, and a non-finite sample counts as zero.
        Entries below ``1e-8`` of the largest are raised to that floor, and
        a diagonal with no positive finite entry becomes the identity.
        """
        lag, nodes = self.problem.lagrangian, self.grid.nodes
        d = np.zeros(len(self.images[0]))
        for i, (image, x) in enumerate(zip(self.images, slots)):
            h = _CURVATURE_STEP * (1.0 + np.abs(x))
            bumped = list(slots)
            bumped[i] = x + h
            with np.errstate(invalid="ignore", over="ignore"):
                c = (lag.partial(i, *bumped, nodes) - lag.partial(i, *slots, nodes)) / h
            weight = self.tw * np.abs(np.where(np.isfinite(c), c, 0.0))
            d += np.einsum("kt,kt,t->k", image, image, weight)
        top = float(d.max())
        if not (math.isfinite(top) and top > 0.0):
            return np.ones_like(d)
        return np.maximum(d, _DIAGONAL_FLOOR * top)


def direct_minimize(
    problem: VariationalProblem,
    basis: RitzBasis,
    options: Optional[MinimizeOptions] = None,
) -> MinimizeResult:
    """Minimize the functional over the affine span of the basis.

    The trial trajectory is the boundary-matching affine background plus
    a basis combination, so boundary values hold for every iterate.
    Descent is diagonally preconditioned Barzilai-Borwein (Molina and
    Raydan, 1996): the direction is ``-g / d`` with the diagonal ``d`` of
    ``_TrialSpace.diagonal`` taken once at the start, which approximates
    the diagonal of the Ritz Hessian (on the sine basis it grows like the
    square of the mode index), and the spectral step is
    ``(s . d s) / (s . y)``.  A nonmonotone Armijo test against the worst
    of the last 10 accepted values guards each step (Raydan, 1997); a
    strictly monotone guard defeats the spectral step and can limit-cycle
    just above tight tolerances.  The first step has length 1.

    ``stop`` says why descent ended: ``"converged"`` when the largest
    gradient entry is below 1e-8, ``"stalled"`` when 60 halvings of the
    step find no acceptable value (round-off, or a functional that is
    non-finite off the iterate), ``"max_iter"`` after 10000 accepted
    steps.  ``iterations`` counts accepted steps.  50 consecutive rising
    values raise ``CoercivityError``, and a non-finite value or gradient
    at the start raises ``NumericError``.
    """
    opts = options or MinimizeOptions()
    space = _TrialSpace(problem, basis)
    if opts.beta0 is None:
        beta = np.zeros(basis.m)
    else:
        beta = np.asarray(opts.beta0, dtype=float).copy()
        if beta.shape != (basis.m,):
            raise InputError(f"beta0 must have shape ({basis.m},)")
    slots = space.slots(beta)
    fval = space.value(slots)
    grad = space.gradient(slots)
    if not (math.isfinite(fval) and np.all(np.isfinite(grad))):
        raise NumericError("the functional or its gradient is non-finite at the start point")
    diag = space.diagonal(slots)
    f0 = fval
    step = _INITIAL_STEP
    prev_beta = None
    prev_grad = None
    recent = [fval]
    rising = 0
    iterations = 0
    while True:
        if float(np.abs(grad).max()) < _GRAD_TOL:
            stop = "converged"
            break
        if iterations == _MAX_ITER:
            stop = "max_iter"
            break
        direction = -grad / diag
        if prev_beta is not None:
            s = beta - prev_beta
            sy = float(s @ (grad - prev_grad))
            if math.isfinite(sy) and sy > 1e-300:
                step = float(s @ (diag * s)) / sy
        slope = float(grad @ direction)
        reference = max(recent)
        trial = step
        accepted = False
        for _ in range(60):
            cand = beta + trial * direction
            cand_slots = space.slots(cand)
            fcand = space.value(cand_slots)
            if math.isfinite(fcand) and fcand <= reference + 1e-4 * trial * slope:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            stop = "stalled"
            break
        iterations += 1
        prev_beta, prev_grad = beta, grad
        beta, slots = cand, cand_slots
        rising = rising + 1 if fcand > fval else 0
        fval = fcand
        recent.append(fval)
        if len(recent) > _MEMORY:
            recent.pop(0)
        grad = space.gradient(slots)
        if rising >= _DIVERGENCE_PATIENCE or fval < -1e14 * (1.0 + abs(f0)):
            raise CoercivityError(
                "descent is diverging; the functional is unbounded below "
                "on this trial space"
            )
    gnorm = float(np.abs(grad).max())
    y = SampledFunction(space.grid, slots[0])
    return MinimizeResult(y, fval, gnorm, iterations, beta, stop)


@dataclass(frozen=True)
class ProbeReport:
    """Functional growth along random rays through the trial space."""

    scales: tuple
    values: np.ndarray  # (directions, len(scales))
    increasing: np.ndarray  # (directions,) bool
    all_increasing: bool


def coercivity_probe(problem: VariationalProblem, basis: RitzBasis) -> ProbeReport:
    """Sample the functional along eight seeded random rays to flag
    unbounded-below spaces.

    Not a proof in either direction, but a cheap screen: a coercive
    functional must eventually grow along every ray, so any decreasing
    tail is a strong warning before running ``direct_minimize``.
    """
    space = _TrialSpace(problem, basis)
    rng = np.random.default_rng(0)
    scales = (1.0, 10.0, 100.0)
    values = np.empty((_PROBE_DIRECTIONS, len(scales)))
    for d in range(_PROBE_DIRECTIONS):
        ray = rng.standard_normal(basis.m)
        ray /= float(np.linalg.norm(ray))
        for col, s in enumerate(scales):
            values[d, col] = space.value(space.slots(s * ray))
    increasing = (values[:, -1] > values[:, -2]) & (values[:, -2] > values[:, 0])
    return ProbeReport(scales, values, increasing, bool(increasing.all()))
