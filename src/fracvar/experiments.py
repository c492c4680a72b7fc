"""Named verification experiments with deterministic file outputs.

Each experiment instantiates one of the library's closed-form test
problems, runs the relevant solvers, and writes ``results.json`` plus
CSV tables and two-column ``.dat`` series into the output directory.
Outputs are byte-identical across runs with the same config and seed;
wall time lives in a ``timing.txt`` sidecar so the JSON stays stable.
"""

from __future__ import annotations

import json
import math
import operator
import os
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import InputError, ParseError
from .foundation import (
    _MAX_EIGEN_DIM,
    Grid,
    SampledFunction,
    _check_endpoints,
    _is_count,
    _trapezoid_weights,
    cumulative_trapezoid,
    gamma,
    interior_slice,
    interior_sup,
    mittag_leffler,
    trapezoid,
)
from .operators import (
    ClassicalOp,
    CornerExtrapolationWarning,
    DifferenceKernel,
    GeneralKernel,
    OperatorBinding,
    ParameterSet,
    PowerLawKernel,
    _classical_rows,
    boundedness_constant,
    classical,
    k_apply,
    verify_ibp,
)
from .variational import (
    Lagrangian,
    NoetherGenerator,
    VariationalProblem,
    dissipative_parameter,
    el_residual,
    isoperimetric_residual,
    noether_drift,
)
from .sturm_liouville import (
    _MIN_NODES_PER_MODE,
    MinimizeOptions,
    RitzBasis,
    SLProblem,
    converge,
    direct_minimize,
    rayleigh_quotient,
    sl_residual,
    solve_spectrum,
)

__all__ = [
    "ExperimentConfig",
    "Assertion",
    "ResultRecord",
    "parse_config",
    "run",
    "list_experiments",
    "power_identity_errors",
    "mittag_leffler_extremal",
    "counterexample_kernel",
    "translated_quadratic_problem",
    "quasilinear_problem",
    "tracking_problem",
    "damped_oscillator_problem",
    "power_weight_extremal",
]


class _Experiment(NamedTuple):
    """A catalogue entry: its ``fracvar list`` line, its runner, the
    defaults of a config, the assertion ids ``tolerances`` may set, and
    the ``_OPTIONAL_SETTINGS`` its runner reads; a config that sets any
    other is refused, and the run keeps its default.  Only runners whose
    closed forms hold on every ``[a, b]`` read ``interval``."""

    description: str
    runner: Callable
    n: int
    alpha: tuple  # its length is how many orders the runner reads
    assertion_ids: tuple
    interval: tuple = (0.0, 1.0)
    spectral: bool = False  # orders in (0.5, 1), or 1.0 for the classical mode
    reads: tuple = ()


#: the basis settings: default, test of a value, and the rule a value breaks
_BASIS_SETTINGS = {
    "m": (16, lambda v: _is_count(v, 1, _MAX_EIGEN_DIM),
          f"must be a positive integer at most {_MAX_EIGEN_DIM}"),
    "m_schedule": ((4, 8, 16, 32),
                   lambda v: isinstance(v, (list, tuple)) and len(v) >= 2
                   and all(_is_count(x, 1, _MAX_EIGEN_DIM) for x in v)
                   and all(x < y for x, y in zip(v, v[1:])),
                   "must be a strictly increasing list of positive integers "
                   f"at most {_MAX_EIGEN_DIM}"),
    "r": (3, lambda v: _is_count(v, 1, math.inf), "must be a positive integer"),
}

#: the settings each experiment reads or refuses, by its ``reads``
_OPTIONAL_SETTINGS = ("interval", "alpha", *_BASIS_SETTINGS)
_SCHEMA_KEYS = ("experiment", "n", *_OPTIONAL_SETTINGS, "tolerances", "output_dir", "seed")
_N_RANGE = (32, 16384)


def _assertion_ids(experiment: str, alpha: tuple) -> tuple:
    # sl-solve adds "classical-eigenvalues" at alpha = 1, else "eigenvalue-bound"
    ids = _EXPERIMENTS[experiment].assertion_ids
    if experiment == "sl-solve":
        ids += ("classical-eigenvalues",) if alpha == (1.0,) else ("eigenvalue-bound",)
    return ids


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated inputs of one experiment run."""

    experiment: str
    a: float
    b: float
    n: int
    alpha: tuple
    m: int
    m_schedule: tuple
    r: int
    tolerances: dict
    output_dir: Optional[str]
    seed: int


@dataclass(frozen=True)
class Assertion:
    """One pass/fail check with its tolerance and measured value."""

    id: str
    tolerance: float
    measured: float
    passed: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "measured", float(self.measured))
        object.__setattr__(self, "passed", bool(self.passed))

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{self.id}: {verdict} (measured {self.measured:.6g}, "
            f"tolerance {self.tolerance:.6g})"
        )


@dataclass(frozen=True)
class ResultRecord:
    experiment: str
    inputs: dict
    results: dict
    series: dict
    assertions: tuple
    wall_time_s: float
    #: artifact directory the run wrote
    output_dir: str

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _to_float(v) -> float:
    """``v`` as a float; NaN for a non-number or an integer beyond floats."""
    if not _is_number(v):
        return math.nan
    try:
        return float(v)
    except OverflowError:
        return math.nan


def _validate_alpha(values, spectral: bool, errors: list) -> tuple:
    out = []
    for v in values:
        v = _to_float(v)
        if not math.isfinite(v):
            errors.append("alpha: entries must be finite numbers")
            return ()
        if spectral:
            if v != 1.0 and not 0.5 < v < 1.0:
                errors.append(
                    "alpha: must lie in (0.5, 1), or be exactly 1.0 for the "
                    "classical mode"
                )
                return ()
        elif not 0.0 < v < 1.0:
            errors.append("alpha: must lie in (0, 1)")
            return ()
        out.append(v)
    return tuple(out)


def _config_from_mapping(doc: dict) -> ExperimentConfig:
    errors = []
    for key in sorted(doc):
        if key not in _SCHEMA_KEYS:
            errors.append(f"{key}: unknown key")
    experiment = doc.get("experiment")
    if experiment is None:
        errors.append("experiment: required")
    elif not isinstance(experiment, str) or experiment not in _EXPERIMENTS:
        errors.append(
            f"experiment: unknown id {experiment!r}; valid ids: "
            + ", ".join(_EXPERIMENTS)
        )
    if errors:
        raise ParseError(errors)

    spec = _EXPERIMENTS[experiment]
    unread = [key for key in _OPTIONAL_SETTINGS if key in doc and key not in spec.reads]
    errors += [f"{key}: {experiment} does not read it" for key in unread]
    doc = {key: value for key, value in doc.items() if key not in unread}
    interval = doc.get("interval", spec.interval)
    pair = isinstance(interval, (list, tuple)) and len(interval) == 2
    a, b = map(_to_float, interval) if pair else (math.nan, math.nan)
    try:
        _check_endpoints(a, b)
    except InputError:
        errors.append("interval: must be [a, b] with a < b")

    n, (lo, hi) = doc.get("n", spec.n), _N_RANGE
    if not (_is_count(n, lo, hi) and not n & (n - 1)):
        errors.append(f"n: must be a power of two between {lo} and {hi}")
        n = spec.n

    raw_alpha = doc.get("alpha", spec.alpha)
    if _is_number(raw_alpha):
        raw_alpha = (raw_alpha,)
    if not isinstance(raw_alpha, (list, tuple)):
        errors.append("alpha: must be a number or a list of numbers")
        raw_alpha = spec.alpha
    alpha = _validate_alpha(raw_alpha, spec.spectral, errors)
    if len(spec.alpha) > 1 and not raw_alpha:
        errors.append(f"alpha: {experiment} needs at least one order")
    elif len(spec.alpha) == 1 and len(raw_alpha) != 1:
        errors.append(f"alpha: {experiment} takes exactly one order")

    settings = {}
    for key, (default, valid, rule) in _BASIS_SETTINGS.items():
        value = doc.get(key, default)
        if valid(value):
            settings[key] = value
        else:
            errors.append(f"{key}: {rule}")
    for key in ("m", "m_schedule"):
        if key in spec.reads and key in settings:
            sizes = np.ravel(settings[key])
            if "r" in spec.reads and settings.get("r", 0) > sizes.min():
                errors.append(f"r: must not exceed min({key}) = {sizes.min()}")
            need = _MIN_NODES_PER_MODE * int(sizes.max())
            if n < need:
                errors.append(f"n: must be at least {_MIN_NODES_PER_MODE}*max({key}) = {need}")

    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        errors.append("tolerances: must be an object of positive finite numbers")
    else:
        ids = _assertion_ids(experiment, alpha)
        for key in sorted(tolerances):
            if key not in ids:
                errors.append(
                    f"tolerances.{key}: names no assertion of {experiment}; "
                    f"its assertions are {', '.join(ids)}"
                )
            elif not 0 < _to_float(tolerances[key]) < math.inf:
                errors.append(f"tolerances.{key}: must be a positive finite number")

    output_dir = doc.get("output_dir")
    if output_dir is not None and not (isinstance(output_dir, str) and output_dir):
        errors.append("output_dir: must be a non-empty string")

    seed = doc.get("seed", 20240817)
    if not _is_count(seed, 0, math.inf):
        errors.append("seed: must be a non-negative integer")

    if errors:
        raise ParseError(errors)
    settings["m_schedule"] = tuple(settings["m_schedule"])
    return ExperimentConfig(experiment=experiment, a=a, b=b, n=n, alpha=alpha, **settings,
                            tolerances=dict(tolerances), output_dir=output_dir, seed=seed)


def _decode_document(text: str) -> dict:
    """The JSON object of a config document; ParseError otherwise."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError([f"document: {exc.msg} at line {exc.lineno} column {exc.colno}"])
    if not isinstance(doc, dict):
        raise ParseError(["document: top level must be a JSON object"])
    return doc


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON config document; collect all field errors at once."""
    return _config_from_mapping(_decode_document(text))


def list_experiments() -> str:
    """Stable catalogue text, one experiment per line."""
    lines = [f"{name}: {spec.description}" for name, spec in _EXPERIMENTS.items()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# closed-form fixtures, shared by the runners and by the test suite

#: the smooth difference kernel ``exp(-(t - tau))``
_EXP_KERNEL = DifferenceKernel(lambda u: np.exp(-u))


def _left_binding(grid: Grid, kernel) -> OperatorBinding:
    """The left-sided binding of ``kernel`` on the interval of ``grid``."""
    return OperatorBinding(ParameterSet(grid.a, grid.b, 1.0, 0.0), kernel)


def power_identity_errors(alpha: float, beta: float, n: int, a: float = 0.0, b: float = 1.0) -> dict:
    """Interior sup errors of the four one-sided power mappings.

    The fractional integral sends ``(t-a)**(beta-1)`` to the same power
    raised by ``alpha`` and scaled by a gamma ratio; the derivative
    lowers it.  Right-sided versions mirror in ``b - t``.
    """
    return _power_identity_rows(alpha, (beta,), n, a, b)[0]


def _power_identity_rows(alpha: float, betas, n: int, a: float, b: float) -> list:
    """``power_identity_errors`` for each of ``betas``, one stacked call per mapping."""
    grid = Grid(a, b, n)
    sl = interior_slice(n)
    left, right = grid.nodes - a, b - grid.nodes
    out = [{} for _ in betas]
    for name, op, base, shift in (
        ("integral-left", ClassicalOp.RL_INT_LEFT, left, alpha),
        ("integral-right", ClassicalOp.RL_INT_RIGHT, right, alpha),
        ("derivative-left", ClassicalOp.RL_DER_LEFT, left, -alpha),
        ("derivative-right", ClassicalOp.RL_DER_RIGHT, right, -alpha),
    ):
        rows = np.array([SampledFunction(grid, base ** (beta - 1.0)).values for beta in betas])
        for got, beta, errors in zip(_classical_rows(op, alpha, grid, rows), betas, out):
            want = gamma(beta) / gamma(beta + shift) * base[sl] ** (beta + shift - 1.0)
            errors[name] = float(np.abs(got[sl] - want).max())
    return out


def mittag_leffler_extremal(alpha: float, grid: Grid) -> SampledFunction:
    """Trajectory with ``dy/dt + (Caputo derivative of order alpha) = 1``
    and ``y(a) = 0`` on the grid's interval ``[a, b]``.

    The integrand of the antiderivative is the one-parameter
    Mittag-Leffler function of order ``1 - alpha`` evaluated at
    ``-((t - a)**(1-alpha))``, at all nodes in one array call.  Against one
    scalar call per node, the rate differs by at most 4.4e-16 relative,
    from ``np.exp`` against ``math.exp`` and ``np.power`` on the array
    against the scalar.
    """
    nu = 1.0 - alpha
    rate = mittag_leffler(nu, -((grid.nodes - grid.a) ** nu))
    return cumulative_trapezoid(SampledFunction(grid, rate))


def counterexample_kernel() -> GeneralKernel:
    """Bounded kernel whose transform of 1 on [0, 1] integrates to pi/4."""
    return GeneralKernel(lambda x, y: (x * x - y * y) / (x * x + y * y) ** 2, 0.0)


def translated_quadratic_problem(grid: Grid):
    """Quadratic functional whose extremal is ``t + sin(pi t)`` exactly.

    Each slot of the sum-of-squares Lagrangian is translated by the
    closed-form image of the extremal under the exponential-kernel
    binding, so the minimizer is known and lies in the sine trial space.
    """
    pi = math.pi
    d = 1.0 + pi * pi

    def g1(t):
        return t + np.sin(pi * t)

    def g2(t):
        return (
            t
            - 1.0
            + np.exp(-t)
            + (np.sin(pi * t) - pi * np.cos(pi * t) + pi * np.exp(-t)) / d
        )

    def g3(t):
        return 1.0 + pi * np.cos(pi * t)

    def g4(t):
        return 1.0 - np.exp(-t) + pi * (
            np.cos(pi * t) + pi * np.sin(pi * t) - np.exp(-t)
        ) / d

    lag = Lagrangian(
        lambda x1, x2, x3, x4, t: 0.5
        * (
            (x1 - g1(t)) ** 2
            + (x2 - g2(t)) ** 2
            + (x3 - g3(t)) ** 2
            + (x4 - g4(t)) ** 2
        ),
        d1=lambda x1, x2, x3, x4, t: x1 - g1(t),
        d2=lambda x1, x2, x3, x4, t: x2 - g2(t),
        d3=lambda x1, x2, x3, x4, t: x3 - g3(t),
        d4=lambda x1, x2, x3, x4, t: x4 - g4(t),
    )
    problem = VariationalProblem(lag, _left_binding(grid, _EXP_KERNEL), ya=0.0, yb=1.0)
    exact = SampledFunction(grid, grid.nodes + np.sin(pi * grid.nodes))
    return problem, exact


def quasilinear_problem(grid: Grid) -> VariationalProblem:
    """Dirichlet-energy functional with smooth linear slot couplings,
    bound to the order-0.6 Caputo derivative."""

    def f1(t):
        return -np.sin(np.pi * t) * (1.0 + t)

    def f3(t):
        return t * t * (1.0 - t) ** 2

    lag = Lagrangian(
        lambda x1, x2, x3, x4, t: 0.5 * x3 * x3 + f1(t) * x1 + f3(t) * x3,
        d1=lambda x1, x2, x3, x4, t: f1(t),
        d3=lambda x1, x2, x3, x4, t: x3 + f3(t),
    )
    binding = _left_binding(grid, PowerLawKernel(0.6, "derivative"))
    return VariationalProblem(lag, binding, ya=0.0, yb=0.0)


def tracking_problem(grid: Grid):
    """Integral-tracking functional with exact minimizer ``-1 - t``."""
    lag = Lagrangian(
        lambda x1, x2, x3, x4, t: (x2 + t) ** 2,
        d2=lambda x1, x2, x3, x4, t: 2.0 * (x2 + t),
    )
    problem = VariationalProblem(lag, _left_binding(grid, _EXP_KERNEL), ya=-1.0, yb=-2.0)
    exact = SampledFunction(grid, -1.0 - grid.nodes)
    return problem, exact


def damped_oscillator_problem(grid: Grid, weight_rate: float = 0.1):
    """Weighted oscillator whose extremal is the damped cosine.

    The action weight ``exp(weight_rate * (b - t))`` combines with the
    Lagrangian's own ``exp(damping * t)`` factor, ``damping = 0.3``, into
    a net damping of ``damping - weight_rate``; with the frequency
    ``omega = 2`` this gives the closed-form trajectory.
    """
    damping = 0.3
    omega = 2.0
    t = grid.nodes
    half = 0.5 * (damping - weight_rate)
    omega_d = math.sqrt(omega * omega - half * half)
    y = np.exp(-half * t) * (
        np.cos(omega_d * t) + (half / omega_d) * np.sin(omega_d * t)
    )
    weight = SampledFunction(grid, np.exp(weight_rate * (grid.b - t)))
    lag = Lagrangian(
        lambda x1, x2, x3, x4, tt: np.exp(damping * tt)
        * (0.5 * x3 * x3 - 0.5 * omega * omega * x1 * x1),
        d1=lambda x1, x2, x3, x4, tt: -np.exp(damping * tt) * omega * omega * x1,
        d2=lambda x1, x2, x3, x4, tt: np.zeros_like(np.asarray(x1, dtype=float)),
        d3=lambda x1, x2, x3, x4, tt: np.exp(damping * tt) * x3,
        d4=lambda x1, x2, x3, x4, tt: np.zeros_like(np.asarray(x1, dtype=float)),
    )
    problem = VariationalProblem(
        lag, _left_binding(grid, _EXP_KERNEL), ya=float(y[0]), yb=float(y[-1]), weight=weight
    )
    return problem, SampledFunction(grid, y)


def power_weight_extremal(alpha: float, grid: Grid):
    """Trajectory whose Caputo derivative is ``c * (b - t)**(alpha - 1)``.

    The scaling ``c`` normalizes the right endpoint value to one; this
    is the minimizer of the squared-derivative-slot functional with
    boundary values 0 and 1, because the right-sided derivative of the
    power profile vanishes identically.
    """
    t = grid.nodes
    c = gamma(alpha) * (2.0 * alpha - 1.0)
    profile = np.zeros(grid.n + 1)
    profile[:-1] = (grid.b - t[:-1]) ** (alpha - 1.0)
    y = c * classical(ClassicalOp.RL_INT_LEFT, alpha, SampledFunction(grid, profile)).values
    y[-1] = 1.0
    return SampledFunction(grid, y), c


# ---------------------------------------------------------------------------
# runners


def _check(cfg: ExperimentConfig, assertion_id: str, default: float, measured: float,
           passes=operator.lt) -> Assertion:
    """Assertion ``passes(measured, tolerance)``; the tolerance is the
    config override under the assertion's own id, else ``default``."""
    tol = float(cfg.tolerances.get(assertion_id, default))
    return Assertion(assertion_id, tol, measured, passes(measured, tol))


def _run_ops_identities(cfg: ExperimentConfig, grid: Grid):
    betas = (1.0, 1.5, 2.0)
    id_rows = []
    worst_sup = 0.0
    worst_order = math.inf
    floor = 1e-12
    for al in cfg.alpha:
        fines = _power_identity_rows(al, betas, cfg.n, cfg.a, cfg.b)
        coarses = _power_identity_rows(al, betas, cfg.n // 2, cfg.a, cfg.b)
        for be, fine, coarse in zip(betas, fines, coarses):
            for name in fine:
                # ratios are noise once both grids sit at the roundoff
                # floor (the rule is exact for these inputs)
                if fine[name] > floor and coarse[name] > floor:
                    order = math.log2(coarse[name] / fine[name])
                    worst_order = min(worst_order, order)
                else:
                    order = math.nan
                id_rows.append((name, al, be, fine[name], order))
                worst_sup = max(worst_sup, fine[name])
    sl = interior_slice(cfg.n)
    t = grid.nodes
    names = ("one", "t", "t^2", "sin")
    fixtures = np.array([np.ones_like(t), t, t * t, np.sin(t)])
    law_rows = []
    worst_law = 0.0
    for al in cfg.alpha:
        half = 0.5 * al
        # 0.5 * al + 0.5 * al == al exactly, so this is also the semigroup's
        # one-step image, as in verify_semigroup
        smoothed = _classical_rows(ClassicalOp.RL_INT_LEFT, al, grid, fixtures)
        staged = _classical_rows(ClassicalOp.RL_INT_LEFT, half, grid,
                                 _classical_rows(ClassicalOp.RL_INT_LEFT, half, grid, fixtures))
        rl = _classical_rows(ClassicalOp.RL_DER_LEFT, al, grid, smoothed)
        cap = _classical_rows(ClassicalOp.CAPUTO_LEFT, al, grid, smoothed)
        for r, fname in enumerate(names):
            semi = interior_sup(staged[r] - smoothed[r])
            rl_inv = float(np.abs(rl[r, sl] - fixtures[r, sl]).max())
            cap_inv = float(np.abs(cap[r, sl] - fixtures[r, sl]).max())
            for law, err in (
                ("semigroup", semi),
                ("derivative-inverse", rl_inv),
                ("caputo-inverse", cap_inv),
            ):
                law_rows.append((law, fname, al, err))
                worst_law = max(worst_law, err)
    assertions = [
        _check(cfg, "power-sup", 5e-3, worst_sup),
        _check(cfg, "power-order", 1.0, worst_order, operator.ge),
        _check(cfg, "laws-sup", 5e-3, worst_law),
    ]
    results = {
        "worst_power_sup": worst_sup,
        "worst_power_order": worst_order,
        "worst_law_sup": worst_law,
    }
    tables = {
        "identities": (("identity", "alpha", "beta", "sup_error", "order"), id_rows),
        "laws": (("law", "f", "alpha", "sup_error"), law_rows),
    }
    return results, tables, {}, assertions


_IBP_SIDE_WEIGHTS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (0.5, -0.25))


def _run_ibp_suite(cfg: ExperimentConfig, grid: Grid):
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst = 0.0
    for i in range(20):
        coeffs = rng.uniform(-1.0, 1.0, (2, 5))
        lam, mu = _IBP_SIDE_WEIGHTS[i % len(_IBP_SIDE_WEIGHTS)]
        p = ParameterSet(cfg.a, cfg.b, lam, mu)
        f = SampledFunction(grid, np.polyval(coeffs[0], grid.nodes))
        g = SampledFunction(grid, np.polyval(coeffs[1], grid.nodes))
        report = verify_ibp(p, _EXP_KERNEL, f, g)
        rows.append((i, lam, mu, report.lhs, report.rhs, report.residual))
        worst = max(worst, report.residual)
    assertions = [_check(cfg, "ibp-residual", 1e-6, worst)]
    results = {"worst_residual": worst, "pairs": 20}
    tables = {"pairs": (("pair", "lam", "mu", "lhs", "rhs", "residual"), rows)}
    return results, tables, {}, assertions


def _run_counterexample(cfg: ExperimentConfig, grid: Grid):
    kernel = counterexample_kernel()
    p = ParameterSet(cfg.a, cfg.b, 1.0, -1.0)
    ones = SampledFunction(grid, np.ones(cfg.n + 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CornerExtrapolationWarning)
        transform = k_apply(p, kernel, ones)
    # with f = g = 1 these are the two sides of the swap identity; as
    # mu = -lam, k_apply(dual(p), ...) is -transform bit for bit
    lhs = trapezoid(transform)
    rhs = -lhs
    residual = abs(lhs - rhs)
    target = math.pi / 4.0
    assertions = [
        _check(cfg, "left-value", 2e-3, abs(lhs - target)),
        _check(cfg, "dual-value", 2e-3, abs(rhs + target)),
        _check(cfg, "identity-gap", 1.5, residual, operator.gt),
    ]
    results = {
        "lhs": lhs,
        "rhs": rhs,
        "target": target,
        "identity_residual": residual,
    }
    tables = {
        "values": (
            ("quantity", "value", "target"),
            [("lhs", lhs, target), ("rhs", rhs, -target)],
        )
    }
    series = {"kernel-transform": (grid.nodes, transform.values)}
    return results, tables, series, assertions


def _run_el_check(cfg: ExperimentConfig, grid: Grid):
    al = cfg.alpha[0]
    y = mittag_leffler_extremal(al, grid)
    binding = _left_binding(grid, PowerLawKernel(al, "derivative"))
    defect = y.derivative().values + binding.b(y).values - 1.0
    defect_sup = interior_sup(defect)

    def slope(x1, x2, x3, x4, t):
        return (x3 + x4 - 1.0) / np.sqrt(1.0 + (x3 + x4 - 1.0) ** 2)

    lag = Lagrangian(
        lambda x1, x2, x3, x4, t: np.sqrt(1.0 + (x3 + x4 - 1.0) ** 2), d3=slope, d4=slope
    )
    problem = VariationalProblem(lag, binding, ya=0.0, yb=float(y.values[-1]))
    el_sup = interior_sup(el_residual(problem, y).values)
    assertions = [
        _check(cfg, "defect-sup", 1e-2, defect_sup),
        _check(cfg, "el-sup", 1e-2, el_sup),
    ]
    results = {"defect_sup": defect_sup, "el_sup": el_sup, "alpha": al}
    series = {
        "extremal": (grid.nodes, y.values),
        "defect": (grid.nodes, defect),
    }
    return results, {}, series, assertions


def _run_isoperimetric(cfg: ExperimentConfig, grid: Grid):
    al = cfg.alpha[0]
    xi = 2.0
    binding = _left_binding(grid, DifferenceKernel(lambda u: np.exp(al * u)))
    lag = Lagrangian(
        lambda x1, x2, x3, x4, t: (x2 + t) ** 2,
        d2=lambda x1, x2, x3, x4, t: 2.0 * (x2 + t),
    )
    problem = VariationalProblem(lag, binding, ya=xi - 1.0, yb=(xi - 1.0) * (1.0 - al))
    constraint = Lagrangian(
        lambda x1, x2, x3, x4, t: t * x2,
        d2=lambda x1, x2, x3, x4, t: np.asarray(t, dtype=float),
    )
    y = SampledFunction(grid, (xi - 1.0) * (1.0 - al * grid.nodes))
    report = isoperimetric_residual(problem, constraint, (xi - 1.0) / 3.0, y)
    gap = abs(report.multiplier - 2.0 * xi)
    assertions = [
        _check(cfg, "multiplier", 1e-2, gap),
        _check(cfg, "augmented-el", 1e-6, report.residual),
    ]
    results = {
        "multiplier": report.multiplier,
        "target": 2.0 * xi,
        "augmented_residual": report.residual,
        "xi": xi,
        "alpha": al,
    }
    series = {"extremal": (grid.nodes, y.values)}
    return results, {}, series, assertions


def _run_noether(cfg: ExperimentConfig, grid: Grid):
    al = cfg.alpha[0]
    y, _scale = power_weight_extremal(al, grid)
    binding = _left_binding(grid, PowerLawKernel(al, "derivative"))
    lag = Lagrangian(
        lambda x1, x2, x3, x4, t: x4 * x4,
        d4=lambda x1, x2, x3, x4, t: 2.0 * x4,
    )
    problem = VariationalProblem(lag, binding, ya=0.0, yb=1.0)
    unit = NoetherGenerator(lambda t, x: 1.0)
    report = noether_drift(problem, y, unit)
    c_true = 2.0 * gamma(al) ** 2 * (2.0 * al - 1.0)
    mid = float(report.constant.values[cfg.n // 2])

    classical_lag = Lagrangian(
        lambda x1, x2, x3, x4, t: x3 * x3,
        d3=lambda x1, x2, x3, x4, t: 2.0 * x3,
    )
    line = SampledFunction(grid, grid.nodes)
    classical_problem = VariationalProblem(
        classical_lag, _left_binding(grid, _EXP_KERNEL), ya=float(grid.a), yb=float(grid.b)
    )
    classical_report = noether_drift(classical_problem, line, unit)

    assertions = [
        _check(cfg, "fractional-drift", 1e-3, report.drift),
        _check(cfg, "classical-drift", 1e-12, classical_report.drift),
    ]
    results = {
        "fractional_drift": report.drift,
        "classical_drift": classical_report.drift,
        "constant_midpoint": mid,
        "constant_closed_form": c_true,
        "alpha": al,
    }
    series = {
        "conserved": (grid.nodes, report.constant.values),
        "extremal": (grid.nodes, y.values),
    }
    return results, {}, series, assertions


def _run_falva(cfg: ExperimentConfig, grid: Grid):
    weight_rate = cfg.alpha[0]
    problem, y = damped_oscillator_problem(grid, weight_rate=weight_rate)
    residual = el_residual(problem, y).values
    el_sup = interior_sup(residual)
    delta = dissipative_parameter(problem.weight)
    delta_gap = float(np.abs(delta.values + weight_rate).max())
    assertions = [
        _check(cfg, "weighted-el", 1e-3, el_sup),
        _check(cfg, "dissipation", 1e-6, delta_gap),
    ]
    results = {
        "weighted_el_sup": el_sup,
        "dissipation_gap": delta_gap,
        "weight_rate": weight_rate,
    }
    series = {
        "trajectory": (grid.nodes, y.values),
        "dissipation": (grid.nodes, delta.values),
        "residual": (grid.nodes, residual),
    }
    return results, {}, series, assertions


def _constant_coefficient_problem(alpha: float, a: float, b: float) -> SLProblem:
    return SLProblem(
        alpha,
        lambda t: np.ones_like(np.asarray(t, dtype=float)),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        lambda t: np.ones_like(np.asarray(t, dtype=float)),
        a,
        b,
    )


def _run_sl_solve(cfg: ExperimentConfig, grid: Grid):
    al = cfg.alpha[0]
    problem = _constant_coefficient_problem(al, cfg.a, cfg.b)
    spectrum = solve_spectrum(problem, cfg.m, cfg.r, grid)
    tw = _trapezoid_weights(grid)
    funcs = np.vstack([f.values for f in spectrum.eigenfunctions])
    gram = (funcs * tw) @ funcs.T
    gram_off = float(np.abs(gram - np.diag(np.diag(gram))).max())
    quotients = [rayleigh_quotient(problem, f) for f in spectrum.eigenfunctions]
    rq_gap = max(
        abs(quotients[j] - spectrum.lambdas[j]) / (1.0 + abs(spectrum.lambdas[j]))
        for j in range(cfg.r)
    )
    residual_1 = sl_residual(problem, float(spectrum.lambdas[0]), spectrum.eigenfunctions[0])
    rows = [
        (j + 1, float(spectrum.lambdas[j]), float(quotients[j]), float(spectrum.right_trace[j]))
        for j in range(cfg.r)
    ]
    assertions = [
        _check(cfg, "rayleigh-consistency", 1e-8, rq_gap),
        _check(cfg, "gram-offdiag", 2e-3, gram_off),
    ]
    results = {
        "alpha": al,
        "lambdas": [float(v) for v in spectrum.lambdas],
        "gram_offdiag": gram_off,
        "rayleigh_gap": rq_gap,
        "mode1_strong_residual": residual_1,
        "right_trace": [float(v) for v in spectrum.right_trace],
    }
    if al == 1.0:
        scale = math.pi / (cfg.b - cfg.a)
        target = [(j + 1) ** 2 * scale * scale for j in range(cfg.r)]
        gap = max(abs(spectrum.lambdas[j] - target[j]) / target[j] for j in range(cfg.r))
        assertions.append(_check(cfg, "classical-eigenvalues", 1e-2, gap))
        results["classical_targets"] = target
    else:
        classical_problem = _constant_coefficient_problem(1.0, cfg.a, cfg.b)
        lam1 = float(solve_spectrum(classical_problem, cfg.m, 1, grid).lambdas[0])
        k = boundedness_constant(1.0 - al, cfg.a, cfg.b)
        # the override under this id is the slack added to the bound
        bound = k * k * lam1 + float(cfg.tolerances.get("eigenvalue-bound", 2e-2))
        lam0 = float(spectrum.lambdas[0])
        assertions.append(Assertion("eigenvalue-bound", bound, lam0, lam0 <= bound))
        results["classical_lambda1"] = lam1
        results["bound_constant_sq"] = k * k
    tables = {"spectrum": (("mode", "lambda", "rayleigh", "right_trace"), rows)}
    series = {
        f"eigenfunction-{j + 1}": (grid.nodes, spectrum.eigenfunctions[j].values)
        for j in range(cfg.r)
    }
    return results, tables, series, assertions


def _run_sl_converge(cfg: ExperimentConfig, grid: Grid):
    al = cfg.alpha[0]
    problem = _constant_coefficient_problem(al, cfg.a, cfg.b)
    report = converge(problem, cfg.m_schedule, cfg.r, grid)
    rows = [(m, *map(float, row)) for m, row in zip(report.m_schedule, report.table)]
    min_gap = float(np.diff(report.table[-1]).min())
    assertions = [
        _check(cfg, "monotone", 1e-8, report.max_upward_step, operator.le),
        _check(cfg, "strict-ordering", 1e-12, min_gap, operator.ge),
    ]
    results = {
        "alpha": al,
        "m_schedule": list(report.m_schedule),
        "final_lambdas": [float(v) for v in report.table[-1]],
        "max_upward_step": report.max_upward_step,
        "converged": [bool(v) for v in report.converged],
    }
    headers = ("m",) + tuple(f"lambda_{j + 1}" for j in range(cfg.r))
    tables = {"schedule": (headers, rows)}
    return results, tables, {}, assertions


def _run_direct_min(cfg: ExperimentConfig, grid: Grid):
    classical = _constant_coefficient_problem(1.0, cfg.a, cfg.b)
    basis = RitzBasis.build(classical, cfg.m, grid)
    small = RitzBasis.build(classical, min(cfg.m, 8), grid)
    rows = []
    series = {}
    assertions = []

    problem, exact = translated_quadratic_problem(grid)
    res = direct_minimize(problem, basis)
    el_sup = interior_sup(el_residual(problem, res.y).values)
    quad_dev = float(np.abs(res.y.values - exact.values).max())
    rows.append(("translated-quadratic", res.iterations, res.gradient_norm, el_sup, res.value, res.stop))
    series["minimizer-translated-quadratic"] = (grid.nodes, res.y.values)
    assertions.append(_check(cfg, "quadratic-grad", 1e-8, res.gradient_norm))
    assertions.append(_check(cfg, "quadratic-el", 1e-2, el_sup))

    problem = quasilinear_problem(grid)
    res = direct_minimize(problem, basis)
    el_sup = interior_sup(el_residual(problem, res.y).values)
    rows.append(("quasilinear", res.iterations, res.gradient_norm, el_sup, res.value, res.stop))
    series["minimizer-quasilinear"] = (grid.nodes, res.y.values)
    assertions.append(_check(cfg, "quasilinear-grad", 1e-8, res.gradient_norm))
    assertions.append(_check(cfg, "quasilinear-el", 1e-2, el_sup))

    problem, exact = tracking_problem(grid)
    displaced = MinimizeOptions(beta0=np.full(small.m, 0.4))
    res = direct_minimize(problem, small, displaced)
    dev = float(np.abs(res.y.values - exact.values).max())
    rows.append(("integral-tracking", res.iterations, res.gradient_norm, dev, res.value, res.stop))
    series["minimizer-integral-tracking"] = (grid.nodes, res.y.values)
    assertions.append(_check(cfg, "tracking-grad", 1e-8, res.gradient_norm))
    assertions.append(_check(cfg, "tracking-recovery", 5e-3, dev))
    assertions.append(_check(cfg, "tracking-value", 1e-6, res.value))

    results = {
        "quadratic_recovery": quad_dev,
        "tracking_recovery": dev,
    }
    tables = {
        "minimizations": (
            ("problem", "iterations", "gradient_norm", "residual_or_deviation", "value", "stop"),
            rows,
        )
    }
    return results, tables, series, assertions


_EXPERIMENTS = {
    "ops-identities": _Experiment(
        "power-function identities plus semigroup and inverse "
        "laws of the one-sided fractional operators",
        _run_ops_identities, 4096, (0.3, 0.5, 0.7), ("power-sup", "power-order", "laws-sup"),
        reads=("interval", "alpha"),
    ),
    "ibp-suite": _Experiment(
        "two-sided integration-by-parts identity on seeded random "
        "polynomial pairs with a smooth difference kernel",
        _run_ibp_suite, 4096, (), ("ibp-residual",),
    ),
    "counterexample": _Experiment(
        "bounded non-difference kernel where the "
        "integration-by-parts identity fails; both one-sided integrals have "
        "magnitude pi/4",
        _run_counterexample, 4096, (), ("left-value", "dual-value", "identity-gap"),
    ),
    "el-check": _Experiment(
        "optimality residual along the closed-form extremal built "
        "from the one-parameter Mittag-Leffler function",
        _run_el_check, 4096, (0.4,), ("defect-sup", "el-sup"), reads=("interval", "alpha"),
    ),
    "isoperimetric": _Experiment(
        "constrained extremal with an exponential kernel; "
        "recovers the multiplier 2*xi",
        _run_isoperimetric, 2048, (0.3,), ("multiplier", "augmented-el"), reads=("alpha",),
    ),
    "noether": _Experiment(
        "conserved-quantity drift along extremals: fractional "
        "momentum map and the classical limit",
        _run_noether, 2048, (0.9,), ("fractional-drift", "classical-drift"), reads=("alpha",),
    ),
    "falva": _Experiment(
        "weighted optimality residual on a damped oscillator plus the "
        "dissipation parameter of the action weight",
        _run_falva, 2048, (0.1,), ("weighted-el", "dissipation"), reads=("interval", "alpha"),
    ),
    "sl-solve": _Experiment(
        "Ritz spectrum of the composed-derivative eigenproblem with "
        "orthogonality and Rayleigh-quotient checks",
        _run_sl_solve, 4096, (0.75,), ("rayleigh-consistency", "gram-offdiag"),
        interval=(0.0, math.pi), spectral=True, reads=("interval", "alpha", "m", "r"),
    ),
    "sl-converge": _Experiment(
        "eigenvalue monotonicity and Cauchy convergence along a "
        "nested basis-size schedule",
        _run_sl_converge, 8192, (0.75,), ("monotone", "strict-ordering"),
        interval=(0.0, math.pi), spectral=True, reads=("interval", "alpha", "m_schedule", "r"),
    ),
    "direct-min": _Experiment(
        "coefficient-space descent on three convex functionals "
        "with optimality-residual verification",
        _run_direct_min, 1024, (),
        ("quadratic-grad", "quadratic-el", "quasilinear-grad", "quasilinear-el",
         "tracking-grad", "tracking-recovery", "tracking-value"),
        reads=("m",),
    ),
}


# ---------------------------------------------------------------------------
# file output


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % float(value)
    return str(value)


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(headers, rows, seed: int) -> str:
    lines = [",".join(list(headers) + ["seed"])]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row) + f",{seed}")
    return "\n".join(lines) + "\n"


def _dat_text(x, y) -> str:
    return "%.12g %.12g\n" * len(x) % tuple(np.column_stack((x, y)).ravel().tolist())


def run(config: ExperimentConfig) -> ResultRecord:
    """Execute one experiment and write its artifact directory.

    The artifact root is ``config.output_dir``, else the
    ``FRACVAR_OUTPUT_DIR`` environment variable, else
    ``./fracvar_results``; each experiment writes ``results.json``,
    ``timing.txt`` and its ``.csv`` tables and ``.dat`` series into a
    subdirectory named after itself, which the returned record names in
    ``output_dir``, and removes every other ``.csv`` and ``.dat`` file
    there, such as a series an earlier run wrote.  ``results.json`` is
    encoded by ``json`` itself, numpy scalars as their Python values, and
    the record's ``inputs`` and ``results`` are decoded from that same text.
    """
    started = time.perf_counter()
    grid = Grid(config.a, config.b, config.n)
    results, tables, series, assertions = _EXPERIMENTS[config.experiment].runner(config, grid)
    wall = time.perf_counter() - started
    inputs = asdict(config)
    inputs["interval"] = [inputs.pop("a"), inputs.pop("b")]
    series_files = {name: f"{name}.dat" for name in series}
    payload = {
        "experiment": config.experiment,
        "inputs": inputs,
        "results": results,
        "series": series_files,
        "assertions": [asdict(a) for a in assertions],
    }
    text = json.dumps(payload, sort_keys=True, indent=2, default=lambda v: v.item()) + "\n"
    root = config.output_dir or os.environ.get("FRACVAR_OUTPUT_DIR") or "fracvar_results"
    outdir = os.path.join(root, config.experiment)
    os.makedirs(outdir, exist_ok=True)
    _write_atomic(os.path.join(outdir, "results.json"), text)
    _write_atomic(os.path.join(outdir, "timing.txt"), f"wall_time_s {wall:.3f}\n")
    for name, (headers, rows) in tables.items():
        _write_atomic(os.path.join(outdir, f"{name}.csv"), _csv_text(headers, rows, config.seed))
    for name, (x, y) in series.items():
        _write_atomic(os.path.join(outdir, series_files[name]), _dat_text(x, y))
    kept = {f"{name}.csv" for name in tables} | set(series_files.values())
    for name in os.listdir(outdir):
        if name.endswith((".csv", ".dat")) and name not in kept:
            os.remove(os.path.join(outdir, name))
    written = json.loads(text)
    return ResultRecord(
        experiment=config.experiment,
        inputs=written["inputs"],
        results=written["results"],
        series=series_files,
        assertions=tuple(assertions),
        wall_time_s=wall,
        output_dir=outdir,
    )
