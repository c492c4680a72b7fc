"""Acceptance gate: eleven criteria, one pass/fail line each.

Each test measures with the stated parameters, records a summary line
(shown in the terminal summary section), then asserts the stated
tolerances and runtime limit.
"""

import math
import time

import numpy as np
import pytest

from fracvar import (
    ClassicalOp,
    DifferenceKernel,
    Grid,
    Lagrangian,
    MinimizeOptions,
    NoetherGenerator,
    OperatorBinding,
    ParameterSet,
    PowerLawKernel,
    RitzBasis,
    SampledFunction,
    SLProblem,
    SymmetricMatrix,
    VariationalProblem,
    boundedness_constant,
    classical,
    converge,
    direct_minimize,
    el_residual,
    interior_slice,
    interior_sup,
    isoperimetric_residual,
    k_apply,
    mittag_leffler,
    noether_drift,
    rayleigh_quotient,
    solve_spectrum,
    symmetric_eigen,
    trapezoid,
    verify_ibp,
    verify_semigroup,
)
from fracvar.experiments import (
    counterexample_kernel,
    mittag_leffler_extremal,
    power_identity_errors,
    power_weight_extremal,
    quasilinear_problem,
    tracking_problem,
    translated_quadratic_problem,
)

SEED = 20240817
EXP_KERNEL = DifferenceKernel(lambda s: math.exp(-s))

ONE = lambda t: 1.0
ZERO = lambda t: 0.0


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def test_criterion_01_power_law_identities(acceptance_report):
    started = time.perf_counter()
    worst_sup = 0.0
    orders = []
    for alpha in (0.3, 0.5, 0.7):
        for beta in (1.0, 1.5, 2.0):
            fine = power_identity_errors(alpha, beta, 4096)
            coarse = power_identity_errors(alpha, beta, 2048)
            worst_sup = max(worst_sup, max(fine.values()))
            for key, err in fine.items():
                if err > 1e-12 and coarse[key] > 1e-12:
                    orders.append(math.log2(coarse[key] / err))
    worst_order = min(orders)
    elapsed = time.perf_counter() - started
    ok = worst_sup < 5e-3 and worst_order >= 1.0 and elapsed < 10.0
    acceptance_report(
        f"criterion 01 power-law identities: {_verdict(ok)} "
        f"(worst sup {worst_sup:.3g}, worst order {worst_order:.2f}, {elapsed:.1f}s)"
    )
    assert worst_sup < 5e-3
    assert worst_order >= 1.0
    assert elapsed < 10.0


def test_criterion_02_semigroup_and_inverse_laws(acceptance_report):
    started = time.perf_counter()
    grid = Grid(0.0, 1.0, 2048)
    t = grid.nodes
    sl = interior_slice(2048)
    fixtures = (np.ones(2049), t, t**2, np.sin(t))
    worst = 0.0
    for alpha in (0.3, 0.5, 0.7):
        for values in fixtures:
            f = SampledFunction(grid, values)
            worst = max(worst, verify_semigroup(alpha / 2.0, alpha / 2.0, f))
            smoothed = classical(ClassicalOp.RL_INT_LEFT, alpha, f)
            for inverse in (ClassicalOp.RL_DER_LEFT, ClassicalOp.CAPUTO_LEFT):
                back = classical(inverse, alpha, smoothed)
                worst = max(worst, float(np.abs(back.values - values)[sl].max()))
    elapsed = time.perf_counter() - started
    ok = worst < 5e-3 and elapsed < 10.0
    acceptance_report(
        f"criterion 02 semigroup/inverse laws: {_verdict(ok)} "
        f"(worst residual {worst:.3g}, {elapsed:.1f}s)"
    )
    assert worst < 5e-3
    assert elapsed < 10.0


@pytest.mark.filterwarnings("ignore::fracvar.CornerExtrapolationWarning")
def test_criterion_03_generalized_integration_by_parts(acceptance_report):
    started = time.perf_counter()
    grid = Grid(0.0, 1.0, 4096)
    rng = np.random.default_rng(SEED)
    side_weights = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (0.5, -0.25))
    worst_smooth = 0.0
    for index in range(20):
        lam, mu = side_weights[index % len(side_weights)]
        coeffs = rng.uniform(-1.0, 1.0, (2, 5))
        f = SampledFunction(grid, np.polyval(coeffs[0], grid.nodes))
        g = SampledFunction(grid, np.polyval(coeffs[1], grid.nodes))
        report = verify_ibp(ParameterSet(0.0, 1.0, lam, mu), EXP_KERNEL, f, g)
        worst_smooth = max(worst_smooth, report.residual)

    unit = SampledFunction(grid, np.ones(4097))
    broken = verify_ibp(ParameterSet(0.0, 1.0, 1.0, -1.0), counterexample_kernel(), unit, unit)
    target = math.pi / 4.0
    lhs_gap = abs(broken.lhs - target)
    rhs_gap = abs(broken.rhs + target)
    elapsed = time.perf_counter() - started
    ok = (
        worst_smooth < 1e-6
        and lhs_gap < 2e-3
        and rhs_gap < 2e-3
        and broken.residual > 1.5
        and elapsed < 30.0
    )
    acceptance_report(
        f"criterion 03 integration by parts: {_verdict(ok)} "
        f"(smooth {worst_smooth:.3g}, corner gaps {lhs_gap:.3g}/{rhs_gap:.3g}, "
        f"identity gap {broken.residual:.4f}, {elapsed:.1f}s)"
    )
    assert worst_smooth < 1e-6
    assert lhs_gap < 2e-3
    assert rhs_gap < 2e-3
    assert broken.residual > 1.5
    assert elapsed < 30.0


def test_criterion_04_mittag_leffler_extremal(acceptance_report):
    started = time.perf_counter()
    grid = Grid(0.0, 1.0, 4096)
    y = mittag_leffler_extremal(0.4, grid)
    caputo = classical(ClassicalOp.CAPUTO_LEFT, 0.4, y)
    defect = y.derivative().values + caputo.values - 1.0
    measured = interior_sup(defect)
    elapsed = time.perf_counter() - started
    ok = measured < 1e-2 and elapsed < 20.0
    acceptance_report(
        f"criterion 04 Mittag-Leffler extremal: {_verdict(ok)} "
        f"(defect sup {measured:.3g}, {elapsed:.1f}s)"
    )
    assert measured < 1e-2
    assert elapsed < 20.0


def test_criterion_05_volterra_solution(acceptance_report):
    started = time.perf_counter()
    grid = Grid(0.0, 1.0, 1024)
    y = SampledFunction(grid, -1.0 - grid.nodes)
    image = k_apply(ParameterSet(0.0, 1.0, 1.0, 0.0), EXP_KERNEL, y)
    forward_gap = float(np.abs(image.values + grid.nodes).max())

    problem, exact = tracking_problem(grid)
    basis = RitzBasis.build(SLProblem(1.0, ONE, ZERO, ONE, 0.0, 1.0), 8, grid)
    result = direct_minimize(problem, basis, MinimizeOptions(beta0=np.full(8, 0.4)))
    recovery = float(np.abs(result.y.values - exact.values).max())
    elapsed = time.perf_counter() - started
    ok = forward_gap < 1e-6 and recovery < 5e-3 and elapsed < 30.0
    acceptance_report(
        f"criterion 05 Volterra example: {_verdict(ok)} "
        f"(forward {forward_gap:.3g}, recovery {recovery:.3g}, {elapsed:.1f}s)"
    )
    assert forward_gap < 1e-6
    assert recovery < 5e-3
    assert elapsed < 30.0


def test_criterion_06_isoperimetric_multiplier(acceptance_report):
    started = time.perf_counter()
    alpha, xi = 0.3, 2.0
    grid = Grid(0.0, 1.0, 2048)
    binding = OperatorBinding(
        ParameterSet(0.0, 1.0, 1.0, 0.0), DifferenceKernel(lambda u: np.exp(alpha * u))
    )
    lag = Lagrangian(
        lambda x1, x2, x3, x4, t: (x2 + t) ** 2,
        d2=lambda x1, x2, x3, x4, t: 2.0 * (x2 + t),
    )
    problem = VariationalProblem(lag, binding, ya=xi - 1.0, yb=(xi - 1.0) * (1.0 - alpha))
    constraint = Lagrangian(
        lambda x1, x2, x3, x4, t: t * x2,
        d2=lambda x1, x2, x3, x4, t: np.asarray(t, dtype=float),
    )
    y = SampledFunction(grid, (xi - 1.0) * (1.0 - alpha * grid.nodes))
    report = isoperimetric_residual(problem, constraint, (xi - 1.0) / 3.0, y)
    gap = abs(report.multiplier - 2.0 * xi)
    elapsed = time.perf_counter() - started
    ok = gap < 1e-2 and elapsed < 20.0
    acceptance_report(
        f"criterion 06 isoperimetric multiplier: {_verdict(ok)} "
        f"(multiplier {report.multiplier:.6f} vs {2.0 * xi}, {elapsed:.1f}s)"
    )
    assert gap < 1e-2
    assert elapsed < 20.0


def test_criterion_07_conserved_quantity_drift(acceptance_report):
    started = time.perf_counter()
    grid = Grid(0.0, 1.0, 2048)
    unit = NoetherGenerator(lambda t, x: 1.0)

    y, _ = power_weight_extremal(0.9, grid)
    binding = OperatorBinding(ParameterSet(0.0, 1.0, 1.0, 0.0), PowerLawKernel(0.9, "derivative"))
    lag = Lagrangian(
        lambda x1, x2, x3, x4, t: x4 * x4,
        d4=lambda x1, x2, x3, x4, t: 2.0 * x4,
    )
    fractional = noether_drift(VariationalProblem(lag, binding, ya=0.0, yb=1.0), y, unit)

    classical_lag = Lagrangian(
        lambda x1, x2, x3, x4, t: x3 * x3,
        d3=lambda x1, x2, x3, x4, t: 2.0 * x3,
    )
    classical_problem = VariationalProblem(
        classical_lag, OperatorBinding(ParameterSet(0.0, 1.0, 1.0, 0.0), EXP_KERNEL), ya=0.0, yb=1.0
    )
    momentum = noether_drift(classical_problem, SampledFunction(grid, grid.nodes), unit)
    elapsed = time.perf_counter() - started
    ok = fractional.drift < 1e-3 and momentum.drift < 1e-12 and elapsed < 20.0
    acceptance_report(
        f"criterion 07 conserved-quantity drift: {_verdict(ok)} "
        f"(fractional {fractional.drift:.3g}, classical {momentum.drift:.3g}, {elapsed:.1f}s)"
    )
    assert fractional.drift < 1e-3
    assert momentum.drift < 1e-12
    assert elapsed < 20.0


def test_criterion_08_classical_spectrum(acceptance_report):
    started = time.perf_counter()
    spectrum = solve_spectrum(SLProblem(1.0, ONE, ZERO, ONE), 10, 3)
    targets = np.array([1.0, 4.0, 9.0])
    rel = float(np.abs(spectrum.lambdas / targets - 1.0).max())
    elapsed = time.perf_counter() - started
    ok = rel < 1e-2 and elapsed < 5.0
    acceptance_report(
        f"criterion 08 classical spectrum: {_verdict(ok)} "
        f"(worst relative error {rel:.3g}, {elapsed:.1f}s)"
    )
    assert rel < 1e-2
    assert elapsed < 5.0


def test_criterion_09_fractional_spectral_properties(acceptance_report):
    started = time.perf_counter()
    grid = Grid(0.0, math.pi, 8192)
    schedule = (4, 8, 16, 32)
    classical_problem = SLProblem(1.0, ONE, ZERO, ONE)
    lambda1_classical = solve_spectrum(classical_problem, 32, 1, grid=grid).lambdas[0]

    frozen_bounds = {0.75: 2.15741040475352, 0.9: 1.38914834745051}
    worst_upward = 0.0
    min_gap = math.inf
    worst_gram = 0.0
    worst_rayleigh = 0.0
    bounds_hold = True
    for alpha in (0.75, 0.9):
        problem = SLProblem(alpha, ONE, ZERO, ONE)
        report = converge(problem, schedule, 3, grid=grid)
        worst_upward = max(worst_upward, report.max_upward_step)

        spectrum = solve_spectrum(problem, 32, 3, grid=grid)
        min_gap = min(min_gap, float(np.diff(spectrum.lambdas).min()))
        for i in range(3):
            yi = spectrum.eigenfunctions[i].values
            for j in range(i + 1, 3):
                yj = spectrum.eigenfunctions[j].values
                overlap = abs(trapezoid(SampledFunction(grid, yi * yj)))
                worst_gram = max(worst_gram, overlap)
            quotient = rayleigh_quotient(problem, spectrum.eigenfunctions[i])
            worst_rayleigh = max(worst_rayleigh, abs(quotient - spectrum.lambdas[i]))

        k_squared = boundedness_constant(1.0 - alpha, 0.0, math.pi) ** 2
        assert k_squared == pytest.approx(frozen_bounds[alpha], abs=1e-9)
        if spectrum.lambdas[0] > k_squared * lambda1_classical:
            bounds_hold = False
    elapsed = time.perf_counter() - started
    ok = (
        worst_upward <= 1e-8
        and min_gap > 1e-12
        and worst_gram <= 2e-3
        and worst_rayleigh <= 1e-8
        and bounds_hold
        and elapsed < 180.0
    )
    acceptance_report(
        f"criterion 09 fractional spectra: {_verdict(ok)} "
        f"(upward {worst_upward:.3g}, gap {min_gap:.3g}, gram {worst_gram:.3g}, "
        f"rayleigh {worst_rayleigh:.3g}, bound {'ok' if bounds_hold else 'violated'}, {elapsed:.1f}s)"
    )
    assert worst_upward <= 1e-8
    assert min_gap > 1e-12
    assert worst_gram <= 2e-3
    assert worst_rayleigh <= 1e-8
    assert bounds_hold
    assert elapsed < 180.0


def test_criterion_10_direct_method_optimality(acceptance_report):
    started = time.perf_counter()
    grid = Grid(0.0, 1.0, 1024)
    classical_problem = SLProblem(1.0, ONE, ZERO, ONE, 0.0, 1.0)
    basis = RitzBasis.build(classical_problem, 16, grid)
    small = RitzBasis.build(classical_problem, 8, grid)

    measured = {}
    problem, _ = translated_quadratic_problem(grid)
    result = direct_minimize(problem, basis)
    measured["quadratic"] = (
        result.stop,
        result.gradient_norm,
        interior_sup(el_residual(problem, result.y).values),
    )

    problem = quasilinear_problem(grid)
    result = direct_minimize(problem, basis)
    measured["quasilinear"] = (
        result.stop,
        result.gradient_norm,
        interior_sup(el_residual(problem, result.y).values),
    )

    problem, _ = tracking_problem(grid)
    result = direct_minimize(problem, small, MinimizeOptions(beta0=np.full(8, 0.4)))
    measured["tracking"] = (
        result.stop,
        result.gradient_norm,
        interior_sup(el_residual(problem, result.y).values),
    )

    converged = all(v[0] == "converged" for v in measured.values())
    worst_grad = max(v[1] for v in measured.values())
    worst_el = max(v[2] for v in measured.values())
    elapsed = time.perf_counter() - started
    ok = converged and worst_grad < 1e-8 and worst_el < 1e-2 and elapsed < 120.0
    acceptance_report(
        f"criterion 10 direct-method optimality: {_verdict(ok)} "
        f"(worst gradient {worst_grad:.3g}, worst stationarity {worst_el:.3g}, {elapsed:.1f}s)"
    )
    assert converged
    assert worst_grad < 1e-8
    assert worst_el < 1e-2
    assert elapsed < 120.0


def test_criterion_11_foundation_properties(acceptance_report):
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_reconstruction = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 51))
        raw = rng.standard_normal((dim, dim))
        a = (raw + raw.T) / 2.0
        vals, vecs = symmetric_eigen(SymmetricMatrix(a))
        scale = np.linalg.norm(a)
        gap = np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - a) / scale
        worst_reconstruction = max(worst_reconstruction, gap)

    z = np.linspace(-20.0, 5.0, 100)
    worst_ml = max(abs(mittag_leffler(1.0, float(v)) - math.exp(float(v))) for v in z)
    elapsed = time.perf_counter() - started
    ok = worst_reconstruction <= 1e-10 and worst_ml <= 1e-10 and elapsed < 5.0
    acceptance_report(
        f"criterion 11 foundation properties: {_verdict(ok)} "
        f"(reconstruction {worst_reconstruction:.3g}, exp agreement {worst_ml:.3g}, {elapsed:.1f}s)"
    )
    assert worst_reconstruction <= 1e-10
    assert worst_ml <= 1e-10
    assert elapsed < 5.0
