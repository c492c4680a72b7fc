import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracvar import (
    ClassicalOp,
    CoercivityError,
    ConfigurationError,
    DifferenceKernel,
    DomainError,
    FracvarError,
    GeneralKernel,
    Grid,
    InputError,
    Lagrangian,
    MinimizeOptions,
    NumericError,
    OperatorBinding,
    ParameterSet,
    RitzBasis,
    SampledFunction,
    SLProblem,
    VariationalProblem,
    assemble,
    classical,
    coercivity_probe,
    converge,
    direct_minimize,
    gamma,
    interior_sup,
    rayleigh_quotient,
    sl_residual,
    solve_spectrum,
    trapezoid,
)
from fracvar import operators, sturm_liouville
from fracvar.experiments import translated_quadratic_problem
from fracvar.variational import _trajectory

ONE = lambda t: 1.0
ZERO = lambda t: 0.0

st_beta = st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4)


def constant_problem(alpha, a=0.0, b=math.pi):
    return SLProblem(alpha, ONE, ZERO, ONE, a, b)


def unit_interval_basis(m, n=256):
    grid = Grid(0.0, 1.0, n)
    return grid, RitzBasis.build(SLProblem(1.0, ONE, ZERO, ONE, 0.0, 1.0), m, grid)


# --- problem validation -------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.4, 0.5, 1.2, -0.1, True, False])
def test_alpha_outside_admissible_range(alpha):
    with pytest.raises(DomainError, match="alpha"):
        SLProblem(alpha, ONE, ZERO, ONE)


@pytest.mark.parametrize("alpha", [0.75, 0.9, 1.0])
def test_alpha_admissible(alpha):
    assert SLProblem(alpha, ONE, ZERO, ONE).alpha == alpha


def test_basis_vanishes_at_endpoints():
    grid = Grid(0.0, math.pi, 128)
    basis = RitzBasis.build(constant_problem(0.75), 3, grid)
    assert np.array_equal(basis.phi[:, 0], np.zeros(3))
    assert np.array_equal(basis.phi[:, -1], np.zeros(3))


def test_basis_validation():
    grid = Grid(0.0, math.pi, 128)
    with pytest.raises(InputError):
        RitzBasis.build(constant_problem(0.75), 0, grid)
    with pytest.raises(ConfigurationError, match="coarse"):
        RitzBasis.build(constant_problem(0.75), 8, grid)
    with pytest.raises(DomainError):
        RitzBasis.build(SLProblem(0.75, ONE, ZERO, lambda t: math.cos(4.0 * t)), 2, grid)


def test_basis_sizes_must_be_integers():
    """A fractional or bool basis size is an ``InputError`` naming it, in the
    build, in ``solve_spectrum`` and in each entry of a ``converge``
    schedule; numpy integers pass."""
    grid, problem = Grid(0.0, math.pi, 512), constant_problem(0.75)
    with pytest.raises(InputError, match="2.5"):
        RitzBasis.build(problem, 2.5, grid)
    with pytest.raises(InputError, match="True"):
        RitzBasis.build(problem, True, grid)
    with pytest.raises(InputError, match="2.5"):
        solve_spectrum(problem, 2.5, 2, grid)
    with pytest.raises(InputError, match="4.7"):
        converge(problem, (4.7, 8.9), 1, grid)
    with pytest.raises(InputError, match="8.9"):
        converge(problem, (4, 8.9), 1, grid)
    assert RitzBasis.build(problem, np.int64(3), grid).phi.shape == (3, 513)
    assert converge(problem, (np.int32(4), np.int64(8)), 1, grid).m_schedule == (4, 8)


# --- assembly -------------------------------------------------------------------


def test_classical_assembly_is_diagonal():
    grid = Grid(0.0, math.pi, 1024)
    matrix, c = assemble(constant_problem(1.0), 6, grid)
    assert c == pytest.approx(math.pi / 2.0, rel=1e-15)
    expected = np.diag([c * (k + 1) ** 2 for k in range(6)])
    # numerical derivatives leave h^2-scale residue on same-parity off-diagonals
    assert np.allclose(matrix.entries, expected, rtol=1e-3, atol=1e-4)


def test_weighted_shift_moves_the_whole_spectrum():
    grid = Grid(0.0, math.pi, 1024)
    base = constant_problem(0.75)
    shifted = SLProblem(0.75, ONE, lambda t: 5.0, ONE)
    a0, c = assemble(base, 5, grid)
    a1, _ = assemble(shifted, 5, grid)
    assert np.allclose(a1.entries - a0.entries, 5.0 * c * np.eye(5), atol=1e-10)
    lam0 = solve_spectrum(base, 8, 3, grid=grid).lambdas
    lam1 = solve_spectrum(shifted, 8, 3, grid=grid).lambdas
    assert np.allclose(lam1, lam0 + 5.0, atol=1e-8)


def test_single_mode_energy_against_series_oracle():
    """A[0][0] is the squared norm of the order-0.75 derivative of sin."""
    grid = Grid(0.0, math.pi, 16384)
    matrix, _ = assemble(constant_problem(0.75), 1, grid)
    a00 = float(matrix.entries[0, 0])
    t = grid.nodes
    series = np.zeros_like(t)
    for k in range(24):
        series += (-1.0) ** k * t ** (2 * k + 0.25) / gamma(2 * k + 1.25)
    oracle = trapezoid(SampledFunction(grid, series * series))
    assert a00 > 0.0
    assert a00 == pytest.approx(oracle, rel=1e-4)


def test_assembly_rejects_nonpositive_stiffness():
    grid = Grid(0.0, math.pi, 1024)
    with pytest.raises(DomainError, match="positive"):
        assemble(SLProblem(0.75, lambda t: -1.0, ZERO, ONE), 4, grid)


@pytest.mark.parametrize(
    "measure",
    [
        rayleigh_quotient,
        lambda problem, y: sl_residual(problem, 1.0, y),
    ],
    ids=["rayleigh_quotient", "sl_residual"],
)
def test_quotient_and_residual_reject_nonpositive_stiffness(measure):
    g = Grid(0.0, math.pi, 256)
    with pytest.raises(DomainError, match="positive"):
        measure(SLProblem(0.75, lambda t: -1.0, ZERO, ONE), SampledFunction(g, np.sin(g.nodes)))


# --- spectra ---------------------------------------------------------------------


def test_classical_spectrum_squares():
    spectrum = solve_spectrum(constant_problem(1.0), 10, 3)
    assert np.allclose(spectrum.lambdas, [1.0, 4.0, 9.0], rtol=1e-2)
    assert spectrum.m == 10


def test_shifted_classical_spectrum():
    spectrum = solve_spectrum(SLProblem(1.0, ONE, lambda t: 5.0, ONE), 10, 3)
    assert np.allclose(spectrum.lambdas, [6.0, 9.0, 14.0], rtol=1e-2)


def test_spectrum_structure():
    spectrum = solve_spectrum(constant_problem(0.75), 8, 3)
    c = math.pi / 2.0
    assert np.all(np.diff(spectrum.lambdas) > 0.0)
    gram = c * spectrum.coefficients @ spectrum.coefficients.T
    assert np.allclose(gram, np.eye(3), atol=1e-10)
    assert spectrum.right_trace.shape == (3,)
    assert np.isfinite(spectrum.right_trace).all()
    for fn in spectrum.eigenfunctions:
        assert fn.values[0] == 0.0 and fn.values[-1] == 0.0


def test_fractional_ground_state_below_classical_bound():
    lam1 = solve_spectrum(constant_problem(0.75), 16, 1).lambdas[0]
    assert lam1 <= 2.158


def test_solve_spectrum_rank_validation():
    with pytest.raises(InputError):
        solve_spectrum(constant_problem(0.75), 4, 5)
    with pytest.raises(InputError):
        solve_spectrum(constant_problem(0.75), 4, 0)
    for r in (True, 2.0):
        with pytest.raises(InputError, match=f"eigenpairs.*{r}"):
            solve_spectrum(constant_problem(0.75), 8, r, Grid(0.0, math.pi, 512))


def test_solve_spectrum_checks_rank_before_building_the_basis(monkeypatch):
    def no_build(*args):
        raise AssertionError("RitzBasis.build ran before the rank check")

    monkeypatch.setattr(RitzBasis, "build", no_build)
    for r in (0, 5):
        with pytest.raises(InputError, match="eigenpairs"):
            solve_spectrum(constant_problem(0.75), 4, r, Grid(0.0, math.pi, 16384))


@pytest.mark.parametrize("alpha, order", [(0.5 + 1e-9, None), (1.0 - 1e-9, 0.9)], ids=["lower", "upper"])
def test_one_mode_spectrum_at_the_edge_orders(alpha, order):
    """m = 1 at the ends of the admissible orders: the eigenvalue is
    finite and equals the Rayleigh quotient of its eigenfunction.  Just
    below alpha = 1 it approaches the classical one on the same grid at
    first order (2.9e-2, 1.5e-2, 3.9e-3, 9.7e-4 at n = 32, 64, 256, 1024)."""
    ns = (32, 64, 256, 1024)
    errors = []
    for n in ns:
        grid = Grid(0.0, math.pi, n)
        spectrum = solve_spectrum(constant_problem(alpha), 1, 1, grid)
        lam = spectrum.lambdas[0]
        assert math.isfinite(lam)
        assert abs(rayleigh_quotient(constant_problem(alpha), spectrum.eigenfunctions[0]) - lam) <= 1e-12
        errors.append(abs(lam - solve_spectrum(constant_problem(1.0), 1, 1, grid).lambdas[0]))
    if order is not None:
        observed = np.log(np.array(errors[:-1]) / errors[1:]) / np.log(np.array(ns[1:]) / ns[:-1])
        assert observed.min() >= order


@pytest.mark.parametrize("alpha", [0.5 + 1e-9, 1.0 - 1e-9], ids=["lower", "upper"])
def test_four_mode_spectrum_at_the_edge_orders(alpha):
    """m = r = 4 at the ends of the admissible orders: the eigenvalues are
    finite, ascending and equal to their eigenfunctions' Rayleigh
    quotients.  Just below alpha = 1 the largest gap to the classical
    spectrum on the same grid falls under refinement (0.087, 0.053, 0.015
    at n = 128, 256, 1024)."""
    problem, gaps = constant_problem(alpha), []
    for n in (128, 256, 1024):
        grid = Grid(0.0, math.pi, n)
        spectrum = solve_spectrum(problem, 4, 4, grid)
        lams = spectrum.lambdas
        assert np.all(np.isfinite(lams)) and np.all(np.diff(lams) > 0.0)
        for lam, fn in zip(lams, spectrum.eigenfunctions):
            assert abs(rayleigh_quotient(problem, fn) - lam) <= 1e-12 * (1.0 + lam)
        gaps.append(np.abs(lams - solve_spectrum(constant_problem(1.0), 4, 4, grid).lambdas).max())
    if alpha > 0.9:
        assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("alpha", [0.75, 1.0])
def test_spectral_layer_on_the_smallest_grid_and_on_zero_or_constant_inputs(alpha):
    """n = 32 is the smallest grid a one-mode basis takes; n = 31 raises
    ``ConfigurationError``.  There, with variable coefficients, the m = 1
    eigenvalue equals its eigenfunction's Rayleigh quotient to 1e-12 and
    the eigenfunction has unit weighted norm; with unit coefficients at
    alpha = 1 it lies within h**2 of the exact 1 (0.9974 observed).  The
    Rayleigh quotient of the zero function or of a nonzero constant raises
    ``InputError``.  ``sl_residual`` is exactly 0 on the zero function and
    the interior sup of ``(q - lam w) c`` on the constant ``c``, to a few
    round-offs: both derivative images of a constant vanish."""
    w = lambda t: 2.0 + np.sin(t)
    problem = SLProblem(alpha, lambda t: 1.0 + t, lambda t: 0.5, w)
    with pytest.raises(ConfigurationError):
        solve_spectrum(problem, 1, 1, Grid(0.0, math.pi, 31))
    grid = Grid(0.0, math.pi, 32)
    spectrum = solve_spectrum(problem, 1, 1, grid)
    lam, fn = spectrum.lambdas[0], spectrum.eigenfunctions[0]
    assert abs(rayleigh_quotient(problem, fn) - lam) <= 1e-12 * lam
    assert abs(trapezoid(SampledFunction(grid, w(grid.nodes) * fn.values**2)) - 1.0) <= 1e-12
    if alpha == 1.0:
        assert abs(solve_spectrum(constant_problem(1.0), 1, 1, grid).lambdas[0] - 1.0) <= grid.h**2

    zero, constant = SampledFunction(grid, np.zeros(33)), SampledFunction(grid, np.full(33, 0.7))
    with pytest.raises(InputError, match="zero"):
        rayleigh_quotient(problem, zero)
    with pytest.raises(InputError, match="vanish"):
        rayleigh_quotient(problem, constant)
    eps = np.finfo(float).eps
    for lam in (0.0, 2.5):
        assert sl_residual(problem, lam, zero) == 0.0
        want = interior_sup(0.7 * (0.5 - lam * w(grid.nodes)))
        assert abs(sl_residual(problem, lam, constant) - want) <= 4.0 * eps * 0.7 * (0.5 + lam * 3.0)


# --- Rayleigh quotient -------------------------------------------------------------


def test_rayleigh_of_exact_ground_state():
    g = Grid(0.0, math.pi, 2048)
    value = rayleigh_quotient(constant_problem(1.0), SampledFunction(g, np.sin(g.nodes)))
    assert value == pytest.approx(1.0, abs=1e-5)


def test_rayleigh_reproduces_eigenvalues():
    spectrum = solve_spectrum(constant_problem(0.75), 8, 3)
    for lam, fn in zip(spectrum.lambdas, spectrum.eigenfunctions):
        assert rayleigh_quotient(constant_problem(0.75), fn) == pytest.approx(lam, abs=1e-8)


@settings(max_examples=15, deadline=None)
@given(beta=st_beta)
def test_rayleigh_lower_bound_on_trial_space(beta):
    beta = np.asarray(beta)
    if np.abs(beta).max() < 1e-3:
        beta[0] = 1.0
    problem = constant_problem(0.75)
    grid = Grid(0.0, math.pi, 256)
    basis = RitzBasis.build(problem, 4, grid)
    lam1 = solve_spectrum(problem, 4, 1, grid=grid).lambdas[0]
    y = SampledFunction(grid, beta @ basis.phi)
    assert rayleigh_quotient(problem, y) >= lam1 - 1e-10


def test_rayleigh_input_validation():
    g = Grid(0.0, math.pi, 256)
    with pytest.raises(InputError, match="zero"):
        rayleigh_quotient(constant_problem(1.0), SampledFunction(g, np.zeros(257)))
    with pytest.raises(InputError):
        rayleigh_quotient(constant_problem(1.0), SampledFunction(g, np.cos(g.nodes)))


# --- strong-form residual ------------------------------------------------------------


def test_strong_residual_classical_ground_state():
    g = Grid(0.0, math.pi, 2048)
    problem = constant_problem(1.0)
    assert sl_residual(problem, 1.0, SampledFunction(g, np.sin(g.nodes))) < 1e-4


def test_strong_residual_zero_function():
    g = Grid(0.0, math.pi, 256)
    assert sl_residual(constant_problem(1.0), 0.0, SampledFunction(g, np.zeros(257))) == 0.0


def test_strong_residual_fractional_mode_stays_bounded():
    # diagnostic scale for the sine trial space; eigenvalues converge much faster
    grid = Grid(0.0, math.pi, 8192)
    problem = constant_problem(0.9)
    spectrum = solve_spectrum(problem, 32, 1, grid=grid)
    residual = sl_residual(problem, spectrum.lambdas[0], spectrum.eigenfunctions[0])
    assert residual < 1.0


# --- convergence over nested bases ------------------------------------------------------


def test_converge_classical_ground_state_is_flat():
    report = converge(constant_problem(1.0), (2, 4, 8), 1)
    assert np.abs(report.table[:, 0] - 1.0).max() < 1e-5
    assert report.max_upward_step <= 1e-10
    assert report.converged[0]


def test_converge_fractional_is_monotone_and_ordered():
    report = converge(constant_problem(0.9), (4, 8, 16), 2)
    assert report.max_upward_step <= 1e-10
    assert np.all(report.table[:, 1] - report.table[:, 0] > 1e-12)


@pytest.mark.parametrize("alpha", [0.75, 0.9])
def test_ritz_ground_state_converges_in_m_at_order_about_2_alpha_minus_1(alpha):
    """With p = w = 1 and q = 0 on [0, pi], n = 4096 and m = 6, 12, 25, 50,
    100, the observed order of the first Ritz eigenvalue in m,
    ``log(d_k / d_(k+1)) / log(m_(k+2) / m_(k+1))`` with ``d_k`` the steps
    of the column, is about ``2 alpha - 1``: this code measured 0.41, 0.76,
    0.45 at alpha = 0.75 and 0.58, 1.01, 0.61 at 0.9.  The sine basis
    cannot represent the eigenfunction's sub-linear ends, so more modes
    buy little.  Every order lies in (0.3, 1.1), and the mean of the last
    two is within 0.15 of ``2 alpha - 1``."""
    schedule = (6, 12, 25, 50, 100)
    report = converge(constant_problem(alpha), schedule, 1, Grid(0.0, math.pi, 4096))
    steps = -np.diff(report.table[:, 0])
    orders = np.log(steps[:-1] / steps[1:]) / np.log(np.array(schedule[2:]) / schedule[1:-1])
    assert np.all((0.3 < orders) & (orders < 1.1))
    assert abs(orders[-2:].mean() - (2.0 * alpha - 1.0)) <= 0.15


@pytest.mark.parametrize("m", [8, 40])
def test_default_grid_has_max_1024_32m_cells(m):
    problem = constant_problem(0.75)
    grid = Grid(problem.a, problem.b, max(1024, 32 * m))
    implicit, explicit = solve_spectrum(problem, m, 3), solve_spectrum(problem, m, 3, grid)
    for field in ("lambdas", "coefficients", "right_trace"):
        assert np.array_equal(getattr(implicit, field), getattr(explicit, field))
    for got, want in zip(implicit.eigenfunctions, explicit.eigenfunctions):
        assert got.grid == grid and np.array_equal(got.values, want.values)
    implicit, explicit = converge(problem, (m // 2, m), 3), converge(problem, (m // 2, m), 3, grid)
    assert np.array_equal(implicit.table, explicit.table)
    assert implicit.max_upward_step == explicit.max_upward_step
    assert np.array_equal(implicit.converged, explicit.converged)


def test_converge_schedule_validation():
    with pytest.raises(InputError):
        converge(constant_problem(1.0), (8, 4), 1)
    with pytest.raises(InputError):
        converge(constant_problem(1.0), (4,), 1)
    with pytest.raises(InputError):
        converge(constant_problem(1.0), (2, 4), 3)
    for r in (True, 2.0):
        with pytest.raises(InputError, match=f"eigenpairs.*{r}"):
            converge(constant_problem(0.75), (4, 8), r, Grid(0.0, math.pi, 512))


# --- direct minimization ------------------------------------------------------------------


def test_minimize_dirichlet_energy():
    grid, basis = unit_interval_basis(8)
    lag = Lagrangian(lambda x1, x2, x3, x4, t: x3 * x3,
                     d1=lambda *a: 0.0, d2=lambda *a: 0.0,
                     d3=lambda x1, x2, x3, x4, t: 2.0 * x3, d4=lambda *a: 0.0)
    binding = OperatorBinding(ParameterSet(0.0, 1.0, 1.0, 0.0), DifferenceKernel(lambda s: math.exp(-s)))
    prob = VariationalProblem(lag, binding, ya=0.0, yb=1.0)
    result = direct_minimize(prob, basis)
    assert result.stop == "converged"
    assert result.gradient_norm < 1e-8
    assert result.value == pytest.approx(1.0, abs=1e-6)
    assert np.abs(result.y.values - grid.nodes).max() < 5e-3


def test_minimize_convex_quadratic_stays_at_origin():
    _, basis = unit_interval_basis(8)
    lag = Lagrangian(lambda x1, x2, x3, x4, t: 0.5 * (x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4))
    binding = OperatorBinding(ParameterSet(0.0, 1.0, 1.0, 0.0), DifferenceKernel(lambda s: math.exp(-s)))
    prob = VariationalProblem(lag, binding, ya=0.0, yb=0.0)
    result = direct_minimize(prob, basis)
    assert result.value == 0.0
    assert np.abs(result.y.values).max() == 0.0
    assert result.iterations == 0


def test_minimize_rejects_malformed_start():
    _, basis = unit_interval_basis(4)
    lag = Lagrangian(lambda x1, x2, x3, x4, t: x3 * x3)
    binding = OperatorBinding(ParameterSet(0.0, 1.0, 1.0, 0.0), DifferenceKernel(lambda s: math.exp(-s)))
    prob = VariationalProblem(lag, binding, ya=0.0, yb=0.0)
    with pytest.raises(InputError, match="shape"):
        direct_minimize(prob, basis, MinimizeOptions(beta0=np.zeros(7)))


def test_minimize_flags_unbounded_descent():
    _, basis = unit_interval_basis(8)
    lag = Lagrangian(lambda x1, x2, x3, x4, t: -(x3 * x3))
    binding = OperatorBinding(ParameterSet(0.0, 1.0, 1.0, 0.0), DifferenceKernel(lambda s: math.exp(-s)))
    prob = VariationalProblem(lag, binding, ya=0.0, yb=0.0)
    with pytest.raises(CoercivityError):
        direct_minimize(prob, basis, MinimizeOptions(beta0=np.full(8, 1e-3)))


def test_coercivity_probe_sign():
    _, basis = unit_interval_basis(8)
    binding = OperatorBinding(ParameterSet(0.0, 1.0, 1.0, 0.0), DifferenceKernel(lambda s: math.exp(-s)))
    up = VariationalProblem(Lagrangian(lambda x1, x2, x3, x4, t: x3 * x3), binding, ya=0.0, yb=0.0)
    down = VariationalProblem(Lagrangian(lambda x1, x2, x3, x4, t: -(x3 * x3)), binding, ya=0.0, yb=0.0)
    assert coercivity_probe(up, basis).all_increasing
    report = coercivity_probe(down, basis)
    assert not report.all_increasing
    assert not report.increasing.any()


def exp_binding():
    return OperatorBinding(ParameterSet(0.0, 1.0, 1.0, 0.0), DifferenceKernel(lambda s: np.exp(-s)))


def test_minimize_stop_max_iter(monkeypatch):
    monkeypatch.setattr(sturm_liouville, "_MAX_ITER", 1)
    _, basis = unit_interval_basis(8)
    lag = Lagrangian(lambda x1, x2, x3, x4, t: (x2 + t) ** 2, d2=lambda x1, x2, x3, x4, t: 2.0 * (x2 + t))
    problem = VariationalProblem(lag, exp_binding(), ya=-1.0, yb=-2.0)
    result = direct_minimize(problem, basis, MinimizeOptions(beta0=np.full(8, 0.4)))
    assert result.stop == "max_iter"
    assert result.iterations == 1
    assert result.gradient_norm >= 1e-8


def test_minimize_stop_stalled():
    """The integrand is NaN wherever ``0 < |x1| < 1.5``, so every trial
    step off the start ``y = 0`` is non-finite at the nodes next to the
    endpoints, and the line search stalls without moving.  The analytic
    partials are checked at the probe points with ``|x1| >= 1.5``."""
    _, basis = unit_interval_basis(8)
    lag = Lagrangian(
        lambda x1, x2, x3, x4, t: x3 * x3 + x1
        + np.where((x1 == 0.0) | (np.abs(x1) >= 1.5), 0.0, np.nan),
        d1=lambda x1, x2, x3, x4, t: np.ones_like(x1),
        d3=lambda x1, x2, x3, x4, t: 2.0 * x3,
    )
    problem = VariationalProblem(lag, exp_binding(), ya=0.0, yb=0.0)
    result = direct_minimize(problem, basis)
    assert result.stop == "stalled"
    assert result.iterations == 0
    assert np.array_equal(result.beta, np.zeros(8))
    assert math.isfinite(result.value) and result.gradient_norm > 1e-8


@pytest.mark.filterwarnings("ignore:invalid value")
def test_minimize_rejects_non_finite_start():
    """``sqrt(x1 - 1)`` is NaN at the start ``y = 0``, so descent has no
    value to improve on and raises instead of reporting a stall."""
    _, basis = unit_interval_basis(8)
    lag = Lagrangian(
        lambda x1, x2, x3, x4, t: x3 * x3 + np.sqrt(x1 - 1.0),
        d1=lambda x1, x2, x3, x4, t: 0.5 / np.sqrt(x1 - 1.0),
        d3=lambda x1, x2, x3, x4, t: 2.0 * x3,
    )
    problem = VariationalProblem(lag, exp_binding(), ya=0.0, yb=0.0)
    with pytest.raises(NumericError, match="start point"):
        direct_minimize(problem, basis)


def test_preconditioned_descent_matches_ritz_normal_equations():
    """On the translated quadratic the minimizer solves ``H beta = -g(0)``
    with ``H = sum_s I_s diag(tw) I_s^T``; descent stops with the largest
    gradient entry below 1e-8, so ``|beta - beta*| <= sqrt(m) 1e-8 / lambda_min``."""
    m = 16
    grid = Grid(0.0, 1.0, 1024)
    basis = RitzBasis.build(SLProblem(1.0, ONE, ZERO, ONE, 0.0, 1.0), m, grid)
    problem, _ = translated_quadratic_problem(grid)
    binding = problem.binding

    def slots(values):
        y = SampledFunction(grid, values)
        return values, binding.k(y).values, y.derivative().values, binding.b(y).values

    tw = np.full(grid.n + 1, grid.h)
    tw[0] = tw[-1] = 0.5 * grid.h
    images = [np.vstack(rows) for rows in zip(*(slots(row) for row in basis.phi))]
    hessian = sum((image * tw) @ image.T for image in images)
    partials = problem.lagrangian.partials(*slots(grid.nodes.copy()), grid.nodes)
    g0 = sum(image @ (p * tw) for image, p in zip(images, partials))
    exact = np.linalg.solve(hessian, -g0)
    lam_min = float(np.linalg.eigvalsh(hessian)[0])

    result = direct_minimize(problem, basis)
    assert result.stop == "converged"
    assert np.abs(result.beta - exact).max() <= math.sqrt(m) * 1e-8 / lam_min


def test_descent_on_a_general_kernel_binding_matches_the_difference_kernel():
    """The translated quadratic with its kernel ``exp(-(t - s))`` written as
    a ``GeneralKernel`` builds its trial space through the hierarchical
    engine instead of the FFT path; descent takes the same steps to the
    same minimizer (2.2e-16 apart measured)."""
    grid = Grid(0.0, 1.0, 1024)
    basis = RitzBasis.build(SLProblem(1.0, ONE, ZERO, ONE, 0.0, 1.0), 16, grid)
    problem, _ = translated_quadratic_problem(grid)
    binding = OperatorBinding(problem.binding.p, GeneralKernel(lambda t, s: np.exp(-(t - s))))
    want = direct_minimize(problem, basis)
    got = direct_minimize(dataclasses.replace(problem, binding=binding), basis)
    assert (got.stop, got.iterations) == (want.stop, want.iterations)
    assert np.abs(got.y.values - want.y.values).max() <= 1e-12


def test_preconditioner_floor_without_curvature_at_start():
    """``0.25 x3^4`` has no curvature at ``beta = 0`` (the forward difference
    reads ``1e-6``), so the first preconditioned step is far too long;
    descent converges or raises a typed error, never stepping to NaN."""
    _, basis = unit_interval_basis(8)
    lag = Lagrangian(
        lambda x1, x2, x3, x4, t: 0.25 * x3**4 + t * t * (1.0 - t) ** 2 * x3,
        d3=lambda x1, x2, x3, x4, t: x3**3 + t * t * (1.0 - t) ** 2,
    )
    problem = VariationalProblem(lag, exp_binding(), ya=0.0, yb=0.0)
    try:
        result = direct_minimize(problem, basis)
    except FracvarError:
        return
    assert result.stop == "converged"
    assert np.isfinite(result.beta).all() and math.isfinite(result.value)


def test_preconditioner_diagonal_floor_and_identity():
    _, basis = unit_interval_basis(8)
    flat = Lagrangian(lambda x1, x2, x3, x4, t: x1 + 0.0 * t, d1=lambda x1, x2, x3, x4, t: np.ones_like(x1))
    space = sturm_liouville._TrialSpace(VariationalProblem(flat, exp_binding(), ya=0.0, yb=0.0), basis)
    assert np.array_equal(space.diagonal(space.slots(np.zeros(8))), np.ones(8))

    # curvature only at t = 1/2, where the even modes vanish: their
    # entries are raised to the floor, 1e-8 of the largest
    point = Lagrangian(lambda x1, x2, x3, x4, t: np.where(t == 0.5, 0.5 * x1 * x1, 0.0))
    space = sturm_liouville._TrialSpace(VariationalProblem(point, exp_binding(), ya=0.0, yb=0.0), basis)
    d = space.diagonal(space.slots(np.zeros(8)))
    assert np.allclose(d[0::2], d[0], rtol=1e-12)
    assert np.array_equal(d[1::2], np.full(4, 1e-8 * d.max()))


# --- stacked images against one call per row -----------------------------------------
#
# RitzBasis.build and _TrialSpace apply each operator once to the whole
# stack of basis rows; the per-row calls they replace are the oracle, bit
# for bit.  The work-count gates fail if a later change goes back to
# building the quadrature tables once per row.


@pytest.mark.parametrize("alpha", [0.6, 1.0])
def test_basis_images_match_per_row_derivative_images(alpha):
    problem = SLProblem(alpha, ONE, ZERO, lambda t: 1.0 + 0.3 * t)
    grid = Grid(0.0, math.pi, 333)
    basis = RitzBasis.build(problem, 7, grid)
    per_row = [problem.derivative_image(SampledFunction(grid, row)).values for row in basis.phi]
    assert np.array_equal(basis.dphi, np.array(per_row))


@pytest.mark.parametrize("alpha", [0.75, 1.0])
def test_derivative_images_are_the_classical_operators(alpha):
    """The images are the Caputo operators of ``classical``, or at
    ``alpha = 1`` the grid derivative and its negation, bit for bit.  The
    basis rows' stacked images take the same path (the test above)."""
    problem = SLProblem(alpha, ONE, ZERO, lambda t: 1.0 + 0.3 * t)
    grid = Grid(0.0, math.pi, 333)
    f = SampledFunction(grid, np.sin(grid.nodes) + 0.2 * grid.nodes)
    if alpha == 1.0:
        left, right = f.derivative().values, -f.derivative().values
    else:
        left = classical(ClassicalOp.CAPUTO_LEFT, alpha, f).values
        right = classical(ClassicalOp.CAPUTO_RIGHT, alpha, f).values
    assert np.array_equal(problem.derivative_image(f).values, left)
    assert np.array_equal(problem.right_derivative_image(f).values, right)


def two_sided_exp_problem(ya=0.3, yb=-1.1):
    lag = Lagrangian(lambda x1, x2, x3, x4, t: x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4)
    binding = OperatorBinding(ParameterSet(0.0, 1.0, 0.8, -1.3), DifferenceKernel(lambda s: np.exp(-s)))
    return VariationalProblem(lag, binding, ya=ya, yb=yb)


def test_trial_space_images_match_per_row_trajectories():
    _, basis = unit_interval_basis(6, 301)
    problem = two_sided_exp_problem()
    space = sturm_liouville._TrialSpace(problem, basis)
    bg = SampledFunction(basis.grid, sturm_liouville._affine_background(problem, basis.grid))
    for got, want in zip(space.base, _trajectory(problem, bg)):
        assert np.array_equal(got, want)
    per_row = [_trajectory(problem, SampledFunction(basis.grid, row)) for row in basis.phi]
    for got, want in zip(space.images, zip(*per_row)):
        assert np.array_equal(got, np.array(want))


def count_table_builds(monkeypatch):
    calls = []
    real = operators._lag_tables

    def counting(mu, count):
        calls.append(count)
        return real(mu, count)

    monkeypatch.setattr(operators, "_lag_tables", counting)
    return calls


def test_oversized_bases_are_refused_before_any_table_is_built(monkeypatch):
    """A basis size above the eigensolver's cap is an ``InputError`` before
    any work, in the build, in ``solve_spectrum`` and in ``converge``."""
    calls = count_table_builds(monkeypatch)
    problem = constant_problem(0.75)
    for attempt in (lambda: solve_spectrum(problem, 300, 3),
                    lambda: converge(problem, (8, 250), 3),
                    lambda: RitzBasis.build(problem, 201, Grid(0.0, math.pi, 8192))):
        with pytest.raises(InputError, match="at most 200"):
            attempt()
    assert calls == []
    assert solve_spectrum(problem, 200, 1, Grid(0.0, math.pi, 6400)).m == 200


def test_basis_build_makes_one_table_for_all_rows(monkeypatch):
    calls = count_table_builds(monkeypatch)
    RitzBasis.build(constant_problem(0.7), 32, Grid(0.0, math.pi, 1024))
    assert len(calls) == 1


def test_trial_space_makes_one_table_per_side_and_operator(monkeypatch):
    _, basis = unit_interval_basis(8)
    calls = count_table_builds(monkeypatch)
    sturm_liouville._TrialSpace(two_sided_exp_problem(), basis)
    assert len(calls) <= 4


# --- nested spaces share their rows ---------------------------------------------------
#
# RitzBasis.build keeps the last basis it made; a build of no more rows on an
# equal problem and grid returns its leading rows, which must be the bits a
# cold build computes, with no lag table and no derivative image made.


def varied_problem(alpha=0.7):
    return SLProblem(alpha, lambda t: 1.0 + 0.3 * np.sin(t) ** 2, lambda t: 0.5 + np.cos(t),
                     lambda t: 1.0 + 0.2 * t)


def count_derivative_images(monkeypatch):
    calls = []
    real = SLProblem._derivative

    def counting(self, grid, rows, right):
        calls.append(len(rows))
        return real(self, grid, rows, right)

    monkeypatch.setattr(SLProblem, "_derivative", counting)
    return calls


@pytest.mark.parametrize("m", [16, 13])
def test_solve_spectrum_after_converge_reuses_the_rows_bit_for_bit(monkeypatch, m):
    """``converge`` builds 32 rows; ``solve_spectrum`` on the same problem and
    grid then makes no lag table and no derivative image, and its spectrum
    equals a cold solve's bitwise, also at m = 13, where a cold build groups
    the rows differently (13 is not a multiple of ``_ROW_GROUP``)."""
    problem, grid = varied_problem(), Grid(0.0, math.pi, 1024)
    converge(problem, (8, 16, 32), 3, grid)
    tables, images = count_table_builds(monkeypatch), count_derivative_images(monkeypatch)
    warm = solve_spectrum(problem, m, 3, grid)
    assert tables == [] and images == []
    sturm_liouville._LAST_BASIS.set(None)
    cold = solve_spectrum(problem, m, 3, grid)
    assert len(tables) == 1 and images == [m]
    assert warm.m == cold.m == m
    for name in ("lambdas", "coefficients", "right_trace"):
        assert np.array_equal(getattr(warm, name), getattr(cold, name))
    for got, want in zip(warm.eigenfunctions, cold.eigenfunctions, strict=True):
        assert np.array_equal(got.values, want.values)


def test_a_reuse_shares_the_kept_rows_and_samples():
    """Equal problems (the same callables) on equal grids share rows, even as
    distinct objects; the kept basis stays the larger one."""
    grid = Grid(0.0, math.pi, 1024)
    big = RitzBasis.build(constant_problem(0.7), 32, grid)
    small = RitzBasis.build(constant_problem(0.7), 8, Grid(0.0, math.pi, 1024))
    assert np.shares_memory(small.phi, big.phi) and np.shares_memory(small.dphi, big.dphi)
    assert np.array_equal(small.phi, big.phi[:8]) and small.phi.flags.c_contiguous
    assert small._coefficients is big._coefficients
    assert sturm_liouville._LAST_BASIS.get() is big


def test_a_larger_basis_another_grid_or_problem_rebuilds(monkeypatch):
    """More rows, another grid or an unequal problem is a full build; the
    slot is emptied before it and then holds the new basis only."""
    problem, grid = varied_problem(), Grid(0.0, math.pi, 1024)
    first = RitzBasis.build(problem, 8, grid)
    tables, images = count_table_builds(monkeypatch), count_derivative_images(monkeypatch)
    real_sample = sturm_liouville._sample_coefficients
    slot_during_build = []

    def sampling(*args):
        slot_during_build.append(sturm_liouville._LAST_BASIS.get())
        return real_sample(*args)

    monkeypatch.setattr(sturm_liouville, "_sample_coefficients", sampling)
    previous = first
    for attempt_problem, m, attempt_grid in ((problem, 16, grid),
                                             (problem, 8, Grid(0.0, math.pi, 512)),
                                             (varied_problem(), 8, grid),
                                             (varied_problem(0.8), 8, grid)):
        before = len(tables)
        basis = RitzBasis.build(attempt_problem, m, attempt_grid)
        assert len(tables) == before + 1 and images[-1] == m
        assert slot_during_build[-1] is None
        assert sturm_liouville._LAST_BASIS.get() is basis
        assert not np.shares_memory(basis.phi, previous.phi)
        previous = basis
    assert len(images) == 4


def test_kept_rows_are_read_only():
    grid = Grid(0.0, math.pi, 512)
    fresh = RitzBasis.build(constant_problem(0.7), 16, grid)
    reused = RitzBasis.build(constant_problem(0.7), 4, grid)
    for basis in (fresh, reused):
        for rows in (basis.phi, basis.dphi):
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 1] = 1.0


def test_a_kept_basis_does_not_bypass_the_build_checks(monkeypatch):
    """With a basis kept, an oversized or bool size, a too-coarse grid and a
    grid on another interval still raise, before any table is built, and
    leave the kept basis in place."""
    problem, grid = constant_problem(0.7), Grid(0.0, math.pi, 1024)
    kept = RitzBasis.build(problem, 32, grid)
    calls = count_table_builds(monkeypatch)
    with pytest.raises(InputError, match="at most 200"):
        RitzBasis.build(problem, 201, grid)
    with pytest.raises(InputError, match="True"):
        RitzBasis.build(problem, True, grid)
    with pytest.raises(ConfigurationError, match="coarse"):
        RitzBasis.build(problem, 33, grid)
    with pytest.raises(InputError):
        RitzBasis.build(problem, 8, Grid(0.0, 3.0, 1024))
    assert calls == [] and sturm_liouville._LAST_BASIS.get() is kept


def test_each_thread_keeps_its_own_basis():
    kept = RitzBasis.build(constant_problem(0.7), 4, Grid(0.0, math.pi, 256))
    seen = []
    thread = threading.Thread(target=lambda: seen.append(sturm_liouville._LAST_BASIS.get()))
    thread.start()
    thread.join()
    assert seen == [None] and sturm_liouville._LAST_BASIS.get() is kept
