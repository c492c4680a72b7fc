"""Optimality-condition residuals: stationarity, boundary, constrained, conserved."""

import math
import warnings

import numpy as np
import pytest

from fracvar import (
    ConfigurationError,
    DegeneracyError,
    DifferenceKernel,
    DomainError,
    GeneralKernel,
    Grid,
    InputError,
    Lagrangian,
    NoetherGenerator,
    OperatorBinding,
    ParameterSet,
    PowerLawKernel,
    RitzBasis,
    SampledFunction,
    SLProblem,
    VariationalProblem,
    a_apply,
    b_apply,
    cumulative_trapezoid,
    direct_minimize,
    dissipative_parameter,
    dual,
    el_residual,
    evaluate_functional,
    interior_slice,
    interior_sup,
    isoperimetric_residual,
    k_apply,
    natural_bc_residual,
    noether_drift,
    trapezoid,
)
from fracvar import operators
from fracvar.experiments import damped_oscillator_problem
from fracvar.foundation import _evaluate

EXP_KERNEL = DifferenceKernel(lambda s: math.exp(-s))


def exp_binding(a=0.0, b=1.0):
    return OperatorBinding(ParameterSet(a, b, 1.0, 0.0), EXP_KERNEL)


def quadratic_tracking():
    return Lagrangian(
        lambda x1, x2, x3, x4, t: (x2 + t) ** 2,
        d1=lambda *a: 0.0,
        d2=lambda x1, x2, x3, x4, t: 2.0 * (x2 + t),
        d3=lambda *a: 0.0,
        d4=lambda *a: 0.0,
    )


# --- Lagrangian construction ------------------------------------------------


def test_lagrangian_needs_callable():
    with pytest.raises(InputError):
        Lagrangian(3.0)


def test_lagrangian_rejects_wrong_analytic_partial():
    with pytest.raises(InputError, match="partial"):
        Lagrangian(
            lambda x1, x2, x3, x4, t: x3 * x3,
            d3=lambda x1, x2, x3, x4, t: 7.0 * x3,  # should be 2*x3
        )


def test_lagrangian_rejects_partial_checked_only_against_nan():
    """A NaN finite difference checks nothing, so no probe point counts and
    the wrong ``d3`` is rejected instead of accepted."""
    with pytest.raises(InputError, match="could not validate"):
        Lagrangian(
            lambda x1, x2, x3, x4, t: x3 * x3 + np.nan * x1,
            d3=lambda x1, x2, x3, x4, t: 7.0 * x3,
        )


def test_lagrangian_accepts_consistent_partials():
    Lagrangian(
        lambda x1, x2, x3, x4, t: x1 * x1 + math.sin(x3),
        d1=lambda x1, x2, x3, x4, t: 2.0 * x1,
        d3=lambda x1, x2, x3, x4, t: math.cos(x3),
    )


def _scalar_self_check(f, *partials):
    """The self-check as one scalar call per point and partial, which the
    array check replaced, kept as its oracle: ``None`` when the partials
    pass, else the message of the ``InputError``."""
    rng = np.random.default_rng(1234)
    analytic = [(i, d) for i, d in enumerate(partials) if d is not None]
    checked = 0
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, size=4)
        t = rng.uniform(0.0, 1.0)
        try:
            for i, d in analytic:
                got = float(d(*x, t))
                e = 1e-6 * (1.0 + np.abs(x[i]))
                hi, lo = list(x), list(x)
                hi[i], lo[i] = x[i] + e, x[i] - e
                want = float((_evaluate(f, *hi, t) - _evaluate(f, *lo, t)) / (2.0 * e))
                if not (math.isfinite(got) and math.isfinite(want)):
                    raise ArithmeticError("partial not finite at this probe point")
                if abs(got - want) > 1e-4 * (1.0 + abs(got) + abs(want)):
                    return (f"analytic partial d{i + 1} disagrees with finite "
                            f"differences at x={tuple(x)}, t={t}: {got} vs {want}")
            checked += 1
        except Exception:
            continue
    return None if checked else "could not validate analytic partials at any probe point"


def _raise_beyond(limit, value):
    """A vectorized callable that raises wherever ``x1 > limit``; so on the
    probe arrays it raises, and the check goes point by point."""
    def fn(x1, x2, x3, x4, t):
        if np.any(np.asarray(x1) > limit):
            raise ValueError("outside the domain")
        return value(x1, x2, x3, x4, t)
    return fn


def _square_x3(x1, x2, x3, x4, t):
    return x3 * x3


SELF_CHECK_CASES = {
    "passes": (lambda x1, x2, x3, x4, t: x1 * x1 + x2 * x3 + np.sin(x4) * t,
               lambda x1, x2, x3, x4, t: 2.0 * x1,
               lambda x1, x2, x3, x4, t: x3,
               lambda x1, x2, x3, x4, t: x2,
               lambda x1, x2, x3, x4, t: np.cos(x4) * t),
    "wrong everywhere": (_square_x3, None, None, lambda x1, x2, x3, x4, t: 7.0 * x3, None),
    # d3 is wrong only where x3 > 1.5 and x1 < 0, first at a later point
    "wrong at some points": (_square_x3, None, None,
                             lambda x1, x2, x3, x4, t: 2.0 * x3 + ((x3 > 1.5) & (x1 < 0.0)),
                             None),
    # d1 raises where x1 > 1, and d3 is wrong only there: those points are skipped
    "raises at some points": (_square_x3, _raise_beyond(1.0, lambda *x: 0.0 * x[0]), None,
                              lambda x1, x2, x3, x4, t: 2.0 * x3 + 5.0 * x3 * (x1 > 1.0), None),
    # f raises where x1 > 1.9 (the first point among them), d3 is wrong everywhere
    "raises, then wrong": (_raise_beyond(1.9, _square_x3), None, None,
                           lambda x1, x2, x3, x4, t: 3.0 * x3, None),
    # d1 is NaN where x2 < 0, and the wrong d3 is only reached where x2 >= 0
    "NaN earlier skips the point": (
        lambda x1, x2, x3, x4, t: x3 * x3 + x1 * x2,
        lambda x1, x2, x3, x4, t: np.where(x2 < 0.0, np.nan, x2), None,
        lambda x1, x2, x3, x4, t: 2.0 * x3 + (x2 < 0.0), None),
    # the difference is NaN where x1 > 0 (the first point among them) and d3
    # is wrong: the first point with x1 <= 0 fails
    "NaN at some points": (lambda x1, x2, x3, x4, t: x3 * x3 + np.where(x1 > 0.0, np.nan, 0.0),
                           None, None, lambda x1, x2, x3, x4, t: 7.0 * x3, None),
    "NaN everywhere": (lambda x1, x2, x3, x4, t: x3 * x3 + np.nan * x1, None, None,
                       lambda x1, x2, x3, x4, t: 7.0 * x3, None),
    "raises everywhere": (_raise_beyond(-3.0, _square_x3), None, None,
                          lambda x1, x2, x3, x4, t: 2.0 * x3, None),
    "scalars only, passes": (lambda x1, x2, x3, x4, t: math.exp(x1) * math.sin(x3) + t,
                             lambda x1, x2, x3, x4, t: math.exp(x1) * math.sin(x3), None,
                             lambda x1, x2, x3, x4, t: math.exp(x1) * math.cos(x3), None),
    "scalars only, wrong": (lambda x1, x2, x3, x4, t: math.sqrt(x1 + 1.0) * x4,
                            lambda x1, x2, x3, x4, t: x4 / math.sqrt(x1 + 1.0), None, None,
                            lambda x1, x2, x3, x4, t: math.sqrt(x1 + 1.0)),
    "returns a scalar": (lambda x1, x2, x3, x4, t: x3 * x3 + 2.0 * x2,
                         None, lambda *x: 2.0, lambda x1, x2, x3, x4, t: 2.0 * x3, None),
}

SELF_CHECK_OUTCOMES = {
    "passes": None,
    "wrong everywhere": "d3",
    "wrong at some points": "d3",
    "raises at some points": None,
    "raises, then wrong": "d3",
    "NaN earlier skips the point": None,
    "NaN at some points": "d3",
    "NaN everywhere": "could not validate",
    "raises everywhere": "could not validate",
    "scalars only, passes": None,
    "scalars only, wrong": "d1",
    "returns a scalar": None,
}


@pytest.mark.parametrize("case", sorted(SELF_CHECK_CASES))
def test_array_self_check_matches_the_scalar_loop(case):
    """The array check accepts what the scalar loop accepts and rejects the
    rest with the same message, which names the same first failing point."""
    f, *partials = SELF_CHECK_CASES[case]
    want = _scalar_self_check(f, *partials)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            Lagrangian(f, *partials)
            got = None
        except InputError as exc:
            got = str(exc)
    assert got == want
    expected = SELF_CHECK_OUTCOMES[case]
    assert (got is None) if expected is None else expected in got


def test_array_self_check_makes_one_call_per_callable():
    """Each analytic partial is called once on all points, and ``f`` twice
    for its central difference."""
    calls = []

    def counted(fn, name):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    Lagrangian(counted(lambda x1, x2, x3, x4, t: x1 * x1 + x3 * x4, "f"),
               d1=counted(lambda x1, x2, x3, x4, t: 2.0 * x1, "d1"),
               d4=counted(lambda x1, x2, x3, x4, t: x3, "d4"))
    assert sorted(calls) == ["d1", "d4", "f", "f", "f", "f"]


def test_finite_differences_only_in_slots_without_partials():
    """Two analytic partials leave two central differences, two calls of
    ``f`` each, with the step ``1e-6 (1 + |x|)``."""
    calls = []

    def f(x1, x2, x3, x4, t):
        calls.append(1)
        return x1 * x1 + x2 * x3 + np.sin(x4) * t

    lag = Lagrangian(
        f,
        d1=lambda x1, x2, x3, x4, t: 2.0 * x1,
        d3=lambda x1, x2, x3, x4, t: x2,
    )
    x = [np.linspace(-1.0, 1.0, 9) + k for k in range(4)]
    t = np.linspace(0.0, 1.0, 9)
    calls.clear()
    p1, p2, p3, p4 = lag.partials(*x, t)
    assert len(calls) == 4
    assert np.array_equal(p1, 2.0 * x[0]) and np.array_equal(p3, x[1])
    e = 1e-6 * (1.0 + np.abs(x[1]))
    want = (f(x[0], x[1] + e, *x[2:], t) - f(x[0], x[1] - e, *x[2:], t)) / (2.0 * e)
    assert np.array_equal(p2, want)
    assert np.allclose(p2, x[2], rtol=1e-8) and np.allclose(p4, np.cos(x[3]) * t, rtol=1e-6, atol=1e-9)


# --- functional evaluation ---------------------------------------------------


def test_dirichlet_energy_of_identity():
    g = Grid(0.0, 1.0, 256)
    prob = VariationalProblem(Lagrangian(lambda x1, x2, x3, x4, t: x3 * x3), exp_binding())
    assert evaluate_functional(prob, SampledFunction(g, g.nodes)) == pytest.approx(1.0, abs=1e-12)


def test_volterra_solution_annihilates_tracking_functional():
    g = Grid(0.0, 1.0, 1024)
    prob = VariationalProblem(quadratic_tracking(), exp_binding())
    value = evaluate_functional(prob, SampledFunction(g, -1.0 - g.nodes))
    assert abs(value) < 1e-10


def test_oscillator_action_vanishes_on_half_period():
    g = Grid(0.0, math.pi, 4096)
    lag = Lagrangian(lambda x1, x2, x3, x4, t: 0.5 * x1 * x1 - 0.5 * x3 * x3)
    prob = VariationalProblem(lag, exp_binding(0.0, math.pi))
    assert abs(evaluate_functional(prob, SampledFunction(g, np.sin(g.nodes)))) < 1e-6


def test_boundary_violation_names_the_endpoint():
    g = Grid(0.0, 1.0, 64)
    prob = VariationalProblem(Lagrangian(lambda x1, x2, x3, x4, t: x1 * x1), exp_binding(), ya=0.0, yb=1.0)
    with pytest.raises(InputError, match="t=b"):
        evaluate_functional(prob, SampledFunction(g, np.zeros(65)))


# --- stationarity residual ----------------------------------------------------


def test_el_residual_classical_oscillator():
    g = Grid(0.0, math.pi, 2048)
    lag = Lagrangian(lambda x1, x2, x3, x4, t: 0.5 * x1 * x1 - 0.5 * x3 * x3)
    prob = VariationalProblem(lag, exp_binding(0.0, math.pi))
    res = el_residual(prob, SampledFunction(g, np.sin(g.nodes)))
    assert interior_sup(res.values) < 1e-4


def test_el_residual_zero_trajectory_is_exact():
    g = Grid(0.0, 1.0, 256)
    lag = Lagrangian(lambda x1, x2, x3, x4, t: x1 * x1 + x3 * x3)
    res = el_residual(VariationalProblem(lag, exp_binding()), SampledFunction(g, np.zeros(257)))
    assert np.array_equal(res.values, np.zeros(257))


def test_el_residual_matches_classical_form():
    g = Grid(0.0, 1.0, 1024)
    lag = Lagrangian(lambda x1, x2, x3, x4, t: x1 * x1 + x3 * x3)
    y = SampledFunction(g, np.sin(2.0 * g.nodes) + g.nodes)
    res = el_residual(VariationalProblem(lag, exp_binding()), y)
    dy = np.gradient(y.values, g.h, edge_order=2)
    independent = np.gradient(2.0 * dy, g.h, edge_order=2) - 2.0 * y.values
    assert np.abs(res.values - independent)[interior_slice(1024)].max() < 1e-6


def test_el_residual_additive_for_analytic_partials():
    g = Grid(0.0, 1.0, 1024)
    y = SampledFunction(g, np.sin(2.0 * g.nodes) + g.nodes)
    zero = lambda *a: 0.0
    f1 = Lagrangian(lambda x1, x2, x3, x4, t: x1 * x1,
                    d1=lambda x1, x2, x3, x4, t: 2 * x1, d2=zero, d3=zero, d4=zero)
    f2 = Lagrangian(lambda x1, x2, x3, x4, t: x2 * x2 + x3 * x3,
                    d1=zero, d2=lambda x1, x2, x3, x4, t: 2 * x2,
                    d3=lambda x1, x2, x3, x4, t: 2 * x3, d4=zero)
    f12 = Lagrangian(lambda x1, x2, x3, x4, t: x1 * x1 + x2 * x2 + x3 * x3,
                     d1=lambda x1, x2, x3, x4, t: 2 * x1, d2=lambda x1, x2, x3, x4, t: 2 * x2,
                     d3=lambda x1, x2, x3, x4, t: 2 * x3, d4=zero)
    binding = exp_binding()
    r1 = el_residual(VariationalProblem(f1, binding), y).values
    r2 = el_residual(VariationalProblem(f2, binding), y).values
    r12 = el_residual(VariationalProblem(f12, binding), y).values
    assert np.abs(r12 - r1 - r2).max() < 1e-10


def test_first_variation_pairs_with_residual():
    """Central-difference Gateaux derivative equals the negated residual pairing."""
    g = Grid(0.0, 1.0, 2048)
    t = g.nodes
    lag = Lagrangian(
        lambda x1, x2, x3, x4, t: x1 * x1 + 0.5 * x3 * x3 + 0.25 * x2 * x2 + 0.1 * x4 * x4,
        d1=lambda x1, x2, x3, x4, t: 2.0 * x1,
        d2=lambda x1, x2, x3, x4, t: 0.5 * x2,
        d3=lambda x1, x2, x3, x4, t: x3,
        d4=lambda x1, x2, x3, x4, t: 0.2 * x4,
    )
    prob = VariationalProblem(lag, exp_binding(), ya=0.0, yb=0.0)
    y = SampledFunction(g, 0.3 * np.sin(np.pi * t))
    eta = (t * (1.0 - t)) ** 2 * np.sin(3.0 * t)
    h = 1e-5
    jp = evaluate_functional(prob, SampledFunction(g, y.values + h * eta))
    jm = evaluate_functional(prob, SampledFunction(g, y.values - h * eta))
    gateaux = (jp - jm) / (2.0 * h)
    res = el_residual(prob, y)
    paired = -trapezoid(SampledFunction(g, res.values * eta))
    assert gateaux == pytest.approx(paired, rel=2e-3)


# --- natural boundary condition -----------------------------------------------


def test_natural_condition_constant_trajectory():
    g = Grid(0.0, 1.0, 256)
    prob = VariationalProblem(Lagrangian(lambda x1, x2, x3, x4, t: x3 * x3), exp_binding())
    assert natural_bc_residual(prob, SampledFunction(g, np.full(257, 4.0))) == 0.0


def test_natural_condition_detects_transport():
    g = Grid(0.0, 1.0, 256)
    prob = VariationalProblem(Lagrangian(lambda x1, x2, x3, x4, t: x3 * x3), exp_binding())
    assert natural_bc_residual(prob, SampledFunction(g, g.nodes)) == pytest.approx(2.0, abs=1e-10)


def test_natural_condition_caputo_constant():
    g = Grid(0.0, 1.0, 1024)
    binding = OperatorBinding(ParameterSet(0.0, 1.0, 1.0, 0.0), PowerLawKernel(0.5, "derivative"))
    prob = VariationalProblem(Lagrangian(lambda x1, x2, x3, x4, t: x4 * x4), binding)
    assert natural_bc_residual(prob, SampledFunction(g, np.full(1025, 3.0))) < 1e-8


def test_natural_condition_requires_free_boundary():
    g = Grid(0.0, 1.0, 64)
    prob = VariationalProblem(Lagrangian(lambda x1, x2, x3, x4, t: x3 * x3), exp_binding(), ya=0.0)
    with pytest.raises(InputError, match="free left boundary"):
        natural_bc_residual(prob, SampledFunction(g, np.zeros(65)))


def test_natural_condition_checks_right_boundary_value():
    g = Grid(0.0, 1.0, 64)
    prob = VariationalProblem(Lagrangian(lambda x1, x2, x3, x4, t: x3 * x3), exp_binding(), yb=1.0)
    with pytest.raises(InputError, match="boundary value at t=b is 0.0, expected 1.0"):
        natural_bc_residual(prob, SampledFunction(g, np.zeros(65)))


# --- constrained stationarity ----------------------------------------------


def test_multiplier_is_one_when_objective_equals_constraint():
    g = Grid(0.0, 1.0, 1024)
    lag = quadratic_tracking()
    y = SampledFunction(g, -1.0 - g.nodes)
    prob = VariationalProblem(lag, exp_binding(), ya=-1.0, yb=-2.0)
    level = evaluate_functional(prob, y)
    report = isoperimetric_residual(prob, lag, level, y)
    assert report.multiplier == 1.0
    assert report.residual == 0.0


def test_constraint_violation_is_rejected():
    g = Grid(0.0, 1.0, 256)
    lag = quadratic_tracking()
    prob = VariationalProblem(lag, exp_binding())
    with pytest.raises(InputError, match="constraint"):
        isoperimetric_residual(prob, lag, 10.0, SampledFunction(g, -1.0 - g.nodes))


def test_degenerate_constraint_has_no_multiplier():
    g = Grid(0.0, 1.0, 256)
    y = SampledFunction(g, g.nodes**2)
    # d/dt[1] == 0 pointwise, so the side condition gives no stationarity signal
    flux = Lagrangian(lambda x1, x2, x3, x4, t: x3,
                      d1=lambda *a: 0.0, d2=lambda *a: 0.0,
                      d3=lambda *a: 1.0, d4=lambda *a: 0.0)
    prob = VariationalProblem(Lagrangian(lambda x1, x2, x3, x4, t: x1 * x1), exp_binding())
    level = evaluate_functional(VariationalProblem(flux, exp_binding()), y)
    with pytest.raises(DegeneracyError):
        isoperimetric_residual(prob, flux, level, y)


# --- conserved quantities ----------------------------------------------------


def test_classical_momentum_is_conserved():
    g = Grid(0.0, 1.0, 512)
    lag = Lagrangian(lambda x1, x2, x3, x4, t: x3 * x3)
    prob = VariationalProblem(lag, exp_binding())
    report = noether_drift(prob, SampledFunction(g, g.nodes), NoetherGenerator(lambda t, y: 1.0))
    assert report.drift < 1e-12


def test_zero_trajectory_conserves_zero():
    g = Grid(0.0, 1.0, 256)
    binding = OperatorBinding(ParameterSet(0.0, 1.0, 1.0, 0.0), PowerLawKernel(0.5, "derivative"))
    prob = VariationalProblem(Lagrangian(lambda x1, x2, x3, x4, t: x4 * x4), binding)
    report = noether_drift(prob, SampledFunction(g, np.zeros(257)), NoetherGenerator(lambda t, y: 1.0))
    assert np.abs(report.constant.values).max() == 0.0
    assert report.drift == 0.0


def test_noether_warns_off_extremal():
    g = Grid(0.0, 1.0, 512)
    lag = Lagrangian(lambda x1, x2, x3, x4, t: x1 * x1 + x3 * x3)
    prob = VariationalProblem(lag, exp_binding())
    junk = SampledFunction(g, np.cosh(3.0 * g.nodes))
    with pytest.warns(UserWarning, match="stationarity") as record:
        noether_drift(prob, junk, NoetherGenerator(lambda t, y: 1.0))
    # the warning points at the caller, not into the library
    assert record[0].filename == __file__


def test_noether_rejects_weighted_problems():
    g = Grid(0.0, 1.0, 256)
    lag = Lagrangian(lambda x1, x2, x3, x4, t: x3 * x3)
    weight = SampledFunction(g, np.exp(0.1 * (1.0 - g.nodes)))
    prob = VariationalProblem(lag, exp_binding(), weight=weight)
    with pytest.raises(ConfigurationError):
        noether_drift(prob, SampledFunction(g, g.nodes), NoetherGenerator(lambda t, y: 1.0))


def counting_binding():
    """Left binding of ``exp(-s)`` whose kernel counts its profile samples:
    one per rule built, however many rows and calls the rule serves."""
    calls = [0]

    def h(s):
        calls[0] += 1
        return np.exp(-s)

    return OperatorBinding(ParameterSet(0.0, 1.0, 1.0, 0.0), DifferenceKernel(h)), calls


def operator_work(monkeypatch, check):
    """``(profile samples, operator calls)`` of ``check`` on a counting
    binding: the rules it builds and the calls it makes of them, each
    call one stack of rows."""
    binding, samples = counting_binding()
    calls = [0]
    real_rule = operators._left_rule

    def counted_rule(kernel, grid, inside):
        rule = real_rule(kernel, grid, inside)

        def counted(*args):
            calls[0] += 1
            return rule(*args)

        return counted

    with monkeypatch.context() as patch:
        patch.setattr(operators, "_left_rule", counted_rule)
        check(binding)
    return samples[0], calls[0]


def test_constrained_and_conserved_checks_form_the_trajectory_once(monkeypatch):
    """Each check forms the slots of ``y`` once and shares them.  The slots
    take 2 operator calls, each stationarity residual 1 (one stacked dual
    call on the rows ``(d4 F, d2 F)``), and the conserved quantity's
    general pairings take ``K[xi]`` and ``B[xi]`` from the slot function,
    2 more: 5 for ``noether_drift`` and 4 for ``isoperimetric_residual``.
    Each builds K's rule and B's rule once, so it samples the profile twice."""
    g = Grid(0.0, 1.0, 256)
    lag, y = quadratic_tracking(), SampledFunction(g, -1.0 - g.nodes)

    def problem(binding):
        return VariationalProblem(lag, binding, ya=-1.0, yb=-2.0)

    level = evaluate_functional(problem(exp_binding()), y)
    work = [
        operator_work(monkeypatch, lambda b: noether_drift(problem(b), y,
                                                           NoetherGenerator(lambda t, x: 1.0))),
        operator_work(monkeypatch, lambda b: isoperimetric_residual(problem(b), lag, level, y)),
    ]
    assert work == [(2, 5), (2, 4)]


def test_stationarity_and_reduced_conserved_quantity_share_one_dual_call(monkeypatch):
    """``el_residual`` makes 2 operator calls for the slots and 1 for the
    dual images; the reduced conserved quantity ``K_dual[d4 F]`` is that
    call's first row, so ``noether_drift`` makes 3 as well.  Each builds
    K's rule and B's rule once, so it samples the profile twice."""
    g = Grid(0.0, 1.0, 256)
    y = SampledFunction(g, np.sin(3.0 * g.nodes))
    full = Lagrangian(lambda x1, x2, x3, x4, t: x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4)
    fourth = Lagrangian(lambda x1, x2, x3, x4, t: x4 * x4)
    shift = NoetherGenerator(lambda t, x: 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        work = [
            operator_work(monkeypatch, lambda b: el_residual(VariationalProblem(full, b), y)),
            operator_work(monkeypatch,
                          lambda b: noether_drift(VariationalProblem(fourth, b), y, shift)),
        ]
    assert work == [(2, 3), (2, 3)]


# --- one stacked dual call against one public call per image --------------------
#
# The checks take the dual images of the partials from one stacked call and
# the generator's images from the trajectory's slot function.  Forming each
# image by its own public ``k_apply``/``a_apply``/``b_apply`` call is the
# oracle; a stacked row equals the same row computed alone, so the checks
# must match it bit for bit.


def _oracle_partials(problem, y):
    p, kern, g = problem.binding.p, problem.binding.kernel, y.grid
    slots = (y.values, k_apply(p, kern, y).values, np.gradient(y.values, g.h, edge_order=2),
             b_apply(p, kern, y).values)
    partials = problem.lagrangian.partials(*slots, g.nodes)
    if problem.weight is not None:
        partials = [q * problem.weight.values for q in partials]
    return partials


def _oracle_el(problem, y):
    p1, p2, p3, p4 = _oracle_partials(problem, y)
    pstar, kern, g = dual(problem.binding.p), problem.binding.kernel, y.grid
    term_a = a_apply(pstar, kern, SampledFunction(g, p4)).values
    term_k = k_apply(pstar, kern, SampledFunction(g, p2)).values
    return np.gradient(p3, g.h, edge_order=2) + term_a - p1 - term_k


def _oracle_natural_bc(problem, y):
    _, _, p3, p4 = _oracle_partials(problem, y)
    kern, g = problem.binding.kernel, y.grid
    expr = p3 + k_apply(dual(problem.binding.p), kern, SampledFunction(g, p4)).values
    return abs(2.0 * expr[1] - expr[2])


def _oracle_noether(problem, y, xi):
    p1, p2, p3, p4 = _oracle_partials(problem, y)
    p, kern, g = problem.binding.p, problem.binding.kernel, y.grid
    pstar, p2sf, p4sf = dual(p), SampledFunction(g, p2), SampledFunction(g, p4)
    xi_v = np.broadcast_to(np.asarray(xi(g.nodes, y.values), dtype=float), g.nodes.shape)
    scale = 1.0 + float(np.abs(p4).max())
    reduced = (
        max(float(np.abs(q).max()) for q in (p1, p2, p3)) <= 1e-12 * scale
        and float(xi_v.max() - xi_v.min()) <= 1e-13 * (1.0 + float(np.abs(xi_v).mean()))
    )
    if reduced:
        c_vals = k_apply(pstar, kern, p4sf).values
    else:
        xi_sf = SampledFunction(g, xi_v)
        pair_d = xi_v * a_apply(pstar, kern, p4sf).values + p4 * b_apply(p, kern, xi_sf).values
        pair_i = -xi_v * k_apply(pstar, kern, p2sf).values + p2 * k_apply(p, kern, xi_sf).values
        c_vals = xi_v * p3 + cumulative_trapezoid(SampledFunction(g, pair_d + pair_i)).values
    cw = c_vals[interior_slice(g.n)]
    return c_vals, float(cw.max() - cw.min()) / (1.0 + float(np.abs(cw).mean())), reduced


ORACLE_KERNELS = (
    DifferenceKernel(lambda s: np.exp(-s)),
    GeneralKernel(lambda x, y: np.exp(-(x - y)) * (1.0 + x * y), 0.0),
)


@pytest.mark.parametrize("n", [32, 1024])
@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=["difference", "general"])
@pytest.mark.parametrize("shape", ["smooth", "zero", "constant"])
def test_checks_match_one_public_call_per_image(kernel, n, shape):
    """``el_residual`` with and without a weight, the weighted
    ``natural_bc_residual`` and both branches of ``noether_drift``, on a
    two-sided binding."""
    g = Grid(0.0, 1.0, n)
    t = g.nodes
    values = {"smooth": np.sin(2.0 * t) + t, "zero": np.zeros(n + 1), "constant": np.full(n + 1, 0.7)}
    y = SampledFunction(g, values[shape])
    binding = OperatorBinding(ParameterSet(0.0, 1.0, 0.8, -1.3), kernel)
    full = Lagrangian(lambda x1, x2, x3, x4, t: x1 * x1 + x1 * x2 + x3 * x3 + x4 * x4 * t)
    fourth = Lagrangian(lambda x1, x2, x3, x4, t: x4 * x4)
    weight = SampledFunction(g, np.exp(0.1 * (1.0 - t)))
    weighted = VariationalProblem(full, binding, weight=weight)
    for problem in (VariationalProblem(full, binding), weighted):
        assert np.array_equal(el_residual(problem, y).values, _oracle_el(problem, y))
    assert natural_bc_residual(weighted, y) == _oracle_natural_bc(weighted, y)
    branches = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for lag, xi in ((full, lambda t, x: 0.5 + t * x), (fourth, lambda t, x: 1.0)):
            problem = VariationalProblem(lag, binding)
            report = noether_drift(problem, y, NoetherGenerator(xi))
            c_vals, drift, reduced = _oracle_noether(problem, y, xi)
            assert np.array_equal(report.constant.values, c_vals)
            assert report.drift == drift
            branches.add(reduced)
    # a zero trajectory zeroes every partial, so both generators take the reduced branch
    assert branches == ({True} if shape == "zero" else {True, False})


@pytest.mark.parametrize("n", [32, 1024])
@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=["difference", "general"])
@pytest.mark.parametrize("c", [0.0, 0.7], ids=["zero", "constant"])
def test_checks_on_zero_and_constant_trajectories_take_exact_values(kernel, n, c):
    """On ``y = c`` on a two-sided binding, the slots ``y'`` and ``B y``
    vanish exactly, so with analytic partials every check has an exact
    value or a typed error:
    - ``el_residual`` of ``x1**2 / 2 + x4**2`` is ``-c`` at every node;
    - ``natural_bc_residual`` of ``x1 x3 + x4**2`` is ``|c|``;
    - ``noether_drift`` of ``x1**2 / 2 + x4**2`` under a shift is a zero
      constant with zero drift, and warns when ``c`` is not an extremal;
    - ``isoperimetric_residual`` against the constraint ``x1**2 / 2``,
      whose residual equals the objective's, gives multiplier 1 and
      residual 0 on ``c != 0`` and raises ``DegeneracyError`` on zero,
      and against ``t x2`` gives multiplier 0 and residual 0 on zero."""
    zero = lambda *args: 0.0
    first = lambda x1, x2, x3, x4, t: x1
    objective = Lagrangian(lambda x1, x2, x3, x4, t: 0.5 * x1 * x1 + x4 * x4, d1=first, d2=zero,
                           d3=zero, d4=lambda x1, x2, x3, x4, t: 2.0 * x4)
    boundary = Lagrangian(lambda x1, x2, x3, x4, t: x1 * x3 + x4 * x4, d1=lambda x1, x2, x3, x4, t: x3,
                          d2=zero, d3=first, d4=lambda x1, x2, x3, x4, t: 2.0 * x4)
    square = Lagrangian(lambda x1, x2, x3, x4, t: 0.5 * x1 * x1, d1=first)
    tracking = Lagrangian(lambda x1, x2, x3, x4, t: t * x2, d2=lambda x1, x2, x3, x4, t: np.asarray(t, dtype=float))
    g = Grid(0.0, 1.0, n)
    y = SampledFunction(g, np.full(n + 1, c))
    binding = OperatorBinding(ParameterSet(0.0, 1.0, 0.8, -1.3), kernel)
    problem = VariationalProblem(objective, binding)

    assert np.all(el_residual(problem, y).values == -c)
    assert natural_bc_residual(VariationalProblem(boundary, binding), y) == c
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        report = noether_drift(problem, y, NoetherGenerator(lambda t, x: 1.0))
    assert np.all(report.constant.values == 0.0) and report.drift == 0.0
    assert len(record) == (c != 0.0)

    def report(constraint):
        level = evaluate_functional(VariationalProblem(constraint, binding), y)
        return tuple(isoperimetric_residual(problem, constraint, level, y))

    if c:
        assert report(square) == (1.0, 0.0)
    else:
        with pytest.raises(DegeneracyError):
            report(square)
        assert report(tracking) == (0.0, 0.0)


# --- weighted (action-dissipative) problems -----------------------------------


def test_dissipative_parameter_of_exponential_weight():
    g = Grid(0.0, 1.0, 1024)
    weight = SampledFunction(g, np.exp(0.1 * (1.0 - g.nodes)))
    delta = dissipative_parameter(weight)
    assert np.abs(delta.values + 0.1).max() < 1e-6


def test_dissipative_parameter_of_unit_weight():
    g = Grid(0.0, 1.0, 64)
    delta = dissipative_parameter(SampledFunction(g, np.ones(65)))
    assert np.abs(delta.values).max() == 0.0


def test_dissipative_parameter_needs_positive_weight():
    g = Grid(0.0, 1.0, 64)
    with pytest.raises(DomainError):
        dissipative_parameter(SampledFunction(g, np.cos(4.0 * g.nodes)))


def test_damped_oscillator_satisfies_weighted_stationarity():
    g = Grid(0.0, 1.0, 2048)
    prob, y = damped_oscillator_problem(g)
    assert interior_sup(el_residual(prob, y).values) < 1e-3


def test_weight_on_another_grid_is_named_in_the_error():
    prob, y = damped_oscillator_problem(Grid(0.0, 1.0, 256))
    unit = SLProblem(1.0, lambda t: 1.0, lambda t: 0.0, lambda t: 1.0, 0.0, 1.0)
    fine = Grid(0.0, 1.0, 512)
    y_fine = SampledFunction(fine, np.interp(fine.nodes, y.grid.nodes, y.values))
    mismatch = r"weight grid Grid\(a=0.0, b=1.0, n=256\) does not match grid Grid\(a=0.0, b=1.0, n=512\)"
    with pytest.raises(InputError, match=mismatch):
        el_residual(prob, y_fine)
    with pytest.raises(InputError, match=mismatch):
        evaluate_functional(prob, y_fine)
    with pytest.raises(InputError, match=mismatch):
        direct_minimize(prob, RitzBasis.build(unit, 8, fine))
    # on the weight's own grid the same calls run
    assert interior_sup(el_residual(prob, y).values) < 1e-2
    assert math.isfinite(evaluate_functional(prob, y))
    assert direct_minimize(prob, RitzBasis.build(unit, 8, y.grid)).stop == "converged"
