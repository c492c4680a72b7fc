import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracvar import (
    AccuracyError,
    DomainError,
    Grid,
    InputError,
    ParameterSet,
    SampledFunction,
    SLProblem,
    SymmetricMatrix,
    boundedness_constant,
    cumulative_trapezoid,
    erfc,
    gamma,
    interior_slice,
    interior_sup,
    mittag_leffler,
    singular_weights,
    symmetric_eigen,
    trapezoid,
)
from fracvar.foundation import _pi_coefficients

st_mu = st.floats(0.05, 0.95)
st_dim = st.integers(2, 12)
st_seed = st.integers(0, 2**32 - 1)


# --- grids and samples ---------------------------------------------------


def test_grid_nodes():
    g = Grid(0.0, 1.0, 10)
    assert len(g.nodes) == 11
    assert np.allclose(np.diff(g.nodes), g.h)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0


@pytest.mark.parametrize("a,b,n", [(1.0, 0.0, 4), (0.0, 0.0, 4), (math.nan, 1.0, 4), (0.0, 1.0, 1)])
def test_grid_rejects_bad_input(a, b, n):
    with pytest.raises(InputError):
        Grid(a, b, n)


@pytest.mark.parametrize("a,b", [(0.0, math.inf), (math.nan, 1.0), (-1e308, 1e308)])
@pytest.mark.parametrize(
    "build",
    [
        lambda a, b: Grid(a, b, 4),
        lambda a, b: ParameterSet(a, b, 1.0, 0.0),
        lambda a, b: boundedness_constant(0.5, a, b),
        lambda a, b: SLProblem(0.75, math.cos, math.cos, math.cos, a, b),
    ],
    ids=["Grid", "ParameterSet", "boundedness_constant", "SLProblem"],
)
def test_every_interval_check_needs_finite_endpoints_and_length(build, a, b):
    """An infinite endpoint, a NaN endpoint, or finite endpoints whose
    difference overflows are one ``InputError`` wherever an interval is
    taken; ``b - a`` of the last pair is inf."""
    with pytest.raises(InputError, match="finite a < b"):
        build(a, b)


def test_sampled_function_validation():
    g = Grid(0.0, 1.0, 4)
    with pytest.raises(InputError):
        SampledFunction(g, np.zeros(4))
    with pytest.raises(InputError, match="node"):
        SampledFunction(g, np.array([0.0, 1.0, math.inf, 1.0, 0.0]))


def test_from_callable_matches_manual_sampling():
    g = Grid(0.0, 2.0, 16)
    f = SampledFunction.from_callable(g, math.sin)
    assert np.array_equal(f.values, np.sin(g.nodes))


# --- special functions ---------------------------------------------------


@pytest.mark.parametrize(
    "x,expected",
    [(1.0, 1.0), (0.5, math.sqrt(math.pi)), (1.25, 0.9064024771), (6.0, 120.0)],
)
def test_gamma_known_values(x, expected):
    assert gamma(x) == pytest.approx(expected, rel=1e-10)


def test_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        gamma(0.0)
    with pytest.raises(DomainError):
        gamma(-2.5)


@given(x=st.floats(0.1, 20.0))
def test_gamma_recurrence(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_mittag_leffler_values():
    assert mittag_leffler(1.0, 1.0) == pytest.approx(math.e, abs=1e-10)
    assert mittag_leffler(0.5, 0.0) == 1.0
    assert mittag_leffler(0.5, -1.0) == pytest.approx(0.4275835762, abs=1e-10)


@pytest.mark.parametrize("alpha,z", [(0.0, 0.0), (1.5, 0.0), (0.5, 60.0)])
def test_mittag_leffler_domain(alpha, z):
    with pytest.raises(DomainError):
        mittag_leffler(alpha, z)


@given(z=st.floats(-20.0, 5.0))
def test_mittag_leffler_order_one_is_exp(z):
    assert abs(mittag_leffler(1.0, z) - math.exp(z)) < 1e-10


def _scalar_mittag_leffler(alpha, z):
    """The scalar loop the array form replaced, kept as its oracle: the same
    compensated series one element at a time with ``math.exp``, and the same
    mpmath re-summation where float64 falls short.  Returns the value and
    whether it was re-summed."""
    if z == 0.0:
        return 1.0, False
    log_az = math.log(abs(z))
    ln10 = math.log(10.0)
    s, comp, abs_sum, peak_log, prev_lt = 1.0, 0.0, 1.0, 0.0, 0.0
    overflow = False
    for k in range(1, 10000):
        lt = k * log_az - math.lgamma(alpha * k + 1.0)
        peak_log = max(peak_log, lt)
        if not overflow:
            if lt > 700.0:
                overflow = True
            else:
                mag = math.exp(lt)
                term = mag if z > 0 or k % 2 == 0 else -mag
                y = term - comp
                t = s + y
                comp = (t - s) - y
                s = t
                abs_sum += mag
                if lt < prev_lt and mag < 1e-16 * (1.0 + abs(s)):
                    break
        if overflow:
            digits = 30 + max(0, int(peak_log / ln10))
            if lt < prev_lt and lt < -(digits - 8) * ln10:
                break
        prev_lt = lt
    else:
        raise AccuracyError("no convergence")
    if not overflow and abs_sum <= 1e3:
        return s, False
    digits = 30 + max(0, int(peak_log / ln10))
    with mp.workdps(digits):
        am, zm = mp.mpf(alpha), mp.mpf(z)
        total = term = mp.mpf(1)
        tol = mp.mpf(10) ** (-(digits - 8))
        for k in range(1, 10000):
            term = term * zm * mp.gamma(am * (k - 1) + 1) / mp.gamma(am * k + 1)
            total += term
            if abs(term) < tol * (1 + abs(total)):
                return float(total), True
    raise AccuracyError("no convergence")


def _mp_series(alpha, z):
    """``E_alpha(z)`` summed term by term at 100 digits: more than 50 are left
    after the cancellation of terms up to 1e43 at ``alpha = 0.5, z = -10``."""
    with mp.workdps(100):
        am, total, k = mp.mpf(alpha), mp.mpf(0), 0
        while True:
            term = mp.mpf(z) ** k * mp.rgamma(am * k + 1)
            total += term
            if k > 4 * abs(z) ** (1 / alpha) and abs(term) < mp.mpf(10) ** -60:
                return float(total)
            k += 1


def test_mittag_leffler_array_mixes_escalated_and_float64_elements():
    z = np.array([[-10.0, -0.3, 0.0], [10.0, 1e-3, -10.0]])
    got = mittag_leffler(0.5, z)
    assert got.shape == z.shape
    escalated = 0
    for value, zi in zip(got.ravel(), z.ravel()):
        want, up = _scalar_mittag_leffler(0.5, float(zi))
        escalated += up
        if up:
            assert value == want
        else:
            assert abs(value - want) <= 4.4e-16 * max(1.0, abs(want))
        exact = _mp_series(0.5, float(zi))
        assert abs(value - exact) <= 4.4e-16 * max(1.0, abs(exact))
    assert escalated == 3


@pytest.mark.parametrize("alpha,z", [(0.5, -10.0), (0.5, 10.0), (0.7, -20.0)])
def test_mittag_leffler_escalated_elements_match_the_scalar_loop(alpha, z):
    want, up = _scalar_mittag_leffler(alpha, z)
    assert up
    assert mittag_leffler(alpha, np.array([z, -0.3]))[0] == want
    assert mittag_leffler(alpha, z) == want


@pytest.mark.parametrize("alpha,z,exact", [
    (0.7, -20.0, 0.01739569829160397999014497),
    (0.9, -30.0, 0.003713707698459852110953738),
    (0.9, -50.0, 0.002175353076856976049829736),
])
def test_mittag_leffler_at_non_dyadic_orders_matches_a_contour_reference(alpha, z, exact):
    """Where ``alpha * k`` is not exact in binary.  Each reference is the
    Laplace inverse of ``s**(alpha - 1) / (s**alpha - z)`` at ``t = 1``
    (mpmath ``invertlaplace``, Talbot contour, 60 digits); the series
    summed at 150 digits with ``alpha`` formed in mpmath agrees to 1e-77."""
    assert abs(mittag_leffler(alpha, z) - exact) <= 1e-15 * max(1.0, abs(exact))


def test_mittag_leffler_scalar_input_returns_float():
    for z in (np.float64(-0.5), np.array(-0.5), -0.5, 0):
        assert type(mittag_leffler(0.5, z)) is float
    assert mittag_leffler(0.5, np.array(0.0)) == 1.0


@pytest.mark.parametrize("bad", [math.nan, 50.5, -60.0])
def test_mittag_leffler_array_with_one_bad_element_raises(bad):
    with pytest.raises(DomainError):
        mittag_leffler(0.5, np.array([-1.0, bad, 0.5]))


def test_mittag_leffler_array_raises_instead_of_returning_nan():
    with pytest.raises(AccuracyError):
        mittag_leffler(0.2, np.array([-0.5, -10.0]))


def test_erfc_values():
    assert erfc(0.0) == pytest.approx(1.0, abs=1e-12)
    assert erfc(1.0) == pytest.approx(0.1572992071, abs=1e-10)
    assert erfc(10.0) < 1e-20


@given(x=st.floats(-6.0, 6.0))
def test_erfc_reflection(x):
    # erfc(-x) + erfc(x) = 2
    assert erfc(-x) + erfc(x) == pytest.approx(2.0, abs=1e-10)


# --- quadrature ----------------------------------------------------------


def test_trapezoid_zero_and_affine():
    g = Grid(0.0, 1.0, 10)
    assert trapezoid(SampledFunction(g, np.zeros(11))) == 0.0
    assert trapezoid(SampledFunction(g, g.nodes)) == pytest.approx(0.5, rel=1e-14)


def test_trapezoid_square():
    g = Grid(0.0, 1.0, 1000)
    assert trapezoid(SampledFunction(g, g.nodes**2)) == pytest.approx(1.0 / 3.0, abs=5e-7)


def test_trapezoid_second_order_on_sine():
    errs = []
    for n in (64, 128):
        g = Grid(0.0, 2.0, n)
        errs.append(abs(trapezoid(SampledFunction(g, np.sin(g.nodes))) - (1.0 - math.cos(2.0))))
    assert math.log2(errs[0] / errs[1]) > 1.9


def test_cumulative_trapezoid_endpoints():
    g = Grid(0.0, 1.0, 64)
    f = SampledFunction(g, np.exp(g.nodes))
    cum = cumulative_trapezoid(f)
    assert cum.values[0] == 0.0
    assert cum.values[-1] == pytest.approx(trapezoid(f), rel=1e-14)


# --- product-integration weights ----------------------------------------


@given(mu=st_mu, j=st.integers(1, 32))
def test_singular_weights_zeroth_moment(mu, j):
    g = Grid(0.0, 1.0, 32)
    w = singular_weights(mu, g, j)
    assert w.sum() == pytest.approx(g.nodes[j] ** mu / mu, rel=1e-12)


def test_singular_weights_first_moment():
    # int_0^1 (1-tau)^{-1/2} tau dtau = 4/3, exact for linear integrands
    g = Grid(0.0, 1.0, 256)
    w = singular_weights(0.5, g, 256)
    assert w @ g.nodes == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_singular_weights_empty_at_origin():
    g = Grid(0.0, 1.0, 8)
    assert singular_weights(0.5, g, 0).size == 0


def test_singular_weights_domain():
    g = Grid(0.0, 1.0, 8)
    with pytest.raises(DomainError):
        singular_weights(1.5, g, 4)
    with pytest.raises(InputError):
        singular_weights(0.5, g, 9)


def _row_weights(j, a_coef, b_coef):
    """Unscaled row-``j`` weights straight from ``A`` and ``B``: node 0
    ``A(j) - B(j)``, inner node ``i`` ``A(j - i) - B(j - i) + B(j - i + 1)``,
    node ``j`` ``B(1)``."""
    w = np.empty(j + 1)
    w[j] = b_coef[0]
    w[0] = a_coef[j - 1] - b_coef[j - 1]
    if j >= 2:
        w[1:j] = (a_coef[j - 2::-1] - b_coef[j - 2::-1]) + b_coef[j - 1:0:-1]
    return w


@pytest.mark.parametrize("mu", [0.3, 0.5, 1.0 - 1e-6])
@pytest.mark.parametrize("j", [1, 2, 3, 17, 1024])
def test_singular_weights_match_the_row_formula_bit_for_bit(mu, j):
    """The weights read the operators' lag tables; the direct row formula
    from ``A`` and ``B`` is the oracle."""
    g = Grid(0.0, 1.0, 1024)
    want = _row_weights(j, *_pi_coefficients(mu, j)) * g.h ** mu
    assert np.array_equal(singular_weights(mu, g, j), want)


_EPS = np.finfo(float).eps


def _mp_coefficients(mu, m):
    """``A(m)`` and ``B(m)`` of ``_pi_coefficients`` in 50-digit mpmath,
    with ``mu`` and ``m`` formed in mpmath."""
    with mp.workdps(50):
        mu, m = mp.mpf(mu), mp.mpf(int(m))
        a = (m**mu - (m - 1) ** mu) / mu
        return a, m * a - (m ** (mu + 1) - (m - 1) ** (mu + 1)) / (mu + 1)


def test_lag_coefficients_against_a_50_digit_reference():
    """``A(m)`` is accurate to a few eps relative; ``B(m) = m A(m) - S(m)``
    subtracts two terms near ``m**mu`` to leave about ``m**(mu - 1) / 2``,
    so it loses about ``log10(2m)`` digits.  Over every ``m <= 32768`` this
    code measured ``A`` to 5.0e-16 relative and ``B`` to 6.9e-11 (mu =
    0.3), 3.9e-11 (0.75) and 2.2e-11 (1), at most 10.1 eps m.  At mu = 1
    the tables should be the trapezoid's, ``T1 = T2 = 1/2`` past lag 0,
    and deviate from it by up to 1.09e-11.  The bounds here are 4 eps for
    ``A`` and 16 eps m for ``B``, checked against mpmath on the first 64
    and the last 256 ``m`` (where the worst values lie), and against the
    closed form ``A = 1``, ``B = 1/2`` on every ``m`` at mu = 1.  A stable
    form of ``B`` would tighten both, and the last line, which pins the
    loss at mu = 1, would then fail."""
    count = 32768
    m = np.concatenate((np.arange(1, 65), np.arange(count - 255, count + 1)))
    for mu in (0.3, 0.75):
        a, b = _pi_coefficients(mu, count)
        for k in m:
            want_a, want_b = _mp_coefficients(mu, k)
            assert abs(float((a[k - 1] - want_a) / want_a)) <= 4 * _EPS
            assert abs(float((b[k - 1] - want_b) / want_b)) <= 16 * _EPS * k
    a, b = _pi_coefficients(1.0, count)
    m = np.arange(1, count + 1)
    assert np.all(np.abs(a - 1.0) <= 4 * _EPS)
    loss = np.abs(b - 0.5) / 0.5
    assert np.all(loss <= 16 * _EPS * m)
    assert loss.max() > 1e-11


def test_singular_weights_near_one_recover_trapezoid():
    g = Grid(0.0, 1.0, 1024)
    w = singular_weights(1.0 - 1e-6, g, 1024)
    trap = np.full(1025, g.h)
    trap[0] = trap[-1] = g.h / 2.0
    assert np.abs(w - trap).max() < 1e-8


@pytest.mark.parametrize("mu,j", [(0.3, 5), (0.72, 16)])
def test_singular_weights_piecewise_linear_exactness(mu, j):
    """Weighted sums reproduce the singular integral of a random hat-combination."""
    g = Grid(0.0, 1.0, 16)
    rng = np.random.default_rng(42)
    fvals = rng.standard_normal(j + 1)
    w = singular_weights(mu, g, j)
    tj = g.nodes[j]

    def f_pl(x):
        x = float(x)
        i = min(int(x / g.h), j - 1)
        return fvals[i] + (fvals[i + 1] - fvals[i]) * (x - g.nodes[i]) / g.h

    mp.mp.dps = 30
    exact = mp.quad(
        lambda x: f_pl(x) * (tj - x) ** (mu - 1),
        [mp.mpf(g.nodes[i]) for i in range(j + 1)],
    )
    assert float(w @ fvals) == pytest.approx(float(exact), abs=1e-7)


# --- eigensolver ----------------------------------------------------------


def test_eigen_identity_and_permutation():
    vals, _ = symmetric_eigen(SymmetricMatrix(np.eye(3)))
    assert np.allclose(vals, 1.0)
    vals, vecs = symmetric_eigen(SymmetricMatrix(np.diag([3.0, 1.0, 2.0])))
    assert np.allclose(vals, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]], atol=1e-12)
    vals, vecs = symmetric_eigen(SymmetricMatrix(np.zeros((0, 0))))
    assert vals.shape == (0,) and vecs.shape == (0, 0)


def test_eigen_two_by_two():
    vals, vecs = symmetric_eigen(SymmetricMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
    assert np.allclose(vals, [1.0, 3.0])
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(np.abs(vecs[:, 0]), [s, s], atol=1e-12)
    assert np.allclose(np.abs(vecs[:, 1]), [s, s], atol=1e-12)


def test_symmetric_matrix_rejects_asymmetry():
    with pytest.raises(InputError, match="symmetric"):
        SymmetricMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(InputError):
        SymmetricMatrix(np.ones((2, 3)))


def test_eigen_dimension_cap():
    with pytest.raises(InputError):
        symmetric_eigen(SymmetricMatrix(np.eye(201)))


@settings(max_examples=25, deadline=None)
@given(dim=st_dim, seed=st_seed)
def test_eigen_reconstruction_and_orthonormality(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim))
    a = (raw + raw.T) / 2.0
    vals, vecs = symmetric_eigen(SymmetricMatrix(a))
    scale = np.linalg.norm(a)
    assert np.all(np.diff(vals) >= -1e-12 * (1.0 + scale))
    assert np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - a) <= 1e-10 * max(scale, 1e-3)
    assert np.linalg.norm(vecs.T @ vecs - np.eye(dim)) <= 1e-10
    for k in range(dim):
        assert np.linalg.norm(a @ vecs[:, k] - vals[k] * vecs[:, k]) <= 1e-10 * max(scale, 1e-3)
    # sign rule: each column's entry of largest magnitude is positive
    assert np.all(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(dim)] > 0.0)


# --- interior windows -----------------------------------------------------


def test_interior_slice_window():
    sl = interior_slice(100)
    idx = np.arange(101)[sl]
    assert idx[0] == 10 and idx[-1] == 90


def test_interior_sup_ignores_edges():
    v = np.zeros(101)
    v[0] = 50.0
    v[50] = 3.0
    assert interior_sup(v) == 3.0
