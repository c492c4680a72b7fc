import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracvar
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
from fracvar.foundation import _lag_tables, _mittag_leffler_mp

st_mu = st.floats(0.05, 0.95)
st_dim = st.integers(2, 12)
st_seed = st.integers(0, 2**32 - 1)


# --- grids and samples ---------------------------------------------------


def test_grid_nodes():
    g = Grid(0.0, 1.0, 10)
    assert len(g.nodes) == 11
    assert np.allclose(np.diff(g.nodes), g.h)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0


@pytest.mark.parametrize("a,b,n", [
    (1.0, 0.0, 4), (0.0, 0.0, 4), (math.nan, 1.0, 4), (0.0, 1.0, 1),
    (0.0, 1.0, 4.0), (0.0, 1.0, np.float64(8)), (0.0, 1.0, "8"), (0.0, 1.0, None),
])
def test_grid_rejects_bad_input(a, b, n):
    with pytest.raises(InputError):
        Grid(a, b, n)


def test_grid_takes_a_numpy_integer_size():
    assert np.array_equal(Grid(0.0, 1.0, np.int64(8)).nodes, Grid(0.0, 1.0, 8).nodes)


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
    compensated series one element at a time with ``math.exp``, leaving it
    where the absolute sum passes 10 (``z < 0``) or 1e3 (``z > 0``).
    Returns the value and whether the element left the series.  A ``z > 0``
    element that leaves is summed in 30-digit mpmath; a ``z < 0`` one goes
    to the contour, which the 60-digit references check, and its value here
    is None."""
    if z == 0.0:
        return 1.0, False
    log_az = math.log(abs(z))
    cut = 10.0 if z < 0 else 1e3
    s, comp, abs_sum, prev_lt = 1.0, 0.0, 1.0, 0.0
    for k in range(1, 10000):
        lt = k * log_az - math.lgamma(alpha * k + 1.0)
        mag = math.exp(lt)
        term = mag if z > 0 or k % 2 == 0 else -mag
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        abs_sum += mag
        if abs_sum > cut:
            break
        if lt < prev_lt and mag < 1e-16 * (1.0 + abs(s)):
            return s, False
        prev_lt = lt
    else:
        raise AccuracyError("no convergence")
    if z < 0:
        return None, True
    with mp.workdps(30):
        am, zm = mp.mpf(alpha), mp.mpf(z)
        total = term = mp.mpf(1)
        tol = mp.mpf(10) ** -22
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
        if not up:
            assert abs(value - want) <= 4.4e-16 * max(1.0, abs(want))
        elif zi > 0:
            assert value == want
        exact = _mp_series(0.5, float(zi))
        assert abs(value - exact) <= 4.4e-16 * max(1.0, abs(exact))
    # both z = -10 leave the series for the contour, z = 10 for mpmath
    assert escalated == 3


@pytest.mark.parametrize("alpha,z", [(0.5, 10.0), (0.7, 5.0), (0.3, 3.0)])
def test_mittag_leffler_escalated_elements_match_the_scalar_loop(alpha, z):
    """A ``z > 0`` element that leaves the series gets the oracle's bits."""
    want, up = _scalar_mittag_leffler(alpha, z)
    assert up
    assert mittag_leffler(alpha, np.array([z, -0.3]))[0] == want
    assert mittag_leffler(alpha, z) == want


def _count_gamma_calls(monkeypatch):
    """The arguments of every later ``mpmath.gamma`` call, as floats."""
    calls, real = [], mp.gamma
    monkeypatch.setattr(mp, "gamma", lambda x: calls.append(float(x)) or real(x))
    return calls


def test_mittag_leffler_mp_makes_one_gamma_call_per_term(monkeypatch):
    """Each term reuses the previous term's ``Gamma(alpha (k - 1) + 1)``: the
    arguments ``alpha k + 1`` come once each, in order."""
    want = _scalar_mittag_leffler(0.5, 10.0)[0]
    calls = _count_gamma_calls(monkeypatch)
    assert _mittag_leffler_mp(0.5, 10.0) == want
    assert len(calls) > 100
    assert calls == [0.5 * k + 1 for k in range(1, len(calls) + 1)]


@pytest.mark.parametrize("alpha,z", [(0.1, 2.0), (0.5, 27.0)])
def test_mittag_leffler_out_of_range_raises_before_the_series(monkeypatch, alpha, z):
    """The largest term alone leaves the double range, so no term is summed."""
    calls = _count_gamma_calls(monkeypatch)
    with pytest.raises(AccuracyError, match="double-precision range"):
        mittag_leffler(alpha, z)
    assert calls == []


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


#: z of the reference grid, from the series (E_alpha(|z|) below 10) across
#: the cut to the contour
_ML_GRID_Z = (
    -1e-8, -0.1, -0.5, -0.9, -1.0, -1.5, -2.0, -3.0, -5.0, -10.0, -20.0, -35.0, -50.0,
)

#: E_alpha(z) on ``_ML_GRID_Z``.  Each value is the real-axis integral, at
#: ``x = -z``,
#:
#:     sin(alpha pi) / (alpha pi)
#:         * int_0^inf exp(-w**(1/alpha)) x / (w**2 + 2 x w cos(alpha pi) + x**2) dw
#:
#: by mpmath ``quad`` at 60 digits, with ``alpha`` formed as
#: ``mpmath.mpf(alpha)`` (``exp(z)`` at ``alpha = 1``).  The series summed at
#: 75 digits or more (98 points) or mpmath's Talbot inversion at 40 digits
#: (the 19 others, where the series is out of reach) agrees to 1e-30.
_ML_GRID = {
    0.01: (
        0.9999999899429348161243134, 0.908618308038274070140784, 0.6653888206397369493010274,
        0.5248776031089972704696499, 0.4985569555884718086233682, 0.3986115296044480455282103,
        0.3320457701830187372222118, 0.2489115705914662875263946, 0.1658589061670683220865275,
        0.09042761998207021816628357, 0.04735458200731495204036146, 0.02762022202547468956029392,
        0.01949567216466139398993864,
    ),
    0.1: (
        0.9999999894886300477946627, 0.9047657422574315107958986, 0.654324460288001928445878,
        0.5120067796921973484659585, 0.4855644643110821015914755, 0.3858261333637836930429553,
        0.3200153359597273986075796, 0.2385593497825385575351538, 0.158042382358451827910139,
        0.08569695701065468509600699, 0.0447338640074509598300814, 0.02605289294553137233133984,
        0.01837805701221919541039178,
    ),
    0.3: (
        0.9999999888575750264444757, 0.8988115365027225480996672, 0.6326490059435990224625516,
        0.4838415224523985701700379, 0.456594408329690670619513, 0.3553816565736031467526985,
        0.2902322261678753550400761, 0.2118026331964357820337665, 0.1370808690202706388897539,
        0.072649729072772086176824, 0.03740622621388445305763288, 0.02164548919000462917842922,
        0.01522820150181469523425191,
    ),
    0.5: (
        0.9999999887162084290448733, 0.8964569799691266366633883, 0.6156903441929258748707934,
        0.456531651323117032523018, 0.4275835761558070044107503, 0.3215854164543175023543226,
        0.2553956763105057438650886, 0.1790011511813899504192948, 0.1107046377330686263702121,
        0.05614099274382258585751739, 0.02817434874105131931864915, 0.01611313095681597870371949,
        0.01128153626532377250018381,
    ),
    0.6: (
        0.9999999888082505500591449, 0.8965940059690092658150307, 0.6094758219562000216178401,
        0.4435568855564216711270163, 0.4133273409431063005184706, 0.3032148361988204025324615,
        0.2355710311118249688494649, 0.1597034802650912206911418, 0.09511784643875462034824078,
        0.04658965442680428096204195, 0.02294656427325837639629382, 0.01301661169217790864672696,
        0.0090837447731034546370664,
    ),
    0.7: (
        0.9999999889945260252676634, 0.8975611269313867706456217, 0.6051475920595642727129876,
        0.4314643088640021817830059, 0.399611978115599390269007, 0.2838409696217371666240632,
        0.2137867270152972753355373, 0.1378971096650270821648007, 0.07756935776476980998110868,
        0.03617326554230915814871462, 0.01739569829160397999014497, 0.009772087919762656484794634,
        0.006793665670383093871800617,
    ),
    0.9: (
        0.9999999896024587161720396, 0.9017569424498593987567888, 0.6034054986958609679977567,
        0.4122109926906103535579898, 0.3760660214246418790237564, 0.2430926784792172556027476,
        0.1635283000169300427791719, 0.08388835403377326206749091, 0.03443132480409841832341993,
        0.01282060605110209993827513, 0.005749507816109112583640258, 0.003155607949111655737440137,
        0.002175353076856976049829736,
    ),
    0.99: (
        0.999999989957956624502431, 0.9045035881236984081523552, 0.6060899526314164779763533,
        0.4069776915745043698667784, 0.3685483180603396169011751, 0.2250632270851285819000342,
        0.1382172806980640283949662, 0.0534518675061996268493938, 0.009768092139174128170771058,
        0.001347863806083208440417734, 0.0005616234836749529496326549, 0.0003050619054788978493663963,
        0.0002095764990060077155038202,
    ),
    1.0: (
        0.9999999900000000499999996, 0.9048374180359595681413924, 0.6065306597126334236037995,
        0.4065696597405991028557943, 0.3678794411714423215955238, 0.2231301601484298289332805,
        0.1353352832366126918939995, 0.04978706836786394297934242, 0.006737946999085467096636048,
        4.539992976248485153559152e-5, 2.06115362243855782796594e-9, 6.305116760146989385639021e-16,
        1.928749847963917783017343e-22,
    ),
}


@pytest.mark.parametrize("alpha", sorted(_ML_GRID))
def test_mittag_leffler_at_negative_z_matches_60_digit_references(alpha):
    got = mittag_leffler(alpha, np.array(_ML_GRID_Z))
    exact = np.array(_ML_GRID[alpha])
    assert np.all(np.abs(got - exact) <= 3e-15 * np.maximum(1.0, np.abs(exact)))


def test_mittag_leffler_scalar_input_returns_float():
    for z in (np.float64(-0.5), np.array(-0.5), -0.5, 0):
        assert type(mittag_leffler(0.5, z)) is float
    assert mittag_leffler(0.5, np.array(0.0)) == 1.0


@pytest.mark.parametrize("bad", [math.nan, 50.5, -60.0])
def test_mittag_leffler_array_with_one_bad_element_raises(bad):
    with pytest.raises(DomainError):
        mittag_leffler(0.5, np.array([-1.0, bad, 0.5]))


def test_mittag_leffler_array_raises_instead_of_returning_nan():
    with pytest.raises(AccuracyError, match="exceeds the double-precision range"):
        mittag_leffler(0.5, np.array([-0.5, 27.0]))


@pytest.mark.parametrize("alpha,z", [(0.3, 10.0), (0.5, 30.0), (0.5, 50.0)])
def test_mittag_leffler_beyond_the_double_range_says_so(alpha, z):
    """Each ``E`` here is above 1e308; the mpmath sum stops as it passes."""
    with pytest.raises(AccuracyError, match="exceeds the double-precision range"):
        mittag_leffler(alpha, z)


def test_mittag_leffler_at_negative_z_needs_no_mpmath():
    """The contour is float64: a fresh interpreter evaluates ``z`` over
    ``[-50, 0]`` without importing mpmath, and every value is finite."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from fracvar import mittag_leffler\n"
        "z = np.linspace(-50.0, 0.0, 1001)\n"
        "for alpha in (0.1, 0.5, 0.9):\n"
        "    assert np.isfinite(mittag_leffler(alpha, z)).all()\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    src_dir = os.path.dirname(os.path.dirname(fracvar.__file__))
    path = os.pathsep.join(filter(None, (src_dir, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


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
    for bad in (9, -1, 2.5, True):
        with pytest.raises(InputError, match="node index"):
            singular_weights(0.5, g, bad)
    assert np.array_equal(singular_weights(0.5, g, np.int64(4)), singular_weights(0.5, g, 4))


def _row_weights(j, t1, t2):
    """Unscaled row-``j`` weights straight from the lag tables: node 0
    ``T1[j]``, inner node ``i`` ``T1[j - i] + T2[j - i]``, node ``j``
    ``T2[0]``."""
    w = np.empty(j + 1)
    w[j] = t2[0]
    w[0] = t1[j]
    w[1:j] = t1[j - 1:0:-1] + t2[j - 1:0:-1]
    return w


@pytest.mark.parametrize("mu", [0.3, 0.5, 1.0 - 1e-6])
@pytest.mark.parametrize("j", [1, 2, 3, 17, 1024])
def test_singular_weights_match_the_row_formula_bit_for_bit(mu, j):
    """The weights read the operators' lag tables; the direct row formula
    from ``T1`` and ``T2`` is the oracle."""
    g = Grid(0.0, 1.0, 1024)
    want = _row_weights(j, *_lag_tables(mu, j + 1)) * g.h ** mu
    assert np.array_equal(singular_weights(mu, g, j), want)


_EPS = np.finfo(float).eps


def _mp_tables(mu, k):
    """``T1[k] = int_0^1 (1 - s) (k - s)**(mu - 1) ds`` (``k >= 1``) and
    ``T2[k] = int_0^1 (1 - s) (k + s)**(mu - 1) ds`` in closed form, in
    50-digit mpmath with ``mu`` and ``k`` formed in mpmath.  The closed
    forms cancel about ``log10(k) + 1`` digits, which leaves over 40."""
    with mp.workdps(50):
        mu, k = mp.mpf(mu), mp.mpf(int(k))
        t1 = ((k ** (mu + 1) - (k - 1) ** (mu + 1)) / (mu + 1)
              - (k - 1) * (k**mu - (k - 1) ** mu) / mu)
        t2 = ((k + 1) * ((k + 1) ** mu - k**mu) / mu
              - ((k + 1) ** (mu + 1) - k ** (mu + 1)) / (mu + 1))
        return t1, t2


def test_lag_coefficients_against_a_50_digit_reference():
    """Every term of the series ``_lag_tables`` sums is at least 0, so no
    digit cancels.  Against 50-digit mpmath, on the first 64 lags, the
    last 256 up to 32768 and every ``2**k +- 1`` below, both tables are
    within 4 eps relative at six ``mu`` (this code measured 1.5 eps); at
    ``mu = 1`` they are the trapezoid's exactly, ``T1[0] = 0`` and every
    other entry 1/2."""
    count = 32769
    lags = np.unique(np.concatenate((
        np.arange(64), np.arange(count - 256, count),
        [2**e + d for e in range(1, 16) for d in (-1, 1) if 2**e + d < count],
    )))
    for mu in (0.05, 0.3, 0.5, 0.75, 0.9, 1.0):
        t1, t2 = _lag_tables(mu, count)
        for k in lags:
            want1, want2 = _mp_tables(mu, k)
            if k >= 1:
                assert abs(float((t1[k] - want1) / want1)) <= 4 * _EPS
            assert abs(float((t2[k] - want2) / want2)) <= 4 * _EPS
    t1, t2 = _lag_tables(1.0, count)
    assert t1[0] == 0.0 and np.all(t1[1:] == 0.5) and np.all(t2 == 0.5)


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
