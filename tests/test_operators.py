import functools
import hashlib
import math
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
import hypothesis as hyp
import hypothesis.strategies as some

from fracvar import (
    ClassicalOp,
    ConfigurationError,
    CornerExtrapolationWarning,
    DifferenceKernel,
    DomainError,
    GeneralKernel,
    Grid,
    HadamardKernel,
    InputError,
    Lagrangian,
    NumericError,
    OperatorBinding,
    ParameterSet,
    PowerLawKernel,
    SampledFunction,
    VariationalProblem,
    a_apply,
    b_apply,
    boundedness_constant,
    classical,
    dual,
    el_residual,
    gamma,
    interior_slice,
    k_apply,
    trapezoid,
    verify_ibp,
    verify_semigroup,
)
from fracvar import operators
from fracvar.experiments import counterexample_kernel
from fracvar.operators import (
    _CHEB,
    _CORNER_FIT,
    _CORNER_PAD,
    _LEAF,
    Kernel,
    _apply_left,
    _bapply_left,
    _classical_rows,
    _far_factors,
    _far_interpolants,
    _mend_row,
    _two_sided,
)

EXP_KERNEL = DifferenceKernel(lambda s: math.exp(-s))
LEFT = ParameterSet(0.0, 1.0, 1.0, 0.0)


def sample(fn, grid):
    return SampledFunction(grid, np.asarray([fn(t) for t in grid.nodes], dtype=float))


# --- parameter sets -------------------------------------------------------


@pytest.mark.parametrize(
    "p,expected",
    [
        ((0.0, 1.0, 1.0, 0.0), (0.0, 1.0, 0.0, 1.0)),
        ((0.0, 1.0, 2.0, -3.0), (0.0, 1.0, -3.0, 2.0)),
    ],
)
def test_dual_swaps_side_weights(p, expected):
    q = dual(ParameterSet(*p))
    assert (q.a, q.b, q.lam, q.mu) == expected


@pytest.mark.filterwarnings("ignore:both side weights")
@hyp.given(some.floats(-5, 5), some.floats(-5, 5))
def test_dual_is_involution(lam, mu):
    p = ParameterSet(0.0, 2.0, lam, mu)
    assert dual(dual(p)) == p


def test_parameter_set_validation():
    with pytest.raises(InputError):
        ParameterSet(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(InputError):
        ParameterSet(0.0, math.inf, 1.0, 0.0)
    with pytest.warns(UserWarning, match="trivial") as record:
        ParameterSet(0.0, 1.0, 0.0, 0.0)
    # the warning points at the caller, not into the library
    assert record[0].filename == __file__


def test_both_weights_zero_apply_as_zeros():
    """With both side weights zero each operator returns zeros and builds no rule."""
    g = Grid(0.0, 1.0, 64)
    f = SampledFunction(g, np.sin(g.nodes))
    with pytest.warns(UserWarning, match="trivial"):
        p = ParameterSet(0.0, 1.0, 0.0, 0.0)
    for apply in (k_apply, a_apply, b_apply):
        assert np.array_equal(apply(p, EXP_KERNEL, f).values, np.zeros(65))


def test_binding_methods_match_the_functions():
    """``OperatorBinding.a`` is ``a_apply`` and ``.dual`` swaps the side weights."""
    g = Grid(0.0, 1.0, 128)
    f = SampledFunction(g, g.nodes * (1.0 - g.nodes))
    p = ParameterSet(0.0, 1.0, 0.7, -0.4)
    binding = OperatorBinding(p, EXP_KERNEL)
    assert np.array_equal(binding.a(f).values, a_apply(p, EXP_KERNEL, f).values)
    assert binding.dual() == OperatorBinding(dual(p), EXP_KERNEL)
    assert np.array_equal(binding.dual().k(f).values, k_apply(dual(p), EXP_KERNEL, f).values)


# --- kernel application ---------------------------------------------------


def test_k_apply_zero_function():
    g = Grid(0.0, 1.0, 64)
    out = k_apply(LEFT, EXP_KERNEL, SampledFunction(g, np.zeros(65)))
    assert np.array_equal(out.values, np.zeros(65))


def test_k_apply_volterra_solution():
    # exp-difference kernel maps -1-t onto -t
    g = Grid(0.0, 1.0, 512)
    out = k_apply(LEFT, EXP_KERNEL, SampledFunction(g, -1.0 - g.nodes))
    assert np.abs(out.values + g.nodes).max() < 1e-6


def test_k_apply_power_kernel_endpoint_value():
    g = Grid(0.0, 1.0, 256)
    out = k_apply(LEFT, PowerLawKernel(0.5, "integral"), SampledFunction(g, np.ones(257)))
    assert out.values[-1] == pytest.approx(1.0 / gamma(1.5), abs=1e-6)


@hyp.settings(max_examples=20, deadline=None)
@hyp.given(
    c1=some.floats(-2, 2),
    c2=some.floats(-2, 2),
    seed=some.integers(0, 2**31),
)
def test_k_apply_linearity(c1, c2, seed):
    g = Grid(0.0, 1.0, 128)
    rng = np.random.default_rng(seed)
    f = SampledFunction(g, rng.uniform(-1, 1, 129))
    h = SampledFunction(g, rng.uniform(-1, 1, 129))
    combo = SampledFunction(g, c1 * f.values + c2 * h.values)
    lhs = k_apply(LEFT, EXP_KERNEL, combo).values
    rhs = c1 * k_apply(LEFT, EXP_KERNEL, f).values + c2 * k_apply(LEFT, EXP_KERNEL, h).values
    assert np.abs(lhs - rhs).max() < 1e-12


def test_k_apply_interval_mismatch():
    g = Grid(0.0, 2.0, 64)
    with pytest.raises(InputError, match="interval"):
        k_apply(LEFT, EXP_KERNEL, SampledFunction(g, np.zeros(65)))


def test_k_apply_l2_bound():
    """Two-sided exp kernel stays below the Schur-type norm bound."""
    p = ParameterSet(0.0, 1.0, 0.7, -0.4)
    g = Grid(0.0, 1.0, 512)
    knorm = math.sqrt(0.5 - (1.0 - math.exp(-2.0)) / 4.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = SampledFunction(g, np.polyval(rng.uniform(-1, 1, 5), g.nodes))
        lhs = math.sqrt(trapezoid(SampledFunction(g, k_apply(p, EXP_KERNEL, f).values ** 2)))
        fnorm = math.sqrt(trapezoid(SampledFunction(g, f.values**2)))
        assert lhs <= (abs(p.lam) + abs(p.mu)) * knorm * fnorm + 1e-12


def test_nan_kernel_reports_numeric_error():
    g = Grid(0.0, 1.0, 32)
    bad = GeneralKernel(lambda t, tau: math.nan, 0.0)
    with pytest.raises(NumericError):
        k_apply(LEFT, bad, SampledFunction(g, np.ones(33)))


def test_bounded_kernel_corner_is_mended_with_warning():
    p, g = ParameterSet(0.0, 1.0, 1.0, -1.0), Grid(0.0, 1.0, 64)
    rational = GeneralKernel(lambda x, y: (x * x - y * y) / (x * x + y * y) ** 2, 0.0)
    with pytest.warns(CornerExtrapolationWarning) as record:
        out = k_apply(p, rational, SampledFunction(g, np.ones(65)))
    assert np.isfinite(out.values).all()
    # the warning points at the caller, not into the library, however deep
    # the call goes
    assert record[0].filename == __file__
    with pytest.warns(CornerExtrapolationWarning) as record:
        a_apply(p, rational, SampledFunction(g, np.ones(65)))
    assert [w.filename for w in record] == [__file__]
    problem = VariationalProblem(Lagrangian(lambda x1, x2, x3, x4, t: x2 * x2 + x4 * x4),
                                 OperatorBinding(p, rational))
    with pytest.warns(CornerExtrapolationWarning) as record:
        el_residual(problem, SampledFunction(g, g.nodes * (1.0 - g.nodes)))
    assert len(record) == 3
    assert {w.filename for w in record} == {__file__}
    # a stack patches every row and warns once per call
    rows = np.random.default_rng(7).uniform(-1, 1, (5, 65))
    for _, left_rule in STACKED_RULES:
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            _two_sided(p, rational, g, rows, left_rule)
        assert [w.category for w in record] == [CornerExtrapolationWarning]


@pytest.mark.parametrize("n", [2, 4, 6])
def test_corner_patch_on_a_grid_too_small_for_its_fit_raises(n):
    """The left corner patches nodes 0..2 and fits on nodes 3..8, which a
    grid of n < 8 does not hold."""
    g = Grid(0.0, 1.0, n)
    with pytest.raises(NumericError, match="left corner"):
        k_apply(ParameterSet(0.0, 1.0, 1.0, -1.0), counterexample_kernel(), SampledFunction(g, np.ones(n + 1)))


def test_corner_fit_window_that_reaches_the_other_corner_raises():
    """At n = 10 the left fit window, nodes 3..8, reaches node 8, which the
    right corner patches; nothing is written."""
    values = np.arange(11.0)[None]
    with pytest.raises(NumericError, match="left and right corner fit needs 6 clean nodes; .* leaves 5"):
        operators._patch_corners(values, {0, 10}, 10)
    assert values.tolist() == [list(range(11))]


@pytest.mark.parametrize("n,digest", [
    (8, "1049280ba24214714aedd69022c962392973248593fbda8997c2848801b9cac8"),
    (16, "eb6a25e867efadb31a001f0382d0fba3534ff370a5316d9c5086c91c55279e96"),
], ids=["8", "16"])
def test_smallest_patched_grids_keep_their_bits(n, digest):
    """The SHA-256 of the patched counterexample output, taken with the
    lag tables that hold the trapezoid's 1/2 exactly."""
    g = Grid(0.0, 1.0, n)
    with pytest.warns(CornerExtrapolationWarning):
        out = k_apply(ParameterSet(0.0, 1.0, 1.0, -1.0), counterexample_kernel(), SampledFunction(g, np.ones(n + 1)))
    assert hashlib.sha256(out.values.tobytes()).hexdigest() == digest


# --- lag tables of the oracles ---------------------------------------------


@functools.cache
def _oracle_tables(mu, count):
    """``T1[k] = int_0^1 (1 - s) (k - s)**(mu - 1) ds`` and ``T2[k] =
    int_0^1 (1 - s) (k + s)**(mu - 1) ds`` for ``k < count``, formed apart
    from ``_lag_tables``: 20-point Gauss-Legendre where the integrand is
    smooth on [0, 1] (its singularity at least 1 away, so the rule is
    exact to round-off) and the closed forms ``T1[0] = 0``,
    ``T1[1] = 1/(mu + 1)`` and ``T2[0] = 1/(mu (mu + 1))``.  Built once
    per ``(mu, count)`` and read-only."""
    x, w = np.polynomial.legendre.leggauss(20)
    s, w = (x + 1.0) / 2.0, w * (1.0 - x) / 4.0  # the nodes on [0, 1]; w carries 1 - s
    k = np.arange(count)[:, None]
    with np.errstate(invalid="ignore"):  # T1 at lag 0, set below
        t1 = (k - s) ** (mu - 1.0) @ w
    t2 = (k + s) ** (mu - 1.0) @ w
    t1[:2] = 0.0, 1.0 / (mu + 1.0)
    t2[0] = 1.0 / (mu * (mu + 1.0))
    for table in (t1, t2):
        table.flags.writeable = False
    return t1, t2


# --- FFT convolution against the direct oracle -----------------------------
#
# The two functions below are the difference-kernel branches of the
# left-sided engines computed with the direct O(n**2) ``np.convolve``; they
# are the reference the FFT path is checked against.  Each returns the
# left-sided values and the scale ``h**power * max|x| * sum|y|`` of the
# convolution of ``x`` against the weights ``y`` that it computes.  The FFT
# error is absolute, so the bound is 1e-14 times that scale.


def _direct_tables(kernel, grid):
    mu = 1.0 - kernel.singularity_exponent
    return mu, *_oracle_tables(mu, grid.n + 1), kernel.cofactor(grid.nodes, grid.a)


def _direct_k_left(kernel, grid, fv):
    n, h = grid.n, grid.h
    mu, t1, t2, prof = _direct_tables(kernel, grid)
    wp = (t1 + t2) * prof
    out = h**mu * (np.convolve(fv, wp)[: n + 1] - t2 * prof * fv[0])
    out[0] = 0.0
    return out, h**mu * np.abs(fv).max() * np.abs(wp).sum()


def _direct_b_left(kernel, grid, fv):
    n, h = grid.n, grid.h
    df = np.diff(fv)
    mu, t1, t2, prof = _direct_tables(kernel, grid)
    cell = prof[1:] * t1[1:] + prof[:-1] * t2[:-1]
    out = np.zeros(n + 1)
    out[1:] = h ** (mu - 1.0) * np.convolve(df, cell)[:n]
    return out, h ** (mu - 1.0) * np.abs(df).max() * np.abs(cell).sum()


def _direct_two_sided(p, kernel, f, left_rule, right_sign):
    """Oracle values and error bound; difference kernels reflect onto themselves."""
    left, scale = left_rule(kernel, f.grid, f.values)
    right, _ = left_rule(kernel, f.grid, f.values[::-1])
    out = p.lam * left + right_sign * p.mu * right[::-1]
    return out, 1e-14 * (abs(p.lam) + abs(p.mu)) * scale


difference_kernels = some.one_of(
    some.builds(
        PowerLawKernel,
        some.floats(1e-3, 1.0 - 1e-3),
        some.sampled_from(["integral", "derivative"]),
    ),
    some.just(EXP_KERNEL),
)
side_weights = some.one_of(some.just(0.0), some.floats(-3.0, 3.0).filter(lambda w: abs(w) >= 1e-3))


@hyp.settings(max_examples=40, deadline=None)
@hyp.given(
    kernel=difference_kernels,
    n=some.integers(32, 4096),
    lam=side_weights,
    mu=side_weights,
    seed=some.integers(0, 2**31),
)
def test_fft_convolution_matches_direct_oracle(kernel, n, lam, mu, seed):
    hyp.assume(lam != 0.0 or mu != 0.0)
    p = ParameterSet(0.0, 1.0, lam, mu)
    g = Grid(0.0, 1.0, n)
    f = SampledFunction(g, np.random.default_rng(seed).uniform(-1, 1, n + 1))

    ref, bound = _direct_two_sided(p, kernel, f, _direct_k_left, 1.0)
    assert np.abs(k_apply(p, kernel, f).values - ref).max() <= bound

    # a_apply differentiates k_apply: np.gradient and the endpoint
    # continuation amplify an absolute error by at most 4 / h
    d = np.gradient(ref, g.h, edge_order=2)
    if lam != 0.0:
        d[0] = 2.0 * d[1] - d[2]
    if mu != 0.0:
        d[-1] = 2.0 * d[-2] - d[-3]
    assert np.abs(a_apply(p, kernel, f).values - d).max() <= 4.0 / g.h * bound

    ref, bound = _direct_two_sided(p, kernel, f, _direct_b_left, -1.0)
    assert np.abs(b_apply(p, kernel, f).values - ref).max() <= bound


def _once_per_row(left_rule):
    """``left_rule`` that computes each distinct row once, so that several
    side weights share one direct convolution per side."""
    memo = {}

    def rule(kernel, grid, fv):
        key = fv.tobytes()
        if key not in memo:
            memo[key] = left_rule(kernel, grid, fv)
        return memo[key]

    return rule


@pytest.mark.parametrize(
    "n, kernel",
    [(32, EXP_KERNEL), (1013, PowerLawKernel(0.4, "derivative")),
     (1024, PowerLawKernel(0.6, "integral")), (1025, EXP_KERNEL), (3072, EXP_KERNEL),
     (4096, PowerLawKernel(0.3, "derivative")), (4097, PowerLawKernel(0.6, "integral")),
     (32768, EXP_KERNEL)],
    ids=["32", "1013", "1024", "1025", "3072", "4096", "4097", "32768"],
)
def test_fft_convolution_matches_direct_oracle_at_the_wrap_boundary(n, kernel):
    """The transforms are the shortest 5-smooth lengths the kept nodes
    allow, so a wrapped term lands on the first node that may take one.
    At n = 2**k and n = 3 * 2**k, K's 2n-point transform wraps exactly
    into node 0, which its rule zeroes.  At n = 1013, B's 2n - 1 linear
    outputs fill its transform of 2025 = 3**4 * 5**2 points, an odd
    length, and B keeps its first output (node 1).  At n = 2**k + 1 both
    transforms are 5-smooth lengths far below the next power of two.
    Left, right and two-sided weights meet the oracle's bound."""
    g = Grid(0.0, 1.0, n)
    f = SampledFunction(g, np.random.default_rng(n).uniform(-1, 1, n + 1))
    for apply, left_rule, sign in ((k_apply, _direct_k_left, 1.0), (b_apply, _direct_b_left, -1.0)):
        left_rule = _once_per_row(left_rule)
        for lam, mu in ((1.0, 0.0), (0.0, -1.7), (0.8, 1.9)):
            p = ParameterSet(0.0, 1.0, lam, mu)
            ref, bound = _direct_two_sided(p, kernel, f, left_rule, sign)
            assert np.abs(apply(p, kernel, f).values - ref).max() <= bound


def _record_rfft_lengths(monkeypatch):
    """List that collects the length of every ``np.fft.rfft`` call."""
    lengths = []
    rfft = np.fft.rfft

    def recording(a, n=None, *args, **kwargs):
        lengths.append(n)
        return rfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recording)
    return lengths


def test_difference_rules_transform_twice_the_grid_on_a_power_of_two(monkeypatch):
    """Work count: at n = 4096 both difference rules convolve by real FFTs
    of 8192 points, the smallest 5-smooth length past the 8192 - 1 linear
    outputs of B and the 8192 + 1 of K, of which K throws node 0 away."""
    lengths = _record_rfft_lengths(monkeypatch)
    p, g = ParameterSet(0.0, 1.0, 0.8, -1.3), Grid(0.0, 1.0, 4096)
    f = SampledFunction(g, np.cos(3.0 * g.nodes))
    for apply in (k_apply, b_apply):
        lengths.clear()
        apply(p, EXP_KERNEL, f)
        assert lengths and max(lengths) <= 8192


def _is_five_smooth(m):
    for prime in (2, 3, 5):
        while m % prime == 0:
            m //= prime
    return m == 1


def test_difference_rules_transform_a_five_smooth_length_past_a_power_of_two(monkeypatch):
    """Work count: at n = 4097, K needs 2n = 8194 points and B 2n - 1 =
    8193.  Both transform the smallest 5-smooth length at or above that,
    8640 = 2**6 * 3**3 * 5, where the smallest power of two is 16384."""
    lengths = _record_rfft_lengths(monkeypatch)
    p, g = ParameterSet(0.0, 1.0, 0.8, -1.3), Grid(0.0, 1.0, 4097)
    f = SampledFunction(g, np.cos(3.0 * g.nodes))
    for apply, need in ((k_apply, 8194), (b_apply, 8193)):
        lengths.clear()
        apply(p, EXP_KERNEL, f)
        shortest = next(m for m in range(need, 2 * need) if _is_five_smooth(m))
        assert shortest == 8640 and set(lengths) == {shortest}


def test_power_law_integral_of_a_constant_meets_its_closed_form_to_round_off():
    """Two-sided power-law K(nu, "integral") of a constant ``c`` at n = 32 is
    ``c (lam (t - a)**nu + mu (b - t)**nu) / Gamma(nu + 1)``.  The rule
    integrates piecewise-linear data exactly, so only round-off remains.
    Its bound is the direct oracle's, 1e-14 times the convolution's scale
    ``(|lam| + |mu|) h**nu max|f| sum|weights|``: with positive weights and
    a constant row that scale is the largest value the two sides reach,
    ``S = |c| (|lam| + |mu|) (b - a)**nu / Gamma(nu + 1)``, up to a term of
    order ``S / n``.  1e-14 is 45 eps, which leaves room for the log2(64)
    growth of the FFT's round-off (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 24.1) and a few eps from the
    weight tables, ``h**nu`` and the Gamma factor; the cases below reach
    4 eps S."""
    for a, b in ((0.0, 1.0), (0.5, 2.0), (-1.0, 3.0)):
        g = Grid(a, b, 32)
        for nu in (0.001, 0.3, 0.7, 0.999):
            for lam, mu in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.4), (-2.5, 1.5)):
                for c in (3.0, -0.25):
                    out = k_apply(ParameterSet(a, b, lam, mu), PowerLawKernel(nu, "integral"),
                                  SampledFunction(g, np.full(33, c))).values
                    want = c * (lam * (g.nodes - a) ** nu + mu * (b - g.nodes) ** nu) / gamma(nu + 1.0)
                    scale = abs(c) * (abs(lam) + abs(mu)) * (b - a) ** nu / gamma(nu + 1.0)
                    assert np.abs(out - want).max() <= 1e-14 * scale


# --- hierarchical engine against the row-by-row oracle ---------------------
#
# The functions below are the non-difference branches of the left-sided
# engines as one direct O(n**2) sum over output nodes, a block of full
# cofactor rows at a time, without the engine's ``_lag_tables``, FFT or
# far-block approximation; they are the reference the hierarchical engine
# is checked against.  Both rules are sums
#
#     h**e * sum_i c_ji (T1[j-i] x1_i + T2[j-i] x2_i)
#
# over one cofactor row: K with ``x1 = f``, ``x2 = f`` without node 0 and
# ``e = mu``; B with the cell derivatives ``df``, ``x1 = (df, 0)``,
# ``x2 = (0, df)`` and ``e = mu - 1``, where ``mu = 1 - s``.  So one pass
# over the cofactor triangle serves both.  The engine sums in another order
# and approximates far blocks to 1e-13, so each node must agree to 1e-12 of
# its row's absolute sum
#
#     R_j = h**e * sum_i |c_ji| (|T1[j-i] x1_i| + |T2[j-i] x2_i|),
#
# which the oracle returns with its values.  ``cofactor`` is the kernel's
# bounded part, already reflected for the right side.

_ORACLE_BLOCK = 64


def _oracle_rows(cofactor, t, s, lo, hi):
    """Cofactor rows ``c(t_j, t_0..t_j)`` of the nodes ``lo <= j < hi`` as
    one ``(hi - lo, hi)`` array, zero above the diagonal and on flagged
    rows, and the flagged nodes.  The columns ``i < lo`` are sampled in one
    call; the square of columns ``lo <= i < hi`` is sampled at
    ``(t_j, min(t_i, t_j))`` and cut to its lower triangle.  A row with a
    non-finite sample is mended on its own."""
    x = t[lo:hi, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        square = np.tril(cofactor(x, np.minimum(t[lo:hi], x)))
        c = np.concatenate((cofactor(x, t[:lo]), square), axis=1)
    flagged = []
    for k in np.flatnonzero(~np.isfinite(c).all(axis=1)):
        j = lo + int(k)
        if _mend_row(c[k, : j + 1], j, t, s, cofactor) == "flag":
            c[k] = 0.0
            flagged.append(j)
    return c, flagged


def _lag_windows(table):
    """Function of ``(lo, hi)`` to the view ``table[j - i]`` for
    ``lo <= j < hi`` and ``0 <= i < hi``, zero where ``i > j``."""
    padded, count = np.concatenate((table[::-1], np.zeros(_ORACLE_BLOCK))), len(table)
    return lambda lo, hi: sliding_window_view(padded, hi)[count - hi : count - lo][::-1]


def _row_left(cofactor, s, grid, fv, tables):
    """Values (NaN where flagged) and row absolute sums ``R_j`` of the left
    K and B rules, as columns 0 and 1, and the flagged nodes, with ``T1``
    and ``T2`` from ``tables`` (``_oracle_tables`` or
    ``_trapezoid_tables``)."""
    n, h, t = grid.n, grid.h, grid.nodes
    mu = 1.0 - s
    t1, t2 = map(_lag_windows, tables(mu, n + 1))
    df = np.diff(fv)
    x1 = np.stack((fv, np.append(df, 0.0)), axis=1)
    x2 = np.stack((np.insert(fv[1:], 0, 0.0), np.insert(df, 0, 0.0)), axis=1)
    out, size, flagged = np.zeros((n + 1, 2)), np.zeros((n + 1, 2)), []
    for lo in range(1, n + 1, _ORACLE_BLOCK):
        hi = min(lo + _ORACLE_BLOCK, n + 1)
        c, flags = _oracle_rows(cofactor, t, s, lo, hi)
        c1, c2 = c * t1(lo, hi), c * t2(lo, hi)
        out[lo:hi] = c1 @ x1[:hi] + c2 @ x2[:hi]
        size[lo:hi] = np.abs(c1) @ np.abs(x1[:hi]) + np.abs(c2) @ np.abs(x2[:hi])
        out[flags] = np.nan
        flagged += flags
    scale = np.array([h**mu, h ** (mu - 1.0)])
    return scale * out, scale * size, flagged


def _trapezoid_tables(mu, count):
    """The lag tables at ``mu = 1`` in closed form, the trapezoid's
    weights: ``T1[0] = 0`` and every other entry of ``T1`` and ``T2`` 1/2.
    The quadrature of ``_oracle_tables`` carries them to about eps."""
    assert mu == 1.0
    return np.insert(np.full(count - 1, 0.5), 0, 0.0), np.full(count, 0.5)


def _row_two_sided(p, kernel, f, relative=1e-12, tables=_oracle_tables):
    """Oracle values, per-node bounds ``relative * R_j`` of K and B
    (columns 0 and 1) and flagged nodes.  B's right side carries the sign
    of the reversed derivative."""
    grid, s, n = f.grid, kernel.singularity_exponent, f.grid.n
    ab = grid.a + grid.b
    out, size, flagged = np.zeros((n + 1, 2)), np.zeros((n + 1, 2)), set()
    if p.lam != 0.0:
        vals, sums, flags = _row_left(kernel.cofactor, s, grid, f.values, tables)
        out += p.lam * vals
        size += abs(p.lam) * sums
        flagged.update(flags)
    if p.mu != 0.0:

        def reflected(x, y):
            return kernel.cofactor(ab - np.asarray(y), ab - np.asarray(x))

        vals, sums, flags = _row_left(reflected, s, grid, f.values[::-1].copy(), tables)
        out += np.array([1.0, -1.0]) * p.mu * vals[::-1]
        size += abs(p.mu) * sums[::-1]
        flagged.update(n - j for j in flags)
    return out, relative * size, flagged


def _engine_two_sided(p, kernel, f, left_rule):
    """``_two_sided`` without the corner patch: values and flagged nodes."""
    grid, n = f.grid, f.grid.n
    out, flagged = np.zeros((1, n + 1)), set()
    rule = left_rule(kernel, grid)
    if p.lam != 0.0:
        flagged.update(rule(f.values[None], out, p.lam, False))
    if p.mu != 0.0:
        flags = rule(f.values[None, ::-1], out[:, ::-1], p.mu, True)
        flagged.update(n - j for j in flags)
    return out[0], flagged


def _assert_engine_matches_oracle(p, kernel, f, relative=1e-12, tables=_oracle_tables):
    oracle, bounds, want_flags = _row_two_sided(p, kernel, f, relative, tables)
    for engine, want, bound in zip((_apply_left, _bapply_left), oracle.T, bounds.T):
        got, got_flags = _engine_two_sided(p, kernel, f, engine)
        assert got_flags == want_flags
        assert np.array_equal(np.isnan(got), np.isnan(want))
        kept = ~np.isnan(want)
        assert np.all(np.abs(got - want)[kept] <= bound[kept])


def _smooth(c1, c2):
    return lambda x, y: np.cos(c1 * x - c2 * y) + c1 * x * y


def _singular(c1, c2, s):
    return lambda x, y: (1.0 + c1 * x * x + c2 * y) * (x - y) ** (-s)


def _step(x0):
    """Zero on every row below ``x0``: a far block that the jump crosses
    cannot be interpolated and goes to the dense code."""
    return lambda x, y: np.where(x >= x0, np.cos(x - 2.0 * y) + 1.0, 0.0)


def _band(x0, x1):
    """Nonzero only on rows ``x0 < x <= x1``, which a far block's Chebyshev
    points can all miss: a far block there goes to the dense code."""
    return lambda x, y: np.where((x > x0) & (x <= x1), np.cos(x - 2.0 * y) + 1.0, 0.0)


row_cases = some.one_of(
    some.builds(
        lambda c1, c2: ((0.0, 1.0), GeneralKernel(_smooth(c1, c2), 0.0)),
        some.floats(-2.0, 2.0),
        some.floats(-2.0, 2.0),
    ),
    some.builds(
        lambda c1, c2, s: ((0.0, 1.0), GeneralKernel(_singular(c1, c2, s), s)),
        some.floats(0.0, 1.0),
        some.floats(0.0, 1.0),
        some.floats(0.05, 0.95),
    ),
    some.builds(
        lambda order: ((1.0, math.e), HadamardKernel(order)),
        some.floats(0.05, 0.95),
    ),
    some.just(((0.0, 1.0), counterexample_kernel())),
    some.builds(
        lambda x0: ((0.0, 1.0), GeneralKernel(_step(x0), 0.0)),
        some.floats(0.55, 0.95),
    ),
    some.builds(
        lambda x0, width: ((0.0, 1.0), GeneralKernel(_band(x0, x0 + width), 0.0)),
        some.floats(0.5, 0.9),
        some.floats(0.005, 0.05),
    ),
)


@hyp.example(case=((0.0, 1.0), GeneralKernel(_step(0.6), 0.0)), n=1023, lam=1.0, mu=-0.5, seed=1)
@hyp.example(case=((0.0, 1.0), GeneralKernel(_band(0.5, 0.51), 0.0)), n=1023, lam=1.0, mu=0.0, seed=2)
@hyp.example(case=((0.0, 1.0), counterexample_kernel()), n=4096, lam=0.0, mu=1.0, seed=3)
@hyp.settings(max_examples=25, deadline=None)
@hyp.given(
    case=row_cases,
    n=some.integers(32, 4096),
    lam=side_weights,
    mu=side_weights,
    seed=some.integers(0, 2**31),
)
def test_shared_row_loop_matches_oracle(case, n, lam, mu, seed):
    """The hierarchical engine (1 to 4 levels of far blocks for n up to
    4096) agrees with the row-by-row oracle node by node, flags included."""
    (a, b), kernel = case
    hyp.assume(lam != 0.0 or mu != 0.0)
    p = ParameterSet(a, b, lam, mu)
    g = Grid(a, b, n)
    f = SampledFunction(g, np.random.default_rng(seed).uniform(-1, 1, n + 1))
    _assert_engine_matches_oracle(p, kernel, f)


@pytest.mark.filterwarnings("ignore::fracvar.CornerExtrapolationWarning")
def test_two_sided_counterexample_at_a_ragged_n_matches_the_row_oracle():
    """At n = 4500 the thin top far block of the counterexample (405 rows
    by 4096 columns) goes dense while the levels below compress.  The
    engine's two-sided K and B meet the row oracle's bound, 1e-12 of each
    row's absolute sum ``R_j``.  Against the oracle with the closed-form
    trapezoid weights, which the engine applies in every compressed block,
    they meet 1e-14 ``R_j``.  The engine's tables and both oracles' hold
    the lag weights 1/2 to eps, and K and B were 1.4e-16 ``R_j`` from
    either oracle when this was written."""
    g = Grid(0.0, 1.0, 4500)
    f = SampledFunction(g, np.random.default_rng(4500).uniform(-1, 1, 4501))
    p = ParameterSet(0.0, 1.0, 1.0, -1.0)
    _assert_engine_matches_oracle(p, counterexample_kernel(), f)
    _assert_engine_matches_oracle(p, counterexample_kernel(), f, 1e-14, _trapezoid_tables)


def _record_calls(monkeypatch, targets):
    """List that collects the name of every call of the ``(module, name)``
    functions of ``targets``."""
    names = []
    for module, name in targets:

        def recording(*args, _call=getattr(module, name), _name=name, **kwargs):
            names.append(_name)
            return _call(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    return names


@pytest.mark.filterwarnings("ignore::fracvar.CornerExtrapolationWarning")
def test_bounded_kernels_apply_far_blocks_with_no_svd_and_no_fft(monkeypatch):
    """Work count: a bounded kernel's far blocks act as their Chebyshev
    interpolants on the trapezoid's mean of their columns, so two-sided
    K and B of the counterexample at n = 4096 make no SVD and no FFT call,
    though their levels keep far blocks.  A singular general kernel still
    recompresses by SVD and applies its lag weights by FFT."""
    g = Grid(0.0, 1.0, 4096)
    f = SampledFunction(g, np.random.default_rng(2).uniform(-1, 1, 4097))
    p = ParameterSet(0.0, 1.0, 0.8, -1.3)
    names = _record_calls(monkeypatch, [(np.linalg, "svd"), (np.fft, "rfft"), (np.fft, "irfft")])
    kept = []
    interpolants = operators._far_interpolants

    def recorder(*args):
        result = interpolants(*args)
        kept.append(int(result[0].sum()))
        return result

    monkeypatch.setattr(operators, "_far_interpolants", recorder)
    for apply in (k_apply, b_apply):
        apply(p, counterexample_kernel(), f)
    assert names == [] and sum(kept) > 0
    for apply in (k_apply, b_apply):
        names.clear()
        apply(p, GeneralKernel(_singular(0.5, 0.3, 0.4), 0.4), f)
        assert {"svd", "rfft", "irfft"} <= set(names)


MIRROR_KERNELS = (
    GeneralKernel(_smooth(1.3, -0.7), 0.0),
    counterexample_kernel(),
    GeneralKernel(lambda x, y: np.where(x - y < 0.1, np.cos(x - y), 0.0), 0.0),
)


@pytest.mark.parametrize("n", [300, 2048, 4096])
def test_right_side_is_the_left_side_of_the_mirrored_kernel(n):
    """The right-sided K and B of ``k`` are the reversed left-sided K and B
    of the mirrored kernel ``k(a + b - y, a + b - x)`` on the reversed
    samples (B with the sign of the reversed derivative), bit for bit on
    every node the corner patch leaves alone.  The counterexample kernel
    is flagged at the corner ``(0, 0)`` and patched on both sides."""
    g = Grid(0.0, 1.0, n)
    ab = g.a + g.b
    f = SampledFunction(g, np.random.default_rng(n).uniform(-1, 1, n + 1))
    f_reversed = SampledFunction(g, f.values[::-1].copy())
    reach = _CORNER_FIT + _CORNER_PAD
    for kernel in MIRROR_KERNELS:
        mirrored = GeneralKernel(lambda x, y, k=kernel: k.cofactor(ab - y, ab - x), 0.0)
        for apply, sign in ((k_apply, 1.0), (b_apply, -1.0)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", CornerExtrapolationWarning)
                right = apply(ParameterSet(g.a, g.b, 0.0, 1.0), kernel, f).values
                patched_right = len(caught)
                left = sign * apply(LEFT, mirrored, f_reversed).values[::-1]
                patched_left = len(caught) - patched_right
            assert patched_right == patched_left
            kept = slice(reach + 1, n - reach) if patched_right else slice(None)
            assert np.array_equal(right[kept], left[kept])


def _far_level(compress, kernel, n, los, half, rows):
    """``compress`` (``_far_factors`` or ``_far_interpolants``) of
    ``kernel`` on the far blocks ``[lo + half, lo + half + rows) x [lo, lo
    + half)`` of the left side of a grid of [0, 1], one call for all of
    ``los``: the approximation of each block at its nodes, ``u.T @ v`` or
    ``to_rows.T @ core @ to_cols``, or None for a block sent to the dense
    code."""
    t, chebyshev = Grid(0.0, 1.0, n).nodes, {}
    kept, *factors = compress(lambda j, i: kernel.cofactor(t[j], t[i]),
                              lambda x, y: kernel.cofactor(x / n, y / n),
                              np.asarray(los), half, rows, chebyshev)
    if not kept.any():
        return [None] * len(kept)
    if compress is _far_factors:
        u, v, ranks = factors
        cuts = np.cumsum(ranks)[:-1]
        blocks = (a.T @ b for a, b in zip(np.split(u, cuts), np.split(v, cuts)))
    else:
        to_rows, to_cols = chebyshev[rows][1], chebyshev[half][1]
        blocks = (to_rows.T @ core @ to_cols for core in factors[0])
    return [next(blocks) if keep else None for keep in kept]


def _assert_factors_reproduce(kernel, n, los, half, blocks):
    """Each approximation of ``blocks`` reproduces its block of ``kernel``
    to 1e-12 of the block's largest entry."""
    t = Grid(0.0, 1.0, n).nodes
    for lo, approx in zip(los, blocks):
        rows = approx.shape[0]
        block = kernel.cofactor(t[lo + half : lo + half + rows, None], t[None, lo : lo + half])
        assert np.abs(approx - block).max() <= 1e-12 * np.abs(block).max()


FAR_COMPRESSORS = (_far_factors, _far_interpolants)


@pytest.mark.parametrize("n", [4096, 8192])
def test_far_factors_reproduce_smooth_blocks_and_send_jumps_dense(n):
    """Chebyshev far blocks of ``cos(40xy)`` and the counterexample kernel,
    factored a whole tree level per call, reproduce every entry to 1e-12
    of the block's largest: the levels of half-sizes n / 16 and n / 8,
    which hold the blocks nearest the corner where the counterexample is
    singular and those where ``cos(40xy)`` oscillates fastest.  A block
    crossed by a jump, a block whose nonzero rows the Chebyshev points
    miss, and a block with fewer rows than points go to the dense code.
    All of it holds for the SVD factors of singular kernels and for the
    uncompressed interpolants of bounded ones."""
    t = Grid(0.0, 1.0, n).nodes
    for compress in FAR_COMPRESSORS:
        for kernel in (GeneralKernel(lambda x, y: np.cos(40.0 * x * y), 0.0), counterexample_kernel()):
            for half in (n // 16, n // 8):
                los = range(0, n, 2 * half)
                blocks = _far_level(compress, kernel, n, los, half, half)
                assert all(block is not None for block in blocks)
                _assert_factors_reproduce(kernel, n, los, half, blocks)
        for kernel in (_step(0.6), _band(t[n // 2 + 10], t[n // 2 + 20])):
            assert _far_level(compress, GeneralKernel(kernel, 0.0), n, [0], n // 2, n // 2) == [None]
        short = _far_level(compress, GeneralKernel(_smooth(1.3, -0.7), 0.0), n, [0], n // 2, _CHEB - 1)
        assert short == [None]


def test_a_block_crossed_by_a_jump_goes_dense_while_its_level_stays_compressed():
    """At n = 2403 a smooth kernel plus a unit jump at x = 0.6 crosses the
    rows of the third of the four full far blocks of half-size 256, and no
    other block of that level.  One ``_far_factors`` or
    ``_far_interpolants`` call sends that block alone to the dense code;
    its siblings keep approximations that reproduce them to 1e-12.  The
    engine's K and B, on both sides, meet the row oracle's bound; there
    the same level also holds a ragged last block of 100 rows, which gets
    a call of its own."""
    n, half = 2403, 256
    smooth = _smooth(1.3, -0.7)
    kernel = GeneralKernel(lambda x, y: smooth(x, y) + np.where(x >= 0.6, 1.0, 0.0), 0.0)
    los = range(0, 2048, 2 * half)
    for compress in FAR_COMPRESSORS:
        blocks = _far_level(compress, kernel, n, los, half, half)
        assert [block is None for block in blocks] == [False, False, True, False]
        _assert_factors_reproduce(kernel, n, [0, 512, 1536], half, [blocks[0], blocks[1], blocks[3]])
    f = SampledFunction(Grid(0.0, 1.0, n), np.random.default_rng(9).uniform(-1, 1, n + 1))
    _assert_engine_matches_oracle(ParameterSet(0.0, 1.0, 1.0, -0.5), kernel, f)


class _CountingKernel(Kernel):
    """A kernel that counts the cofactor calls and entries it evaluates."""

    def __init__(self, base):
        self.base, self.calls, self.entries = base, 0, 0
        self.singularity_exponent = base.singularity_exponent

    def cofactor(self, x, y):
        self.calls += 1
        self.entries += np.broadcast(x, y).size
        return self.base.cofactor(x, y)


def test_non_difference_engine_samples_near_linearly():
    """Four times the nodes cost at most six times the cofactor entries:
    evaluating the whole triangle would cost sixteen."""
    counts = []
    for n in (2048, 8192):
        kernel = _CountingKernel(GeneralKernel(_smooth(1.3, -0.7), 0.0))
        g = Grid(0.0, 1.0, n)
        k_apply(LEFT, kernel, SampledFunction(g, np.ones(n + 1)))
        counts.append(kernel.entries)
    assert counts[1] <= 6 * counts[0]


def test_far_blocks_cost_three_kernel_calls_each():
    """The compressed far blocks of one tree level ask the kernel three
    times together: their Chebyshev cores, their first columns and their
    last rows.  On each side of the counterexample at n = 8192 that is
    the levels of half-sizes 4096 down to ``_LEAF``, plus one call for the
    dense block of the last node alone and one per diagonal tile (the
    full tiles and the last node's); the right side asks for one more
    full row, at the corner it flags.  So the calls grow with the levels
    and tiles, not with the far blocks: 169 at ``_LEAF`` = 128, where
    three calls per block would make 511."""
    levels = (8192 // _LEAF).bit_length() - 1
    tiles = -(-8193 // _LEAF)
    kernel = _CountingKernel(counterexample_kernel())
    g = Grid(0.0, 1.0, 8192)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CornerExtrapolationWarning)
        k_apply(ParameterSet(0.0, 1.0, 1.0, -1.0), kernel, SampledFunction(g, np.ones(8193)))
    assert kernel.calls <= 2 * (3 * levels + 1 + tiles) + 1


def test_engine_walks_far_blocks_level_by_level_from_the_top(monkeypatch):
    """The far blocks of one side of the counterexample at n = 8192 come
    level by level, one ``_far_interpolants`` call per level (the
    counterexample is bounded), from the top: half-sizes 8192 down to
    ``_LEAF``, with every level present and its blocks left to right.  A
    depth-first walk would visit a smaller block before the second block
    of a level above it."""
    levels = []

    def recorder(sample, between, los, half, rows, chebyshev):
        levels.append((half, list(los)))
        return _far_interpolants(sample, between, los, half, rows, chebyshev)

    monkeypatch.setattr(operators, "_far_interpolants", recorder)
    g = Grid(0.0, 1.0, 8192)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CornerExtrapolationWarning)
        k_apply(LEFT, counterexample_kernel(), SampledFunction(g, np.ones(8193)))
    halves = [half for half, _ in levels]
    assert halves == [8192 >> k for k in range((8192 // _LEAF).bit_length())]
    for half, los in levels:
        assert los == list(range(0, 8192, 2 * half))


@pytest.mark.filterwarnings("ignore::fracvar.CornerExtrapolationWarning")
@pytest.mark.parametrize(
    "interval, kernel",
    [((0.0, 1.0), counterexample_kernel()),
     ((0.0, 1.0), GeneralKernel(_singular(0.5, 0.3, 0.4), 0.4)),
     ((1.0, math.e), HadamardKernel(0.6)),
     ((0.0, 1.0), EXP_KERNEL)],
    ids=["counterexample", "singular", "hadamard", "difference"],
)
@pytest.mark.parametrize("lam", [1.0, 0.37])
def test_dual_with_opposite_side_weights_negates_bit_for_bit(interval, kernel, lam):
    """With mu = -lam, ``dual(p)`` negates both side weights of ``p``, and K
    and B under it are the negated images bit for bit: every side adds its
    weight times the same values, and the corner patch is linear.  The
    counterexample experiment relies on this to take its dual side as
    ``-lhs`` (at n = 512 its corner is patched).  If this test ever fails,
    ``_run_counterexample`` must compute the dual side itself again."""
    g = Grid(*interval, 512)
    f = SampledFunction(g, np.random.default_rng(8).uniform(-1, 1, 513))
    p = ParameterSet(*interval, lam, -lam)
    for apply in (k_apply, b_apply):
        assert np.array_equal(apply(dual(p), kernel, f).values, -apply(p, kernel, f).values)


def test_kernel_finite_only_on_the_nodes_sends_every_far_block_dense():
    """A cofactor that is NaN between the nodes makes every Chebyshev core
    non-finite.  That is no error: each far block goes to the dense code,
    which samples the nodes alone, so every node pair of both triangles is
    asked for, and the result agrees with the row oracle."""
    g = Grid(0.0, 1.0, 1023)
    nodes = np.union1d(g.nodes, (g.a + g.b) - g.nodes)
    smooth, on_nodes = _smooth(1.3, -0.7), [0]

    def cofactor(x, y):
        on = np.isin(x, nodes) & np.isin(y, nodes)
        on_nodes[0] += np.count_nonzero(on)
        return np.where(on, smooth(x, y), np.nan)

    kernel, p = GeneralKernel(cofactor, 0.0), ParameterSet(0.0, 1.0, 1.0, -0.5)
    f = SampledFunction(g, np.random.default_rng(7).uniform(-1, 1, 1024))
    k_apply(p, kernel, f)
    assert on_nodes[0] >= 2 * 1023 * 1024 // 2
    _assert_engine_matches_oracle(p, kernel, f)


@pytest.mark.parametrize("first_bad", [_CORNER_FIT + 1, 1200])
def test_non_finite_first_column_past_the_corner_raises(first_bad):
    """Column 0 non-finite from row ``first_bad`` on: inside the first
    diagonal tile, or only in far blocks, it is a hard error either way."""
    g = Grid(0.0, 1.0, 2048)
    edge = g.nodes[first_bad] - 0.5 * g.h
    kernel = GeneralKernel(lambda x, y: np.where((y == 0.0) & (x > edge), np.nan, 1.0 + x * y), 0.0)
    with pytest.raises(NumericError, match="sample index 0"):
        k_apply(LEFT, kernel, SampledFunction(g, np.ones(2049)))


def test_nan_kernel_raises_at_large_n():
    g = Grid(0.0, 1.0, 2048)
    with pytest.raises(NumericError):
        k_apply(LEFT, GeneralKernel(lambda t, tau: math.nan, 0.0), SampledFunction(g, np.ones(2049)))


def _observed_orders(errors):
    return [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]


def test_hadamard_integral_converges_at_first_order():
    """``HadamardLeft`` of order 0.5 maps ``log(t)**1.5`` onto
    ``Gamma(2.5) / Gamma(3) log(t)**2``; the sup error over all nodes
    falls at least first order (1.94 to 1.97 observed)."""
    alpha, beta = 0.5, 2.5
    errors = []
    for n in (256, 512, 1024, 2048, 4096):
        g = Grid(1.0, math.e, n)
        out = classical(ClassicalOp.HADAMARD_LEFT, alpha, SampledFunction(g, np.log(g.nodes) ** (beta - 1.0)))
        want = gamma(beta) / gamma(beta + alpha) * np.log(g.nodes) ** (beta + alpha - 1.0)
        errors.append(np.abs(out.values - want).max())
    assert min(_observed_orders(errors)) >= 1.0


def test_general_kernel_b_apply_converges_at_first_order():
    """The kernel ``(1 + t**2 / 2) (t - tau)**-0.4 / Gamma(0.6)`` under
    ``b_apply`` maps a cubic onto ``(1 + t**2 / 2)`` times its Caputo
    derivative of order 0.4; the sup error over all nodes falls at least
    first order (1.58 to 1.59 observed)."""
    s, phi, coef = 0.4, 0.5, (0.3, -1.0, 0.5, 0.8)
    kernel = GeneralKernel(lambda t, tau: (1.0 + phi * t * t) * (t - tau) ** (-s) / gamma(1.0 - s), s)
    errors = []
    for n in (256, 512, 1024, 2048, 4096):
        g = Grid(0.0, 1.0, n)
        t = g.nodes
        out = b_apply(LEFT, kernel, SampledFunction(g, np.polynomial.polynomial.polyval(t, coef)))
        caputo = sum(coef[k] * gamma(k + 1.0) / gamma(k + 1.0 - s) * t ** (k - s) for k in range(1, 4))
        errors.append(np.abs(out.values - (1.0 + phi * t * t) * caputo).max())
    assert min(_observed_orders(errors)) >= 1.0


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_power_law_converges_at_first_order(alpha):
    """On ``[1/2, 2]`` with the lag ``u = t - a`` (left side) or ``b - t``
    (right side), the integral of order ``alpha`` maps ``u**2`` onto
    ``Gamma(3) / Gamma(3 + alpha) u**(2 + alpha)``.  Both ``a_apply`` and
    ``b_apply`` of the derivative kernel map it onto ``+-Gamma(3) /
    Gamma(3 - alpha) u**(2 - alpha)``: the Riemann-Liouville and Caputo
    derivatives agree because ``u**2`` vanishes to second order, and the
    right-sided ones carry a minus sign.  The sup errors over all nodes
    fall at least first order on both sides (K 1.97 to 2.0 observed, A and
    B about ``2 - alpha``)."""
    for p, sign in ((ParameterSet(0.5, 2.0, 1.0, 0.0), 1.0), (ParameterSet(0.5, 2.0, 0.0, 1.0), -1.0)):
        errors = {k_apply: [], a_apply: [], b_apply: []}
        for n in (256, 512, 1024, 2048, 4096):
            g = Grid(0.5, 2.0, n)
            lag = g.nodes - 0.5 if sign > 0.0 else 2.0 - g.nodes
            f = SampledFunction(g, lag**2)
            k = k_apply(p, PowerLawKernel(alpha, "integral"), f).values
            errors[k_apply].append(np.abs(k - gamma(3.0) / gamma(3.0 + alpha) * lag ** (2.0 + alpha)).max())
            want = sign * gamma(3.0) / gamma(3.0 - alpha) * lag ** (2.0 - alpha)
            for apply in (a_apply, b_apply):
                errors[apply].append(np.abs(apply(p, PowerLawKernel(alpha, "derivative"), f).values - want).max())
        for errs in errors.values():
            assert min(_observed_orders(errs)) >= 1.0


def _exp_images(poly, rate, t):
    """Left and right integrals of ``exp(-rate |t - s|) poly(s)`` on ``[0, 1]``.

    The left one solves ``I' = poly - rate I`` with ``I(0) = 0``: the
    polynomial ``P = sum_j (-1)**j poly^(j) / rate**(j + 1)`` solves the
    equation, and ``P(0) exp(-rate t)`` fixes the start value.  The right
    one solves ``I' = rate I - poly`` with ``I(1) = 0``, by the same series
    without the alternating sign.
    """
    terms = range(poly.degree() + 1)
    left = sum((-1) ** j * poly.deriv(j) / rate ** (j + 1) for j in terms)
    right = sum(poly.deriv(j) / rate ** (j + 1) for j in terms)
    return left(t) - left(0.0) * np.exp(-rate * t), right(t) - right(1.0) * np.exp(-rate * (1.0 - t))


def test_two_sided_exponential_kernel_converges_at_first_order():
    """With ``exp(-1.7 u)`` and weights ``(0.7, -1.2)``, K of a cubic is
    ``0.7 I_left - 1.2 I_right``, and B of it is K of its derivative.  The
    bounded non-difference kernel ``w(t) exp(-1.7 (t - s))``, with
    ``w(t) = 1 + t**2 / 2``, weighs by the later time: ``w(t) I_left`` on
    the left, ``I_right`` of ``w`` times the polynomial on the right.  The
    sup errors over all nodes fall at least first order (2.0 observed on
    both kernels)."""
    rate, lam, mu = 1.7, 0.7, -1.2
    p = ParameterSet(0.0, 1.0, lam, mu)
    cubic, one = np.polynomial.Polynomial((0.3, -1.0, 0.5, 0.8)), np.polynomial.Polynomial(1.0)
    w = np.polynomial.Polynomial((1.0, 0.0, 0.5))
    for kernel, weight in (
        (DifferenceKernel(lambda u: np.exp(-rate * u)), one),
        (GeneralKernel(lambda t, s: (1.0 + 0.5 * t * t) * np.exp(-rate * (t - s))), w),
    ):
        k_errors, b_errors = [], []
        for n in (256, 512, 1024, 2048, 4096):
            g = Grid(0.0, 1.0, n)
            f = SampledFunction(g, cubic(g.nodes))
            for apply, poly, errors in ((k_apply, cubic, k_errors), (b_apply, cubic.deriv(), b_errors)):
                left = weight(g.nodes) * _exp_images(poly, rate, g.nodes)[0]
                right = _exp_images(weight * poly, rate, g.nodes)[1]
                errors.append(np.abs(apply(p, kernel, f).values - (lam * left + mu * right)).max())
        assert min(_observed_orders(k_errors)) >= 1.0
        assert min(_observed_orders(b_errors)) >= 1.0


def _power_law_pair(order, variant):
    """``PowerLawKernel(order, variant)`` and the same kernel written out as a
    ``GeneralKernel``, whose cofactor is singular on the diagonal."""
    law = PowerLawKernel(order, variant)
    s = law.singularity_exponent
    scale = gamma(order) if variant == "integral" else gamma(1.0 - order)
    return GeneralKernel(lambda t, tau: (t - tau) ** (-s) / scale, s), law


cross_path_pairs = some.one_of(
    some.just((GeneralKernel(lambda t, s: np.exp(-(t - s))), DifferenceKernel(lambda u: np.exp(-u)))),
    some.builds(_power_law_pair, some.floats(0.05, 0.95), some.sampled_from(["integral", "derivative"])),
)


@hyp.settings(max_examples=20, deadline=None)
@hyp.given(
    pair=cross_path_pairs,
    n=some.integers(32, 1024),
    lam=side_weights,
    mu=side_weights,
    seed=some.integers(0, 2**31),
)
def test_row_path_matches_fft_path_on_difference_kernels(pair, n, lam, mu, seed):
    """A difference kernel written as a general kernel takes the
    hierarchical engine; as itself, the FFT path.  Both agree within the
    FFT oracle's bound."""
    general, difference = pair
    hyp.assume(lam != 0.0 or mu != 0.0)
    p = ParameterSet(0.0, 1.0, lam, mu)
    g = Grid(0.0, 1.0, n)
    f = SampledFunction(g, np.random.default_rng(seed).uniform(-1, 1, n + 1))
    for apply, left_rule, sign in ((k_apply, _direct_k_left, 1.0), (b_apply, _direct_b_left, -1.0)):
        _, bound = _direct_two_sided(p, difference, f, left_rule, sign)
        gap = np.abs(apply(p, general, f).values - apply(p, difference, f).values).max()
        assert gap <= bound


def test_singular_diagonal_is_continued_linearly():
    """With a cofactor linear in tau (here ``1 + t - tau``) the rule is exact,
    provided the non-finite diagonal cofactor sample is continued linearly:
    from its two neighbours, or through the cell midpoint on the first row
    off the endpoint."""
    s = 0.4
    g = Grid(0.0, 1.0, 64)
    kernel = GeneralKernel(lambda t, tau: (t - tau) ** (-s) * (1.0 + t - tau), s)
    for p, lag in (
        (ParameterSet(0.0, 1.0, 1.0, 0.0), g.nodes),
        (ParameterSet(0.0, 1.0, 0.0, 1.0), 1.0 - g.nodes),
    ):
        want = lag ** (1.0 - s) / (1.0 - s) + lag ** (2.0 - s) / (2.0 - s)
        k = k_apply(p, kernel, SampledFunction(g, np.ones(65))).values
        b = b_apply(p, kernel, SampledFunction(g, g.nodes)).values
        assert np.abs(k - want).max() < 1e-13
        assert np.abs(b - want).max() < 1e-13


# --- stacked rows against one call per row --------------------------------
#
# ``_two_sided`` takes a stack of rows; ``k_apply`` and ``b_apply`` are its
# one-row case.  Each call's rule is built once, serves both sides and is
# handed the whole stack: difference kernels build the tables and the
# weight spectrum once, and each engine run its tile cofactors, far-block
# factors or samples and lag spectra.  Both apply them to rows in groups,
# which must not change a single bit.  Row counts 3, 5 and 13 leave the
# last group ragged.

STACKED_RULES = ((k_apply, _apply_left), (b_apply, _bapply_left))


def _assert_stack_matches_rows(p, kernel, rows):
    g = Grid(p.a, p.b, rows.shape[1] - 1)
    for apply, left_rule in STACKED_RULES:
        stacked = _two_sided(p, kernel, g, rows, left_rule)
        per_row = np.array([apply(p, kernel, SampledFunction(g, row)).values for row in rows])
        assert np.array_equal(stacked, per_row)


@hyp.example(kernel=PowerLawKernel(0.3, "derivative"), n=1000, count=13, sides=(0.8, 1.9), seed=4)
@hyp.example(kernel=EXP_KERNEL, n=1024, count=5, sides=(0.8, 1.9), seed=5)
@hyp.example(kernel=PowerLawKernel(0.6, "integral"), n=4097, count=3, sides=(0.0, -0.7), seed=6)
@hyp.settings(max_examples=30, deadline=None)
@hyp.given(
    kernel=difference_kernels,
    n=some.integers(32, 4096),
    count=some.sampled_from([1, 3, 5, 13]),
    sides=some.sampled_from([(1.3, 0.0), (0.0, -0.7), (0.8, 1.9)]),
    seed=some.integers(0, 2**31),
)
def test_stacked_rows_match_per_row_calls_bit_for_bit(kernel, n, count, sides, seed):
    rows = np.random.default_rng(seed).uniform(-1, 1, (count, n + 1))
    _assert_stack_matches_rows(ParameterSet(0.0, 1.0, *sides), kernel, rows)


GENERAL_STACK_KERNELS = (
    GeneralKernel(_smooth(1.3, -0.7), 0.0),
    counterexample_kernel(),
    GeneralKernel(_singular(0.5, 0.3, 0.4), 0.4),
    GeneralKernel(lambda x, y: np.where(x - y < 0.1, np.cos(x - y), 0.0), 0.0),
)


@pytest.mark.filterwarnings("ignore::fracvar.CornerExtrapolationWarning")
@pytest.mark.parametrize(
    "sides, n, count",
    [((1.3, 0.0), 4096, 1), ((0.0, -0.7), 2048, 5), ((0.8, 1.9), 300, 13)],
    ids=["sides0", "sides1", "sides2"],
)
def test_stacked_rows_match_per_row_calls_on_a_general_kernel(sides, n, count):
    """One engine run serves the whole stack: a smooth kernel, a kernel
    whose last node is flagged on the right side and patched in every
    row, a singular kernel with a mended first row, and a cut-off kernel
    whose far blocks all go to the dense code."""
    rows = np.random.default_rng(5).uniform(-1, 1, (count, n + 1))
    for kernel in GENERAL_STACK_KERNELS:
        _assert_stack_matches_rows(ParameterSet(0.0, 1.0, *sides), kernel, rows)


def test_stacked_general_kernel_samples_as_many_entries_as_one_row():
    """Nothing the engine samples depends on the rows: 33 rows ask the
    kernel for exactly the entries of one row (578,568 for K here), where
    one engine run per row would ask for 33 times as many."""
    asked = [0]

    def exp_lag(t, s):
        asked[0] += np.broadcast(t, s).size
        return np.exp(-(t - s))

    kernel, p, g = GeneralKernel(exp_lag), ParameterSet(0.0, 1.0, 0.8, -1.3), Grid(0.0, 1.0, 2048)
    rows = np.random.default_rng(6).uniform(-1, 1, (33, 2049))
    for _, left_rule in STACKED_RULES:
        counts = []
        for stack in (rows[:1], rows):
            asked[0] = 0
            _two_sided(p, kernel, g, stack, left_rule)
            counts.append(asked[0])
        assert counts[1] == counts[0]


@pytest.mark.parametrize(
    "kernel",
    [PowerLawKernel(0.4, "integral"), PowerLawKernel(0.6, "derivative"), EXP_KERNEL,
     GeneralKernel(lambda t, tau: np.cos(t - 2.0 * tau), 0.0)],
    ids=["integral", "derivative", "exp", "general"],
)
def test_stacked_zero_rows_and_constant_rows_give_exact_zeros(kernel):
    """At n = 32, on either side and on both: K, A and B map zero rows to
    exact zeros, and B maps constant rows to exact zeros."""
    g = Grid(0.0, 1.0, 32)
    zeros, constants = np.zeros((5, 33)), np.linspace(-2.0, 3.0, 5)[:, None] * np.ones(33)
    for sides in ((1.0, 0.0), (0.0, -0.7), (0.8, 1.9)):
        p = ParameterSet(0.0, 1.0, *sides)
        for _, left_rule in STACKED_RULES:
            assert np.all(_two_sided(p, kernel, g, zeros, left_rule) == 0.0)
        assert np.all(a_apply(p, kernel, SampledFunction(g, zeros[0])).values == 0.0)
        assert np.all(_two_sided(p, kernel, g, constants, _bapply_left) == 0.0)


def test_two_sided_difference_call_samples_its_profile_once():
    """Both sides of a difference-kernel call share one rule: its tables,
    profile and weight spectrum are built once, so ``h`` is called once
    per ``k_apply`` or ``b_apply``, not once per side."""
    calls = [0]

    def h(u):
        calls[0] += 1
        return np.exp(-u)

    kernel, p, g = DifferenceKernel(h), ParameterSet(0.0, 1.0, 0.8, -1.3), Grid(0.0, 1.0, 256)
    f = SampledFunction(g, np.cos(3.0 * g.nodes))
    for apply in (k_apply, b_apply):
        calls[0] = 0
        apply(p, kernel, f)
        assert calls[0] == 1


def test_stacked_call_keeps_the_typed_errors():
    """A non-finite kernel profile is a ``NumericError`` before any row is
    touched; a non-finite output row is the ``InputError`` that the same
    row raises on its own."""
    g = Grid(0.0, 1.0, 32)
    rows = np.zeros((5, 33))
    pole = DifferenceKernel(lambda u: 1.0 / u)
    for _, left_rule in STACKED_RULES:
        with pytest.raises(NumericError, match="profile"), np.errstate(divide="ignore"):
            _two_sided(LEFT, pole, g, rows, left_rule)

    rows[3] = 1e308
    kernel = PowerLawKernel(0.5, "integral")
    with np.errstate(all="ignore"):
        with pytest.raises(InputError, match="non-finite sample") as alone:
            k_apply(LEFT, kernel, SampledFunction(g, rows[3]))
        with pytest.raises(InputError) as stacked:
            _two_sided(LEFT, kernel, g, rows, _apply_left)
    assert str(stacked.value) == str(alone.value)


# --- derivative-type operators --------------------------------------------


def test_a_apply_riemann_liouville_of_identity():
    g = Grid(0.0, 1.0, 2048)
    out = a_apply(LEFT, PowerLawKernel(0.5, "derivative"), SampledFunction(g, g.nodes))
    ref = g.nodes**0.5 / gamma(1.5)
    assert np.abs(out.values - ref)[interior_slice(2048)].max() < 5e-3


def test_a_apply_constant_develops_power_singularity():
    g = Grid(0.0, 1.0, 2048)
    out = a_apply(LEFT, PowerLawKernel(0.3, "derivative"), SampledFunction(g, np.full(2049, 2.0)))
    sl = interior_slice(2048)
    ref = 2.0 * g.nodes[sl] ** (-0.3) / gamma(0.7)
    assert np.abs(out.values[sl] - ref).max() < 5e-3


def test_b_apply_kills_constants():
    g = Grid(0.0, 1.0, 128)
    out = b_apply(LEFT, PowerLawKernel(0.5, "derivative"), SampledFunction(g, np.full(129, 5.0)))
    assert np.abs(out.values).max() < 1e-12


def test_b_apply_caputo_of_identity():
    g = Grid(0.0, 1.0, 2048)
    out = b_apply(LEFT, PowerLawKernel(0.5, "derivative"), SampledFunction(g, g.nodes))
    ref = g.nodes**0.5 / gamma(1.5)
    assert np.abs(out.values - ref)[interior_slice(2048)].max() < 5e-3


def test_caputo_equals_rl_minus_startup_term():
    g = Grid(0.0, 1.0, 2048)
    f = SampledFunction(g, g.nodes + 1.0)
    cap = classical(ClassicalOp.CAPUTO_LEFT, 0.6, f)
    rl = classical(ClassicalOp.RL_DER_LEFT, 0.6, f)
    sl = interior_slice(2048)
    corr = g.nodes[sl] ** (-0.6) / gamma(0.4)
    assert np.abs(cap.values[sl] - rl.values[sl] + corr).max() < 5e-3


def test_caputo_matches_rl_when_start_value_vanishes():
    g = Grid(0.0, 1.0, 2048)
    f = SampledFunction(g, g.nodes**2)
    cap = classical(ClassicalOp.CAPUTO_LEFT, 0.4, f)
    rl = classical(ClassicalOp.RL_DER_LEFT, 0.4, f)
    assert np.abs(cap.values - rl.values)[interior_slice(2048)].max() < 5e-3


# --- classical dispatch ----------------------------------------------------


def test_inverse_laws_on_sine():
    g = Grid(0.0, 1.0, 2048)
    f = SampledFunction(g, np.sin(g.nodes))
    sl = interior_slice(2048)
    smoothed = classical(ClassicalOp.RL_INT_LEFT, 0.4, f)
    back_rl = classical(ClassicalOp.RL_DER_LEFT, 0.4, smoothed)
    back_cap = classical(ClassicalOp.CAPUTO_LEFT, 0.4, smoothed)
    assert np.abs(back_rl.values - f.values)[sl].max() < 5e-3
    assert np.abs(back_cap.values - f.values)[sl].max() < 5e-3


def test_derivative_of_integral_composes():
    # D^0.3 I^0.7 = I^0.4
    g = Grid(0.0, 1.0, 2048)
    f = SampledFunction(g, np.sin(g.nodes))
    lhs = classical(ClassicalOp.RL_DER_LEFT, 0.3, classical(ClassicalOp.RL_INT_LEFT, 0.7, f))
    rhs = classical(ClassicalOp.RL_INT_LEFT, 0.4, f)
    assert np.abs(lhs.values - rhs.values)[interior_slice(2048)].max() < 1e-2


def test_hadamard_integral_of_unit():
    g = Grid(1.0, math.e, 1024)
    out = classical(ClassicalOp.HADAMARD_LEFT, 0.5, SampledFunction(g, np.ones(1025)))
    assert out.values[-1] == pytest.approx(1.0 / gamma(1.5), abs=1e-5)


def test_hadamard_needs_positive_interval():
    """Every side and rule samples ``tau = a``: at n = 64 in its one tile,
    at n = 1024 on the far levels too."""
    for a in (0.0, -0.5):
        for n in (64, 1024):
            g = Grid(a, 1.0, n)
            f = SampledFunction(g, np.ones(n + 1))
            for lam, mu in ((1.0, 0.0), (0.0, 1.0), (1.0, -1.0)):
                for apply in (k_apply, b_apply):
                    with pytest.raises(DomainError, match="strictly positive"):
                        apply(ParameterSet(a, 1.0, lam, mu), HadamardKernel(0.5), f)
            with pytest.raises(DomainError, match="strictly positive"):
                classical("HadamardLeft", 0.5, f)


def test_classical_dispatch_errors():
    g = Grid(0.0, 1.0, 64)
    f = SampledFunction(g, np.ones(65))
    with pytest.raises(ConfigurationError):
        classical("not-an-op", 0.5, f)
    with pytest.raises(ConfigurationError, match="constant order"):
        classical(ClassicalOp.RL_INT_LEFT, lambda t, tau: 0.5, f)
    # the kernel each operator builds checks the order, Hadamard's too
    for order in (0.0, 1.0, 1.5, -0.2, math.nan):
        for op in ClassicalOp:
            with pytest.raises(DomainError, match=r"order must lie in \(0, 1\)"):
                classical(op, order, f)


@pytest.mark.parametrize("n", [4096, 2048])
def test_stacked_classical_rows_match_per_row_calls_bit_for_bit(n):
    """``_classical_rows`` on a stack gives each row the bits of ``classical``
    on that row alone, for every operator."""
    g = Grid(0.5, 2.0, n)
    rows = np.random.default_rng(n).uniform(-1, 1, (4, n + 1))
    for op in ClassicalOp:
        per_row = [classical(op, 0.35, SampledFunction(g, row)).values for row in rows]
        assert np.array_equal(_classical_rows(op, 0.35, g, rows), per_row)


# --- norm constant ----------------------------------------------------------


def test_boundedness_constant_values():
    assert boundedness_constant(0.5, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)
    assert boundedness_constant(0.25, 0.0, math.pi) == pytest.approx(1.4688, abs=1e-3)
    assert boundedness_constant(0.999999, 0.0, 1.0) == pytest.approx(1.0, abs=1e-5)


def test_boundedness_constant_domain():
    with pytest.raises(DomainError):
        boundedness_constant(1.2, 0.0, 1.0)
    with pytest.raises(InputError):
        boundedness_constant(0.5, 1.0, 0.0)


# --- integration by parts ---------------------------------------------------


def test_ibp_smooth_kernel_on_random_polynomials():
    g = Grid(0.0, 1.0, 2048)
    rng = np.random.default_rng(11)
    for lam, mu in ((1.0, 0.0), (0.0, 1.0), (1.0, -1.0)):
        p = ParameterSet(0.0, 1.0, lam, mu)
        f = sample(np.polynomial.Polynomial(rng.uniform(-1, 1, 5)), g)
        h = sample(np.polynomial.Polynomial(rng.uniform(-1, 1, 5)), g)
        rep = verify_ibp(p, EXP_KERNEL, f, h)
        assert rep.residual < 1e-6


def test_ibp_zero_function():
    g = Grid(0.0, 1.0, 128)
    rep = verify_ibp(LEFT, EXP_KERNEL, SampledFunction(g, np.zeros(129)), SampledFunction(g, np.ones(129)))
    assert rep == (0.0, 0.0, 0.0)


def test_ibp_requires_shared_grid():
    f = SampledFunction(Grid(0.0, 1.0, 64), np.ones(65))
    h = SampledFunction(Grid(0.0, 1.0, 128), np.ones(129))
    with pytest.raises(InputError):
        verify_ibp(LEFT, EXP_KERNEL, f, h)


def test_fractional_ibp_with_boundary_term():
    """Left RL derivative against right Caputo, boundary term from I^{1-alpha}."""
    al = 0.45
    g = Grid(0.0, 1.0, 2048)
    f = SampledFunction(g, np.sin(g.nodes) + 2.0)
    h = SampledFunction(g, g.nodes**2 * (1.2 - g.nodes))
    lhs = trapezoid(SampledFunction(g, f.values * classical(ClassicalOp.RL_DER_LEFT, al, h).values))
    rhs = trapezoid(SampledFunction(g, h.values * classical(ClassicalOp.CAPUTO_RIGHT, al, f).values))
    iv = classical(ClassicalOp.RL_INT_LEFT, 1.0 - al, h)
    boundary = f.values[-1] * iv.values[-1] - f.values[0] * iv.values[0]
    assert abs(lhs - rhs - boundary) < 1e-3


# --- semigroup ---------------------------------------------------------------


def test_semigroup_on_identity_function():
    g = Grid(0.0, 1.0, 2048)
    assert verify_semigroup(0.3, 0.4, SampledFunction(g, g.nodes)) < 5e-3


def test_semigroup_near_identity_order():
    g = Grid(0.0, 1.0, 1024)
    assert verify_semigroup(0.5, 1e-4, SampledFunction(g, np.sin(g.nodes))) < 1e-2


def test_semigroup_zero_function():
    g = Grid(0.0, 1.0, 256)
    assert verify_semigroup(0.3, 0.3, SampledFunction(g, np.zeros(257))) == 0.0


@pytest.mark.parametrize("alpha,beta", [(0.6, 0.5), (0.0, 0.5), (0.5, 1.0)])
def test_semigroup_domain(alpha, beta):
    g = Grid(0.0, 1.0, 64)
    with pytest.raises(DomainError):
        verify_semigroup(alpha, beta, SampledFunction(g, np.ones(65)))
