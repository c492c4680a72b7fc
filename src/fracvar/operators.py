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
Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985), its length the
smallest 5-smooth one that holds it.  Every other kernel goes through one
hierarchical engine shared by the K and B rules: the lower triangle is
split dyadically, diagonal tiles of ``_LEAF`` = 128 rows are evaluated
densely, and each far block, where the cofactor is smooth, is
interpolated from Chebyshev points, the far field of the black-box FMM
(Fong & Darve, J. Comput. Phys. 228, 2009) in barycentric form (Berrut &
Trefethen, SIAM Rev. 46, 2004).  For a bounded kernel (``s = 0``) the lag
weights of every far block are the trapezoid's, so the interpolant is
applied as it is, three small products per row and block; for a singular
one it is recompressed by SVD and its lag weights are applied by FFT.
The far blocks of one tree level are sampled, checked and applied
together, so the kernel calls grow with the levels and tiles, not with
the blocks.  That costs O(n * _LEAF) cofactor evaluations and
O(n log**2 n) arithmetic instead of the (n + 1)(n + 2) / 2 evaluations of
a full triangle.  Each call builds its operator's rule, for both sides,
or inside one catalogue run takes the run's (see ``_two_sided``), and the
rule's barycentric tables serve both.  The right-sided integral is the
left-sided one of the reversed samples at the reflected nodes
``a + b - t``, where the engine samples the cofactor with its arguments
swapped, and B's rule negates it: the reversed samples' derivative is the
reversed derivative negated.  A difference kernel reflects onto itself, so
its tables, profile and weight spectrum serve both sides, and its cofactor
is sampled once per rule, at ``(t_j, a)``.
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
    _RUN_MEMO,
    Grid,
    SampledFunction,
    _check_endpoints,
    _check_interval,
    _evaluate,
    _lag_tables,
    _outside_stacklevel,
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

# Rows per diagonal tile of the non-difference engine; see _left_engine.
_LEAF = 128
# First-kind Chebyshev points per side of a far block, their barycentric weights
# and the far-block tolerance (a singular kernel's SVD cut, and a tenth of what
# a checked column or row may miss relative to the core); 32 points resolve
# cos(40xy) on [0, 1], 24 do not.
_CHEB = 32
_FAR_TOL = 1e-13
_CHEB_ANGLES = [(k + 0.5) * math.pi / _CHEB for k in range(_CHEB)]
_CHEB_POINTS = np.array([math.cos(angle) for angle in _CHEB_ANGLES])
_CHEB_WEIGHTS = np.array([(-1) ** k * math.sin(angle) for k, angle in enumerate(_CHEB_ANGLES)])
# Rows per FFT call of the difference rules and per tile, dense block or
# far-level pass of the engine.  At n = 4096 a group's temporaries exceed one
# row's by < 1 MB and 2-4 MB, and a difference group takes about 0.7 of the
# time of single rows.
_ROW_GROUP = 4


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
        _check_endpoints(self.a, self.b)
        for name in ("lam", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"parameter {name} must be finite")
        if self.lam == 0.0 and self.mu == 0.0:
            warnings.warn("both side weights are zero; the operator is trivial", UserWarning,
                          stacklevel=_outside_stacklevel())


def dual(p: ParameterSet) -> ParameterSet:
    """Parameter set with the side weights swapped."""
    return ParameterSet(p.a, p.b, p.mu, p.lam)


class Kernel:
    """Base interface: ``is_difference``, ``singularity_exponent`` and
    ``cofactor``; a kernel raises ``DomainError`` outside its own domain."""

    #: difference-type kernels depend on t - tau only and take the FFT
    #: convolution path, O(n log n), which samples the cofactor at
    #: ``(t_j, a)`` only; all others take the hierarchical engine,
    #: O(n * _LEAF) cofactor evaluations, batched per tree level
    is_difference: bool = False
    #: strength ``s`` in [0, 1) of the ``(t - tau)**(-s)`` diagonal singularity
    singularity_exponent: float = 0.0

    def cofactor(self, x, y) -> np.ndarray:
        """Bounded part ``k(x, y) * (x - y)**s`` for ``y <= x`` elementwise.

        It is the only way a kernel is sampled.  The right-sided integral
        asks for ``cofactor(tau, t)`` with ``tau >= t`` at the reflected
        nodes, and a difference-type kernel is asked once per rule, for
        ``cofactor(t_j, a)`` at every node ``t_j``.

        Far from the diagonal the engine samples each block at Chebyshev
        points between the nodes and at the nodes of its first column and
        last row only, so a non-finite value at other nodes may go unseen:
        the cofactor must be finite there except on the diagonal (continued
        linearly when ``s > 0``) and at the interval corners (extrapolated;
        see ``_mend_row``).  A non-finite value between nodes sends its
        block to the dense code, which samples nodes.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class DifferenceKernel(Kernel):
    """Bounded convolution kernel ``k(t, tau) = h(t - tau)``."""

    h: Callable[[float], float]
    is_difference = True

    def cofactor(self, x, y) -> np.ndarray:
        return _evaluate(self.h, np.asarray(x) - np.asarray(y))


def _check_order(order: float) -> None:
    """Raise ``DomainError`` unless ``order`` lies in (0, 1)."""
    if not 0.0 < order < 1.0:
        raise DomainError(f"order must lie in (0, 1), got {order}")


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
        _check_order(self.order)

    @property
    def singularity_exponent(self) -> float:
        return 1.0 - self.order if self.variant == "integral" else self.order

    def _const(self) -> float:
        if self.variant == "integral":
            return 1.0 / gamma(self.order)
        return 1.0 / gamma(1.0 - self.order)

    def cofactor(self, x, y) -> np.ndarray:
        return np.full(np.broadcast(x, y).shape, self._const())


@dataclass(frozen=True)
class HadamardKernel(Kernel):
    """Logarithmic kernel ``log(t/tau)**(order-1) / (Gamma(order) tau)``.

    Lives on multiplicative time: its cofactor rejects times ``<= 0``, and
    every operator samples it at ``a``.  The cofactor is evaluated through
    ``log1p((t-tau)/tau) / (t-tau)``, which stays well conditioned up to
    the diagonal, where it equals ``1/tau``.
    """

    order: float

    def __post_init__(self) -> None:
        _check_order(self.order)

    @property
    def singularity_exponent(self) -> float:
        return 1.0 - self.order

    def cofactor(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0.0):
            raise DomainError("logarithmic kernel needs strictly positive times")
        # in place: a diagonal tile's full-size temporaries fault in afresh
        d = np.subtract(x, y, out=np.empty(np.broadcast(x, y).shape))
        off, ratio = d > 0.0, np.divide(d, y, out=np.empty_like(d))
        np.divide(np.log1p(ratio, out=ratio), d, out=ratio, where=off)
        np.divide(1.0, y, out=ratio, where=~off)
        np.power(ratio, self.order - 1.0, out=ratio)
        return np.divide(ratio, np.multiply(gamma(self.order), y, out=d), out=ratio)


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
        # in place, as in HadamardKernel; a 0-d ``d`` keeps scalar calls working
        d = np.subtract(x, y, out=np.empty(np.broadcast(x, y).shape))
        np.maximum(d, 0.0, out=d)
        return np.multiply(kv, np.power(d, s, out=d), out=d)


def _fft_size(m: int) -> int:
    """Smallest ``2**a * 3**b * 5**c`` at or above ``m >= 1``."""
    best, five = 1 << (m - 1).bit_length(), 1
    while five < best:
        odd = five
        while odd < best:
            best = min(best, odd << ((m - 1) // odd).bit_length())
            odd *= 3
        five *= 5
    return best


def _convolve(y: np.ndarray, length: int, count: int, discard: int = 0):
    """Function from a stack of rows of ``length`` entries to the first
    ``count`` entries of each row's linear convolution with ``y``, whose
    spectrum is computed once.  Both are zero-padded to the smallest
    5-smooth length (``_fft_size``) at or above
    ``length + len(y) - 1 - discard``: the circular convolution of the
    real FFT then wraps only into the first ``discard`` entries, which the
    caller throws away."""
    size = _fft_size(length + len(y) - 1 - discard)
    spectrum = np.fft.rfft(y, size)
    return lambda x: np.fft.irfft(np.fft.rfft(x, size, axis=1) * spectrum, size, axis=1)[:, :count]


def _profile(kernel: Kernel, grid: Grid) -> np.ndarray:
    """Cofactor ``c(t_j, a)`` of a difference kernel at every lag ``t_j - a``."""
    prof = np.asarray(kernel.cofactor(grid.nodes, grid.a), dtype=float)
    if not np.all(np.isfinite(prof)):
        bad = int(np.flatnonzero(~np.isfinite(prof))[0])
        raise NumericError(f"kernel profile non-finite at lag index {bad}")
    return prof


def _apply_left(kernel: Kernel, grid: Grid):
    """Left-sided integral rule of ``kernel`` on ``grid``, for any side
    weights (see ``_two_sided`` for when it is built): a
    function ``rule(rows, out, weight, right)`` that adds ``weight`` times
    each row's values into ``out`` and returns the set of flagged nodes.
    With ``right`` set it is the rule on the reflected interval, which
    ``_two_sided`` hands the reversed rows and output; a difference kernel
    ignores it, as its tables, profile and spectrum serve both sides.

    Flagged nodes hold no trustworthy value (NaN placeholder); they arise
    only when a kernel declared bounded turns out non-finite at an
    interval corner, depend on the kernel and grid alone, and are patched
    afterwards by the caller.  Difference kernels transform ``_ROW_GROUP``
    rows at a time; other kernels run the engine once per side.
    """
    n, h = grid.n, grid.h
    mu = 1.0 - kernel.singularity_exponent
    t1, t2 = lags = _lag_tables(mu, n + 1)
    chebyshev: dict = {}

    if kernel.is_difference:
        prof = _profile(kernel, grid)
        # node 0 is set to zero below, so it may take the wrapped terms
        convolve = _convolve((t1 + t2) * prof, n + 1, n + 1, discard=1)
        start = t2 * prof

        def values(fv):
            out = h ** mu * (convolve(fv) - start * fv[:, :1])
            out[:, 0] = 0.0
            return out

    def rule(rows, out, weight, right):
        if kernel.is_difference:
            return _grouped(values, rows, out, weight)
        # the first node's weight has no T2 part
        tail = np.pad(rows[:, 1:], ((0, 0), (1, 0)))
        return _left_engine(kernel, grid, right, lags, chebyshev, rows, tail, h ** mu, out, weight)

    return rule


def _grouped(values, rows: np.ndarray, out: np.ndarray, weight: float) -> set:
    """Add ``weight`` times ``values`` of each ``_ROW_GROUP`` rows into ``out``; flag no node."""
    for lo in range(0, len(rows), _ROW_GROUP):
        out[lo : lo + _ROW_GROUP] += weight * values(rows[lo : lo + _ROW_GROUP])
    return set()


def _left_engine(kernel: Kernel, grid: Grid, right: bool, lags, chebyshev: dict,
                 x1: np.ndarray, x2: np.ndarray, scale: float, into, weight: float):
    """Left-sided engine of non-difference kernels, shared by the K and B rules.

    Adds ``weight * out_rj`` to ``into``, for every row ``r`` of ``x1`` and
    ``x2`` (shape ``(rows, n + 1)``) and every node ``j``, where

        out_rj = scale * sum_{i <= j} c(t_j, t_i) (T1[j-i] x1_ri + T2[j-i] x2_ri)

    with the cofactor ``c`` and the lag tables ``lags = (T1, T2)`` of ``_lag_tables``.
    On the left ``t`` are the grid nodes and ``c`` is ``kernel.cofactor``.
    With ``right`` set, ``t`` are the reflected nodes ``a + b - t`` and
    ``c(x, y)`` is ``kernel.cofactor(y, x)``, which turns the right-sided
    integral of the reversed rows into this left-sided one.
    The lower triangle is split dyadically (Hackbusch, Computing 62, 1999)
    and walked level by level: first the far blocks
    ``[mid, hi) x [lo, mid)`` of each level, from the top level down and
    left to right, then the diagonal tiles of at most ``_LEAF`` rows, which
    are evaluated densely.  So every row takes its far terms from the top
    level first and its tile last.  A far block has a smooth cofactor,
    interpolated from Chebyshev points in one call for all blocks of a
    level that share a shape (the ragged last block, if any, has its own);
    a block whose interpolant misses its first column or last row is
    summed densely on its own.  How a kept block is applied depends on the
    declared singularity exponent ``s``:

    - ``s == 0``: every far block has lag >= 1, where a bounded kernel's
      weights are the trapezoid's, ``T1 = T2 = 1/2``, as the tables hold
      them.  So the block's interpolant (``_far_interpolants``) acts on
      ``(x1 + x2) / 2`` over its columns, O(_CHEB * (rows + columns)) per
      row, with no SVD and no FFT.
    - ``s > 0``: ``_far_factors`` recompresses the interpolant by SVD to a
      few rows and columns ``u.T @ v``, and the lag weights are applied
      exactly, as one FFT middle product of ``T1``, ``T2`` against
      ``v * x1``, ``v * x2`` for the whole level, whose lag spectra are
      formed once per level.

    The barycentric tables in ``chebyshev`` depend on block lengths only, so
    they are built once per rule and serve both sides and every later call
    of it.  All else that does not depend on the rows is built once per
    call; the rows are summed ``_ROW_GROUP`` at a time.  Returns the
    flagged nodes (NaN in ``into``).
    """
    n, s = grid.n, kernel.singularity_exponent
    ab = grid.a + grid.b
    t = ab - grid.nodes if right else grid.nodes
    cofactor = (lambda x, y: kernel.cofactor(y, x)) if right else kernel.cofactor

    def evaluate(x, y) -> np.ndarray:
        """``c(x, y)`` as floats, non-finite values included."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.array(cofactor(x, y), dtype=float)

    def between(j, i) -> np.ndarray:
        """``evaluate`` at fractional node indices, reflected like ``t``."""
        x, y = grid.a + grid.h * j, grid.a + grid.h * i
        return evaluate(ab - x, ab - y) if right else evaluate(x, y)

    def sample(j, i) -> np.ndarray:
        """``c(t[j], t[i])``; a non-finite entry raises ``NumericError``."""
        c = evaluate(t[j], t[i])
        if not np.all(np.isfinite(c)):
            bad = int(np.flatnonzero(~np.isfinite(c))[0])
            node, index = (int(a.flat[bad]) for a in np.broadcast_arrays(j, i))
            raise NumericError(f"kernel evaluation non-finite at node {node} (sample index {index})")
        return c

    out = np.zeros(x1.shape)
    groups = [slice(r, r + _ROW_GROUP) for r in range(0, len(x1), _ROW_GROUP)]
    flagged: set[int] = set()
    patterns: dict = {}

    def tile(lo: int, hi: int) -> None:
        """Add the exact sum over columns ``[lo, j]`` to ``out_rj`` for rows
        ``j`` in ``[lo, hi)``.

        Row ``j`` is one contiguous segment of a flat sample that starts two
        columns left of ``lo``, so that a non-finite diagonal sample of a
        singular kernel is continued linearly, ``2 c[j-1] - c[j-2]``, for
        every row at once.  A row still non-finite after that (the first
        row off the endpoint, and corner rows) is evaluated in full and
        mended or flagged by ``_mend_row``, exactly as a row on its own.
        Index patterns and lag tables are built once per tile shape.
        """
        first = max(lo - 2, 0)
        shape = (lo - first, hi - first)
        if shape not in patterns:
            rows = np.arange(max(lo, 1), hi) - first
            counts = rows + 1
            starts = np.cumsum(counts) - counts
            rj = np.repeat(rows, counts)
            ci = np.arange(rj.size) - np.repeat(starts, counts)
            # the columns left of lo only continue the diagonal; the far
            # block sums them
            t1, t2, left = lags[0][rj - ci], lags[1][rj - ci], starts[:, None] + np.arange(lo - first)
            t1[left] = t2[left] = 0.0
            patterns[shape] = rows, counts, starts, rj, ci, t1, t2
        rows, counts, starts, rj, ci, t1, t2 = patterns[shape]
        nodes = t[first:]
        c = evaluate(nodes[rj], nodes[ci])
        if s > 0.0:
            ends = starts + counts - 1
            gap = ends[(rows + first >= 2) & ~np.isfinite(c[ends])]
            with np.errstate(invalid="ignore"):
                c[gap] = 2.0 * c[gap - 1] - c[gap - 2]
        for k in np.flatnonzero(np.logical_or.reduceat(~np.isfinite(c), starts)):
            j = first + int(rows[k])
            row = evaluate(t[j], t[: j + 1])
            if not np.all(np.isfinite(row)) and _mend_row(row, j, t, s, cofactor) == "flag":
                flagged.add(j)
                row = np.zeros_like(row)
            c[starts[k] : starts[k] + counts[k]] = row[first:]
        for g in groups:
            # np.take keeps a one-row gather as fast as 1-D indexing
            weight = np.take(x1[g, first:], ci, axis=1) * t1 + np.take(x2[g, first:], ci, axis=1) * t2
            weight *= c
            out[g, first + rows[0] : hi] += np.add.reduceat(weight, starts, axis=1)

    def far_dense(lo: int, mid: int, hi: int) -> None:
        """Add the exact far block ``[mid, hi) x [lo, mid)`` to ``out``, in
        passes of about one diagonal tile's entries."""
        width = mid - lo
        step = max(1, _LEAF * _LEAF // (2 * width))
        # row j weighs column lo + i by T[j - lo - i]: a window of the
        # reversed table, starting at n - (j - lo)
        toeplitz = [np.lib.stride_tricks.sliding_window_view(lag[::-1], width) for lag in lags]
        for j0 in range(mid, hi, step):
            j1 = min(j0 + step, hi)
            c = sample(np.arange(j0, j1)[:, None], np.arange(lo, mid))
            bands = [view[n - (j1 - 1 - lo) : n - (j0 - lo) + 1][::-1] for view in toeplitz]
            for g in groups:
                for x, band in zip((x1, x2), bands):
                    out[g, j0:j1] += np.einsum("ji,ji,ri->rj", c, band, x[g, lo:mid])

    def far_interpolated(los, half: int, rows: int, cores) -> None:
        """Add the far blocks ``[lo + half, lo + half + rows) x [lo, lo + half)``
        of one level, each ``to_rows.T @ core_b @ to_cols`` (see
        ``_far_interpolants``), to ``out``.  A bounded kernel's lag weights
        at every lag >= 1 are the trapezoid's, ``T1 = T2 = 1/2``, so each
        block acts on the mean of ``x1`` and ``x2`` over its columns:
        three products per row, one ``matmul`` each over the level's
        blocks, which numpy runs as the same gemm for every row of a
        stack."""
        to_rows, to_cols = chebyshev[rows][1], chebyshev[half][1]
        cols, at = los[:, None] + np.arange(half), los[:, None] + half + np.arange(rows)
        for g in groups:
            y = mean[g][:, cols] @ to_cols.T
            out[g, at] += (cores @ y[..., None])[..., 0] @ to_rows

    def far_factored(los, half: int, rows: int, u, v, ranks) -> None:
        """Add the far blocks ``[lo + half, lo + half + rows) x [lo, lo + half)``
        of one level, each ``u_b.T @ v_b`` (see ``_far_factors``), to ``out``:
        one FFT middle product of ``T1``, ``T2`` against ``v * x1``,
        ``v * x2`` for all the level's rank rows at once, with the level's
        lag ``spectra``, each row taking its block's columns, summed back
        per block by ``np.add.reduceat``."""
        size = 2 * half
        cols, at = los[:, None] + np.arange(half), los[:, None] + half + np.arange(rows)
        starts = np.cumsum(ranks) - ranks
        for g in groups:
            mixed = 0.0
            for x, spectrum in zip((x1, x2), spectra):
                w = np.repeat(x[g][:, cols], ranks, axis=1)
                w *= v
                w = np.fft.rfft(w, size)
                w *= spectrum
                mixed += w
            z = np.fft.irfft(mixed, size)[..., half : half + rows]
            z *= u
            out[g, at] += np.add.reduceat(z, starts, axis=1)

    if s == 0.0:
        mean = 0.5 * (x1 + x2)
        compress, expand = _far_interpolants, far_interpolated
    else:
        compress, expand = _far_factors, far_factored
    size = _LEAF
    while size < n + 1:
        size *= 2
    while size > _LEAF:
        half = size // 2
        if s > 0.0:
            # read by far_factored
            spectra = [np.fft.rfft(lag[:size], size) for lag in lags]
        mids = np.arange(half, n + 1, size)
        heights = np.minimum(mids + half, n + 1) - mids
        # the full blocks, then the ragged last one, if any
        for rows in map(int, np.unique(heights)[::-1]):
            los = mids[heights == rows] - half
            kept, *factors = compress(sample, between, los, half, rows, chebyshev)
            for lo in los[~kept]:
                far_dense(lo, lo + half, lo + half + rows)
            if kept.any():
                expand(los[kept], half, rows, *factors)
        size = half
    for lo in range(0, n + 1, _LEAF):
        tile(lo, min(lo + _LEAF, n + 1))
    out *= scale
    out[:, sorted(flagged)] = np.nan
    out *= weight
    into += out
    return flagged


def _far_cores(between, los: np.ndarray, half: int, rows: int, chebyshev: dict):
    """Chebyshev cores of the far blocks of one tree level: nodes
    ``[lo + half, lo + half + rows) x [lo, lo + half)`` for each ``lo`` in
    ``los``, where ``between(x, y)`` returns the cofactor at fractional node
    indices, non-finite values included.

    Returns ``(live, core, to_rows, to_cols)``: ``live`` indexes the blocks
    of ``los`` whose core, sampled in one call on the tensor grid of the
    block's row and column Chebyshev points, is finite and not all zero
    (which could not prove the block zero), ``core`` holds those cores,
    shape ``(len(live), _CHEB, _CHEB)``, and the barycentric Lagrange
    matrices ``to_rows`` (``_CHEB x rows``) and ``to_cols``
    (``_CHEB x half``), kept in ``chebyshev`` by length, carry a core to the
    nodes: block ~ ``to_rows.T @ core @ to_cols`` (Fong & Darve, J. Comput.
    Phys. 228, 2009; Berrut & Trefethen, SIAM Rev. 46, 2004).  A level with
    fewer rows than points has no live block.
    """
    if rows < _CHEB:
        return np.zeros(0, dtype=int), None, None, None
    for length in (rows, half):
        if length not in chebyshev:
            # no point falls on a node for lengths 2 to 2,000,000; one that
            # did would make its node NaN and fail _fits
            points = 0.5 * (length - 1) * (1.0 + _CHEB_POINTS)
            q = _CHEB_WEIGHTS[:, None] / (np.arange(length) - points[:, None])
            chebyshev[length] = points, q / q.sum(axis=0)
    (row_points, to_rows), (col_points, to_cols) = chebyshev[rows], chebyshev[half]
    core = between((los + half)[:, None, None] + row_points[:, None], los[:, None, None] + col_points)
    live = np.flatnonzero(np.isfinite(core).all(axis=(1, 2)) & core.any(axis=(1, 2)))
    return live, core[live], to_rows, to_cols


def _fits(sample, los: np.ndarray, half: int, rows: int, first_fit, last_fit, limit) -> np.ndarray:
    """Which far blocks of ``los`` (as in ``_far_cores``) meet their
    approximations ``first_fit`` of the first column and ``last_fit`` of
    the last row to ``limit`` per block.  ``sample(j, i)`` returns the
    cofactor at node indices and raises on a non-finite value; both sides
    are sampled in full, one call each for all blocks.  A resolved block
    leaves entries below the tolerance times the core's size; a jump or
    kink that interpolation cannot follow leaves them near its own size,
    and a NaN fails too."""
    mids = los + half
    first = sample(mids[:, None] + np.arange(rows), los[:, None])
    last = sample(mids[:, None] + rows - 1, los[:, None] + np.arange(half))
    return ((np.abs(first - first_fit).max(axis=1) <= limit)
            & (np.abs(last - last_fit).max(axis=1) <= limit))


def _far_factors(sample, between, los: np.ndarray, half: int, rows: int, chebyshev: dict):
    """Low-rank factors of the cofactor on the far blocks of one tree level
    of a singular kernel (see ``_far_cores`` and ``_fits`` for the
    arguments and the sampling).

    Returns ``(kept, u, v, ranks)``: ``kept`` marks the blocks of ``los``
    that were compressed, and the ``b``-th of them is ``u_b.T @ v_b``,
    where ``u_b`` and ``v_b`` are its ``ranks[b]`` consecutive rows of
    ``u`` (``rows`` columns) and ``v`` (``half`` columns).  The other
    blocks should be evaluated densely.

    The live cores are recompressed by one batched SVD to ``_FAR_TOL`` of
    each largest singular value ``s1`` and carried to the nodes.  A block
    goes dense if it has no live core, or if its first column or last row
    misses its factors by more than ``10 * _FAR_TOL * s1``.
    """
    kept = np.zeros(len(los), dtype=bool)
    live, core, to_rows, to_cols = _far_cores(between, los, half, rows, chebyshev)
    if not len(live):
        return kept, None, None, None
    left, sv, right = np.linalg.svd(core)
    ranks = np.count_nonzero(sv > _FAR_TOL * sv[:, :1], axis=1)
    leading = np.arange(_CHEB) < ranks[:, None]
    # einsum, not BLAS: with more than one BLAS thread a small gemm can stall
    u = np.einsum("kp,pr->kr", (left * sv[:, None, :]).transpose(0, 2, 1)[leading], to_rows)
    v = np.einsum("kp,pc->kc", right[leading], to_cols)
    starts = np.cumsum(ranks) - ranks
    ok = _fits(sample, los[live], half, rows, np.add.reduceat(v[:, :1] * u, starts),
               np.add.reduceat(u[:, -1:] * v, starts), 10.0 * _FAR_TOL * sv[:, 0])
    kept[live[ok]] = True
    own = np.repeat(ok, ranks)
    return kept, u[own], v[own], ranks[ok]


def _far_interpolants(sample, between, los: np.ndarray, half: int, rows: int, chebyshev: dict):
    """Chebyshev interpolants of the cofactor on the far blocks of one tree
    level of a bounded kernel (see ``_far_cores`` and ``_fits`` for the
    arguments and the sampling).

    Returns ``(kept, cores)``: ``kept`` marks the blocks of ``los`` that
    were compressed, and the ``b``-th of them is
    ``to_rows.T @ cores[b] @ to_cols``.  The other blocks should be
    evaluated densely.  No core is recompressed: a bounded kernel's lag
    weights need no FFT (see ``_left_engine``), so the interpolant costs
    the same whatever its rank.  A block goes dense if it has no live
    core, or if its first column or last row misses its interpolant by
    more than ``10 * _FAR_TOL`` times the core's largest entry, which is
    at most its largest singular value.
    """
    kept = np.zeros(len(los), dtype=bool)
    live, core, to_rows, to_cols = _far_cores(between, los, half, rows, chebyshev)
    if not len(live):
        return kept, None
    ok = _fits(sample, los[live], half, rows, (core @ to_cols[:, 0]) @ to_rows,
               (to_rows[:, -1] @ core) @ to_cols, 10.0 * _FAR_TOL * np.abs(core).max(axis=(1, 2)))
    kept[live[ok]] = True
    return kept, core[ok]


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


def _patch_corners(values: np.ndarray, bad: set, n: int) -> None:
    """Extrapolate the corner-adjacent garbage nodes of every row, with one
    warning.  Each corner fits the ``_CORNER_FIT`` nodes next to its patch;
    ``NumericError`` if they leave ``[0, n]`` or reach the other patch."""
    left = [i for i in bad if i <= n // 2]
    right = [i for i in bad if i > n // 2]
    hi = max(left) + _CORNER_PAD if left else -1  # the left corner patches 0..hi
    lo = min(right) - _CORNER_PAD if right else n + 1  # the right one lo..n
    if lo - hi <= _CORNER_FIT:
        corners = " and ".join(name for name, side in (("left", left), ("right", right)) if side)
        raise NumericError(
            f"the {corners} corner fit needs {_CORNER_FIT} clean nodes; "
            f"a grid with n={n} leaves {lo - hi - 1}"
        )
    for cluster, fit, fix in (
        (left, np.arange(hi + 1, hi + 1 + _CORNER_FIT), np.arange(0, hi + 1)),
        (right, np.arange(lo - _CORNER_FIT, lo), np.arange(lo, n + 1)),
    ):
        if cluster:
            coeffs = np.polyfit(fit.astype(float), values[:, fit].T, 2)
            values[:, fix] = np.polyval(coeffs, fix[:, None].astype(float)).T
    patched = (hi + 1) + (n + 1 - lo)
    warnings.warn(
        f"extrapolated {patched} corner-adjacent output nodes in each row",
        CornerExtrapolationWarning,
        stacklevel=_outside_stacklevel(),
    )


def _two_sided(p: ParameterSet, kernel: Kernel, grid: Grid, rows: np.ndarray, left_rule):
    """``lam * left + mu * right`` of each row of ``rows``, shape
    ``(rows, n + 1)``, with corner patching.

    ``left_rule`` (``_apply_left`` or ``_bapply_left``) builds the rule,
    which serves both sides and does not depend on ``p``, and it is handed
    the whole stack and the output, both reversed for the right side.
    Outside a ``foundation._run_memo`` each call builds its rule; inside
    one, the rule is kept under ``(left_rule, kernel, grid)`` (kernels and
    grids compare by value) and built once for the run.  With both side
    weights zero nothing is built and the result is zeros.
    """
    _check_interval(grid, p.a, p.b)
    n, out, bad = grid.n, np.zeros(rows.shape), set()
    if p.lam == 0.0 and p.mu == 0.0:
        return out
    memo, key = _RUN_MEMO.get(), (left_rule, kernel, grid)
    rule = memo[key] if memo is not None and key in memo else left_rule(kernel, grid)
    if memo is not None:
        memo[key] = rule
    if p.lam != 0.0:
        bad |= rule(rows, out, p.lam, False)
    if p.mu != 0.0:
        bad |= {n - j for j in rule(rows[:, ::-1], out[:, ::-1], p.mu, True)}
    if bad:
        _patch_corners(out, bad, n)
    if not np.all(np.isfinite(out)):
        _, bad_node = np.argwhere(~np.isfinite(out))[0]
        raise InputError(f"non-finite sample at node {bad_node}")
    return out


def k_apply(p: ParameterSet, kernel: Kernel, f: SampledFunction) -> SampledFunction:
    """Apply the two-sided integral operator to sampled data.

    The left integral uses product-integration weights that are exact for
    the piecewise-linear interpolant of the bounded cofactor times ``f``;
    the right integral reuses the same machinery on the reflected
    interval.
    """
    return SampledFunction(f.grid, _two_sided(p, kernel, f.grid, f.values[None], _apply_left)[0])


def _outside(p: ParameterSet, images: np.ndarray, h: float) -> np.ndarray:
    """A's rule on K images, shape ``(rows, n + 1)``: the grid derivative,
    continued linearly from the two nearest nodes at each active endpoint
    (left when ``lam != 0``, right when ``mu != 0``), where it may be unbounded."""
    d = np.gradient(images, h, axis=1, edge_order=2)
    if p.lam != 0.0:
        d[:, 0] = 2.0 * d[:, 1] - d[:, 2]
    if p.mu != 0.0:
        d[:, -1] = 2.0 * d[:, -2] - d[:, -3]
    return d


def a_apply(p: ParameterSet, kernel: Kernel, f: SampledFunction) -> SampledFunction:
    """Derivative-outside operator: A's rule (``_outside``) on ``k_apply``."""
    return SampledFunction(f.grid, _outside(p, k_apply(p, kernel, f).values[None], f.grid.h)[0])


def _bapply_left(kernel: Kernel, grid: Grid):
    """Rule for the left integral of the kernel against the cell derivative
    of each row, in the form of ``_apply_left`` and kept as it is.

    The derivative inside the composition is the exact (cellwise
    constant) derivative of the piecewise-linear interpolant, so the
    interpolation error of ``f`` telescopes within each cell instead of
    polluting the quadrature near a startup cusp.  On the right side it
    negates ``weight``: the reversed rows' derivative is the reversed
    derivative with its sign changed.
    """
    n, h = grid.n, grid.h
    mu = 1.0 - kernel.singularity_exponent
    t1, t2 = lags = _lag_tables(mu, n + 1)
    chebyshev: dict = {}

    if kernel.is_difference:
        prof = _profile(kernel, grid)
        convolve = _convolve(prof[1:] * t1[1:] + prof[:-1] * t2[:-1], n, n)

        def values(fv):
            return np.pad(h ** (mu - 1.0) * convolve(np.diff(fv, axis=1)), ((0, 0), (1, 0)))

    def rule(rows, out, weight, right):
        weight = -weight if right else weight
        if kernel.is_difference:
            return _grouped(values, rows, out, weight)
        # cell i carries A - B at its left node and B at its right node
        df = np.diff(rows, axis=1)
        x1, x2 = np.pad(df, ((0, 0), (0, 1))), np.pad(df, ((0, 0), (1, 0)))
        return _left_engine(kernel, grid, right, lags, chebyshev, x1, x2, h ** (mu - 1.0), out,
                            weight)

    return rule


def b_apply(p: ParameterSet, kernel: Kernel, f: SampledFunction) -> SampledFunction:
    """Derivative-inside operator: kernel integral of the derivative of ``f``."""
    return SampledFunction(f.grid, _two_sided(p, kernel, f.grid, f.values[None], _bapply_left)[0])


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

    ``order`` is a float in ``(0, 1)``, which the kernel built from it checks.
    """
    return SampledFunction(f.grid, _classical_rows(op, order, f.grid, f.values[None])[0])


def _classical_rows(op, order: float, grid: Grid, rows: np.ndarray) -> np.ndarray:
    """``classical`` of each row of ``rows``, shape ``(rows, n + 1)``, in one
    stacked call; each row's values are those of ``classical`` on it alone."""
    try:
        op = ClassicalOp(op)
    except ValueError:
        raise ConfigurationError(f"unknown operator name {op!r}") from None
    if callable(order):
        raise ConfigurationError(f"{op.value} takes a constant order, not a callable")

    left = ParameterSet(grid.a, grid.b, 1.0, 0.0)
    right = ParameterSet(grid.a, grid.b, 0.0, 1.0)
    if op is ClassicalOp.RL_INT_LEFT:
        return _two_sided(left, PowerLawKernel(order, "integral"), grid, rows, _apply_left)
    if op is ClassicalOp.RL_INT_RIGHT:
        return _two_sided(right, PowerLawKernel(order, "integral"), grid, rows, _apply_left)
    if op is ClassicalOp.RL_DER_LEFT:
        kernel = PowerLawKernel(order, "derivative")
        return _outside(left, _two_sided(left, kernel, grid, rows, _apply_left), grid.h)
    if op is ClassicalOp.RL_DER_RIGHT:
        kernel = PowerLawKernel(order, "derivative")
        return -_outside(right, _two_sided(right, kernel, grid, rows, _apply_left), grid.h)
    if op is ClassicalOp.CAPUTO_LEFT:
        return _two_sided(left, PowerLawKernel(order, "derivative"), grid, rows, _bapply_left)
    if op is ClassicalOp.CAPUTO_RIGHT:
        return -_two_sided(right, PowerLawKernel(order, "derivative"), grid, rows, _bapply_left)
    return _two_sided(left, HadamardKernel(order), grid, rows, _apply_left)


def boundedness_constant(order: float, a: float, b: float) -> float:
    """Operator-norm bound ``(b - a)**order / Gamma(order + 1)`` of the
    left power-law integral on square-integrable functions."""
    _check_order(order)
    _check_endpoints(a, b)
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
    # the sum's integral first, so a sum outside (0, 1) raises before any work
    direct = classical(ClassicalOp.RL_INT_LEFT, alpha + beta, f)
    staged = classical(ClassicalOp.RL_INT_LEFT, alpha, classical(ClassicalOp.RL_INT_LEFT, beta, f))
    return interior_sup(staged.values - direct.values)
