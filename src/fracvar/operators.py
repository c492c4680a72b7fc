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
Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).  Every other
kernel goes through one hierarchical engine shared by the K and B rules:
the lower triangle is split dyadically, diagonal tiles of 256 rows are
evaluated densely, and each far block, where the cofactor is smooth, is
reduced by adaptive cross approximation (Bebendorf, Numer. Math. 86,
2000) to a few sampled rows and columns whose lag weights are applied by
FFT.  That costs O(n * 256) cofactor evaluations and O(n log**2 n)
arithmetic instead of the (n + 1)(n + 2) / 2 evaluations of a full
triangle.  The right-sided integral is the left-sided one of the
reversed samples at the reflected nodes ``a + b - t``, where the engine
samples the cofactor with its arguments swapped; a difference kernel
reflects onto itself, so its path ignores the side and samples its
cofactor once, at ``(t_j, a)``: the cofactor at every lag ``t_j - a``.
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
    Grid,
    SampledFunction,
    _check_interval,
    _evaluate,
    _pi_coefficients,
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

# Rows per diagonal tile of the non-difference engine, and the relative
# tolerance of its cross approximation of far blocks; see _left_engine.
_LEAF = 256
_ACA_TOL = 1e-13
# A far block that needs more cross-approximation terms than this is not
# smooth (a kink or a cut-off crosses it) and goes to the dense code; each
# term costs O(rank) more than the last.  Smooth kernels tried needed <= 18.
_ACA_MAX_RANK = 32
# Rows per FFT call of the difference rules and per tile or far-block pass of
# the engine.  At n = 4096 a group's temporaries exceed one row's by < 1 MB and
# 2-4 MB, and a difference group takes about 0.7 of the time of single rows.
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
        for name in ("a", "b", "lam", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"parameter {name} must be finite")
        if not self.b > self.a:
            raise InputError(f"parameter set needs b > a, got a={self.a}, b={self.b}")
        if self.lam == 0.0 and self.mu == 0.0:
            warnings.warn("both side weights are zero; the operator is trivial", UserWarning)


def dual(p: ParameterSet) -> ParameterSet:
    """Parameter set with the side weights swapped."""
    return ParameterSet(p.a, p.b, p.mu, p.lam)


class Kernel:
    """Base interface: diagonal singularity strength plus bounded cofactor."""

    #: difference-type kernels depend on t - tau only and take the FFT
    #: convolution path, O(n log n), which samples the cofactor at
    #: ``(t_j, a)`` only; all others take the hierarchical engine,
    #: O(n * 256) cofactor evaluations
    is_difference: bool = False
    #: kernels on multiplicative time need a strictly positive interval
    requires_positive_domain: bool = False
    #: strength ``s`` in [0, 1) of the ``(t - tau)**(-s)`` diagonal singularity
    singularity_exponent: float = 0.0

    def cofactor(self, x, y) -> np.ndarray:
        """Bounded part ``k(x, y) * (x - y)**s`` for ``y <= x`` elementwise.

        It is the only way a kernel is sampled.  The right-sided integral
        asks for ``cofactor(tau, t)`` with ``tau >= t`` at the reflected
        nodes, and a difference-type kernel is asked once per call, for
        ``cofactor(t_j, a)`` at every node ``t_j``.

        Far from the diagonal the engine samples a few rows and columns of
        each block instead of every entry, so a non-finite value there may
        go unseen: the cofactor must be finite everywhere except on the
        diagonal (continued linearly when ``s > 0``) and at the interval
        corners (extrapolated; see ``_mend_row``).  The first column is
        always evaluated in full.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class DifferenceKernel(Kernel):
    """Bounded convolution kernel ``k(t, tau) = h(t - tau)``."""

    h: Callable[[float], float]
    is_difference = True

    def cofactor(self, x, y) -> np.ndarray:
        return _evaluate(self.h, np.asarray(x) - np.asarray(y))


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
        if not 0.0 < self.order < 1.0:
            raise DomainError(f"order must lie in (0, 1), got {self.order}")

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

    Lives on multiplicative time, so the interval must satisfy ``a > 0``.
    The cofactor is evaluated through ``log1p((t-tau)/tau) / (t-tau)``,
    which stays well conditioned up to the diagonal, where it equals
    ``1/tau``.
    """

    order: float
    requires_positive_domain = True

    def __post_init__(self) -> None:
        if not 0.0 < self.order < 1.0:
            raise DomainError(f"order must lie in (0, 1), got {self.order}")

    @property
    def singularity_exponent(self) -> float:
        return 1.0 - self.order

    def cofactor(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0.0):
            raise DomainError("logarithmic kernel needs strictly positive times")
        d = x - y
        safe = np.where(d > 0.0, d, 1.0)
        ratio = np.where(d > 0.0, np.log1p(d / y) / safe, 1.0 / y)
        return ratio ** (self.order - 1.0) / (gamma(self.order) * y)


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
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return kv * np.where(d > 0.0, d, 0.0) ** s


def _convolve(y: np.ndarray, length: int, count: int):
    """Function from a stack of rows of ``length`` entries to the first
    ``count`` entries of each row's linear convolution with ``y``, whose
    spectrum is computed once.  Both are zero-padded to the power of two
    at or above ``length + len(y) - 1``, so the circular convolution of
    the real FFT does not wrap around."""
    size = 1 << (length + len(y) - 2).bit_length()
    spectrum = np.fft.rfft(y, size)
    return lambda x: np.fft.irfft(np.fft.rfft(x, size, axis=1) * spectrum, size, axis=1)[:, :count]


def _difference_tables(kernel: Kernel, grid: Grid, count: int):
    """Shared setup of the difference-kernel paths.

    Returns the product-integration tables ``A(1..count)`` and
    ``B(1..count)`` of the quadrature exponent ``1 - s``, and the kernel
    profile ``c(t_j, a)``, the cofactor at every lag ``t_j - a``.
    """
    a_coef, b_coef = _pi_coefficients(1.0 - kernel.singularity_exponent, count)
    prof = np.asarray(kernel.cofactor(grid.nodes, grid.a), dtype=float)
    if not np.all(np.isfinite(prof)):
        bad = int(np.flatnonzero(~np.isfinite(prof))[0])
        raise NumericError(f"kernel profile non-finite at lag index {bad}")
    return a_coef, b_coef, prof


def _apply_left(kernel: Kernel, grid: Grid, right: bool):
    """Left-sided integral rule, with its tables built once: a function
    ``rule(rows, out, weight)`` that adds ``weight`` times each row's values
    into ``out`` and returns the set of flagged nodes.  With ``right`` set
    it is the rule on the reflected interval, which ``_two_sided`` hands
    the reversed rows; difference kernels reflect onto themselves.

    Flagged nodes hold no trustworthy value (NaN placeholder); they arise
    only when a kernel declared bounded turns out non-finite at an
    interval corner, depend on the kernel and grid alone, and are patched
    afterwards by the caller.  Difference kernels transform ``_ROW_GROUP``
    rows at a time; other kernels run the engine once for the whole stack.
    """
    n, h = grid.n, grid.h
    mu = 1.0 - kernel.singularity_exponent

    if kernel.is_difference:
        a_coef, b_coef, prof = _difference_tables(kernel, grid, n + 1)
        weights = np.empty(n + 1)
        weights[0] = b_coef[0]
        weights[1:] = (a_coef[:n] - b_coef[:n]) + b_coef[1:]
        convolve = _convolve(weights * prof, n + 1, n + 1)
        start = b_coef * prof

        def values(fv):
            out = h ** mu * (convolve(fv) - start * fv[:, :1])
            out[:, 0] = 0.0
            return out

        return _grouped(values)

    def rule(rows, out, weight):
        # the first node's weight has no B(j + 1) part
        tail = np.pad(rows[:, 1:], ((0, 0), (1, 0)))
        return _left_engine(kernel, grid, right, rows, tail, h ** mu, out, weight)

    return rule


def _grouped(values):
    """Rule of ``_apply_left``'s form from ``values`` of ``_ROW_GROUP`` rows."""

    def rule(rows, out, weight):
        for lo in range(0, len(rows), _ROW_GROUP):
            out[lo : lo + _ROW_GROUP] += weight * values(rows[lo : lo + _ROW_GROUP])
        return set()

    return rule


def _left_engine(kernel: Kernel, grid: Grid, right: bool, x1: np.ndarray, x2: np.ndarray,
                 scale: float, into, weight: float):
    """Left-sided engine of non-difference kernels, shared by the K and B rules.

    Adds ``weight * out_rj`` to ``into``, for every row ``r`` of ``x1`` and
    ``x2`` (shape ``(rows, n + 1)``) and every node ``j``, where

        out_rj = scale * sum_{i <= j} c(t_j, t_i) (T1[j-i] x1_ri + T2[j-i] x2_ri)

    with the cofactor ``c`` and the lag tables ``T1[0] = 0``,
    ``T1[k] = A(k) - B(k)`` and ``T2[k] = B(k + 1)`` of ``_pi_coefficients``.
    On the left ``t`` are the grid nodes and ``c`` is ``kernel.cofactor``.
    With ``right`` set, ``t`` are the reflected nodes ``a + b - t`` and
    ``c(x, y)`` is ``kernel.cofactor(y, x)``, which turns the right-sided
    integral of the reversed rows into this left-sided one.
    The lower triangle is split dyadically (Hackbusch, Computing 62, 1999).
    Diagonal tiles of at most ``_LEAF`` rows are evaluated densely.  Each
    far block ``[mid, hi) x [lo, mid)`` has a smooth cofactor, which
    ``_cross_approximation`` reduces to a few rows and columns ``u @ v``;
    the lag weights are then applied exactly, as one batched FFT middle
    product of ``T1``, ``T2`` against ``v * x1``, ``v * x2``.  A transform
    size of at least ``hi - lo`` keeps the wrapped terms out of the kept
    outputs.  Tile cofactors, far-block factors or samples and lag spectra
    do not depend on the rows: each is built once per call and applied
    ``_ROW_GROUP`` rows at a time.  Returns the flagged nodes (NaN in ``into``).
    """
    n, s = grid.n, kernel.singularity_exponent
    if right:
        t = (grid.a + grid.b) - grid.nodes

        def cofactor(x, y):
            return kernel.cofactor(y, x)
    else:
        t, cofactor = grid.nodes, kernel.cofactor

    def sample(j, i, check: bool = True) -> np.ndarray:
        """``c(t[j], t[i])`` as floats; unless ``check`` is off, a
        non-finite entry raises ``NumericError``."""
        with np.errstate(invalid="ignore", divide="ignore"):
            c = np.array(cofactor(t[j], t[i]), dtype=float)
        if check and not np.all(np.isfinite(c)):
            bad = int(np.flatnonzero(~np.isfinite(c))[0])
            node, index = (int(a.flat[bad]) for a in np.broadcast_arrays(j, i))
            raise NumericError(f"kernel evaluation non-finite at node {node} (sample index {index})")
        return c

    a_coef, b_coef = _pi_coefficients(1.0 - s, n + 1)
    lags = (np.concatenate(([0.0], a_coef[:n] - b_coef[:n])), b_coef)
    out = np.zeros(x1.shape)
    groups = [slice(r, r + _ROW_GROUP) for r in range(0, len(x1), _ROW_GROUP)]
    flagged: set[int] = set()

    def tile(lo: int, hi: int) -> None:
        """Add the exact sum over columns ``[lo, j]`` to ``out_rj`` for rows
        ``j`` in ``[lo, hi)``.

        Row ``j`` is one contiguous segment of a flat sample that starts two
        columns left of ``lo``, so that a non-finite diagonal sample of a
        singular kernel is continued linearly, ``2 c[j-1] - c[j-2]``, for
        every row at once.  A row still non-finite after that (the first
        row off the endpoint, and corner rows) is evaluated in full and
        mended or flagged by ``_mend_row``, exactly as a row on its own.
        """
        rows = np.arange(max(lo, 1), hi)
        first = max(lo - 2, 0)
        counts = rows - first + 1
        starts = np.cumsum(counts) - counts
        rj = np.repeat(rows, counts)
        ci = np.arange(rj.size) - np.repeat(starts - first, counts)
        c = sample(rj, ci, check=False)
        if s > 0.0:
            ends = starts + counts - 1
            gap = ends[(rows >= 2) & ~np.isfinite(c[ends])]
            with np.errstate(invalid="ignore"):
                c[gap] = 2.0 * c[gap - 1] - c[gap - 2]
        for k in np.flatnonzero(np.logical_or.reduceat(~np.isfinite(c), starts)):
            j = int(rows[k])
            row = sample(j, np.arange(j + 1), check=False)
            if not np.all(np.isfinite(row)) and _mend_row(row, j, t, s, cofactor) == "flag":
                flagged.add(j)
                row = np.zeros_like(row)
            c[starts[k] : starts[k] + counts[k]] = row[first:]
        # The columns left of lo only continue the diagonal; the far block
        # sums them.  A tile that keeps rj and lag alive while the rows run
        # crosses the allocator's trim threshold and faults every temporary
        # in afresh.
        lag = rj - ci
        t1, t2, left = lags[0][lag], lags[1][lag], starts[:, None] + np.arange(lo - first)
        t1[left] = t2[left] = 0.0
        del rj, lag
        for g in groups:
            # np.take keeps a one-row gather as fast as 1-D indexing
            weight = np.take(x1[g], ci, axis=1) * t1 + np.take(x2[g], ci, axis=1) * t2
            weight *= c
            out[g, rows[0] : hi] += np.add.reduceat(weight, starts, axis=1)

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

    spectra: dict = {}
    size = _LEAF
    while size < n + 1:
        size *= 2
    pending = [(0, size)]
    while pending:
        lo, size = pending.pop()
        hi = min(lo + size, n + 1)
        if size <= _LEAF:
            if hi > max(lo, 1):
                tile(lo, hi)
            continue
        mid = lo + size // 2
        pending.append((lo, size // 2))
        if mid >= hi:
            continue
        pending.append((mid, size // 2))
        factors = _cross_approximation(sample, lo, mid, hi)
        if factors is None:
            far_dense(lo, mid, hi)
            continue
        u, v = factors
        if size not in spectra:
            spectra[size] = [np.fft.rfft(lag[:size], size) for lag in lags]
        for g in groups:
            mixed = sum(np.fft.rfft(v * x[g, None, lo:mid], size) * spec
                        for x, spec in zip((x1, x2), spectra[size]))
            z = np.fft.irfft(mixed, size)[..., mid - lo : hi - lo]
            out[g, mid:hi] += np.einsum("rk,gkr->gr", u, z)
    out *= scale
    out[:, sorted(flagged)] = np.nan
    out *= weight
    into += out
    return flagged


def _cross_approximation(sample, lo: int, mid: int, hi: int):
    """Low-rank factors ``u @ v`` of the cofactor on the far block of nodes
    ``[mid, hi) x [lo, mid)``, or ``None`` when the block should be
    evaluated densely.  ``sample(j, i)`` returns the cofactor at node
    indices ``j`` and ``i`` and raises on a non-finite value.

    Partial-pivot adaptive cross approximation to ``_ACA_TOL`` relative to
    the Frobenius norm of the approximant: each step samples one residual
    row, pivots on its largest entry, samples that column, and moves on to
    the unused row where the new column is largest.  A residual row that
    is exactly zero restarts from the next unused one of nine evenly
    spaced rows.  A block that needs more than ``_ACA_MAX_RANK`` terms, or
    whose spaced rows are all zero before any term is found, is not smooth
    enough for this to pay.  Partial pivoting can miss part of a block, so
    the block's first column and last row are then sampled in full and
    checked against the factors; a mismatch also returns ``None``.
    """
    rows, cols = np.arange(mid, hi), np.arange(lo, mid)
    nr, nc = rows.size, cols.size
    cap = min(nr, nc, _ACA_MAX_RANK)
    u, v = np.empty((nr, cap)), np.empty((cap, nc))
    spread = iter(np.linspace(0, nr - 1, 9).astype(int))
    used = np.zeros(nr, dtype=bool)
    norm2 = 0.0
    i, k = 0, 0
    while True:
        used[i] = True
        row = sample(mid + i, cols) - u[i, :k] @ v[:k]
        p = int(np.argmax(np.abs(row)))
        if row[p] == 0.0:
            i = next((int(j) for j in spread if not used[j]), None)
            if i is None and k == 0:
                return None
            if i is None:
                break
            continue
        if k == cap:
            return None
        v[k] = row / row[p]
        u[:, k] = sample(rows, lo + p) - u[:, :k] @ v[:k, p]
        step2 = (u[:, k] @ u[:, k]) * (v[k] @ v[k])
        norm2 += 2.0 * (u[:, :k].T @ u[:, k]) @ (v[:k] @ v[k]) + step2
        k += 1
        if math.sqrt(step2) <= _ACA_TOL * math.sqrt(norm2) or used.all():
            break
        i = int(np.argmax(np.where(used, -1.0, np.abs(u[:, k - 1]))))
    # copies, so the unused capacity is freed before the caller's FFTs
    u, v = u[:, :k].copy(), v[:k].copy()
    first = sample(rows, lo)
    last = sample(hi - 1, cols)
    # a converged approximation leaves entries below the tolerance times
    # the approximant's norm; a missed feature leaves them near its size
    limit = 10.0 * _ACA_TOL * math.sqrt(norm2)
    if (np.abs(first - u @ v[:, 0]).max() > limit
            or np.abs(last - u[-1] @ v).max() > limit):
        return None
    return u, v


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
    """Extrapolate the corner-adjacent garbage nodes of every row, with one warning."""
    for node in bad:
        if min(node, n - node) > _CORNER_FIT:
            raise NumericError(
                f"kernel non-finite away from the interval corners (node {node})"
            )
    left = [i for i in bad if i <= n // 2]
    right = [i for i in bad if i > n // 2]
    patched = 0
    for cluster, at_left in ((left, True), (right, False)):
        if not cluster:
            continue
        if at_left:
            hi = max(cluster) + _CORNER_PAD
            fit = np.arange(hi + 1, hi + 1 + _CORNER_FIT)
            fix = np.arange(0, hi + 1)
        else:
            lo = min(cluster) - _CORNER_PAD
            fit = np.arange(lo - _CORNER_FIT, lo)
            fix = np.arange(lo, n + 1)
        coeffs = np.polyfit(fit.astype(float), values[:, fit].T, 2)
        values[:, fix] = np.polyval(coeffs, fix[:, None].astype(float)).T
        patched += len(fix)
    warnings.warn(
        f"extrapolated {patched} corner-adjacent output nodes in each row",
        CornerExtrapolationWarning,
        stacklevel=4,
    )


def _two_sided(p: ParameterSet, kernel: Kernel, grid: Grid, rows: np.ndarray, left_rule, right_sign: float):
    """``lam * left + right_sign * mu * right`` of each row of ``rows``,
    shape ``(rows, n + 1)``, with corner patching.

    ``left_rule`` (``_apply_left`` or ``_bapply_left``) is prepared for one
    side at a time, the right side on the reflected interval, and is handed
    the whole stack and the output, both reversed for the right side.
    """
    _check_interval(grid, p.a, p.b)
    if kernel.requires_positive_domain and grid.a <= 0.0:
        raise DomainError("this kernel needs a strictly positive interval, got a <= 0")
    n, out, bad = grid.n, np.zeros(rows.shape), set()
    if p.lam != 0.0:
        bad |= left_rule(kernel, grid, False)(rows, out, p.lam)
    if p.mu != 0.0:
        right = left_rule(kernel, grid, True)
        bad |= {n - j for j in right(rows[:, ::-1], out[:, ::-1], right_sign * p.mu)}
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
    return SampledFunction(f.grid, _two_sided(p, kernel, f.grid, f.values[None], _apply_left, 1.0)[0])


def a_apply(p: ParameterSet, kernel: Kernel, f: SampledFunction) -> SampledFunction:
    """Derivative-outside operator: grid derivative of ``k_apply``.

    Output values at an active endpoint (left when ``lam != 0``, right
    when ``mu != 0``) are continued linearly from the two nearest interior
    nodes, since the true derivative may be unbounded there.
    """
    inner = k_apply(p, kernel, f)
    grid = f.grid
    d = np.gradient(inner.values, grid.h, edge_order=2)
    if p.lam != 0.0:
        d[0] = 2.0 * d[1] - d[2]
    if p.mu != 0.0:
        d[-1] = 2.0 * d[-2] - d[-3]
    return SampledFunction(grid, d)


def _bapply_left(kernel: Kernel, grid: Grid, right: bool):
    """Rule for the left integral of the kernel against the cell derivative
    of each row, in the form of ``_apply_left``.

    The derivative inside the composition is the exact (cellwise
    constant) derivative of the piecewise-linear interpolant, so the
    interpolation error of ``f`` telescopes within each cell instead of
    polluting the quadrature near a startup cusp.
    """
    n, h = grid.n, grid.h
    mu = 1.0 - kernel.singularity_exponent

    if kernel.is_difference:
        a_coef, b_coef, prof = _difference_tables(kernel, grid, n)
        cell = prof[1:] * (a_coef - b_coef) + prof[:-1] * b_coef
        convolve = _convolve(cell, n, n)
        return _grouped(lambda fv: np.pad(h ** (mu - 1.0) * convolve(np.diff(fv, axis=1)), ((0, 0), (1, 0))))

    def rule(rows, out, weight):
        # cell i carries A - B at its left node and B at its right node
        df = np.diff(rows, axis=1)
        x1, x2 = np.pad(df, ((0, 0), (0, 1))), np.pad(df, ((0, 0), (1, 0)))
        return _left_engine(kernel, grid, right, x1, x2, h ** (mu - 1.0), out, weight)

    return rule


def b_apply(p: ParameterSet, kernel: Kernel, f: SampledFunction) -> SampledFunction:
    """Derivative-inside operator: kernel integral of the derivative of ``f``."""
    return SampledFunction(f.grid, _two_sided(p, kernel, f.grid, f.values[None], _bapply_left, -1.0)[0])


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

    ``order`` is a float in ``(0, 1)``.
    """
    try:
        op = ClassicalOp(op)
    except ValueError:
        raise ConfigurationError(f"unknown operator name {op!r}") from None
    grid = f.grid
    if callable(order):
        raise ConfigurationError(f"{op.value} takes a constant order, not a callable")
    if not 0.0 < order < 1.0:
        raise DomainError(f"order must lie in (0, 1), got {order}")

    left = ParameterSet(grid.a, grid.b, 1.0, 0.0)
    right = ParameterSet(grid.a, grid.b, 0.0, 1.0)
    if op is ClassicalOp.RL_INT_LEFT:
        return k_apply(left, PowerLawKernel(order, "integral"), f)
    if op is ClassicalOp.RL_INT_RIGHT:
        return k_apply(right, PowerLawKernel(order, "integral"), f)
    if op is ClassicalOp.RL_DER_LEFT:
        return a_apply(left, PowerLawKernel(order, "derivative"), f)
    if op is ClassicalOp.RL_DER_RIGHT:
        out = a_apply(right, PowerLawKernel(order, "derivative"), f)
        return SampledFunction(grid, -out.values)
    if op is ClassicalOp.CAPUTO_LEFT:
        return b_apply(left, PowerLawKernel(order, "derivative"), f)
    if op is ClassicalOp.CAPUTO_RIGHT:
        out = b_apply(right, PowerLawKernel(order, "derivative"), f)
        return SampledFunction(grid, -out.values)
    return k_apply(left, HadamardKernel(order), f)


def boundedness_constant(order: float, a: float, b: float) -> float:
    """Operator-norm bound ``(b - a)**order / Gamma(order + 1)`` of the
    left power-law integral on square-integrable functions."""
    if not 0.0 < order < 1.0:
        raise DomainError(f"order must lie in (0, 1), got {order}")
    if not b > a:
        raise InputError(f"need b > a, got a={a}, b={b}")
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
    for name, val in (("alpha", alpha), ("beta", beta)):
        if not 0.0 < val < 1.0:
            raise DomainError(f"{name} must lie in (0, 1), got {val}")
    if not alpha + beta < 1.0:
        raise DomainError(f"alpha + beta must stay below 1, got {alpha + beta}")
    staged = classical(ClassicalOp.RL_INT_LEFT, alpha, classical(ClassicalOp.RL_INT_LEFT, beta, f))
    direct = classical(ClassicalOp.RL_INT_LEFT, alpha + beta, f)
    return interior_sup(staged.values - direct.values)
