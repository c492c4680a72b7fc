"""The benchmark's four workloads: seeded inputs, timed operations, checks.

Each workload is a list of :class:`Op`.  ``Op.run`` is the timed call into
the public ``fracvar`` API; ``Op.check`` runs afterwards, untimed, and
turns the output into :class:`Check` rows.  A check marked ``ref`` is a
relative error against a closed form at fixed parameters, where the
discretization and not an iterative solver's stop point sets the error;
the worst of them is the workload's ``ref_err``.  Seeded operations are
checked against closed forms or assertions too, but with tolerances, so
they count in ``error_rate`` without moving ``ref_err``.

Library functions are looked up on their modules at call time
(``ops.k_apply``, not a name bound at import), so the traced run's
wrappers see every call.  Callables the benchmark hands to the library
(kernels, coefficients, Lagrangians) go through ``callback`` so the
traced run can charge their time to user code instead of the library.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import warnings
from typing import Callable, NamedTuple

import numpy as np

import fracvar.cli as cli
import fracvar.foundation as foundation
import fracvar.operators as ops
import fracvar.sturm_liouville as sl
import fracvar.variational as var

WORKLOADS = ("catalogue", "spectral", "long-memory", "descent")

CATALOGUE = (
    "ops-identities",
    "ibp-suite",
    "counterexample",
    "el-check",
    "isoperimetric",
    "noether",
    "falva",
    "sl-solve",
    "sl-converge",
    "direct-min",
)


class Check(NamedTuple):
    label: str
    value: float
    ok: bool
    ref: bool = False


class Op(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def identity(fn, role=None):
    return fn


def _below(label, value, limit, ref=False):
    value = float(value)
    return Check(label, value, bool(value < limit), ref)


def _rel_sup(got, want):
    """Sup error relative to the sup of the reference."""
    return float(np.abs(got - want).max() / np.abs(want).max())


# Discretization-error tolerances are set for the full sizes; the tiny
# smoke sizes have grids up to 128 times coarser.
_LOOSE = 1000.0


# ---------------------------------------------------------------------------
# catalogue: every experiment at its defaults through the command line


def _catalogue(seed, callback, tiny, workdir):
    rng = random.Random(seed)
    config_seed = rng.randrange(1, 2**31)
    outdir = os.path.join(workdir, "catalogue")
    ids = ("ops-identities", "counterexample", "isoperimetric", "falva") if tiny else CATALOGUE
    overrides = {"ops-identities": ["--set", "n=512"], "counterexample": ["--set", "n=512"]}

    def make(exp_id):
        argv = ["run", "--experiment", exp_id, "--set", f"output_dir={outdir}",
                "--set", f"seed={config_seed}"]
        if tiny:
            argv += overrides.get(exp_id, [])

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        def check(code):
            with open(os.path.join(outdir, exp_id, "results.json"), encoding="utf-8") as fh:
                doc = json.load(fh)
            rows = [Check("exit-code", float(code), code == 0),
                    Check("assertions", 0.0, all(a["passed"] for a in doc["assertions"]))]
            rows += _catalogue_refs(exp_id, doc, os.path.join(outdir, exp_id))
            return rows

        return Op(f"experiments.{exp_id}", run, check)

    return [make(exp_id) for exp_id in ids]


def _catalogue_refs(exp_id, doc, folder):
    res = doc["results"]
    if exp_id == "counterexample":
        target = math.pi / 4.0
        return [Check("lhs-pi/4", abs(res["lhs"] - target) / target, True, True)]
    if exp_id == "isoperimetric":
        return [Check("multiplier", abs(res["multiplier"] - res["target"]) / res["target"], True, True)]
    if exp_id != "ops-identities":
        return []
    # power identities: sup error relative to the closed form's interior sup
    inputs = doc["inputs"]
    a, b = inputs["interval"]
    grid = foundation.Grid(a, b, inputs["n"])
    t = grid.nodes[foundation.interior_slice(grid.n)]
    worst = 0.0
    with open(os.path.join(folder, "identities.csv"), encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            al, be = float(row["alpha"]), float(row["beta"])
            if row["identity"].startswith("integral"):
                expo, ratio = be + al - 1.0, math.gamma(be) / math.gamma(be + al)
            else:
                expo, ratio = be - al - 1.0, math.gamma(be) / math.gamma(be - al)
            lag = t - a if row["identity"].endswith("left") else b - t
            scale = abs(ratio) * float(np.abs(lag**expo).max())
            worst = max(worst, float(row["sup_error"]) / scale)
    return [Check("power-identities", worst, True, True)]


# ---------------------------------------------------------------------------
# spectral: Ritz eigenproblems with seeded variable coefficients


def _spectral(seed, callback, tiny, workdir):
    rng = random.Random(seed)
    alpha = rng.uniform(0.55, 0.95)
    pa, pphase = rng.uniform(0.2, 0.8), rng.uniform(0.0, math.pi)
    qb = rng.uniform(0.0, 1.0)
    wc = rng.uniform(0.0, 0.5)
    schedule = (4, 8, 16) if tiny else (16, 32, 64, 128)
    m, r = (8, 3) if tiny else (64, 3)
    r_conv = 3 if tiny else 5
    n = 32 * schedule[-1]
    loose = _LOOSE if tiny else 1.0
    grid = foundation.Grid(0.0, math.pi, n)
    problem = sl.SLProblem(
        alpha,
        callback(lambda t: 1.0 + pa * np.sin(t + pphase) ** 2),
        callback(lambda t: qb * (1.0 + np.cos(t))),
        callback(lambda t: 1.0 + wc * t / math.pi),
    )
    classical = sl.SLProblem(
        1.0,
        callback(lambda t: np.ones_like(t)),
        callback(lambda t: np.zeros_like(t)),
        callback(lambda t: np.ones_like(t)),
    )
    out = {}

    def conv():
        out["report"] = sl.converge(problem, schedule, r_conv, grid)
        return out["report"]

    def check_conv(rep):
        table = rep.table
        return [
            Check("monotone", rep.max_upward_step, bool(rep.monotone)),
            Check("ascending", 0.0, bool(np.all(np.diff(table, axis=1) > 0.0))),
            Check("finite", 0.0, bool(np.all(np.isfinite(table)))),
        ]

    def spec():
        out["spectrum"] = sl.solve_spectrum(problem, m, r, grid)
        return out["spectrum"]

    def check_spec(s):
        lam = np.asarray(s.lambdas)
        row = out["report"].table[list(schedule).index(m)][:r]
        return [
            Check("ascending", 0.0, bool(np.all(np.diff(lam) > 0.0))),
            # the converge table slices the same Ritz matrix, so its m-row
            # must agree with a direct solve up to eigensolver round-off
            _below("nested-agreement", np.abs(row - lam).max() / lam.max(), 1e-9),
        ]

    def modes():
        s = out["spectrum"]
        return [
            (sl.rayleigh_quotient(problem, s.eigenfunctions[j]),
             sl.sl_residual(problem, float(s.lambdas[j]), s.eigenfunctions[j]))
            for j in range(r)
        ]

    def check_modes(pairs):
        lam = out["spectrum"].lambdas
        gap = max(abs(rq - lam[j]) / (1.0 + abs(lam[j])) for j, (rq, _) in enumerate(pairs))
        return [
            _below("rayleigh-consistency", gap, 1e-8),
            Check("residual-finite", 0.0, all(math.isfinite(res) for _, res in pairs)),
        ]

    def reference():
        return sl.solve_spectrum(classical, m, r, grid)

    def check_reference(s):
        k2 = np.arange(1, r + 1, dtype=float) ** 2
        err = float(np.abs(np.asarray(s.lambdas) - k2).max() / k2.max())
        return [_below("classical-k^2", err, 1e-4 * loose, ref=True)]

    return [
        Op("converge", conv, check_conv),
        Op("solve_spectrum", spec, check_spec),
        Op("modes", modes, check_modes),
        Op("classical", reference, check_reference),
    ]


# ---------------------------------------------------------------------------
# long-memory: one large function per operator call


def _poly_images(c, alpha):
    """Closed-form images of ``f(t) = sum c_k t**k`` on ``[0, 1]``.

    Returns functions of ``t`` for the left and right power-law integrals
    of order ``alpha`` and for the left and right Riemann-Liouville and
    Caputo derivatives, each side written in powers of its own lag.
    """
    d = np.polynomial.polynomial.Polynomial(c)(np.polynomial.polynomial.Polynomial([1.0, -1.0])).coef
    d = np.pad(d, (0, len(c) - len(d)))

    def series(coef, lag, shift, start=0):
        return sum(
            coef[k] * math.gamma(k + 1) / math.gamma(k + 1 + shift) * lag ** (k + shift)
            for k in range(start, len(coef))
        )

    return {
        "int": lambda t: (series(c, t, alpha), series(d, 1.0 - t, alpha)),
        "rl": lambda t: (series(c, t, -alpha), series(d, 1.0 - t, -alpha)),
        "caputo": lambda t: (series(c, t, -alpha, 1), series(d, 1.0 - t, -alpha, 1)),
    }


def _exp_images(c, rate, t):
    """Left and right integrals of ``exp(-rate*|t - s|) f(s)`` for polynomial ``f``.

    ``I' = f - rate*I`` with ``I(0) = 0`` is solved by the alternating
    derivative series, and the right integral by the plain one.
    """
    poly = np.polynomial.polynomial.Polynomial(c)
    left = sum((-1) ** j * poly.deriv(j)(t) / rate ** (j + 1) for j in range(len(c)))
    right = sum(poly.deriv(j)(t) / rate ** (j + 1) for j in range(len(c)))
    left0 = sum((-1) ** j * poly.deriv(j)(0.0) / rate ** (j + 1) for j in range(len(c)))
    right1 = sum(poly.deriv(j)(1.0) / rate ** (j + 1) for j in range(len(c)))
    return left - np.exp(-rate * t) * left0, right - np.exp(-rate * (1.0 - t)) * right1


def _long_memory(seed, callback, tiny, workdir):
    rng = random.Random(seed)
    n_diff, n_counter, n_general = (512, 256, 256) if tiny else (32768, 8192, 4096)
    loose = _LOOSE if tiny else 1.0
    alpha_int = rng.uniform(0.3, 0.8)
    alpha_der = rng.uniform(0.2, 0.7)
    lam = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
    mu = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
    coef = [rng.uniform(-1.0, 1.0) for _ in range(4)]
    rate = rng.uniform(0.5, 3.0)
    s_general = rng.uniform(0.2, 0.6)
    phi_e = rng.uniform(0.0, 1.0)
    alpha_h, beta_h = rng.uniform(0.3, 0.8), rng.uniform(1.5, 3.0)

    grid = foundation.Grid(0.0, 1.0, n_diff)
    t = grid.nodes
    f = foundation.SampledFunction(grid, np.polynomial.polynomial.polyval(t, coef))
    two = ops.ParameterSet(0.0, 1.0, lam, mu)
    left = ops.ParameterSet(0.0, 1.0, 1.0, 0.0)
    inner = foundation.interior_slice(n_diff)

    def two_sided(kind, alpha):
        lft, rgt = _poly_images(coef, alpha)[kind](t[inner])
        sign = 1.0 if kind == "int" else -1.0
        return lam * lft + sign * mu * rgt

    def closed(label, want_fn, limit):
        def check(out):
            return [_below(label, _rel_sup(out.values[inner], want_fn()), limit * loose)]
        return check

    exp_kernel = ops.DifferenceKernel(callback(lambda u: np.exp(-rate * u)))

    def exp_want():
        lft, rgt = _exp_images(coef, rate, t[inner])
        return lam * lft + mu * rgt

    # fixed-parameter power identity: I^0.5 of t**0.25 is a gamma ratio times t**0.75
    power_f = foundation.SampledFunction(grid, t**0.25)

    def check_power(out):
        want = math.gamma(1.25) / math.gamma(1.75) * t[inner] ** 0.75
        return [_below("power-identity", _rel_sup(out.values[inner], want), 1e-4 * loose, ref=True)]

    counter_grid = foundation.Grid(0.0, 1.0, n_counter)
    counter_kernel = ops.GeneralKernel(
        callback(lambda x, y: (x * x - y * y) / (x * x + y * y) ** 2), 0.0
    )
    ones = foundation.SampledFunction(counter_grid, np.ones(n_counter + 1))

    def counterexample():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ops.CornerExtrapolationWarning)
            return ops.k_apply(ops.ParameterSet(0.0, 1.0, 1.0, -1.0), counter_kernel, ones)

    def check_counter(out):
        err = abs(foundation.trapezoid(out) - math.pi / 4.0) / (math.pi / 4.0)
        return [_below("lhs-pi/4", err, 1e-4 * loose, ref=True)]

    ggrid = foundation.Grid(0.0, 1.0, n_general)
    gt = ggrid.nodes
    ginner = foundation.interior_slice(n_general)
    gamma_s = math.gamma(1.0 - s_general)
    general_kernel = ops.GeneralKernel(
        callback(lambda x, y: (1.0 + phi_e * x * x) * (x - y) ** (-s_general) / gamma_s),
        s_general,
    )
    gf = foundation.SampledFunction(ggrid, np.polynomial.polynomial.polyval(gt, coef))

    def check_general(out):
        lft, _ = _poly_images(coef, s_general)["caputo"](gt[ginner])
        want = (1.0 + phi_e * gt[ginner] ** 2) * lft
        return [_below("general-caputo", _rel_sup(out.values[ginner], want), 1e-3 * loose)]

    hgrid = foundation.Grid(1.0, math.e, n_general)
    hf = foundation.SampledFunction(hgrid, np.log(hgrid.nodes) ** (beta_h - 1.0))

    def check_hadamard(out):
        want = (math.gamma(beta_h) / math.gamma(beta_h + alpha_h)
                * np.log(hgrid.nodes[ginner]) ** (beta_h + alpha_h - 1.0))
        return [_below("hadamard", _rel_sup(out.values[ginner], want), 1e-4 * loose)]

    return [
        Op("k_apply.power", lambda: ops.k_apply(two, ops.PowerLawKernel(alpha_int, "integral"), f),
           closed("power-integral", lambda: two_sided("int", alpha_int), 1e-7)),
        Op("a_apply.power", lambda: ops.a_apply(two, ops.PowerLawKernel(alpha_der, "derivative"), f),
           closed("rl-derivative", lambda: two_sided("rl", alpha_der), 1e-6)),
        Op("b_apply.power", lambda: ops.b_apply(two, ops.PowerLawKernel(alpha_der, "derivative"), f),
           closed("caputo", lambda: two_sided("caputo", alpha_der), 1e-4)),
        Op("k_apply.exp", lambda: ops.k_apply(two, exp_kernel, f),
           closed("exponential", exp_want, 1e-7)),
        Op("classical.power", lambda: ops.classical("RLIntLeft", 0.5, power_f), check_power),
        Op("k_apply.counterexample", counterexample, check_counter),
        Op("b_apply.general", lambda: ops.b_apply(left, general_kernel, gf), check_general),
        Op("classical.hadamard", lambda: ops.classical("HadamardLeft", alpha_h, hf), check_hadamard),
    ]


# ---------------------------------------------------------------------------
# descent: Barzilai-Borwein minimization over sine Ritz spaces


def _lagrangian(callback, f, d1, d2, d3, d4):
    """All four partials supplied, so every objective evaluation is one
    call of ``f`` and every gradient evaluation one call of ``d1``."""
    return var.Lagrangian(
        callback(f, "objective"), callback(d1, "gradient"), callback(d2), callback(d3), callback(d4)
    )


def _zero(x1, x2, x3, x4, t):
    return np.zeros(np.broadcast(x1, t).shape)


def _on_grid(fn, grid):
    """``fn`` with its values on the grid nodes computed once, as a user
    would precompute a target; other arguments (the Lagrangian's
    construction-time self-check) are evaluated directly."""
    nodes = grid.nodes
    cached = fn(nodes)
    return lambda t: cached if t is nodes else fn(t)


def _translated_quadratic(callback, grid):
    pi = math.pi
    d = 1.0 + pi * pi
    g1 = _on_grid(lambda t: t + np.sin(pi * t), grid)
    g2 = _on_grid(lambda t: t - 1.0 + np.exp(-t)
                  + (np.sin(pi * t) - pi * np.cos(pi * t) + pi * np.exp(-t)) / d, grid)
    g3 = _on_grid(lambda t: 1.0 + pi * np.cos(pi * t), grid)
    g4 = _on_grid(lambda t: 1.0 - np.exp(-t)
                  + pi * (np.cos(pi * t) + pi * np.sin(pi * t) - np.exp(-t)) / d, grid)
    lag = _lagrangian(
        callback,
        lambda x1, x2, x3, x4, t: 0.5 * ((x1 - g1(t)) ** 2 + (x2 - g2(t)) ** 2
                                         + (x3 - g3(t)) ** 2 + (x4 - g4(t)) ** 2),
        lambda x1, x2, x3, x4, t: x1 - g1(t),
        lambda x1, x2, x3, x4, t: x2 - g2(t),
        lambda x1, x2, x3, x4, t: x3 - g3(t),
        lambda x1, x2, x3, x4, t: x4 - g4(t),
    )
    binding = ops.OperatorBinding(
        ops.ParameterSet(grid.a, grid.b, 1.0, 0.0),
        ops.DifferenceKernel(callback(lambda u: np.exp(-u))),
    )
    return var.VariationalProblem(lag, binding, ya=0.0, yb=1.0), g1(grid.nodes)


def _quasilinear(callback, grid, alpha):
    f1 = _on_grid(lambda t: -np.sin(np.pi * t) * (1.0 + t), grid)
    f3 = _on_grid(lambda t: t * t * (1.0 - t) ** 2, grid)

    lag = _lagrangian(
        callback,
        lambda x1, x2, x3, x4, t: 0.5 * x3 * x3 + f1(t) * x1 + f3(t) * x3,
        lambda x1, x2, x3, x4, t: f1(t) + 0.0 * x1,
        _zero,
        lambda x1, x2, x3, x4, t: x3 + f3(t),
        _zero,
    )
    binding = ops.OperatorBinding(
        ops.ParameterSet(grid.a, grid.b, 1.0, 0.0), ops.PowerLawKernel(alpha, "derivative")
    )
    return var.VariationalProblem(lag, binding, ya=0.0, yb=0.0)


def _tracking(callback, grid):
    lag = _lagrangian(
        callback,
        lambda x1, x2, x3, x4, t: (x2 + t) ** 2,
        _zero,
        lambda x1, x2, x3, x4, t: 2.0 * (x2 + t),
        _zero,
        _zero,
    )
    binding = ops.OperatorBinding(
        ops.ParameterSet(grid.a, grid.b, 1.0, 0.0),
        ops.DifferenceKernel(callback(lambda u: np.exp(-u))),
    )
    return var.VariationalProblem(lag, binding, ya=-1.0, yb=-2.0), -1.0 - grid.nodes


def _descent(seed, callback, tiny, workdir):
    rng = random.Random(seed)
    n, m, m_small = (256, 8, 4) if tiny else (2048, 32, 8)
    loose = _LOOSE if tiny else 1.0
    grid = foundation.Grid(0.0, 1.0, n)
    classical = sl.SLProblem(
        1.0,
        callback(lambda t: np.ones_like(t)),
        callback(lambda t: np.zeros_like(t)),
        callback(lambda t: np.ones_like(t)),
        0.0,
        1.0,
    )
    start_quad = np.array([rng.gauss(0.0, 0.1) for _ in range(m)])
    start_quasi = np.array([rng.gauss(0.0, 0.02) for _ in range(m)])
    start_track = np.array([0.4 + rng.uniform(-0.1, 0.1) for _ in range(m_small)])
    alpha = rng.uniform(0.4, 0.8)
    quad, quad_exact = _translated_quadratic(callback, grid)
    quasi = _quasilinear(callback, grid, alpha)
    track, track_exact = _tracking(callback, grid)
    inner = foundation.interior_slice(n)
    spaces = {}

    def bases():
        spaces["m"] = sl.RitzBasis.build(classical, m, grid)
        spaces["small"] = sl.RitzBasis.build(classical, m_small, grid)
        return spaces

    def check_bases(b):
        return [Check("shapes", 0.0, b["m"].phi.shape == (m, n + 1) and b["small"].phi.shape == (m_small, n + 1))]

    def minimize(problem, space, start, with_el):
        def run():
            res = sl.direct_minimize(problem, spaces[space], sl.MinimizeOptions(beta0=start))
            el = var.el_residual(problem, res.y) if with_el else None
            return res, el
        return run

    def check_quad(out):
        res, el = out
        return [
            _below("gradient", res.gradient_norm, 1e-8),
            _below("el-sup", float(np.abs(el.values[inner]).max()), 1e-2),
            _below("recovery", np.abs(res.y.values - quad_exact).max() / np.abs(quad_exact).max(),
                   1e-5 * loose, ref=True),
        ]

    def check_quasi(out):
        res, el = out
        return [
            _below("gradient", res.gradient_norm, 1e-8),
            _below("el-sup", float(np.abs(el.values[inner]).max()), 1e-2),
        ]

    def check_track(out):
        res, _ = out
        return [
            _below("gradient", res.gradient_norm, 1e-8),
            _below("value", res.value, 1e-6),
            # set by where descent stopped (flat directions of the smoothing
            # operator), so it is checked but kept out of ref_err
            _below("recovery", np.abs(res.y.values - track_exact).max() / np.abs(track_exact).max(), 5e-3),
        ]

    return [
        Op("RitzBasis.build", bases, check_bases),
        Op("translated-quadratic", minimize(quad, "m", start_quad, True), check_quad),
        Op("quasilinear", minimize(quasi, "m", start_quasi, True), check_quasi),
        Op("tracking", minimize(track, "small", start_track, False), check_track),
    ]


_BUILDERS = {
    "catalogue": _catalogue,
    "spectral": _spectral,
    "long-memory": _long_memory,
    "descent": _descent,
}


def build(name, seed, workdir, callback=identity, tiny=False):
    """The workload's operations, with every input made from ``seed``.

    ``tiny`` shrinks every size for the smoke test; timings at that size
    mean nothing.
    """
    return _BUILDERS[name](seed, callback, tiny, workdir)
