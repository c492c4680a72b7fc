"""Spans around calls into fracvar's public functions, from outside the program.

A traced pass patches each public name listed in :data:`LAYERS` in every
``fracvar`` module that holds it (``fracvar.operators.k_apply`` and
``fracvar.variational.k_apply`` are the same function under two names),
times each call, and restores the originals afterwards.  A layer's self
time is its span's duration minus the time of the spans it caused, so
``k_apply`` called from inside ``a_apply`` is charged to ``k_apply``.
Callables the benchmark passes into the library are spans of their own
(``callbacks``), so user code is not charged to the library.

A name that no longer exists is listed in ``Tracer.absent`` and its
metrics read zero; the benchmark keeps running.
"""

from __future__ import annotations

import collections
import sys
import time
from typing import Callable, NamedTuple, Optional

from workloads import CATALOGUE


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _operator_path(args, kwargs):
    kernel = _arg(args, kwargs, 1, "kernel")
    return "difference" if kernel.is_difference else "nondifference"


def _operator_nodes(args, kwargs, result, roles):
    p = _arg(args, kwargs, 0, "p")
    f = _arg(args, kwargs, 2, "f")
    return {"nodes": (f.grid.n + 1) * ((p.lam != 0.0) + (p.mu != 0.0))}


def _dim3(args, kwargs, result, roles):
    return {"dim3": _arg(args, kwargs, 0, "matrix").dim ** 3}


def _rows(args, kwargs, result, roles):
    return {"rows": _arg(args, kwargs, 2, "m")}  # args[0] is the class


def _descent(args, kwargs, result, roles):
    return {
        "iterations": result.iterations,
        "objective_evals": roles["objective"],
        "gradient_evals": roles["gradient"],
    }


class Layer(NamedTuple):
    module: str
    name: str
    path: Optional[Callable] = None
    extra: Optional[Callable] = None


LAYERS = (
    Layer("foundation", "symmetric_eigen", extra=_dim3),
    Layer("foundation", "mittag_leffler"),
    Layer("operators", "k_apply", _operator_path, _operator_nodes),
    Layer("operators", "a_apply", _operator_path, _operator_nodes),
    Layer("operators", "b_apply", _operator_path, _operator_nodes),
    Layer("sturm_liouville", "RitzBasis.build", extra=_rows),
    Layer("sturm_liouville", "converge"),
    Layer("sturm_liouville", "solve_spectrum"),
    Layer("sturm_liouville", "rayleigh_quotient"),
    Layer("sturm_liouville", "sl_residual"),
    Layer("sturm_liouville", "direct_minimize", extra=_descent),
    Layer("variational", "el_residual"),
    Layer("variational", "noether_drift"),
    Layer("variational", "isoperimetric_residual"),
    Layer("cli", "main"),
)


def _per_layer_units():
    units = {}
    for op in ("k_apply", "a_apply", "b_apply"):
        for path in ("difference", "nondifference"):
            base = f"operators.{op}.{path}"
            units.update({f"{base}.self_s": "s", f"{base}.calls": "count", f"{base}.nodes": "count"})
    units["operators.corner_extrapolations"] = "count"
    units.update({
        "foundation.symmetric_eigen.self_s": "s",
        "foundation.symmetric_eigen.calls": "count",
        "foundation.symmetric_eigen.dim3": "count",
        "foundation.mittag_leffler.self_s": "s",
        "foundation.mittag_leffler.calls": "count",
        "sturm_liouville.RitzBasis.build.self_s": "s",
        "sturm_liouville.RitzBasis.build.calls": "count",
        "sturm_liouville.RitzBasis.build.rows": "count",
    })
    for name in ("converge", "solve_spectrum", "rayleigh_quotient", "sl_residual"):
        units[f"sturm_liouville.{name}.self_s"] = "s"
    units.update({
        "sturm_liouville.direct_minimize.self_s": "s",
        "sturm_liouville.direct_minimize.iterations": "count",
        "sturm_liouville.direct_minimize.objective_evals": "count",
        "sturm_liouville.direct_minimize.gradient_evals": "count",
        "sturm_liouville.direct_minimize.accept_ratio": "1",
    })
    for name in ("el_residual", "noether_drift", "isoperimetric_residual"):
        units[f"variational.{name}.self_s"] = "s"
    for exp_id in CATALOGUE:
        units[f"experiments.{exp_id}.wall_s"] = "s"
    units.update({
        "cli.main.self_s": "s",
        "callbacks.self_s": "s",
        "callbacks.calls": "count",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.glue_s": "s",
        "error_rate": "1",
    })
    return units


#: every per-layer metric a traced run reports, with its unit
PER_LAYER = _per_layer_units()


class _WarningsShim:
    """Stands in for ``warnings`` inside ``fracvar.operators`` to count
    corner extrapolations, which callers usually silence."""

    def __init__(self, real, category, stats):
        self._real = real
        self._category = category
        self._stats = stats

    def warn(self, message, category=None, stacklevel=1, source=None):
        if category is not None and issubclass(category, self._category):
            self._stats["operators.corner_extrapolations"] += 1
        self._real.warn(message, category, stacklevel + 1, source)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _everywhere(modules, original, wrapped):
    """Patches replacing every module-level reference to ``original``."""
    return [(m, key, original, wrapped) for m in modules
            for key, value in list(vars(m).items()) if value is original]


class Tracer:
    """Per-pass span statistics; ``install`` patches, ``remove`` restores."""

    def __init__(self):
        self.stats = collections.defaultdict(float)
        self.roles = collections.Counter()
        self.absent = []
        self.active = False
        self._stack = []
        self._patches = self._plan()

    def _modules(self):
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == "fracvar" or key.startswith("fracvar."))]

    def _plan(self):
        """(owner, attribute, original, replacement) for every patch."""
        plan = []
        modules = self._modules()
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        for layer in LAYERS:
            mod = by_name.get(layer.module)
            owner_name, _, attr = layer.name.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.absent.append(f"{layer.module}.{layer.name}")
                continue
            name = f"{layer.module}.{layer.name}"
            if isinstance(original, classmethod):
                wrapped = classmethod(self._span(name, original.__func__, layer))
                plan.append((owner, attr, original, wrapped))
                continue
            plan += _everywhere(modules, original, self._span(name, original, layer))
        run = getattr(by_name.get("experiments"), "run", None)
        if run is None:
            self.absent.append("experiments.run")
        else:
            plan += _everywhere(modules, run, self._inclusive(run))
        operators = by_name.get("operators")
        category = getattr(operators, "CornerExtrapolationWarning", None)
        real = getattr(operators, "warnings", None)
        if category is None or real is None:
            self.absent.append("operators.corner_extrapolations")
        else:
            plan.append((operators, "warnings", real, _WarningsShim(real, category, self.stats)))
        return plan

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self.active = True

    def remove(self):
        self.active = False
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def take(self):
        """Statistics gathered since the last call, and reset."""
        out = dict(self.stats)
        self.stats.clear()
        return out

    def _call(self, key, fn, args, kwargs):
        """``fn(*args, **kwargs)`` as a span named ``key``."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            self.stats[key + ".self_s"] += duration - frame[0]
            self.stats[key + ".calls"] += 1

    def _span(self, name, fn, layer):
        def wrapper(*args, **kwargs):
            key = f"{name}.{layer.path(args, kwargs)}" if layer.path else name
            before = self.roles.copy()
            result = self._call(key, fn, args, kwargs)
            if layer.extra:
                for stat, value in layer.extra(args, kwargs, result, self.roles - before).items():
                    self.stats[f"{key}.{stat}"] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _inclusive(self, run):
        """``experiments.run`` is timed whole per experiment id but is no
        span: its own work stays charged to ``cli.main``."""
        stats, clock = self.stats, time.perf_counter

        def wrapper(config, *args, **kwargs):
            start = clock()
            try:
                return run(config, *args, **kwargs)
            finally:
                stats[f"experiments.{config.experiment}.wall_s"] += clock() - start

        wrapper.__wrapped__ = run
        return wrapper

    def callback(self, fn, role=None):
        """Wrap a benchmark callable; a span only while the tracer is installed."""

        def wrapper(*args):
            if not self.active:
                return fn(*args)
            if role:
                self.roles[role] += 1
            return self._call("callbacks", fn, args, {})

        return wrapper


def pass_metrics(stats, wall):
    """Per-layer metrics of one traced pass from its raw statistics."""
    out = {name: float(stats.get(name, 0.0)) for name in PER_LAYER}
    iters = out["sturm_liouville.direct_minimize.iterations"]
    evals = out["sturm_liouville.direct_minimize.objective_evals"]
    out["sturm_liouville.direct_minimize.accept_ratio"] = iters / evals if evals else 0.0
    out["trace.wall_s"] = wall
    out["trace.glue_s"] = wall - sum(v for k, v in stats.items() if k.endswith(".self_s"))
    return out
