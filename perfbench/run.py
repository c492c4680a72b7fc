"""Benchmark for fracvar: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0 --out r.json
    python3 perfbench/run.py --compare perfbench/baseline/trace0.json r.json

Load model: a closed loop with one client.  Each operation starts when the
previous one has returned, on one Python thread; BLAS keeps the thread
count it inherits.  One untimed warm-up pass precedes the timed passes,
which repeat until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics;
the difference of their medians is the tracing overhead.  Every pass is
checked, and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("catalogue", "spectral", "long-memory", "descent")
SETUP_PROBES = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ref_err": "1"}


def _fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def _sources(root):
    """Path of fracvar's ``__init__.py`` under ``<root>/src``; exit if missing."""
    init = os.path.join(root, "src", "fracvar", "__init__.py")
    if not os.path.isfile(init):
        _fail(f"no fracvar sources at {init}; run from the repository root")
    return init


def _load_program(root):
    """Import fracvar from ``<root>/src`` and the benchmark modules."""
    init = _sources(root)
    sys.path.insert(0, os.path.join(root, "src"))
    import fracvar

    if os.path.realpath(fracvar.__file__) != os.path.realpath(init):
        _fail(f"imported fracvar from {fracvar.__file__}, not from {init}")
    import workloads

    return workloads


@contextlib.contextmanager
def _workdir(root, name):
    """A private directory under ``<root>/.perfbench_tmp``, removed afterwards."""
    base = os.path.join(root, ".perfbench_tmp")
    path = os.path.join(base, f"{name}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)


# ---------------------------------------------------------------------------
# one pass


def _run_pass(ops, tracer=None):
    """Time every operation in order, then check every output."""
    outputs = []
    if tracer:
        tracer.take()
        tracer.install()
    start = time.perf_counter()
    try:
        for op in ops:
            try:
                outputs.append((op.run(), None))
            except Exception as exc:  # a failed operation is counted, not fatal
                outputs.append((None, exc))
    finally:
        wall = time.perf_counter() - start
        if tracer:
            tracer.remove()
    failed, refs = 0, []
    for op, (out, exc) in zip(ops, outputs):
        if exc is None:
            try:
                checks = op.check(out)
            except Exception as check_exc:
                exc = check_exc
        if exc is not None:
            failed += 1
            print(f"perfbench: {op.name} raised:", file=sys.stderr)
            traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)
            continue
        bad = [c for c in checks if not c.ok]
        if bad:
            failed += 1
            print(f"perfbench: {op.name} failed {bad}", file=sys.stderr)
        refs += [c.value for c in checks if c.ref]
    return wall, failed, refs


class _Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.refs = []

    def add(self, ops, result):
        wall, failed, refs = result
        self.attempted += len(ops)
        self.failed += failed
        self.refs += refs
        return wall


def _pass_seed(seed, index):
    """Seed of the inputs of timed pass ``index`` of a run seeded ``seed``."""
    return seed * 1_000_003 + index


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# one workload


def _setup_probe(root, workload, seed):
    """Import fracvar and build the inputs in this fresh process; print the time."""
    start = time.perf_counter()
    workloads = _load_program(root)
    workloads.build(workload, seed, os.path.join(root, ".perfbench_tmp", "unused"))
    print(repr(time.perf_counter() - start))


def _measure_setup(root, workload, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe", workload,
             "--seed", str(seed)],
            cwd=root, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            _fail(f"set-up of {workload} failed", 1)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _measure(root, args):
    import environment

    steal0 = environment.steal_seconds()
    setup = _measure_setup(root, args.workload, args.seed)
    workloads = _load_program(root)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    with _workdir(root, args.workload) as workdir:
        ops = workloads.build(args.workload, args.seed, workdir,
                              callback=tracer.callback if tracer else workloads.identity)
        tally = _Tally()
        tally.add(ops, _run_pass(ops))  # warm-up
        plain, traced, layers = [], [], []
        start = time.perf_counter()
        while True:
            if not tracer:
                # Descent iteration counts and Jacobi rotation counts change
                # chaotically with the inputs, so each timed pass draws fresh
                # inputs from the seed's stream and wall_s is a median over
                # many inputs.  Traced passes repeat the seed's own inputs, so
                # their counts repeat exactly and the overhead compares like
                # with like.
                ops = workloads.build(args.workload, _pass_seed(args.seed, len(plain) + 1),
                                      workdir)
            plain.append(tally.add(ops, _run_pass(ops)))
            if tracer:
                traced.append(tally.add(ops, _run_pass(ops, tracer)))
                layers.append(tracing.pass_metrics(tracer.take(), traced[-1]))
            if time.perf_counter() - start >= args.seconds:
                break
    steal1 = environment.steal_seconds()
    env = environment.record(root)
    env["steal_s"] = None if steal0 is None or steal1 is None else steal1 - steal0

    error_rate = tally.failed / tally.attempted
    lo, hi = _quartiles(plain)
    detail = {
        "wall_s": {"median": statistics.median(plain), "p25": lo, "p75": hi, "n": len(plain),
                   "samples": plain},
        "setup_s": {"median": statistics.median(setup), "samples": setup},
        "error_rate": error_rate,
    }
    if tracer:
        values = {name: statistics.median(s[name] for s in layers) for name in tracing.PER_LAYER}
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        values["error_rate"] = error_rate
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER.items()}
        detail["absent_layers"] = tracer.absent
        detail["traced_wall_s"] = traced
    else:
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # a workload with a failed reference check has no trustworthy error
            "ref_err": max(tally.refs) if tally.refs else 1.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, detail, env


def _report(workload, args, result, detail, env):
    wall = detail["wall_s"]
    print(f"perfbench workload={workload} seed={args.seed} trace={args.trace} "
          f"passes={wall['n']} (after 1 warm-up)")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"  wall_s       {wall['median']:.6f} s  (p25 {wall['p25']:.6f}, "
          f"p75 {wall['p75']:.6f}, n={wall['n']})")
    print(f"  error_rate   {detail['error_rate']:.6g}  "
          f"({result['failed']}/{result['attempted']} operations failed)")
    for name, m in result["metrics"].items():
        if name != "wall_s":
            print(f"  {name:<{max(12, len(name))}} {m['value']:.6g} {m['unit']}")
    if detail.get("absent_layers"):
        print("  absent layers: " + ", ".join(detail["absent_layers"]))


def _write(path, record):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _run_one(root, args):
    result, detail, env = _measure(root, args)
    _report(args.workload, args, result, detail, env)
    if args.out:
        _write(args.out, {"env": env, "seed": args.seed, "seconds": args.seconds,
                          "trace": args.trace,
                          "rows": {args.workload: {"result": result, "detail": detail}}})
    print(json.dumps(result))


def _run_all(root, args):
    """Each workload in its own process, so peak memory stays per workload."""
    rows, env = {}, None
    with _workdir(root, "all") as tmp:
        for workload in WORKLOADS:
            out = os.path.join(tmp, f"{workload}.json")
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", out],
                cwd=root, stdout=subprocess.PIPE, text=True, timeout=900,
            )
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                _fail(f"workload {workload} exited with {proc.returncode}", 1)
            with open(out, encoding="utf-8") as fh:
                record = json.load(fh)
            env = record["env"]
            rows.update(record["rows"])
    if args.out:
        _write(args.out, {"env": env, "seed": args.seed, "seconds": args.seconds,
                          "trace": args.trace, "rows": rows})
    results = [row["result"] for row in rows.values()]
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{w}.{name}": m for w, row in rows.items()
                    for name, m in row["result"]["metrics"].items()},
    }))


# ---------------------------------------------------------------------------
# compare mode


def compare(base, new, spec):
    """Rows ``(workload, metric, base, new, ratio, bound, verdict)``.

    A metric regresses when it is worse than the base by more than its
    bound, as a share of the base value.
    """
    rows = []
    for workload in base["rows"]:
        if workload not in new["rows"]:
            continue
        old_m = base["rows"][workload]["result"]["metrics"]
        new_m = new["rows"][workload]["result"]["metrics"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in old_m or name not in new_m:
                continue
            a, b = old_m[name]["value"], new_m[name]["value"]
            if a == 0:
                rows.append((workload, name, a, b, math.nan, metric["bound"], "n/a"))
                continue
            ratio = b / a
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            verdict = "REGRESSED" if worse > metric["bound"] else "ok"
            rows.append((workload, name, a, b, ratio, metric["bound"], verdict))
    return rows


def _run_compare(paths):
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    files = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            files.append(json.load(fh))
    rows = compare(files[0], files[1], spec)
    print(f"{'workload':<12} {'metric':<12} {'base':>12} {'new':>12} {'ratio':>8} "
          f"{'bound':>6}  verdict")
    for workload, name, a, b, ratio, bound, verdict in rows:
        print(f"{workload:<12} {name:<12} {a:>12.6g} {b:>12.6g} {ratio:>8.4f} "
              f"{bound:>6.2f}  {verdict}")
    return 1 if any(r[-1] == "REGRESSED" for r in rows) else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result with its environment to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="print end-to-end ratios between two --out files")
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if args.compare:
        return _run_compare(args.compare)
    if args.setup_probe:
        _setup_probe(root, args.setup_probe, args.seed)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    _sources(root)
    if args.workload == "all":
        _run_all(root, args)
    else:
        _run_one(root, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
