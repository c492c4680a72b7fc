"""Smoke run of the benchmark at tiny sizes.

Every workload builds, runs and passes its checks; the traced pass
reports every layer and puts the library's names back.  Nothing here
gates on timing.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

workloads = run._load_program(ROOT)

import fracvar  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_passes_its_checks_at_tiny_size(name, tmp_path):
    ops = workloads.build(name, 7, str(tmp_path), tiny=True)
    wall, failed, refs = run._run_pass(ops)
    assert failed == 0
    assert refs and max(refs) < 1e-3


@pytest.mark.parametrize("name", ["long-memory", "descent"])
def test_traced_pass_reports_every_layer_and_restores_names(name, tmp_path):
    tracer = tracing.Tracer()
    ops = workloads.build(name, 7, str(tmp_path), callback=tracer.callback, tiny=True)
    k_apply, build = fracvar.operators.k_apply, fracvar.RitzBasis.build
    wall, failed, _ = run._run_pass(ops, tracer)
    metrics = tracing.pass_metrics(tracer.take(), wall)
    assert failed == 0 and tracer.absent == []
    assert set(metrics) == set(tracing.PER_LAYER)
    assert fracvar.operators.k_apply is k_apply and fracvar.variational.k_apply is k_apply
    assert fracvar.RitzBasis.build == build
    assert metrics["operators.k_apply.difference.calls"] > 0
    assert metrics["callbacks.calls"] > 0
    if name == "long-memory":
        assert metrics["operators.k_apply.nondifference.calls"] > 0
        assert metrics["operators.corner_extrapolations"] >= 1
    else:
        iterations = metrics["sturm_liouville.direct_minimize.iterations"]
        assert 0 < iterations <= metrics["sturm_liouville.direct_minimize.objective_evals"]
        assert metrics["sturm_liouville.direct_minimize.gradient_evals"] >= iterations


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


def test_compare_flags_only_regressions_beyond_the_bound():
    spec = {"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.2},
        {"name": "ref_err", "better": "lower", "bound": 0.25},
    ]}

    def results(wall, ref):
        return {"rows": {"spectral": {"result": {"metrics": {
            "wall_s": {"value": wall}, "ref_err": {"value": ref}}}}}}

    rows = run.compare(results(1.0, 1e-6), results(1.3, 1.1e-6), spec)
    assert [(r[1], r[-1]) for r in rows] == [("wall_s", "REGRESSED"), ("ref_err", "ok")]


def test_exits_nonzero_without_program_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "descent",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
