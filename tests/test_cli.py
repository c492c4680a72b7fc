import contextlib
import gc
import io
import itertools
import json
import math
import os
import runpy
import threading
import weakref

import numpy as np
import pytest

from fracvar import (
    Grid,
    NumericError,
    ParseError,
    SampledFunction,
    foundation,
    list_experiments,
    operators,
    parse_config,
    run,
)
from fracvar.cli import main
from fracvar.experiments import _EXPERIMENTS, _assertion_ids

ALL_IDS = (
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

#: the catalogue runner, a loop over ``fracvar run``
RUN_ALL = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_all_experiments.py")


def errors_of(text):
    with pytest.raises(ParseError) as info:
        parse_config(text)
    return info.value.errors


# --- config parsing -------------------------------------------------------


def test_minimal_solver_config():
    cfg = parse_config('{"experiment": "sl-solve", "alpha": 0.75, "m": 16, "r": 3, "n": 4096}')
    assert cfg.experiment == "sl-solve"
    assert cfg.alpha == (0.75,)
    assert cfg.m == 16 and cfg.r == 3 and cfg.n == 4096


def test_defaults_fill_missing_fields():
    cfg = parse_config('{"experiment": "counterexample"}')
    assert cfg.n == 4096
    assert cfg.seed == 20240817
    assert (cfg.a, cfg.b) == (0.0, 1.0)


def test_alpha_range_depends_on_experiment():
    msgs = errors_of('{"experiment": "sl-solve", "alpha": 1.3}')
    assert any("must lie in (0.5, 1)" in m for m in msgs)
    msgs = errors_of('{"experiment": "el-check", "alpha": 1.3}')
    assert any("must lie in (0, 1)" in m for m in msgs)
    # classical mode passes only for the solver experiments
    assert parse_config('{"experiment": "sl-solve", "alpha": 1.0}').alpha == (1.0,)


@pytest.mark.parametrize(
    "doc,needle",
    [
        ('{"experiment": "noether", "bogus": 1}', "bogus: unknown key"),
        ('{"experiment": "warp-drive"}', "valid ids"),
        ('{"experiment": [1]}', "experiment: unknown id [1]"),
        ('{"experiment": {"id": "noether"}}', "experiment: unknown id {'id': 'noether'}"),
        ('{"experiment": "noether", "n": 1000}', "power of two"),
        ('{"experiment": "noether", "n": 16}', "power of two"),
        ('{"experiment": "noether", "n": 32768}', "power of two"),
        ('{"experiment": "noether", "n": true}', "power of two"),
        ('{"experiment": "direct-min", "m": 500}', "at most 200"),
        ('{"experiment": "noether", "m": 16}', "m: noether does not read it"),
        ('{"experiment": "sl-solve", "m_schedule": [4, 8]}', "m_schedule: sl-solve does not read it"),
        ('{"experiment": "direct-min", "r": 3}', "r: direct-min does not read it"),
        ('{"experiment": "el-check", "interval": [1.0, 0.0]}', "interval: must be"),
        ('{"experiment": "el-check", "interval": [0.0]}', "interval: must be"),
        ('{"experiment": "el-check", "interval": [-1e308, 1e308]}', "interval: must be"),
        # integers beyond the float range
        ('{"experiment": "el-check", "alpha": 1' + "0" * 400 + '}', "finite numbers"),
        # distinct integers that round to one float
        ('{"experiment": "el-check", "interval": [100000000000000000, 100000000000000001]}',
         "interval: must be"),
        ('{"experiment": "el-check", "interval": [0, 1' + "0" * 400 + ']}', "interval: must be"),
        ('{"experiment": "noether", "tolerances": {"fractional-drift": 1' + "0" * 400 + '}}',
         "tolerances.fractional-drift: must be a positive finite number"),
        # floats beyond the float range parse to inf, as does JSON's non-standard Infinity
        ('{"experiment": "falva", "tolerances": {"weighted-el": 1e400}}',
         "tolerances.weighted-el: must be a positive finite number"),
        ('{"experiment": "falva", "tolerances": {"weighted-el": Infinity}}',
         "tolerances.weighted-el: must be a positive finite number"),
        ('{"experiment": "sl-converge", "m_schedule": [8, 4]}', "strictly increasing"),
        ('{"experiment": "sl-solve", "r": 0}', "positive integer"),
        ('{"experiment": "sl-solve", "m": 4, "r": 9}', "must not exceed m"),
        ('{"experiment": "sl-converge", "m_schedule": [4, 8], "r": 6}',
         "r: must not exceed min(m_schedule) = 4"),
        ('{"experiment": "noether", "tolerances": {"x": -1.0}}', "tolerances.x"),
        ('{"experiment": "noether", "tolerances": 3}', "tolerances"),
        ('{"experiment": "noether", "tolerances": {"fractional-drift": -1.0}}',
         "tolerances.fractional-drift: must be a positive finite number"),
        ('{"experiment": "sl-solve", "alpha": 1.0, "tolerances": {"eigenvalue-bound": 1.0}}',
         "tolerances.eigenvalue-bound: names no assertion of sl-solve"),
        ('{"experiment": "sl-solve", "tolerances": {"classical-eigenvalues": 1.0}}',
         "tolerances.classical-eigenvalues: names no assertion of sl-solve"),
        ('{"experiment": "noether", "output_dir": 4}', "output_dir"),
        ('{"experiment": "noether", "output_dir": ""}', "output_dir: must be a non-empty string"),
        ('{"experiment": "noether", "seed": 1.5}', "seed"),
        ('{"experiment": "ibp-suite", "seed": -1}', "seed: must be a non-negative integer"),
        ('{"experiment": "sl-solve", "m": 100, "n": 1024}', "32*m"),
        ('{"experiment": "direct-min", "m": 64}', "n: must be at least 32*max(m) = 2048"),
        ('{"experiment": "sl-converge", "m_schedule": [64, 128], "n": 1024}', "32*max"),
        ('{"experiment": "sl-converge", "m_schedule": [4, 250]}', "integers at most 200"),
        ('[1, 2]', "top level"),
        ('{"experiment": "noether", "alpha": "big"}', "alpha"),
        ('{"experiment": "ops-identities", "alpha": []}', "alpha: ops-identities needs at least one order"),
        ('{"experiment": "el-check", "alpha": [0.4, 0.9]}', "alpha: el-check takes exactly one order"),
        ('{"experiment": "noether", "alpha": []}', "alpha: noether takes exactly one order"),
        ('{"experiment": "counterexample", "alpha": 0.5}', "alpha: counterexample does not read it"),
    ],
)
def test_field_errors(doc, needle):
    assert any(needle in m for m in errors_of(doc))


def test_each_experiment_takes_only_the_basis_settings_it_reads():
    """Of the 50 pairs of experiment and optional setting, the 17 whose run
    reads the setting are accepted, and a bad value there is that setting's
    error; an unread one is one error whatever its value, unchecked.  All
    ten take ``n``, ``seed``, ``tolerances`` and ``output_dir``."""
    good = {"interval": [-1.0, 0.5], "alpha": 0.75, "m": 8, "m_schedule": [4, 8], "r": 2}
    bad = {"interval": [1.0, 0.0], "alpha": 2.0, "m": 500, "m_schedule": [8, 4], "r": 0}
    accepted = []
    for exp_id in ALL_IDS:
        for key in good:
            try:
                parse_config(json.dumps({"experiment": exp_id, key: good[key]}))
                accepted.append((exp_id, key))
                (error,) = errors_of(json.dumps({"experiment": exp_id, key: bad[key]}))
                assert error.startswith(f"{key}: ") and "does not read it" not in error
            except ParseError as exc:
                assert exc.errors == [f"{key}: {exp_id} does not read it"]
                assert errors_of(json.dumps({"experiment": exp_id, key: bad[key]})) == exc.errors
    readers = {"interval": ("ops-identities", "el-check", "falva", "sl-solve", "sl-converge"),
               "alpha": ("ops-identities", "el-check", "isoperimetric", "noether", "falva",
                         "sl-solve", "sl-converge"),
               "m": ("sl-solve", "direct-min"), "m_schedule": ("sl-converge",),
               "r": ("sl-solve", "sl-converge")}
    assert sorted(accepted) == sorted((e, key) for key, ids in readers.items() for e in ids)
    for exp_id in ALL_IDS:  # the settings every experiment reads
        parse_config(json.dumps({"experiment": exp_id, "n": 1024, "seed": 1, "tolerances": {},
                                 "output_dir": "out"}))


def test_errors_are_collected_not_first_only():
    msgs = errors_of('{"experiment": "sl-solve", "alpha": 2.0, "n": 100, "m": -1}')
    assert len(msgs) >= 3


def test_parse_error_is_a_value_error():
    assert issubclass(ParseError, ValueError)


def test_experiment_required():
    assert errors_of('{"n": 1024}') == ["experiment: required"]


# --- catalogue -------------------------------------------------------------


def test_catalogue_lists_every_experiment():
    text = list_experiments()
    for exp_id in ALL_IDS:
        assert exp_id in text
    assert text == list_experiments()  # stable output


def test_catalogue_text_and_order_are_pinned():
    """``fracvar list`` prints exactly these lines, and an unknown id names
    the valid ones in the same order."""
    assert list_experiments() == (
        "ops-identities: power-function identities plus semigroup and inverse laws of the "
        "one-sided fractional operators\n"
        "ibp-suite: two-sided integration-by-parts identity on seeded random polynomial pairs "
        "with a smooth difference kernel\n"
        "counterexample: bounded non-difference kernel where the integration-by-parts identity "
        "fails; both one-sided integrals have magnitude pi/4\n"
        "el-check: optimality residual along the closed-form extremal built from the "
        "one-parameter Mittag-Leffler function\n"
        "isoperimetric: constrained extremal with an exponential kernel; recovers the "
        "multiplier 2*xi\n"
        "noether: conserved-quantity drift along extremals: fractional momentum map and the "
        "classical limit\n"
        "falva: weighted optimality residual on a damped oscillator plus the dissipation "
        "parameter of the action weight\n"
        "sl-solve: Ritz spectrum of the composed-derivative eigenproblem with orthogonality "
        "and Rayleigh-quotient checks\n"
        "sl-converge: eigenvalue monotonicity and Cauchy convergence along a nested "
        "basis-size schedule\n"
        "direct-min: coefficient-space descent on three convex functionals with "
        "optimality-residual verification\n"
    )
    assert errors_of('{"experiment": "warp-drive"}') == [
        "experiment: unknown id 'warp-drive'; valid ids: " + ", ".join(ALL_IDS)
    ]


# --- running ----------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    cfg = parse_config(
        json.dumps({"experiment": "ops-identities", "n": 1024, "output_dir": str(out)})
    )
    return run(cfg), out


def test_run_passes_and_reports(smoke_record):
    record, _ = smoke_record
    assert record.passed
    assert record.experiment == "ops-identities"
    assert record.wall_time_s > 0.0
    for assertion in record.assertions:
        assert assertion.tolerance > 0.0
        assert assertion.passed


def test_run_writes_artifacts(smoke_record):
    record, out = smoke_record
    outdir = out / "ops-identities"
    names = {p.name for p in outdir.iterdir()}
    assert "results.json" in names
    assert "timing.txt" in names
    assert any(n.endswith(".csv") for n in names)
    payload = json.loads((outdir / "results.json").read_text())
    assert payload["inputs"]["seed"] == 20240817
    assert "wall_time_s" not in payload


def test_run_record_holds_what_results_json_holds(smoke_record):
    """The record's ``inputs`` and ``results`` are decoded from the file's
    text: plain lists, strings, floats, ints and bools, no numpy scalars."""
    record, out = smoke_record
    payload = json.loads((out / "ops-identities" / "results.json").read_text())
    assert record.inputs == payload["inputs"] and record.results == payload["results"]

    def leaves(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            for value in node:
                yield from leaves(value)
        else:
            yield node

    assert {type(v) for v in leaves([record.inputs, record.results])} <= {str, float, int, bool}


@pytest.mark.parametrize("interval", [(1.0, 2.0), (-1.0, 0.5)], ids=lambda v: "[%g, %g]" % v)
@pytest.mark.parametrize("experiment", ["ops-identities", "el-check", "falva", "sl-solve",
                                        "sl-converge"])
def test_interval_readers_pass_on_a_shifted_interval(tmp_path, experiment, interval):
    """Each experiment that reads ``interval`` passes at its defaults on
    an interval other than its own: its closed forms are stated from ``a``."""
    record = run(parse_config(json.dumps(
        {"experiment": experiment, "interval": interval, "output_dir": str(tmp_path)})))
    assert record.passed, [(a.id, a.measured) for a in record.assertions]
    assert record.inputs["interval"] == list(interval)


def test_run_is_deterministic(tmp_path):
    """Byte-identical repeat runs of one config, timing file aside."""
    cfg = parse_config(
        json.dumps({"experiment": "ops-identities", "n": 1024, "output_dir": str(tmp_path)})
    )
    outdir = tmp_path / "ops-identities"
    snapshots = []
    for _ in range(2):
        run(cfg)
        snapshots.append(
            {
                p.name: p.read_bytes()
                for p in sorted(outdir.iterdir())
                if p.name != "timing.txt"
            }
        )
    assert snapshots[0] == snapshots[1]


def test_run_respects_env_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACVAR_OUTPUT_DIR", str(tmp_path))
    cfg = parse_config('{"experiment": "ops-identities", "n": 1024}')
    run(cfg)
    assert (tmp_path / "ops-identities" / "results.json").exists()


def test_cli_rejects_an_empty_output_dir(tmp_path, capsys, monkeypatch):
    """An empty ``output_dir`` is a config error, not a fall back to the
    environment's root or ``./fracvar_results``: exit 2, nothing written."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FRACVAR_OUTPUT_DIR", str(tmp_path / "env"))
    assert main(["run", "--experiment", "ibp-suite", "--set", 'output_dir=""']) == 2
    assert capsys.readouterr().err == "config error: output_dir: must be a non-empty string\n"
    assert list(tmp_path.iterdir()) == []


def test_a_rerun_removes_the_tables_and_series_it_did_not_write(tmp_path):
    """``sl-solve`` with ``r = 3`` and then ``r = 2`` into one root leaves
    the series the second run lists and its table, and no other ``.csv`` or
    ``.dat`` file; files of other kinds stay."""
    outdir = tmp_path / "sl-solve"
    outdir.mkdir()
    (outdir / "notes.txt").write_text("kept\n")
    for r in (3, 2):
        record = run(parse_config(json.dumps(
            {"experiment": "sl-solve", "n": 1024, "r": r, "output_dir": str(tmp_path)})))
    assert sorted(record.series.values()) == ["eigenfunction-1.dat", "eigenfunction-2.dat"]
    assert sorted(p.name for p in outdir.iterdir()) == [
        "eigenfunction-1.dat", "eigenfunction-2.dat", "notes.txt", "results.json",
        "spectrum.csv", "timing.txt"]


def spy_lag_tables(monkeypatch):
    """Every ``(mu, count, T1, T2)`` the operators build with ``_lag_tables``."""
    seen = []
    real = operators._lag_tables

    def spy(mu, count):
        tables = real(mu, count)
        seen.append((mu, count, *tables))
        return tables

    monkeypatch.setattr(operators, "_lag_tables", spy)
    return seen


LEFT = operators.ParameterSet(0.0, 1.0, 1.0, 0.0)
EXP_KERNEL = operators.DifferenceKernel(lambda u: np.exp(-u))


def spy_rule_builds(monkeypatch):
    """Every ``(inside, kernel, grid)`` for which ``_left_rule`` builds a
    rule, and the parameter set of every ``_two_sided`` call."""
    builds, calls = [], []
    real_rule = operators._left_rule

    def spy(kernel, grid, inside):
        builds.append((inside, kernel, grid))
        return real_rule(kernel, grid, inside)

    monkeypatch.setattr(operators, "_left_rule", spy)
    real_two_sided = operators._two_sided

    def counting(*args):
        calls.append(args[0])
        return real_two_sided(*args)

    monkeypatch.setattr(operators, "_two_sided", counting)
    return builds, calls


def test_each_rule_builds_its_own_read_only_lag_tables(tmp_path, monkeypatch):
    """``el-check`` builds K's and B's rule of one kernel and grid, each on
    its own read-only ``(mu, count)`` tables; ``foundation._lag_tables``
    keeps nothing."""
    seen = spy_lag_tables(monkeypatch)
    builds, _ = spy_rule_builds(monkeypatch)
    run(parse_config(json.dumps({"experiment": "el-check", "n": 256, "output_dir": str(tmp_path)})))
    assert [(mu, count) for mu, count, *_ in seen] == [(0.6, 257)] * 2
    assert [inside for inside, *_ in builds] == [True, False]
    for mu, count, t1, t2 in seen:
        assert not (t1.flags.writeable or t2.flags.writeable)
    assert all(a is not b for a, b in zip(seen[0][2:], seen[1][2:]))


def test_lag_tables_outside_a_run_are_built_afresh():
    first, again = foundation._lag_tables(0.6, 64), foundation._lag_tables(0.6, 64)
    for a, b in zip(first, again):
        assert a is not b and not a.flags.writeable and np.array_equal(a, b)


@pytest.mark.parametrize("kernel, n", [
    (EXP_KERNEL, 64),
    (operators.GeneralKernel(lambda x, y: np.exp(x * y - x), 0.3), 300),
], ids=["difference", "engine"])
def test_repeated_calls_on_one_kernel_and_grid_build_each_rule_once(monkeypatch, kernel, n):
    """K's rule and B's rule of one kernel and grid are built once each,
    whatever the side weights of the calls that use them, and the kept
    rules give the bits fresh ones give."""
    builds, calls = spy_rule_builds(monkeypatch)
    g = Grid(0.0, 1.0, n)
    f = SampledFunction(g, np.cos(3.0 * g.nodes))
    sides = [LEFT, operators.ParameterSet(0.0, 1.0, 0.0, -1.3),
             operators.ParameterSet(0.0, 1.0, 0.8, 1.9)]
    applies = (operators.k_apply, operators.b_apply, operators.a_apply)
    kept = [apply(p, kernel, f).values for p in sides for apply in applies]
    assert builds == [(False, kernel, g), (True, kernel, g)] and len(calls) == 9
    fresh = []
    for p in sides:
        for apply in applies:
            operators._LAST_RULES.set(None)
            fresh.append(apply(p, kernel, f).values)
    assert len(builds) == 11
    assert all(np.array_equal(a, b) for a, b in zip(kept, fresh, strict=True))


def test_another_kernel_or_grid_frees_the_kept_rules_before_building(monkeypatch):
    """A call on an unequal kernel or grid empties the slot, dropping the
    last reference to the kept rules, before ``_left_rule`` runs; the
    slot then holds the new rule only."""
    g = Grid(0.0, 1.0, 64)
    ones = SampledFunction(g, np.ones(65))
    real_rule = operators._left_rule
    for kernel, grid in ((operators.PowerLawKernel(0.5, "integral"), g),
                         (EXP_KERNEL, Grid(0.0, 1.0, 65))):
        operators.k_apply(LEFT, EXP_KERNEL, ones)
        operators.b_apply(LEFT, EXP_KERNEL, ones)
        old = [weakref.ref(rule) for rule in operators._LAST_RULES.get()[1].values()]
        seen = []

        def spy(*args):
            gc.collect()
            key, rules = operators._LAST_RULES.get()
            seen.append((key, dict(rules), [ref() for ref in old]))
            return real_rule(*args)

        with monkeypatch.context() as patch:
            patch.setattr(operators, "_left_rule", spy)
            operators.k_apply(LEFT, kernel, SampledFunction(grid, np.ones(grid.n + 1)))
        assert len(old) == 2 and seen == [((kernel, grid), {}, [None, None])]
        assert list(operators._LAST_RULES.get()[1]) == [False]


def test_each_thread_keeps_its_own_rules():
    f = SampledFunction(Grid(0.0, 1.0, 64), np.ones(65))
    operators.k_apply(LEFT, EXP_KERNEL, f)
    kept = operators._LAST_RULES.get()
    seen = []
    thread = threading.Thread(target=lambda: seen.append(operators._LAST_RULES.get()))
    thread.start()
    thread.join()
    assert seen == [None] and operators._LAST_RULES.get() is kept


@pytest.mark.parametrize("experiment, rules, distinct, uses, sides",
                         [("ops-identities", 24, 18, 39, 2), ("ibp-suite", 1, 1, 40, 7)])
def test_a_run_builds_a_rule_again_only_after_another_kernel_or_grid(
        tmp_path, monkeypatch, experiment, rules, distinct, uses, sides):
    """A run builds a rule again only after a call on another kernel or
    grid: ``ops-identities`` uses 18 rules, six for each of its three
    orders, in 39 calls, and builds the K rules of both kernels at n = 256
    twice, once for the identities and once for the laws, 24 builds; all 40
    calls of ``ibp-suite``, under seven side weights, share one rule."""
    builds, calls = spy_rule_builds(monkeypatch)
    run(parse_config(json.dumps({"experiment": experiment, "n": 256, "output_dir": str(tmp_path)})))
    assert len(builds) == rules and len({(i, repr(k), g) for i, k, g in builds}) == distinct
    for _, group in itertools.groupby(builds, key=lambda build: build[1:]):
        insides = [inside for inside, *_ in group]
        assert len(set(insides)) == len(insides)
    assert len(calls) == uses and len(set(calls)) == sides


def test_cli_rejects_an_oversized_schedule_before_any_work(tmp_path, capsys, monkeypatch):
    """A schedule entry above the eigensolver's cap is a config error: exit 2,
    no file written and no lag table built."""
    seen = spy_lag_tables(monkeypatch)
    argv = ["run", "--experiment", "sl-converge", "--set", "m_schedule=[4, 250]",
            "--set", "n=8192", "--set", f"output_dir={tmp_path}"]
    assert main(argv) == 2
    assert "config error: m_schedule: must be a strictly increasing list of positive " \
           "integers at most 200" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [] and seen == []


# --- entry point ----------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "sl-solve" in out and "counterexample" in out


def test_cli_run_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"experiment": "ops-identities", "n": 1024, "output_dir": str(tmp_path)})
    )
    assert main(["run", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "artifacts:" in out


def test_cli_set_overrides_and_failure_exit(tmp_path, capsys):
    code = main(
        [
            "run",
            "--experiment",
            "ops-identities",
            "--set",
            "n=1024",
            "--set",
            f"output_dir={tmp_path}",
            "--set",
            'tolerances={"power-sup": 1e-30}',
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "failing assertions" in captured.err
    assert "FAIL" in captured.out


def test_cli_tolerance_override_by_assertion_id(tmp_path, capsys):
    """An override under an assertion's own id is that assertion's tolerance."""
    code = main(
        [
            "run",
            "--experiment",
            "counterexample",
            "--set",
            "n=1024",
            "--set",
            f"output_dir={tmp_path}",
            "--set",
            'tolerances={"left-value": 1e-30}',
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "failing assertions: left-value\n" in captured.err


@pytest.mark.parametrize(
    "experiment,override,needle",
    [
        ("direct-min", 'tolerances={"grad": 1e-30}', "tolerances.grad: names no assertion of direct-min"),
        ("el-check", "alpha=[0.4, 0.9]", "alpha: el-check takes exactly one order"),
        ("noether", "m=16", "m: noether does not read it"),
        ("direct-min", "m_schedule=[4, 8]", "m_schedule: direct-min does not read it"),
        ("ibp-suite", "r=3", "r: ibp-suite does not read it"),
        ("counterexample", "interval=[1, 2]", "interval: counterexample does not read it"),
        ("direct-min", "alpha=0.5", "alpha: direct-min does not read it"),
    ],
)
def test_cli_rejects_settings_the_run_does_not_read(tmp_path, capsys, experiment, override, needle):
    """A tolerance, an order, an interval or a basis setting the run does
    not read exits 2 and writes no file."""
    argv = ["run", "--experiment", experiment, "--set", f"output_dir={tmp_path}", "--set", override]
    assert main(argv) == 2
    assert f"config error: {needle}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_error_during_a_run_exits_two_and_writes_nothing(tmp_path, capsys, monkeypatch):
    """A runner that raises ``NumericError`` is reported as one line."""

    def failing(cfg, grid):
        raise NumericError("kernel evaluation non-finite at node 0.5")

    monkeypatch.setitem(_EXPERIMENTS, "counterexample",
                        _EXPERIMENTS["counterexample"]._replace(runner=failing))
    argv = ["run", "--experiment", "counterexample", "--set", "n=64",
            "--set", f"output_dir={tmp_path}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: NumericError: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "counterexample" / "results.json").exists()
    assert list(tmp_path.iterdir()) == []


def test_cli_failed_artifact_write_leaves_no_temporary_file(tmp_path, capsys, monkeypatch):
    """An artifact whose temporary file is written but cannot replace its
    target: the temporary file is removed and the error is one line."""

    def refuse(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    argv = ["run", "--experiment", "ibp-suite", "--set", "n=64", "--set", f"output_dir={tmp_path}"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: OSError: no space left on device\n"
    assert [path.name for path in tmp_path.rglob("*") if path.is_file()] == []


def test_cli_unwritable_artifact_root_exits_two(tmp_path, capsys):
    """An artifact root that is a file cannot hold the experiment's
    directory: the ``NotADirectoryError`` is reported as one line."""
    root = tmp_path / "file"
    root.write_text("")
    argv = ["run", "--experiment", "ibp-suite", "--set", "n=64", "--set", f"output_dir={root}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: NotADirectoryError: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_cli_parse_failures_exit_two(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    assert main(["run", "--set", "n=1024"]) == 2
    assert "experiment: required" in capsys.readouterr().err

    assert main(["run", "--experiment", "noether", "--set", "oops"]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_cli_missing_file_exits_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_unknown_subcommand_exits_two(capsys):
    assert main(["explode"]) == 2


@pytest.fixture(scope="module")
def catalogue(tmp_path_factory):
    """One run of the catalogue script at its defaults: its exit status, its
    output and the artifact root."""
    root = tmp_path_factory.mktemp("catalogue")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = runpy.run_path(RUN_ALL)["main"](["--output-root", str(root)])
    return code, out.getvalue(), root


def test_run_all_experiments_script_passes(catalogue):
    """The catalogue script runs all ten experiments at their defaults."""
    code, out, root = catalogue
    assert code == 0
    assert "all assertions passed across 10 experiments" in out
    assert sorted(p.name for p in root.iterdir()) == sorted(ALL_IDS)


#: the committed catalogue: each experiment's ``results.json`` at its
#: defaults and the SHA-256 digests of its ``.csv`` and ``.dat`` files,
#: the same at any BLAS thread count
REFERENCE = os.path.join(os.path.dirname(__file__), "catalogue")


def _same_documents(compare, want, got):
    """Whether two ``results.json`` documents have the same leaves, by the
    ``flatten`` and NaN-aware ``same`` of ``scripts/compare_results.py``
    (so ``inputs/output_dir`` is left out)."""
    want, got = dict(compare["flatten"](want)), dict(compare["flatten"](got))
    return want.keys() == got.keys() and all(compare["same"](want[k], got[k]) for k in want)


@pytest.mark.parametrize("name", ALL_IDS)
def test_catalogue_matches_the_committed_reference(catalogue, name):
    """Every number of ``results.json`` exactly the reference's, every
    verdict the same, no key missing or extra, and every table and series
    byte-identical, whatever the BLAS thread count.  A change that moves a
    number updates the reference: run ``scripts/run_all_experiments.py``
    (the README's recipe pins ``OPENBLAS_NUM_THREADS=1``), copy each
    ``results.json`` without ``inputs/output_dir``, and the ``digests`` of
    ``scripts/compare_results.py``."""
    compare = runpy.run_path(
        os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "compare_results.py"))
    with open(os.path.join(REFERENCE, name, "results.json")) as handle:
        want = json.load(handle)
    with open(os.path.join(REFERENCE, "digests.json")) as handle:
        want_files = json.load(handle)[name]
    folder = catalogue[2] / name
    got = json.loads((folder / "results.json").read_text())
    line, _ = compare["compare"](want, got)
    got_files = compare["digests"](folder)
    files_line, _ = compare["compare_files"](want_files, got_files)
    assert _same_documents(compare, want, got) and got_files == want_files, \
        f"{name}: {line}; {files_line}"


def test_catalogue_check_fails_on_a_one_ulp_change():
    """Moving any one number of the reference by one ulp fails the
    comparison."""
    compare = runpy.run_path(
        os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "compare_results.py"))
    for name in ALL_IDS:
        with open(os.path.join(REFERENCE, name, "results.json")) as handle:
            text = handle.read()
        paths = [path for path, value in compare["flatten"](json.loads(text))
                 if compare["is_number"](value)]
        assert paths
        for path in paths:
            moved = node = json.loads(text)
            for key in path[:-1]:  # a list entry with an id is keyed by it
                by_id = isinstance(node, list) and isinstance(key, str)
                node = next(n for n in node if n["id"] == key) if by_id else node[key]
            node[path[-1]] = float(np.nextafter(float(node[path[-1]]), math.inf))
            assert not _same_documents(compare, json.loads(text), moved), (name, path)


def test_run_all_experiments_script_defaults_to_the_environment_root(tmp_path, monkeypatch, capsys):
    """Without --output-root the script leaves the artifact root to
    ``run``, which reads ``FRACVAR_OUTPUT_DIR``."""
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_all_experiments.py")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FRACVAR_OUTPUT_DIR", str(tmp_path / "from-env"))
    assert runpy.run_path(script)["main"](["--only", "noether"]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["from-env"]
    assert (tmp_path / "from-env" / "noether" / "results.json").is_file()


def test_run_all_experiments_script_stops_at_a_config_error(capsys):
    assert runpy.run_path(RUN_ALL)["main"](["--only", "no-such-id"]) == 2
    assert "config error: experiment: unknown id 'no-such-id'" in capsys.readouterr().err


def test_run_all_experiments_script_names_the_failing_experiments(monkeypatch, capsys):
    """Each id is one ``fracvar run``; one that exits 1 fails the loop,
    which still runs the rest."""
    calls = []
    monkeypatch.setattr("fracvar.cli.main", lambda argv: calls.append(argv) or int("falva" in argv))
    assert runpy.run_path(RUN_ALL)["main"](["--seed", "5"]) == 1
    assert calls == [["run", "--experiment", name, "--set", "seed=5"] for name in ALL_IDS]
    assert capsys.readouterr().out == "failing experiments: falva\n"


def test_run_all_experiments_script_passes_its_seed_and_a_numeric_root(tmp_path, monkeypatch, capsys):
    """``--seed`` reaches the tables, and an output root that reads as a
    JSON number stays a directory name."""
    monkeypatch.chdir(tmp_path)
    assert runpy.run_path(RUN_ALL)["main"](["--only", "ibp-suite", "--seed", "5", "--output-root", "7"]) == 0
    assert "all assertions passed across 1 experiments" in capsys.readouterr().out
    lines = (tmp_path / "7" / "ibp-suite" / "pairs.csv").read_text().splitlines()
    assert lines[0].endswith(",seed") and len(lines) == 21
    assert all(line.endswith(",5") for line in lines[1:])


def test_compare_results_script_reports_changes_and_fails_on_verdicts(tmp_path, capsys):
    """The artifact roots differ in ``inputs/output_dir`` alone, then in
    one number, then in a verdict, a key and an experiment."""
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "compare_results.py")
    compare = runpy.run_path(script)["main"]

    def write(root, doc, name="noether"):
        (tmp_path / root / name).mkdir(parents=True, exist_ok=True)
        (tmp_path / root / name / "results.json").write_text(json.dumps(doc))
        return str(tmp_path / root)

    doc = {"assertions": [{"id": "drift", "measured": 2.0, "passed": True}],
           "inputs": {"n": 64, "output_dir": "a"}, "results": {"drift": 2.0, "series": [1.0, 0.0]}}
    a = write("a", doc)
    doc["inputs"]["output_dir"] = "b"
    assert compare([a, write("b", doc)]) == 0
    assert "noether: 0 of 5 numbers differ" in capsys.readouterr().out

    doc["results"]["drift"] = 2.5
    assert compare([a, write("b", doc)]) == 0
    assert "1 of 5 numbers differ; max abs 0.5, max rel 0.25 (results/drift: 2.0 -> 2.5)" in capsys.readouterr().out

    for change in (lambda d: d["assertions"][0].update(passed=False), lambda d: d["results"].pop("series")):
        broken = json.loads(json.dumps(doc))
        change(broken)
        assert compare([a, write("b", broken)]) == 1
    write("b", doc, name="falva")
    assert compare([a, write("b", doc)]) == 1
    assert "falva: results.json only under ROOT_B" in capsys.readouterr().out


def test_compare_results_script_compares_tables_and_series_byte_for_byte(tmp_path, capsys):
    """Beside ``results.json`` each experiment's ``.csv`` and ``.dat``
    files are compared byte for byte and ``timing.txt`` is left out; a
    file under one root only fails the comparison."""
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "compare_results.py")
    compare = runpy.run_path(script)["main"]
    roots = []
    for root, timing in (("a", "0.1 s\n"), ("b", "0.2 s\n")):
        folder = tmp_path / root / "counterexample"
        folder.mkdir(parents=True)
        (folder / "results.json").write_text(json.dumps({"results": {"lhs": 0.78}}))
        (folder / "values.csv").write_text("quantity,value\nlhs,0.78\n")
        (folder / "kernel-transform.dat").write_text("0 1\n1 2\n")
        (folder / "timing.txt").write_text(timing)
        roots.append(str(tmp_path / root))
    assert compare(roots) == 0
    assert "counterexample: 0 of 1 numbers differ; max abs 0, max rel 0; 0 of 2 files differ" in capsys.readouterr().out

    (tmp_path / "b" / "counterexample" / "values.csv").write_text("quantity,value\nlhs,0.79\n")
    assert compare(roots) == 0
    assert "; 1 of 2 files differ (values.csv)" in capsys.readouterr().out

    (tmp_path / "b" / "counterexample" / "kernel-transform.dat").unlink()
    assert compare(roots) == 1
    out = capsys.readouterr().out
    assert "1 of 1 files differ (values.csv)" in out
    assert "file kernel-transform.dat only under ROOT_A" in out


def test_compare_results_script_rejects_a_missing_root(tmp_path, capsys):
    """A root that is not a directory is one error line and exit 2, which
    no comparison returns."""
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "compare_results.py")
    compare = runpy.run_path(script)["main"]
    missing = str(tmp_path / "absent")
    assert compare([str(tmp_path), missing]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: artifact root {missing} is not a directory\n"
    assert captured.out == ""


@pytest.mark.parametrize("text", [b'{"results": ', b"\xff"], ids=["truncated", "not-utf8"])
def test_compare_results_script_rejects_a_malformed_results_file(tmp_path, capsys, text):
    """A ``results.json`` that cannot be parsed is one error line and
    exit 2, which no comparison returns."""
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "compare_results.py")
    compare = runpy.run_path(script)["main"]
    for root, content in (("a", b"{}"), ("b", text)):
        (tmp_path / root / "noether").mkdir(parents=True)
        (tmp_path / root / "noether" / "results.json").write_bytes(content)
    assert compare([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    captured = capsys.readouterr()
    path = os.path.join(str(tmp_path / "b"), "noether", "results.json")
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "doc",
    [{"experiment": exp_id} for exp_id in ALL_IDS] + [{"experiment": "sl-solve", "alpha": 1.0}],
    ids=list(ALL_IDS) + ["sl-solve-classical"],
)
def test_assertion_table_matches_the_run(doc):
    """The ids ``tolerances`` is checked against at parse time are the ids
    the runner emits."""
    cfg = parse_config(json.dumps(doc))
    assertions = _EXPERIMENTS[cfg.experiment].runner(cfg, Grid(cfg.a, cfg.b, cfg.n))[3]
    assert tuple(a.id for a in assertions) == _assertion_ids(cfg.experiment, cfg.alpha)


def test_direct_min_descent_takes_few_iterations(tmp_path):
    """At its defaults each direct-min problem converges within 20
    preconditioned steps (unpreconditioned descent took 270, 172 and 59)."""
    run(parse_config(json.dumps({"experiment": "direct-min", "output_dir": str(tmp_path)})))
    lines = (tmp_path / "direct-min" / "minimizations.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [row["problem"] for row in rows] == ["translated-quadratic", "quasilinear", "integral-tracking"]
    for row in rows:
        assert row["stop"] == "converged"
        assert int(row["iterations"]) <= 20
