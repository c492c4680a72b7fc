import json

import pytest

from fracvar import ParseError, list_experiments, parse_config, run
from fracvar.cli import main

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
        ('{"experiment": "noether", "n": 1000}', "power of two"),
        ('{"experiment": "noether", "n": 16}', "power of two"),
        ('{"experiment": "noether", "n": 32768}', "power of two"),
        ('{"experiment": "noether", "n": true}', "power of two"),
        ('{"experiment": "noether", "m": 500}', "at most 200"),
        ('{"experiment": "noether", "interval": [1.0, 0.0]}', "interval"),
        ('{"experiment": "noether", "interval": [0.0]}', "interval"),
        ('{"experiment": "sl-converge", "m_schedule": [8, 4]}', "strictly increasing"),
        ('{"experiment": "sl-solve", "r": 0}', "positive integer"),
        ('{"experiment": "sl-solve", "m": 4, "r": 9}', "must not exceed m"),
        ('{"experiment": "sl-converge", "m_schedule": [4, 8], "r": 6}', "smallest m_schedule"),
        ('{"experiment": "noether", "tolerances": {"x": -1.0}}', "tolerances.x"),
        ('{"experiment": "noether", "tolerances": 3}', "tolerances"),
        ('{"experiment": "noether", "output_dir": 4}', "output_dir"),
        ('{"experiment": "noether", "seed": 1.5}', "seed"),
        ('{"experiment": "sl-solve", "m": 100, "n": 1024}', "32*m"),
        ('{"experiment": "sl-converge", "m_schedule": [64, 128], "n": 1024}', "32*max"),
        ('[1, 2]', "top level"),
        ('{"experiment": "noether", "alpha": "big"}', "alpha"),
    ],
)
def test_field_errors(doc, needle):
    assert any(needle in m for m in errors_of(doc))


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
