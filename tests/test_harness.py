import json
import math

import numpy as np
import pytest

from phasequant import cli, harness
from phasequant.errors import ConfigError

EXPERIMENTS = [entry.name for entry in harness.list_experiments()]


@pytest.fixture(scope="session")
def reports():
    """One full run of every experiment, shared across assertions."""
    out = {}
    for name in EXPERIMENTS:
        cfg = harness.ExperimentConfig.from_dict({"experiment": name})
        out[name] = harness.run_experiment(cfg)
    return out


# ---------------------------------------------------------------------------
# catalog


def test_catalog_has_seven_stable_entries():
    entries = harness.list_experiments()
    assert [e.name for e in entries] == [
        "flat-axioms",
        "orderings",
        "curved-defect",
        "point-transform",
        "cylinder-axioms",
        "discrete-limit",
        "discrete-orthogonality",
    ]
    for entry in entries:
        assert entry.description
        assert entry.anchor


def test_catalog_matches_check_name_table():
    assert set(harness.CHECK_NAMES) == set(EXPERIMENTS)


# ---------------------------------------------------------------------------
# config validation


def test_from_dict_requires_experiment():
    with pytest.raises(ConfigError):
        harness.ExperimentConfig.from_dict({})


def test_unknown_experiment_error_lists_valid_names():
    with pytest.raises(ConfigError) as excinfo:
        harness.ExperimentConfig.from_dict({"experiment": "bogus"})
    message = str(excinfo.value)
    for name in EXPERIMENTS:
        assert name in message


@pytest.mark.parametrize(
    "overrides",
    [
        {"hbar": 0.0},
        {"hbar": -1.0},
        {"hbar": True},
        {"truncation_K": 0},
        {"truncation_K": 3.5},
        {"wavelength": 3},
        {"tolerances": {"no-such-check": 1e-6}},
        {"tolerances": {"kernel-trace": 0.0}},
        {"cutoff": {"profile": "smoothstep", "plateau": 0.8, "support": 2.8, "x": 1}},
        {"cutoff": "wide"},
    ],
)
def test_invalid_configs_rejected(overrides):
    payload = {"experiment": "flat-axioms", **overrides}
    with pytest.raises(ConfigError):
        harness.ExperimentConfig.from_dict(payload)


def test_cylinder_truncation_cap():
    with pytest.raises(ConfigError):
        harness.ExperimentConfig.from_dict(
            {"experiment": "cylinder-axioms", "truncation_K": 96}
        )


def test_partial_cutoff_merges_over_defaults():
    # A partial spec fills in the remaining knobs from the defaults, so this
    # parses fine; the family itself is only built when the experiment runs.
    cfg = harness.ExperimentConfig.from_dict(
        {"experiment": "cylinder-axioms", "cutoff": {"plateau": 0.5}, "truncation_K": 8}
    )
    assert cfg.cutoff["plateau"] == 0.5


def test_unbuildable_cutoff_fails_at_run_time():
    cfg = harness.ExperimentConfig.from_dict(
        {"experiment": "cylinder-axioms", "cutoff": {"plateau": 3.0}, "truncation_K": 8}
    )
    with pytest.raises(ConfigError):
        harness.run_experiment(cfg)


def test_tolerance_override_accepted_when_named_correctly():
    cfg = harness.ExperimentConfig.from_dict(
        {"experiment": "flat-axioms", "tolerances": {"kernel-trace": 5e-3}}
    )
    assert cfg.tolerances["kernel-trace"] == 5e-3


def test_default_config_round_trips_through_parser():
    for name in EXPERIMENTS:
        template = harness.default_config(name)
        parsed = json.loads(json.dumps(template))
        cfg = harness.ExperimentConfig.from_dict(parsed)
        assert cfg.experiment == name


def test_config_file_parse_error_names_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"experiment": "flat-axioms",}\n')
    with pytest.raises(ConfigError) as excinfo:
        harness.ExperimentConfig.from_file(path)
    assert "line" in str(excinfo.value)


# ---------------------------------------------------------------------------
# reports


def test_all_experiments_pass(reports):
    failures = [
        f"{name}/{record.name}"
        for name, report in reports.items()
        for record in report.records
        if not record.passed
    ]
    assert not failures, failures


def test_record_names_match_declared_checks(reports):
    for name, report in reports.items():
        got = [record.name for record in report.records]
        assert got == list(harness.CHECK_NAMES[name])


def test_every_record_carries_a_provenance_tag(reports):
    for report in reports.values():
        for record in report.records:
            assert record.provenance.startswith(("PAPER", "DERIVED", "TRIVIAL"))


def test_environment_stamp(reports):
    import phasequant

    for report in reports.values():
        env = report.environment
        assert env["version"] == phasequant.__version__
        assert env["hbar"] == 1.0
        assert "truncation_K" in env


def test_summary_lines_contain_pass_tag_and_values(reports):
    lines = reports["flat-axioms"].summary_lines()
    assert len(lines) == len(reports["flat-axioms"].records)
    for line in lines:
        assert line.startswith("[PASS]") or line.startswith("[FAIL]")
        assert "measured=" in line and "tol=" in line


def test_reports_are_deterministic_excluding_timestamp():
    cfg = harness.ExperimentConfig.from_dict({"experiment": "point-transform"})
    a = harness.run_experiment(cfg).as_dict()
    b = harness.run_experiment(cfg).as_dict()
    a.pop("timestamp")
    b.pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_files_written(tmp_path, reports):
    report = reports["discrete-limit"]
    paths = report.write(tmp_path)
    names = sorted(p.name for p in paths)
    assert names == [
        "discrete-limit-limit_error_vs_j.csv",
        "discrete-limit-records.csv",
        "discrete-limit.json",
    ]
    payload = json.loads((tmp_path / "discrete-limit.json").read_text())
    assert payload["experiment"] == "discrete-limit"
    assert payload["passed"] is True
    header = (tmp_path / "discrete-limit-records.csv").read_text().splitlines()[0]
    assert header == "name,measured,reference,tolerance,mode,provenance,passed"


def test_report_format_filter(tmp_path, reports):
    report = reports["discrete-limit"]
    json_only = report.write(tmp_path / "a", format="json")
    assert all(p.suffix == ".json" for p in json_only)
    csv_only = report.write(tmp_path / "b", format="csv")
    assert csv_only and all(p.suffix == ".csv" for p in csv_only)


def test_series_columns(reports):
    series = dict(reports["flat-axioms"].series)
    assert "trace_vs_K" in series
    entry = series["trace_vs_K"]
    assert entry["columns"] == ["K", "deviation"]
    ks = [row[0] for row in entry["rows"]]
    assert ks == sorted(ks)


def test_tolerance_scale_loosens_and_tightens():
    cfg = harness.ExperimentConfig.from_dict({"experiment": "point-transform"})
    strict = harness.run_experiment(cfg, tolerance_scale=1e-20)
    assert not strict.passed
    loose = harness.run_experiment(cfg, tolerance_scale=1e6)
    assert loose.passed
    with pytest.raises(ConfigError):
        harness.run_experiment(cfg, tolerance_scale=0.0)


def test_hbar_override_is_echoed_and_scales_defect():
    cfg = harness.ExperimentConfig.from_dict(
        {"experiment": "curved-defect", "hbar": 0.5}
    )
    report = harness.run_experiment(cfg)
    assert report.environment["hbar"] == 0.5
    record = {r.name: r for r in report.records}["defect-value"]
    assert record.passed
    assert record.measured == pytest.approx(2.0 / 3.0 * 0.25, rel=1e-4)


# ---------------------------------------------------------------------------
# command-line interface


def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_list(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_cli_show_config_emits_valid_json(capsys):
    assert run_cli("show-config", "flat-axioms") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "flat-axioms"
    assert "_comments" in payload


def test_cli_show_config_unknown_experiment(capsys):
    assert run_cli("show-config", "bogus") == 2
    assert "error:" in capsys.readouterr().err


def test_cli_run_writes_reports_and_returns_zero(tmp_path, capsys):
    config_path = tmp_path / "pt.json"
    config_path.write_text(json.dumps({"experiment": "point-transform"}))
    code = run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out"))
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out
    assert (tmp_path / "out" / "point-transform.json").exists()


def test_cli_run_failure_exit_code(tmp_path, capsys):
    config_path = tmp_path / "pt.json"
    config_path.write_text(json.dumps({"experiment": "point-transform"}))
    code = run_cli(
        "run",
        "--config",
        str(config_path),
        "--out",
        str(tmp_path / "out"),
        "--tolerance-scale",
        "1e-20",
    )
    assert code == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_cli_run_config_error_exit_code(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"experiment": "nope"}))
    assert run_cli("run", "--config", str(config_path)) == 2
    assert "valid names" in capsys.readouterr().err


def test_cli_run_missing_file(tmp_path, capsys):
    assert run_cli("run", "--config", str(tmp_path / "absent.json")) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_out_dir_defaults_to_config_output_dir(tmp_path, capsys, monkeypatch):
    target = tmp_path / "from-config"
    config_path = tmp_path / "pt.json"
    config_path.write_text(
        json.dumps({"experiment": "point-transform", "output_dir": str(target)})
    )
    assert run_cli("run", "--config", str(config_path)) == 0
    capsys.readouterr()
    assert (target / "point-transform.json").exists()


def test_cli_curved_defect_rejects_symbol_without_degree_two(tmp_path, capsys):
    config_path = tmp_path / "cd.json"
    config_path.write_text(
        json.dumps(
            {"experiment": "curved-defect", "symbol": {"coefficient": "cos-theta", "degree": 1}}
        )
    )
    assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out")) == 2
    assert "degree 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("manifold", ["circle", "polar-plane", "euclidean:2"])
def test_cli_curved_defect_rejects_flat_manifold(tmp_path, capsys, manifold):
    config_path = tmp_path / "cd.json"
    config_path.write_text(json.dumps({"experiment": "curved-defect", "manifold": manifold}))
    assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out")) == 2
    assert repr(manifold) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_curved_defect_runs_on_a_nearly_flat_sphere(tmp_path, capsys):
    # scalar curvature 2e-14: small, but the manifold is curved and validation
    # accepts it, so the run must end in a report, not a runtime error
    config_path = tmp_path / "cd.json"
    config_path.write_text(json.dumps({"experiment": "curved-defect", "manifold": "sphere:1e7"}))
    code = run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out"))
    capsys.readouterr()
    assert code != 2
    report = json.loads((tmp_path / "out" / "curved-defect.json").read_text())
    ricci = next(r for r in report["records"] if r["name"] == "ricci-coefficient")
    assert ricci["passed"]
