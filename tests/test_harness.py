import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasequant import cli, curved, harness
from phasequant.errors import ConfigError, ExperimentError, QuadratureAccuracyError

EXPERIMENTS = [entry.name for entry in harness.list_experiments()]

#: The config settings each experiment's runner reads, with their defaults.
SETTINGS = {
    "flat-axioms": {"hbar": 1.0, "truncation_K": 32},
    "orderings": {"hbar": 1.0, "ordering": "standard", "truncation_K": 16},
    "curved-defect": {
        "hbar": 1.0,
        "manifold": "sphere:1.0",
        "symbol": {"coefficient": "inverse-metric", "degree": 2},
    },
    "point-transform": {"hbar": 1.0},
    "cylinder-axioms": {
        "hbar": 1.0,
        "cutoff": {"profile": "smoothstep", "plateau": 0.8, "support": 2.8},
        "truncation_K": 64,
    },
    "discrete-limit": {"truncation_K": 32},
    "discrete-orthogonality": {"hbar": 1.0, "truncation_K": 64, "truncation_N": 3},
}


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
        {
            "experiment": "cylinder-axioms",
            "cutoff": {"profile": "smoothstep", "plateau": 0.8, "support": 2.8, "x": 1},
        },
        {"experiment": "cylinder-axioms", "cutoff": "wide"},
    ],
)
def test_invalid_configs_rejected(overrides):
    payload = {"experiment": "flat-axioms", **overrides}
    with pytest.raises(ConfigError):
        harness.ExperimentConfig.from_dict(payload)


@pytest.mark.parametrize(
    "experiment, key, value",
    [
        ("point-transform", "manifold", "sphere:1.0"),
        ("discrete-limit", "hbar", 0.37),
        ("flat-axioms", "cutoff", {"plateau": 0.5}),
        ("curved-defect", "truncation_K", 16),
        ("cylinder-axioms", "symbol", "constant"),
    ],
)
def test_unread_config_key_rejected(experiment, key, value):
    with pytest.raises(ConfigError) as excinfo:
        harness.ExperimentConfig.from_dict({"experiment": experiment, key: value})
    assert repr(key) in str(excinfo.value)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_default_config_lists_exactly_the_settings_read(name):
    template = harness.default_config(name)
    comments = template.pop("_comments")
    assert template == {"experiment": name, **SETTINGS[name], "tolerances": {}, "output_dir": None}
    assert list(comments) == list(template)


BROKEN_BUILDS = [
    {"experiment": "curved-defect", "symbol": {"coefficient": "custom:sin(", "degree": 2}},
    {
        "experiment": "curved-defect",
        "symbol": {"coefficient": "inverse-metric", "degree": 2, "colour": 1},
    },
    {"experiment": "orderings", "ordering": "bogus"},
]


@pytest.mark.parametrize("payload", BROKEN_BUILDS)
def test_validation_builds_symbol_and_ordering(payload):
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

    for name, report in reports.items():
        assert report.environment == {"version": phasequant.__version__, **SETTINGS[name]}
        if "hbar" in report.environment:
            assert type(report.environment["hbar"]) is float


def test_summary_lines_contain_pass_tag_and_values(reports):
    lines = reports["flat-axioms"].summary_lines()
    assert len(lines) == len(reports["flat-axioms"].records)
    for line in lines:
        assert line.startswith("[PASS]") or line.startswith("[FAIL]")
        assert "measured=" in line and "tol=" in line


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


def test_non_finite_values_serialize_as_strict_json(tmp_path):
    record = harness.CheckRecord("probe", math.nan, 0.0, 1e-8, "abs", "TRIVIAL", False)
    series = {"curve": {"columns": ["x", "y"], "rows": [[1.0, math.inf], [2.0, -math.inf]]}}
    report = harness.Report("probe", {"version": "0"}, [record], series, "now")

    def reject(constant):
        raise ValueError(f"non-JSON literal {constant}")

    payload = json.loads(report.to_json(), parse_constant=reject)
    assert payload["records"][0]["measured"] == "NaN"
    assert payload["series"]["curve"]["rows"] == [[1.0, "Infinity"], [2.0, "-Infinity"]]
    report.write(tmp_path, format="csv")
    assert (tmp_path / "probe-records.csv").read_text().splitlines()[1].startswith("probe,nan,")
    assert (tmp_path / "probe-curve.csv").read_text().splitlines()[1:] == ["1.0,inf", "2.0,-inf"]


def test_checks_must_arrive_in_declared_order():
    cfg = harness.ExperimentConfig.from_dict({"experiment": "point-transform"})
    checks = harness._Checks(cfg, ("first", "second"), 1.0)
    with pytest.raises(ExperimentError, match="'second'"):
        checks.add("second", 0.0, 0.0, 1e-8, "TRIVIAL")
    checks.add("first", 0.0, 0.0, 1e-8, "TRIVIAL")
    assert checks.pending == "second"


def test_library_error_names_the_pending_check(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise QuadratureAccuracyError(1e-3, 1e-8)

    monkeypatch.setattr(curved, "axiom_defect", fail)
    cfg = harness.ExperimentConfig.from_dict({"experiment": "curved-defect"})
    with pytest.raises(ExperimentError, match="check 'defect-value' could not be evaluated"):
        harness.run_experiment(cfg)
    config_path = tmp_path / "cd.json"
    config_path.write_text(json.dumps({"experiment": "curved-defect"}))
    assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out")) == 2
    assert "'defect-value'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize(
    "symbol",
    [
        {"coefficient": "constant", "degree": 2, "scale": "x"},
        {"coefficient": 5, "degree": 2},
    ],
)
def test_cli_malformed_symbol_is_a_config_error(tmp_path, capsys, symbol):
    config_path = tmp_path / "cd.json"
    config_path.write_text(json.dumps({"experiment": "curved-defect", "symbol": symbol}))
    assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out")) == 2
    assert "error: symbol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "payload",
    BROKEN_BUILDS + [{"experiment": "discrete-limit", "hbar": 0.37}],
)
def test_cli_rejects_config_it_cannot_run(tmp_path, capsys, payload):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(payload))
    assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out")) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# imports


SRC = Path(__file__).resolve().parent.parent / "src"


def test_harness_and_cylinder_import_without_scipy():
    code = (
        "import sys, phasequant.harness, phasequant.cylinder; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_quad_still_resolves_on_harness_and_cylinder():
    from scipy.integrate import quad

    from phasequant import cylinder

    assert cylinder.quad is quad
    assert harness.quad is quad
    with pytest.raises(AttributeError):
        cylinder.no_such_name
    with pytest.raises(AttributeError):
        harness.no_such_name
