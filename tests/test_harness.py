import copy
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from phasequant import cli, curved, cylinder, flat_weyl, harness
from phasequant.errors import ConfigError, ExperimentError, QuadratureAccuracyError
from phasequant.fields import from_expression

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
    # parses and builds fine.
    cfg = harness.ExperimentConfig.from_dict(
        {"experiment": "cylinder-axioms", "cutoff": {"plateau": 0.5}, "truncation_K": 8}
    )
    assert cfg.cutoff["plateau"] == 0.5


@pytest.mark.parametrize(
    "cutoff",
    [{"plateau": 3.0}, {"plateau": "x"}, {"plateau": None}, {"support": True}, {"mollifier": 0}],
)
def test_unbuildable_cutoff_rejected_at_validation(cutoff):
    with pytest.raises(ConfigError):
        harness.ExperimentConfig.from_dict({"experiment": "cylinder-axioms", "cutoff": cutoff, "truncation_K": 8})


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
# random symbols


def test_polynomial_field_is_bit_identical_to_its_parsed_source():
    # the field is built node by node in the order the parser builds
    # "(c0)*x**0 + (c1)*x**1 + (c2)*x**2 + (c3)*x**3", so its values and
    # partials agree bit for bit with those of the parsed text
    rng = np.random.default_rng(20260814)
    points = np.linspace(-1.7, 1.9, 23).reshape(-1, 1)
    for _ in range(20):
        coeffs = copy.deepcopy(rng).uniform(-1.0, 1.0, size=4)
        field = harness._polynomial_field(rng, "x")
        parsed = from_expression(" + ".join(f"({float(c)!r})*x**{k}" for k, c in enumerate(coeffs)), ("x",))
        assert field.jet(points, 3).tobytes() == parsed.jet(points, 3).tobytes()
        assert field.jet(points[5], 3).tobytes() == parsed.jet(points[5], 3).tobytes()


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


# SHA-256 of every default report file, the JSON timestamp line removed.  A
# change that moves any report value, or the layout of a report, changes one
# of these; such a change re-pins them and says which values moved.  The
# discrete-orthogonality, flat-axioms and orderings files and the cylinder-axioms
# series were last re-recorded when Gauss-Hermite rules came from Newton steps
# on the Hermite recurrence, operator matrices from one basis table per grid and
# trapezoid Fourier coefficients from one FFT: all move values at rounding
# level only.  The cylinder-axioms JSON and records were last re-recorded when
# the entry-oracle's reference became a tanh-sinh rule, which moved it from
# 1.1e-16 to 2.2e-16.  The curved-defect files were last re-recorded when the
# finite-difference density reference took numpy's vector functions, which
# moved density-jet-ricci at rounding level.
REPORT_SHA256 = {
    "curved-defect-defect_vs_p.csv": "46e41d2e8b5d69398cac653df6e10a5f3eb456afaf7c86996dba271612b4492c",
    "curved-defect-records.csv": "067d51846132f23b3db453bf3f48e1e986ac6cb19ebd4544a799ba86fbf7da48",
    "curved-defect.json": "8774ddbe82e8529c952ef70d7df8bd86751d62cc4de92019e9b53b0c767b86cf",
    "cylinder-axioms-records.csv": "38d6b5803f44bba499196650585480bbb248d6c578f7062a63fad597fe1aabcb",
    "cylinder-axioms-reproduction_vs_m.csv": "173ee0ae2e6aa9b859e4327102400e5db0d231b274fdd5e40ca0ede9681feb90",
    "cylinder-axioms-smeared_trace_vs_K.csv": "dd22b7ff4c957de51002cb1ec38dd17c748049b9236865b16eb689fa698fc5e8",
    "cylinder-axioms.json": "c40990624a2292ff6aa2d33b888f89aca1bd2d46a8d566c25eb47ff71d07660a",
    "discrete-limit-limit_error_vs_j.csv": "3828bfe54a7252f0b4cf81ab8304d2494950ba07c1dd5272fcfacce2d93b52ed",
    "discrete-limit-records.csv": "1acefef31c31c3b6e32f550656c6716347b648175726c3d7c5555730723786f7",
    "discrete-limit.json": "3712894bf1d5fb4016c0f3f8cd5372e2363baa262537537f8ed49789f353b263",
    "discrete-orthogonality-orthogonality_vs_K.csv": "2f1d1d22a361f43a1c5090a4b2df849f66a1d480825fe7dbe577df717a768ada",
    "discrete-orthogonality-records.csv": "ee0c46d511215ec07100ed78258f389a25ae4c22df825110f4b947edfef92ddb",
    "discrete-orthogonality.json": "0404e9f478eb2190ca40e3114aa9a8738ec12991444cb3818c8357af4de8c71f",
    "flat-axioms-records.csv": "6341eee9f26f7e5f99222382c8e9fa10a12e96f66cc3e289cd58b56959bf6246",
    "flat-axioms-trace_vs_K.csv": "b5b558e57fcb249d457b2ab770ca387c9682ec4fa1d5b2236fb6a1fd8f3c19f0",
    "flat-axioms.json": "bb274db64c4ffe8ce41369c4dc3d66dc2c4677da9ba323971b60d17a8d6ff85b",
    "orderings-records.csv": "9f568ef636200aa32ccd981e6e46962f6ceb9250421a64dcea3981c7d951f1ea",
    "orderings.json": "fd579ede998a5d7ca95fd4974a95a7448eaae9d281f98011811125b5f7972b1b",
    "point-transform-records.csv": "92880e32ce32a031e237da1d72fc909633a82a7cdfe2f2f327fead5bf8dec2c0",
    "point-transform-shift_vs_r.csv": "bfd233898d828bb467d0d02874745eb1ddd3599941110d18abd6e7d79baee874",
    "point-transform.json": "b3b5d3697596083885e9f5f2651d39ac844bb1afe3e4f70e12a364133af0ede8",
}


def test_default_reports_match_their_pinned_digests(tmp_path, reports):
    for report in reports.values():
        report.write(tmp_path)
    digests = {}
    for path in sorted(tmp_path.iterdir()):
        lines = path.read_bytes().splitlines(keepends=True)
        kept = [line for line in lines if not line.lstrip().startswith(b'"timestamp"')]
        digests[path.name] = hashlib.sha256(b"".join(kept)).hexdigest()
    assert digests == REPORT_SHA256


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
# entry-oracle

ORACLE_CUTOFFS = {
    **{f"default-{profile}": cylinder.CutoffFamily(0.8, 2.8, profile) for profile in ("smoothstep", "classic-bump")},
    **{
        f"mollifier-{j}-{profile}": cylinder.CutoffFamily.mollifier(j, profile)
        for j in range(1, 5)
        for profile in ("smoothstep", "classic-bump")
    },
}


@pytest.mark.parametrize("chi", ORACLE_CUTOFFS.values(), ids=ORACLE_CUTOFFS.keys())
def test_tanh_sinh_oracle_matches_scipy_quad(chi):
    from scipy.integrate import IntegrationWarning, quad

    for s in range(17):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            want, _ = quad(
                lambda x: 2.0 * chi.value(x) ** 2 * math.cos(s * x),
                0.0,
                chi.support,
                points=(chi.plateau,),
                limit=400,
                epsabs=1e-14,
                epsrel=1e-14,
            )
        assert harness._tanh_sinh_cosine(chi, float(s)) == pytest.approx(want, abs=1e-13), s


def test_tanh_sinh_oracle_skips_the_empty_transition_and_raises_when_unresolved():
    indicator = cylinder.CutoffFamily(1.3, 1.3, "indicator")
    for s in (0.0, 1.0, 7.0):
        want = 2.0 * 1.3 if s == 0.0 else 2.0 * math.sin(1.3 * s) / s
        assert harness._tanh_sinh_cosine(indicator, s) == pytest.approx(want, abs=1e-15)
    with pytest.raises(QuadratureAccuracyError):
        harness._tanh_sinh_cosine(indicator, 1e4)


def test_entry_oracle_fails_when_the_transform_is_perturbed(monkeypatch, reports):
    def record(report):
        return {r.name: r for r in report.records}["entry-oracle"]

    assert record(reports["cylinder-axioms"]).passed
    integral = cylinder._cosine_integral
    monkeypatch.setattr(cylinder, "_cosine_integral", lambda *args: integral(*args) * (1.0 + 1e-9))
    perturbed = record(harness.run_experiment(harness.ExperimentConfig.from_dict({"experiment": "cylinder-axioms"})))
    assert not perturbed.passed


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


def test_cli_run_overflowing_hbar_exit_code(tmp_path, capsys):
    """An overflow inside a check is a runtime error, not a failed check."""
    config_path = tmp_path / "big-hbar.json"
    config_path.write_text(json.dumps({"experiment": "orderings", "hbar": 1e300}))
    assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out")) == 2
    assert "could not be evaluated" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_orderings_passes_at_large_truncation(tmp_path, capsys):
    # a fixed 192-node coarse rule no longer resolves the K = 64 Hermite basis
    config_path = tmp_path / "orderings.json"
    config_path.write_text(json.dumps({"experiment": "orderings", "truncation_K": 64}))
    assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out")) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_cli_flat_axioms_passes_at_truncation_100(tmp_path, capsys):
    # 404 Gauss-Hermite nodes: the outermost weights lie below the smallest
    # double; an eigensolver rule that divides by the underflowed values
    # turns them into NaN, and weak-form-pairing read nan
    config_path = tmp_path / "flat.json"
    config_path.write_text(json.dumps({"experiment": "flat-axioms", "truncation_K": 100}))
    assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out")) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_cli_flat_axioms_rejects_truncation_above_its_cap(tmp_path, capsys):
    # from K = 323 the Gaussian quantization overflows and weak-form-pairing read nan
    config_path = tmp_path / "flat.json"
    config_path.write_text(json.dumps({"experiment": "flat-axioms", "truncation_K": 340}))
    assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out")) == 2
    assert f"capped at {flat_weyl.MAX_TRUNCATION}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
        # a scale that complex() would read as a number whose checks all read NaN
        {"coefficient": "constant", "degree": 2, "scale": "nan"},
        {"coefficient": "constant", "degree": 2, "scale": "1e400"},
        {"coefficient": "constant", "degree": 2, "scale": math.nan},
        {"coefficient": "constant", "degree": 2, "scale": math.inf},
        {"coefficient": "constant", "degree": 2, "scale": True},
        {"coefficient": "constant", "degree": 2, "scale": 10**400},
    ],
)
def test_cli_malformed_symbol_is_a_config_error(tmp_path, capsys, symbol):
    config_path = tmp_path / "cd.json"
    config_path.write_text(json.dumps({"experiment": "curved-defect", "symbol": symbol}))
    assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out")) == 2
    assert "error: symbol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("radius", ["1e-300", "1e200", "nan", "inf"])
def test_cli_rejects_sphere_radius_without_finite_nonzero_square(tmp_path, capsys, radius):
    # 1e-300 squares to 0 (a division by zero later), 1e200 to inf
    config_path = tmp_path / "cd.json"
    config_path.write_text(json.dumps({"experiment": "curved-defect", "manifold": f"sphere:{radius}"}))
    assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out")) == 2
    assert "error: sphere radius must be positive with a finite nonzero square" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("radius", ["1e-150", "1e150"])
def test_cli_rejects_sphere_radius_whose_curvature_powers_leave_the_normal_range(tmp_path, capsys, radius):
    # a^2 is a normal float, but the kinetic image's expressions hold a^8 and
    # a^-8, which underflow to 0 or overflow: the run used to stop at
    # kinetic-image-residual with exit 2 and no report
    config_path = tmp_path / "cd.json"
    config_path.write_text(json.dumps({"experiment": "curved-defect", "manifold": f"sphere:{radius}"}))
    assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out")) == 2
    assert f"error: sphere radius {float(radius)} is out of range" in capsys.readouterr().err
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


@pytest.mark.parametrize("plateau", ["x", None])
def test_cli_malformed_cutoff_is_a_config_error(tmp_path, capsys, plateau):
    config_path = tmp_path / "cyl.json"
    config_path.write_text(json.dumps({"experiment": "cylinder-axioms", "cutoff": {"plateau": plateau}}))
    assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out")) == 2
    assert "error: cutoff plateau and support must be numbers" in capsys.readouterr().err
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


def test_flat_suite_runs_without_numpy_polynomial_or_scipy():
    # every quadrature rule of the five flat experiments comes from bases'
    # Newton rules (cylinder-axioms fits with numpy.polynomial), and the
    # entry-oracle's tanh-sinh rule keeps all seven free of scipy
    code = (
        "import sys\n"
        "from phasequant import harness\n"
        "def run(*names):\n"
        "    for name in names:\n"
        "        harness.run_experiment(harness.ExperimentConfig.from_dict(harness.default_config(name)))\n"
        "run('flat-axioms', 'orderings', 'point-transform', 'discrete-limit', 'discrete-orthogonality')\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
        "run('curved-defect', 'cylinder-axioms')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


def test_quad_still_resolves_on_harness_and_cylinder():
    from scipy.integrate import quad

    from phasequant import cylinder

    assert cylinder.quad is quad
    assert harness.quad is quad
    with pytest.raises(AttributeError):
        cylinder.no_such_name
    with pytest.raises(AttributeError):
        harness.no_such_name
