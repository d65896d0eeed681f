import copy
import dataclasses
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
from phasequant.bases import MAX_HERMITE_TRUNCATION
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
        {"hbar": math.inf},
        {"hbar": math.nan},
        {"hbar": 10**400},
        {"tolerances": {"kernel-trace": math.inf}},
        {"tolerances": {"kernel-trace": math.nan}},
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


def test_orderings_truncation_cap():
    # the Hermite recurrence of the real-ordering operator matrix overflows from K = 604
    assert harness.ExperimentConfig.from_dict({"experiment": "orderings", "truncation_K": 603}).truncation_K == 603
    with pytest.raises(ConfigError, match="capped at 603"):
        harness.ExperimentConfig.from_dict({"experiment": "orderings", "truncation_K": 604})


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
# discrete-orthogonality files and the flat-axioms series were last
# re-recorded when Gauss-Hermite rules came from Newton steps on the Hermite
# recurrence, operator matrices from one basis table per grid and trapezoid
# Fourier coefficients from one FFT: all move values at rounding level only.
# The flat-axioms JSON and records were last re-recorded when the products of
# the Gaussian quantizer became real einsum sums, which round the same on any
# number of BLAS threads: weak-form-pairing moved from 0.25288481900321036
# (the two-thread value; one thread gave ...103) to 0.2528848190032103.  The
# cylinder-axioms and orderings files were last re-recorded when Fourier
# operator matrices became Toeplitz matrices of one FFT per derivative order:
# kernel-trace moved from 6.7e-16 to 2.2e-16, polynomial-reproduction from
# 3.0e-14 to 2.3e-14, circle-weyl-hermiticity from 8.1e-15 to 9.6e-16 and
# standard-defect-value from 0.5000000000000027 to 0.5000000000000009.  The
# cylinder-axioms JSON, records and smeared-trace series were last re-recorded
# when cutoff transforms took their phases from exact anchors every 16 integer
# frequencies and two real matmuls, in place of one nodes x frequencies cosine
# table: raw-kernel-trace moved from 3.576983e-11 to 3.577050e-11, entry-oracle
# from 2.2e-16 to 1.1e-16, and the smeared-trace values by at most 6.3e-14
# relative.  The curved-defect JSON and records were last re-recorded when the
# density and pullback references became compositions with the exp map's
# power series in place of finite differences of finite differences:
# density-jet-ricci moved from 2.3220268946522182e-07 to 3.3e-16 and
# pullback-vs-covariant from 2.4602232112647116e-08 to 2.3e-16.
REPORT_SHA256 = {
    "curved-defect-defect_vs_p.csv": "46e41d2e8b5d69398cac653df6e10a5f3eb456afaf7c86996dba271612b4492c",
    "curved-defect-records.csv": "381f10e9a465b89ef422aaa8269edb7b75009490b39ceef9e2a8b8b19f35426c",
    "curved-defect.json": "e528302483bdf5a389c683b5785d4da525be368817d1d63337b34b2f9cf8707b",
    "cylinder-axioms-records.csv": "a6f1d39b15b5d588de36aa246490b8ee2ce9dc06e061ebffe69fb5f1fa0465e0",
    "cylinder-axioms-reproduction_vs_m.csv": "a9acbf799ee464a72dcf57c3af330539fc6d58c2de2cee114f6ac869e62f2a86",
    "cylinder-axioms-smeared_trace_vs_K.csv": "88797e7c3b3943db262dcac1ce3e49c0b2fa1114506ba6c8f2a37d4f7b88cd89",
    "cylinder-axioms.json": "e98b2011f51e9a1ed726c433e6bbc1bd912eca4aeb3f6cba46bbcf6484ada9b6",
    "discrete-limit-limit_error_vs_j.csv": "3828bfe54a7252f0b4cf81ab8304d2494950ba07c1dd5272fcfacce2d93b52ed",
    "discrete-limit-records.csv": "1acefef31c31c3b6e32f550656c6716347b648175726c3d7c5555730723786f7",
    "discrete-limit.json": "3712894bf1d5fb4016c0f3f8cd5372e2363baa262537537f8ed49789f353b263",
    "discrete-orthogonality-orthogonality_vs_K.csv": "2f1d1d22a361f43a1c5090a4b2df849f66a1d480825fe7dbe577df717a768ada",
    "discrete-orthogonality-records.csv": "ee0c46d511215ec07100ed78258f389a25ae4c22df825110f4b947edfef92ddb",
    "discrete-orthogonality.json": "0404e9f478eb2190ca40e3114aa9a8738ec12991444cb3818c8357af4de8c71f",
    "flat-axioms-records.csv": "3720a498925d2e7cf078dadeb1683c62296dde3cbe0c434edb12f9b93ab0decf",
    "flat-axioms-trace_vs_K.csv": "b5b558e57fcb249d457b2ab770ca387c9682ec4fa1d5b2236fb6a1fd8f3c19f0",
    "flat-axioms.json": "59ee143f6efbe6390e7e6a40c421dc763aad077fcd776f32d93a5cbb6fc14994",
    "orderings-records.csv": "996c9d79a1c9bf94e18d71b77fad3ec69c0decbc21da5552f078a1308d8953d0",
    "orderings.json": "0c11150220bc112f6ee309021bb3796a48d9a6b89222b93782e4f0a5ff2d5ec7",
    "point-transform-records.csv": "92880e32ce32a031e237da1d72fc909633a82a7cdfe2f2f327fead5bf8dec2c0",
    "point-transform-shift_vs_r.csv": "bfd233898d828bb467d0d02874745eb1ddd3599941110d18abd6e7d79baee874",
    "point-transform.json": "b3b5d3697596083885e9f5f2651d39ac844bb1afe3e4f70e12a364133af0ede8",
}


def report_digests(directory: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(directory.iterdir()):
        lines = path.read_bytes().splitlines(keepends=True)
        kept = [line for line in lines if not line.lstrip().startswith(b'"timestamp"')]
        digests[path.name] = hashlib.sha256(b"".join(kept)).hexdigest()
    return digests


def test_default_reports_match_their_pinned_digests(tmp_path, reports):
    for report in reports.values():
        report.write(tmp_path)
    assert report_digests(tmp_path) == REPORT_SHA256


def test_default_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a complex BLAS product rounds differently on one thread and on two;
    # perfbench runs its children on one
    code = (
        "import sys\n"
        "from phasequant import harness\n"
        "for entry in harness.list_experiments():\n"
        "    config = harness.ExperimentConfig.from_dict({'experiment': entry.name})\n"
        "    harness.run_experiment(config).write(sys.argv[1])\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        env |= dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), threads)
        out = tmp_path / threads
        command = [sys.executable, "-c", code, str(out)]
        proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(report_digests(out))
    assert len(digests[0]) == len(REPORT_SHA256)
    assert digests[0] == digests[1]


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


def test_a_runner_yields_one_value_per_declared_check(monkeypatch):
    def use_runner(count):  # point-transform declares four checks
        def run(cfg, series):
            yield from [0.0] * count
            series["tail"] = (["x"], [(1,)])

        entries = tuple(dataclasses.replace(e, run=run) if e.name == "point-transform" else e for e in harness.CATALOG)
        monkeypatch.setattr(harness, "CATALOG", entries)

    cfg = harness.ExperimentConfig.from_dict({"experiment": "point-transform"})
    for count, word in ((3, "fewer"), (5, "more")):
        use_runner(count)
        with pytest.raises(ExperimentError, match=f"point-transform yields {word} values than its 4 declared checks"):
            harness.run_experiment(cfg)
    use_runner(4)
    report = harness.run_experiment(cfg)
    assert [r.name for r in report.records] == list(harness.CHECK_NAMES["point-transform"])
    # a series stored after the last value is written
    assert report.series == {"tail": {"columns": ["x"], "rows": [[1.0]]}}


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
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            harness.run_experiment(cfg, tolerance_scale=bad)


def test_hbar_override_is_echoed_and_scales_defect():
    cfg = harness.ExperimentConfig.from_dict(
        {"experiment": "curved-defect", "hbar": 0.5}
    )
    report = harness.run_experiment(cfg)
    assert report.environment["hbar"] == 0.5
    record = {r.name: r for r in report.records}["defect-value"]
    assert record.passed
    assert record.measured == pytest.approx(2.0 / 3.0 * 0.25, rel=1e-4)
    # the emmrich-defect threshold is declared as 0.1 hbar^2
    assert {r.name: r for r in report.records}["emmrich-defect"].tolerance == 0.1 * 0.5 * 0.5


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


@pytest.mark.parametrize(
    "text, flags",
    [
        # JSON reads 1e999 as inf: the run used to exit 1, or pass with tol=inf
        ('{"experiment": "point-transform", "hbar": 1e999}', ()),
        ('{"experiment": "point-transform", "tolerances": {"cartesian-reduction": 1e999}}', ()),
        ('{"experiment": "point-transform"}', ("--tolerance-scale", "inf")),
    ],
)
def test_cli_run_non_finite_number_exit_code(tmp_path, capsys, text, flags):
    config_path = tmp_path / "inf.json"
    config_path.write_text(text)
    assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out"), *flags) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_overflowing_hermite_basis_exit_code(tmp_path, capsys):
    """From K = 604 the Hermite recurrence overflows and the operator matrix
    would be NaN: validation rejects the config before any check runs."""
    config_path = tmp_path / "big-K.json"
    config_path.write_text(json.dumps({"experiment": "orderings", "truncation_K": 604}))
    code = run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"capped at {MAX_HERMITE_TRUNCATION}" in err
    assert "could not be evaluated" not in err
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


# X = 0: the defect and its curvature weight vanish at both probes, so there is no coefficient to fit
ZERO_SYMBOL = {"experiment": "curved-defect", "symbol": {"coefficient": "constant", "degree": 2, "scale": 0}}


def test_curved_defect_without_curvature_weight_is_a_config_error():
    with pytest.raises(ConfigError, match="curvature contraction vanishes"):
        harness.run_experiment(harness.ExperimentConfig.from_dict(ZERO_SYMBOL))


def test_cli_curved_defect_without_curvature_weight_exit_code(tmp_path, capsys):
    config_path = tmp_path / "cd.json"
    config_path.write_text(json.dumps(ZERO_SYMBOL))
    assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out")) == 2
    assert "curvature contraction vanishes" in capsys.readouterr().err
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


def test_the_experiments_run_without_numpy_polynomial_random_or_scipy():
    # every quadrature rule comes from bases, the cylinder's polynomial fits
    # take np.polyfit, the entry-oracle's tanh-sinh rule keeps all seven
    # experiments free of scipy, and their seeded inputs come from seeded
    code = (
        "import sys\n"
        "from phasequant import harness\n"
        "for name in harness.EXPERIMENT_NAMES:\n"
        "    harness.run_experiment(harness.ExperimentConfig.from_dict(harness.default_config(name)))\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]", "[]"]


def test_quad_still_resolves_on_harness_and_cylinder():
    from scipy.integrate import quad

    from phasequant import cylinder

    assert cylinder.quad is quad
    assert harness.quad is quad
    with pytest.raises(AttributeError):
        cylinder.no_such_name
    with pytest.raises(AttributeError):
        harness.no_such_name


def test_each_reduction_propagates_nan_wherever_it_comes():
    # a running min or max keeps what it had when a later value is NaN, so a
    # check reduced that way would pass on a NaN sample
    reductions = {check.reduce for entry in harness.CATALOG for check in entry.checks} - {np.real}
    assert reductions == {np.max, harness._least_step, np.ptp}
    ladder = [0.4, 0.3, 1e-17, 0.0]
    # on finite samples each selects the floats that hand-written min and max give
    assert np.max(np.array(ladder)) == max(ladder)
    assert harness._least_step(np.array(ladder)) == min(a - b for a, b in zip(ladder, ladder[1:]))
    assert np.ptp(np.array(ladder)) == max(ladder) - min(ladder)
    for reduce in reductions:
        for i in range(len(ladder)):
            samples = np.array(ladder)
            samples[i] = math.nan
            assert math.isnan(reduce(samples))
