"""Named verification experiments with reproducible, diffable reports.

Each experiment bundles a fixed list of checks around one area of the
calculus: flat kernel axioms, ordering families, curvature defects, chart
covariance, the cylinder kernel, and the discrete momentum lattice.  The
``CATALOG`` table at the end of this module describes every experiment once:
its name, description and anchor, the config settings its runner reads (with
their defaults), its checks in report order, and the runner.  A config may
set only the settings its experiment reads; validation builds the manifold,
symbol and ordering it names, so an accepted config runs.

A check compares one measured number against a reference value that carries
a provenance tag, at a tolerance that can be overridden per run.  Reports
serialize to JSON plus plot-ready CSV series; re-running the same
configuration with the same package version reproduces the report bytes
exactly, apart from the timestamp field.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import datetime
import functools
import json
import math
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import __version__, curved, cylinder, flat_weyl, geometry, numdiff
from .bases import FourierBasis, HermiteBasis
from .cylinder import CutoffFamily
from .errors import ConfigError, ExperimentError, PhasequantError, QuadratureAccuracyError
from .expressions import Const, Pow, Var, add, mul
from .fields import (
    add as field_add,
    constant as constant_field,
    from_expression,
    tensor_constant,
    tensor_from_fields,
    tensor_scalar,
)
from .symbols import (
    MomentumPolynomial,
    OrderingScheme,
    delta_apply,
    flat_chart_delta_value,
    hermiticity_defect,
    operator_matrix,
    ordering_scheme,
    symbol_from_config,
)


def __getattr__(name: str):
    # The perfbench tracer looks ``quad`` up here by name to count its calls,
    # so the name resolves.  This shim and cylinder's are the only scipy imports
    # in the package (scipy is a test dependency); nothing here calls ``quad``.
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# catalog


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One experiment: what it verifies, the settings it reads, its checks, its runner.

    ``settings`` maps each config key the runner reads to its default, in
    template order.  ``checks`` names the checks in report order; they are
    also the accepted tolerance-override keys.
    """

    name: str
    description: str
    anchor: str
    settings: dict
    checks: tuple[str, ...]
    run: Callable[[ExperimentConfig, _Checks], None]


def _experiment(name) -> Experiment:
    for entry in CATALOG:
        if entry.name == name:
            return entry
    raise ConfigError(f"unknown experiment {name!r}; valid names: {', '.join(EXPERIMENT_NAMES)}")


def list_experiments() -> tuple[Experiment, ...]:
    """The experiment catalog in its stable display order."""
    return CATALOG


# ---------------------------------------------------------------------------
# configuration


# the largest truncation_K at which each experiment's kernels stay finite
_TRUNCATION_CAPS = {"flat-axioms": flat_weyl.MAX_TRUNCATION, "cylinder-axioms": cylinder.MAX_TRUNCATION}
_TRUNCATION_CAPS |= dict.fromkeys(("discrete-limit", "discrete-orthogonality"), cylinder.MAX_TRUNCATION)

_DEFAULT_CUTOFF = {"profile": "smoothstep", "plateau": 0.8, "support": 2.8}

_COMMENTS = {
    "experiment": "one of: ",
    "hbar": "positive; dimensional references scale with it",
    "manifold": "euclidean:<dim> | circle | sphere:<radius> | polar-plane",
    "symbol": "name or {coefficient, degree, scale}; coefficient in "
    "constant | cos-theta | inverse-metric | custom:<expression>",
    "ordering": "weyl | standard | standard-printed",
    "cutoff": "momentum cutoff: {profile, plateau, support} or {profile, mollifier: j}; "
    "profile in smoothstep | classic-bump | indicator",
    "truncation_K": f"basis/lattice index cap (cylinder kernels cap at {cylinder.MAX_TRUNCATION}, "
    f"flat-axioms at {flat_weyl.MAX_TRUNCATION})",
    "truncation_N": "lattice momentum index n of the smeared pair traces (n, n) and (n, n + 3)",
    "tolerances": "optional per-check overrides; valid names: ",
    "output_dir": "report directory used when the CLI --out flag is absent",
}


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Validated inputs of one experiment run; build it with ``from_dict``.

    A config sets only ``experiment``, ``tolerances``, ``output_dir`` and the
    settings its experiment reads; the other settings stay ``None``.  Any
    other key is rejected on parse; ``_comments`` entries (as emitted by
    config templates) are allowed and ignored.  Tolerance overrides are keyed
    by check name and must be positive.
    """

    experiment: str
    hbar: float | None = None
    manifold: str | None = None
    symbol: object = None
    ordering: str | None = None
    cutoff: dict | None = None
    truncation_K: int | None = None
    truncation_N: int | None = None
    tolerances: dict = dataclasses.field(default_factory=dict)
    output_dir: str | None = None

    def validate(self) -> None:
        experiment = _experiment(self.experiment)
        settings = experiment.settings
        if "hbar" in settings:
            if isinstance(self.hbar, bool) or not isinstance(self.hbar, (int, float)):
                raise ConfigError("hbar must be a positive number")
            if not self.hbar > 0:
                raise ConfigError("hbar must be a positive number")
        for key in ("truncation_K", "truncation_N"):
            value = getattr(self, key)
            if key not in settings:
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"{key} must be a positive integer")
        cap = _TRUNCATION_CAPS.get(self.experiment)
        if cap is not None and self.truncation_K > cap:
            raise ConfigError(f"truncation_K for {self.experiment} is capped at {cap}")
        if "manifold" in settings:
            if not isinstance(self.manifold, str):
                raise ConfigError("manifold must be a builder string such as 'sphere:1.0'")
            model = geometry.manifold(self.manifold)
            # the ricci-coefficient check divides by the scalar curvature
            if model.flat:
                raise ConfigError(
                    f"{self.experiment} needs a curved manifold, got the flat {self.manifold!r}; "
                    "use e.g. 'sphere:1.0'"
                )
            # the defect oracle contracts the symbol's degree-2 coefficient with Ricci
            if "symbol" in settings and 2 not in symbol_from_config(model, self.symbol).terms:
                raise ConfigError(
                    f"{self.experiment} needs a symbol of degree 2, "
                    "e.g. {'coefficient': 'inverse-metric', 'degree': 2}"
                )
        if "ordering" in settings:
            ordering_scheme(self.ordering, self.hbar)
        if "cutoff" in settings:
            if not isinstance(self.cutoff, dict):
                raise ConfigError("cutoff must be a mapping")
            unknown_cutoff = sorted(set(self.cutoff) - {"profile", "plateau", "support", "mollifier"})
            if unknown_cutoff:
                raise ConfigError(f"unknown cutoff keys {unknown_cutoff}")
            _cutoff_from_config(self.cutoff)
        if not isinstance(self.tolerances, dict):
            raise ConfigError("tolerances must be a mapping of check name to positive number")
        for name, tol in self.tolerances.items():
            if name not in experiment.checks:
                raise ConfigError(
                    f"unknown tolerance key {name!r} for {self.experiment}; "
                    f"valid names: {', '.join(sorted(experiment.checks))}"
                )
            if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not tol > 0:
                raise ConfigError(f"tolerance {name!r} must be a positive number")
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ConfigError("output_dir must be a string or null")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("experiment config must be a JSON object")
        if "experiment" not in data:
            raise ConfigError("config key 'experiment' is required")
        name = data["experiment"]
        if not isinstance(name, str):
            raise ConfigError("config key 'experiment' must be a string")
        merged = {k: v for k, v in default_config(name).items() if k != "_comments"}
        unknown = sorted(set(data) - set(merged) - {"_comments"})
        if unknown:
            raise ConfigError(
                f"{name} does not read config keys {unknown}; allowed keys: {list(merged)}"
            )
        merged.update((k, v) for k, v in data.items() if k != "_comments")
        config = cls(**merged)
        config.validate()
        return config

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        return cls.from_dict(data)


def default_config(name: str) -> dict:
    """A commented config template holding every key one experiment reads."""
    experiment = _experiment(name)
    template = {
        "experiment": name,
        **copy.deepcopy(experiment.settings),
        "tolerances": {},
        "output_dir": None,
    }
    comments = {key: _COMMENTS[key] for key in template}
    comments["experiment"] += ", ".join(EXPERIMENT_NAMES)
    comments["tolerances"] += ", ".join(experiment.checks)
    template["_comments"] = comments
    return template


def _cutoff_from_config(spec: dict) -> CutoffFamily:
    profile = spec.get("profile", "smoothstep")
    if "mollifier" in spec:
        if "plateau" in spec or "support" in spec:
            raise ConfigError("cutoff accepts either mollifier or plateau/support, not both")
        j = spec["mollifier"]
        if isinstance(j, bool) or not isinstance(j, int) or j < 1:
            raise ConfigError("cutoff mollifier index must be an integer >= 1")
        return CutoffFamily.mollifier(j, profile=profile)
    merged = {**_DEFAULT_CUTOFF, **spec}
    radii = (merged["plateau"], merged["support"])
    if any(isinstance(r, bool) or not isinstance(r, (int, float)) for r in radii):
        raise ConfigError("cutoff plateau and support must be numbers")
    return CutoffFamily(float(radii[0]), float(radii[1]), profile)


# ---------------------------------------------------------------------------
# records and reports


@dataclasses.dataclass(frozen=True)
class CheckRecord:
    """One measured/reference comparison with its provenance tag.

    ``mode`` is ``abs`` (absolute difference within tolerance), ``rel``
    (difference within tolerance times the reference magnitude), or ``min``
    (measured must strictly exceed the threshold echoed in ``reference``).
    """

    name: str
    measured: float
    reference: float
    tolerance: float
    mode: str
    provenance: str
    passed: bool

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class Report:
    """Result of one experiment run: records, series, and an environment stamp."""

    experiment: str
    environment: dict
    records: list[CheckRecord]
    series: dict[str, dict]
    timestamp: str

    @property
    def passed(self) -> bool:
        return all(record.passed for record in self.records)

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "environment": self.environment,
            "records": [record.as_dict() for record in self.records],
            "series": self.series,
            "passed": self.passed,
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        """The report as strict JSON; non-finite floats become ``"NaN"``/``"Infinity"`` strings."""
        text = json.dumps(_finite_json(self.as_dict()), indent=2, sort_keys=True, allow_nan=False)
        return text + "\n"

    def summary_lines(self) -> list[str]:
        lines = []
        for record in self.records:
            status = "PASS" if record.passed else "FAIL"
            lines.append(
                f"[{status}] {self.experiment}/{record.name}: "
                f"measured={record.measured:.6e} reference={record.reference:.6e} "
                f"tol={record.tolerance:.1e} mode={record.mode} [{record.provenance}]"
            )
        return lines

    def write(self, out_dir, format: str | None = None) -> list[Path]:
        """Write the JSON report and/or CSV files; returns the paths written."""
        if format not in (None, "json", "csv"):
            raise ConfigError(f"unknown report format {format!r}; expected json or csv")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        if format in (None, "json"):
            path = out / f"{self.experiment}.json"
            path.write_text(self.to_json())
            written.append(path)
        if format in (None, "csv"):
            path = out / f"{self.experiment}-records.csv"
            with path.open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(
                    ["name", "measured", "reference", "tolerance", "mode", "provenance", "passed"]
                )
                for record in self.records:
                    writer.writerow(
                        [
                            record.name,
                            repr(record.measured),
                            repr(record.reference),
                            repr(record.tolerance),
                            record.mode,
                            record.provenance,
                            record.passed,
                        ]
                    )
            written.append(path)
            for name, data in self.series.items():
                path = out / f"{self.experiment}-{name}.csv"
                with path.open("w", newline="") as handle:
                    writer = csv.writer(handle)
                    writer.writerow(data["columns"])
                    for row in data["rows"]:
                        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
                written.append(path)
        return written


def _finite_json(value):
    """``value`` with each non-finite float spelled as a string, which JSON has no literal for."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {key: _finite_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_json(item) for item in value]
    return value


class _Checks:
    """Accumulates records and series for one run, applying overrides.

    Records arrive in the experiment's declared check order, so ``pending``
    names the check being evaluated.
    """

    def __init__(self, config: ExperimentConfig, names: tuple[str, ...], tolerance_scale: float):
        self._config = config
        self._names = names
        self._scale = float(tolerance_scale)
        self.records: list[CheckRecord] = []
        self.series: dict[str, dict] = {}

    @property
    def pending(self) -> str | None:
        """The next declared check, or None once every check is recorded."""
        done = len(self.records)
        return self._names[done] if done < len(self._names) else None

    def add(
        self,
        name: str,
        measured: float,
        reference: float,
        tolerance: float,
        provenance: str,
        mode: str = "abs",
    ) -> None:
        if name != self.pending:
            raise ExperimentError(f"check {name!r} recorded out of order; expected {self.pending!r}")
        tol = float(self._config.tolerances.get(name, tolerance))
        measured = float(np.real(measured))
        reference = float(reference)
        if mode == "abs":
            effective = tol * self._scale
            passed = abs(measured - reference) <= effective
        elif mode == "rel":
            effective = tol * self._scale
            passed = abs(measured - reference) <= effective * abs(reference)
        elif mode == "min":
            # lower-bound checks are thresholds, not error budgets: the
            # tolerance scale does not apply.
            effective = tol
            reference = tol
            passed = measured > tol
        else:
            raise ConfigError(f"unknown comparison mode {mode!r}")
        self.records.append(
            CheckRecord(name, measured, reference, effective, mode, provenance, passed)
        )

    def add_series(self, name: str, columns, rows) -> None:
        self.series[name] = {
            "columns": list(columns),
            "rows": [[float(v) if isinstance(v, (int, float, np.floating)) else v for v in row] for row in rows],
        }


# ---------------------------------------------------------------------------
# shared symbol builders


def _polynomial_field(rng: np.random.Generator, var: str):
    """``sum_k c_k var^k`` over k = 0..3 with uniform random ``c_k``, built
    node by node as the parser builds ``(c0)*var**0 + ... + (c3)*var**3``."""
    terms = (mul(Const(float(c)), Pow(Var(var), k)) for k, c in enumerate(rng.uniform(-1.0, 1.0, size=4)))
    return from_expression(functools.reduce(add, terms), (var,))


def _random_flat_symbol(rng: np.random.Generator) -> MomentumPolynomial:
    terms = {}
    for degree in range(4):
        field = _polynomial_field(rng, "x")
        terms[degree] = tensor_from_fields(1, degree, lambda idx, f=field: f)
    return MomentumPolynomial(1, terms)


def _round_trip_residual(rng: np.random.Generator, schemes: list[OrderingScheme], count: int, hbar: float) -> float:
    """Worst ``|dequantize(quantize(f)) - f|`` over ``count`` random flat symbols, cycling through ``schemes``."""
    model = geometry.euclidean_space(1)
    worst = 0.0
    for i in range(count):
        f = _random_flat_symbol(rng)
        scheme = schemes[i % len(schemes)]
        D = flat_weyl.a_image_flat(scheme, f, model, hbar)
        p = rng.uniform(-1.0, 1.0, size=1)
        x = rng.uniform(-1.0, 1.0, size=1)
        recovered = flat_weyl.dequantize_flat(scheme, D, p, x, hbar, model)
        worst = max(worst, abs(recovered - f.evaluate(p, x)))
    return worst


def _operator_difference(first, second, points) -> float:
    worst = 0.0
    for q in points:
        for order in set(first.terms) | set(second.terms):
            a = np.asarray(first.terms[order].evaluate(q)) if order in first.terms else 0.0
            b = np.asarray(second.terms[order].evaluate(q)) if order in second.terms else 0.0
            worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


def _smooth_coefficient_field(rng: np.random.Generator, names: tuple[str, ...]):
    c = [float(v) for v in rng.uniform(-1.0, 1.0, size=4)]
    r, phi = names
    source = f"({c[0]!r}) + ({c[1]!r})*{r} + ({c[2]!r})*sin({phi}) + ({c[3]!r})*{r}*cos({phi})"
    return from_expression(source, names)


def _random_chart_symbol(rng: np.random.Generator, names: tuple[str, ...]) -> MomentumPolynomial:
    dim = len(names)
    scalar = tensor_scalar(_smooth_coefficient_field(rng, names))
    vector = tensor_from_fields(dim, 1, lambda idx: _smooth_coefficient_field(rng, names))
    raw = [[_smooth_coefficient_field(rng, names) for _ in range(dim)] for _ in range(dim)]
    matrix = tensor_from_fields(
        dim, 2, lambda idx: field_add(raw[idx[0]][idx[1]], raw[idx[1]][idx[0]])
    )
    return MomentumPolynomial(dim, {0: scalar, 1: vector, 2: matrix})


# ---------------------------------------------------------------------------
# experiment runners


def _run_flat_axioms(cfg: ExperimentConfig, out: _Checks) -> None:
    hbar = cfg.hbar
    s = math.sqrt(hbar)
    rng = np.random.default_rng(20260814)

    peak = flat_weyl.quantizer_diag_flat(0.0, 0.0, 2, hbar)[0]
    out.add("ground-state-peak", peak.real, 2.0, 1e-12, "DERIVED oracle")

    p0, x0 = 0.7 * s, -0.4 * s
    value = flat_weyl.quantizer_diag_flat(p0, x0, 2, hbar)[0]
    oracle = 2.0 * math.exp(-(p0 * p0 + x0 * x0) / hbar)
    out.add("ground-state-gaussian", value.real, oracle, 1e-12, "DERIVED oracle")

    def worst_hermiticity():
        worst = 0.0
        for _ in range(3):
            p, x = (s * float(v) for v in rng.uniform(-1.5, 1.5, size=2))
            worst = max(worst, hermiticity_defect(flat_weyl.quantizer_matrix_flat(p, x, 16, hbar)))
        return worst

    out.add("kernel-hermiticity", worst_hermiticity(), 0.0, 1e-8, "PAPER Eq 2.4")

    deviation = abs(flat_weyl.flat_trace(0.0, 0.0, 8, hbar) - 1.0)
    out.add("kernel-trace", deviation, 0.0, 2e-3, "PAPER Eq 2.5")

    sizes = [4, 8, 16, 32]
    ladder = flat_weyl.trace_ladder(0.3 * s, -0.2 * s, sizes, hbar)
    decreases = [ladder[i] - ladder[i + 1] for i in range(len(ladder) - 1)]
    out.add("trace-ladder-monotone", min(decreases), 0.0, 0.0, "PAPER Eq 2.5", mode="min")
    out.add_series("trace_vs_K", ["K", "deviation"], list(zip(sizes, ladder)))

    g1 = (0.4 * s, -0.3 * s, 0.9 * s, 0.8 * s)
    g2 = (-0.2 * s, 0.5 * s, 1.1 * s, 0.7 * s)
    A = flat_weyl.quantize_gaussian_flat(*g1, K=cfg.truncation_K, hbar=hbar)
    B = flat_weyl.quantize_gaussian_flat(*g2, K=cfg.truncation_K, hbar=hbar)
    traced = complex(np.sum(A * B.T)).real
    reference = flat_weyl.gaussian_pair_integral(g1, g2) / (2.0 * math.pi * hbar)
    out.add("weak-form-pairing", traced, reference, 1e-2, "PAPER Eq 2.6", mode="rel")

    schemes = [
        ordering_scheme("weyl"),
        ordering_scheme("standard"),
        OrderingScheme((1.0, 0.25, -0.125, 1.0 / 48.0, 0.0), name="real-demo"),
    ]
    out.add("round-trip-residual", _round_trip_residual(rng, schemes, 20, hbar), 0.0, 1e-12, "PAPER Eq 2.13")


def _run_orderings(cfg: ExperimentConfig, out: _Checks) -> None:
    hbar = cfg.hbar
    model = geometry.euclidean_space(1)
    circle = geometry.circle()
    rng = np.random.default_rng(31415)
    probes = [np.array([v]) for v in (-0.8, 0.1, 0.7)]

    def weyl_identity():
        f = _random_flat_symbol(rng)
        direct = curved.wue_weyl_image(model, f, hbar)
        through = flat_weyl.a_image_flat(ordering_scheme("weyl"), f, model, hbar)
        return _operator_difference(direct, through, probes)

    out.add("weyl-preset-identity", weyl_identity(), 0.0, 1e-15, "TRIVIAL")

    def standard_image():
        worst = 0.0
        for degree in range(4):
            field = _polynomial_field(rng, "x")
            f = MomentumPolynomial(1, {degree: tensor_from_fields(1, degree, lambda idx: field)})
            direct = curved.wue_standard_image(model, f, hbar)
            through = flat_weyl.a_image_flat(ordering_scheme("standard"), f, model, hbar)
            worst = max(worst, _operator_difference(direct, through, probes))
        return worst

    out.add("standard-preset-image", standard_image(), 0.0, 1e-13, "PAPER Eq 2.22")

    configured = _round_trip_residual(rng, [ordering_scheme(cfg.ordering, hbar)], 5, hbar)
    out.add("configured-ordering-roundtrip", configured, 0.0, 1e-12, "PAPER Eq 2.15")

    scheme = OrderingScheme((1.0, 0.35, -0.15, 0.05, 0.0), name="real-demo")
    X = from_expression("0.4 + 0.9*x + 0.25*x**2", ("x",))
    f = MomentumPolynomial(1, {1: tensor_from_fields(1, 1, lambda idx: X)})
    D = flat_weyl.a_image_flat(scheme, f, model, hbar)
    real_defect = hermiticity_defect(
        operator_matrix(model, D, HermiteBasis(hbar=hbar), cfg.truncation_K)
    )
    out.add("real-ordering-hermiticity", real_defect, 0.0, 1e-9, "PAPER Eq 2.23")

    cos_p = symbol_from_config(circle, {"coefficient": "cos-theta", "degree": 1})
    D = curved.wue_weyl_image(circle, cos_p, hbar)
    weyl_defect = hermiticity_defect(operator_matrix(circle, D, FourierBasis(), cfg.truncation_K))
    out.add("circle-weyl-hermiticity", weyl_defect, 0.0, 1e-10, "PAPER Eq 2.23")

    D = curved.wue_standard_image(circle, cos_p, hbar)
    defect = hermiticity_defect(operator_matrix(circle, D, FourierBasis(), cfg.truncation_K))
    out.add("standard-defect-positive", defect, 0.0, 1e-6, "DERIVED oracle", mode="min")
    out.add("standard-defect-value", defect, 0.5 * hbar, 1e-9, "DERIVED oracle")


def _run_curved_defect(cfg: ExperimentConfig, out: _Checks) -> None:
    hbar = cfg.hbar
    model = geometry.manifold(cfg.manifold)
    if model.dim == 1:
        probes = [np.array([0.6]), np.array([-1.0])]
        p_base = np.array([0.45])
    else:
        probes = [np.array([1.1, 0.4]), np.array([1.9, -0.9])]
        p_base = np.array([0.3, -0.55])
    q0 = probes[0]

    def kinetic_residual():
        f = curved.kinetic_symbol(model, hbar)
        D = curved.wue_weyl_image(model, f, hbar)
        worst = 0.0
        for q in probes:
            for order, tensor in D.terms.items():
                values = np.asarray(tensor.evaluate(q))
                if order == 2:
                    want = -hbar * hbar * geometry.inverse_metric(model, q)
                else:
                    want = np.zeros_like(values)
                worst = max(worst, float(np.max(np.abs(values - want))))
        return worst

    out.add("kinetic-image-residual", kinetic_residual(), 0.0, 1e-8, "PAPER Eq 2.39")

    scalar_curv = float(
        np.tensordot(geometry.inverse_metric(model, q0), geometry.ricci(model, q0), 2)
    )
    f2 = MomentumPolynomial(
        2, {2: symbol_from_config(model, {"coefficient": "inverse-metric", "degree": 2}).terms[2]}
    )
    term0 = complex(np.asarray(curved.wue_weyl_image(model, f2, hbar).terms[0].evaluate(q0)))
    ricci_coefficient = -term0.real / (hbar * hbar * scalar_curv)
    out.add("ricci-coefficient", ricci_coefficient, 1.0 / 12.0, 1e-6, "PAPER Eq 2.36")

    f_sym = symbol_from_config(model, cfg.symbol)

    def defect_oracle(mdl, f, q):
        X = f.terms[2].evaluate(q)
        contraction = float(np.real(np.tensordot(X, geometry.ricci(mdl, q), 2)))
        return hbar * hbar * contraction / 3.0

    defect0 = curved.axiom_defect(model, f_sym, p_base, q0, hbar).real
    out.add("defect-value", defect0, defect_oracle(model, f_sym, q0), 1e-4, "PAPER Eq 2.46", mode="rel")

    scales = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
    values = [curved.axiom_defect(model, f_sym, t * p_base, q0, hbar).real for t in scales]
    rows = [(t, v, defect_oracle(model, f_sym, q0)) for t, v in zip(scales, values)]
    out.add(
        "defect-p-independence", max(values) - min(values), 0.0, 1e-6, "PAPER Eq 2.46"
    )
    out.add_series("defect_vs_p", ["p_scale", "defect", "reference"], rows)

    coefficient = curved.defect_curvature_coefficient(model, f_sym, probes, p_base, hbar)
    out.add(
        "defect-curvature-coefficient", coefficient, 1.0 / 3.0, 1e-4, "PAPER Eq 2.46", mode="rel"
    )

    def radius_pair():
        results = []
        for radius in (1.0, 2.0):
            sphere = geometry.manifold(f"sphere:{radius}")
            f = symbol_from_config(sphere, {"coefficient": "inverse-metric", "degree": 2})
            results.append(
                curved.axiom_defect(sphere, f, np.array([0.3, -0.55]), np.array([1.1, 0.4]), hbar).real
            )
        return results

    d1, d2 = radius_pair()
    out.add("radius-scaling", d2, d1 / 4.0, 1e-3, "DERIVED oracle", mode="rel")

    def flat_defect(name: str):
        flat_model = geometry.manifold(name)
        f = symbol_from_config(flat_model, {"coefficient": "inverse-metric", "degree": 2})
        q = np.array([0.3, -0.8]) if name.startswith("euclidean") else np.array([1.2, 0.5])
        return abs(curved.axiom_defect(flat_model, f, np.array([0.7, 0.2]), q, hbar))

    out.add("flat-defect-euclidean", flat_defect("euclidean:2"), 0.0, 1e-8, "TRIVIAL")
    out.add("flat-defect-polar", flat_defect("polar-plane"), 0.0, 1e-8, "TRIVIAL")

    emmrich = abs(curved.axiom_defect(model, f_sym, p_base, q0, hbar, measure_variant="emmrich"))
    out.add("emmrich-defect", emmrich, 0.0, 0.1 * hbar * hbar, "PAPER Eq 2.28", mode="min")

    unit = geometry.manifold("sphere:1.0")
    ricci_residual = max(
        float(np.max(np.abs(geometry.ricci(unit, q) - geometry.metric(unit, q))))
        for q in (np.array([1.1, 0.4]), np.array([2.0, -1.3]))
    )
    out.add("ricci-convention", ricci_residual, 0.0, 1e-6, "PAPER Eq 2.37")

    jets = geometry.sqrt_g_jet(model, q0, 2, method="numeric")
    want = -geometry.ricci_in_frame(model, q0) / 3.0
    jet_residual = float(np.max(np.abs(jets[2] - want)))
    out.add("density-jet-ricci", jet_residual, 0.0, 1e-5, "DERIVED oracle")

    def pullback_agreement():
        names = model.coordinate_names
        if model.dim == 1:
            source = f"sin({names[0]})"
        else:
            source = f"sin({names[0]})*cos({names[1]}) + 0.3*cos({names[0]})"
        psi = from_expression(source, names)
        jets = geometry.pullback_jet(model, psi, q0, 3)
        worst = 0.0
        for k in range(4):
            frame_deriv = geometry.sym_cov_deriv_in_frame(model, psi, q0, k)
            worst = max(worst, float(np.max(np.abs(jets[k] - frame_deriv))))
        return worst

    out.add("pullback-vs-covariant", pullback_agreement(), 0.0, 1e-5, "PAPER Eq 2.31")


def _run_point_transform(cfg: ExperimentConfig, out: _Checks) -> None:
    hbar = cfg.hbar
    polar = geometry.polar_plane()
    euclid = geometry.euclidean_space(2)
    rng = np.random.default_rng(27182)

    def to_cartesian(q):  # (N, 2) polar points
        return np.stack([q[:, 0] * np.cos(q[:, 1]), q[:, 0] * np.sin(q[:, 1])], axis=-1)

    def from_cartesian(xy):  # (N, 2) Cartesian points
        return np.stack([np.hypot(xy[:, 0], xy[:, 1]), np.arctan2(xy[:, 1], xy[:, 0])], axis=-1)

    def cartesian_reduction():
        names = euclid.coordinate_names
        field = from_expression(f"0.4*{names[0]}**2 + 0.9*{names[1]}", names)
        f = MomentumPolynomial(2, {1: tensor_from_fields(2, 1, lambda idx: field)})
        derived = delta_apply(euclid, f, hbar)
        worst = 0.0
        for _ in range(5):
            q = rng.uniform(-1.0, 1.0, size=2)
            p = rng.uniform(-1.0, 1.0, size=2)

            def plain(z):  # (N, 4) phase-space nodes
                return f.evaluate(z[:, :2], z[:, 2:])

            total = 0.0 + 0.0j
            for value in numdiff.partials(plain, np.concatenate([p, q]), [(1, 0, 1, 0), (0, 1, 0, 1)]):
                total += complex(value)
            worst = max(worst, abs(derived.evaluate(p, q) - (-hbar) * total))
        return worst

    out.add("cartesian-reduction", cartesian_reduction(), 0.0, 1e-8, "PAPER Eq 2.49")

    def polar_agreement():
        f = _random_chart_symbol(rng, polar.coordinate_names)
        derived = delta_apply(polar, f, hbar)
        worst = 0.0
        for _ in range(20):
            q = np.array([rng.uniform(0.6, 1.8), rng.uniform(-2.5, 2.5)])
            p = rng.uniform(-1.2, 1.2, size=2)
            direct = derived.evaluate(p, q)
            conjugated = flat_chart_delta_value(f, to_cartesian, from_cartesian, p, q, hbar)
            worst = max(worst, abs(direct - conjugated))
        return worst

    out.add("polar-cartesian-agreement", polar_agreement(), 0.0, 1e-6, "PAPER Eq 2.48")

    radial = MomentumPolynomial(2, {1: tensor_constant(2, np.array([1.0, 0.0]))})
    shifted = delta_apply(polar, radial, hbar)

    def shift_at(r: float) -> float:
        return shifted.evaluate(np.array([0.3, -0.7]), np.array([r, 0.4])).real

    worst_shift = max(abs(shift_at(r) + hbar / r) for r in (0.5, 1.0, 2.0))
    rows = [(float(r), shift_at(float(r)), -hbar / float(r)) for r in np.linspace(0.5, 2.0, 7)]
    out.add("radial-momentum-shift", worst_shift, 0.0, 1e-8, "PAPER Eq 2.49")
    out.add_series("shift_vs_r", ["r", "measured", "reference"], rows)

    def divergence_identity():
        names = polar.coordinate_names
        X = tensor_from_fields(2, 1, lambda idx: _smooth_coefficient_field(rng, names))
        f = MomentumPolynomial(2, {1: X})
        derived = delta_apply(polar, f, hbar)
        divergence = geometry.covariant_divergence(polar, X)
        worst = 0.0
        for q in (np.array([0.8, 0.3]), np.array([1.6, -1.1])):
            value = derived.evaluate(np.array([0.2, 0.4]), q)
            want = -hbar * complex(np.asarray(divergence.evaluate(q)))
            worst = max(worst, abs(value - want))
        return worst

    out.add("divergence-identity", divergence_identity(), 0.0, 1e-8, "DERIVED oracle")


def _tanh_sinh_cosine(chi: CutoffFamily, s: float) -> float:
    """``int_0^support 2 chi(xi)^2 cos(s xi) dxi`` by the tanh-sinh rule of Takahasi
    & Mori (Publ. RIMS 9, 1974) on [0, plateau] and [plateau, support] (an empty one
    gets zero weights): steps 2^-k on [-4, 4], halved until two levels agree to 1e-15."""
    lo, half = np.array([[0.0], [chi.plateau]]), 0.5 * np.array([[chi.plateau], [chi.support - chi.plateau]])
    previous = math.inf
    for level in range(12):
        t = np.linspace(-4.0, 4.0, 2 ** (level + 3) + 1)
        u = 0.5 * math.pi * np.sinh(t)
        x = lo + half * (1.0 + np.tanh(u))
        w = 2.0**-level * half * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
        value = np.sum(w * 2.0 * chi.value(x) ** 2 * np.cos(s * x), axis=1)
        gap, previous = float(np.max(np.abs(value - previous))), value
        if gap <= 1e-15:
            return float(np.sum(value))
    raise QuadratureAccuracyError(gap, 1e-15)


def _run_cylinder_axioms(cfg: ExperimentConfig, out: _Checks) -> None:
    hbar = cfg.hbar
    chi = _cutoff_from_config(cfg.cutoff)
    rng = np.random.default_rng(16180)
    one = constant_field(1, 1.0)
    cos_theta = from_expression("cos(theta)", ("theta",))

    completed = cylinder.polynomial_reproduction_check(one, 0, 0.77 * hbar, 0.3, chi, 32, hbar)
    out.add("kernel-trace", completed, 0.0, 1e-8, "PAPER Eq 3.4")

    def raw_trace():
        wide = CutoffFamily(0.8, 2.8)
        worst = 0.0
        for _ in range(5):
            p = hbar * float(rng.uniform(-2.0, 2.0))
            theta = float(rng.uniform(-math.pi, math.pi))
            trace = cylinder.quantizer_trace_cyl(p, theta, wide, cylinder.MAX_TRUNCATION, hbar)
            worst = max(worst, abs(trace - 1.0))
        return worst

    out.add("raw-kernel-trace", raw_trace(), 0.0, 1e-8, "PAPER Eq 3.4")

    continuum = cylinder.quantizer_matrix_cyl(0.6 * hbar, 1.1, chi, 16, hbar)
    discrete = cylinder.discrete_quantizer(2, 0.7, 16)
    hermiticity = max(hermiticity_defect(continuum), hermiticity_defect(discrete))
    out.add("kernel-hermiticity", hermiticity, 0.0, 1e-10, "PAPER Eq 3.3")

    matrix = cylinder.quantizer_matrix_cyl(0.0, 0.0, chi, 8, hbar)
    # M[8, 9] is I(1)/pi.  The oracle's tanh-sinh rule shares only chi.value
    # with the Gauss-Legendre transform under test.
    entry = _tanh_sinh_cosine(chi, 1.0)
    out.add("entry-oracle", abs(matrix[8, 9] - entry / math.pi), 0.0, 1e-12, "DERIVED oracle")

    residuals = [
        cylinder.polynomial_reproduction_check(cos_theta, m, 2.0 * hbar, 0.7, chi, 32, hbar)
        for m in range(5)
    ]
    out.add("polynomial-reproduction", max(residuals), 0.0, 1e-6, "PAPER Eq 3.6")
    out.add_series(
        "reproduction_vs_m", ["m", "residual"], list(zip(range(5), residuals))
    )

    other = CutoffFamily.mollifier(2)
    res_a = cylinder.polynomial_reproduction_check(cos_theta, 2, 2.0 * hbar, 0.7, chi, 32, hbar)
    res_b = cylinder.polynomial_reproduction_check(cos_theta, 2, 2.0 * hbar, 0.7, other, 32, hbar)
    out.add("cutoff-independence", abs(res_a - res_b), 0.0, 1e-6, "PAPER Eq 3.6")

    theta0, p0 = 0.9, 0.4 * hbar
    theta_width, p_width = 0.4, 0.8 * hbar

    @functools.cache  # the profile and the K series share their traces
    def smeared(offset: float, K: int) -> float:
        return cylinder.pair_trace_smeared_cyl(
            p0,
            theta0,
            chi,
            K,
            hbar,
            theta_center=theta0 + offset,
            p_center=p0,
            theta_width=theta_width,
            p_width=p_width,
        ).real

    K = cfg.truncation_K
    coincident = smeared(0.0, K)
    quarter = smeared(math.pi / 2.0, K)
    antipodal = smeared(math.pi, K)
    ks = [16, 32, 48, 64]
    trace_rows = [(k, smeared(0.0, k), abs(smeared(math.pi / 2.0, k) / smeared(0.0, k))) for k in ks]
    out.add(
        "smeared-quarter-ratio",
        abs(quarter) / abs(coincident),
        0.0,
        0.05,
        "PAPER Eq 3.7",
    )
    out.add(
        "antipodal-vs-quarter",
        abs(antipodal) / abs(quarter),
        0.0,
        2.0,
        "PAPER Eq 3.7",
        mode="min",
    )
    # A true double-delta trace would follow the smearing profile; at the
    # antipode that profile is exp((cos(pi) - 1) / width^2) of the coincident
    # value, while the kernel keeps genuine support there.
    delta_prediction = math.exp((math.cos(math.pi) - 1.0) / theta_width**2)
    mismatch = abs(antipodal / coincident - delta_prediction)
    out.add(
        "delta-model-mismatch",
        mismatch,
        0.0,
        10.0 * cylinder.QUAD_TOLERANCE,
        "PAPER Eq 3.7",
        mode="min",
    )
    out.add_series("smeared_trace_vs_K", ["K", "coincident", "quarter_ratio"], trace_rows)


def _run_discrete_limit(cfg: ExperimentConfig, out: _Checks) -> None:
    n0, theta0 = 3, 1.1

    errors = cylinder.discrete_limit_check(n0, theta0, cfg.truncation_K)
    decreases = [errors[i] - errors[i + 1] for i in range(len(errors) - 1)]
    out.add("mollifier-ladder", min(decreases), 0.0, 0.0, "PAPER Eq 3.9", mode="min")
    out.add_series(
        "limit_error_vs_j",
        ["j", "error"],
        [(j + 1, float(e)) for j, e in enumerate(errors)],
    )

    sharp = CutoffFamily(math.pi / 2.0, math.pi / 2.0, "indicator")
    continuum = cylinder.quantizer_matrix_cyl(float(n0), theta0, sharp, 16, 1.0)
    discrete = cylinder.discrete_quantizer(n0, theta0, 16)
    indicator_gap = float(np.max(np.abs(continuum - discrete)))
    out.add("indicator-matches-discrete", indicator_gap, 0.0, 1e-12, "DERIVED oracle")

    matrix = cylinder.discrete_quantizer(2, 0.7, 16)
    diag = np.real(np.diag(matrix))
    want = np.zeros_like(diag)
    want[16 + 2] = 1.0
    out.add("discrete-diagonal", float(np.max(np.abs(diag - want))), 0.0, 1e-12, "PAPER Eq 3.10")
    out.add("discrete-trace", abs(complex(np.trace(matrix)) - 1.0), 0.0, 1e-12, "PAPER Eq 3.10")
    first_band = matrix[16 + 2, 16 + 3]
    oracle = (2.0 / math.pi) * complex(math.cos(0.7), math.sin(0.7))
    out.add("discrete-first-band", abs(first_band - oracle), 0.0, 1e-12, "PAPER Eq 3.10")


def _run_discrete_orthogonality(cfg: ExperimentConfig, out: _Checks) -> None:
    K = cfg.truncation_K
    n0 = cfg.truncation_N
    theta0 = 1.3
    t = cylinder.periodic_test_function(0.9, 0.5)

    diagonal = cylinder.discrete_pair_trace_smeared(n0, n0, theta0, t, K).real
    out.add(
        "diagonal-smeared-trace",
        diagonal,
        2.0 * math.pi * t(theta0),
        1e-2,
        "PAPER Eq 3.11",
        mode="rel",
    )

    off = abs(cylinder.discrete_pair_trace_smeared(n0, n0 + 3, theta0, t, K))
    rows = []
    for k in (16, 32, 48, 64):
        d = cylinder.discrete_pair_trace_smeared(n0, n0, theta0, t, k).real
        o = abs(cylinder.discrete_pair_trace_smeared(n0, n0 + 3, theta0, t, k))
        rows.append((k, d, o))
    out.add("offdiagonal-suppression", off / abs(diagonal), 0.0, 0.05, "PAPER Eq 3.11")
    out.add_series("orthogonality_vs_K", ["K", "diagonal", "offdiagonal"], rows)

    flat_value = cylinder.discrete_pair_trace_smeared(
        n0, n0, theta0, lambda angles: np.ones_like(angles, dtype=float), K
    ).real
    out.add("flat-test-function", flat_value, 2.0 * math.pi, 1e-6, "DERIVED oracle")

    k1, k2 = 16, 32
    t1 = cylinder.discrete_pair_trace(n0, n0, theta0, theta0, k1).real
    t2 = cylinder.discrete_pair_trace(n0, n0, theta0, theta0, k2).real
    expected = (2.0 * k2 + 1.0) / (2.0 * k1 + 1.0)
    out.add("unsmeared-growth", abs(t2 / t1 / expected - 1.0), 0.0, 0.2, "TRIVIAL")

    hbar = cfg.hbar
    worst_off = 0.0
    worst_diag = 0.0
    for fn in (lambda p, theta: p, lambda p, theta: p * p):
        matrix = cylinder.discrete_quantize(fn, 16, 12, hbar)
        ks = np.arange(-12, 13)
        diag = np.diag(matrix)
        want = np.array([fn(k * hbar, 0.0) for k in ks], dtype=complex)
        worst_diag = max(worst_diag, float(np.max(np.abs(diag - want))))
        off_diag = matrix - np.diag(diag)
        worst_off = max(worst_off, float(np.max(np.abs(off_diag))))
    out.add("momentum-diagonality", worst_off, 0.0, 1e-12, "PAPER Sec 3")
    out.add("momentum-spectrum", worst_diag, 0.0, 1e-12, "PAPER Sec 3")


# ---------------------------------------------------------------------------
# the experiment table


CATALOG: tuple[Experiment, ...] = (
    Experiment(
        "flat-axioms",
        "Flat kernel axioms: hermiticity, normalized trace, pairing, and polynomial round trips.",
        "Eqs 2.3-2.13",
        {"hbar": 1.0, "truncation_K": 32},
        (
            "ground-state-peak",
            "ground-state-gaussian",
            "kernel-hermiticity",
            "kernel-trace",
            "trace-ladder-monotone",
            "weak-form-pairing",
            "round-trip-residual",
        ),
        _run_flat_axioms,
    ),
    Experiment(
        "orderings",
        "Ordering-family images: identity preset, standard preset, and hermiticity behavior.",
        "Eqs 2.15-2.23",
        {"hbar": 1.0, "ordering": "standard", "truncation_K": 16},
        (
            "weyl-preset-identity",
            "standard-preset-image",
            "configured-ordering-roundtrip",
            "real-ordering-hermiticity",
            "circle-weyl-hermiticity",
            "standard-defect-positive",
            "standard-defect-value",
        ),
        _run_orderings,
    ),
    Experiment(
        "curved-defect",
        "Kinetic images with curvature corrections and the trace-axiom defect on spheres.",
        "Eqs 2.31-2.46",
        {
            "hbar": 1.0,
            "manifold": "sphere:1.0",
            "symbol": {"coefficient": "inverse-metric", "degree": 2},
        },
        (
            "kinetic-image-residual",
            "ricci-coefficient",
            "defect-value",
            "defect-p-independence",
            "defect-curvature-coefficient",
            "radius-scaling",
            "flat-defect-euclidean",
            "flat-defect-polar",
            "emmrich-defect",
            "ricci-convention",
            "density-jet-ricci",
            "pullback-vs-covariant",
        ),
        _run_curved_defect,
    ),
    Experiment(
        "point-transform",
        "Chart covariance of the ordering generator between Cartesian and curvilinear charts.",
        "Eqs 2.48-2.49",
        {"hbar": 1.0},
        (
            "cartesian-reduction",
            "polar-cartesian-agreement",
            "radial-momentum-shift",
            "divergence-identity",
        ),
        _run_point_transform,
    ),
    Experiment(
        "cylinder-axioms",
        "Cylinder kernel axioms: trace, polynomial reproduction, and pair-trace localization.",
        "Eqs 3.3-3.7",
        {"hbar": 1.0, "cutoff": _DEFAULT_CUTOFF, "truncation_K": 64},
        (
            "kernel-trace",
            "raw-kernel-trace",
            "kernel-hermiticity",
            "entry-oracle",
            "polynomial-reproduction",
            "cutoff-independence",
            "smeared-quarter-ratio",
            "antipodal-vs-quarter",
            "delta-model-mismatch",
        ),
        _run_cylinder_axioms,
    ),
    Experiment(
        "discrete-limit",
        "Sharp-cutoff limit of the cylinder kernel onto the integer momentum lattice.",
        "Eqs 3.8-3.10",
        {"truncation_K": 32},
        (
            "mollifier-ladder",
            "indicator-matches-discrete",
            "discrete-diagonal",
            "discrete-trace",
            "discrete-first-band",
        ),
        _run_discrete_limit,
    ),
    Experiment(
        "discrete-orthogonality",
        "Smeared orthogonality and momentum diagonality of the discrete lattice kernel.",
        "Eqs 3.10-3.11",
        {"hbar": 1.0, "truncation_K": 64, "truncation_N": 3},
        (
            "diagonal-smeared-trace",
            "offdiagonal-suppression",
            "flat-test-function",
            "unsmeared-growth",
            "momentum-diagonality",
            "momentum-spectrum",
        ),
        _run_discrete_orthogonality,
    ),
)

EXPERIMENT_NAMES: tuple[str, ...] = tuple(entry.name for entry in CATALOG)

#: Valid per-experiment check names (also the accepted tolerance-override keys).
CHECK_NAMES: dict[str, tuple[str, ...]] = {entry.name: entry.checks for entry in CATALOG}


def run_experiment(config: ExperimentConfig, tolerance_scale: float = 1.0) -> Report:
    """Run one experiment and return its report.

    ``tolerance_scale`` multiplies every ``abs``/``rel`` tolerance (lower-bound
    ``min`` thresholds are left untouched); values above 1 loosen the checks,
    values below 1 tighten them.  A library error raised while a check is
    evaluated becomes an ``ExperimentError`` naming that check, and so does
    an ``ArithmeticError`` (e.g. an ``OverflowError`` at an extreme
    ``hbar``); a ``ConfigError`` passes through unchanged.
    """
    if not tolerance_scale > 0:
        raise ConfigError("tolerance scale must be positive")
    config.validate()
    experiment = _experiment(config.experiment)
    checks = _Checks(config, experiment.checks, tolerance_scale)
    try:
        experiment.run(config, checks)
    except ConfigError:
        raise
    except (PhasequantError, ArithmeticError) as exc:
        raise ExperimentError(f"check {checks.pending!r} could not be evaluated: {exc}") from exc
    environment = {"version": __version__}
    environment.update((key, getattr(config, key)) for key in experiment.settings)
    if "hbar" in environment:
        environment["hbar"] = float(environment["hbar"])
    timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    return Report(config.experiment, environment, checks.records, checks.series, timestamp)
