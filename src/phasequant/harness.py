"""Named verification experiments with reproducible, diffable reports.

Each experiment bundles a fixed list of checks around one area of the
calculus: flat kernel axioms, ordering families, curvature defects, chart
covariance, the cylinder kernel, and the discrete momentum lattice.  The
``CATALOG`` table at the end of this module describes every experiment once:
its name, description and anchor, the config settings its runner reads (with
their defaults), its checks, and the runner.  A config may set only the
settings its experiment reads; validation builds the manifold, symbol and
ordering it names, so an accepted config runs.

A check is declared once, as a ``Check`` row of its experiment's table: its
name (also its tolerance-override key), default tolerance, provenance tag,
comparison mode and reduction, in report order.  A runner is a generator
that yields one value per row, in table order: its samples, or ``(samples,
reference)`` when the reference is not 0.  It stores its plot series in a
dict it is handed.  ``run_experiment`` pairs each value with its row, which
reduces the samples to the measured number (the worst, the least step of a
falling ladder, the spread, or the one yielded value) and builds the record;
every reduction propagates NaN, so a NaN anywhere in the samples fails the
check.  Reports serialize to JSON plus plot-ready CSV series; re-running the
same configuration with the same package version reproduces the report
bytes exactly, apart from the timestamp field.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import datetime
import functools
import json
import math
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

from . import __version__, curved, cylinder, flat_weyl, geometry, numdiff, seeded
from .bases import MAX_HERMITE_TRUNCATION, FourierBasis, HermiteBasis
from .cylinder import CutoffFamily
from .errors import (
    ConfigError,
    ExperimentError,
    PhasequantError,
    QuadratureAccuracyError,
    check_hbar,
    positive_finite,
)
from .expressions import Const, Pow, Var, add, mul
from .fields import TensorField, add as field_add, constant as constant_field, from_expression, tensor_from_fields
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


_MODES = ("abs", "rel", "min")


def _least_step(samples: np.ndarray) -> float:
    """The smallest drop between successive samples of a ladder that must fall."""
    return np.min(samples[:-1] - samples[1:])


@dataclasses.dataclass(frozen=True)
class Check:
    """One declared check: its name, default tolerance, provenance tag, mode and reduction.

    The name is also the check's tolerance-override key.  ``tolerance`` is a
    number, or a function of the config for a threshold that scales with it.
    ``mode`` is ``abs`` (absolute difference within tolerance), ``rel``
    (difference within tolerance times the reference magnitude), or ``min``
    (measured must strictly exceed the threshold echoed in ``reference``).
    ``reduce`` maps the runner's samples to the measured number: ``np.max``
    (the worst), ``_least_step`` or ``np.ptp`` (the spread) of a real sample
    array, or by default ``np.real`` of the one value yielded.  Each of them
    returns NaN if any sample is NaN.
    """

    name: str
    tolerance: float | Callable[[ExperimentConfig], float]
    provenance: str
    mode: str = "abs"
    reduce: Callable[[np.ndarray], float] = np.real

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigError(f"unknown comparison mode {self.mode!r}; expected one of {', '.join(_MODES)}")

    def record(self, value, config: ExperimentConfig, tolerance_scale: float) -> CheckRecord:
        """The record of a runner's ``value``: ``samples`` or ``(samples, reference)``."""
        samples, reference = value if isinstance(value, tuple) else (value, 0.0)
        default = self.tolerance(config) if callable(self.tolerance) else self.tolerance
        tol = float(config.tolerances.get(self.name, default))
        measured = float(self.reduce(samples))
        if self.mode == "min":
            # lower-bound checks are thresholds, not error budgets: the
            # tolerance scale does not apply.
            return CheckRecord(self.name, measured, tol, tol, self.mode, self.provenance, measured > tol)
        reference = float(reference)
        effective = tol * float(tolerance_scale)
        bound = effective if self.mode == "abs" else effective * abs(reference)
        passed = abs(measured - reference) <= bound
        return CheckRecord(self.name, measured, reference, effective, self.mode, self.provenance, passed)


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One experiment: what it verifies, the settings it reads, its checks, its runner.

    ``settings`` maps each config key the runner reads to its default, in
    template order.  ``checks`` holds one ``Check`` row per check, in report
    order.  ``run(config, series)`` is a generator that yields one value per
    row, in that order (the samples its row reduces, or ``(samples,
    reference)`` when the reference is not 0), and stores each plot series
    as ``series[name] = (columns, rows)``.
    """

    name: str
    description: str
    anchor: str
    settings: dict
    checks: tuple[Check, ...]
    run: Callable[[ExperimentConfig, dict], Iterator]


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
_TRUNCATION_CAPS["orderings"] = MAX_HERMITE_TRUNCATION

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
    f"flat-axioms at {flat_weyl.MAX_TRUNCATION}, orderings at {MAX_HERMITE_TRUNCATION})",
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
    by check name and must be positive and finite.
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
            check_hbar(self.hbar)
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
            raise ConfigError("tolerances must be a mapping of check name to positive finite number")
        names = CHECK_NAMES[self.experiment]
        for name, tol in self.tolerances.items():
            if name not in names:
                raise ConfigError(
                    f"unknown tolerance key {name!r} for {self.experiment}; "
                    f"valid names: {', '.join(sorted(names))}"
                )
            if not positive_finite(tol):
                raise ConfigError(f"tolerance {name!r} must be a positive finite number")
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
    comments["tolerances"] += ", ".join(CHECK_NAMES[name])
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
    """One measured/reference comparison with its provenance tag; ``mode`` is
    the declaring ``Check``'s, and ``tolerance`` the one applied."""

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


# ---------------------------------------------------------------------------
# shared symbol builders


def _polynomial_field(rng: seeded.Generator, var: str):
    """``sum_k c_k var^k`` over k = 0..3 with uniform random ``c_k``, built
    node by node as the parser builds ``(c0)*var**0 + ... + (c3)*var**3``."""
    terms = (mul(Const(float(c)), Pow(Var(var), k)) for k, c in enumerate(rng.uniform(-1.0, 1.0, size=4)))
    return from_expression(functools.reduce(add, terms), (var,))


def _random_flat_symbol(rng: seeded.Generator) -> MomentumPolynomial:
    terms = {}
    for degree in range(4):
        field = _polynomial_field(rng, "x")
        terms[degree] = tensor_from_fields(1, degree, lambda idx, f=field: f)
    return MomentumPolynomial(1, terms)


def _row_symbol(symbols: list[MomentumPolynomial]) -> MomentumPolynomial:
    """The symbol whose coefficients at row i of an ``(N, dim)`` point array
    are those of ``symbols[i]`` at that row's point, each row's jet taken at its
    single point, so every row keeps the bits of its own symbol."""
    dim = symbols[0].dim

    def rows(tensors: list[TensorField], rank: int) -> TensorField:
        def jet(q, order):  # the point axis after the component axes
            return np.stack([t.jet(x, order) for t, x in zip(tensors, q)], axis=rank)

        return TensorField(dim, rank, jet)

    return MomentumPolynomial(dim, {m: rows([f.terms[m] for f in symbols], m) for m in symbols[0].terms})


def _round_trip_residual(rng: seeded.Generator, schemes: list[OrderingScheme], count: int, hbar: float):
    """``|dequantize(quantize(f)) - f|`` of ``count`` random flat symbols, cycling through ``schemes``.

    The trips of one scheme run as one stack: one image, one dequantization
    and one evaluation of their :func:`_row_symbol` on the stacked points."""
    model = geometry.euclidean_space(1)
    groups: list[list] = [[] for _ in schemes[:count]]
    for i in range(count):
        symbol = _random_flat_symbol(rng)
        groups[i % len(schemes)].append((symbol, rng.uniform(-1.0, 1.0, size=1), rng.uniform(-1.0, 1.0, size=1)))
    errors = np.empty(count)
    for first, scheme in enumerate(schemes[:count]):
        symbols, ps, xs = zip(*groups[first])
        groups[first] = []  # a group's symbols and their derivatives go once it has run
        f, p, x = _row_symbol(list(symbols)), np.array(ps), np.array(xs)
        D = flat_weyl.a_image_flat(scheme, f, model, hbar)
        recovered = flat_weyl.dequantize_flat(scheme, D, p, x, hbar, model)
        errors[first :: len(schemes)] = [abs(complex(r) - complex(e)) for r, e in zip(recovered, f.evaluate(p, x))]
    return errors


def _operator_difference(first, second, points: np.ndarray) -> np.ndarray:
    """Each coefficient difference ``|a - b|`` of two operators over an ``(N, dim)`` point array."""
    differences = []
    for order in set(first.terms) | set(second.terms):
        a = first.terms[order].evaluate(points) if order in first.terms else 0.0
        b = second.terms[order].evaluate(points) if order in second.terms else 0.0
        differences.append(np.ravel(np.abs(a - b)))
    return np.concatenate(differences)


def _smooth_coefficient_field(rng: seeded.Generator, names: tuple[str, ...]):
    c = [float(v) for v in rng.uniform(-1.0, 1.0, size=4)]
    r, phi = names
    source = f"({c[0]!r}) + ({c[1]!r})*{r} + ({c[2]!r})*sin({phi}) + ({c[3]!r})*{r}*cos({phi})"
    return from_expression(source, names)


def _random_chart_symbol(rng: seeded.Generator, names: tuple[str, ...]) -> MomentumPolynomial:
    dim = len(names)
    scalar = _smooth_coefficient_field(rng, names)
    vector = tensor_from_fields(dim, 1, lambda idx: _smooth_coefficient_field(rng, names))
    raw = [[_smooth_coefficient_field(rng, names) for _ in range(dim)] for _ in range(dim)]
    matrix = tensor_from_fields(
        dim, 2, lambda idx: field_add(raw[idx[0]][idx[1]], raw[idx[1]][idx[0]])
    )
    return MomentumPolynomial(dim, {0: scalar, 1: vector, 2: matrix})


# ---------------------------------------------------------------------------
# experiment runners


def _run_flat_axioms(cfg: ExperimentConfig, series: dict) -> Iterator:
    hbar = cfg.hbar
    s = math.sqrt(hbar)
    rng = seeded.Generator(20260814)

    yield flat_weyl.quantizer_diag_flat(0.0, 0.0, 2, hbar)[0].real, 2.0

    p0, x0 = 0.7 * s, -0.4 * s
    value = flat_weyl.quantizer_diag_flat(p0, x0, 2, hbar)[0]
    yield value.real, 2.0 * math.exp(-(p0 * p0 + x0 * x0) / hbar)

    defects = []
    for _ in range(3):
        p, x = (s * float(v) for v in rng.uniform(-1.5, 1.5, size=2))
        defects.append(hermiticity_defect(flat_weyl.quantizer_matrix_flat(p, x, 16, hbar)))
    yield np.array(defects)

    yield abs(flat_weyl.flat_trace(0.0, 0.0, 8, hbar) - 1.0)

    sizes = [4, 8, 16, 32]
    ladder = flat_weyl.trace_ladder(0.3 * s, -0.2 * s, sizes, hbar)
    series["trace_vs_K"] = (["K", "deviation"], list(zip(sizes, ladder)))
    yield np.array(ladder)

    g1 = (0.4 * s, -0.3 * s, 0.9 * s, 0.8 * s)
    g2 = (-0.2 * s, 0.5 * s, 1.1 * s, 0.7 * s)
    A = flat_weyl.quantize_gaussian_flat(*g1, K=cfg.truncation_K, hbar=hbar)
    B = flat_weyl.quantize_gaussian_flat(*g2, K=cfg.truncation_K, hbar=hbar)
    yield complex(np.sum(A * B.T)).real, flat_weyl.gaussian_pair_integral(g1, g2) / (2.0 * math.pi * hbar)

    schemes = [
        ordering_scheme("weyl"),
        ordering_scheme("standard"),
        OrderingScheme((1.0, 0.25, -0.125, 1.0 / 48.0, 0.0), name="real-demo"),
    ]
    yield _round_trip_residual(rng, schemes, 20, hbar)


def _run_orderings(cfg: ExperimentConfig, series: dict) -> Iterator:
    hbar = cfg.hbar
    model = geometry.euclidean_space(1)
    circle = geometry.circle()
    rng = seeded.Generator(31415)
    probes = np.array([[-0.8], [0.1], [0.7]])

    f = _random_flat_symbol(rng)
    direct = curved.wue_weyl_image(model, f, hbar)
    yield _operator_difference(direct, flat_weyl.a_image_flat(ordering_scheme("weyl"), f, model, hbar), probes)

    differences = []
    for degree in range(4):
        field = _polynomial_field(rng, "x")
        f = MomentumPolynomial(1, {degree: tensor_from_fields(1, degree, lambda idx: field)})
        direct = curved.wue_standard_image(model, f, hbar)
        through = flat_weyl.a_image_flat(ordering_scheme("standard"), f, model, hbar)
        differences.append(_operator_difference(direct, through, probes))
    yield np.concatenate(differences)

    yield _round_trip_residual(rng, [ordering_scheme(cfg.ordering, hbar)], 5, hbar)

    scheme = OrderingScheme((1.0, 0.35, -0.15, 0.05, 0.0), name="real-demo")
    X = from_expression("0.4 + 0.9*x + 0.25*x**2", ("x",))
    f = MomentumPolynomial(1, {1: tensor_from_fields(1, 1, lambda idx: X)})
    D = flat_weyl.a_image_flat(scheme, f, model, hbar)
    yield hermiticity_defect(operator_matrix(model, D, HermiteBasis(hbar=hbar), cfg.truncation_K))

    cos_p = symbol_from_config(circle, {"coefficient": "cos-theta", "degree": 1})
    D = curved.wue_weyl_image(circle, cos_p, hbar)
    yield hermiticity_defect(operator_matrix(circle, D, FourierBasis(), cfg.truncation_K))

    D = curved.wue_standard_image(circle, cos_p, hbar)
    defect = hermiticity_defect(operator_matrix(circle, D, FourierBasis(), cfg.truncation_K))
    yield defect
    yield defect, 0.5 * hbar


def _run_curved_defect(cfg: ExperimentConfig, series: dict) -> Iterator:
    hbar = cfg.hbar
    model = geometry.manifold(cfg.manifold)
    probes = [np.array([1.1, 0.4]), np.array([1.9, -0.9])]
    p_base = np.array([0.3, -0.55])
    q0 = probes[0]

    def kinetic_residual():
        f = curved.kinetic_symbol(model, hbar)
        D = curved.wue_weyl_image(model, f, hbar)
        residuals = []
        for q in probes:
            for order, tensor in D.terms.items():
                want = -hbar * hbar * geometry.inverse_metric(model, q) if order == 2 else 0.0
                residuals.append(np.ravel(np.abs(np.asarray(tensor.evaluate(q)) - want)))
        return np.concatenate(residuals)

    yield kinetic_residual()

    scalar_curv = geometry.scalar_curvature(model, q0)
    f2 = symbol_from_config(model, {"coefficient": "inverse-metric", "degree": 2})
    term0 = complex(np.asarray(curved.wue_weyl_image(model, f2, hbar).terms[0].evaluate(q0)))
    yield -term0.real / (hbar * hbar * scalar_curv), 1.0 / 12.0

    f_sym = symbol_from_config(model, cfg.symbol)

    def curvature_weight(q):  # hbar^2 X^{ab} R_{ab}, the defect is a third of it
        X = f_sym.terms[2].evaluate(q)
        return hbar * hbar * float(np.real(np.tensordot(X, geometry.ricci(model, q), 2)))

    # the p-scan holds the q0, p_base defect as its scale 1.0 (1.0 * p_base is p_base bit for bit)
    scales = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
    values = [curved.axiom_defect(model, f_sym, t * p_base, q0, hbar).real for t in scales]
    oracle = curvature_weight(q0) / 3.0
    series["defect_vs_p"] = (["p_scale", "defect", "reference"], [(t, v, oracle) for t, v in zip(scales, values)])
    defect_q0 = values[scales.index(1.0)]
    yield defect_q0, oracle
    yield np.array(values)

    # least-squares c in defect(q) = c * hbar^2 X^{ab} R_{ab}(q) over the two probes
    w = np.array([curvature_weight(q) for q in probes])
    d = np.array([defect_q0, curved.axiom_defect(model, f_sym, p_base, probes[1], hbar).real])
    if w @ w == 0.0:
        raise ConfigError("curvature contraction vanishes at every sample point")
    yield float(w @ d / (w @ w)), 1.0 / 3.0

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
    yield d2, d1 / 4.0

    def flat_defect(name: str):
        flat_model = geometry.manifold(name)
        f = symbol_from_config(flat_model, {"coefficient": "inverse-metric", "degree": 2})
        q = np.array([0.3, -0.8]) if name.startswith("euclidean") else np.array([1.2, 0.5])
        return abs(curved.axiom_defect(flat_model, f, np.array([0.7, 0.2]), q, hbar))

    yield flat_defect("euclidean:2")
    yield flat_defect("polar-plane")

    yield abs(curved.axiom_defect(model, f_sym, p_base, q0, hbar, measure_variant="emmrich"))

    unit = geometry.manifold("sphere:1.0")
    points = (np.array([1.1, 0.4]), np.array([2.0, -1.3]))
    yield np.array([np.abs(geometry.ricci(unit, q) - geometry.metric(unit, q)) for q in points])

    jets = geometry.sqrt_g_jet(model, q0, 2, method="numeric")
    want = -geometry.ricci_in_frame(model, q0) / 3.0
    yield np.abs(jets[2] - want)

    def pullback_agreement():
        names = model.coordinate_names
        psi = from_expression(f"sin({names[0]})*cos({names[1]}) + 0.3*cos({names[0]})", names)
        jets = geometry.pullback_jet(model, psi, q0, 3)
        return np.concatenate(
            [np.ravel(np.abs(jets[k] - geometry.sym_cov_deriv_in_frame(model, psi, q0, k))) for k in range(4)]
        )

    yield pullback_agreement()


def _run_point_transform(cfg: ExperimentConfig, series: dict) -> Iterator:
    hbar = cfg.hbar
    polar = geometry.polar_plane()
    euclid = geometry.euclidean_space(2)
    rng = seeded.Generator(27182)

    def to_cartesian(q):  # (N, 2) polar points
        return np.stack([q[:, 0] * np.cos(q[:, 1]), q[:, 0] * np.sin(q[:, 1])], axis=-1)

    def from_cartesian(xy):  # (N, 2) Cartesian points
        return np.stack([np.hypot(xy[:, 0], xy[:, 1]), np.arctan2(xy[:, 1], xy[:, 0])], axis=-1)

    def cartesian_reduction():
        names = euclid.coordinate_names
        field = from_expression(f"0.4*{names[0]}**2 + 0.9*{names[1]}", names)
        f = MomentumPolynomial(2, {1: tensor_from_fields(2, 1, lambda idx: field)})
        derived = delta_apply(euclid, f, hbar)
        q, p = np.empty((2, 5, 2))
        for i in range(5):
            q[i] = rng.uniform(-1.0, 1.0, size=2)
            p[i] = rng.uniform(-1.0, 1.0, size=2)

        def plain(z):  # (N, 4) phase-space nodes
            return f.evaluate(z[:, :2], z[:, 2:])

        total = 0.0 + 0.0j
        for value in numdiff.partials(plain, np.concatenate([p, q], axis=1), [(1, 0, 1, 0), (0, 1, 0, 1)]):
            total = total + value
        # Python's complex abs, as at one point: numpy's rounds some moduli differently
        return np.array([abs(d) for d in (derived.evaluate(p, q) - (-hbar) * total).tolist()])

    yield cartesian_reduction()

    def polar_agreement():
        f = _random_chart_symbol(rng, polar.coordinate_names)
        derived = delta_apply(polar, f, hbar)
        q, p = np.empty((2, 20, 2))
        for i in range(20):
            q[i] = rng.uniform(0.6, 1.8), rng.uniform(-2.5, 2.5)
            p[i] = rng.uniform(-1.2, 1.2, size=2)
        difference = derived.evaluate(p, q) - flat_chart_delta_value(f, to_cartesian, from_cartesian, p, q, hbar)
        return np.array([abs(d) for d in difference.tolist()])

    yield polar_agreement()

    radial = MomentumPolynomial(2, {1: constant_field(2, np.array([1.0, 0.0]))})
    shifted = delta_apply(polar, radial, hbar)

    radii = [0.5, 1.0, 2.0] + np.linspace(0.5, 2.0, 7).tolist()
    points = np.stack([radii, np.full(len(radii), 0.4)], axis=1)
    shifts = shifted.evaluate(np.tile([0.3, -0.7], (len(radii), 1)), points).real.tolist()
    rows = [(r, shift, -hbar / r) for r, shift in zip(radii[3:], shifts[3:])]
    series["shift_vs_r"] = (["r", "measured", "reference"], rows)
    yield np.array([abs(shift + hbar / r) for r, shift in zip(radii[:3], shifts[:3])])

    def divergence_identity():
        names = polar.coordinate_names
        X = tensor_from_fields(2, 1, lambda idx: _smooth_coefficient_field(rng, names))
        f = MomentumPolynomial(2, {1: X})
        derived = delta_apply(polar, f, hbar)
        divergence = geometry.covariant_divergence(polar, X)
        p, points = np.array([0.2, 0.4]), (np.array([0.8, 0.3]), np.array([1.6, -1.1]))
        reference = (-hbar * complex(np.asarray(divergence.evaluate(q))) for q in points)
        return np.array([abs(derived.evaluate(p, q) - want) for q, want in zip(points, reference)])

    yield divergence_identity()


def _tanh_sinh_cosine(chi: CutoffFamily, s: float) -> float:
    """``int_0^support 2 chi(xi)^2 cos(s xi) dxi`` by the tanh-sinh rule of Takahasi
    & Mori (Publ. RIMS 9, 1974) on [0, plateau] and [plateau, support] (an empty one
    gets zero weights): steps 2^-k on [-4, 4], halved until two levels agree to 1e-15.
    It takes no rule from ``bases``, so it checks the Clenshaw-Curtis transforms
    of ``cylinder`` sharing only ``CutoffFamily.value`` with them."""
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


def _run_cylinder_axioms(cfg: ExperimentConfig, series: dict) -> Iterator:
    hbar = cfg.hbar
    chi = _cutoff_from_config(cfg.cutoff)
    rng = seeded.Generator(16180)
    one = constant_field(1, 1.0)
    cos_theta = from_expression("cos(theta)", ("theta",))

    yield cylinder.polynomial_reproduction_check(one, 0, 0.77 * hbar, 0.3, chi, 32, hbar)

    def raw_deviation(wide=CutoffFamily(0.8, 2.8)):
        p = hbar * float(rng.uniform(-2.0, 2.0))
        rng.uniform(-math.pi, math.pi)  # the trace takes no angle; the draw keeps the later ones in place
        return abs(cylinder.quantizer_trace_cyl(p, wide, cylinder.MAX_TRUNCATION, hbar) - 1.0)

    yield np.array([raw_deviation() for _ in range(5)])

    continuum = cylinder.quantizer_matrix_cyl(0.6 * hbar, 1.1, chi, 16, hbar)
    discrete = cylinder.discrete_quantizer(2, 0.7, 16)
    yield np.array([hermiticity_defect(continuum), hermiticity_defect(discrete)])

    matrix = cylinder.quantizer_matrix_cyl(0.0, 0.0, chi, 8, hbar)
    # M[8, 9] is I(1)/pi.  The oracle's tanh-sinh rule shares only chi.value
    # with the nested Clenshaw-Curtis transform under test.
    entry = _tanh_sinh_cosine(chi, 1.0)
    yield abs(matrix[8, 9] - entry / math.pi)

    residuals = [
        cylinder.polynomial_reproduction_check(cos_theta, m, 2.0 * hbar, 0.7, chi, 32, hbar)
        for m in range(5)
    ]
    series["reproduction_vs_m"] = (["m", "residual"], list(zip(range(5), residuals)))
    yield np.array(residuals)

    other = CutoffFamily.mollifier(2)
    res_b = cylinder.polynomial_reproduction_check(cos_theta, 2, 2.0 * hbar, 0.7, other, 32, hbar)
    yield abs(residuals[2] - res_b)

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
    series["smeared_trace_vs_K"] = (["K", "coincident", "quarter_ratio"], trace_rows)
    yield abs(quarter) / abs(coincident)
    yield abs(antipodal) / abs(quarter)
    # A true double-delta trace would follow the smearing profile; at the
    # antipode that profile is exp((cos(pi) - 1) / width^2) of the coincident
    # value, while the kernel keeps genuine support there.
    delta_prediction = math.exp((math.cos(math.pi) - 1.0) / theta_width**2)
    yield abs(antipodal / coincident - delta_prediction)


def _run_discrete_limit(cfg: ExperimentConfig, series: dict) -> Iterator:
    n0, theta0 = 3, 1.1

    errors = cylinder.discrete_limit_check(n0, theta0, cfg.truncation_K)
    series["limit_error_vs_j"] = (["j", "error"], [(j + 1, float(e)) for j, e in enumerate(errors)])
    yield errors

    sharp = CutoffFamily(math.pi / 2.0, math.pi / 2.0, "indicator")
    continuum = cylinder.quantizer_matrix_cyl(float(n0), theta0, sharp, 16, 1.0)
    discrete = cylinder.discrete_quantizer(n0, theta0, 16)
    yield np.abs(continuum - discrete)

    matrix = cylinder.discrete_quantizer(2, 0.7, 16)
    diag = np.real(np.diag(matrix))
    want = np.zeros_like(diag)
    want[16 + 2] = 1.0
    yield np.abs(diag - want)
    yield abs(complex(np.trace(matrix)) - 1.0)
    first_band = matrix[16 + 2, 16 + 3]
    oracle = (2.0 / math.pi) * complex(math.cos(0.7), math.sin(0.7))
    yield abs(first_band - oracle)


def _run_discrete_orthogonality(cfg: ExperimentConfig, series: dict) -> Iterator:
    K = cfg.truncation_K
    n0 = cfg.truncation_N
    theta0 = 1.3
    t = cylinder.periodic_test_function(0.9, 0.5)

    diagonal = cylinder.discrete_pair_trace_smeared(n0, n0, theta0, t, K).real
    yield diagonal, 2.0 * math.pi * t(theta0)

    off = abs(cylinder.discrete_pair_trace_smeared(n0, n0 + 3, theta0, t, K))
    rows = []
    for k in (16, 32, 48, 64):
        d = cylinder.discrete_pair_trace_smeared(n0, n0, theta0, t, k).real
        o = abs(cylinder.discrete_pair_trace_smeared(n0, n0 + 3, theta0, t, k))
        rows.append((k, d, o))
    series["orthogonality_vs_K"] = (["K", "diagonal", "offdiagonal"], rows)
    yield off / abs(diagonal)

    flat_value = cylinder.discrete_pair_trace_smeared(
        n0, n0, theta0, lambda angles: np.ones_like(angles, dtype=float), K
    ).real
    yield flat_value, 2.0 * math.pi

    k1, k2 = 16, 32
    t1 = cylinder.discrete_pair_trace(n0, n0, theta0, theta0, k1).real
    t2 = cylinder.discrete_pair_trace(n0, n0, theta0, theta0, k2).real
    expected = (2.0 * k2 + 1.0) / (2.0 * k1 + 1.0)
    yield abs(t2 / t1 / expected - 1.0)

    hbar = cfg.hbar
    fns = (lambda p, theta: p, lambda p, theta: p * p)
    matrices = np.array([cylinder.discrete_quantize(fn, 16, 12, hbar) for fn in fns])
    diags = np.diagonal(matrices, axis1=1, axis2=2)
    want = np.array([[fn(k * hbar, 0.0) for k in np.arange(-12, 13)] for fn in fns], dtype=complex)
    yield np.abs(matrices - [np.diag(diag) for diag in diags])
    yield np.abs(diags - want)


# ---------------------------------------------------------------------------
# the experiment table


CATALOG: tuple[Experiment, ...] = (
    Experiment(
        "flat-axioms",
        "Flat kernel axioms: hermiticity, normalized trace, pairing, and polynomial round trips.",
        "Eqs 2.3-2.13",
        {"hbar": 1.0, "truncation_K": 32},
        (
            Check("ground-state-peak", 1e-12, "DERIVED oracle"),
            Check("ground-state-gaussian", 1e-12, "DERIVED oracle"),
            Check("kernel-hermiticity", 1e-8, "PAPER Eq 2.4", reduce=np.max),
            Check("kernel-trace", 2e-3, "PAPER Eq 2.5"),
            Check("trace-ladder-monotone", 0.0, "PAPER Eq 2.5", "min", reduce=_least_step),
            Check("weak-form-pairing", 1e-2, "PAPER Eq 2.6", "rel"),
            Check("round-trip-residual", 1e-12, "PAPER Eq 2.13", reduce=np.max),
        ),
        _run_flat_axioms,
    ),
    Experiment(
        "orderings",
        "Ordering-family images: identity preset, standard preset, and hermiticity behavior.",
        "Eqs 2.15-2.23",
        {"hbar": 1.0, "ordering": "standard", "truncation_K": 16},
        (
            Check("weyl-preset-identity", 1e-15, "TRIVIAL", reduce=np.max),
            Check("standard-preset-image", 1e-13, "PAPER Eq 2.22", reduce=np.max),
            Check("configured-ordering-roundtrip", 1e-12, "PAPER Eq 2.15", reduce=np.max),
            Check("real-ordering-hermiticity", 1e-9, "PAPER Eq 2.23"),
            Check("circle-weyl-hermiticity", 1e-10, "PAPER Eq 2.23"),
            Check("standard-defect-positive", 1e-6, "DERIVED oracle", "min"),
            Check("standard-defect-value", 1e-9, "DERIVED oracle"),
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
            Check("kinetic-image-residual", 1e-8, "PAPER Eq 2.39", reduce=np.max),
            Check("ricci-coefficient", 1e-6, "PAPER Eq 2.36"),
            Check("defect-value", 1e-4, "PAPER Eq 2.46", "rel"),
            Check("defect-p-independence", 1e-6, "PAPER Eq 2.46", reduce=np.ptp),
            Check("defect-curvature-coefficient", 1e-4, "PAPER Eq 2.46", "rel"),
            Check("radius-scaling", 1e-3, "DERIVED oracle", "rel"),
            Check("flat-defect-euclidean", 1e-8, "TRIVIAL"),
            Check("flat-defect-polar", 1e-8, "TRIVIAL"),
            Check("emmrich-defect", lambda cfg: 0.1 * cfg.hbar * cfg.hbar, "PAPER Eq 2.28", "min"),
            Check("ricci-convention", 1e-6, "PAPER Eq 2.37", reduce=np.max),
            Check("density-jet-ricci", 1e-5, "DERIVED oracle", reduce=np.max),
            Check("pullback-vs-covariant", 1e-5, "PAPER Eq 2.31", reduce=np.max),
        ),
        _run_curved_defect,
    ),
    Experiment(
        "point-transform",
        "Chart covariance of the ordering generator between Cartesian and curvilinear charts.",
        "Eqs 2.48-2.49",
        {"hbar": 1.0},
        (
            Check("cartesian-reduction", 1e-8, "PAPER Eq 2.49", reduce=np.max),
            Check("polar-cartesian-agreement", 1e-6, "PAPER Eq 2.48", reduce=np.max),
            Check("radial-momentum-shift", 1e-8, "PAPER Eq 2.49", reduce=np.max),
            Check("divergence-identity", 1e-8, "DERIVED oracle", reduce=np.max),
        ),
        _run_point_transform,
    ),
    Experiment(
        "cylinder-axioms",
        "Cylinder kernel axioms: trace, polynomial reproduction, and pair-trace localization.",
        "Eqs 3.3-3.7",
        {"hbar": 1.0, "cutoff": _DEFAULT_CUTOFF, "truncation_K": 64},
        (
            Check("kernel-trace", 1e-8, "PAPER Eq 3.4"),
            Check("raw-kernel-trace", 1e-8, "PAPER Eq 3.4", reduce=np.max),
            Check("kernel-hermiticity", 1e-10, "PAPER Eq 3.3", reduce=np.max),
            Check("entry-oracle", 1e-12, "DERIVED oracle"),
            Check("polynomial-reproduction", 1e-6, "PAPER Eq 3.6", reduce=np.max),
            Check("cutoff-independence", 1e-6, "PAPER Eq 3.6"),
            Check("smeared-quarter-ratio", 0.05, "PAPER Eq 3.7"),
            Check("antipodal-vs-quarter", 2.0, "PAPER Eq 3.7", "min"),
            Check("delta-model-mismatch", 10.0 * cylinder.QUAD_TOLERANCE, "PAPER Eq 3.7", "min"),
        ),
        _run_cylinder_axioms,
    ),
    Experiment(
        "discrete-limit",
        "Sharp-cutoff limit of the cylinder kernel onto the integer momentum lattice.",
        "Eqs 3.8-3.10",
        {"truncation_K": 32},
        (
            Check("mollifier-ladder", 0.0, "PAPER Eq 3.9", "min", reduce=_least_step),
            Check("indicator-matches-discrete", 1e-12, "DERIVED oracle", reduce=np.max),
            Check("discrete-diagonal", 1e-12, "PAPER Eq 3.10", reduce=np.max),
            Check("discrete-trace", 1e-12, "PAPER Eq 3.10"),
            Check("discrete-first-band", 1e-12, "PAPER Eq 3.10"),
        ),
        _run_discrete_limit,
    ),
    Experiment(
        "discrete-orthogonality",
        "Smeared orthogonality and momentum diagonality of the discrete lattice kernel.",
        "Eqs 3.10-3.11",
        {"hbar": 1.0, "truncation_K": 64, "truncation_N": 3},
        (
            Check("diagonal-smeared-trace", 1e-2, "PAPER Eq 3.11", "rel"),
            Check("offdiagonal-suppression", 0.05, "PAPER Eq 3.11"),
            Check("flat-test-function", 1e-6, "DERIVED oracle"),
            Check("unsmeared-growth", 0.2, "TRIVIAL"),
            Check("momentum-diagonality", 1e-12, "PAPER Sec 3", reduce=np.max),
            Check("momentum-spectrum", 1e-12, "PAPER Sec 3", reduce=np.max),
        ),
        _run_discrete_orthogonality,
    ),
)

EXPERIMENT_NAMES: tuple[str, ...] = tuple(entry.name for entry in CATALOG)

#: Valid per-experiment check names (also the accepted tolerance-override keys).
CHECK_NAMES: dict[str, tuple[str, ...]] = {entry.name: tuple(c.name for c in entry.checks) for entry in CATALOG}


_END = object()  # what ``next`` returns once a runner has stopped


def run_experiment(config: ExperimentConfig, tolerance_scale: float = 1.0) -> Report:
    """Run one experiment and return its report.

    ``tolerance_scale``, a positive finite number, multiplies every
    ``abs``/``rel`` tolerance (lower-bound ``min`` thresholds are left
    untouched); values above 1 loosen the checks, values below 1 tighten
    them.  The runner's values pair with the declared checks in order; a
    runner that yields too few or too many raises ``ExperimentError``.  A
    library error raised while a check is evaluated becomes an
    ``ExperimentError`` naming that check, and so does an ``ArithmeticError``
    (e.g. an ``OverflowError`` at an extreme ``hbar``); a ``ConfigError``
    passes through unchanged.
    """
    if not positive_finite(tolerance_scale):
        raise ConfigError("tolerance scale must be positive and finite")
    config.validate()
    experiment = _experiment(config.experiment)
    series: dict[str, tuple] = {}
    values = experiment.run(config, series)
    records, evaluating = [], None  # the name of the check being evaluated
    try:
        for check in experiment.checks:
            evaluating = check.name
            value = next(values, _END)
            if value is _END:
                break
            records.append(check.record(value, config, tolerance_scale))
        evaluating = None
        extra = next(values, _END)  # runs the runner to its end, so its trailing series get written
    except ConfigError:
        raise
    except (PhasequantError, ArithmeticError) as exc:
        raise ExperimentError(f"check {evaluating!r} could not be evaluated: {exc}") from exc
    if len(records) < len(experiment.checks) or extra is not _END:
        raise ExperimentError(
            f"{experiment.name} yields {'fewer' if extra is _END else 'more'} values "
            f"than its {len(experiment.checks)} declared checks"
        )
    environment = {"version": __version__}
    environment.update((key, getattr(config, key)) for key in experiment.settings)
    if "hbar" in environment:
        environment["hbar"] = float(environment["hbar"])
    timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    plots = {
        name: {
            "columns": list(columns),
            "rows": [[float(v) if isinstance(v, (int, float, np.floating)) else v for v in row] for row in rows],
        }
        for name, (columns, rows) in series.items()
    }
    return Report(config.experiment, environment, records, plots, timestamp)
