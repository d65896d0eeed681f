#!/usr/bin/env python3
"""Measure checkouts side by side: experiment wall times, shared layers, perfbench.

    python3 scripts/bench.py --checkout parent=PATH --checkout change=PATH \\
        [--rounds 3] [--seconds 10] [--seed 0] --out BENCH_<n>.json

Each round measures every checkout once, in alternating order.  For one
checkout a round records:

- the median wall time of :data:`COLD_RUNS` cold runs of each cataloged
  experiment at its default config, each ``python -m phasequant run`` in a
  fresh process (start-up and imports included);
- the median, over :data:`COLD_RUNS` fresh processes, of the time each takes
  to import ``phasequant.harness`` after ``import numpy``;
- the warm time of each cataloged experiment at its default config, in
  catalog order (as ``scripts/run_all.py`` runs them): one untimed
  in-process run, then :data:`WARM_RUNS` timed ones, each under perfbench's
  ``SpeedProbe``, and how many checks the last one passed.  A timed run's
  wall time less the probe's samples inside it is its raw time; the median
  raw time goes in ``run_all_raw_s`` and the median time scaled to the
  probe's reference speed, as the layers are, in ``run_all_s``;
- the calls each cataloged experiment makes in one more, untimed in-process
  run, counted by a ``sys.setprofile`` hook: Python calls (generator resumes
  included) in ``run_all_py_calls`` and calls of C functions, numpy's
  included, in ``run_all_c_calls``.  Counts are exact where times drift with
  the host, so a time that moves while its counts stay is host noise.  One
  more untimed run under ``tracemalloc`` gives the peak of the memory it
  allocated, in bytes, in ``run_all_peak_bytes``, so what a memo keeps is
  on record;
- the median time of repeated calls of ``symbols.operator_matrix`` (circle,
  Weyl image of cos(theta) p^2, Fourier basis) at K = 32 and K = 64, of
  ``cylinder.pair_trace_smeared_cyl`` at K = 64 with a fresh default cutoff
  (the cost of one call with no transform pair remembered), of the
  cylinder-axioms experiment's series of nine smeared pair traces (offsets
  0, pi/2 and pi at K = 64, then 0 and pi/2 at K = 16, 32 and 48) on one
  default cutoff built afresh on every call,
  of ``flat_weyl.quantize_gaussian_flat`` at K = 32 (the first Gaussian of
  the flat-axioms weak-form pairing), and of ``curved.dequantize_curved`` on
  the unit sphere at the curved-defect point for cos(theta) p^m at m = 2,
  3 and 4 (each call builds the model and the Weyl image afresh, so no cache
  carries over between calls), and at m = 3 on the same sphere given by an
  opaque ``metric_fn``, the callable ``x -> geometry.metric(sphere, x)`` (its
  curvature from finite differences of the metric callable; the model is
  built afresh on every call too), of the curved-defect experiment's p-scan
  at its first probe (seven ``curved.axiom_defect`` calls at scales 0.25 to
  1.75 of its base momentum, its default symbol and hbar, on a unit sphere
  and symbol built afresh on every call), of the series density jet
  ``geometry.sqrt_g_jet(sphere, (1.1, 0.4), 2, method="numeric")``, of one
  flat-axioms round trip (``flat_weyl.a_image_flat`` then
  ``flat_weyl.dequantize_flat``, standard ordering, hbar = 1) of a random
  degree-3 symbol with cubic coefficients, drawn afresh from one seed on
  every call (the single-point reference), of the 20 stacked round trips of
  the flat-axioms round-trip-residual check (``harness._round_trip_residual``
  with the Weyl, standard and real-demo schemes at hbar = 1, its generator
  seeded afresh on every call and advanced past the experiment's three
  earlier draws), of the 20 ``symbols.flat_chart_delta_value`` calls of the
  point-transform experiment's polar-cartesian-agreement check (its symbol
  and points, with chart maps that take one point or an array of points),
  and of building the Gauss-Legendre rules ``bases.gauss_legendre`` of 256,
  512 and 1024 nodes and the 256-node Gauss-Hermite rule
  ``bases.gauss_hermite``, each with its cache cleared first (where the
  checkout tabulates a size, as it does the 256-node Hermite rule, the call
  reads the table, already loaded); of the eight Gauss rules the default
  flat-axioms and orderings runs take (the sizes of the checkout's own
  table, ``bases._rule_table()``) with the cache of every
  cached function in ``bases`` cleared first, the table's loader included,
  so they cost what they cost a fresh process; of the
  default cutoff's transform at the 257 frequencies of a K = 64 quantizer
  matrix at p = 0.4 (``CutoffFamily(0.8, 2.8).transform``) with the cache of
  every cached rule in ``bases`` cleared first, so it pays for building its
  rules as a fresh process does, whichever rules the checkout takes; of
  ``symbols.operator_matrix`` for the oscillator ``-1/2 d^2 + x^2/2`` in the
  Hermite basis at K = 16; and of the 257 trapezoid Fourier coefficients
  (K = 64) of the smearing test function on its 512-node grid
  (``bases.angle_grid`` and ``bases.fourier_coefficients``, one FFT).  A
  first call warms each layer up and is not timed; the layer is then called
  until its calls fill
  :data:`LAYER_SECONDS`, with perfbench's ``SpeedProbe`` (loaded from
  ``perfbench/child.py`` next to this script, so every checkout is scaled by
  the same probe) sampling the CPU's speed on a timer meanwhile.  Each call's time less the probe's
  samples inside it is its raw time; the layer's median raw time goes in
  ``layers_raw_ms`` and, scaled to the probe's reference speed as perfbench
  scales a pass, in ``layers_ms``.  One more, untimed call of each layer is
  counted as the experiments' runs are, in ``layers_py_calls`` and
  ``layers_c_calls``, and one more has its ``tracemalloc`` peak in
  ``layers_peak_bytes``;
- the end-to-end medians of ``perfbench/run.py --workload all`` of that
  checkout, with ``--seconds`` and the round's seed (``--seed`` + round).

Per checkout the output also records its commit, a digest of
``src/phasequant/*.py`` and the line count of each of those files and their
total.

Everything runs in child processes with BLAS and OpenMP pinned to one thread
and the checkout's ``src`` first on ``PYTHONPATH``.  Before round 0 every
checkout's ``src`` and ``perfbench`` are compiled in place (``compileall``),
so each imports its modules from bytecode even where ``PYTHONDONTWRITEBYTECODE``
is set, and ``import_harness_s``, ``cold_run_s`` and perfbench's ``setup_s`` do
not favour a tree that already held ``__pycache__`` directories.  (A
``PYTHONPYCACHEPREFIX`` per checkout would not do: numpy and the standard
library would then compile from source on every import, which makes a cold
``import numpy`` about four times slower.)  The output holds every round, the
per-checkout medians over rounds, and the machine facts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# Each layer is called for at least this long after its warm-up call: a
# handful of calls cannot resolve changes of a few tens of percent on the fast
# layers, and the probe needs samples spread over the layer's calls.
LAYER_SECONDS = 1.0
# Cold CLI runs of each experiment per round; the round records their median.
COLD_RUNS = 5
# Timed in-process runs of each experiment per round, after an untimed one; the
# round records their median (one run moves by about 10% on unchanged code).
WARM_RUNS = 5
PERFBENCH_CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
# The cylinder-axioms runner's smeared pair traces, (theta_center offset, K) in call order.
SMEARED_SERIES = [(0.0, 64), (math.pi / 2.0, 64), (math.pi, 64)] + [
    (offset, K) for K in (16, 32, 48) for offset in (0.0, math.pi / 2.0)
]


def load_perfbench_child():
    """perfbench's child module, for its ``SpeedProbe`` and sample minimum."""
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def probing(child):
    """perfbench's ``SpeedProbe`` sampling on its timer through the ``with``
    body, then topped up to the samples perfbench takes a scale from."""
    probe = child.SpeedProbe()
    probe.start()
    try:
        yield probe
    finally:
        probe.stop()
    for _ in range(child.MIN_PASS_SAMPLES - len(probe.samples)):
        probe.sample()


def layer_timings(src: Path) -> dict:
    """Run in a child: time the experiments and layers of the package under ``src``."""
    import numpy as np

    from phasequant import harness
    from phasequant.bases import FourierBasis, HermiteBasis
    from phasequant.curved import axiom_defect, dequantize_curved, wue_weyl_image
    from phasequant.cylinder import CutoffFamily, pair_trace_smeared_cyl
    from phasequant.fields import constant, from_expression, tensor_from_fields
    from phasequant.flat_weyl import a_image_flat, dequantize_flat, quantize_gaussian_flat
    from phasequant.geometry import ManifoldModel, circle, euclidean_space, sphere
    from phasequant.symbols import (
        CovariantOperator,
        MomentumPolynomial,
        OrderingScheme,
        flat_chart_delta_value,
        operator_matrix,
        ordering_scheme,
        symbol_from_config,
    )

    if src.resolve() not in Path(harness.__file__).resolve().parents:
        raise SystemExit(f"imported phasequant from {harness.__file__}, not from the checkout")

    try:  # the experiments' generator; a checkout without ``seeded`` draws the same values from numpy's
        from phasequant.seeded import Generator
    except ImportError:
        from numpy.random import default_rng as Generator

    child = load_perfbench_child()
    run_all_s, run_all_raw_s, py_calls, c_calls, peaks, passed, total = {}, {}, {}, {}, {}, 0, 0
    for entry in harness.list_experiments():
        config = harness.ExperimentConfig.from_dict(harness.default_config(entry.name))
        harness.run_experiment(config)
        raw, scaled = [], []
        for _ in range(WARM_RUNS):
            with probing(child) as probe:
                start = time.perf_counter()
                report = harness.run_experiment(config)
                end = time.perf_counter()
            raw.append(probe.own(start, end))
            scaled.append(raw[-1] * probe.scale(start))
        run_all_raw_s[entry.name] = statistics.median(raw)
        run_all_s[entry.name] = statistics.median(scaled)
        py_calls[entry.name], c_calls[entry.name] = call_counts(lambda: harness.run_experiment(config))
        peaks[entry.name] = peak_bytes(lambda: harness.run_experiment(config))
        passed += sum(record.passed for record in report.records)
        total += len(report.records)

    repeats, raw_ms = {}, {}

    def median_ms(name, call) -> float:
        """The median call time in ms scaled to the probe's reference speed;
        the raw median goes in ``raw_ms``."""
        call()
        spans = []
        with probing(child) as probe:
            begin = time.perf_counter()
            while not spans or spans[-1][1] - begin < LAYER_SECONDS:
                start = time.perf_counter()
                call()
                spans.append((start, time.perf_counter()))
        repeats[name] = len(spans)
        raw = statistics.median(probe.own(start, end) for start, end in spans)
        raw_ms[name] = 1e3 * raw
        return 1e3 * raw * probe.scale(begin)

    from phasequant import geometry

    def sphere_dequantization(degree: int, opaque: bool = False) -> complex:
        model = sphere(1.0)
        if opaque:
            exact = model
            model = ManifoldModel(
                name="sphere-opaque", dim=2, coords=model.coords, metric_fn=lambda x: geometry.metric(exact, x)
            )
        f = symbol_from_config(model, {"coefficient": "cos-theta", "degree": degree})
        return dequantize_curved(model, wue_weyl_image(model, f), np.array([0.3, -0.55]), np.array([1.1, 0.4]))

    curved_defect = harness.default_config("curved-defect")

    def defect_pscan() -> list[complex]:
        model = sphere(1.0)
        f = symbol_from_config(model, curved_defect["symbol"])
        p, q, hbar = np.array([0.3, -0.55]), np.array([1.1, 0.4]), curved_defect["hbar"]
        return [axiom_defect(model, f, t * p, q, hbar) for t in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)]

    def flat_round_trip() -> complex:
        line, standard = euclidean_space(1), ordering_scheme("standard")
        f = harness._random_flat_symbol(Generator(20260814))
        D = a_image_flat(standard, f, line, 1.0)
        return dequantize_flat(standard, D, np.array([0.3]), np.array([-0.4]), 1.0, line)

    round_trip_schemes = [
        ordering_scheme("weyl"),
        ordering_scheme("standard"),
        OrderingScheme((1.0, 0.25, -0.125, 1.0 / 48.0, 0.0), name="real-demo"),
    ]

    def stacked_round_trips():
        rng = Generator(20260814)
        for _ in range(3):  # the flat-axioms hermiticity draws come first
            rng.uniform(-1.5, 1.5, size=2)
        return harness._round_trip_residual(rng, round_trip_schemes, 20, 1.0)

    model = circle()
    cos_theta = from_expression("cos(theta)", ("theta",))
    D = wue_weyl_image(model, MomentumPolynomial(1, {2: tensor_from_fields(1, 2, lambda idx: cos_theta)}), 1.0)
    layers = {f"operator_matrix_K{K}": lambda K=K: operator_matrix(model, D, FourierBasis(), K) for K in (32, 64)}
    layers["pair_trace_smeared_cyl_K64"] = lambda: pair_trace_smeared_cyl(
        0.4, 0.9, CutoffFamily(0.8, 2.8), 64, 1.0, theta_center=0.9, p_center=0.4, theta_width=0.4, p_width=0.8
    )

    def smeared_series() -> list[complex]:
        chi = CutoffFamily(0.8, 2.8)
        return [
            pair_trace_smeared_cyl(
                0.4, 0.9, chi, K, 1.0, theta_center=0.9 + offset, p_center=0.4, theta_width=0.4, p_width=0.8
            )
            for offset, K in SMEARED_SERIES
        ]

    layers["smeared_series_cyl"] = smeared_series
    layers["quantize_gaussian_flat_K32"] = lambda: quantize_gaussian_flat(0.4, -0.3, 0.9, 0.8, K=32)
    for degree in (2, 3, 4):
        layers[f"dequantize_curved_sphere_deg{degree}"] = lambda degree=degree: sphere_dequantization(degree)
    layers["dequantize_curved_opaque_sphere_deg3"] = lambda: sphere_dequantization(3, opaque=True)
    layers["defect_pscan_sphere_7"] = defect_pscan
    layers["sqrt_g_jet_numeric_sphere"] = lambda: geometry.sqrt_g_jet(
        sphere(1.0), np.array([1.1, 0.4]), 2, method="numeric"
    )
    layers["dequantize_flat_cubic"] = flat_round_trip
    layers["round_trip_residual_20"] = stacked_round_trips
    layers["flat_chart_delta_value_20"] = polar_chart_deltas(harness, flat_chart_delta_value, Generator)
    from phasequant import bases, cylinder

    for nodes in (256, 512, 1024):
        layers[f"legendre_rule_{nodes}"] = lambda nodes=nodes: (
            bases.gauss_legendre.cache_clear(),
            bases.gauss_legendre(nodes),
        )
    layers["gauss_hermite_256"] = lambda: (bases.gauss_hermite.cache_clear(), bases.gauss_hermite(256))
    cached_rules = [rule for rule in vars(bases).values() if hasattr(rule, "cache_clear")]
    names = [name.split("_") for name in bases._rule_table()]  # ``<family>_<n>``, on every checkout
    default_rules = [(getattr(bases, f"gauss_{family}"), int(n)) for family, n in names]

    def cold_default_rules():
        for rule in cached_rules:
            rule.cache_clear()
        return [rule(n) for rule, n in default_rules]

    layers["flat_rules_cold"] = cold_default_rules

    def cold_cutoff_transform():
        for rule in cached_rules:
            rule.cache_clear()
        return CutoffFamily(0.8, 2.8).transform(np.arange(-128, 129) - 0.8)

    layers["cutoff_transform_K64_cold"] = cold_cutoff_transform
    x2 = from_expression("0.5*x**2", ("x",))
    oscillator = CovariantOperator(
        1, {0: tensor_from_fields(1, 0, lambda idx: x2), 2: tensor_from_fields(1, 2, lambda idx: constant(1, -0.5))}
    )
    layers["operator_matrix_hermite_K16"] = lambda: operator_matrix(euclidean_space(1), oscillator, HermiteBasis(), 16)
    bump = cylinder.periodic_test_function(0.9, 0.4)
    layers["fourier_coefficients_K64"] = lambda: bases.fourier_coefficients(bump(bases.angle_grid(512)), 128)
    layers_ms = {name: median_ms(name, call) for name, call in layers.items()}
    layer_calls = {name: call_counts(call) for name, call in layers.items()}
    layer_peaks = {name: peak_bytes(call) for name, call in layers.items()}
    return {
        "default_configs": {entry.name: harness.default_config(entry.name) for entry in harness.list_experiments()},
        "run_all_s": run_all_s,
        "run_all_raw_s": run_all_raw_s,
        "run_all_total_s": sum(run_all_s.values()),
        "run_all_py_calls": py_calls,
        "run_all_c_calls": c_calls,
        "run_all_peak_bytes": peaks,
        "checks_passed": f"{passed}/{total}",
        "layers_ms": layers_ms,
        "layers_raw_ms": raw_ms,
        "layers_py_calls": {name: counts[0] for name, counts in layer_calls.items()},
        "layers_c_calls": {name: counts[1] for name, counts in layer_calls.items()},
        "layers_peak_bytes": layer_peaks,
        "layer_repeats": repeats,
        "numpy": np.__version__,
    }


def call_counts(run) -> tuple[int, int]:
    """The Python and the C calls that ``run()`` makes, from ``sys.setprofile`` events."""
    counts = {"call": 0, "c_call": 0}

    def hook(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


def peak_bytes(run) -> int:
    """The ``tracemalloc`` peak of the memory that ``run()`` allocates, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def polar_chart_deltas(harness, flat_chart_delta_value, Generator):
    """The 20 chart-conjugated generator values of the point-transform
    experiment, as a call that recomputes them."""
    import numpy as np

    def to_cartesian(q):  # one polar point, or an (N, 2) array of them
        return np.stack([q[..., 0] * np.cos(q[..., 1]), q[..., 0] * np.sin(q[..., 1])], axis=-1)

    def from_cartesian(xy):  # the scalar C functions at each point, as the harness takes them
        rows = np.reshape(xy, (-1, 2)).tolist()
        polar = [[math.hypot(x, y), math.atan2(y, x)] for x, y in rows]
        return np.reshape(np.array(polar), np.shape(xy))

    rng = Generator(27182)  # the experiment's generator, past its cartesian-reduction draws
    rng.uniform(-1.0, 1.0, size=20)
    f = harness._random_chart_symbol(rng, ("r", "phi"))
    points = []
    for _ in range(20):
        q = np.array([rng.uniform(0.6, 1.8), rng.uniform(-2.5, 2.5)])
        points.append((rng.uniform(-1.2, 1.2, size=2), q))
    return lambda: [flat_chart_delta_value(f, to_cartesian, from_cartesian, p, q, 1.0) for p, q in points]


def child_env(root: Path) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return env


def last_json_line(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"{what} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cold_run_s(root: Path, configs: dict) -> dict:
    """Per experiment, the median wall time of :data:`COLD_RUNS` runs of
    ``python -m phasequant run`` on its config, each in a fresh process."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in configs.items():
            path = Path(tmp) / f"{name}-config.json"  # the reports go to tmp/reports
            path.write_text(json.dumps(config))
            command = [sys.executable, "-m", "phasequant", "run", "--config", str(path), "--out", f"{tmp}/reports"]
            times = []
            for _ in range(COLD_RUNS):
                start = time.perf_counter()
                proc = subprocess.run(command, cwd=tmp, env=child_env(root), capture_output=True, text=True)
                times.append(time.perf_counter() - start)
                if proc.returncode not in (0, 1):  # 1: a check failed, the run is still timed
                    raise SystemExit(f"cold run of {name} in {root.name} exited {proc.returncode}: {proc.stderr[-2000:]}")
            out[name] = statistics.median(times)
    return out


def import_harness_s(root: Path) -> float:
    """The median time of :data:`COLD_RUNS` fresh processes to import
    ``phasequant.harness`` after ``import numpy``."""
    code = "import time, numpy; t = time.perf_counter(); import phasequant.harness; print(time.perf_counter() - t)"
    times = []
    for _ in range(COLD_RUNS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=child_env(root), capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"harness import in {root.name} exited {proc.returncode}: {proc.stderr[-2000:]}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def measure(root: Path, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(root / "src")],
        env=child_env(root),
        capture_output=True,
        text=True,
    )
    result = last_json_line(proc, f"layer child of {root.name}")
    result["cold_run_s"] = cold_run_s(root, result.pop("default_configs"))
    result["import_harness_s"] = import_harness_s(root)
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", "all"]
        + ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root,
        capture_output=True,
        text=True,
    )
    bench = last_json_line(proc, f"perfbench of {root.name}")
    result["perfbench_correct"] = bench["correct"]
    result["perfbench"] = {name: metric["value"] for name, metric in bench["metrics"].items()}
    result["seed"] = seed
    return result


def medians(runs: list[dict]) -> dict:
    """Median over runs of every numeric leaf of the run records."""
    out = {}
    for key, first in runs[0].items():
        if isinstance(first, dict):
            out[key] = medians([run[key] for run in runs])
        elif isinstance(first, (int, float)) and not isinstance(first, bool) and key != "seed":
            out[key] = statistics.median(run[key] for run in runs)
    return out


def source_facts(root: Path) -> dict:
    """The checkout's commit, a digest of its package source and the line count of each module."""
    digest = hashlib.sha256()
    lines = {}
    for path in sorted((root / "src" / "phasequant").glob("*.py")):
        source = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + source)
        lines[path.name] = source.count(b"\n")
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    status = subprocess.run(["git", "status", "--porcelain", "src"], cwd=root, capture_output=True, text=True)
    return {
        "commit": commit.stdout.strip() if commit.returncode == 0 else None,
        "src_uncommitted_changes": bool(status.stdout.strip()) if status.returncode == 0 else None,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": {**lines, "total": sum(lines.values())},
    }


def machine_facts() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    facts = {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), "system": platform.system()}
    for package in ("numpy", "scipy"):
        try:
            facts[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            facts[package] = None
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append", default=[], metavar="LABEL=PATH", help="a checkout to measure")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=10, help="perfbench --seconds per workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        print(json.dumps(layer_timings(args.child)))
        return 0
    if not args.checkout or args.out is None:
        parser.error("give at least one --checkout and --out")
    checkouts = {}
    for spec in args.checkout:
        label, _, path = spec.partition("=")
        checkouts[label] = Path(path).resolve()

    for root in checkouts.values():
        compile_command = [sys.executable, "-m", "compileall", "-q", str(root / "src"), str(root / "perfbench")]
        subprocess.run(compile_command, capture_output=True, check=True)
    runs: dict[str, list[dict]] = {label: [] for label in checkouts}
    for round_index in range(args.rounds):
        order = list(checkouts) if round_index % 2 == 0 else list(reversed(checkouts))
        for label in order:
            result = measure(checkouts[label], args.seed + round_index, args.seconds)
            runs[label].append(result)
            print(f"round {round_index} {label}: run_all {result['run_all_total_s']:.2f} s, "
                  f"cold {json.dumps(result['cold_run_s'])}, layers {json.dumps(result['layers_ms'])}", flush=True)

    report = {
        "command": "python3 scripts/bench.py " + " ".join(
            [f"--checkout {label}=<checkout>" for label in checkouts]
            + [f"--rounds {args.rounds}", f"--seconds {args.seconds}", f"--seed {args.seed}"]
        ),
        "machine": machine_facts(),
        "checkouts": {
            label: {**source_facts(root), "median": medians(runs[label]), "runs": runs[label]}
            for label, root in checkouts.items()
        },
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps({label: entry["median"] for label, entry in report["checkouts"].items()}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
