#!/usr/bin/env python3
"""Measure checkouts side by side: experiment wall times, shared layers, perfbench.

    python3 scripts/bench.py --checkout parent=PATH --checkout change=PATH \\
        [--rounds 3] [--seconds 10] [--seed 0] --out BENCH_<n>.json

Each round measures every checkout once, in alternating order.  For one
checkout a round records:

- the time to import ``phasequant.harness`` in a fresh process, and then
  ``scipy.integrate`` (which the older harness imported at module level);
- the wall time of each cataloged experiment at its default config, one
  in-process run each in catalog order (as ``scripts/run_all.py`` runs them,
  but with scipy already loaded), and how many checks passed;
- the median of five timed calls of ``symbols.operator_matrix`` (circle,
  Weyl image of cos(theta) p^2, Fourier basis) at K = 32 and K = 64, and of
  ``cylinder.pair_trace_smeared_cyl`` at K = 64 with a fresh default cutoff;
- the end-to-end medians of ``perfbench/run.py --workload all`` of that
  checkout, with ``--seconds`` and the round's seed (``--seed`` + round).

Everything runs in child processes with BLAS and OpenMP pinned to one thread
and the checkout's ``src`` first on ``PYTHONPATH``.  The output holds every
round, the per-checkout medians over rounds, and the machine facts.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
LAYER_REPEATS = 5


def layer_timings(src: Path) -> dict:
    """Run in a child: time the experiments and layers of the package under ``src``."""
    import numpy as np

    start = time.perf_counter()
    from phasequant import harness

    import_s = time.perf_counter() - start
    # The entry-oracle's quadrature; loaded before the experiments are timed,
    # whether or not importing the harness loaded it already.
    start = time.perf_counter()
    import scipy.integrate  # noqa: F401

    scipy_import_s = time.perf_counter() - start

    from phasequant.bases import FourierBasis
    from phasequant.curved import wue_weyl_image
    from phasequant.cylinder import CutoffFamily, pair_trace_smeared_cyl
    from phasequant.fields import from_expression, tensor_from_fields
    from phasequant.geometry import circle
    from phasequant.symbols import MomentumPolynomial, operator_matrix

    if src.resolve() not in Path(harness.__file__).resolve().parents:
        raise SystemExit(f"imported phasequant from {harness.__file__}, not from the checkout")

    run_all_s, passed, total = {}, 0, 0
    for entry in harness.list_experiments():
        config = harness.ExperimentConfig.from_dict(harness.default_config(entry.name))
        start = time.perf_counter()
        report = harness.run_experiment(config)
        run_all_s[entry.name] = time.perf_counter() - start
        passed += sum(record.passed for record in report.records)
        total += len(report.records)

    def median_ms(call) -> float:
        times = []
        for _ in range(LAYER_REPEATS):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        return 1e3 * statistics.median(times)

    model = circle()
    cos_theta = from_expression("cos(theta)", ("theta",))
    D = wue_weyl_image(model, MomentumPolynomial(1, {2: tensor_from_fields(1, 2, lambda idx: cos_theta)}), 1.0)
    layers_ms = {
        f"operator_matrix_K{K}": median_ms(lambda K=K: operator_matrix(model, D, FourierBasis(), K)) for K in (32, 64)
    }
    layers_ms["pair_trace_smeared_cyl_K64"] = median_ms(
        lambda: pair_trace_smeared_cyl(
            0.4, 0.9, CutoffFamily(0.8, 2.8), 64, 1.0, theta_center=0.9, p_center=0.4, theta_width=0.4, p_width=0.8
        )
    )
    return {
        "import_harness_s": import_s,
        "then_import_scipy_integrate_s": scipy_import_s,
        "run_all_s": run_all_s,
        "run_all_total_s": sum(run_all_s.values()),
        "checks_passed": f"{passed}/{total}",
        "layers_ms": layers_ms,
        "numpy": np.__version__,
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return env


def last_json_line(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"{what} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(root: Path, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(root / "src")],
        env=child_env(root),
        capture_output=True,
        text=True,
    )
    result = last_json_line(proc, f"layer child of {root.name}")
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
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "phasequant").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    status = subprocess.run(["git", "status", "--porcelain", "src"], cwd=root, capture_output=True, text=True)
    return {
        "commit": commit.stdout.strip() if commit.returncode == 0 else None,
        "src_uncommitted_changes": bool(status.stdout.strip()) if status.returncode == 0 else None,
        "src_sha256": digest.hexdigest()[:16],
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

    runs: dict[str, list[dict]] = {label: [] for label in checkouts}
    for round_index in range(args.rounds):
        order = list(checkouts) if round_index % 2 == 0 else list(reversed(checkouts))
        for label in order:
            result = measure(checkouts[label], args.seed + round_index, args.seconds)
            runs[label].append(result)
            print(f"round {round_index} {label}: run_all {result['run_all_total_s']:.2f} s, "
                  f"layers {json.dumps(result['layers_ms'])}", flush=True)

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
