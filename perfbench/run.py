#!/usr/bin/env python3
"""phasequant benchmark: cold-process wall time, set-up, memory and accuracy headroom.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each pass runs in a fresh interpreter (``child.py``), one at a time, with BLAS
and OpenMP pinned to one thread.  Passes repeat until the next one would end
after ``--seconds``; at least one always runs.  ``wall_s`` and ``setup_s``
are medians over the run of times scaled to a fixed CPU speed.  With ``--trace 0`` the last
line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` a further pass runs under the tracer and the metrics are the
per-layer figures.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "tol_use_max": "ratio",
}
# Every run must end within 180 s; children are killed past this point.
RUN_LIMIT_S = 170.0
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(Exception):
    pass


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "cpu": cpu_model(),
        "python": platform.python_version(),
    }
    for package in ("numpy", "scipy"):
        try:
            facts[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            facts[package] = None
    facts["commit"] = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            facts["commit"] = commit.stdout.strip() if commit.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "phasequant").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    facts["src_sha256"] = digest.hexdigest()[:16]
    return facts


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child of {workload} timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child of {workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise ChildFailed(f"{mode} child of {workload} printed no result") from exc


def quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "min": min(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    errors: list[str] = []
    passes: list[dict] = []
    setups: list[float] = []
    raw_setups: list[float] = []
    attempted = failed = 0

    def attempt(mode: str) -> dict | None:
        nonlocal attempted, failed
        try:
            result = run_child(workload, seed, mode, deadline)
        except ChildFailed as exc:
            errors.append(str(exc))
            attempted += 1
            failed += 1
            return None
        if mode != "setup":
            attempted += result["attempted"]
            failed += result["failed"]
            errors.extend(result["errors"])
        return result

    # Unmeasured: compiles bytecode and warms the file cache once per run.
    attempt("setup")
    window = time.monotonic()
    durations: list[float] = []
    while True:
        t = time.monotonic()
        result = attempt("pass")
        durations.append(time.monotonic() - t)
        if result is None:
            break
        passes.append(result)
        setups.append(result["setup_s"])
        raw_setups.append(result["setup_raw_s"])
        if time.monotonic() - window + statistics.median(durations) > seconds:
            break

    walls = [p["wall_s"] for p in passes]
    raw_walls = [p["wall_raw_s"] for p in passes]
    digests = {p["digest"] for p in passes}
    layers = None
    if trace and passes:
        traced = attempt("trace")
        if traced is not None:
            layers = dict(traced["layers"])
            layers["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
            if traced["digest"] != passes[0]["digest"]:
                errors.append("the traced pass gave a different report from the untraced pass")
            if not traced["restored"]:
                errors.append("the tracer left a wrapped function in place")
    if len(digests) > 1:
        errors.append(f"passes gave {len(digests)} different reports")

    correct = bool(passes) and failed == 0 and not errors
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "wall_s": quartiles(walls) if passes else None,
        "wall_s_samples": walls,
        "wall_raw_s": quartiles(raw_walls) if passes else None,
        "wall_raw_s_samples": raw_walls,
        "probes_per_pass": [p["probes"] for p in passes],
        "setup_s_samples": setups,
        "setup_raw_s_samples": raw_setups,
        "setup_s": quartiles(setups) if setups else None,
        "peak_rss_mb": quartiles([p["peak_rss_mb"] for p in passes]) if passes else None,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "tol_use_max": max((p["tol_use_max"] for p in passes), default=math.inf),
        "layers": layers,
        "run_s": time.monotonic() - started,
    }


def metrics_of(summary: dict, trace: bool) -> dict:
    if trace:
        layers = summary["layers"] or {}
        return {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}
    values = {
        "wall_s": summary["wall_s"]["median"] if summary["wall_s"] else 0.0,
        "setup_s": summary["setup_s"]["median"] if summary["setup_s"] else 0.0,
        "peak_rss_mb": summary["peak_rss_mb"]["median"] if summary["peak_rss_mb"] else 0.0,
        "pass_ratio": 1.0 - summary["fail_ratio"],
        "tol_use_max": summary["tol_use_max"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def make_finite(metrics: dict) -> bool:
    """Replace non-finite values by -1 so the output stays JSON; False if any was."""
    ok = True
    for metric in metrics.values():
        if not math.isfinite(metric["value"]):
            metric["value"] = -1.0
            ok = False
    return ok


def print_table(summary: dict, metrics: dict) -> None:
    print(f"== {summary['workload']} (seed {summary['seed']}, {summary['run_s']:.1f} s)")
    for name, metric in metrics.items():
        line = f"  {name:34s} {metric['value']:.6g} {metric['unit']}"
        detail = summary.get(name)
        if isinstance(detail, dict):
            line += (
                f"  (min {detail['min']:.6g}, median {detail['median']:.6g}, q1 {detail['q1']:.6g},"
                f" q3 {detail['q3']:.6g}, n={detail['n']})"
            )
        print(line)
    if not summary["trace"]:
        print(f"  {'fail_ratio':34s} {summary['fail_ratio']:.6g} ratio")
    for error in summary["errors"]:
        print(f"  error: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phasequant" / "__init__.py").is_file():
        print(f"error: no phasequant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    facts = machine_facts()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    results = {}
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        summary["facts"] = facts
        metrics = metrics_of(summary, bool(args.trace))
        summary["correct"] = make_finite(metrics) and summary["correct"]
        summary["metrics"] = metrics
        (out_dir / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(summary, indent=1, sort_keys=True) + "\n"
        )
        print_table(summary, metrics)
        print("facts " + json.dumps(facts, sort_keys=True))
        results[name] = summary

    final = {
        "correct": all(s["correct"] for s in results.values()),
        "attempted": sum(s["attempted"] for s in results.values()),
        "failed": sum(s["failed"] for s in results.values()),
    }
    if args.workload == "all":
        final["metrics"] = {f"{n}/{k}": v for n, s in results.items() for k, v in s["metrics"].items()}
    else:
        final["metrics"] = results[args.workload]["metrics"]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
