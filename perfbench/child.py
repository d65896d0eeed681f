"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --mode pass|setup|trace

``setup_raw_s`` runs from ``import phasequant`` until the pass's models,
symbols and configs are built; ``wall_raw_s`` covers the pass alone.
``setup_s`` and ``wall_s`` are the same times scaled to a fixed CPU speed by
a ``SpeedProbe`` (see ``README.md``, Noise).  ``--mode setup`` stops after
set-up; ``--mode trace`` runs the pass
under the tracer, writes the spans to ``.perfbench_out/`` and adds per-layer
figures.  Started by ``run.py``, which puts the checkout's ``src`` first on
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


# The probe: small numpy products and ufuncs between Python-level steps, the
# mix the package's own code makes.  Its time follows a pass's wall time
# across the host's speed changes one to one.
PROBE_STEPS = 40
# The probe's time at the reference speed (about the fastest this 2-vCPU host
# gives).  Scaled times are the times a child would take at that speed.
REFERENCE_PROBE_S = 1.0e-4
# Probe samples taken straight after set-up, to scale it.
SETUP_SAMPLES = 100
# A pass shorter than this many timer ticks is scaled with samples taken
# straight after it as well.
MIN_PASS_SAMPLES = 20


class SpeedProbe:
    """Times a fixed probe on a timer signal, to follow the CPU's speed.

    The handler runs in the main thread between bytecodes, every ``interval``
    seconds of wall time, so its samples spread over the timed code; the time
    they take is taken out of the span they fall in.
    """

    def __init__(self, interval: float = 0.025):
        import numpy as np

        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._np = np
        self._matrix = np.linspace(0.1, 0.9, 9).reshape(3, 3)
        self._vector = np.linspace(0.0, 1.0, 50)

    def sample(self, *_) -> None:
        np, matrix, vector = self._np, self._matrix, self._vector
        t = time.perf_counter()
        total = 0.0
        for _ in range(PROBE_STEPS):
            total += float((matrix @ matrix)[0, 0])
            np.sin(vector)
        self.samples.append((t, time.perf_counter() - t))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Reference time per unit of wall time, from the samples in [start, end).

        Work done is the integral of speed over time, so the samples' speeds
        (inverse durations) are averaged.
        """
        durations = [d for t, d in self.samples if start <= t < end]
        return REFERENCE_PROBE_S * statistics.fmean(1.0 / d for d in durations)

    def own(self, start: float, end: float) -> float:
        """Wall time from ``start`` to ``end`` less the samples taken inside."""
        return end - start - sum(d for t, d in self.samples if start <= t < end)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "setup", "trace"), default="pass")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import phasequant

    location = Path(phasequant.__file__).resolve()
    if ROOT / "src" not in location.parents:
        print(f"error: imported phasequant from {location}, not from this checkout", file=sys.stderr)
        return 2
    state = workloads.setup(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    # The probe needs numpy, which set-up imports, so the speed during set-up
    # is taken from samples right after it.
    probe = SpeedProbe()
    for _ in range(SETUP_SAMPLES):
        probe.sample()
    out = {"setup_raw_s": setup_s, "setup_s": setup_s * probe.scale()}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        probe.start()
        t1 = time.perf_counter()
        result = workloads.run(args.workload, state)
        t2 = time.perf_counter()
        probe.stop()
        inside = sum(1 for t, _ in probe.samples if t1 <= t < t2)
        for _ in range(MIN_PASS_SAMPLES - inside):
            probe.sample()
        own = probe.own(t1, t2)
        out["wall_raw_s"] = own
        out["wall_s"] = own * probe.scale(t1)
        out["probes"] = inside
        out.update(dataclasses.asdict(result))
        if tracer is not None:
            out["restored"] = tracer.restore()
            out["layers"] = tracing.layer_metrics(tracer)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
            (out_dir / f"spans-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps(tracer.summary(), indent=1, sort_keys=True) + "\n"
            )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
