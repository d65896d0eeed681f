"""The benchmark's workloads: what one pass sets up, runs and checks.

A workload has a ``setup(seed)`` that imports the package and builds
everything the pass needs, and a ``run(state)`` that does the work and
returns a :class:`PassResult`.  Neither writes a file.

A pass is kept to about a second of work, so that a 30 s run holds about ten
cold passes or more (see ``README.md``, Noise).  ``curved-defect`` and
``cylinder-axioms`` therefore call the public API on a slice of the
experiment of the same name; ``flat-suite`` runs its five experiments whole.

``curved-defect`` draws the momentum of its p-scan from the benchmark's
``--seed``; its chart point is the experiment's.  The other two take no
random input of the benchmark's: the flat-suite experiments use their own
built-in seeds, and the cylinder slice uses the fixed parameters of the
``cylinder-axioms`` experiment.  Every check's tolerance use, and so
``tol_use_max``, is therefore the same for every seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import traceback

FLAT_SUITE = (
    "flat-axioms",
    "orderings",
    "point-transform",
    "discrete-limit",
    "discrete-orthogonality",
)

WORKLOADS = ("curved-defect", "cylinder-axioms", "flat-suite")

HBAR = 1.0
# The sphere's scalar curvature is 2, so the defect of the inverse-metric
# kinetic symbol is hbar^2 * 2 / 3 at every point and momentum (PAPER Eq 2.46).
SPHERE_DEFECT = 2.0 / 3.0 * HBAR * HBAR
# Tolerances of the curved-defect checks, as in the curved-defect experiment:
# "defect-value" (rel), "defect-p-independence" and "density-jet-ricci" (abs).
DEFECT_REL_TOLERANCE = 1e-4
P_INDEPENDENCE_TOLERANCE = 1e-6
DENSITY_JET_TOLERANCE = 1e-5
# The experiment's chart point (theta, phi), and the momentum scales of the
# p-scan, which both use it.
SPHERE_POINT = (1.1, 0.4)
P_SCALES = (1.0, 0.5)
# Tolerances of the cylinder checks, as in the cylinder-axioms experiment:
# "polynomial-reproduction" and "smeared-quarter-ratio".  The experiment
# reproduces the orders m < 5; m = 4 alone costs more than the rest of the
# slice, so the benchmark stops at m = 3.
REPRODUCTION_ORDERS = range(4)
REPRODUCTION_TOLERANCE = 1e-6
QUARTER_RATIO_TOLERANCE = 0.05
REPRODUCTION_K = 32
SMEARED_K = 64


@dataclasses.dataclass
class PassResult:
    """Outcome of one pass: checks attempted and failed, headroom, output digest."""

    attempted: int
    failed: int
    tol_use_max: float
    digest: str
    errors: list[str]


def tol_use(measured: float, reference: float, tolerance: float, mode: str) -> float | None:
    """|measured - reference| over the effective tolerance of an abs/rel check."""
    if mode == "abs":
        scale = tolerance
    elif mode == "rel":
        scale = tolerance * abs(reference)
    else:
        return None
    diff = abs(measured - reference)
    if scale > 0:
        return diff / scale
    return 0.0 if diff == 0 else math.inf


def _max_use(values) -> float:
    values = [math.inf if math.isnan(v) else v for v in values]
    return max(values, default=0.0)


class _Checks:
    """Checks of one API pass, with the digest of every measured value."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.uses: list[float] = []
        self.errors: list[str] = []
        self.digest = hashlib.sha256()

    def add(self, name: str, measured: float, reference: float, tolerance: float, mode: str) -> None:
        self.attempted += 1
        use = tol_use(measured, reference, tolerance, mode)
        self.uses.append(use)
        if not use <= 1.0:
            self.failed += 1
            self.errors.append(f"{name}: {measured!r} against {reference!r} ({mode} {tolerance:g})")
        self.digest.update(repr((name, measured)).encode())

    def crashed(self, count: int, reason: str | None = None) -> None:
        """A raising step fails the checks it would have made; the pass goes on."""
        self.attempted += count
        self.failed += count
        self.errors.append(reason or traceback.format_exc(limit=3))

    def result(self) -> PassResult:
        return PassResult(self.attempted, self.failed, _max_use(self.uses), self.digest.hexdigest(), self.errors)


# ---------------------------------------------------------------------------
# flat-suite: five harness experiments


def _setup_flat():
    from phasequant import harness

    configs = [harness.ExperimentConfig.from_dict(harness.default_config(name)) for name in FLAT_SUITE]
    return harness, configs


def _run_flat(state) -> PassResult:
    harness, configs = state
    attempted = failed = 0
    uses = []
    digest = hashlib.sha256()
    errors = []
    for config in configs:
        expected = len(harness.CHECK_NAMES[config.experiment])
        attempted += expected
        try:
            report = harness.run_experiment(config)
        except Exception:  # a raising experiment fails all its checks; the pass goes on
            failed += expected
            errors.append(f"{config.experiment}: {traceback.format_exc(limit=3)}")
            continue
        passed = sum(1 for record in report.records if record.passed)
        failed += expected - min(passed, expected)
        for record in report.records:
            use = tol_use(record.measured, record.reference, record.tolerance, record.mode)
            if use is not None:
                uses.append(use)
        text = report.to_json().replace(f'"timestamp": "{report.timestamp}"', '"timestamp": null')
        digest.update(text.encode())
    return PassResult(attempted, failed, _max_use(uses), digest.hexdigest(), errors)


# ---------------------------------------------------------------------------
# curved-defect: the defect p-scan on the unit sphere


def scan_momentum(seed: int):
    """The base momentum of a run's p-scan, drawn from ``seed``."""
    import numpy as np

    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=2)


def _setup_curved(seed: int):
    import numpy as np

    from phasequant import curved, geometry
    from phasequant.symbols import symbol_from_config

    model = geometry.manifold("sphere:1.0")
    symbol = symbol_from_config(model, {"coefficient": "inverse-metric", "degree": 2})
    return curved, geometry, model, symbol, np.array(SPHERE_POINT), scan_momentum(seed)


def _run_curved(state) -> PassResult:
    curved, geometry, model, symbol, q, p = state
    checks = _Checks()
    values = []
    for scale in P_SCALES:
        try:
            values.append(complex(curved.axiom_defect(model, symbol, scale * p, q, HBAR)).real)
        except Exception:
            checks.crashed(1)
            continue
        checks.add(f"defect-value@{scale}", values[-1], SPHERE_DEFECT, DEFECT_REL_TOLERANCE, "rel")
    if len(values) == len(P_SCALES):
        checks.add("defect-p-independence", max(values) - min(values), 0.0, P_INDEPENDENCE_TOLERANCE, "abs")
    else:
        checks.crashed(1, "defect-p-independence: a defect of the p-scan raised")
    # density-jet-ricci: the numeric jet of sqrt(g) against -Ric / 3
    try:
        jets = geometry.sqrt_g_jet(model, q, 2, method="numeric")
        residual = float(abs(jets[2] + geometry.ricci_in_frame(model, q) / 3.0).max())
    except Exception:
        checks.crashed(1)
    else:
        checks.add("density-jet-ricci", residual, 0.0, DENSITY_JET_TOLERANCE, "abs")
    return checks.result()


# ---------------------------------------------------------------------------
# cylinder-axioms: Fourier operator matrices and smeared cutoff transforms


def _setup_cylinder():
    from phasequant import cylinder, harness
    from phasequant.fields import from_expression

    cutoff = harness.default_config("cylinder-axioms")["cutoff"]
    chi = cylinder.CutoffFamily(float(cutoff["plateau"]), float(cutoff["support"]), cutoff["profile"])
    cos_theta = from_expression("cos(theta)", ("theta",))
    return cylinder, chi, cos_theta


def _run_cylinder(state) -> PassResult:
    cylinder, chi, cos_theta = state
    checks = _Checks()
    # polynomial-reproduction: one Fourier operator matrix per order m
    for m in REPRODUCTION_ORDERS:
        try:
            residual = cylinder.polynomial_reproduction_check(
                cos_theta, m, 2.0 * HBAR, 0.7, chi, REPRODUCTION_K, HBAR
            )
        except Exception:
            checks.crashed(1)
            continue
        checks.add(f"polynomial-reproduction@{m}", residual, 0.0, REPRODUCTION_TOLERANCE, "abs")
    # smeared-quarter-ratio: weighted cutoff transforms by quadrature
    theta0, p0 = 0.9, 0.4 * HBAR
    try:
        coincident, quarter = (
            cylinder.pair_trace_smeared_cyl(
                p0,
                theta0,
                chi,
                SMEARED_K,
                HBAR,
                theta_center=theta0 + offset,
                p_center=p0,
                theta_width=0.4,
                p_width=0.8 * HBAR,
            ).real
            for offset in (0.0, math.pi / 2.0)
        )
    except Exception:
        checks.crashed(1)
    else:
        checks.add("smeared-quarter-ratio", abs(quarter) / abs(coincident), 0.0, QUARTER_RATIO_TOLERANCE, "abs")
    return checks.result()


def setup(name: str, seed: int):
    """Build the state of one pass of a run."""
    if name == "curved-defect":
        return _setup_curved(seed)
    if name == "cylinder-axioms":
        return _setup_cylinder()
    if name == "flat-suite":
        return _setup_flat()
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def run(name: str, state) -> PassResult:
    runners = {"curved-defect": _run_curved, "cylinder-axioms": _run_cylinder, "flat-suite": _run_flat}
    return runners[name](state)
