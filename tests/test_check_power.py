"""Power tests: each check passes on the code as it is and fails under a
small, named perturbation of the code it checks.

``POWER``, ``VACUOUS`` and ``BACKLOG`` at the end of this module register
every check of ``harness.CHECK_NAMES``, keyed by ``(experiment, check)``: its
power test, the reason it cannot fail, or its place on the list of checks
still without a power test."""

import math

import numpy as np

from phasequant import bases, curved, cylinder, flat_weyl, geometry, harness
from phasequant.fields import scale
from phasequant.symbols import CovariantOperator, MomentumPolynomial


def record(report, name):
    return {r.name: r for r in report.records}[name]


def rerun(experiment):
    return harness.run_experiment(harness.ExperimentConfig.from_dict({"experiment": experiment}))


def scale_recovered_symbol(monkeypatch, factor):
    # below INVERSION_TOLERANCE, so the re-quantized operator still matches
    # and the round trip returns a wrong value instead of raising
    assert factor - 1.0 < flat_weyl.INVERSION_TOLERANCE
    weyl_symbol = flat_weyl._weyl_symbol

    def scaled(*args):
        g = weyl_symbol(*args)
        return MomentumPolynomial(g.dim, {k: scale(t, factor) for k, t in g.terms.items()})

    monkeypatch.setattr(flat_weyl, "_weyl_symbol", scaled)


def test_entry_oracle_fails_when_the_transform_is_perturbed(monkeypatch, reports):
    assert record(reports["cylinder-axioms"], "entry-oracle").passed
    integral = cylinder._cosine_integral
    monkeypatch.setattr(cylinder, "_cosine_integral", lambda *args: integral(*args) * (1.0 + 1e-9))
    assert not record(rerun("cylinder-axioms"), "entry-oracle").passed


def test_round_trip_residual_fails_when_the_recovered_symbol_is_scaled(monkeypatch, reports):
    assert record(reports["flat-axioms"], "round-trip-residual").passed
    scale_recovered_symbol(monkeypatch, 1.0 + 1e-10)
    assert not record(rerun("flat-axioms"), "round-trip-residual").passed


def test_configured_ordering_roundtrip_fails_when_the_recovered_symbol_is_scaled(monkeypatch, reports):
    assert record(reports["orderings"], "configured-ordering-roundtrip").passed
    scale_recovered_symbol(monkeypatch, 1.0 + 1e-10)
    assert not record(rerun("orderings"), "configured-ordering-roundtrip").passed


def test_standard_preset_image_fails_when_the_top_order_term_is_scaled(monkeypatch, reports):
    # the circle's standard image scales too, and a real multiple keeps its matrix's hermiticity
    assert record(reports["orderings"], "standard-preset-image").passed
    image = curved.wue_standard_image

    def scaled(*args):
        D = image(*args)
        return CovariantOperator(
            D.dim, {k: scale(t, 1.0 + 1e-9) if k == D.max_order else t for k, t in D.terms.items()}
        )

    monkeypatch.setattr(curved, "wue_standard_image", scaled)
    report = rerun("orderings")
    assert not record(report, "standard-preset-image").passed
    assert all(r.passed for r in report.records if r.name != "standard-preset-image")


def test_kinetic_image_residual_fails_when_the_curvature_shift_is_scaled(monkeypatch, reports):
    # the Ricci contraction is the R/12 term of the kinetic symbol alone
    assert record(reports["curved-defect"], "kinetic-image-residual").passed
    contraction = geometry.ricci_contraction
    monkeypatch.setattr(geometry, "ricci_contraction", lambda *args: scale(contraction(*args), 1.0 + 1e-6))
    assert not record(rerun("curved-defect"), "kinetic-image-residual").passed


def test_ricci_convention_fails_when_ricci_is_scaled(monkeypatch, reports):
    # Ric = g on the unit sphere; a 1e-5 relative change reads 1e-5 against 1e-6
    assert record(reports["curved-defect"], "ricci-convention").passed
    ricci = geometry.ricci
    monkeypatch.setattr(geometry, "ricci", lambda *args: ricci(*args) * (1.0 + 1e-5))
    report = rerun("curved-defect")
    assert not record(report, "ricci-convention").passed
    assert all(r.passed for r in report.records if r.name != "ricci-convention")


def test_density_jet_ricci_fails_when_the_frame_ricci_is_scaled(monkeypatch, reports):
    # the numeric sqrt(g) jet against -Ric/3 in the frame reads 3.3e-5 against 1e-5
    assert record(reports["curved-defect"], "density-jet-ricci").passed
    ricci_in_frame = geometry.ricci_in_frame
    monkeypatch.setattr(geometry, "ricci_in_frame", lambda *args: ricci_in_frame(*args) * (1.0 + 1e-4))
    report = rerun("curved-defect")
    assert not record(report, "density-jet-ricci").passed
    assert all(r.passed for r in report.records if r.name != "density-jet-ricci")


def test_ricci_coefficient_fails_when_the_second_density_jet_is_scaled(monkeypatch, reports):
    # the image's scalar term is -hbar^2 R/12 through the k = 2 density jet, so
    # the coefficient reads 0.0833417 against 1/12 with a tolerance of 1e-6
    assert record(reports["curved-defect"], "ricci-coefficient").passed
    density_jet_fields = geometry.density_jet_fields

    def scaled(model, k, power):
        node = density_jet_fields(model, k, power)
        return scale(node, 1.0 + 1e-4) if k == 2 else node

    monkeypatch.setattr(geometry, "density_jet_fields", scaled)
    assert not record(rerun("curved-defect"), "ricci-coefficient").passed


def shift_dequantized_values(monkeypatch, where):
    # adds 1e-3 hbar^2 to the curved dequantization at the points q that ``where`` selects,
    # so the defect there drops by as much
    dequantize = curved.dequantize_curved

    def shifted(model, D, p, q, hbar=1.0, measure_variant="paper"):
        value = dequantize(model, D, p, q, hbar, measure_variant)
        return value + 1e-3 * hbar * hbar if where(q) else value

    monkeypatch.setattr(curved, "dequantize_curved", shifted)


def test_defect_value_fails_when_every_dequantized_value_is_shifted(monkeypatch, reports):
    assert record(reports["curved-defect"], "defect-value").passed
    shift_dequantized_values(monkeypatch, lambda q: True)
    assert not record(rerun("curved-defect"), "defect-value").passed


def test_defect_curvature_coefficient_fails_when_the_second_probe_is_shifted(monkeypatch, reports):
    # both probes weigh hbar^2 R = 2 on the unit sphere, so the fit's c moves by
    # 2 delta / (2^2 + 2^2) = delta / 4 = 2.5e-4, against a bound of 1e-4 / 3;
    # the checks read at the first probe alone hold
    assert record(reports["curved-defect"], "defect-curvature-coefficient").passed
    second_probe = np.array([1.9, -0.9])
    shift_dequantized_values(monkeypatch, lambda q: np.array_equal(q, second_probe))
    report = rerun("curved-defect")
    assert record(report, "defect-value").passed and record(report, "defect-p-independence").passed
    assert not record(report, "defect-curvature-coefficient").passed


def scale_discrete_transform(monkeypatch, factor):
    transform = cylinder._discrete_transform
    monkeypatch.setattr(cylinder, "_discrete_transform", lambda *args: transform(*args) * factor)


def scale_covariant_divergence(monkeypatch, factor):
    divergence = geometry.covariant_divergence
    monkeypatch.setattr(geometry, "covariant_divergence", lambda *args: scale(divergence(*args), factor))


def test_indicator_matches_discrete_fails_when_the_discrete_transform_is_scaled(monkeypatch, reports):
    assert record(reports["discrete-limit"], "indicator-matches-discrete").passed
    scale_discrete_transform(monkeypatch, 1.0 + 1e-9)
    assert not record(rerun("discrete-limit"), "indicator-matches-discrete").passed


def test_discrete_first_band_fails_when_the_discrete_transform_is_scaled(monkeypatch, reports):
    assert record(reports["discrete-limit"], "discrete-first-band").passed
    scale_discrete_transform(monkeypatch, 1.0 + 1e-9)
    assert not record(rerun("discrete-limit"), "discrete-first-band").passed


def test_radial_momentum_shift_fails_when_the_divergence_is_scaled(monkeypatch, reports):
    assert record(reports["point-transform"], "radial-momentum-shift").passed
    scale_covariant_divergence(monkeypatch, 1.0 + 1e-6)
    assert not record(rerun("point-transform"), "radial-momentum-shift").passed


def test_cartesian_reduction_fails_when_the_divergence_is_scaled(monkeypatch, reports):
    assert record(reports["point-transform"], "cartesian-reduction").passed
    scale_covariant_divergence(monkeypatch, 1.0 + 1e-6)
    assert not record(rerun("point-transform"), "cartesian-reduction").passed


def perturb_fourier_galerkin(monkeypatch, perturbation):
    galerkin = bases.FourierBasis.galerkin
    monkeypatch.setattr(bases.FourierBasis, "galerkin", lambda *args: perturbation(galerkin(*args)))


def test_kernel_trace_fails_when_the_fourier_matrix_is_scaled(monkeypatch, reports):
    # the constant symbol's matrix is the identity, so a uniform scale moves the trace
    assert record(reports["cylinder-axioms"], "kernel-trace").passed
    perturb_fourier_galerkin(monkeypatch, lambda M: M * (1.0 + 1e-7))
    assert not record(rerun("cylinder-axioms"), "kernel-trace").passed


def test_polynomial_reproduction_fails_when_the_fourier_matrix_is_scaled(monkeypatch, reports):
    assert record(reports["cylinder-axioms"], "polynomial-reproduction").passed
    perturb_fourier_galerkin(monkeypatch, lambda M: M * (1.0 + 1e-6))
    assert not record(rerun("cylinder-axioms"), "polynomial-reproduction").passed


def flatten_the_smearing_bump(monkeypatch):
    # a flat test function has no angular localization: only its zeroth Fourier
    # coefficient survives, so every theta_center gives the same smeared trace
    monkeypatch.setattr(cylinder, "periodic_test_function", lambda center, width: np.ones_like)


def test_smeared_quarter_ratio_fails_when_the_smearing_bump_is_flat(monkeypatch, reports):
    # the quarter-turn trace then equals the coincident one: a ratio of 1 against 0.05
    assert record(reports["cylinder-axioms"], "smeared-quarter-ratio").passed
    flatten_the_smearing_bump(monkeypatch)
    check = record(rerun("cylinder-axioms"), "smeared-quarter-ratio")
    assert check.measured == 1.0 and not check.passed


def test_antipodal_vs_quarter_fails_when_the_smearing_bump_is_flat(monkeypatch, reports):
    # the antipodal trace then equals the quarter-turn one: a ratio of 1 against a floor of 2
    assert record(reports["cylinder-axioms"], "antipodal-vs-quarter").passed
    flatten_the_smearing_bump(monkeypatch)
    check = record(rerun("cylinder-axioms"), "antipodal-vs-quarter")
    assert check.measured == 1.0 and not check.passed


def test_circle_weyl_hermiticity_fails_when_the_fourier_matrix_is_skewed(monkeypatch, reports):
    # the strict upper triangle scaled alone leaves the matrix non-hermitian
    assert record(reports["orderings"], "circle-weyl-hermiticity").passed
    perturb_fourier_galerkin(monkeypatch, lambda M: M + np.triu(M, 1) * 1e-10)
    assert not record(rerun("orderings"), "circle-weyl-hermiticity").passed


# A running ``max(worst, value)`` keeps ``worst`` when ``value`` is NaN, so a
# check that took its worst value that way would read 0.0 and pass on NaN.


def test_round_trip_residual_fails_on_a_nan_recovered_value(monkeypatch):
    def nan_values(A, D, p, x, hbar, model):
        return np.full(np.shape(x)[:-1], complex(math.nan, math.nan))

    monkeypatch.setattr(flat_weyl, "dequantize_flat", nan_values)
    check = record(rerun("flat-axioms"), "round-trip-residual")
    assert math.isnan(check.measured) and not check.passed


def test_polar_cartesian_agreement_fails_on_nan_chart_values(monkeypatch):
    def nan_values(f, to_cartesian, from_cartesian, p, q, hbar):
        return np.full(np.shape(q)[:-1], complex(math.nan, math.nan))

    monkeypatch.setattr(harness, "flat_chart_delta_value", nan_values)
    check = record(rerun("point-transform"), "polar-cartesian-agreement")
    assert math.isnan(check.measured) and not check.passed


# The same holds for a ladder's least step and a scan's spread taken with
# Python's ``min`` and ``max``, which skip a NaN that does not come first.


def test_trace_ladder_monotone_fails_on_a_nan_rung(monkeypatch, reports):
    assert record(reports["flat-axioms"], "trace-ladder-monotone").passed
    monkeypatch.setattr(flat_weyl, "trace_ladder", lambda *args: [0.4, 0.3, math.nan, 0.1])
    check = record(rerun("flat-axioms"), "trace-ladder-monotone")
    assert math.isnan(check.measured) and not check.passed


def test_mollifier_ladder_fails_on_a_nan_rung(monkeypatch, reports):
    assert record(reports["discrete-limit"], "mollifier-ladder").passed
    limit_check = cylinder.discrete_limit_check

    def nan_rung(*args):
        errors = limit_check(*args).copy()
        errors[2] = math.nan
        return errors

    monkeypatch.setattr(cylinder, "discrete_limit_check", nan_rung)
    check = record(rerun("discrete-limit"), "mollifier-ladder")
    assert math.isnan(check.measured) and not check.passed


def test_defect_p_independence_fails_on_a_nan_scale(monkeypatch, reports):
    # the p-scan's second scale, 0.5 times the runner's sphere momentum
    assert record(reports["curved-defect"], "defect-p-independence").passed
    axiom_defect, nan_momentum = curved.axiom_defect, 0.5 * np.array([0.3, -0.55])

    def nan_at_one_scale(model, f, p, *args, **kwargs):
        if np.array_equal(p, nan_momentum):
            return complex(math.nan, math.nan)
        return axiom_defect(model, f, p, *args, **kwargs)

    monkeypatch.setattr(curved, "axiom_defect", nan_at_one_scale)
    check = record(rerun("curved-defect"), "defect-p-independence")
    assert math.isnan(check.measured) and not check.passed


# ---------------------------------------------------------------------------
# the registry

POWER = {
    ("flat-axioms", "trace-ladder-monotone"): test_trace_ladder_monotone_fails_on_a_nan_rung,
    ("flat-axioms", "round-trip-residual"): test_round_trip_residual_fails_when_the_recovered_symbol_is_scaled,
    ("orderings", "configured-ordering-roundtrip"): (
        test_configured_ordering_roundtrip_fails_when_the_recovered_symbol_is_scaled
    ),
    ("orderings", "standard-preset-image"): test_standard_preset_image_fails_when_the_top_order_term_is_scaled,
    ("orderings", "circle-weyl-hermiticity"): test_circle_weyl_hermiticity_fails_when_the_fourier_matrix_is_skewed,
    ("curved-defect", "kinetic-image-residual"): test_kinetic_image_residual_fails_when_the_curvature_shift_is_scaled,
    ("curved-defect", "defect-value"): test_defect_value_fails_when_every_dequantized_value_is_shifted,
    ("curved-defect", "defect-p-independence"): test_defect_p_independence_fails_on_a_nan_scale,
    ("curved-defect", "defect-curvature-coefficient"): (
        test_defect_curvature_coefficient_fails_when_the_second_probe_is_shifted
    ),
    ("curved-defect", "ricci-coefficient"): test_ricci_coefficient_fails_when_the_second_density_jet_is_scaled,
    ("curved-defect", "ricci-convention"): test_ricci_convention_fails_when_ricci_is_scaled,
    ("curved-defect", "density-jet-ricci"): test_density_jet_ricci_fails_when_the_frame_ricci_is_scaled,
    ("point-transform", "cartesian-reduction"): test_cartesian_reduction_fails_when_the_divergence_is_scaled,
    ("point-transform", "polar-cartesian-agreement"): test_polar_cartesian_agreement_fails_on_nan_chart_values,
    ("point-transform", "radial-momentum-shift"): test_radial_momentum_shift_fails_when_the_divergence_is_scaled,
    ("cylinder-axioms", "kernel-trace"): test_kernel_trace_fails_when_the_fourier_matrix_is_scaled,
    ("cylinder-axioms", "entry-oracle"): test_entry_oracle_fails_when_the_transform_is_perturbed,
    ("cylinder-axioms", "smeared-quarter-ratio"): test_smeared_quarter_ratio_fails_when_the_smearing_bump_is_flat,
    ("cylinder-axioms", "antipodal-vs-quarter"): test_antipodal_vs_quarter_fails_when_the_smearing_bump_is_flat,
    ("cylinder-axioms", "polynomial-reproduction"): (
        test_polynomial_reproduction_fails_when_the_fourier_matrix_is_scaled
    ),
    ("discrete-limit", "mollifier-ladder"): test_mollifier_ladder_fails_on_a_nan_rung,
    ("discrete-limit", "indicator-matches-discrete"): (
        test_indicator_matches_discrete_fails_when_the_discrete_transform_is_scaled
    ),
    ("discrete-limit", "discrete-first-band"): test_discrete_first_band_fails_when_the_discrete_transform_is_scaled,
}

VACUOUS = {
    ("orderings", "weyl-preset-identity"): (
        "the Weyl transform returns the symbol's own term tensors, so flat_weyl.a_image_flat under the Weyl "
        "preset is curved.wue_weyl_image of the same tensors the check compares it with"
    ),
    ("point-transform", "divergence-identity"): (
        "symbols.delta_apply builds its degree-0 term from geometry.covariant_divergence, the function the "
        "reference calls; scaling it leaves the check at 0 while the other point-transform checks fail"
    ),
    ("cylinder-axioms", "cutoff-independence"): (
        "cylinder.polynomial_reproduction_check takes chi but never reads it, so the two residuals the "
        "check subtracts are one computation"
    ),
}

BACKLOG = [
    ("flat-axioms", "ground-state-peak"),
    ("flat-axioms", "ground-state-gaussian"),
    ("flat-axioms", "kernel-hermiticity"),
    ("flat-axioms", "kernel-trace"),
    ("flat-axioms", "weak-form-pairing"),
    ("orderings", "real-ordering-hermiticity"),
    ("orderings", "standard-defect-positive"),
    ("orderings", "standard-defect-value"),
    ("curved-defect", "radius-scaling"),
    ("curved-defect", "flat-defect-euclidean"),
    ("curved-defect", "flat-defect-polar"),
    ("curved-defect", "emmrich-defect"),
    ("curved-defect", "pullback-vs-covariant"),
    ("cylinder-axioms", "raw-kernel-trace"),
    ("cylinder-axioms", "kernel-hermiticity"),
    ("cylinder-axioms", "delta-model-mismatch"),
    ("discrete-limit", "discrete-diagonal"),
    ("discrete-limit", "discrete-trace"),
    ("discrete-orthogonality", "diagonal-smeared-trace"),
    ("discrete-orthogonality", "offdiagonal-suppression"),
    ("discrete-orthogonality", "flat-test-function"),
    ("discrete-orthogonality", "unsmeared-growth"),
    ("discrete-orthogonality", "momentum-diagonality"),
    ("discrete-orthogonality", "momentum-spectrum"),
]


def test_every_check_has_a_power_test_a_vacuity_reason_or_a_backlog_entry():
    checks = {(experiment, name) for experiment, names in harness.CHECK_NAMES.items() for name in names}
    power, vacuous, backlog = set(POWER), set(VACUOUS), set(BACKLOG)
    assert len(backlog) == len(BACKLOG)
    assert not (power & vacuous or power & backlog or vacuous & backlog)
    assert power | vacuous | backlog == checks
