"""Library code raises only the package's own error types.

Each case below is one ``raise`` site in ``numdiff``, ``fields``, ``taylor``,
``geometry.covariant_divergence``, the curved pairing and its momentum, the
check of hbar at the curved, cylinder, flat Weyl, Hermite-basis and
ordering-preset entry points, the smearing widths, angles and momenta of the
cylinder, the phase-space points and Gaussian centers and widths of the flat
Weyl kernels and the harness check declaration; every one raises a
:class:`PhasequantError` that is still a ``ValueError``.
"""

import math

import numpy as np
import pytest

from phasequant import bases, curved, cylinder, fields, flat_weyl, geometry, harness, numdiff, taylor
from phasequant.errors import ConfigError, PhasequantError, ShapeError
from phasequant.symbols import CovariantOperator, ordering_scheme, symbol_from_config

ONE = np.ones(())
SPHERE = geometry.sphere(1.0)
KINETIC = symbol_from_config(SPHERE, {"coefficient": "inverse-metric", "degree": 2})
Q = np.array([1.1, 0.4])
SCALAR = taylor.constant(2, 1, ONE)
VECTOR = taylor.constant(2, 1, np.ones(2))
CHI = cylinder.CutoffFamily(0.8, 2.8)
SMEARING = dict(theta_center=0.9, p_center=0.4)
WEYL = ordering_scheme("weyl")
FLAT_OPERATOR = CovariantOperator(1, {0: fields.constant(1, 1.0)})


CASES = {
    "numdiff-jet-order": lambda: numdiff.jet(numdiff.pointwise(lambda x: x[0]), np.zeros(1), 5),
    "fields-callable-order": lambda: fields.from_callable(1, lambda q: q[0] ** 2).jet(np.zeros(1), 5),
    "fields-add-empty": lambda: fields.add(),
    "fields-component-shape": lambda: fields.stack(2, 2, np.empty((2,), dtype=object)),
    "fields-tensor-add-rank": lambda: fields.add(fields.constant(2, np.ones(2)), fields.constant(2, 1.0)),
    "taylor-coefficient-shape": lambda: taylor.Series(2, 1, np.ones(4)),
    "taylor-add-shapes": lambda: taylor.add(SCALAR, VECTOR),
    "taylor-outer-dims": lambda: taylor.outer(SCALAR, taylor.constant(3, 1, ONE)),
    "taylor-mul-base": lambda: taylor.mul(VECTOR, SCALAR),
    "taylor-trace-axes": lambda: taylor.trace(VECTOR, 0, 0),
    "taylor-derivative-order": lambda: taylor.gradient(taylor.constant(2, 0, ONE), 0),
    "taylor-pairing-weight": lambda: taylor.delta_pairing(VECTOR, SCALAR),
    "taylor-pairing-order": lambda: taylor.delta_pairing(SCALAR, taylor.constant(2, 1, np.ones((2, 2)))),
    "geometry-divergence-rank": lambda: geometry.covariant_divergence(
        geometry.euclidean_space(2), fields.constant(2, 1.0)
    ),
    "curved-momentum-shape": lambda: curved.dequantize_curved(
        SPHERE, curved.wue_weyl_image(SPHERE, KINETIC), np.ones(3), Q
    ),
    "curved-defect-momentum-shape": lambda: curved.axiom_defect(SPHERE, KINETIC, np.ones(3), Q),
    "curved-momentum-nan": lambda: curved.dequantize_curved(
        SPHERE, curved.wue_weyl_image(SPHERE, KINETIC), np.array([0.3, math.nan]), Q
    ),
    "curved-defect-momentum-inf": lambda: curved.axiom_defect(SPHERE, KINETIC, np.array([math.inf, 0.3]), Q),
    "curved-defect-momentum-minus-inf": lambda: curved.axiom_defect(SPHERE, KINETIC, [0.3, -math.inf], Q),
    "curved-hbar-zero": lambda: curved.dequantize_curved(
        SPHERE, curved.wue_weyl_image(SPHERE, KINETIC), np.ones(2), Q, hbar=0.0
    ),
    "curved-defect-hbar-zero": lambda: curved.axiom_defect(SPHERE, KINETIC, np.ones(2), Q, hbar=0.0),
    "curved-defect-hbar-nan": lambda: curved.axiom_defect(SPHERE, KINETIC, np.ones(2), Q, hbar=math.nan),
    "cylinder-matrix-hbar-zero": lambda: cylinder.quantizer_matrix_cyl(0.4, 0.9, CHI, 8, 0.0),
    "cylinder-trace-hbar-zero": lambda: cylinder.quantizer_trace_cyl(0.4, CHI, 8, 0.0),
    "cylinder-reproduction-hbar-zero": lambda: cylinder.polynomial_reproduction_check(
        fields.constant(1, 1.0), 0, 0.4, 0.9, CHI, 8, 0.0
    ),
    "cylinder-smeared-hbar-zero": lambda: cylinder.pair_trace_smeared_cyl(0.4, 0.9, CHI, 8, 0.0, **SMEARING),
    "cylinder-smeared-hbar-inf": lambda: cylinder.pair_trace_smeared_cyl(0.4, 0.9, CHI, 8, math.inf, **SMEARING),
    "curved-weyl-image-hbar-nan": lambda: curved.wue_weyl_image(SPHERE, KINETIC, hbar=math.nan),
    "curved-standard-image-hbar-zero": lambda: curved.wue_standard_image(SPHERE, KINETIC, hbar=0.0),
    "cylinder-discrete-quantize-hbar-zero": lambda: cylinder.discrete_quantize(lambda p, theta: p, 2, 3, 0.0),
    "cylinder-smeared-theta-nan": lambda: cylinder.pair_trace_smeared_cyl(0.4, math.nan, CHI, 8, 1.0, **SMEARING),
    "cylinder-matrix-theta-nan": lambda: cylinder.quantizer_matrix_cyl(0.4, math.nan, CHI, 8),
    "cylinder-reproduction-theta-nan": lambda: cylinder.polynomial_reproduction_check(
        fields.constant(1, 1.0), 0, 0.4, math.nan, CHI, 8
    ),
    "cylinder-reproduction-p-nan": lambda: cylinder.polynomial_reproduction_check(
        fields.constant(1, 1.0), 0, math.nan, 0.9, CHI, 8
    ),
    "cylinder-smeared-p-width-negative": lambda: cylinder.pair_trace_smeared_cyl(
        0.4, 0.9, CHI, 8, 1.0, p_width=-0.8, **SMEARING
    ),
    "cylinder-test-function-width-nan": lambda: cylinder.periodic_test_function(0.9, math.nan),
    "cylinder-test-function-center-nan": lambda: cylinder.periodic_test_function(math.nan, 0.5),
    "cylinder-test-function-center-inf": lambda: cylinder.periodic_test_function(math.inf, 0.5),
    "cylinder-discrete-quantizer-theta-nan": lambda: cylinder.discrete_quantizer(2, math.nan, 8),
    "cylinder-discrete-pair-trace-theta-inf": lambda: cylinder.discrete_pair_trace(2, 2, 0.7, math.inf, 8),
    "cylinder-discrete-smeared-theta-nan": lambda: cylinder.discrete_pair_trace_smeared(
        2, 2, math.nan, cylinder.periodic_test_function(0.9, 0.5), 8
    ),
    "bases-hermite-hbar-zero": lambda: bases.HermiteBasis(hbar=0.0),
    "bases-hermite-hbar-nan": lambda: bases.HermiteBasis(hbar=math.nan),
    "flat-trace-hbar-zero": lambda: flat_weyl.flat_trace(0.4, 0.2, 8, 0.0),
    "flat-trace-hbar-negative": lambda: flat_weyl.flat_trace(0.4, 0.2, 8, -1.0),
    "flat-trace-hbar-nan": lambda: flat_weyl.flat_trace(0.4, 0.2, 8, math.nan),
    "flat-matrix-hbar-zero": lambda: flat_weyl.quantizer_matrix_flat(0.4, 0.2, 8, 0.0),
    "flat-matrix-hbar-negative": lambda: flat_weyl.quantizer_matrix_flat(0.4, 0.2, 8, -1.0),
    "flat-matrix-hbar-nan": lambda: flat_weyl.quantizer_matrix_flat(0.4, 0.2, 8, math.nan),
    "flat-dequantize-hbar-zero": lambda: flat_weyl.dequantize_flat(WEYL, FLAT_OPERATOR, [0.3], [-0.5], 0.0),
    "flat-gaussian-hbar-negative": lambda: flat_weyl.quantize_gaussian_flat(0.4, 0.2, 1.0, 1.0, 8, -1.0),
    "flat-matrix-p-nan": lambda: flat_weyl.quantizer_matrix_flat(math.nan, 0.0, 4),
    "flat-matrix-x-inf": lambda: flat_weyl.quantizer_matrix_flat(0.0, math.inf, 4),
    "flat-diag-x-nan": lambda: flat_weyl.quantizer_diag_flat(0.0, math.nan, 4),
    "flat-trace-p-nan": lambda: flat_weyl.flat_trace(math.nan, 0.0, 4),
    "flat-trace-p-minus-inf": lambda: flat_weyl.flat_trace(-math.inf, 0.0, 4),
    "flat-gaussian-p0-inf": lambda: flat_weyl.quantize_gaussian_flat(math.inf, 0.2, 1.0, 1.0, 8),
    "flat-gaussian-x0-nan": lambda: flat_weyl.quantize_gaussian_flat(0.4, math.nan, 1.0, 1.0, 8),
    "flat-gaussian-sp-nan": lambda: flat_weyl.quantize_gaussian_flat(0.4, 0.2, math.nan, 1.0, 8),
    "flat-gaussian-sx-zero": lambda: flat_weyl.quantize_gaussian_flat(0.4, 0.2, 1.0, 0.0, 8),
    "flat-gaussian-sx-negative": lambda: flat_weyl.quantize_gaussian_flat(0.4, 0.2, 1.0, -1.0, 8),
    "ordering-scheme-hbar-nan": lambda: ordering_scheme("standard-printed", math.nan),
    "ordering-scheme-hbar-negative": lambda: ordering_scheme("standard-printed", -1.0),
    "harness-comparison-mode": lambda: harness.Check("only", 1.0, "TRIVIAL", mode="sideways"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_library_errors_are_phasequant_errors(case):
    with pytest.raises(PhasequantError) as info:
        CASES[case]()
    assert isinstance(info.value, ValueError)


def test_a_momentum_of_the_wrong_shape_is_refused_before_any_pairing_work():
    f = symbol_from_config(SPHERE, {"coefficient": "inverse-metric", "degree": 2})
    D = curved.wue_weyl_image(SPHERE, f)
    wrong = (np.ones(3), np.ones((1, 2)), np.array(0.3))
    for p in wrong:
        with pytest.raises(ShapeError):
            curved.dequantize_curved(SPHERE, D, p, Q)
        with pytest.raises(ShapeError):
            curved.axiom_defect(SPHERE, f, p, Q)
    assert D._pairing == (None, None, None) and f._image == (None, None, None, None)
    curved.dequantize_curved(SPHERE, D, np.array([0.3, -0.55]), Q)
    curved.axiom_defect(SPHERE, f, np.array([0.3, -0.55]), Q)
    for p in wrong:  # a filled memo is not read either
        with pytest.raises(ShapeError):
            curved.dequantize_curved(SPHERE, D, p, Q)
        with pytest.raises(ShapeError):
            curved.axiom_defect(SPHERE, f, p, Q)


def test_a_non_finite_momentum_is_refused_before_any_pairing_work():
    f = symbol_from_config(SPHERE, {"coefficient": "inverse-metric", "degree": 2})
    D = curved.wue_weyl_image(SPHERE, f)
    bad = (np.array([math.inf, 0.3]), np.array([0.3, -math.inf]), np.array([math.nan, math.nan]))
    for filled in (False, True):  # neither an empty nor a filled memo is read
        for p in bad:
            with pytest.raises(ConfigError, match="momentum"):
                curved.dequantize_curved(SPHERE, D, p, Q)
            with pytest.raises(ConfigError, match="momentum"):
                curved.axiom_defect(SPHERE, f, p, Q)
        if not filled:
            assert D._pairing == (None, None, None) and f._image == (None, None, None, None)
        for p in (np.zeros(2), np.array([-1.0, 0.0])):  # zero and negative momenta are valid
            assert abs(curved.axiom_defect(SPHERE, f, p, Q) - 2.0 / 3.0) <= 1e-12


@pytest.mark.parametrize("hbar", [0.0, -1.0, math.inf, -math.inf, math.nan, True, "1.0"])
def test_a_bad_hbar_is_refused_before_any_memo_is_read(hbar):
    f = symbol_from_config(SPHERE, {"coefficient": "inverse-metric", "degree": 2})
    D = curved.wue_weyl_image(SPHERE, f)
    chi = cylinder.CutoffFamily(0.8, 2.8)
    p = np.array([0.3, -0.55])
    calls = (
        lambda: curved.dequantize_curved(SPHERE, D, p, Q, hbar),
        lambda: curved.axiom_defect(SPHERE, f, p, Q, hbar),
        lambda: cylinder.quantizer_matrix_cyl(0.4, 0.9, chi, 8, hbar),
        lambda: cylinder.quantizer_trace_cyl(0.4, chi, 8, hbar),
        lambda: cylinder.polynomial_reproduction_check(fields.constant(1, 1.0), 0, 0.4, 0.9, chi, 8, hbar),
        lambda: cylinder.pair_trace_smeared_cyl(0.4, 0.9, chi, 8, hbar, **SMEARING),
        lambda: curved.wue_weyl_image(SPHERE, f, hbar),
        lambda: curved.wue_standard_image(SPHERE, f, hbar),
        lambda: cylinder.discrete_quantize(lambda p, theta: p, 2, 3, hbar),
        lambda: flat_weyl.flat_trace(0.4, 0.2, 8, hbar),
        lambda: flat_weyl.quantizer_matrix_flat(0.4, 0.2, 8, hbar),
        lambda: flat_weyl.dequantize_flat(WEYL, FLAT_OPERATOR, [0.3], [-0.5], hbar),
        lambda: flat_weyl.quantize_gaussian_flat(0.4, 0.2, 1.0, 1.0, 8, hbar),
        lambda: ordering_scheme("standard-printed", hbar),
    )
    for call in calls:
        with pytest.raises(ConfigError, match="hbar"):
            call()
    assert D._pairing == (None, None, None) and f._image == (None, None, None, None)
    assert chi._smeared == (None, None)
