import hashlib
import math

import numpy as np
import pytest

from phasequant import geometry, symbols
from phasequant.curved import wue_weyl_image
from phasequant.bases import FourierBasis, HermiteBasis
from phasequant.errors import ConfigError
from phasequant.expressions import parse_expression
from phasequant.fields import constant, from_expression, tensor_constant, tensor_from_fields
from phasequant.symbols import (
    MomentumPolynomial,
    OrderingScheme,
    delta_apply,
    flat_chart_delta_value,
    hermiticity_defect,
    operator_matrix,
    ordering_scheme,
    ordering_transform,
    symbol_from_config,
)


def momentum_power(dim, m, field=None):
    """The symbol X(q) |p_0|^m ... here simply ``X * p_0^m`` in one dimension."""
    field = field or constant(dim, 1.0)
    return MomentumPolynomial(dim, {m: tensor_from_fields(dim, m, lambda idx: field)})


# ---------------------------------------------------------------------------
# momentum polynomials


def test_momentum_polynomial_evaluation():
    f = MomentumPolynomial(
        2,
        {
            0: tensor_constant(2, np.asarray(1.5)),
            2: tensor_constant(2, np.array([[1.0, 0.5], [0.5, 0.0]])),
        },
    )
    p, q = np.array([2.0, -1.0]), np.zeros(2)
    # 1.5 + p0^2 + 2*0.5*p0*p1
    assert f.evaluate(p, q) == pytest.approx(1.5 + 4.0 - 2.0)
    assert f.max_degree == 2


def test_momentum_polynomial_rejects_excess_degree():
    from phasequant.errors import UnsupportedOrderError

    with pytest.raises(UnsupportedOrderError):
        MomentumPolynomial(1, {symbols.MAX_DEGREE + 1: tensor_constant(1, np.zeros((1,) * 5))})


# ---------------------------------------------------------------------------
# ordering schemes


def test_ordering_scheme_requires_unit_leading_coefficient():
    with pytest.raises(ConfigError):
        OrderingScheme((0.5, 0.1))


def test_ordering_scheme_inverse_is_formal_reciprocal():
    A = OrderingScheme((1.0, 0.3, -0.2, 0.05, 0.0))
    B = A.inverse()
    # convolution of the two coefficient lists is (1, 0, 0, ...)
    n = len(A.coefficients)
    conv = [
        sum(A.coefficients[j] * B.coefficients[k - j] for j in range(k + 1))
        for k in range(n)
    ]
    assert conv[0] == pytest.approx(1.0)
    np.testing.assert_allclose(conv[1:], 0.0, atol=1e-14)


def test_hermitian_flag_tracks_real_coefficients():
    assert OrderingScheme((1.0, 0.25)).is_hermitian
    assert not OrderingScheme((1.0, 0.5j)).is_hermitian


def test_preset_weyl_is_identity_series():
    A = ordering_scheme("weyl")
    assert A.coefficients[0] == 1.0
    np.testing.assert_allclose(A.coefficients[1:], 0.0, atol=0.0)


def test_preset_standard_series():
    A = ordering_scheme("standard")
    want = [(-0.5j) ** k / math.factorial(k) for k in range(len(A.coefficients))]
    np.testing.assert_allclose(A.coefficients, want, atol=1e-15)
    assert not A.is_hermitian


def test_preset_standard_printed_flips_phase_and_scales():
    A = ordering_scheme("standard-printed", hbar=2.0)
    want = [(1j) ** k / math.factorial(k) for k in range(len(A.coefficients))]
    np.testing.assert_allclose(A.coefficients, want, atol=1e-15)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        ordering_scheme("antinormal")


# ---------------------------------------------------------------------------
# the ordering generator


def test_generator_lowers_degree_by_one():
    model = geometry.euclidean_space(1)
    X = from_expression("x**2", ("x",))
    f = momentum_power(1, 1, X)
    out = delta_apply(model, f, hbar=1.0)
    assert set(out.terms) == {0}
    # -hbar * d/dx(x^2) = -2x
    q = np.array([0.7])
    assert complex(out.terms[0].evaluate(q)) == pytest.approx(-1.4)


def test_generator_annihilates_constants():
    model = geometry.euclidean_space(1)
    f = MomentumPolynomial(1, {0: tensor_constant(1, np.asarray(2.0))})
    assert delta_apply(model, f).terms == {}


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_generator_radial_momentum_on_polar_chart(r):
    """The radial momentum symbol maps to -hbar/r, exactly."""
    model = geometry.polar_plane()
    p_r = MomentumPolynomial(
        2,
        {1: tensor_constant(2, np.array([1.0, 0.0]))},
    )
    out = delta_apply(model, p_r, hbar=1.0)
    got = complex(out.terms[0].evaluate(np.array([r, 0.4])))
    assert got == pytest.approx(-1.0 / r, abs=1e-12)


def test_generator_scales_linearly_with_hbar():
    model = geometry.polar_plane()
    p_r = MomentumPolynomial(2, {1: tensor_constant(2, np.array([1.0, 0.0]))})
    half = delta_apply(model, p_r, hbar=0.5)
    assert complex(half.terms[0].evaluate(np.array([2.0, 0.0]))) == pytest.approx(-0.25)


def test_chart_change_value_agrees_with_generator(rng):
    """Pushing the generator through a Cartesian chart reproduces delta_apply."""
    model = geometry.polar_plane()
    coeff = from_expression("r*cos(phi)", ("r", "phi"))
    f = MomentumPolynomial(
        2, {1: tensor_from_fields(2, 1, lambda idx: coeff if idx == (0,) else constant(2, 0.3))}
    )
    to_cart = lambda q: np.array([q[0] * math.cos(q[1]), q[0] * math.sin(q[1])])
    from_cart = lambda x: np.array([math.hypot(x[0], x[1]), math.atan2(x[1], x[0])])
    applied = delta_apply(model, f, hbar=1.0)
    for _ in range(3):
        q = np.array([float(rng.uniform(0.7, 1.6)), float(rng.uniform(-1.0, 1.0))])
        p = rng.uniform(-1.0, 1.0, size=2)
        direct = complex(applied.evaluate(p, q))
        via_chart = flat_chart_delta_value(f, to_cart, from_cart, p, q, hbar=1.0)
        assert direct == pytest.approx(via_chart, abs=5e-6)


def test_ordering_transform_with_identity_series_is_identity(symbol_factory):
    model = geometry.euclidean_space(1)
    f = symbol_factory()
    g = ordering_transform(model, ordering_scheme("weyl"), f)
    q = np.array([0.3])
    p = np.array([1.1])
    assert g.evaluate(p, q) == pytest.approx(f.evaluate(p, q), abs=1e-14)


def test_ordering_transform_then_inverse_round_trips(symbol_factory):
    model = geometry.euclidean_space(1)
    A = OrderingScheme((1.0, 0.35, -0.15, 0.05, 0.0))
    f = symbol_factory()
    back = ordering_transform(model, A.inverse(), ordering_transform(model, A, f))
    for p in (0.0, 0.7, -1.3):
        assert back.evaluate(np.array([p]), np.array([0.4])) == pytest.approx(
            f.evaluate(np.array([p]), np.array([0.4])), abs=1e-12
        )


# ---------------------------------------------------------------------------
# operator matrices


def test_operator_matrix_of_multiplication_operator_is_hermitian():
    model = geometry.circle()
    coeff = from_expression("cos(theta)", ("theta",))
    D = symbols.CovariantOperator(1, {0: tensor_from_fields(1, 0, lambda idx: coeff)})
    M = operator_matrix(model, D, FourierBasis(), 4)
    assert hermiticity_defect(M) < 1e-12
    # multiplication by cos couples neighbouring modes with weight 1/2
    assert M[4, 5] == pytest.approx(0.5, abs=1e-12)
    assert M[4, 4] == pytest.approx(0.0, abs=1e-12)


def test_operator_matrix_momentum_on_circle_is_diagonal():
    model = geometry.circle()
    f = momentum_power(1, 1)
    D = symbols.CovariantOperator(1, {1: tensor_constant(1, -1j * np.ones(1))})
    del f
    M = operator_matrix(model, D, FourierBasis(), 3)
    np.testing.assert_allclose(M, np.diag(np.arange(-3, 4, dtype=float)), atol=1e-12)


def test_operator_matrix_oscillator_in_hermite_basis():
    # -1/2 d^2 + x^2/2 has eigenvalues k + 1/2 in the scaled Hermite basis
    model = geometry.euclidean_space(1)
    x2 = from_expression("0.5*x**2", ("x",))
    D = symbols.CovariantOperator(
        1,
        {
            0: tensor_from_fields(1, 0, lambda idx: x2),
            2: tensor_constant(1, np.full((1, 1), -0.5)),
        },
    )
    M = operator_matrix(model, D, HermiteBasis(), 5)
    np.testing.assert_allclose(M, np.diag(np.arange(6) + 0.5), atol=1e-9)


# SHA-256 of the bytes of operator_matrix(circle, Weyl image of cos(theta) p^m,
# FourierBasis(), 32), negative zeros folded to +0, recorded when every field
# was still evaluated one quadrature node at a time.
COS_THETA_MATRIX_SHA256 = {
    0: "23664d16b77d7eb9af38b23c9d37a63029a2a58949441f97eb86c76b2c9a825d",
    1: "71b1cfb21a97dabc6969561e1fdf1ac2059fe3e88df02ad9118dac43981a7aa3",
    2: "071e463f1e2f008c13b26767de559189cf5116769f50d5c860c12e5df42051d0",
    3: "198bf0865f339ce143f966236bc98fdb7e7e97901f362eee100ebeab77477b18",
    4: "0ae2f2e41aebf9bb6cdfec23ac40a2c9c22da895faf4af37b03db21d046e8bb6",
}


@pytest.mark.parametrize("m", range(5))
def test_operator_matrix_is_bit_identical_to_pointwise_assembly(m):
    model = geometry.circle()
    X = from_expression("cos(theta)", ("theta",))
    D = wue_weyl_image(model, momentum_power(1, m, X), 1.0)
    M = operator_matrix(model, D, FourierBasis(), 32)
    assert M.shape == (65, 65)
    digest = hashlib.sha256(np.ascontiguousarray(M + 0.0).tobytes()).hexdigest()
    assert digest == COS_THETA_MATRIX_SHA256[m]


def test_operator_matrix_weights_by_a_varying_density():
    # a circle whose metric varies, so every node carries its own sqrt(g)
    theta = geometry.CoordSpec("theta", -math.pi, math.pi, periodic=True)
    metric = parse_expression("1 + 0.5*cos(theta)*cos(theta)", ("theta",))
    model = geometry.ManifoldModel("wavy-circle", 1, (theta,), metric_exprs=((metric,),))
    assert not model.connection_free
    coeff = from_expression("sin(theta)", ("theta",))
    D = symbols.CovariantOperator(1, {0: tensor_from_fields(1, 0, lambda idx: coeff)})
    M = operator_matrix(model, D, FourierBasis(), 3)
    points, weights = FourierBasis().quadrature(2 * symbols.QUADRATURE_NODES)
    modes = FourierBasis().fields(3)
    want = [
        [
            sum(w * geometry.sqrt_g(model, x) * np.conj(fj(x)) * coeff(x) * fk(x) for x, w in zip(points, weights))
            for fk in modes
        ]
        for fj in modes
    ]
    np.testing.assert_allclose(M, want, atol=1e-13)


def test_hermiticity_defect_measures_max_deviation():
    M = np.array([[1.0, 2.0 + 1j], [2.0, 0.0]])
    assert hermiticity_defect(M) == pytest.approx(1.0)
    assert hermiticity_defect(np.eye(3)) == 0.0


# ---------------------------------------------------------------------------
# config-driven symbols


def test_symbol_from_config_names():
    model = geometry.circle()
    # the shorthand string defaults to degree 1: the momentum itself
    f = symbol_from_config(model, "constant")
    assert f.evaluate(np.array([2.5]), np.array([0.5])) == pytest.approx(2.5)
    g = symbol_from_config(model, {"coefficient": "cos-theta", "degree": 2})
    assert g.evaluate(np.array([2.0]), np.array([0.5])) == pytest.approx(
        4.0 * math.cos(0.5)
    )


def test_symbol_from_config_inverse_metric_matches_kinetic_term():
    model = geometry.sphere(1.0)
    f = symbol_from_config(model, {"coefficient": "inverse-metric", "degree": 2})
    q = np.array([1.1, 0.4])
    p = np.array([0.3, -0.55])
    want = p @ geometry.inverse_metric(model, q) @ p
    assert f.evaluate(p, q) == pytest.approx(want, abs=1e-12)


def test_symbol_from_config_custom_expression_and_scale():
    model = geometry.circle()
    f = symbol_from_config(
        model, {"coefficient": "custom:sin(theta)", "degree": 1, "scale": 2.0}
    )
    assert f.evaluate(np.array([3.0]), np.array([0.7])) == pytest.approx(
        6.0 * math.sin(0.7)
    )


@pytest.mark.parametrize(
    "cfg",
    [
        "chi",  # unknown name
        {"coefficient": "constant", "degree": 99},
        {"coefficient": "constant", "degree": "two"},  # non-integer degree
        {"coefficient": "constant", "degree": 1, "window": 3},  # unknown key
        {"coefficient": "inverse-metric", "degree": 1},  # rank mismatch
        {"coefficient": "constant", "degree": 2, "scale": "x"},  # scale is no number
        {"coefficient": "constant", "degree": 2, "scale": [1.0]},
        {"coefficient": 5, "degree": 2},  # coefficient is no string
    ],
)
def test_symbol_from_config_rejects(cfg):
    model = geometry.sphere(1.0)
    with pytest.raises(ConfigError):
        symbol_from_config(model, cfg)
