import hashlib
import math

import numpy as np
import pytest

from phasequant import fields, geometry, harness, numdiff, symbols
from phasequant.curved import wue_weyl_image
from phasequant.bases import FourierBasis, HermiteBasis
from phasequant.errors import ConfigError, QuadratureAccuracyError, UnsupportedOrderError
from phasequant.expressions import parse_expression
from phasequant.fields import constant, from_expression, scale, tensor_from_fields
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
            0: constant(2, np.asarray(1.5)),
            2: constant(2, np.array([[1.0, 0.5], [0.5, 0.0]])),
        },
    )
    p, q = np.array([2.0, -1.0]), np.zeros(2)
    # 1.5 + p0^2 + 2*0.5*p0*p1
    assert f.evaluate(p, q) == pytest.approx(1.5 + 4.0 - 2.0)


def test_momentum_polynomial_rejects_excess_degree():
    from phasequant.errors import UnsupportedOrderError

    with pytest.raises(UnsupportedOrderError):
        MomentumPolynomial(1, {symbols.MAX_DEGREE + 1: constant(1, np.zeros((1,) * 5))})


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


def test_preset_weyl_is_identity_series():
    A = ordering_scheme("weyl")
    assert A.coefficients[0] == 1.0
    np.testing.assert_allclose(A.coefficients[1:], 0.0, atol=0.0)


def test_preset_standard_series():
    A = ordering_scheme("standard")
    want = [(-0.5j) ** k / math.factorial(k) for k in range(len(A.coefficients))]
    np.testing.assert_allclose(A.coefficients, want, atol=1e-15)


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
    f = MomentumPolynomial(1, {0: constant(1, np.asarray(2.0))})
    assert delta_apply(model, f).terms == {}


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_generator_radial_momentum_on_polar_chart(r):
    """The radial momentum symbol maps to -hbar/r, exactly."""
    model = geometry.polar_plane()
    p_r = MomentumPolynomial(
        2,
        {1: constant(2, np.array([1.0, 0.0]))},
    )
    out = delta_apply(model, p_r, hbar=1.0)
    got = complex(out.terms[0].evaluate(np.array([r, 0.4])))
    assert got == pytest.approx(-1.0 / r, abs=1e-12)


def test_generator_scales_linearly_with_hbar():
    model = geometry.polar_plane()
    p_r = MomentumPolynomial(2, {1: constant(2, np.array([1.0, 0.0]))})
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
        via_chart = flat_chart_delta_value(f, numdiff.pointwise(to_cart), numdiff.pointwise(from_cart), p, q, hbar=1.0)
        assert direct == pytest.approx(via_chart, abs=5e-6)


def test_ordering_transform_with_identity_series_is_identity(symbol_factory):
    model = geometry.euclidean_space(1)
    f = symbol_factory()
    g = ordering_transform(model, ordering_scheme("weyl"), f)
    q = np.array([0.3])
    p = np.array([1.1])
    assert g.evaluate(p, q) == pytest.approx(f.evaluate(p, q), abs=1e-14)


def test_ordering_transform_sums_each_degree_once_in_first_seen_order(rng):
    # the terms as pairwise merges after every step would build them
    names = ("x", "y")
    fields = {}

    def assign(idx):
        c = [float(v) for v in rng.uniform(-1.0, 1.0, size=3)]
        return fields.setdefault(idx, from_expression(f"({c[0]!r}) + ({c[1]!r})*sin(y) + ({c[2]!r})*x**2*y", names))

    model = geometry.euclidean_space(2)
    f = MomentumPolynomial(2, {3: tensor_from_fields(2, 3, assign), 1: tensor_from_fields(2, 1, assign)})
    A = OrderingScheme((1.0, 0.3, -0.2, 0.1), name="demo")
    nested, acc = dict(f.terms), f
    for k in range(1, 4):
        acc = delta_apply(model, acc)
        nested = symbols.merge_terms(2, nested, {d: scale(t, A.coefficients[k]) for d, t in acc.terms.items()})
    got = ordering_transform(model, A, f)
    assert list(got.terms) == list(nested) == [3, 1, 2, 0]
    points = rng.uniform(-1.0, 1.0, size=(7, 2))
    for d, tensor in got.terms.items():
        for q in (points[0], points):
            assert tensor.evaluate(q).tobytes() == nested[d].evaluate(q).tobytes()


def test_ordering_transform_stops_after_the_last_nonzero_coefficient(monkeypatch, symbol_factory):
    model = geometry.euclidean_space(1)
    f = symbol_factory()  # a cubic: Delta^4 f is the first to vanish
    calls = []
    apply = symbols.delta_apply
    monkeypatch.setattr(symbols, "delta_apply", lambda *args: calls.append(args) or apply(*args))
    weyl = ordering_scheme("weyl")
    for scheme in (weyl, weyl.inverse()):
        assert ordering_transform(model, scheme, f).terms == f.terms
    assert len(calls) == 0
    ordering_transform(model, OrderingScheme((1.0, 0.35, -0.15, 0.05, 0.0)), f)
    assert len(calls) == 3


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
    D = symbols.CovariantOperator(1, {1: constant(1, -1j * np.ones(1))})
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
            2: constant(1, np.full((1, 1), -0.5)),
        },
    )
    M = operator_matrix(model, D, HermiteBasis(), 5)
    np.testing.assert_allclose(M, np.diag(np.arange(6) + 0.5), atol=1e-9)


@pytest.mark.parametrize("hbar", [1.0, 0.6])
def test_position_matrix_in_hermite_basis_at_K48(hbar):
    # h_48 reaches its turning point at sqrt(97 hbar) and still has weight
    # there, so the quadrature window must follow K; x = sqrt(hbar/2) (a + a^+)
    model = geometry.euclidean_space(1)
    x = from_expression("x", ("x",))
    D = symbols.CovariantOperator(1, {0: tensor_from_fields(1, 0, lambda idx: x)})
    M = operator_matrix(model, D, HermiteBasis(hbar), 48)
    ladder = np.diag(np.sqrt(np.arange(1, 49) / 2.0), 1)
    np.testing.assert_allclose(M, math.sqrt(hbar) * (ladder + ladder.T), atol=1e-10)


# SHA-256 of the bytes of operator_matrix(circle, Weyl image of cos(theta) p^m,
# FourierBasis(), 32), negative zeros folded to +0.  Re-recorded for every m
# when FourierBasis.galerkin took each derivative order's matrix as a Toeplitz
# matrix of the coefficient's trapezoid Fourier coefficients (one FFT per
# order) instead of summing a table of modes node by node: the FFT rounds
# differently.  test_operator_matrix_matches_a_pointwise_assembly checks the
# same matrices against a node-by-node sum with the modes in closed form, so
# the pin is not the only guard.
COS_THETA_MATRIX_SHA256 = {
    0: "1cd703ec9036841c5d1085561f4c3366b6d72197a3ec42b98004b3ac4a8b86f3",
    1: "6039a355a0f01d0ea69e9cce701d4a806b0df81c0669e5763d83c2a9fe2a6d46",
    2: "1e323851aa99b63e86aad0641522a93fcf2ad230776a6ba58b23862251570f6f",
    3: "ed45b0e8ed37f0df4a0cc97fe0c7821a36e2c242fe708b8116e55d6f8eb2bcdd",
    4: "340424fa3a7ee095328144c9389bc72886cdfb2dc64b46d7ba58dfdaaee1861e",
}


@pytest.mark.parametrize("m", range(5))
def test_operator_matrix_digests_are_pinned(m):
    model = geometry.circle()
    X = from_expression("cos(theta)", ("theta",))
    D = wue_weyl_image(model, momentum_power(1, m, X), 1.0)
    M = operator_matrix(model, D, FourierBasis(), 32)
    assert M.shape == (65, 65)
    digest = hashlib.sha256(np.ascontiguousarray(M + 0.0).tobytes()).hexdigest()
    assert digest == COS_THETA_MATRIX_SHA256[m]


# SHA-256 of operator_matrix(...).tobytes() as the matrices read before each
# coefficient (and sqrt(g) where the metric varies) was evaluated once over the
# coarse and the fine rule together: the joined evaluation must keep every bit.
SINGLE_EVALUATION_SHA256 = {
    "circle-cos-p2-K32": "1e323851aa99b63e86aad0641522a93fcf2ad230776a6ba58b23862251570f6f",
    "circle-cos-p2-K64": "47b76233afa9d411515e0faf66c12b1c3c9bcf75696bed8123341f4326be5551",
    "hermite-oscillator-K16": "fd59419f6407725cd953a00d754606b64f651049a1e6e246f6cf1853e160d17f",
    "wavy-circle-sin-K8": "dee2960b303c0165f6a86b7d61307483f8fff8ef747dd3ef1f78ba10e9c59e80",
}


def wavy_circle() -> geometry.ManifoldModel:
    """A circle whose metric varies, so every node carries its own ``sqrt(g)``."""
    theta = geometry.CoordSpec("theta", -math.pi, math.pi, periodic=True)
    metric = parse_expression("1 + 0.5*cos(theta)*cos(theta)", ("theta",))
    return geometry.ManifoldModel("wavy-circle", 1, (theta,), metric_exprs=((metric,),))


def single_evaluation_cases() -> dict:
    cos_theta = from_expression("cos(theta)", ("theta",))
    circle = geometry.circle()
    kinetic = wue_weyl_image(circle, momentum_power(1, 2, cos_theta), 1.0)
    x2 = from_expression("0.5*x**2", ("x",))
    oscillator = symbols.CovariantOperator(
        1, {0: tensor_from_fields(1, 0, lambda idx: x2), 2: tensor_from_fields(1, 2, lambda idx: constant(1, -0.5))}
    )
    sin_theta = from_expression("sin(theta)", ("theta",))
    drift = symbols.CovariantOperator(
        1, {0: tensor_from_fields(1, 0, lambda idx: sin_theta), 1: tensor_from_fields(1, 1, lambda idx: sin_theta)}
    )
    return {
        "circle-cos-p2-K32": (circle, kinetic, FourierBasis(), 32),
        "circle-cos-p2-K64": (circle, kinetic, FourierBasis(), 64),
        "hermite-oscillator-K16": (geometry.euclidean_space(1), oscillator, HermiteBasis(), 16),
        "wavy-circle-sin-K8": (wavy_circle(), drift, FourierBasis(), 8),
    }


@pytest.mark.parametrize("case", list(SINGLE_EVALUATION_SHA256))
def test_operator_matrix_bits_are_pinned(case):
    M = operator_matrix(*single_evaluation_cases()[case])
    assert hashlib.sha256(M.tobytes()).hexdigest() == SINGLE_EVALUATION_SHA256[case]


@pytest.mark.parametrize("case", list(SINGLE_EVALUATION_SHA256))
def test_operator_matrix_evaluates_each_coefficient_once(case, monkeypatch):
    model, D, basis, K = single_evaluation_cases()[case]
    evaluated, evaluate = [], fields.TensorField.evaluate

    def counted(self, q):
        evaluated.append((self, len(q)))
        return evaluate(self, q)

    monkeypatch.setattr(fields.TensorField, "evaluate", counted)
    operator_matrix(model, D, basis, K)
    nodes = max(symbols.QUADRATURE_NODES, basis.resolving_nodes(K))
    for term in D.terms.values():  # on the coarse rule's nodes and the fine rule's, joined
        assert [n for field, n in evaluated if field is term] == [3 * nodes]
    metric_nodes = [n for field, n in evaluated if field is model._fields["g"]]
    assert metric_nodes == ([1] if model.connection_free else [3 * nodes])


@pytest.mark.parametrize("m", range(5))
def test_operator_matrix_matches_a_pointwise_assembly(m):
    # the fine rule's sum taken one node at a time, with the modes and their
    # derivatives (i k)^r exp(i k theta) / sqrt(2 pi) in closed form
    model = geometry.circle()
    X = from_expression("cos(theta)", ("theta",))
    D = wue_weyl_image(model, momentum_power(1, m, X), 1.0)
    M = operator_matrix(model, D, FourierBasis(), 32)
    k = np.arange(-32, 33)
    nodes = 2 * max(symbols.QUADRATURE_NODES, FourierBasis().resolving_nodes(32))
    points, weights = FourierBasis().quadrature(nodes, 32)
    want = np.zeros((len(k), len(k)), dtype=complex)
    for x, w in zip(points, weights):
        phi = np.exp(1j * k * x[0]) / math.sqrt(2.0 * math.pi)
        dphi = sum(complex(D.terms[r].evaluate(x)[(0,) * r]) * (1j * k) ** r for r in D.terms) * phi
        want += w * math.sqrt(np.linalg.det(geometry.metric(model, x))) * np.outer(phi.conj(), dphi)
    assert np.max(np.abs(M - want)) <= 1e-14 * np.max(np.abs(M))


def test_operator_matrix_weights_by_a_varying_density():
    model = wavy_circle()
    assert not model.connection_free
    coeff = from_expression("sin(theta)", ("theta",))
    D = symbols.CovariantOperator(1, {0: tensor_from_fields(1, 0, lambda idx: coeff)})
    M = operator_matrix(model, D, FourierBasis(), 3)
    points, weights = FourierBasis().quadrature(2 * symbols.QUADRATURE_NODES, 3)
    k = np.arange(-3, 4)
    want = np.zeros((7, 7), dtype=complex)
    for x, w in zip(points, weights):
        phi = np.exp(1j * k * x[0]) / math.sqrt(2.0 * math.pi)
        want += w * math.sqrt(np.linalg.det(geometry.metric(model, x))) * complex(coeff(x)) * np.outer(phi.conj(), phi)
    np.testing.assert_allclose(M, want, atol=1e-13)


class NaNFourierBasis(FourierBasis):
    """Fourier Galerkin sums with one NaN entry, as an overflowing recurrence leaves them."""

    def galerkin(self, points, values, weights, K):
        out = super().galerkin(points, values, weights, K)
        out[0, 0] = np.nan
        return out


def test_operator_matrix_rejects_a_nan_matrix():
    # a NaN coarse/fine difference is no accuracy estimate
    coeff = from_expression("cos(theta)", ("theta",))
    D = symbols.CovariantOperator(1, {0: tensor_from_fields(1, 0, lambda idx: coeff)})
    with pytest.raises(QuadratureAccuracyError):
        operator_matrix(geometry.circle(), D, NaNFourierBasis(), 3)


def test_operator_matrix_rejects_second_order_operators_on_a_model_with_a_connection():
    # the bases take partial derivatives only; nabla nabla carries Christoffel terms
    model = wavy_circle()
    D = symbols.CovariantOperator(1, {2: constant(1, np.ones((1, 1)))})
    with pytest.raises(UnsupportedOrderError):
        operator_matrix(model, D, FourierBasis(), 3)


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


# ---------------------------------------------------------------------------
# symbols on point arrays and the Cartesian-chart reference


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_symbol_on_point_arrays_equals_single_points(dim, rng):
    names = ("x", "y", "z")[:dim]
    terms = {}
    for degree in range(symbols.MAX_DEGREE + 1):
        fields = {}

        def assign(idx):
            c = [float(v) for v in rng.uniform(-1.0, 1.0, size=3)]
            source = f"({c[0]!r}) + ({c[1]!r})*sin({names[-1]}) + ({c[2]!r})*{names[0]}**2"
            return fields.setdefault(idx, from_expression(source, names))

        terms[degree] = tensor_from_fields(dim, degree, assign)
    f = MomentumPolynomial(dim, terms)
    p, q = rng.uniform(-1.5, 1.5, size=(2, 40, dim))
    got = f.evaluate(p, q)
    want = np.array([f.evaluate(pp, qq) for pp, qq in zip(p, q)])
    assert got.shape == (40,) and got.tobytes() == want.tobytes()


# SHA-256 of the 20 chart-conjugated generator values of the point-transform
# experiment's polar-cartesian-agreement check.
POLAR_CHART_DELTA_SHA256 = "00bd494b9b60f54500135ac7ff48b817ced54d2c62575e04cefa735962150551"


def test_flat_chart_delta_values_are_bit_identical_to_pointwise_evaluation():
    """Pins the values of the point-transform experiment's chart-conjugated
    generator, and checks that maps of one point, lifted, give the same value."""
    polar = geometry.polar_plane()
    rng = np.random.default_rng(27182)  # the experiment's generator, past its cartesian-reduction draws
    rng.uniform(-1.0, 1.0, size=20)
    f = harness._random_chart_symbol(rng, polar.coordinate_names)

    def to_cartesian(q):
        return np.stack([q[:, 0] * np.cos(q[:, 1]), q[:, 0] * np.sin(q[:, 1])], axis=-1)

    def from_cartesian(xy):
        return np.stack([np.hypot(xy[:, 0], xy[:, 1]), np.arctan2(xy[:, 1], xy[:, 0])], axis=-1)

    values, points = [], []
    for _ in range(20):
        q = np.array([rng.uniform(0.6, 1.8), rng.uniform(-2.5, 2.5)])
        p = rng.uniform(-1.2, 1.2, size=2)
        values.append(flat_chart_delta_value(f, to_cartesian, from_cartesian, p, q, 1.0))
        points.append((p, q))
    digest = hashlib.sha256(np.ascontiguousarray(np.array(values) + 0.0).tobytes()).hexdigest()
    assert digest == POLAR_CHART_DELTA_SHA256
    # one call on the (20, 2) stacks gives the same values
    ps, qs = (np.array(stack) for stack in zip(*points))
    stacked = flat_chart_delta_value(f, to_cartesian, from_cartesian, ps, qs, 1.0)
    assert stacked.shape == (20,)
    assert hashlib.sha256(np.ascontiguousarray(stacked + 0.0).tobytes()).hexdigest() == POLAR_CHART_DELTA_SHA256
    # maps of one point, lifted, give the same value
    to_one = lambda q: np.array([q[0] * math.cos(q[1]), q[0] * math.sin(q[1])])
    from_one = lambda xy: np.array([math.hypot(xy[0], xy[1]), math.atan2(xy[1], xy[0])])
    lifted = flat_chart_delta_value(f, numdiff.pointwise(to_one), numdiff.pointwise(from_one), p, q, 1.0)
    assert lifted == values[-1]
