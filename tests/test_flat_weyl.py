import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasequant import curved, flat_weyl, geometry
from phasequant.bases import hermite_polynomial_values
from phasequant.errors import InversionError
from phasequant.fields import constant, from_callable, from_expression, tensor_from_fields
from phasequant.symbols import (
    CovariantOperator,
    MomentumPolynomial,
    OrderingScheme,
    hermiticity_defect,
    ordering_scheme,
)

from conftest import random_symbol

LINE = geometry.euclidean_space(1)


def coefficient_values(D, order, x):
    tensor = D.terms.get(order)
    if tensor is None:
        return np.zeros(())
    return np.asarray(tensor.evaluate(np.atleast_1d(np.asarray(x, dtype=float))))


# ---------------------------------------------------------------------------
# symmetric and standard images on the line: closed-form coefficients


def test_weyl_image_linear_term_splits_divergence():
    """X(x) p maps to -i hbar (X d + X'/2)."""
    X = from_expression("x**2", ("x",))
    f = MomentumPolynomial(1, {1: tensor_from_fields(1, 1, lambda idx: X)})
    D = curved.wue_weyl_image(LINE, f, hbar=1.0)
    x = 0.7
    assert complex(coefficient_values(D, 1, x)[0]) == pytest.approx(-1j * x * x)
    assert complex(coefficient_values(D, 0, x)) == pytest.approx(-1j * x)


def test_weyl_image_quadratic_term_coefficients():
    """X(x) p^2 maps to (-i hbar)^2 (X d^2 + X' d + X''/4)."""
    X = from_expression("x**3", ("x",))
    f = MomentumPolynomial(1, {2: tensor_from_fields(1, 2, lambda idx: X)})
    D = curved.wue_weyl_image(LINE, f, hbar=1.0)
    x = 0.4
    assert complex(coefficient_values(D, 2, x)[0, 0]) == pytest.approx(-(x**3))
    assert complex(coefficient_values(D, 1, x)[0]) == pytest.approx(-3 * x * x)
    assert complex(coefficient_values(D, 0, x)) == pytest.approx(-6 * x / 4.0)


def test_weyl_image_cubic_term_coefficients():
    """X p^3: weights 1, 3/2, 3/4, 1/8 on d^3..d^0 against divergences of X."""
    X = from_expression("x**4", ("x",))
    f = MomentumPolynomial(1, {3: tensor_from_fields(1, 3, lambda idx: X)})
    D = curved.wue_weyl_image(LINE, f, hbar=1.0)
    x = 0.9
    front = (-1j) ** 3
    assert complex(coefficient_values(D, 3, x)[0, 0, 0]) == pytest.approx(front * x**4)
    assert complex(coefficient_values(D, 2, x)[0, 0]) == pytest.approx(
        front * 1.5 * 4 * x**3
    )
    assert complex(coefficient_values(D, 1, x)[0]) == pytest.approx(
        front * 0.75 * 12 * x**2
    )
    assert complex(coefficient_values(D, 0, x)) == pytest.approx(front * 24 * x / 8.0)


def test_weyl_image_scales_with_hbar_power():
    f = MomentumPolynomial(1, {2: constant(1, np.ones((1, 1)))})
    D = curved.wue_weyl_image(LINE, f, hbar=0.5)
    assert complex(coefficient_values(D, 2, 0.0)[0, 0]) == pytest.approx(-0.25)


def test_standard_image_keeps_all_derivatives_right():
    X = from_expression("x**2", ("x",))
    f = MomentumPolynomial(1, {2: tensor_from_fields(1, 2, lambda idx: X)})
    D = curved.wue_standard_image(LINE, f, hbar=1.0)
    assert set(D.terms) == {2}
    assert complex(coefficient_values(D, 2, 0.5)[0, 0]) == pytest.approx(-0.25)


def test_identity_ordering_reproduces_weyl_image(symbol_factory):
    f = symbol_factory()
    D1 = curved.wue_weyl_image(LINE, f)
    D2 = flat_weyl.a_image_flat(ordering_scheme("weyl"), f)
    for order in set(D1.terms) | set(D2.terms):
        np.testing.assert_allclose(
            coefficient_values(D1, order, 0.3),
            coefficient_values(D2, order, 0.3),
            atol=1e-14,
        )


def test_standard_preset_image_equals_direct_standard_map(symbol_factory):
    """The ordering series with standard coefficients lands on X d^m exactly."""
    f = symbol_factory()
    D1 = flat_weyl.a_image_flat(ordering_scheme("standard"), f)
    D2 = curved.wue_standard_image(LINE, f)
    for order in set(D1.terms) | set(D2.terms):
        for x in (-0.8, 0.1, 0.7):
            np.testing.assert_allclose(
                coefficient_values(D1, order, x),
                coefficient_values(D2, order, x),
                atol=1e-13,
            )


# ---------------------------------------------------------------------------
# inversion and dequantization


def test_symbol_recovery_inverts_the_image(symbol_factory):
    for degree in (3, 4):
        for hbar in (1.0, 0.3):
            f = symbol_factory(degree)
            g = flat_weyl._weyl_symbol(LINE, curved.wue_weyl_image(LINE, f, hbar), hbar)
            for p in (0.0, 0.9, -1.4):
                for x in (-0.5, 0.6):
                    assert g.evaluate(np.array([p]), np.array([x])) == pytest.approx(
                        f.evaluate(np.array([p]), np.array([x])), abs=1e-12
                    )


@pytest.mark.parametrize(
    "scheme",
    [
        ordering_scheme("weyl"),
        ordering_scheme("standard"),
        OrderingScheme((1.0, 0.25, -0.125, 1.0 / 48.0, 0.0), name="real-demo"),
        # schemes shorter than MAX_DEGREE + 1 terms, whose formal inverse must
        # still reach every power of Delta a cubic needs
        OrderingScheme((1.0,)),
        OrderingScheme((1.0, 0.25)),
        OrderingScheme((1.0, 0.3j, 0.1)),
    ],
    ids=["weyl", "standard", "real-demo", "short-1", "short-2", "short-3"],
)
def test_dequantize_round_trip(scheme, rng):
    f = random_symbol(rng)
    D = flat_weyl.a_image_flat(scheme, f)
    p, x = float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5))
    got = flat_weyl.dequantize_flat(scheme, D, np.array([p]), np.array([x]))
    assert got == pytest.approx(f.evaluate(np.array([p]), np.array([x])), abs=1e-12)


@given(
    c0=st.floats(-2, 2),
    c1=st.floats(-2, 2),
    c2=st.floats(-2, 2),
    p=st.floats(-2, 2),
    x=st.floats(-2, 2),
)
@settings(max_examples=20, deadline=None)
def test_round_trip_property_quadratic_symbols(c0, c1, c2, p, x):
    X = from_expression(f"{c2!r}*x**2 + {c1!r}*x + {c0!r}", ("x",))
    f = MomentumPolynomial(
        1,
        {
            0: tensor_from_fields(1, 0, lambda idx: X),
            2: tensor_from_fields(1, 2, lambda idx: X),
        },
    )
    A = ordering_scheme("standard")
    D = flat_weyl.a_image_flat(A, f)
    got = flat_weyl.dequantize_flat(A, D, np.array([p]), np.array([x]))
    want = f.evaluate(np.array([p]), np.array([x]))
    assert abs(got - want) < 1e-10 * (1.0 + abs(want))


def test_dequantize_rejects_a_coefficient_that_is_nan_at_x():
    # NaN on the right half-line only: the operator is fine at x = -0.5
    coefficient = from_callable(1, lambda x: math.nan if x[0] > 0.0 else 1.0)
    D = CovariantOperator(1, {0: coefficient})
    standard = ordering_scheme("standard")
    assert flat_weyl.dequantize_flat(standard, D, [0.3], [-0.5]) == 1.0
    with pytest.raises(InversionError):
        flat_weyl.dequantize_flat(standard, D, [0.3], [0.5])


@pytest.mark.parametrize(
    "scheme",
    [
        ordering_scheme("weyl"),
        ordering_scheme("standard"),
        OrderingScheme((1.0, 0.25, -0.125, 1.0 / 48.0, 0.0), name="real-demo"),
    ],
    ids=["weyl", "standard", "real-demo"],
)
def test_dequantize_on_a_stack_equals_single_points(scheme, rng):
    f = random_symbol(rng)
    D = flat_weyl.a_image_flat(scheme, f)
    p, x = rng.uniform(-1.5, 1.5, size=(2, 7, 1))
    got = flat_weyl.dequantize_flat(scheme, D, p, x)
    want = np.array([flat_weyl.dequantize_flat(scheme, D, pi, xi) for pi, xi in zip(p, x)])
    assert got.shape == (7,)
    assert got.tobytes() == want.tobytes()


def test_dequantize_checks_a_stack_row_by_row():
    # a jump at x = 0.7 puts the degree-4 coefficient outside the polynomial
    # calculus there: its finite-difference partials leave a relative defect
    # of about 3e-6, while the degree-0 term is 1.6e5 at x = 0.3
    jump = from_callable(1, lambda x: float(x[0] > 0.7))
    large = from_expression("1e6*(x - 0.7)**2", ("x",))
    D = CovariantOperator(1, {0: large, 4: tensor_from_fields(1, 4, lambda idx: jump)})
    standard = ordering_scheme("standard")
    p = np.array([[0.3], [0.2]])
    assert np.isfinite(flat_weyl.dequantize_flat(standard, D, p[:1], np.array([[0.3]]))).all()
    for x in (np.array([[0.7]]), np.array([[0.3], [0.7]])):
        with pytest.raises(InversionError):
            flat_weyl.dequantize_flat(standard, D, p[: len(x)], x)


def test_round_trip_two_dimensions(rng):
    coeffs = rng.uniform(-1.0, 1.0, size=(2, 2))
    f = MomentumPolynomial(
        2,
        {
            1: constant(2, rng.uniform(-1, 1, size=2)),
            2: constant(2, coeffs + coeffs.T),
        },
    )
    A = ordering_scheme("standard")
    D = flat_weyl.a_image_flat(A, f, geometry.euclidean_space(2))
    p = rng.uniform(-1, 1, size=2)
    x = rng.uniform(-1, 1, size=2)
    got = flat_weyl.dequantize_flat(A, D, p, x, model=geometry.euclidean_space(2))
    assert got == pytest.approx(f.evaluate(p, x), abs=1e-12)


def test_round_trip_on_polar_chart():
    # image, ordering series and inverse all take covariant divergences on the
    # chart they are given
    polar = geometry.polar_plane()
    X = from_expression("r + sin(phi)", polar.coordinate_names)
    Y = from_expression("r*cos(phi)", polar.coordinate_names)
    f = MomentumPolynomial(
        2, {1: tensor_from_fields(2, 1, lambda idx: X), 2: tensor_from_fields(2, 2, lambda idx: Y)}
    )
    for A in (ordering_scheme("weyl"), ordering_scheme("standard")):
        D = flat_weyl.a_image_flat(A, f, polar)
        p, q = np.array([0.3, 0.2]), np.array([1.2, 0.5])
        got = flat_weyl.dequantize_flat(A, D, p, q, model=polar)
        assert got == pytest.approx(f.evaluate(p, q), abs=1e-12)


# ---------------------------------------------------------------------------
# kernel matrix, trace, pairing


def test_kernel_diagonal_at_origin_alternates_parity():
    diag = flat_weyl.quantizer_diag_flat(0.0, 0.0, 6)
    np.testing.assert_allclose(diag.real, 2.0 * (-1.0) ** np.arange(7), atol=1e-10)
    np.testing.assert_allclose(diag.imag, 0.0, atol=1e-12)


def test_kernel_ground_state_gaussian_value():
    p, x, hbar = 0.35, -0.2, 1.0
    diag = flat_weyl.quantizer_diag_flat(p, x, 0, hbar)
    want = 2.0 * math.exp(-(p * p + x * x) / hbar)
    assert diag[0].real == pytest.approx(want, abs=1e-10)


def test_kernel_matrix_is_hermitian(rng):
    p, x = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
    M = flat_weyl.quantizer_matrix_flat(p, x, 10)
    assert hermiticity_defect(M) < 1e-10


def test_kernel_diag_agrees_with_matrix():
    M = flat_weyl.quantizer_matrix_flat(0.3, -0.4, 8)
    d = flat_weyl.quantizer_diag_flat(0.3, -0.4, 8)
    np.testing.assert_allclose(np.diag(M), d, atol=1e-10)


def test_damped_trace_approaches_one():
    err16 = abs(flat_weyl.flat_trace(0.3, -0.2, 16) - 1.0)
    err32 = abs(flat_weyl.flat_trace(0.3, -0.2, 32) - 1.0)
    assert err32 < err16 < 0.05


def test_trace_ladder_is_monotone():
    errors = flat_weyl.trace_ladder(0.3, -0.2, [4, 8, 16, 32])
    assert all(b < a for a, b in zip(errors, errors[1:]))


def gaussian_phase_function(p0, x0, sp, sx):
    """The phase-space Gaussian of widths ``sp, sx`` at ``(p0, x0)`` and ``integral f^2 dp dx``."""

    def f(p, x):
        return math.exp(-0.5 * ((p - p0) / sp) ** 2 - 0.5 * ((x - x0) / sx) ** 2)

    return f, math.pi * sp * sx


def quantize_flat_numeric(f, K, window, nodes):
    """Quantize ``f(p, x)`` by the kernel average ``(2 pi)^-1 int f Omega dp dx`` at hbar = 1.

    A tensor Gauss-Legendre rule on ``|p|, |x| < window``; ``f`` must decay
    inside that window.  Slow, and independent of the Gaussian fast path's
    exact momentum integral.
    """
    u, w = np.polynomial.legendre.leggauss(nodes)
    grid, gw = window * u, window * w
    out = np.zeros((K + 1, K + 1), dtype=complex)
    for xp, wp in zip(grid, gw):
        for xx, wx in zip(grid, gw):
            out += (wp * wx * f(xp, xx)) * flat_weyl.quantizer_matrix_flat(xp, xx, K)
    return out / (2.0 * math.pi)


@functools.cache
def numpy_hermite_rule(nodes):
    return np.polynomial.hermite.hermgauss(nodes)


def quantize_gaussian_pair_rule(p0, x0, sp, sx, K, hbar=1.0):
    """The Gaussian with its momentum integral done exactly, summed over every
    node pair of numpy's 200-node Gauss-Hermite rule in the scaled position ``x / s``
    and offset ``xi / s`` as one three-operand einsum: an independent rule
    and an independent sum."""
    s = math.sqrt(hbar)
    u, wu = numpy_hermite_rule(200)  # scaled offset xi / s
    v, wv = u, wu  # scaled position x / s
    pm = hermite_polynomial_values(K, v[:, None] - u[None, :])  # (K+1, nv, nu)
    pp = hermite_polynomial_values(K, v[:, None] + u[None, :])
    xfac = np.exp(-0.5 * ((s * v - x0) / sx) ** 2)
    pfac = np.exp(-2.0 * (sp * u / s) ** 2 - 2j * p0 * u / s)
    weight = np.einsum("i,j->ij", wv * xfac, wu * pfac)
    out = np.einsum("ij,aij,bij->ab", weight, pm, pp)
    return out * (math.sqrt(2.0 * math.pi) * sp * s / (math.pi * hbar))


def test_gaussian_quantization_matches_weak_form_pairing():
    """Tr of two quantized gaussians equals their phase-space overlap / (2 pi hbar)."""
    g1 = (0.4, -0.3, 0.9, 0.8)
    g2 = (-0.2, 0.5, 1.1, 0.7)
    A = flat_weyl.quantize_gaussian_flat(*g1, K=32)
    B = flat_weyl.quantize_gaussian_flat(*g2, K=32)
    got = float(np.trace(A @ B).real)
    want = flat_weyl.gaussian_pair_integral(g1, g2) / (2.0 * math.pi)
    assert got == pytest.approx(want, rel=1e-10)


def test_gaussian_quantization_is_hermitian():
    A = flat_weyl.quantize_gaussian_flat(0.5, 0.1, 0.8, 1.2, K=16)
    assert hermiticity_defect(A) < 1e-12
    A = flat_weyl.quantize_gaussian_flat(0.5, 0.1, 0.8, 1.2, K=32)
    assert hermiticity_defect(A) < 1e-12


def test_gaussian_quantization_is_finite_exactly_up_to_its_cap():
    assert np.isfinite(flat_weyl.quantize_gaussian_flat(0.4, -0.3, 0.9, 0.8, K=flat_weyl.MAX_TRUNCATION)).all()
    with np.errstate(over="ignore", invalid="ignore"):
        beyond = flat_weyl.quantize_gaussian_flat(0.4, -0.3, 0.9, 0.8, K=flat_weyl.MAX_TRUNCATION + 1)
    assert not np.isfinite(beyond).all()


# The pair rule at its own node count, max(4 (K + 1), 96), misses the 200-node
# pair rule by up to 7.7e-8 (hbar = 0.5, K = 24); the position-kernel rule
# stays within 1e-14 of it at that node count.
@pytest.mark.parametrize("K", [4, 8, 16, 24, 32])
@pytest.mark.parametrize("hbar", [0.5, 0.7, 1.0, 2.0])
def test_gaussian_quantization_matches_the_pair_rule_at_200_nodes(hbar, K):
    g = (0.4, -0.3, 0.9, 0.8)
    np.testing.assert_allclose(
        flat_weyl.quantize_gaussian_flat(*g, K=K, hbar=hbar),
        quantize_gaussian_pair_rule(*g, K=K, hbar=hbar),
        rtol=0.0,
        atol=1e-14,
    )


def test_gaussian_pair_integral_closed_form():
    g = (0.0, 0.0, 1.0, 1.0)
    # integral of exp(-(p^2+x^2)) squared over the plane = pi/2... via the helper
    f, norm = gaussian_phase_function(*g)
    assert flat_weyl.gaussian_pair_integral(g, g) == pytest.approx(norm)
    assert f(0.0, 0.0) == pytest.approx(1.0)


def test_numeric_quantization_agrees_with_gaussian_fast_path():
    g = (0.3, -0.2, 1.0, 0.9)
    f, _ = gaussian_phase_function(*g)
    slow = quantize_flat_numeric(f, K=4, window=7.0, nodes=72)
    fast = flat_weyl.quantize_gaussian_flat(*g, K=4)
    np.testing.assert_allclose(slow, fast, atol=5e-6)
