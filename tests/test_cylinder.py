import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from phasequant import cylinder
from phasequant.errors import ConfigError, QuadratureAccuracyError
from phasequant.fields import constant, from_expression
from phasequant.symbols import hermiticity_defect


@pytest.fixture(scope="module")
def chi():
    return cylinder.CutoffFamily(0.8, 2.8)


# ---------------------------------------------------------------------------
# cutoff families


def test_cutoff_plateau_and_support(chi):
    assert chi.value(0.0) == 1.0
    assert chi.value(0.79) == 1.0
    assert chi.value(-0.5) == 1.0
    assert chi.value(2.81) == 0.0
    assert 0.0 < chi.value(1.8) < 1.0
    # even
    assert chi.value(-1.8) == chi.value(1.8)


def test_cutoff_validation():
    with pytest.raises(ConfigError):
        cylinder.CutoffFamily(-0.1, 1.0)
    with pytest.raises(ConfigError):
        cylinder.CutoffFamily(2.0, 1.0)
    with pytest.raises(ConfigError):
        cylinder.CutoffFamily(0.5, 1.0, profile="boxish")
    with pytest.raises(ConfigError):
        cylinder.CutoffFamily(0.5, 1.0, profile="indicator")  # needs plateau == support


def test_mollifier_ladder_parameters():
    for j in (1, 2, 3):
        fam = cylinder.CutoffFamily.mollifier(j)
        assert fam.plateau == pytest.approx(math.pi / 2.0 - 2.0**-j)
        assert fam.support == pytest.approx(math.pi / 2.0 - 2.0 ** -(j + 1))


def test_indicator_transform_closed_form():
    a = 1.3
    fam = cylinder.CutoffFamily(a, a, profile="indicator")
    for s in (0.0, 0.7, 2.0):
        want = 2.0 * a if s == 0.0 else 2.0 * math.sin(s * a) / s
        assert fam.transform(s) == pytest.approx(want, abs=1e-12)


def test_transform_is_even_and_matches_quadrature(chi):
    s = 1.4
    assert chi.transform(-s) == pytest.approx(chi.transform(s), abs=1e-14)
    direct, err = quad(
        lambda x: 2.0 * chi.value(x) ** 2 * math.cos(s * x), 0.0, chi.support, limit=300
    )
    del err
    assert chi.transform(s) == pytest.approx(direct, abs=1e-9)


def test_weighted_transform_with_unit_envelope_matches_transform(chi):
    s = 0.9
    assert chi.weighted_transform(s, lambda x: 1.0) == pytest.approx(
        chi.transform(s), abs=1e-10
    )


def smoothstep_squared(chi, x):
    """``chi(x)^2`` of a smoothstep cutoff inside its transition, in scalar arithmetic."""
    t = (x - chi.plateau) / (chi.support - chi.plateau)
    lo, hi = math.exp(-1.0 / (1.0 - t)), math.exp(-1.0 / t)
    return (lo / (lo + hi)) ** 2


def plain_quad_transform(chi, s):
    """The transform with the transition integrated by plain adaptive quadrature
    of ``chi^2 cos(s x)``: no cosine-weighted rule, no Gauss-Legendre rule."""
    a, b = chi.plateau, chi.support
    head = 2.0 * a if s == 0.0 else 2.0 * math.sin(s * a) / s
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        tail, _ = quad(
            lambda x: 2.0 * smoothstep_squared(chi, x) * math.cos(s * x),
            a,
            b,
            limit=400,
            epsabs=1e-14,
            epsrel=1e-14,
        )
    return head + tail


def test_transform_where_cosine_weighted_quadpack_was_wrong():
    # s * (support - plateau) = 64: QUADPACK's cosine-weighted rule returned
    # 0.019140 here and estimated its own error at 8e-15
    value = cylinder.CutoffFamily(1.0, 1.4).transform(160)
    assert value == pytest.approx(4.53568e-6, rel=1e-5)
    assert value == pytest.approx(plain_quad_transform(cylinder.CutoffFamily(1.0, 1.4), 160.0), abs=1e-12)


@pytest.mark.parametrize(
    "family",
    [cylinder.CutoffFamily(0.8, 2.8)] + [cylinder.CutoffFamily.mollifier(j) for j in range(1, 5)],
    ids=["default", "mollifier-1", "mollifier-2", "mollifier-3", "mollifier-4"],
)
def test_transform_matches_plain_quadrature_on_integer_frequencies(family):
    s = np.arange(261)
    want = [plain_quad_transform(family, float(v)) for v in s]
    np.testing.assert_allclose(family.transform(s), want, rtol=0.0, atol=1e-12)


def test_scalar_arguments_give_floats_and_arrays_give_arrays(chi):
    assert type(chi.value(1.8)) is float
    assert type(chi.transform(1.4)) is float
    assert type(chi.transform(np.float64(1.4))) is float
    assert type(chi.weighted_transform(0.9, np.cos)) is float
    xs = np.array([-3.0, -1.8, 0.0, 0.8, 1.2, 2.79, 2.8])
    np.testing.assert_allclose(chi.value(xs), [chi.value(x) for x in xs], rtol=0.0, atol=1e-15)
    s = np.array([0.0, 1.4, -3.0, 17.5])
    np.testing.assert_allclose(chi.transform(s), [chi.transform(v) for v in s], rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(
        chi.weighted_transform(s, np.cos), [chi.weighted_transform(v, np.cos) for v in s], rtol=0.0, atol=1e-13
    )


def test_transform_refuses_rules_above_the_node_cap(chi):
    with pytest.raises(QuadratureAccuracyError, match="cap"):
        chi.transform(1e6)
    with pytest.raises(QuadratureAccuracyError):
        cylinder.quantizer_matrix_cyl(1e5, 0.0, chi, 8)


def test_coarse_fine_gap_guards_the_transform(chi, monkeypatch):
    monkeypatch.setattr(cylinder, "QUAD_TOLERANCE", 1e-18)  # below the rules' rounding
    with pytest.raises(QuadratureAccuracyError) as excinfo:
        chi.transform(np.arange(41.0))
    assert 1e-18 < excinfo.value.estimate < 1e-11


@given(s=st.floats(0, 8))
@settings(max_examples=20, deadline=None)
def test_transform_bounded_by_zero_frequency_value(s):
    fam = cylinder.CutoffFamily(0.8, 2.8)
    assert abs(fam.transform(s)) <= fam.transform(0.0) + 1e-12


# ---------------------------------------------------------------------------
# continuum kernel


def test_kernel_matrix_is_hermitian(chi):
    M = cylinder.quantizer_matrix_cyl(0.6, 1.1, chi, 12)
    assert hermiticity_defect(M) < 1e-12


def test_kernel_entry_matches_direct_integral(chi):
    M = cylinder.quantizer_matrix_cyl(0.0, 0.0, chi, 8)
    want, err = quad(
        lambda xi: 2.0 * chi.value(xi) ** 2 * math.cos(xi),
        0.0,
        chi.support,
        limit=200,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    del err
    assert M[8, 9].real == pytest.approx(want / math.pi, abs=1e-12)
    assert M[8, 9].imag == pytest.approx(0.0, abs=1e-14)


def test_raw_trace_near_one_with_wide_cutoff():
    wide = cylinder.CutoffFamily(0.8, 2.8)
    for p in (0.0, 0.77, -1.4):
        trace = cylinder.quantizer_trace_cyl(p, 0.3, wide, cylinder.MAX_TRUNCATION)
        assert trace == pytest.approx(1.0, abs=1e-8)


def test_truncation_cap_enforced(chi):
    with pytest.raises(ConfigError):
        cylinder.quantizer_matrix_cyl(0.0, 0.0, chi, cylinder.MAX_TRUNCATION + 1)


@pytest.mark.parametrize("m", range(4))
def test_polynomial_reproduction(chi, m):
    X = from_expression("cos(theta)", ("theta",))
    residual = cylinder.polynomial_reproduction_check(X, m, 2.0, 0.7, chi, 16)
    assert residual < 1e-6


def test_reproduction_rejects_negative_degree(chi):
    with pytest.raises(ConfigError):
        cylinder.polynomial_reproduction_check(constant(1, 1.0), -1, 0.0, 0.0, chi, 8)


def test_pair_trace_localizes_in_angle(chi):
    """Smearing against a bump shows support at coincident angles only."""
    p0, theta0 = 0.4, 0.9
    kwargs = dict(p_center=p0, theta_width=0.4, p_width=0.8)
    coincident = cylinder.pair_trace_smeared_cyl(
        p0, theta0, chi, 32, theta_center=theta0, **kwargs
    ).real
    quarter = cylinder.pair_trace_smeared_cyl(
        p0, theta0, chi, 32, theta_center=theta0 + math.pi / 2.0, **kwargs
    ).real
    assert coincident > 0.5
    assert abs(quarter) / coincident < 0.05


def test_periodic_test_function_properties():
    t = cylinder.periodic_test_function(0.9, 0.5)
    assert t(np.array([0.9]))[0] == pytest.approx(1.0)
    assert t(np.array([0.9 + 2 * math.pi]))[0] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ConfigError):
        cylinder.periodic_test_function(0.0, 0.0)


# ---------------------------------------------------------------------------
# discrete lattice kernel


def test_discrete_quantizer_closed_form():
    K, n, theta = 16, 2, 0.7
    M = cylinder.discrete_quantizer(n, theta, K)
    center = K + n
    # diagonal is a one-hot at the lattice momentum
    want = np.zeros(2 * K + 1)
    want[center] = 1.0
    np.testing.assert_allclose(np.diag(M).real, want, atol=1e-12)
    # first band carries (2/pi) e^{i theta}
    assert M[center, center + 1] == pytest.approx(
        (2.0 / math.pi) * np.exp(1j * theta), abs=1e-12
    )
    assert np.trace(M) == pytest.approx(1.0, abs=1e-12)
    assert hermiticity_defect(M) < 1e-12


def test_discrete_limit_errors_strictly_decrease():
    errors = cylinder.discrete_limit_check(3, 1.1, 32)
    assert len(errors) == 4
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_indicator_cutoff_reproduces_discrete_kernel():
    fam = cylinder.CutoffFamily(math.pi / 2.0, math.pi / 2.0, profile="indicator")
    continuum = cylinder.quantizer_matrix_cyl(3.0, 1.1, fam, 16)
    lattice = cylinder.discrete_quantizer(3, 1.1, 16)
    np.testing.assert_allclose(continuum, lattice, atol=1e-12)


def test_discrete_pair_trace_grows_linearly_in_truncation():
    same16 = cylinder.discrete_pair_trace(3, 3, 1.3, 1.3, 16).real
    same32 = cylinder.discrete_pair_trace(3, 3, 1.3, 1.3, 32).real
    assert same32 / same16 == pytest.approx(65.0 / 33.0, rel=0.2)


def test_smeared_diagonal_recovers_test_function():
    t = cylinder.periodic_test_function(0.9, 0.5)
    theta0 = 1.3
    got = cylinder.discrete_pair_trace_smeared(3, 3, theta0, t, 64).real
    want = 2.0 * math.pi * t(np.array([theta0]))[0]
    assert got == pytest.approx(want, rel=0.01)


def test_smeared_off_diagonal_is_suppressed():
    t = cylinder.periodic_test_function(0.9, 0.5)
    diag = cylinder.discrete_pair_trace_smeared(3, 3, 1.3, t, 64).real
    off = abs(cylinder.discrete_pair_trace_smeared(3, 6, 1.3, t, 64))
    assert off / abs(diag) < 0.05


def test_smeared_flat_function_gives_two_pi():
    flat = lambda angles: np.ones_like(angles, dtype=float)
    got = cylinder.discrete_pair_trace_smeared(2, 2, 0.4, flat, 48).real
    assert got == pytest.approx(2.0 * math.pi, abs=1e-8)


# ---------------------------------------------------------------------------
# quantization on the lattice


def test_momentum_functions_quantize_diagonally():
    for fn, label in (
        (lambda p, th: p, "p"),
        (lambda p, th: p * p, "p^2"),
    ):
        M = cylinder.discrete_quantize(fn, 16, 12)
        off = M - np.diag(np.diag(M))
        assert np.max(np.abs(off)) < 1e-12, label
        ks = np.arange(-12, 13, dtype=float)
        np.testing.assert_allclose(np.diag(M).real, [fn(k, 0.0) for k in ks], atol=1e-12)


def test_quantize_momentum_scales_with_hbar():
    M = cylinder.discrete_quantize(lambda p, th: p, 8, 6, hbar=0.5)
    ks = np.arange(-6, 7, dtype=float)
    np.testing.assert_allclose(np.diag(M).real, 0.5 * ks, atol=1e-12)


def test_quantize_warns_when_angle_variation_reaches_cap():
    with pytest.warns(UserWarning):
        cylinder.discrete_quantize(lambda p, th: math.cos(th), 2, 6)


def test_quantize_rejects_negative_cap():
    with pytest.raises(ConfigError):
        cylinder.discrete_quantize(lambda p, th: p, -1, 6)
