import math

import mpmath
import numpy as np
import pytest

from phasequant import bases

LEGENDRE_SIZES = (1, 2, 3, 64, 65, 512)


def mpmath_legendre_rule(n, u):
    """40-digit Gauss-Legendre nodes and weights next to the double nodes ``u``.

    One Newton step on the recurrence in 40-digit arithmetic takes a node
    good to 1e-16 to the root, and the weight is carried there to first order.
    """
    with mpmath.workdps(40):
        x = np.array([mpmath.mpf(float(v)) for v in u], dtype=object)
        p0, p1 = np.full(len(u), mpmath.mpf(1), dtype=object), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        s = 1 - x * x
        dp = n * (p0 - x * p1) / s
        dx = p1 / dp
        weight_denominator = s * dp * dp - dx * (2 * x * dp * dp - 2 * n * (n + 1) * p1 * dp)
        return x - dx, 2 / weight_denominator


@pytest.mark.parametrize("n", LEGENDRE_SIZES)
def test_gauss_legendre_matches_mpmath(n):
    u, w = bases.gauss_legendre(n)
    half = slice(n // 2, None)  # the other half mirrors it (see the symmetry test)
    nodes, weights = mpmath_legendre_rule(n, u[half])
    assert max(abs(float(a - b)) for a, b in zip(nodes, u[half])) <= 2e-16
    assert max(abs(float((a - b) / a)) for a, b in zip(weights, w[half])) <= 1e-12


@pytest.mark.parametrize("n", LEGENDRE_SIZES)
def test_gauss_legendre_rule_is_symmetric_and_integrates_polynomials(n):
    u, w = bases.gauss_legendre(n)
    assert u.shape == w.shape == (n,)
    assert np.all(np.diff(u) > 0)
    assert np.array_equal(u, -u[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        assert u[n // 2] == 0.0
    assert abs(math.fsum(w) - 2.0) <= 4e-16
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(w @ u**k - exact) <= 1e-14, k


def test_gauss_legendre_rule_is_cached_and_read_only():
    u, w = bases.gauss_legendre(96)
    again = bases.gauss_legendre(96)
    assert again[0] is u and again[1] is w
    assert not u.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_gauss_hermite_moments():
    """The rule integrates monomials against exp(-u^2) exactly."""
    u, w = bases.gauss_hermite(24)
    assert w @ np.ones_like(u) == pytest.approx(math.sqrt(math.pi), abs=1e-12)
    assert w @ u == pytest.approx(0.0, abs=1e-12)
    assert w @ u**2 == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)
    assert w @ u**4 == pytest.approx(3.0 * math.sqrt(math.pi) / 4.0, abs=1e-11)


def test_gauss_hermite_rule_is_cached_and_read_only():
    u, w = bases.gauss_hermite(33)
    assert bases.gauss_hermite(33)[0] is u
    assert not u.flags.writeable and not w.flags.writeable
    want_u, want_w = np.polynomial.hermite.hermgauss(33)
    np.testing.assert_array_equal(u, want_u)
    np.testing.assert_array_equal(w, want_w)
    with pytest.raises(ValueError):
        u[0] = 0.0


def test_hermite_polynomials_orthonormal_under_gaussian_weight():
    K = 8
    u, w = bases.gauss_hermite(40)
    P = bases.hermite_polynomial_values(K, u)
    gram = np.einsum("i,ji,ki->jk", w, P, P)
    np.testing.assert_allclose(gram, np.eye(K + 1), atol=1e-10)


def test_hermite_polynomial_recurrence_start():
    vals = bases.hermite_polynomial_values(1, np.array([0.0, 1.0]))
    assert vals[0, 0] == pytest.approx(math.pi**-0.25)
    assert vals[1, 0] == pytest.approx(0.0)
    assert vals[1, 1] == pytest.approx(math.sqrt(2.0) * math.pi**-0.25)


@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_hermite_functions_orthonormal_on_the_line(hbar):
    basis = bases.HermiteBasis(hbar=hbar)
    fns = basis.fields(5)
    points, weights = basis.quadrature(160, 5)
    vals = np.array([[f(x) for x in points] for f in fns])
    gram = np.einsum("i,ji,ki->jk", weights, np.conj(vals), vals)
    np.testing.assert_allclose(gram.real, np.eye(6), atol=1e-9)
    np.testing.assert_allclose(gram.imag, 0.0, atol=1e-12)


def test_hermite_ladder_derivative_matches_finite_difference():
    f = bases.hermite_function(3, hbar=0.7)
    df = f.partial(0)
    x0, h = 0.4, 1e-5
    fd = (f(np.array([x0 + h])) - f(np.array([x0 - h]))) / (2 * h)
    assert complex(df(np.array([x0]))) == pytest.approx(complex(fd), abs=1e-8)


def test_hermite_oscillator_eigenvalues():
    """-hbar^2/2 h_k'' + x^2/2 h_k = hbar (k + 1/2) h_k pointwise."""
    hbar = 1.0
    for k in (0, 1, 4):
        f = bases.hermite_function(k, hbar)
        d2 = f.partial(0).partial(0)
        for x0 in (0.3, -1.1):
            q = np.array([x0])
            lhs = -0.5 * hbar * hbar * complex(d2(q)) + 0.5 * x0 * x0 * complex(f(q))
            want = hbar * (k + 0.5) * complex(f(q))
            assert lhs == pytest.approx(want, abs=1e-12)


def test_fourier_modes_orthonormal():
    basis = bases.FourierBasis()
    fns = basis.fields(3)
    assert len(fns) == 7
    points, weights = basis.quadrature(64, 3)
    vals = np.array([[f(x) for x in points] for f in fns])
    gram = np.einsum("i,ji,ki->jk", weights, np.conj(vals), vals)
    np.testing.assert_allclose(gram, np.eye(7), atol=1e-12)


def test_fourier_mode_derivative_chain():
    f = bases.fourier_mode(-2)
    df = f.partial(0)
    q = np.array([0.9])
    assert complex(df(q)) == pytest.approx(-2j * complex(f(q)), abs=1e-14)


def test_fourier_indices_run_symmetrically():
    assert bases.FourierBasis.indices(2) == [-2, -1, 0, 1, 2]
