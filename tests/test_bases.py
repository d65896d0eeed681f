import math

import numpy as np
import pytest

from phasequant import bases


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
