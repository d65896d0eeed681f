import math

import mpmath
import numpy as np
import pytest

from phasequant import bases, harness

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


CLENSHAW_CURTIS_SIZES = (1, 2, 3, 16, 64, 65, 512)


@pytest.mark.parametrize("n", CLENSHAW_CURTIS_SIZES)
def test_clenshaw_curtis_rule_nests_in_the_rule_of_twice_the_intervals(n):
    # the cutoff transforms take one cosine table at the fine nodes for both rules
    assert np.array_equal(bases.clenshaw_curtis(2 * n)[0][::2], bases.clenshaw_curtis(n)[0])


@pytest.mark.parametrize("n", CLENSHAW_CURTIS_SIZES)
def test_clenshaw_curtis_rule_is_symmetric_and_integrates_polynomials(n):
    u, w = bases.clenshaw_curtis(n)
    assert u.shape == w.shape == (n + 1,)
    assert u[0] == -1.0 and u[-1] == 1.0 and np.all(np.diff(u) > 0)
    assert np.array_equal(u, -u[::-1]) and np.array_equal(w, w[::-1])
    if n % 2 == 0:
        assert u[n // 2] == 0.0
    assert np.all(w > 0.0)
    assert abs(math.fsum(w) - 2.0) <= 4.5e-16  # within one ulp of 2
    for k in range(n + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(w @ u**k - exact) <= 1e-15, k


def test_clenshaw_curtis_weights_match_the_closed_form():
    # Trefethen, Spectral Methods in MATLAB (SIAM 2000), clencurt: O(n^2) cosine sums
    n = 16
    theta = math.pi * np.arange(n + 1) / n
    interior = np.ones(n - 1)
    for k in range(1, n // 2):
        interior -= 2.0 * np.cos(2 * k * theta[1:-1]) / (4 * k * k - 1)
    interior -= np.cos(n * theta[1:-1]) / (n * n - 1)
    want = np.concatenate([[1.0 / (n * n - 1)], 2.0 * interior / n, [1.0 / (n * n - 1)]])
    u, w = bases.clenshaw_curtis(n)
    np.testing.assert_allclose(u, -np.cos(theta), rtol=0.0, atol=4e-16)
    np.testing.assert_allclose(w, want, rtol=0.0, atol=4e-16)


def test_clenshaw_curtis_rule_is_cached_and_read_only():
    u, w = bases.clenshaw_curtis(128)
    again = bases.clenshaw_curtis(128)
    assert again[0] is u and again[1] is w
    assert not u.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0


HERMITE_SIZES = (1, 2, 3, 24, 33, 132, 404)


def mpmath_hermite_rule(n, u):
    """40-digit Gauss-Hermite nodes and weights next to the double nodes ``u``.

    One Newton step on the monic recurrence in 40-digit arithmetic takes a
    node good to 1e-15 to the root; the weight ``||m_{n-1}||^2 / (m_{n-1}
    m_n')`` is carried there to first order (``m_n''`` from Hermite's
    equation).
    """
    with mpmath.workdps(40):
        x = np.array([mpmath.mpf(float(v)) for v in u], dtype=object)
        p0, p1 = np.full(len(u), mpmath.mpf(1), dtype=object), x
        for k in range(1, n):
            p0, p1 = p1, x * p1 - mpmath.mpf(k) / 2 * p0
        dp = n * p0
        dx = p1 / dp
        dp_at_root = dp - dx * (2 * x * dp - 2 * n * p1)
        norm = mpmath.sqrt(mpmath.pi) * mpmath.factorial(n - 1) / mpmath.mpf(2) ** (n - 1)
        return x - dx, n * norm / (dp_at_root * dp_at_root)


@pytest.mark.parametrize("n", HERMITE_SIZES)
def test_gauss_hermite_matches_mpmath(n):
    u, w = bases.gauss_hermite(n)
    half = slice(n // 2, None)
    nodes, weights = mpmath_hermite_rule(n, u[half])
    for x, wx, node, weight in zip(u[half], w[half], nodes, weights):
        assert abs(float(node) - x) <= 4e-16 * max(1.0, x)
        if weight > 1e-290:  # a normal double, not near underflow
            assert abs(float((weight - wx) / weight)) <= 1e-13
        else:  # a weight below the smallest double underflows to 0, never to NaN
            assert 0.0 <= wx <= 1e-290


@pytest.mark.parametrize("n", HERMITE_SIZES)
def test_gauss_hermite_rule_is_symmetric_and_integrates_polynomials(n):
    u, w = bases.gauss_hermite(n)
    assert u.shape == w.shape == (n,)
    assert np.all(np.diff(u) > 0)
    assert np.array_equal(u, -u[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
    if n % 2:
        assert u[n // 2] == 0.0
    assert abs(math.fsum(w) - math.sqrt(math.pi)) <= 4e-16
    for k in range(0, min(2 * n, 40), 2):  # integral u^k exp(-u^2) = Gamma((k + 1) / 2)
        assert abs(w @ u**k - math.gamma((k + 1) / 2)) <= 1e-14 * math.gamma((k + 1) / 2), k


def test_gauss_hermite_moments():
    """The rule integrates monomials against exp(-u^2) exactly."""
    u, w = bases.gauss_hermite(24)
    assert w @ np.ones_like(u) == pytest.approx(math.sqrt(math.pi), abs=1e-12)
    assert w @ u == pytest.approx(0.0, abs=1e-12)
    assert w @ u**2 == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)
    assert w @ u**4 == pytest.approx(3.0 * math.sqrt(math.pi) / 4.0, abs=1e-11)


def test_gauss_hermite_rule_is_cached_and_read_only():
    u, w = bases.gauss_hermite(33)
    again = bases.gauss_hermite(33)
    assert again[0] is u and again[1] is w
    assert not u.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        u[0] = 0.0


# ---------------------------------------------------------------------------
# the tabulated rules

NEWTON = {"legendre": (bases._legendre_newton, 2.0), "hermite": (bases._hermite_newton, math.sqrt(math.pi))}
BUILDERS = {"legendre": bases.gauss_legendre, "hermite": bases.gauss_hermite}
TABULATED = [(family, int(n)) for family, n in (name.split("_") for name in sorted(bases._rule_table()))]


@pytest.mark.parametrize("family, n", TABULATED)
def test_a_tabulated_rule_is_its_newton_output_bit_for_bit(family, n):
    newton, total = NEWTON[family]
    stored, want = bases._rule_table()[f"{family}_{n}"], np.stack(newton(n))
    assert stored.dtype == want.dtype and stored.shape == want.shape == (2, (n + 1) // 2)
    assert stored.tobytes() == want.tobytes()
    for got, mirrored in zip(BUILDERS[family](n), bases._mirrored_rule(n, *newton(n), total)):
        assert got.tobytes() == mirrored.tobytes()


@pytest.mark.parametrize("family", BUILDERS)
def test_a_size_outside_the_table_takes_newton(family, monkeypatch):
    calls, newton = [], getattr(bases, f"_{family}_newton")
    monkeypatch.setattr(bases, f"_{family}_newton", lambda n: calls.append(n) or newton(n))
    builder, inside = BUILDERS[family], next(n for f, n in TABULATED if f == family)
    builder.cache_clear()
    builder(inside)
    builder(inside + 1)
    assert calls == [inside + 1]


def test_the_default_flat_runs_read_every_rule_from_the_table(monkeypatch):
    """flat-axioms and orderings build all their Gauss rules from the table, and
    take every rule in it: a change of their default sizes fails here until
    ``scripts/tabulate_rules.py`` is run again."""

    def refuse(n):
        raise AssertionError(f"Newton iteration for a rule of {n} nodes")

    monkeypatch.setattr(bases, "_legendre_newton", refuse)
    monkeypatch.setattr(bases, "_hermite_newton", refuse)
    for builder in BUILDERS.values():
        builder.cache_clear()
    for name in ("flat-axioms", "orderings"):
        assert harness.run_experiment(harness.ExperimentConfig.from_dict(harness.default_config(name))).passed
    for family, builder in BUILDERS.items():
        assert builder.cache_info().currsize == sum(f == family for f, _ in TABULATED)


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
    points, weights = basis.quadrature(160, 5)
    vals = basis.table(points, 5, 0)[0]
    assert vals.shape == (6, 160)
    gram = np.einsum("i,ji,ki->jk", weights, vals, vals)
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-9)


def test_hermite_ladder_derivative_matches_finite_difference():
    basis = bases.HermiteBasis(hbar=0.7)
    x0, h = 0.4, 1e-5
    values = basis.table(np.array([[x0 - h], [x0], [x0 + h]]), 3, 1)
    fd = (values[0, :, 2] - values[0, :, 0]) / (2 * h)
    np.testing.assert_allclose(values[1, :, 1], fd, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("K, finite", [(bases.MAX_HERMITE_TRUNCATION, True), (bases.MAX_HERMITE_TRUNCATION + 1, False)])
def test_hermite_table_is_finite_up_to_its_cap(K, finite):
    # a first-order operator matrix reads h_0..h_{K+1} at the 8K nodes of its fine rule
    basis = bases.HermiteBasis()
    points, _ = basis.quadrature(8 * K, K)
    with np.errstate(all="ignore"):
        assert np.all(np.isfinite(basis.table(points, K, 1))) == finite


def test_hermite_oscillator_eigenvalues():
    """-hbar^2/2 h_k'' + x^2/2 h_k = hbar (k + 1/2) h_k pointwise."""
    hbar = 1.0
    x = np.array([[0.3], [-1.1]])
    h, _, d2 = bases.HermiteBasis(hbar).table(x, 4, 2)
    lhs = -0.5 * hbar * hbar * d2 + 0.5 * x[:, 0] ** 2 * h
    want = hbar * (np.arange(5) + 0.5)[:, None] * h
    np.testing.assert_allclose(lhs, want, rtol=0.0, atol=1e-12)


def test_fourier_modes_orthonormal():
    # the Galerkin matrix of the coefficient 1 is the Gram matrix of the modes
    basis = bases.FourierBasis()
    points, weights = basis.quadrature(64, 3)
    gram = basis.galerkin(points, np.ones((1, 64)), weights, 3)
    assert gram.shape == (7, 7)
    np.testing.assert_allclose(gram, np.eye(7), rtol=0.0, atol=1e-15)


def test_fourier_galerkin_matches_direct_exponentials():
    # one FFT per order against the node-by-node sum of conj(phi_j) values[r]
    # (i k)^r phi_k, with every coefficient harmonic up to the grid's Nyquist
    # frequency present, so the Toeplitz read-out aliases as the sum does
    basis, K, nodes = bases.FourierBasis(), 64, 768
    points, weights = basis.quadrature(nodes, K)
    theta = points[:, 0]
    values = np.array([np.exp(np.cos(theta + r)) * (1.0 + 0.5j * np.sin(3 * theta)) for r in range(4)])
    got = basis.galerkin(points, values, weights, K)
    k = np.arange(-K, K + 1)
    if np.finfo(np.longdouble).eps < 1e-18:  # an extended long double gives the modes past double rounding
        k, theta, values = k.astype(np.longdouble), theta.astype(np.longdouble), values.astype(np.clongdouble)
    modes = np.exp(1j * np.outer(k, theta)) / np.sqrt(2.0 * np.pi)
    dphi = sum(values[r] * (1j * k[:, None]) ** r * modes for r in range(4))
    want = (modes.conj() * (2.0 * np.pi / nodes)) @ dphi.T
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_fourier_mode_derivative_chain():
    # (-i d)^r has the matrix diag(k^r)
    basis, K = bases.FourierBasis(), 5
    points, weights = basis.quadrature(32, K)
    k = np.arange(-K, K + 1)
    for r in range(5):
        values = np.zeros((r + 1, 32), dtype=complex)
        values[r] = (-1j) ** r
        np.testing.assert_allclose(basis.galerkin(points, values, weights, K), np.diag(k**r), rtol=0.0, atol=1e-13)
