import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from conftest import partial, symbolic_jet, symbolic_levels, torus_model
from phasequant import curved, geometry, numdiff
from phasequant.errors import ChartDomainError, ConfigError, UnsupportedOrderError
from phasequant.expressions import Const
from phasequant.fields import from_callable, from_expression, tensor_from_fields


@pytest.fixture(scope="module")
def sphere():
    return geometry.sphere(1.0)


@pytest.fixture(scope="module")
def polar():
    return geometry.polar_plane()


def christoffel(model, q):
    """``Gamma^c_{ab}`` indexed ``[c, a, b]``, at a point or at each row of a point array."""
    return model._fields["gamma"].evaluate(q).real


def opaque_sphere(sphere):
    """The same metric as an opaque callable of one point."""
    return geometry.ManifoldModel(
        name="sphere-opaque", dim=2, coords=sphere.coords, metric_fn=lambda x: geometry.metric(sphere, x)
    )


# ---------------------------------------------------------------------------
# model construction and charts


@pytest.mark.parametrize(
    "name, dim, coord_names",
    [
        ("euclidean:1", 1, ("x",)),
        ("euclidean:3", 3, ("x", "y", "z")),
        ("circle", 1, ("theta",)),
        ("sphere:2.0", 2, ("theta", "phi")),
        ("polar-plane", 2, ("r", "phi")),
    ],
)
def test_manifold_parser(name, dim, coord_names):
    model = geometry.manifold(name)
    assert model.dim == dim
    assert tuple(c.name for c in model.coords) == coord_names


@pytest.mark.parametrize("name", ["euclidean:4", "sphere:-1", "torus", "sphere:abc"])
def test_manifold_parser_rejects(name):
    with pytest.raises(ConfigError):
        geometry.manifold(name)


def test_flat_flags():
    assert geometry.manifold("euclidean:2").flat
    assert geometry.manifold("circle").connection_free
    assert not geometry.manifold("sphere:1.0").flat
    # polar coordinates on the flat plane carry a nonzero connection
    polar = geometry.manifold("polar-plane")
    assert polar.flat and not polar.connection_free


def test_check_point_rejects_chart_boundary(sphere, polar):
    with pytest.raises(ChartDomainError):
        geometry.check_point(sphere, np.array([0.0, 0.0]))
    with pytest.raises(ChartDomainError):
        geometry.check_point(polar, np.array([-0.5, 0.0]))
    geometry.check_point(sphere, np.array([1.2, 0.3]))


# ---------------------------------------------------------------------------
# metric, connection, curvature


def test_sphere_metric_components(sphere):
    q = np.array([1.1, 0.4])
    g = geometry.metric(sphere, q)
    np.testing.assert_allclose(g, np.diag([1.0, math.sin(1.1) ** 2]), atol=1e-12)
    ginv = geometry.inverse_metric(sphere, q)
    np.testing.assert_allclose(g @ ginv, np.eye(2), atol=1e-12)
    assert math.sqrt(np.linalg.det(g)) == pytest.approx(math.sin(1.1))


def test_sphere_christoffel_closed_form(sphere):
    theta = 1.1
    gamma = christoffel(sphere, np.array([theta, 0.4]))
    assert gamma[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta), abs=1e-9)
    assert gamma[1, 0, 1] == pytest.approx(1.0 / math.tan(theta), abs=1e-9)
    assert gamma[1, 1, 0] == pytest.approx(1.0 / math.tan(theta), abs=1e-9)
    assert gamma[0, 0, 0] == pytest.approx(0.0, abs=1e-9)


def test_polar_christoffel_closed_form(polar):
    r = 1.3
    gamma = christoffel(polar, np.array([r, 0.6]))
    assert gamma[0, 1, 1] == pytest.approx(-r, abs=1e-9)
    assert gamma[1, 0, 1] == pytest.approx(1.0 / r, abs=1e-9)


def test_unit_sphere_ricci_equals_metric(sphere):
    for q in (np.array([1.1, 0.4]), np.array([2.0, -1.3])):
        np.testing.assert_allclose(
            geometry.ricci(sphere, q), geometry.metric(sphere, q), atol=1e-8
        )
    assert geometry.scalar_curvature(sphere, np.array([1.1, 0.4])) == pytest.approx(
        2.0, abs=1e-8
    )


def test_sphere_scalar_curvature_scales_inversely_with_radius_squared():
    big = geometry.sphere(2.0)
    assert geometry.scalar_curvature(big, np.array([1.1, 0.4])) == pytest.approx(
        0.5, abs=1e-8
    )


@pytest.mark.parametrize("name", ["euclidean:2", "circle", "polar-plane"])
def test_flat_models_have_zero_curvature(name):
    model = geometry.manifold(name)
    q = np.full(model.dim, 0.8)
    np.testing.assert_allclose(geometry.ricci(model, q), 0.0, atol=1e-9)
    np.testing.assert_allclose(geometry.riemann(model, q), 0.0, atol=1e-9)


def test_riemann_symmetries_on_sphere(sphere):
    q = np.array([1.3, -0.5])
    # lower the first index to expose the pair symmetries
    R = np.einsum("ae,ebcd->abcd", geometry.metric(sphere, q), geometry.riemann(sphere, q))
    np.testing.assert_allclose(R, -np.swapaxes(R, 0, 1), atol=1e-8)
    np.testing.assert_allclose(R, -np.swapaxes(np.swapaxes(R, 2, 3), 0, 0), atol=1e-8)
    np.testing.assert_allclose(R, np.transpose(R, (2, 3, 0, 1)), atol=1e-8)


# ---------------------------------------------------------------------------
# exponential map and normal frames


def series_endpoint(model, q, xi, order):
    """``q + r(xi)`` from the terms of :func:`geometry.exp_series` through ``order``."""
    total = np.array(q, dtype=float)
    for k, term in enumerate(numdiff.expand(geometry.exp_series(model, q, order), model.dim, order)):
        for _ in range(k):
            term = term @ xi
        total = total + term / math.factorial(k)
    return total


def test_euclidean_exp_is_translation():
    # r(xi) = E xi, the identity frame: every term past the linear one is exactly 0
    r = geometry.exp_series(geometry.euclidean_space(2), np.array([0.2, -0.4]), 4)
    np.testing.assert_array_equal(r[:, 1:3], np.eye(2))
    np.testing.assert_array_equal(np.delete(r, [1, 2], axis=1), 0.0)


def test_sphere_equator_geodesics(sphere):
    # from the equator, where the frame is the chart basis, the equator and a
    # meridian are geodesics whose series stop at the linear term
    q = np.array([math.pi / 2.0, 0.0])
    out = series_endpoint(sphere, q, np.array([0.0, 0.7]), 6)
    np.testing.assert_allclose(out, [math.pi / 2.0, 0.7], rtol=0, atol=1e-15)
    out = series_endpoint(sphere, q, np.array([-0.4, 0.0]), 6)
    np.testing.assert_allclose(out, [math.pi / 2.0 - 0.4, 0.0], rtol=0, atol=1e-15)


def test_normal_frame_orthonormalizes_metric(sphere, polar):
    for model, q in ((sphere, np.array([1.1, 0.4])), (polar, np.array([1.5, -0.7]))):
        E = geometry.normal_frame(model, q)
        np.testing.assert_allclose(
            E.T @ geometry.metric(model, q) @ E, np.eye(2), atol=1e-10
        )


def test_normal_coordinates_anchor_at_origin(sphere):
    # r(0) = 0, d exp_q(0) = E takes the metric to the identity, and the
    # geodesic equation's degree-2 part is d^2 r = -Gamma(E, E)
    q = np.array([1.1, 0.4])
    r = geometry.exp_series(sphere, q, 2)
    np.testing.assert_array_equal(r[:, 0], 0.0)
    J = r[:, 1:3]
    np.testing.assert_allclose(J.T @ geometry.metric(sphere, q) @ J, np.eye(2), rtol=0, atol=1e-15)
    want = -np.einsum("cij,ia,jb->cab", christoffel(sphere, q), J, J)
    np.testing.assert_allclose(numdiff.expand(r, 2, 2)[2], want, rtol=0, atol=1e-15)


def test_exp_series_runs_without_closed_form_geodesics(sphere, polar):
    # polar-plane geodesics are straight lines in Cartesian coordinates; the
    # series converges within the distance 1.5 to the origin
    q, xi = np.array([1.5, 0.3]), np.array([0.12, -0.09])
    radial, angular = np.array([math.cos(q[1]), math.sin(q[1])]), np.array([-math.sin(q[1]), math.cos(q[1])])
    end = q[0] * radial + xi[0] * radial + xi[1] * angular  # E xi is xi_0 e_r + xi_1 e_phi / r
    want = [math.hypot(*end), math.atan2(end[1], end[0])]
    np.testing.assert_allclose(series_endpoint(polar, q, xi, 10), want, rtol=0, atol=1e-12)
    # the opaque sphere's connection is one finite-difference level deep: the
    # terms of degree 3 and 4 read its first and second partials
    q = np.array([1.1, 0.4])
    got = geometry.exp_series(opaque_sphere(sphere), q, 4)
    np.testing.assert_allclose(got, geometry.exp_series(sphere, q, 4), rtol=0, atol=1e-8)


# ---------------------------------------------------------------------------
# volume-density jets


def test_sqrt_g_jet_flat_models_are_trivial():
    model = geometry.manifold("polar-plane")
    for power in (1.0, -0.5, -1.0):
        jets = geometry.sqrt_g_jet(model, np.array([1.2, 0.5]), max_order=3, power=power)
        assert float(jets[0]) == 1.0
        for k in (1, 2, 3):
            np.testing.assert_array_equal(jets[k], 0.0)


def reference_cases(sphere):
    """The unit sphere, the same metric given opaquely, and the torus at two points."""
    points = (np.array([1.1, 0.4]), np.array([0.7, 0.2]))
    return [(sphere, points[0]), (opaque_sphere(sphere), points[0]), (TORUS, points[0]), (TORUS, points[1])]


def test_sqrt_g_jet_numeric_matches_curvature_form(sphere):
    # (sqrt g)**power has the frame Hessian -(power/3) Ric: the pairing's
    # density (1) and half-density (-1/2), and the image's reciprocal (-1).
    # The numeric jets pull the metric back along the connection's geodesics
    # and agree to rounding; the opaque sphere's fourth jet reads its
    # connection's finite-difference jets through order 3.
    q = np.array([1.1, 0.4])
    ricci_frame = geometry.ricci_in_frame(sphere, q)
    exact, opaque = (1e-15, 1e-15, 2e-15, 2e-15, 2e-14), (1e-15, 1e-15, 1e-12, 1e-10, 1e-7)
    for power in (1.0, -0.5, -1.0):
        closed = geometry.sqrt_g_jet(sphere, q, max_order=2, method="curvature", power=power)
        np.testing.assert_allclose(closed[2], -(power / 3.0) * ricci_frame, atol=1e-15)
        for model, point in reference_cases(sphere):
            numeric = geometry.sqrt_g_jet(model, point, max_order=4, method="numeric", power=power)
            closed = geometry.sqrt_g_jet(model, point, max_order=4, power=power)
            for k, atol in enumerate(opaque if model.metric_exprs is None else exact):
                np.testing.assert_allclose(numeric[k], closed[k], rtol=0, atol=atol, err_msg=f"{model.name} {k}")


def test_sqrt_g_jet_rejects_unknown_method(sphere):
    with pytest.raises(ValueError):
        geometry.sqrt_g_jet(sphere, np.array([1.1, 0.4]), method="symbolic")


def test_sqrt_g_jet_error_types(sphere):
    q = np.array([1.1, 0.4])
    with pytest.raises(ConfigError):
        geometry.sqrt_g_jet(sphere, q, method="symbolic")
    # the normal-coordinate expansion of the metric stops at fourth order
    with pytest.raises(UnsupportedOrderError):
        geometry.sqrt_g_jet(sphere, q, max_order=5)


@pytest.mark.parametrize("radius", [1.0, 2.0])
@pytest.mark.parametrize("power", [1.0, -0.5, -1.0])
@pytest.mark.parametrize("q", [(1.1, 0.4), (1.5, 0.0), (2.3, -2.0)])
def test_sqrt_g_jet_matches_sphere_closed_form(radius, power, q):
    # On a sphere of radius a the density is (sin(r/a) / (r/a))**p in normal
    # coordinates, 1 + c2 r^2 + c4 r^4 + ..., with c2 = -p/(6 a^2) and
    # c4 = (p/120 + p(p-1)/72) / a^4.  Its fourth jet is
    # 8 c4 (delta delta + delta delta + delta delta); odd jets vanish.
    model = geometry.sphere(radius)
    jets = geometry.sqrt_g_jet(model, np.array(q), 4, power=power)
    c2 = -power / (6.0 * radius**2)
    c4 = (power / 120.0 + power * (power - 1.0) / 72.0) / radius**4
    eye = np.eye(2)
    pairs = np.einsum("ij,kl->ijkl", eye, eye)
    want = {
        2: 2.0 * c2 * eye,
        3: np.zeros((2,) * 3),
        4: 8.0 * c4 * (pairs + pairs.transpose(0, 2, 1, 3) + pairs.transpose(0, 2, 3, 1)),
    }
    for k, value in want.items():
        np.testing.assert_allclose(jets[k], value, rtol=0, atol=1e-12)


TORUS_NAMES = ("theta", "phi")
TORUS = torus_model()


def test_connection_jets_vanish_along_rays():
    # Normal coordinates make radial lines geodesics: Gamma~(xi)(xi, xi) = 0
    # at every xi, so each jet vanishes when symmetrized over its lower and
    # derivative axes.  On the torus, where nabla R does not vanish, this
    # checks the algebra that turns the metric series into connection jets.
    for q in (np.array([1.1, 0.4]), np.array([2.5, -1.0])):
        jets = geometry.normal_christoffel_jets(TORUS, q, 3)
        assert len(jets) == 4
        for k in range(1, 4):
            assert np.abs(jets[k]).max() > 0.05
            radial = np.stack([numdiff.symmetrize(jets[k][c]) for c in range(2)])
            np.testing.assert_allclose(radial, 0.0, rtol=0, atol=1e-12)


def test_normal_coordinate_series_match_integrated_geodesics():
    # An oracle independent of the curvature expansion and of the exp-map
    # series: geodesics and their Jacobians from q are integrated to 1e-13,
    # the endpoints are taken, the metric, three powers of the density and a
    # tensor are pulled back to normal coordinates, and their Taylor
    # coefficients along rays are read off polynomial fits.
    from numpy.polynomial import chebyshev
    from scipy.integrate import solve_ivp

    q = np.array([1.1, 0.4])
    gamma = TORUS._fields["gamma"]
    E = geometry.normal_frame(TORUS, q)

    def rhs(t, y):
        x, u, J, K = y[:2], y[2:4], y[4:8].reshape(2, 2), y[8:].reshape(2, 2)
        G, dG = (level.real for level in numdiff.expand(gamma.jet(x, 1), 2, 1))  # dG[c, a, b, e] = d_e G[c, a, b]
        dK = -np.einsum("cabe,a,b,ej->cj", dG, u, u, J) - 2.0 * np.einsum("cab,a,bj->cj", G, u, K)
        return np.concatenate([u, -np.einsum("cab,a,b->c", G, u, u), K.ravel(), dK.ravel()])

    entries = {(0, 0): "cos(theta)", (0, 1): "0.3*sin(phi)", (1, 1): "1 + phi"}
    X = tensor_from_fields(2, 2, lambda idx: from_expression(entries[idx], TORUS_NAMES))
    endpoint = numdiff.expand(geometry.exp_series(TORUS, q, 4), 2, 4)
    endpoint[0] = endpoint[0] + q
    metric_series = geometry.normal_metric_series(TORUS, q, 4)
    powers = (-0.5, 1.0, -1.0)
    density = [geometry.sqrt_g_jet(TORUS, q, 4, power=power) for power in powers]
    coeff = curved._coeff_jets(TORUS, q, X, 4, geometry.normal_christoffel_jets(TORUS, q, 3))
    half = 0.35
    nodes = half * np.cos(np.pi * (np.arange(21) + 0.5) / 21)
    for alpha in (0.0, 0.9, 2.0):
        u = np.array([math.cos(alpha), math.sin(alpha)])
        samples = []
        for t in nodes:
            y0 = np.concatenate([q, E @ (t * u), np.zeros(4), np.eye(2).ravel()])
            y = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-13, atol=1e-14).y[:, -1]
            J = y[4:8].reshape(2, 2) @ E
            g = J.T @ geometry.metric(TORUS, y[:2]) @ J
            Ji = np.linalg.inv(J)
            pulled = Ji @ X.evaluate(y[:2]).real @ Ji.T
            densities = [np.linalg.det(g) ** (power / 2.0) for power in powers]
            samples.append(np.concatenate([y[:2], g.ravel(), densities, pulled.ravel()]))
        fits = chebyshev.chebfit(nodes / half, np.array(samples), 14)
        poly = np.array([np.pad(chebyshev.cheb2poly(fits[:, i]), (0, 4))[:5] for i in range(fits.shape[1])])
        for k in range(5):
            along = [endpoint[k], numdiff.expand(metric_series.jet, 2, 4)[k], *[jets[k] for jets in density], coeff[k]]
            for _ in range(k):
                along = [a @ u for a in along]
            got = math.factorial(k) * poly[:, k] / half**k
            want = np.concatenate([along[0], along[1].ravel(), along[2:5], along[5].real.ravel()])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


# ---------------------------------------------------------------------------
# covariant derivatives


def test_second_covariant_derivative_of_scalar_is_symmetric(sphere):
    psi = from_expression("sin(theta)*cos(phi)", ("theta", "phi"))
    q = np.array([1.2, -0.6])
    hess = geometry.sym_cov_deriv(sphere, psi, q, 2)
    np.testing.assert_allclose(hess, hess.T, atol=1e-9)


def test_covariant_divergence_of_inverse_metric_vanishes(sphere):
    # finite-difference partials of g^{-1}, from the same metric given opaquely
    opaque = opaque_sphere(sphere)
    ginv = geometry.inverse_metric_field(opaque)
    div = geometry.covariant_divergence(sphere, ginv)
    for q in (np.array([1.1, 0.4]), np.array([2.0, -0.9])):
        np.testing.assert_allclose(div.evaluate(q), 0.0, atol=1e-7)
    # metric compatibility, exactly: every component of nabla g^{-1} vanishes
    for q in (np.array([1.1, 0.4]), np.array([2.0, -0.9])):
        full = geometry.covariant_jets(sphere, geometry.inverse_metric_field(sphere), 2, q, 0, 1)[1]
        assert full.shape == (2, 2, 2, 1)
        np.testing.assert_allclose(full, 0.0, atol=1e-13)


def test_covariant_derivative_index_order(sphere):
    # new covariant index last: nabla_e V^a sits at [a, e], and the divergence
    # is its trace
    V = from_expression("sin(theta)*cos(phi)", ("theta", "phi"))
    W = from_expression("cos(theta) + phi", ("theta", "phi"))
    comps = (V, W)
    q = np.array([1.2, -0.6])
    gamma = christoffel(sphere, q)
    vec = np.array([V(q), W(q)])
    partials = np.array([[partial(c, e)(q) for e in range(2)] for c in comps])
    want = partials + np.einsum("aeg,g->ae", gamma, vec)
    vector = tensor_from_fields(2, 1, lambda idx: comps[idx[0]])
    got = geometry.covariant_jets(sphere, vector, 1, q, 0, 1)[1][..., 0]
    np.testing.assert_allclose(got, want, atol=1e-14)
    div = geometry.covariant_divergence(sphere, vector)
    assert complex(div.evaluate(q)) == pytest.approx(np.trace(got), abs=1e-14)


def test_covariant_divergence_of_linear_vector_field():
    # X = (x, 3y) has divergence 4 on a Cartesian chart, with no connection terms
    euclid = geometry.manifold("euclidean:2")
    t = tensor_from_fields(2, 1, lambda idx: from_callable(2, lambda q, i=idx[0]: (q[0], 3.0 * q[1])[i]))
    div = geometry.covariant_divergence(euclid, t)
    assert div.rank == 0
    assert complex(div.evaluate(np.array([0.3, -0.2]))) == pytest.approx(4.0, abs=1e-9)
    with pytest.raises(ValueError):
        geometry.covariant_divergence(euclid, div)


def test_covariant_divergence_rejects_scalars(sphere):
    from phasequant.fields import constant

    with pytest.raises(ValueError):
        geometry.covariant_divergence(sphere, constant(2, 1.0))


def test_pullback_jet_matches_frame_covariant_derivatives(sphere):
    # d^k (psi o exp_q)(0) = Sym nabla^k psi for a torsion-free connection:
    # the series checks the covariant cascade against the connection's own
    # geodesics, on the opaque sphere through the same finite-difference jets
    for model, q in reference_cases(sphere):
        psi = from_expression("sin(theta)*cos(phi) + 0.3*cos(theta)", model.coordinate_names)
        jets = geometry.pullback_jet(model, psi, q, max_order=4)
        for order in range(5):
            want = geometry.sym_cov_deriv_in_frame(model, psi, q, order)
            np.testing.assert_allclose(jets[order], want, rtol=0, atol=1e-14, err_msg=f"{model.name} {order}")


def _sha256(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(np.asarray(arr) + 0.0).tobytes()).hexdigest()


# SHA-256 of the bytes of each series jet, negative zeros folded to +0.  The
# tolerance tests above bound the series against the curvature path; these
# pins catch any change in the arithmetic of the references, which moves the
# curved-defect report's values without moving them past a tolerance.
NUMERIC_DENSITY_JET_SHA256 = [
    "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
    "11f129ecde43dfd67b6e81c7a71e77524daa69329c3e5ae1195293e7686d791a",
]
PULLBACK_JET_SHA256 = [
    "8373b80abe61de1f8e46cd6b7da944d5e814fe56e8c709afab27b6e40ded4e8d",
    "3bda58a8d5a98961b8406d9e1f24ff507e5dd9c32e3ba32e6987f8c1e103cd71",
    "7b1c0f4d4b5a8b6d5d261fde73155e932672548d1bf3a3e677ece452ceff9f39",
    "2222f0a1ff0d3f079526ac603adfa03b3bbb84f8bdcc29e6ecfacca7e4fbeb24",
]


def test_numeric_density_jet_is_bit_identical_to_pointwise_evaluation():
    """Pins the values of the exp-series density jet on the unit sphere."""
    jets = geometry.sqrt_g_jet(geometry.manifold("sphere:1"), np.array([1.1, 0.4]), 2, method="numeric")
    assert [_sha256(jet) for jet in jets] == NUMERIC_DENSITY_JET_SHA256


def test_pullback_jet_is_bit_identical_to_pointwise_evaluation():
    """Pins the values of the exp-series pullback jet at the field and point
    of the curved-defect experiment's pullback-vs-covariant check."""
    model = geometry.manifold("sphere:1")
    psi = from_expression("sin(theta)*cos(phi) + 0.3*cos(theta)", model.coordinate_names)
    jets = geometry.pullback_jet(model, psi, np.array([1.1, 0.4]), 3)
    assert [_sha256(jet) for jet in jets] == PULLBACK_JET_SHA256


def test_covariant_derivative_reduces_to_partials_on_flat_space():
    model = geometry.euclidean_space(2)
    psi = from_expression("x**2*y", ("x", "y"))
    q = np.array([0.7, -0.3])
    hess = geometry.sym_cov_deriv(model, psi, q, 2)
    want = np.array([[2.0 * q[1], 2.0 * q[0]], [2.0 * q[0], 0.0]])
    np.testing.assert_allclose(np.asarray(hess, dtype=float), want, atol=1e-10)


# ---------------------------------------------------------------------------
# expression-derived geometry against hand-written closed forms


def sphere_closed_forms(a, theta):
    s, c = math.sin(theta), math.cos(theta)
    g = np.diag([a * a, a * a * s * s])
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 1] = -s * c
    gamma[1, 0, 1] = gamma[1, 1, 0] = c / s
    eye = np.eye(2)
    # R^r_{s m n} = (delta^r_m g_{s n} - delta^r_n g_{s m}) / a^2
    riemann = (np.einsum("rm,sn->rsmn", eye, g) - np.einsum("rn,sm->rsmn", eye, g)) / (a * a)
    return np.diag([1.0 / (a * a), 1.0 / (a * a * s * s)]), gamma, riemann, g / (a * a)


def polar_closed_forms(r):
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 1] = -r
    gamma[1, 0, 1] = gamma[1, 1, 0] = 1.0 / r
    return np.diag([1.0, 1.0 / (r * r)]), gamma, np.zeros((2,) * 4), np.zeros((2, 2))


@pytest.mark.parametrize(
    "name, q, closed",
    [
        ("sphere:1", (1.1, 0.4), lambda q: sphere_closed_forms(1.0, q[0])),
        ("sphere:1", (2.0, -1.3), lambda q: sphere_closed_forms(1.0, q[0])),
        ("sphere:2", (0.7, 2.5), lambda q: sphere_closed_forms(2.0, q[0])),
        ("sphere:2", (2.4, -0.2), lambda q: sphere_closed_forms(2.0, q[0])),
        ("polar-plane", (1.3, 0.6), lambda q: polar_closed_forms(q[0])),
        ("polar-plane", (0.7, -2.0), lambda q: polar_closed_forms(q[0])),
    ],
)
def test_expression_geometry_matches_closed_forms(name, q, closed):
    # Clearing the flat flag makes riemann/ricci evaluate the derived
    # expressions instead of returning zeros, so the polar chart checks the
    # curvature formula's signs: its terms cancel only when they are right.
    model = dataclasses.replace(geometry.manifold(name), flat=False)
    q = np.array(q)
    got = [f(model, q) for f in (geometry.inverse_metric, christoffel, geometry.riemann, geometry.ricci)]
    for value, want in zip(got, closed(q)):
        np.testing.assert_allclose(value, want, rtol=0, atol=1e-13)


def test_christoffel_field_partials_are_exact(sphere):
    gamma = sphere._fields["gamma"]
    d_theta, d_phi = partial(gamma, 0), partial(gamma, 1)
    d_theta_theta = partial(d_theta, 0)
    for theta in (0.6, 1.1, 2.3):
        q = np.array([theta, 0.4])
        first, second = d_theta.evaluate(q), d_theta_theta.evaluate(q)
        # d/dtheta (-sin cos) = -cos(2 theta); d/dtheta cot = -1/sin^2
        assert abs(first[0, 1, 1] + math.cos(2.0 * theta)) < 1e-13
        assert abs(first[1, 0, 1] + 1.0 / math.sin(theta) ** 2) < 1e-13
        assert abs(d_phi.evaluate(q)[1, 0, 1]) == 0.0
        # second partials: 2 sin(2 theta) and 2 cos / sin^3
        want = 2.0 * math.cos(theta) / math.sin(theta) ** 3
        assert abs(second[1, 0, 1] - want) < 1e-13 * abs(want)
        assert abs(second[0, 1, 1] - 2.0 * math.sin(2.0 * theta)) < 1e-13


def test_non_diagonal_expression_metric():
    # (u, v) -> (u + v^2/2, v) pulls the Euclidean metric back to a flat,
    # non-diagonal one with unit determinant and Gamma^u_{vv} = 1.
    names = ("u", "v")
    model = geometry.ManifoldModel(
        name="sheared-plane",
        dim=2,
        coords=tuple(geometry.CoordSpec(n) for n in names),
        metric_exprs=geometry._metric_exprs(names, [["1", "v"], ["v", "1 + v*v"]]),
    )
    gamma_want = np.zeros((2, 2, 2))
    gamma_want[0, 1, 1] = 1.0
    for q in (np.array([0.3, 0.8]), np.array([-1.0, -1.7])):
        v = q[1]
        np.testing.assert_allclose(geometry.metric(model, q), [[1.0, v], [v, 1.0 + v * v]], atol=0)
        np.testing.assert_allclose(geometry.inverse_metric(model, q), [[1.0 + v * v, -v], [-v, 1.0]], atol=1e-13)
        np.testing.assert_allclose(christoffel(model, q), gamma_want, atol=1e-13)
        np.testing.assert_allclose(geometry.riemann(model, q), 0.0, atol=1e-13)


def test_opaque_metric_falls_back_to_finite_differences(sphere):
    opaque = opaque_sphere(sphere)
    assert opaque.metric_exprs is None
    for q in (np.array([1.1, 0.4]), np.array([2.0, -1.3])):
        for quantity in (geometry.inverse_metric, christoffel, geometry.ricci, geometry.riemann):
            np.testing.assert_allclose(quantity(opaque, q), quantity(sphere, q), rtol=0, atol=1e-6)
        ginv_fd = partial(geometry.inverse_metric_field(opaque), 0).evaluate(q)[1, 1]
        ginv_exact = partial(geometry.inverse_metric_field(sphere), 0).evaluate(q)[1, 1]
        assert abs(ginv_fd - ginv_exact) < 1e-6


def test_manifold_model_needs_a_metric(sphere):
    with pytest.raises(ConfigError):
        geometry.ManifoldModel(name="empty", dim=1, coords=(geometry.CoordSpec("x"),))
    with pytest.raises(ConfigError, match="exactly one"):
        dataclasses.replace(sphere, metric_fn=lambda x: geometry.metric(sphere, x))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_connection_and_curvature_formulas_match_loop_reference(rng, dim):
    # Every model's levels come from these formulas on jets; check their values
    # against loops on float arrays, from jets through order 1 whose first
    # partials are the random arrays (dg[a, b, c] = d_c g_ab).
    g_inv, dg = rng.normal(size=(dim, dim)), rng.normal(size=(dim,) * 3)
    gamma, dgamma = rng.normal(size=(dim,) * 3), rng.normal(size=(dim,) * 4)
    gamma_want = np.zeros((dim,) * 3)
    riemann_want = np.zeros((dim,) * 4)
    r = range(dim)
    for c, a, b in itertools.product(r, r, r):
        gamma_want[c, a, b] = 0.5 * sum(g_inv[c, d] * (dg[d, b, a] + dg[d, a, b] - dg[a, b, d]) for d in r)
    for rr, s, m, n in itertools.product(r, r, r, r):
        riemann_want[rr, s, m, n] = dgamma[rr, n, s, m] - dgamma[rr, m, s, n] + sum(
            gamma[rr, m, l] * gamma[l, n, s] - gamma[rr, n, l] * gamma[l, m, s] for l in r
        )
    g_jet = np.concatenate([np.zeros((dim, dim, 1)), dg], axis=-1)  # the order-1 partials follow the value
    gamma_jet = np.concatenate([gamma[..., None], dgamma], axis=-1)
    got_gamma = geometry._christoffel_from(g_jet, g_inv[..., None], dim, 0)[..., 0]
    np.testing.assert_allclose(got_gamma, gamma_want, rtol=0, atol=1e-13)
    np.testing.assert_allclose(geometry._riemann_from(gamma_jet, dim, 0)[..., 0], riemann_want, rtol=0, atol=1e-13)


# a curved metric in three dimensions, which no built-in model covers: its
# connection has entries of every slot kind, and Ricci sums three terms
CURVED_3D = geometry.ManifoldModel(
    name="curved-3d",
    dim=3,
    coords=tuple(geometry.CoordSpec(n) for n in "xyz"),
    metric_exprs=geometry._metric_exprs(tuple("xyz"), [["1", "0", "0"], ["0", "1 + x*x", "0"], ["0", "0", "1 + y*y"]]),
)


@pytest.mark.parametrize("level", ["gamma", "riemann", "ricci"])
def test_three_dimensional_levels_match_symbolic_partials(level):
    # the Leibniz jets of the level nodes against loops over symbolic partials
    # of the same formulas, written out entry by entry on the expressions
    exprs = symbolic_levels(CURVED_3D)[level]
    assert any(not isinstance(e, Const) for e in exprs.flat)
    for q in (np.array([0.7, -0.4, 0.3]), np.array([-1.2, 0.9, 2.0])):
        got = CURVED_3D._fields[level].jet(q, 2)
        want = symbolic_jet(exprs, CURVED_3D.coordinate_names, q, 2)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    assert np.abs(geometry.ricci(CURVED_3D, q)).max() > 0.1


def test_three_dimensional_levels_on_a_point_array_equal_single_points():
    points = np.column_stack([np.linspace(-1.5, 1.5, 7), np.linspace(0.9, -0.6, 7), np.linspace(0.0, 2.0, 7)])
    for level, node in CURVED_3D._fields.items():
        got = node.jet(points, 2)
        want = np.stack([node.jet(x, 2) for x in points], axis=-2)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), level


# ---------------------------------------------------------------------------
# point stacks


def test_opaque_metric_on_a_point_stack_equals_single_calls(sphere):
    opaque = opaque_sphere(sphere)
    points = np.array([[1.1, 0.4], [2.0, -1.3], [0.7, 0.2]])
    # the g node of an opaque model holds metric_fn's values, bit for bit
    assert geometry.metric(opaque, points).tobytes() == np.array([opaque.metric_fn(x) for x in points]).tobytes()
    for model in (opaque, sphere, geometry.manifold("euclidean:2")):
        for fn in (geometry.metric, christoffel):
            stacked = fn(model, points)
            want = np.stack([fn(model, x) for x in points])
            assert stacked.shape == want.shape and stacked.tobytes() == want.tobytes()
