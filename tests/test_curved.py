import dataclasses
import gc
import hashlib
import math
import weakref

import numpy as np
import pytest

from conftest import skew_model, torus_model
from phasequant import curved, geometry, harness, numdiff
from phasequant.errors import ConfigError
from phasequant.fields import from_expression, tensor_from_fields
from phasequant.symbols import MomentumPolynomial, symbol_from_config

UNIT_SPHERE = geometry.sphere(1.0)
Q0 = np.array([1.1, 0.4])
P0 = np.array([0.3, -0.55])


def kinetic_energy(model):
    return symbol_from_config(model, {"coefficient": "inverse-metric", "degree": 2})


def coefficient_values(D, order, q):
    tensor = D.terms.get(order)
    if tensor is None:
        return np.zeros(())
    return np.asarray(tensor.evaluate(np.asarray(q, dtype=float)))


# ---------------------------------------------------------------------------
# volume-density jets


def reciprocal_volume_jets(model, q, max_order, method="curvature"):
    """Jets of ``sqrt(g(q)) / sqrt(g(xi))`` with chart derivative axes, as the
    image's jet contractions build them from the power -1 density jet."""
    Einv = np.linalg.inv(geometry.normal_frame(model, q))
    out = []
    for k, jet in enumerate(geometry.sqrt_g_jet(model, q, max_order, method, power=-1.0)):
        jet = np.asarray(jet, dtype=float)
        for axis in range(k):
            jet = np.moveaxis(np.tensordot(Einv, jet, axes=([0], [axis])), 0, axis)
        out.append(jet)
    return out


def test_volume_jets_trivial_on_flat_models():
    jets = reciprocal_volume_jets(geometry.polar_plane(), np.array([1.2, 0.5]), 2)
    assert float(jets[0]) == 1.0
    np.testing.assert_allclose(jets[1], 0.0, atol=0.0)
    np.testing.assert_allclose(jets[2], 0.0, atol=0.0)


def test_volume_jets_second_order_is_third_of_ricci():
    jets = reciprocal_volume_jets(UNIT_SPHERE, Q0, 2, method="curvature")
    np.testing.assert_allclose(jets[2], geometry.ricci(UNIT_SPHERE, Q0) / 3.0, atol=1e-9)


def test_volume_jets_numeric_agrees_with_curvature_form():
    # the numeric jets come from the connection's geodesic series, exact to rounding
    numeric = reciprocal_volume_jets(UNIT_SPHERE, Q0, 2, method="numeric")
    closed = reciprocal_volume_jets(UNIT_SPHERE, Q0, 2, method="curvature")
    assert float(numeric[0]) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(numeric[1], 0.0, atol=1e-15)
    np.testing.assert_allclose(numeric[2], closed[2], atol=1e-15)


@pytest.mark.parametrize("q", [Q0, np.array([1.5, 0.0])])
def test_volume_jets_fourth_order_on_unit_sphere(q):
    # r / sin r = 1 + r^2/6 + 7 r^4/360 in normal coordinates: the fourth
    # jet has 24 * 7/360 = 7/15 on each frame axis and 8 * 7/360 = 7/45 on
    # the mixed entries, and the third jet vanishes.
    frame = geometry.sqrt_g_jet(UNIT_SPHERE, q, 4, power=-1.0)
    np.testing.assert_allclose(frame[3], 0.0, rtol=0, atol=1e-12)
    want = np.zeros((2,) * 4)
    for idx in np.ndindex(want.shape):
        counts = sorted(idx.count(axis) for axis in range(2))
        want[idx] = {(0, 4): 7.0 / 15.0, (2, 2): 7.0 / 45.0}.get(tuple(counts), 0.0)
    np.testing.assert_allclose(frame[4], want, rtol=0, atol=1e-12)


def test_volume_jets_unknown_method():
    with pytest.raises(ConfigError):
        reciprocal_volume_jets(UNIT_SPHERE, Q0, 2, method="magic")


# ---------------------------------------------------------------------------
# image maps


def test_curved_image_reduces_to_flat_on_euclidean(rng):
    """On the line X(x) p^2 maps to the flat symmetric ordering
    -(X d^2 + X' d + X''/4)."""
    model = geometry.euclidean_space(1)
    X = from_expression("x**2 + 0.5*x", ("x",))
    f = MomentumPolynomial(1, {2: tensor_from_fields(1, 2, lambda idx: X)})
    D = curved.wue_weyl_image(model, f)
    x = float(rng.uniform(-1, 1))
    want = {2: -(x * x + 0.5 * x), 1: -(2.0 * x + 0.5), 0: -2.0 / 4.0}
    assert set(D.terms) == set(want)
    for order, value in want.items():
        got = complex(coefficient_values(D, order, np.array([x])).reshape(-1)[0])
        assert got == pytest.approx(value, abs=1e-12)


def test_linear_image_on_circle():
    """X(theta) p maps to -i hbar (X d + X'/2) on the flat circle."""
    model = geometry.circle()
    X = from_expression("cos(theta)", ("theta",))
    f = MomentumPolynomial(1, {1: tensor_from_fields(1, 1, lambda idx: X)})
    D = curved.wue_weyl_image(model, f)
    theta = 0.7
    q = np.array([theta])
    assert complex(coefficient_values(D, 1, q)[0]) == pytest.approx(-1j * math.cos(theta))
    assert complex(coefficient_values(D, 0, q)) == pytest.approx(0.5j * math.sin(theta))


def test_kinetic_symbol_contains_curvature_shift():
    f = curved.kinetic_symbol(UNIT_SPHERE, hbar=1.0)
    np.testing.assert_allclose(
        np.asarray(f.terms[2].evaluate(Q0)),
        geometry.inverse_metric(UNIT_SPHERE, Q0),
        atol=1e-9,
    )
    # divergence pieces vanish for a metric connection; the scalar shift is R/12
    assert complex(f.terms[0].evaluate(Q0)) == pytest.approx(2.0 / 12.0, abs=1e-7)
    if 1 in f.terms:
        np.testing.assert_allclose(f.terms[1].evaluate(Q0), 0.0, atol=1e-7)


def test_kinetic_symbol_image_is_pure_laplacian():
    """The image of the shifted kinetic symbol is exactly (hbar/i)^2 g der der."""
    for model in (UNIT_SPHERE, geometry.polar_plane()):
        for hbar in (1.0, 0.37):
            f = curved.kinetic_symbol(model, hbar)
            D = curved.wue_weyl_image(model, f, hbar)
            np.testing.assert_allclose(
                coefficient_values(D, 2, Q0),
                -hbar * hbar * geometry.inverse_metric(model, Q0),
                atol=1e-8,
            )
            np.testing.assert_allclose(coefficient_values(D, 1, Q0), 0.0, atol=1e-8)
            assert abs(complex(coefficient_values(D, 0, Q0))) < 1e-8


def test_kinetic_image_order_zero_carries_ricci_twelfth():
    """Without the shift, the image of |p|^2 picks up -(hbar^2/12) R."""
    D = curved.wue_weyl_image(UNIT_SPHERE, kinetic_energy(UNIT_SPHERE), 1.0)
    got = complex(coefficient_values(D, 0, Q0))
    R = geometry.scalar_curvature(UNIT_SPHERE, Q0)
    assert got.real == pytest.approx(-R / 12.0, abs=1e-6)
    assert abs(got.imag) < 1e-8


def test_measure_variant_rejects_unknown():
    with pytest.raises(ConfigError):
        curved.wue_weyl_image(UNIT_SPHERE, kinetic_energy(UNIT_SPHERE), 1.0, "uniform")


def test_emmrich_variant_drops_jet_corrections():
    D = curved.wue_standard_image(UNIT_SPHERE, kinetic_energy(UNIT_SPHERE), 1.0, "emmrich")
    # no jet contraction: order-0 term never appears for a pure degree-2 symbol
    assert 0 not in D.terms or abs(complex(coefficient_values(D, 0, Q0))) < 1e-12


# ---------------------------------------------------------------------------
# dequantization and the trace-axiom defect


def test_flat_round_trip_through_curved_pairing():
    model = geometry.euclidean_space(2)
    f = kinetic_energy(model)
    D = curved.wue_weyl_image(model, f)
    q = np.array([0.3, -0.8])
    p = np.array([0.7, 0.2])
    got = curved.dequantize_curved(model, D, p, q)
    assert got == pytest.approx(f.evaluate(p, q), abs=1e-10)
    # point-dependent degree-3 and degree-1 terms: the flat pairing is exact
    # at every order, not only through order 2
    cubic = from_expression("x*x*y + 0.5*sin(x)", model.coordinate_names)
    linear = from_expression("cos(y) - x", model.coordinate_names)
    f3 = MomentumPolynomial(
        2, {3: tensor_from_fields(2, 3, lambda idx: cubic), 1: tensor_from_fields(2, 1, lambda idx: linear)}
    )
    D3 = curved.wue_weyl_image(model, f3)
    for q, p in ((q, p), (np.array([-1.1, 0.4]), np.array([-0.5, 1.3]))):
        assert abs(curved.dequantize_curved(model, D3, p, q) - f3.evaluate(p, q)) <= 1e-12


def test_defect_on_unit_sphere_is_two_thirds():
    d = curved.axiom_defect(UNIT_SPHERE, kinetic_energy(UNIT_SPHERE), P0, Q0)
    assert d.real == pytest.approx(2.0 / 3.0, rel=1e-6)
    assert abs(d.imag) < 1e-10


def test_defect_scales_with_hbar_squared():
    d = curved.axiom_defect(UNIT_SPHERE, kinetic_energy(UNIT_SPHERE), P0, Q0, hbar=0.5)
    assert d.real == pytest.approx(2.0 / 3.0 * 0.25, rel=1e-6)


def test_defect_vanishes_on_flat_polar_chart(monkeypatch):
    # Flat charts take the curvature-exact pairing: exact covariant jets of
    # the coefficients, no finite differences even where the chart connection
    # is nonzero.
    def forbidden(*args, **kwargs):
        raise AssertionError("finite differences on a flat expression-built chart")

    monkeypatch.setattr(numdiff, "partials", forbidden)
    model = geometry.polar_plane()
    for q in (np.array([1.2, 0.5]), np.array([0.7, -2.1])):
        d = curved.axiom_defect(model, kinetic_energy(model), P0, q)
        assert abs(d) <= 1e-14


# R = -2 on the hyperbolic half-plane
HALF_PLANE = geometry.ManifoldModel(
    name="half-plane",
    dim=2,
    coords=(geometry.CoordSpec("x"), geometry.CoordSpec("y", 0.0, math.inf)),
    metric_exprs=geometry._metric_exprs(("x", "y"), [["1/(y*y)", "0"], ["0", "1/(y*y)"]]),
)
TORUS = torus_model()
EQ_2_46_POINTS = [
    (TORUS, (1.1, 0.4), 4.0 * math.cos(1.1) / (1.0 + 0.5 * math.cos(1.1))),  # R = 1.479
    (TORUS, (2.5, 0.1), 4.0 * math.cos(2.5) / (1.0 + 0.5 * math.cos(2.5))),  # R = -5.346
    (TORUS, (math.pi / 2.0, 0.3), 0.0),  # the top circle, between R > 0 outside and R < 0 inside
    (HALF_PLANE, (0.2, 0.9), -2.0),
    (HALF_PLANE, (-0.4, 2.0), -2.0),
]


@pytest.mark.parametrize("hbar", [1.0, 0.3])
@pytest.mark.parametrize(
    "model, q, R", EQ_2_46_POINTS, ids=[f"{m.name}-{q[0]:.3g}-{q[1]:.3g}" for m, q, _ in EQ_2_46_POINTS]
)
def test_defect_is_a_third_of_the_curvature_where_it_is_zero_or_negative(model, q, R, hbar):
    # Eq 2.46 at every point and momentum, not only on round spheres: the defect
    # of the kinetic symbol is hbar^2 R / 3, to 1e-12 relative, or 1e-14 absolute where R = 0
    f, want = kinetic_energy(model), hbar * hbar * R / 3.0
    for p in ([0.3, -0.55], [1.2, 0.4], [-0.7, 0.9]):
        d = curved.axiom_defect(model, f, np.array(p), np.array(q), hbar)
        assert abs(d - want) <= (1e-12 * abs(want) if R else 1e-14), (p, d, want)


def test_emmrich_defect_also_two_thirds_for_kinetic_symbol():
    d = curved.axiom_defect(
        UNIT_SPHERE, kinetic_energy(UNIT_SPHERE), P0, Q0, measure_variant="emmrich"
    )
    assert abs(d) > 0.1


def test_sphere_defect_takes_no_finite_differences(monkeypatch):
    # Expression-built geometry differentiates symbolically all the way down;
    # finite differences are left to opaque metrics.
    def forbidden(*args, **kwargs):
        raise AssertionError("finite differences on an expression-built model")

    monkeypatch.setattr(numdiff, "partials", forbidden)
    model = geometry.manifold("sphere:1.0")
    d = curved.axiom_defect(model, kinetic_energy(model), P0, Q0)
    assert abs(d - 2.0 / 3.0) <= 1e-15


def test_curved_defect_experiment_takes_no_finite_differences(monkeypatch):
    # every check of the default run reads exact jets of the sphere's metric
    # expressions, the references along the connection's geodesic series too
    def forbidden(*args, **kwargs):
        raise AssertionError("finite differences in the curved-defect experiment")

    for name in ("partials", "jet", "jacobian"):
        monkeypatch.setattr(numdiff, name, forbidden)
    report = harness.run_experiment(harness.ExperimentConfig.from_dict({"experiment": "curved-defect"}))
    assert len(report.records) == 12
    assert all(record.passed for record in report.records)


# ---------------------------------------------------------------------------
# third- and fourth-order operators on curved models


def cos_theta_symbol(model, degree):
    return symbol_from_config(model, {"coefficient": "cos-theta", "degree": degree})


def test_degree_three_sphere_dequantization_is_real_and_matches_finite_differences():
    # The finite-difference pairing of earlier versions read
    # 0.19637888683737148 - 1.79e-5 i; the exact result is real.
    f = cos_theta_symbol(UNIT_SPHERE, 3)
    value = curved.dequantize_curved(UNIT_SPHERE, curved.wue_weyl_image(UNIT_SPHERE, f), P0, Q0)
    assert abs(value.imag) <= 1e-12
    assert abs(value.real - 0.19637888683737148) <= 1e-4


def test_higher_order_curved_pairing_takes_no_finite_differences(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("finite differences on an expression-built model")

    for name in ("partials", "jet", "jacobian"):
        monkeypatch.setattr(numdiff, name, forbidden)
    for degree in (3, 4):
        f = cos_theta_symbol(UNIT_SPHERE, degree)
        assert abs(curved.dequantize_curved(UNIT_SPHERE, curved.wue_weyl_image(UNIT_SPHERE, f), P0, Q0)) > 0.1


def test_flat_polar_pairing_is_exact_at_third_order():
    model = geometry.polar_plane()
    coefficient = from_expression("r*cos(phi) + 0.5*r*r", model.coordinate_names)
    f = MomentumPolynomial(2, {3: tensor_from_fields(2, 3, lambda idx: coefficient)})
    D = curved.wue_weyl_image(model, f)
    for q in (np.array([1.2, 0.5]), np.array([0.7, -2.1])):
        assert abs(curved.dequantize_curved(model, D, P0, q) - f.evaluate(P0, q)) <= 1e-12


def opaque_unit_sphere():
    return geometry.ManifoldModel(
        name="sphere-opaque", dim=2, coords=UNIT_SPHERE.coords, metric_fn=lambda x: geometry.metric(UNIT_SPHERE, x)
    )


def dequantized_cos_theta(model, degree):
    return curved.dequantize_curved(model, curved.wue_weyl_image(model, cos_theta_symbol(model, degree)), P0, Q0)


def test_opaque_metric_takes_the_same_path_with_finite_difference_curvature():
    exact, numeric = (dequantized_cos_theta(model, 3) for model in (UNIT_SPHERE, opaque_unit_sphere()))
    assert abs(numeric - exact) <= 1e-8


def test_opaque_metric_takes_finite_differences_one_level_deep(monkeypatch):
    # Every partial of the opaque model's connection and curvature fields is
    # a sum of products of single stencils of metric_fn; a finite difference
    # taken of finite-difference values would nest calls of numdiff.partials.
    depth = [0, 0]  # current, deepest
    partials = numdiff.partials

    def counted(*args, **kwargs):
        depth[0] += 1
        depth[1] = max(depth)
        try:
            return partials(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(numdiff, "partials", counted)
    dequantized_cos_theta(opaque_unit_sphere(), 3)
    assert depth[1] == 1


def test_opaque_metric_degree_four_pairing_matches_the_exact_one():
    exact, numeric = (dequantized_cos_theta(model, 4) for model in (UNIT_SPHERE, opaque_unit_sphere()))
    assert abs(numeric - exact) <= 2e-7


@pytest.mark.parametrize(
    "opaque, degree, want",
    [
        (False, 2, -0.24293860716396415 + 5.551115123125783e-17j),
        (False, 3, 0.19637883416752233 + 4.440892098500626e-16j),
        (False, 4, 0.5815017430772351 + 1.942890293094024e-15j),
        (True, 3, 0.1963788341692425 + 2.142632737900385e-10j),
    ],
)
def test_cos_theta_pairing_is_pinned_bit_for_bit(opaque, degree, want):
    # refactors of the series algebra keep every bit of the pairing
    model = opaque_unit_sphere() if opaque else UNIT_SPHERE
    assert dequantized_cos_theta(model, degree) == want


# SHA-256 of the reprs of the inverse-metric defect at p and 0.5 p on sphere:1.0 at (1.1, 0.4), for the
# momenta default_rng(seed).uniform(-1, 1, 2), seeds 1-8: the p-scan of the benchmark's curved-defect pass
DEFECT_P_SCAN_SHA256 = "6ef3146a0a0725b4e498904638a7f44599bf52848bdb6db0936056a0c76ace84"


def test_the_defect_p_scan_is_pinned_bit_for_bit():
    # the spread of this scan is one ulp on some seeds and none on others, so a
    # change of rounding anywhere in the pairing shows here first
    reprs = []
    for seed in range(1, 9):
        model = geometry.manifold("sphere:1.0")
        f = kinetic_energy(model)
        p = np.random.default_rng(seed).uniform(-1.0, 1.0, 2)
        reprs += [repr(curved.axiom_defect(model, f, scale * p, Q0, 1.0)) for scale in (1.0, 0.5)]
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == DEFECT_P_SCAN_SHA256


def test_one_pairing_computes_one_frame_and_one_inverse_per_point(monkeypatch):
    counts = {"gram_schmidt": 0, "inv": 0}

    def counted(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(geometry, "_gram_schmidt", counted("gram_schmidt", geometry._gram_schmidt))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    model = geometry.sphere(1.0)
    assert dequantized_cos_theta(model, 4) == 0.5815017430772351 + 1.942890293094024e-15j
    assert counts == {"gram_schmidt": 1, "inv": 1}
    E, Einv = geometry.frame(model, Q0)
    assert geometry.normal_frame(model, Q0) is E
    for array in (E, Einv):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    other = np.array([1.9, -0.9])
    curved.dequantize_curved(model, curved.wue_weyl_image(model, cos_theta_symbol(model, 4)), P0, other)
    assert counts == {"gram_schmidt": 2, "inv": 2}
    assert geometry.normal_frame(model, other) is not E
    np.testing.assert_allclose(E.T @ geometry.metric(model, Q0) @ E, np.eye(2), atol=1e-15)
    copy = dataclasses.replace(model)  # the memo takes no part in equality, hashing or repr
    assert copy._frame == (None, None) and copy == model and hash(copy) == hash(model)
    assert repr(copy) == repr(model) and "_frame" not in repr(model)


def test_opaque_metric_is_called_once_per_stencil_node():
    # g and g^-1 are components of one jet of (metric_fn, inv(metric_fn)); the
    # pairing reads it at q at the top order first, so every later jet of the
    # metric, its inverse, connection and curvature reads the same nodes
    nodes = []

    def metric_fn(x):
        nodes.append(np.asarray(x, dtype=float).tobytes())
        return geometry.metric(UNIT_SPHERE, x)

    model = geometry.ManifoldModel(name="sphere-opaque", dim=2, coords=UNIT_SPHERE.coords, metric_fn=metric_fn)
    value = dequantized_cos_theta(model, 3)
    assert abs(value - dequantized_cos_theta(UNIT_SPHERE, 3)) <= 1e-8
    assert len(nodes) == len(set(nodes)) == 29  # the stencil nodes of a third-order jet in two dimensions
    # the values themselves are metric_fn and its inverse at q, bit for bit
    g = geometry.metric(UNIT_SPHERE, Q0)
    assert geometry.metric(model, Q0).tobytes() == g.tobytes()
    assert geometry.inverse_metric(model, Q0).tobytes() == np.linalg.inv(g).tobytes()


def test_pairing_leaves_little_cyclic_garbage():
    # fields hold no reference cycles, so a run frees its field trees by
    # reference counting alone
    from phasequant import harness

    gc.collect()
    gc.disable()
    try:
        harness.run_experiment(harness.ExperimentConfig.from_dict(harness.default_config("flat-axioms")))
        dequantized_cos_theta(geometry.sphere(1.0), 4)
        found = gc.collect()
    finally:
        gc.enable()
    assert found <= 300


# ---------------------------------------------------------------------------
# the pairing remembered at a point, the image remembered by its symbol

SCAN_SCALES = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)
SCAN_MODELS = {"sphere": lambda: geometry.sphere(1.0), "opaque-sphere": opaque_unit_sphere, "skew": skew_model}


def scan_symbol(model, degree, source="0.4 + cos({a})*{b}"):
    a, b = model.coordinate_names
    return symbol_from_config(model, {"coefficient": "custom:" + source.format(a=a, b=b), "degree": degree})


def fresh_defect(make_model, degree, p, q=Q0, hbar=1.0, measure="paper", source="0.4 + cos({a})*{b}"):
    # a new model, symbol and image: no memo of an earlier call can take part
    model = make_model()
    f = scan_symbol(model, degree, source)
    D = curved.wue_weyl_image(model, f, hbar, measure)
    return f.evaluate(p, q) - curved.dequantize_curved(model, D, p, q, hbar, measure)


@pytest.mark.parametrize("degree", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(SCAN_MODELS))
def test_a_p_scan_through_one_image_equals_fresh_calls_bit_for_bit(name, degree):
    make_model = SCAN_MODELS[name]
    model = make_model()
    f = scan_symbol(model, degree)
    for measure in curved.MEASURE_VARIANTS:
        scan = [curved.axiom_defect(model, f, t * P0, Q0, measure_variant=measure) for t in SCAN_SCALES]
        fresh = [fresh_defect(make_model, degree, t * P0, measure=measure) for t in SCAN_SCALES]
        assert np.array(scan).tobytes() == np.array(fresh).tobytes(), measure


def test_the_memos_give_the_fresh_value_after_each_switch_and_back():
    sources = ("0.4 + cos({a})*{b}", "sin({a}) + 0.2*{b}")
    models = {1.0: geometry.sphere(1.0), 2.0: geometry.sphere(2.0)}
    symbols = {source: scan_symbol(models[1.0], 3, source) for source in sources}  # one symbol on both spheres
    base = {"radius": 1.0, "source": sources[0], "q": Q0, "hbar": 1.0, "measure": "paper"}
    switches = {"q": np.array([1.9, -0.9]), "radius": 2.0, "source": sources[1], "hbar": 0.5, "measure": "emmrich"}

    def check(radius, source, q, hbar, measure):
        got = curved.axiom_defect(models[radius], symbols[source], P0, q, hbar, measure)
        want = fresh_defect(lambda: geometry.sphere(radius), 3, P0, q, hbar, measure, source)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    check(**base)
    for key, value in switches.items():
        check(**{**base, key: value})
        check(**base)


def test_an_operator_remembers_its_pairing_per_model_and_point():
    # the operator's memo is keyed by the model's identity too: the image of
    # the unit sphere paired on the polar plane at the same chart point is its
    # fresh value there
    def fresh_pairing(make_model):
        D = curved.wue_weyl_image(geometry.sphere(1.0), scan_symbol(geometry.sphere(1.0), 2))
        return curved.dequantize_curved(make_model(), D, P0, Q0)

    sphere, plane = geometry.sphere(1.0), geometry.polar_plane()
    want = {sphere: fresh_pairing(lambda: geometry.sphere(1.0)), plane: fresh_pairing(geometry.polar_plane)}
    assert want[sphere] != want[plane]
    D = curved.wue_weyl_image(sphere, scan_symbol(sphere, 2))
    for model in (sphere, plane, sphere):
        assert curved.dequantize_curved(model, D, P0, Q0) == want[model]


def test_the_remembered_pairing_is_read_only():
    f = scan_symbol(UNIT_SPHERE, 3)
    curved.axiom_defect(UNIT_SPHERE, f, P0, Q0)
    D = f._image[3]
    E, h_rev, sqrt_g, collected = D._pairing[2]
    arrays = [E, h_rev.jet, sqrt_g.jet, *(series.jet for series in collected.values())]
    assert len(arrays) == 3 + len(collected) > 3
    for array in arrays:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0


def test_each_memo_holds_one_entry():
    sphere, other = geometry.sphere(1.0), geometry.sphere(2.0)
    f = scan_symbol(sphere, 2)
    curved.axiom_defect(sphere, f, P0, Q0)
    image, pairing = weakref.ref(f._image[3]), weakref.ref(f._image[3]._pairing[2][2])
    curved.axiom_defect(sphere, f, 0.5 * P0, Q0)
    assert f._image[3] is image()  # one image and one pairing per p-scan
    assert f._image[3]._pairing[2][2] is pairing()
    curved.axiom_defect(other, f, P0, Q0)
    assert image() is None and pairing() is None

    D = curved.wue_weyl_image(sphere, f)
    curved.dequantize_curved(sphere, D, P0, Q0)
    pairing = weakref.ref(D._pairing[2][2])
    curved.dequantize_curved(sphere, D, P0, np.array([1.9, -0.9]))
    assert pairing() is None
