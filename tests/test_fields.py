import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import skew_model, symbolic_jet, symbolic_levels
from phasequant import bases, fields, geometry, numdiff, symbols, taylor


def test_constant_field_and_zero_derivative():
    f = fields.constant(2, 3.5)
    assert f(np.array([0.1, -2.0])) == 3.5
    assert f.partial(0)(np.array([1.0, 1.0])) == 0.0
    assert f.partial(1).partial(0)(np.zeros(2)) == 0.0


def test_expression_field_has_exact_partials():
    f = fields.from_expression("sin(x)*y + y**2", ("x", "y"))
    q = np.array([0.7, -1.2])
    assert f(q) == pytest.approx(math.sin(0.7) * -1.2 + 1.44)
    assert f.partial(0)(q) == pytest.approx(math.cos(0.7) * -1.2, abs=1e-14)
    assert f.partial(1)(q) == pytest.approx(math.sin(0.7) - 2.4, abs=1e-14)
    assert f.partial(0).partial(1)(q) == pytest.approx(math.cos(0.7), abs=1e-14)


def _field_kinds():
    f = fields.from_expression("sin(x)*y + y**3", ("x", "y"))
    g = fields.from_expression("cos(x*y)", ("x", "y"))
    return {
        "expression": f,
        "callable": fields.from_callable(2, lambda q: math.exp(0.3 * q[0]) * q[1]),
        "constant": fields.constant(2, 1.5),
        "scale": fields.scale(f, -2.0),
        "add": fields.add(f, g),
        "multiply": fields.contract(g, f),  # a rank-0 weight: the product f g
    }


@pytest.mark.parametrize("kind", sorted(_field_kinds()))
def test_mixed_partials_are_symmetric_by_construction(kind):
    # a jet stores each mixed partial once, so every order of the same
    # partials reads the same number
    f = _field_kinds()[kind]
    q = np.array([0.7, -0.4])
    assert f.partial(0).partial(1)(q) == f.partial(1).partial(0)(q)
    assert f.partial(1).partial(0).partial(1)(q) == f.partial(0).partial(1).partial(1)(q)
    for k, arr in enumerate(numdiff.expand(f.jet(q, 3), 2, 3)):
        for perm in itertools.permutations(range(k)):
            assert np.array_equal(arr, arr.transpose(perm))


def _sin_derivative(k: float, m: float, orders: tuple[int, int], q: np.ndarray) -> float:
    """``d^orders sin(k x + m y)``."""
    i, j = orders
    return k**i * m**j * math.sin(k * q[0] + m * q[1] + 0.5 * math.pi * (i + j))


@pytest.mark.parametrize("orders", [(3, 0), (2, 1), (1, 2), (0, 3), (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)])
def test_high_mixed_partials_of_a_product(orders):
    # sin(x + 2y) cos(3x - y) = (sin(4x + y) + sin(-2x + 3y)) / 2
    a = fields.from_expression("sin(x + 2*y)", ("x", "y"))
    prod = fields.contract(fields.from_expression("cos(3*x - y)", ("x", "y")), a)
    q = np.array([0.7, -0.4])
    want = 0.5 * (_sin_derivative(4, 1, orders, q) + _sin_derivative(-2, 3, orders, q))
    chained = prod
    for axis in (0,) * orders[0] + (1,) * orders[1]:
        chained = chained.partial(axis)
    assert abs(chained(q) - want) < 1e-12


# The bases hand operator matrices the derivatives of Fourier modes and
# Hermite functions, as coefficient fields hand them their own.


def test_fourier_mode_derivative_chain_matches_closed_form():
    # the Galerkin matrix of d^n is diag((i k)^n)
    basis = bases.FourierBasis()
    points, weights = basis.quadrature(16, 3)
    for n in range(5):
        values = np.zeros((n + 1, 16))
        values[n] = 1.0
        matrix = basis.galerkin(points, values, weights, 3)
        assert abs(matrix[6, 6] - (3j) ** n) < 1e-12 * 3**n  # row 6 holds k = 3
        assert np.max(np.abs(matrix - np.diag(np.diag(matrix)))) < 1e-12 * 3**n


@pytest.mark.parametrize("k, hbar", [(0, 1.0), (2, 1.0), (5, 0.7)])
def test_hermite_derivative_chain_matches_closed_form(k, hbar):
    # h_k(x) = hbar^(-1/4) H_k(u) exp(-u^2/2) / sqrt(2^k k! sqrt(pi)), u = x / sqrt(hbar),
    # and d/dx (p(u) exp(-u^2/2)) = (p'(u) - u p(u)) exp(-u^2/2) / sqrt(hbar)
    poly = np.polynomial.Hermite.basis(k).convert(kind=np.polynomial.Polynomial)
    poly = poly / math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi))
    u_poly = np.polynomial.Polynomial([0.0, 1.0])
    xs = np.array([-1.3, 0.2, 2.1])
    table = bases.HermiteBasis(hbar).table(xs.reshape(-1, 1), k, 4)
    for n in range(5):
        for x, got in zip(xs, table[n, k]):
            u = x / math.sqrt(hbar)
            want = hbar**-0.25 * hbar ** (-n / 2) * poly(u) * math.exp(-0.5 * u * u)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))
        poly = poly.deriv() - u_poly * poly


def test_callable_field_merges_derivative_stencils():
    f = fields.from_callable(1, lambda q: math.exp(0.5 * q[0]))
    second = f.partial(0).partial(0)
    assert second(np.array([0.4])) == pytest.approx(
        0.25 * math.exp(0.2), abs=1e-8
    )


def test_callable_field_order_cap():
    f = fields.from_callable(1, lambda q: q[0] ** 2)
    g = f
    for _ in range(4):
        g = g.partial(0)
    with pytest.raises(ValueError):
        g.partial(0)


def test_combinators_obey_calculus(rng):
    f = fields.from_expression("sin(x)", ("x",))
    g = fields.from_expression("x**2 + 1", ("x",))
    q = np.array([float(rng.uniform(-1, 1))])
    x = q[0]

    total = fields.add(f, fields.scale(g, -2.0))
    assert total(q) == pytest.approx(math.sin(x) - 2 * (x * x + 1))
    assert total.partial(0)(q) == pytest.approx(math.cos(x) - 4 * x, abs=1e-13)

    prod = fields.contract(g, f)
    want = math.cos(x) * (x * x + 1) + math.sin(x) * 2 * x
    assert prod.partial(0)(q) == pytest.approx(want, abs=1e-13)


def test_scale_by_zero_shortcuts_to_constant():
    f = fields.from_expression("x**3", ("x",))
    z = fields.scale(f, 0.0)
    assert z(np.array([2.0])) == 0.0
    assert z.partial(0)(np.array([2.0])) == 0.0


def test_add_requires_an_argument():
    with pytest.raises(ValueError):
        fields.add()


@given(x=st.floats(-2, 2), a=st.floats(-2, 2), b=st.floats(-2, 2))
@settings(max_examples=25, deadline=None)
def test_product_rule_property(x, a, b):
    f = fields.from_expression(f"{a!r}*x + 1", ("x",))
    g = fields.from_expression(f"x**2 + {b!r}", ("x",))
    got = fields.contract(g, f).partial(0)(np.array([x]))
    want = a * (x * x + b) + (a * x + 1) * 2 * x
    assert got == pytest.approx(want, abs=1e-9, rel=1e-9)


# ---------------------------------------------------------------------------
# tensors


def test_tensor_shape_validation():
    comps = np.empty((2,), dtype=object)
    comps[:] = [fields.constant(2, 1.0)] * 2
    with pytest.raises(ValueError):
        fields.stack(2, 2, comps)


def test_tensor_from_fields_shares_symmetric_slots():
    assigned = []
    t = fields.tensor_from_fields(
        2, 2, lambda idx: assigned.append(idx) or fields.constant(2, float(sum(idx)))
    )
    assert assigned == [(0, 0), (0, 1), (1, 1)]  # one field per sorted index
    vals = t.evaluate(np.zeros(2))
    np.testing.assert_allclose(vals.real, [[0.0, 1.0], [1.0, 2.0]])


def test_tensor_constant_symmetrizes_input():
    t = fields.constant(2, np.array([[0.0, 2.0], [0.0, 0.0]]))
    np.testing.assert_allclose(t.evaluate(np.zeros(2)).real, [[0.0, 1.0], [1.0, 0.0]])


def test_rank_three_constant_reads_each_entry_at_its_sorted_index():
    # the symmetrization adds its six permutations in a different order for
    # some permuted entries, so their last bits differ before the read
    values = 0.1 * np.arange(8.0).reshape(2, 2, 2)
    symmetric = numdiff.symmetrize(values.astype(complex))
    assert any(symmetric[idx].tobytes() != symmetric[tuple(sorted(idx))].tobytes() for idx in np.ndindex(2, 2, 2))
    t = fields.constant(2, values)
    assert t.rank == 3
    for q in (PLANE[3], PLANE[:5]):
        jet = t.jet(q, 2)
        for idx in np.ndindex(2, 2, 2):
            assert jet[idx].tobytes() == jet[tuple(sorted(idx))].tobytes()
    at_point = t.evaluate(PLANE[3])
    assert all(row.tobytes() == at_point.tobytes() for row in t.evaluate(PLANE[:5]))
    assert at_point[0, 0, 1] == symmetric[0, 0, 1]


def test_a_bare_scalar_field_is_a_symbol_term():
    f = fields.from_expression("sin(x)*y", ("x", "y"))
    symbol = symbols.MomentumPolynomial(2, {0: f, 1: fields.constant(2, np.array([1.0, -2.0]))})
    p = np.array([0.3, 0.5])
    assert symbol.evaluate(p, PLANE[3]) == pytest.approx(f(PLANE[3]) - 0.7, abs=1e-15)
    values = symbol.evaluate(np.tile(p, (len(PLANE), 1)), PLANE)
    assert values.tobytes() == np.array([symbol.evaluate(p, x) for x in PLANE]).tobytes()
    assert symbols.CovariantOperator(2, {0: f}).terms[0] is f


def test_tensor_scalar_rank_zero():
    t = fields.constant(3, 7.0)
    assert t.rank == 0
    assert complex(t.evaluate(np.zeros(3))) == 7.0


def test_tensor_add_and_scale():
    a = fields.constant(2, np.array([1.0, -1.0]))
    b = fields.constant(2, np.array([0.5, 0.5]))
    total = fields.add(a, fields.scale(b, 2.0))
    np.testing.assert_allclose(total.evaluate(np.zeros(2)).real, [2.0, 0.0])
    with pytest.raises(ValueError):
        fields.add(a, fields.constant(2, 1.0))


def test_contract_against_manual(rng):
    names = ("x", "y")
    t = fields.tensor_from_fields(
        2, 3, lambda idx: fields.from_expression(["x*y", "sin(x)", "y**2", "cos(y) + x"][sum(idx)], names)
    )
    entries = [[fields.from_expression(e, names) for e in row] for row in (["0.5", "x - y"], ["x*x", "2"])]
    contracted = fields.contract(t, fields.stack(2, 2, entries))
    assert contracted.rank == 1
    q = rng.uniform(-1, 1, size=2)
    w = np.array([[f(q) for f in row] for row in entries])
    manual = np.tensordot(w, t.evaluate(q), axes=([0, 1], [0, 1]))
    np.testing.assert_allclose(contracted.evaluate(q), manual, rtol=0, atol=1e-14)
    # the partials are exact: product rule over the weight and tensor fields
    dw = np.array([[f.partial(0)(q) for f in row] for row in entries])
    dt = t.partial(0).evaluate(q)
    want = np.tensordot(dw, t.evaluate(q), axes=([0, 1], [0, 1])) + np.tensordot(w, dt, axes=([0, 1], [0, 1]))
    got = contracted.partial(0).evaluate(q)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_contract_with_no_slots_scales():
    t = fields.constant(2, np.array([1.0, 2.0]))
    weight = fields.constant(2, 3.0)
    np.testing.assert_array_equal(fields.contract(t, weight).evaluate(np.zeros(2)), [3.0, 6.0])


def test_field_remembers_its_value_at_the_last_point():
    calls = []

    def counted(q):
        calls.append(tuple(q))
        return q[0] * q[1]

    base = fields.from_callable(2, counted)
    tree = fields.add(fields.contract(base, base), fields.scale(base, 2.0))
    q, q2 = np.array([0.3, -0.7]), np.array([0.1, 0.2])
    value = tree(q)
    assert tree(q) == value
    assert calls == [(0.3, -0.7)]  # the shared subtree and the repeat call reuse one value
    assert tree(q2) == 0.1 * 0.2 * (0.1 * 0.2) + 2.0 * (0.1 * 0.2)
    assert tree(q) == value
    assert calls == [(0.3, -0.7), (0.1, 0.2), (0.3, -0.7)]
    calls.clear()
    points = np.array([q, q2])
    tree(points)
    tree(points)
    # a point array is remembered as a point is: one call of ``base`` per row
    assert calls == [(0.3, -0.7), (0.1, 0.2)]
    calls.clear()
    # a point and a one-row array with the same bytes are separate keys
    tree(q)
    tree(q[None, :])
    tree(q[None, :])
    assert calls == [(0.3, -0.7)] * 2


def test_evaluate_on_a_stack_matches_single_points():
    # every level of an expression and of an opaque model, and the fourth
    # density jet, which reads nabla nabla R through the connection's jets
    sphere = geometry.sphere()
    opaque = geometry.ManifoldModel(
        name="sphere-opaque", dim=2, coords=sphere.coords, metric_fn=lambda x: geometry.metric(sphere, x)
    )
    points = np.column_stack([np.linspace(0.4, 2.7, 11), np.linspace(-3.0, 3.0, 11)])
    cases = [(f"{model.name} {level}", node) for model in (sphere, opaque) for level, node in model._fields.items()]
    cases.append(("density k=4", geometry.density_jet_fields(sphere, 4, -1.0)))
    for label, node in cases:
        got = node.evaluate(points)
        want = np.array([node.evaluate(x) for x in points])
        assert got.shape == (len(points),) + (2,) * node.rank, label
        assert got.tobytes() == want.tobytes(), label


# ---------------------------------------------------------------------------
# evaluation on point arrays

LINE = np.linspace(-2.3, 2.9, 37).reshape(-1, 1)
PLANE = np.column_stack([np.linspace(0.2, 1.4, 29), np.linspace(-3.0, 3.0, 29)])


def assert_array_equals_points(field, points):
    """``field(points)`` must hold exactly the values of ``field(x)``, bit for bit."""
    got = field(points)
    want = np.array([field(x) for x in points], dtype=complex)
    assert isinstance(got, np.ndarray) and got.dtype == complex and got.shape == (len(points),)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "source",
    ["sin(x)*y + cos(x*y)/(1 + y*y)", "cos(2*x - y) - 3*sin(y)*sin(x)", "2.5", "y"],
)
def test_expression_field_on_point_array(source):
    f = fields.from_expression(source, ("x", "y"))
    for field in (f, f.partial(0), f.partial(1).partial(0), f.partial(1).partial(1).partial(1)):
        assert_array_equals_points(field, PLANE)


def test_point_evaluation_still_returns_a_complex_number():
    f = fields.from_expression("sin(x)*y", ("x", "y"))
    assert type(f(PLANE[3])) is complex
    assert type(fields.constant(2, 1.5)(PLANE[3])) is complex


def test_constant_field_on_point_array():
    assert_array_equals_points(fields.constant(2, 3.5 - 1.0j), PLANE)
    assert_array_equals_points(fields.constant(2, 3.5).partial(1), PLANE)


def test_combinators_on_point_array():
    f = fields.from_expression("sin(x)*y", ("x", "y"))
    g = fields.from_expression("cos(y) + x", ("x", "y"))
    one = fields.constant(2, 0.25j)
    combos = [
        fields.scale(f, 0.3 - 1.7j),
        fields.add(f, g, one),
        fields.contract(g, fields.scale(f, 1j)),
        fields.contract(fields.scale(g, -2.0), fields.add(f, one)),
    ]
    for field in combos:
        assert_array_equals_points(field, PLANE)
        assert_array_equals_points(field.partial(0).partial(1), PLANE)


def assert_table_columns_are_pointwise(basis, K, points):
    """Each node's column of a basis table is, bit for bit, the table at that node alone."""
    table = basis.table(points, K, 3)
    for i, x in enumerate(points):
        np.testing.assert_array_equal(table[:, :, i], basis.table(x[None], K, 3)[:, :, 0])


@pytest.mark.parametrize("k, hbar", [(0, 1.0), (3, 0.7), (6, 1.3)])
def test_hermite_function_on_point_array(k, hbar):
    assert_table_columns_are_pointwise(bases.HermiteBasis(hbar), k, LINE)


def test_callable_field_loops_over_point_array():
    calls = []

    def fn(q):
        calls.append(q.shape)
        return math.exp(0.5 * q[0]) * q[1]

    f = fields.from_callable(2, fn)
    assert_array_equals_points(f, PLANE)
    assert set(calls) == {(2,)}  # the opaque callable only ever sees single points
    assert_array_equals_points(f.partial(0), PLANE[:5])


# ---------------------------------------------------------------------------
# jets

SPHERE_POINT = np.array([1.1, 0.4])


@pytest.mark.parametrize("level", ["gamma", "g_inv"])
def test_expression_jet_matches_the_symbolic_partials(level):
    # the reference differentiates each entry's expression, built by loops on
    # the metric expressions, along the first axis last: the reverse of the
    # order the jet of an expression takes
    sphere = geometry.sphere()
    exprs = symbolic_levels(sphere)[level]
    want = symbolic_jet(exprs, sphere.coordinate_names, SPHERE_POINT, 4)
    jet = sphere._fields[level].jet(SPHERE_POINT, 4)
    assert jet.shape == want.shape
    for idx in np.ndindex(want.shape):
        assert abs(jet[idx] - want[idx]) <= 1e-13 * max(1.0, abs(want[idx]))


def test_callable_jet_is_the_stencil_partials():
    def fn(q):
        return math.exp(0.3 * q[0]) * math.sin(q[1])

    jet = fields.from_callable(2, fn).jet(SPHERE_POINT, 4)
    for i, alpha in enumerate(numdiff.multi_indices(2, 4)):
        assert jet[i] == numdiff.partials(numdiff.pointwise(fn), SPHERE_POINT, [alpha])[0]


def entry(source, idx):
    """The scalar field of entry ``idx`` of a tensor node."""
    return fields.TensorField(source.dim, 0, lambda q, order: source.jet(q, order)[idx])


def test_jet_on_a_point_array_is_the_jets_at_its_points():
    sphere = geometry.sphere()
    callable_field = fields.from_callable(2, lambda q: math.exp(0.3 * q[0]) * math.sin(q[1]))
    gamma, g_inv = (entry(sphere._fields[level], idx) for level, idx in (("gamma", (1, 0, 1)), ("g_inv", (1, 1))))
    tree = fields.add(fields.contract(callable_field, gamma).partial(0), g_inv)
    points = np.column_stack([np.linspace(0.6, 2.4, 5), np.linspace(-2.0, 1.5, 5)])
    for field in (entry(sphere._fields["gamma"], (0, 1, 1)), g_inv, callable_field, tree):
        got = field.jet(points, 3)
        assert got.shape == (5, len(numdiff.multi_indices(2, 3)))
        assert got.tobytes() == np.array([field.jet(x, 3) for x in points]).tobytes()


def test_a_lower_order_jet_is_a_prefix_of_the_remembered_one():
    calls = []
    f = fields.from_callable(1, lambda q: calls.append(1) or math.cos(q[0]))
    q = np.array([0.3])
    high = f.jet(q, 3).copy()
    count = len(calls)
    assert f.jet(q, 1).tobytes() == high[:2].tobytes()
    assert len(calls) == count


def test_n_ary_tensor_add_equals_nested_pairwise_sums_bit_for_bit():
    names = ("x", "y")

    def tensor(source):
        def assign(idx):
            return fields.from_expression(f"({source})*(1 + {sum(idx)}*x)", names)

        return fields.tensor_from_fields(2, 2, assign)

    a, b, c = tensor("sin(x)*y + y**3"), tensor("cos(x*y) - 0.3*x"), tensor("cos(0.2*x)*y**2 + 0.7")
    flat, nested = fields.add(a, b, c), fields.add(fields.add(a, b), c)
    points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(9, 2))
    for q in (points[4], points):
        assert flat.evaluate(q).tobytes() == nested.evaluate(q).tobytes()
        assert flat.jet(q, 3).tobytes() == nested.jet(q, 3).tobytes()


# ---------------------------------------------------------------------------
# tensor nodes: one jet, the component axes first

SKEW = skew_model()


def _expression_tensor(model, rank):
    sources = ["sin({a})*cos({b})", "cos({a}) + 0.3*{b}", "{a}*{a}*sin({b})", "0.7 + cos(2*{a})*{b}", "{a}*{b} + 0.1"]
    a, b = names = model.coordinate_names
    return fields.tensor_from_fields(
        model.dim, rank, lambda idx: fields.from_expression(sources[sum(idx)].format(a=a, b=b), names)
    )


def _tensor_operations(model, rank):
    X = _expression_tensor(model, rank)
    names = model.coordinate_names
    vector = fields.stack(2, 1, [fields.from_expression(e, names) for e in (f"0.5 + 0.1*{names[0]}", "0.2")])
    operations = {
        "scale": fields.scale(X, 0.3 - 1.7j),
        "add": fields.add(X, fields.scale(X, 2.0), X),
        "contract": fields.contract(X, vector),
        "divergence": geometry.covariant_divergence(model, X),
        "divergence-of-sum": geometry.covariant_divergence(model, fields.add(X, fields.scale(X, 0.5))),
    }
    if rank == 2:
        operations["contract-metric"] = fields.contract(X, model._fields["g_inv"])
    return operations


@pytest.mark.parametrize("name", ["polar-plane", "sphere:1"])
@pytest.mark.parametrize("rank", [1, 2])
def test_tensor_operations_on_a_point_array_match_single_points(name, rank):
    model = geometry.manifold(name)
    assert not model.connection_free
    points = np.column_stack([np.linspace(0.4, 2.6, 7), np.linspace(-3.0, 3.0, 7)])
    for label, t in _tensor_operations(model, rank).items():
        got = t.jet(points, 3)
        want = np.stack([t.jet(x, 3) for x in points], axis=-2)
        assert got.shape == (model.dim,) * t.rank + want.shape[-2:], label
        assert got.tobytes() == want.tobytes(), label
        assert t.evaluate(points).tobytes() == np.array([t.evaluate(x) for x in points]).tobytes(), label


def test_a_memoized_stacked_jet_is_read_only():
    X = _expression_tensor(SKEW, 2)
    q = np.array([0.3, 0.4])
    for t in (X, fields.scale(X, 2.0), geometry.covariant_divergence(SKEW, _expression_tensor(SKEW, 3))):
        jet = t.jet(q, 2)
        assert not jet.flags.writeable
        assert t.jet(q, 2) is jet
        with pytest.raises(ValueError):
            jet[(0,) * t.rank] = 1.0
        assert not jet[(1,) + (0,) * (t.rank - 1)].flags.writeable


@pytest.mark.parametrize("rank", [3, 4])
def test_a_divergence_holds_symmetric_slots_bit_for_bit(rank):
    # nabla_b X^{bJ} adds one connection term per slot of J in slot order, so its
    # permuted entries would round differently; each reads its sorted index
    div = geometry.covariant_divergence(SKEW, _expression_tensor(SKEW, rank))
    q = np.array([0.3, 0.4])
    for points in (q, np.array([q, [0.5, -0.2]])):
        jet = div.jet(points, 2)
        for idx in np.ndindex(jet.shape[: rank - 1]):
            assert jet[idx].tobytes() == jet[tuple(sorted(idx))].tobytes()


def _per_entry_density_jet(model, power, q, order):
    """The fourth density jet at ``q``, entry by entry: each entry's jet from the
    entries of the model's levels, products by the Leibniz rule and scalings as
    complex factors, the (e, f) terms and the three terms added in order."""
    dim = model.dim
    riemann = model._fields["riemann"]
    R, ric = riemann.jet(q, order), model._fields["ricci"].jet(q, order)
    nabla_ric = geometry.covariant_jets(model, riemann, 1, q, order, 2)[-1].trace(0, 0, 2)
    out = np.empty(nabla_ric.shape, dtype=complex)
    for a, b, c, d in np.ndindex((dim,) * 4):
        pairs = [taylor.jet_product(R[e, a, f, b], R[f, c, e, d], dim, order) for e, f in np.ndindex(dim, dim)]
        terms = [
            complex(-power * 0.6) * nabla_ric[a, b, c, d],
            complex(-power * 2.0 / 15.0) * functools.reduce(np.add, pairs),
            complex(power * power / 3.0) * taylor.jet_product(ric[a, b], ric[c, d], dim, order),
        ]
        out[a, b, c, d] = terms[0] + terms[1] + terms[2]
    return out


# In two dimensions R^e_{afb} R^f_{ced} has one nonzero (e, f) term per entry,
# so only a third dimension makes the order of the quadratic term's sum show.
WARPED = geometry.ManifoldModel(
    name="warped",
    dim=3,
    coords=tuple(geometry.CoordSpec(n) for n in "xyz"),
    metric_exprs=geometry._metric_exprs(
        tuple("xyz"), [["1 + 0.3*y*y", "0", "0"], ["0", "2 + cos(x)*z", "0"], ["0", "0", "1 + 0.2*x*y"]]
    ),
)


# the skew metric's inverse has partials that grow fast with the order (its
# fourth density jet through order 2 takes most of a second), so the skew and
# warped metrics are read at order 0
@pytest.mark.parametrize("name, order", [("skew", 0), ("warped", 0), ("sphere:1", 2)])
@pytest.mark.parametrize("power", [-1.0, 1.0, -0.5])
def test_fourth_density_jet_node_equals_the_per_entry_construction_bit_for_bit(name, order, power):
    # the stacked quadratic term sums its (e, f) pairs in np.ndindex order, as
    # the per-entry reference does
    model = {"skew": SKEW, "warped": WARPED}.get(name) or geometry.manifold(name)
    node = geometry.density_jet_fields(model, 4, power)
    for x in ([0.9, 0.4, 0.7], [1.3, -0.2, 0.5]):
        q = np.array(x[: model.dim])
        assert node.jet(q, order).tobytes() == _per_entry_density_jet(model, power, q, order).tobytes()
