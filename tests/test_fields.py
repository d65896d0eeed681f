import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasequant import bases, fields


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


def test_partials_are_cached():
    f = fields.from_expression("x**2", ("x",))
    assert f.partial(0) is f.partial(0)


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

    prod = fields.multiply(f, g)
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
    got = fields.multiply(f, g).partial(0)(np.array([x]))
    want = a * (x * x + b) + (a * x + 1) * 2 * x
    assert got == pytest.approx(want, abs=1e-9, rel=1e-9)


# ---------------------------------------------------------------------------
# tensors


def test_tensor_shape_validation():
    comps = np.empty((2,), dtype=object)
    comps[:] = [fields.constant(2, 1.0)] * 2
    with pytest.raises(ValueError):
        fields.TensorField(2, 2, comps)


def test_tensor_from_fields_shares_symmetric_slots():
    t = fields.tensor_from_fields(
        2, 2, lambda idx: fields.constant(2, float(sum(idx)))
    )
    assert t.comps[0, 1] is t.comps[1, 0]
    vals = t.evaluate(np.zeros(2))
    np.testing.assert_allclose(vals.real, [[0.0, 1.0], [1.0, 2.0]])


def test_tensor_constant_symmetrizes_input():
    t = fields.tensor_constant(2, np.array([[0.0, 2.0], [0.0, 0.0]]))
    np.testing.assert_allclose(t.evaluate(np.zeros(2)).real, [[0.0, 1.0], [1.0, 0.0]])


def test_tensor_scalar_rank_zero():
    t = fields.tensor_scalar(fields.constant(3, 7.0))
    assert t.rank == 0
    assert complex(t.evaluate(np.zeros(3))) == 7.0


def test_tensor_add_and_scale():
    a = fields.tensor_constant(2, np.array([1.0, -1.0]))
    b = fields.tensor_constant(2, np.array([0.5, 0.5]))
    total = fields.tensor_add(a, fields.tensor_scale(b, 2.0))
    np.testing.assert_allclose(total.evaluate(np.zeros(2)).real, [2.0, 0.0])
    with pytest.raises(ValueError):
        fields.tensor_add(a, fields.tensor_scalar(fields.constant(2, 1.0)))


def test_symmetrized_contraction_against_manual(rng):
    t = fields.tensor_from_array_callable(
        2, 2, lambda q: np.array([[q[0], 1.0], [1.0, q[1] ** 2]])
    )
    w = np.array([[0.5, -1.0], [-1.0, 2.0]])
    contracted = fields.symmetrized_contraction_field(t, lambda q: w, 2)
    q = rng.uniform(-1, 1, size=2)
    manual = np.tensordot(w, t.evaluate(q), axes=([0, 1], [0, 1]))
    assert complex(contracted.evaluate(q)) == pytest.approx(complex(manual), abs=1e-12)


def test_symmetrized_contraction_zero_slots_is_identity():
    t = fields.tensor_constant(2, np.array([1.0, 2.0]))
    assert fields.symmetrized_contraction_field(t, lambda q: None, 0) is t


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
        fields.multiply(fields.scale(f, 1j), g),
        fields.multiply(fields.add(f, one), fields.scale(g, -2.0)),
    ]
    for field in combos:
        assert_array_equals_points(field, PLANE)
        assert_array_equals_points(field.partial(0).partial(1), PLANE)


@pytest.mark.parametrize("k", [-3, 0, 2])
def test_fourier_mode_on_point_array(k):
    field = bases.fourier_mode(k)
    for _ in range(4):
        assert_array_equals_points(field, LINE)
        field = field.partial(0)


@pytest.mark.parametrize("k, hbar", [(0, 1.0), (3, 0.7), (6, 1.3)])
def test_hermite_function_on_point_array(k, hbar):
    field = bases.hermite_function(k, hbar)
    for _ in range(4):
        assert_array_equals_points(field, LINE)
        field = field.partial(0)


def test_callable_field_loops_over_point_array():
    calls = []

    def fn(q):
        calls.append(q.shape)
        return math.exp(0.5 * q[0]) * q[1]

    f = fields.from_callable(2, fn)
    assert_array_equals_points(f, PLANE)
    assert set(calls) == {(2,)}  # the opaque callable only ever sees single points
    assert_array_equals_points(f.partial(0), PLANE[:5])
