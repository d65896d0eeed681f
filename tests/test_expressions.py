import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasequant.errors import ConfigError
from phasequant.expressions import Const, add, div, inverse_matrix, mul, parse_expression


def ev(source, **values):
    expr = parse_expression(source, tuple(values))
    return expr.eval(values)


@pytest.mark.parametrize(
    "source, value",
    [
        ("2 + 3*4", 14.0),
        ("(2 + 3)*4", 20.0),
        ("-x + 1", 0.5),
        ("x**3", 0.125),
        ("x/2", 0.25),
        ("cos(x)", math.cos(0.5)),
        ("sin(x)*cos(x)", math.sin(0.5) * math.cos(0.5)),
        ("pi", math.pi),
    ],
)
def test_evaluation(source, value):
    assert ev(source, x=0.5) == pytest.approx(value, abs=1e-14)


def test_two_variables():
    assert ev("x*y + sin(y)", x=2.0, y=0.3) == pytest.approx(0.6 + math.sin(0.3))


@pytest.mark.parametrize(
    "source, dsource",
    [
        ("x**4", "4*x**3"),
        ("sin(2*x)", "2*cos(2*x)"),
        ("cos(x)**2", "-2*cos(x)*sin(x)"),
        ("x*sin(x)", "sin(x) + x*cos(x)"),
        ("1/x", "-1/x**2"),
    ],
)
def test_symbolic_derivative(source, dsource):
    expr = parse_expression(source, ("x",))
    want = parse_expression(dsource, ("x",))
    for x in (-1.3, 0.4, 2.2):
        assert expr.diff("x").eval({"x": x}) == pytest.approx(
            want.eval({"x": x}), abs=1e-12
        )


def test_derivative_of_missing_variable_is_zero():
    expr = parse_expression("sin(x)", ("x", "y"))
    assert expr.diff("y").eval({"x": 0.7, "y": 1.0}) == 0.0


@pytest.mark.parametrize(
    "source",
    [
        "tan(x)",  # unknown function
        "z + 1",  # unknown name
        "x ** y",  # non-literal exponent
        "x ** 0.5",  # non-integer exponent
        "sin(x, 1)",  # wrong arity
        "x +",  # syntax error
        "'a'",  # non-numeric literal
        "x @ x",  # unsupported operator
    ],
)
def test_rejects_invalid_sources(source):
    with pytest.raises(ConfigError):
        parse_expression(source, ("x",))


@given(
    c=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    x=st.floats(-2, 2),
)
@settings(max_examples=30, deadline=None)
def test_quadratic_round_trip(c, x):
    source = f"{c[0]!r} + {c[1]!r}*x + {c[2]!r}*x**2"
    got = ev(source, x=x)
    want = c[0] + c[1] * x + c[2] * x * x
    assert got == pytest.approx(want, abs=1e-9, rel=1e-9)


@given(x=st.floats(-3, 3))
@settings(max_examples=30, deadline=None)
def test_trig_identity(x):
    assert ev("sin(x)**2 + cos(x)**2", x=x) == pytest.approx(1.0, abs=1e-12)


def test_constant_folding_keeps_value():
    # folded or not, numeric subtrees must evaluate identically
    assert ev("2*3 + 0*x + 1*x", x=0.7) == pytest.approx(6.7)


def test_operators_build_simplified_differentiable_trees():
    # the constructors add, mul and div: 2 x x - 1/x + (x - x) 0
    x = parse_expression("x", ("x",))

    def minus(e):
        return mul(Const(-1.0), e)

    e = add(add(mul(mul(Const(2.0), x), x), minus(div(Const(1.0), x))), mul(add(x, minus(x)), Const(0.0)))
    assert e.eval({"x": 1.5}) == pytest.approx(2.0 * 2.25 - 1 / 1.5)
    assert e.diff("x").eval({"x": 1.5}) == pytest.approx(4.0 * 1.5 + 1 / 2.25)
    assert isinstance(div(Const(3.0), Const(2.0)), Const) and mul(x, Const(1.0)) is x and div(x, Const(1.0)) is x
    assert isinstance(mul(Const(0.0), x), Const) and minus(x).eval({"x": 2.0}) == -2.0


def test_inverse_matrix_diagonal_and_adjugate():
    import numpy as np

    names = ("x", "y")
    diag = np.array([[parse_expression(s, names) for s in row] for row in (["2", "0"], ["0", "x*x"])], dtype=object)
    inv = inverse_matrix(diag)
    assert inv[0, 0].value == 0.5 and inv[0, 1].value == 0.0
    assert inv[1, 1].eval({"x": 3.0, "y": 0.0}) == pytest.approx(1.0 / 9.0)
    full = np.array([[parse_expression(s, names) for s in row] for row in (["1", "y"], ["y", "2 + x"])], dtype=object)
    env = {"x": 0.4, "y": -0.7}
    m = np.array([[1.0, -0.7], [-0.7, 2.4]])
    got = np.array([[e.eval(env) for e in row] for row in inverse_matrix(full)])
    np.testing.assert_allclose(got @ m, np.eye(2), atol=1e-14)


def test_integer_powers_on_arrays_equal_those_at_single_points():
    rng = np.random.default_rng(6)
    points = rng.uniform(0.2, 3.0, size=(500, 2))
    for source in ("x**2 + (1 + 0.5*cos(y))**3 - x**4/y**2", "x**0", "x**1", "x**5", "sin(x)**3*cos(y)"):
        expr = parse_expression(source, ("x", "y"))
        got = expr.eval({"x": points[:, 0], "y": points[:, 1]})
        want = np.array([expr.eval({"x": x, "y": y}) for x, y in points.tolist()])
        assert got.shape == (500,) and got.tobytes() == want.tobytes(), source
    one = parse_expression("x**0", ("x",))
    assert one.eval({"x": points[:, 0]}).tolist() == [1.0] * 500 and one.eval({"x": 0.7}) == 1.0
    assert np.shape(one.eval({"x": points[:, :1]})) == (500, 1) and np.shape(one.eval({"x": 0.7})) == ()
    x = points[:, 0]
    for source, product in (("x**1", x), ("x**5", x * x * x * x * x)):  # the product, left to right
        assert parse_expression(source, ("x",)).eval({"x": x}).tobytes() == product.tobytes()
