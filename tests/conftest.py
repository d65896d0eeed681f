import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import settings

from phasequant import geometry, harness, numdiff, taylor
from phasequant.expressions import Const, add, inverse_matrix, mul
from phasequant.fields import TensorField, constant, from_expression, tensor_from_fields
from phasequant.symbols import MomentumPolynomial

SEED = 20260814

# Property tests draw the same examples on every run and keep no example
# database, so a run's outcome depends only on the code under test.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(SEED)


def partial(field, *axes):
    """The partial of ``field`` along each of ``axes`` in turn: a field whose jet
    reads its parent's jet through one order more with ``taylor.jet_shift``."""
    for axis in axes:
        field = TensorField(
            field.dim, field.rank, lambda q, n, f=field, a=axis: taylor.jet_shift(f.jet(q, n + 1), f.dim, n, a)
        )
    return field


def random_cubic_field(rng, var="x"):
    """A random cubic in one variable with exact symbolic derivatives."""
    c = [float(v) for v in rng.uniform(-1.5, 1.5, size=4)]
    source = f"{c[0]!r} + {c[1]!r}*{var} + {c[2]!r}*{var}**2 + {c[3]!r}*{var}**3"
    return from_expression(source, (var,))


def random_symbol(rng, max_degree=3):
    """A dense one-dimensional momentum polynomial with random cubic coefficients."""
    terms = {}
    for m in range(max_degree + 1):
        field = random_cubic_field(rng)
        terms[m] = tensor_from_fields(1, m, lambda idx, f=field: f)
    return MomentumPolynomial(1, terms)


@pytest.fixture
def symbol_factory(rng):
    def build(max_degree=3):
        return random_symbol(rng, max_degree)

    return build


def torus_model():
    """The torus of tube radius 1/2 about a circle of radius 1, whose scalar
    curvature 4 cos(theta) / (1 + cos(theta) / 2) takes both signs."""
    names = ("theta", "phi")
    return geometry.ManifoldModel(
        name="torus",
        dim=2,
        coords=tuple(geometry.CoordSpec(n, -math.pi, math.pi, periodic=True) for n in names),
        metric_exprs=geometry._metric_exprs(names, [["0.25", "0"], ["0", "(1 + 0.5*cos(theta))**2"]]),
    )


def skew_model():
    """A metric whose connection has every kind of entry, so the slot terms of a
    divergence add in a different order for each permutation of its indices."""
    return geometry.ManifoldModel(
        name="skew",
        dim=2,
        coords=(geometry.CoordSpec("x"), geometry.CoordSpec("y")),
        metric_exprs=geometry._metric_exprs(
            ("x", "y"), [["1 + 0.3*x*x + 0.1*y", "0.2*sin(y) + 0.1*x"], ["0.2*sin(y) + 0.1*x", "2 + cos(x)*y"]]
        ),
    )


def symbolic_levels(model):
    """The inverse metric, connection, curvature and Ricci tensor of an
    expression model as expression arrays, built by loops over symbolic partials
    of its metric expressions."""
    names, r, shape = model.coordinate_names, range(model.dim), (model.dim,)
    g = np.array(model.metric_exprs, dtype=object)
    g_inv = inverse_matrix(g)

    def d(e, axis):
        return e.diff(names[axis])

    def minus(e):
        return mul(Const(-1.0), e)

    gamma, riemann, ricci = (np.empty(shape * rank, dtype=object) for rank in (3, 4, 2))
    for c, a, b in itertools.product(r, repeat=3):
        lowered = [add(add(d(g[e, b], a), d(g[e, a], b)), minus(d(g[a, b], e))) for e in r]
        gamma[c, a, b] = mul(Const(0.5), functools.reduce(add, [mul(g_inv[c, e], lowered[e]) for e in r]))
    for i, s, m, n in itertools.product(r, repeat=4):
        quadratic = [add(mul(gamma[i, m, l], gamma[l, n, s]), minus(mul(gamma[i, n, l], gamma[l, m, s]))) for l in r]
        linear = add(d(gamma[i, n, s], m), minus(d(gamma[i, m, s], n)))
        riemann[i, s, m, n] = add(linear, functools.reduce(add, quadratic))
    for s, n in itertools.product(r, repeat=2):
        ricci[s, n] = functools.reduce(add, [riemann[m, s, m, n] for m in r])
    return {"g_inv": g_inv, "gamma": gamma, "riemann": riemann, "ricci": ricci}


def symbolic_jet(exprs, names, q, order):
    """The flat jets through ``order`` at ``q`` of an array of expressions, each
    partial differentiated symbolically from the one an order lower."""
    env = dict(zip(names, q))
    out = np.empty(exprs.shape + (len(numdiff.multi_indices(len(names), order)),), dtype=complex)
    for idx, expr in np.ndenumerate(exprs):
        partials = {}
        for i, alpha in enumerate(numdiff.multi_indices(len(names), order)):
            axis = next((axis for axis, count in enumerate(alpha) if count), None)
            if axis is None:
                partials[alpha] = expr
            else:
                lower = alpha[:axis] + (alpha[axis] - 1,) + alpha[axis + 1 :]
                partials[alpha] = partials[lower].diff(names[axis])
            out[idx + (i,)] = partials[alpha].eval(env)
    return out


@pytest.fixture
def unit_field():
    return constant(1, 1.0)


@pytest.fixture(scope="session")
def reports():
    """One full run of every experiment at its defaults, shared across assertions."""
    out = {}
    for entry in harness.list_experiments():
        cfg = harness.ExperimentConfig.from_dict({"experiment": entry.name})
        out[entry.name] = harness.run_experiment(cfg)
    return out
