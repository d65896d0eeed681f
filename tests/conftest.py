import numpy as np
import pytest
from hypothesis import settings

from phasequant import harness
from phasequant.fields import constant, from_expression, tensor_from_fields
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
