import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasequant import numdiff


def test_richardson_removes_even_error_terms():
    # A sequence L + c h^2 + d h^4 at h, h/2, h/4 extrapolates to L exactly.
    L, c, d, h = 0.7, 2.3, -1.1, 0.1
    samples = [L + c * (h / 2**k) ** 2 + d * (h / 2**k) ** 4 for k in range(3)]
    assert abs(float(numdiff.richardson(samples)) - L) < 1e-12


def test_richardson_passes_through_single_sample():
    assert float(numdiff.richardson([4.25])) == 4.25


@pytest.mark.parametrize(
    "orders, expected, tol",
    [
        ((0, 0), lambda x, y: math.sin(x) * math.cos(y), 1e-14),
        ((1, 0), lambda x, y: math.cos(x) * math.cos(y), 1e-8),
        ((0, 1), lambda x, y: -math.sin(x) * math.sin(y), 1e-8),
        ((2, 0), lambda x, y: -math.sin(x) * math.cos(y), 1e-8),
        ((1, 1), lambda x, y: -math.cos(x) * math.sin(y), 1e-8),
        ((2, 1), lambda x, y: math.sin(x) * math.sin(y), 1e-6),
        # the noise floor grows with total order; fourth derivatives land near 1e-6
        ((2, 2), lambda x, y: math.sin(x) * math.cos(y), 1e-5),
    ],
)
def test_mixed_partials_of_separable_product(orders, expected, tol):
    f = lambda z: math.sin(z[0]) * math.cos(z[1])
    point = np.array([0.4, -1.2])
    got = float(numdiff.partials(numdiff.pointwise(f), point, [orders])[0])
    assert got == pytest.approx(expected(*point), abs=tol)


def test_partial_derivative_elementwise_on_arrays():
    f = lambda z: np.array([z[0] ** 2, math.sin(z[0])])
    got = numdiff.partials(numdiff.pointwise(f), np.array([0.3]), [(1,)])[0]
    np.testing.assert_allclose(got, [0.6, math.cos(0.3)], atol=1e-9)


@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=4, max_size=4),
    x0=st.floats(-2, 2),
)
@settings(max_examples=25, deadline=None)
def test_cubic_first_derivative_matches_closed_form(coeffs, x0):
    a, b, c, d = coeffs
    f = lambda z: a + b * z[0] + c * z[0] ** 2 + d * z[0] ** 3
    want = b + 2 * c * x0 + 3 * d * x0**2
    got = float(numdiff.partials(numdiff.pointwise(f), np.array([x0]), [(1,)])[0])
    assert abs(got - want) < 1e-6 * (1.0 + abs(want))


def test_jet_orders_and_symmetry():
    f = lambda z: math.exp(0.3 * z[0]) * math.cos(0.7 * z[1])
    x, y = 0.2, -0.4
    jet = numdiff.jet(numdiff.pointwise(f), np.array([x, y]), 3)
    # one entry per distinct partial through order 3, order 0 first
    indices = numdiff.multi_indices(2, 3)
    assert jet.shape == (len(indices),) == (10,)
    assert indices[0] == (0, 0) and set(indices) == {(i, j) for i in range(4) for j in range(4 - i)}
    d_xyy = 0.3 * math.exp(0.3 * x) * -0.49 * math.cos(0.7 * y)
    assert jet[indices.index((1, 2))] == pytest.approx(d_xyy, abs=1e-6)
    # expanded, every permutation of a mixed index reads the same entry
    arrays = numdiff.expand(jet, 2, 3)
    assert [a.shape for a in arrays] == [(), (2,), (2, 2), (2, 2, 2)]
    np.testing.assert_array_equal(arrays[2], arrays[2].T)
    assert arrays[3][0, 1, 1] == arrays[3][1, 0, 1] == arrays[3][1, 1, 0] == jet[indices.index((1, 2))]
    assert numdiff.compress(arrays, 2).tobytes() == jet.tobytes()


def test_jet_order_cap():
    with pytest.raises(ValueError):
        numdiff.jet(numdiff.pointwise(lambda z: z[0]), np.zeros(1), 5)


def test_jacobian_of_linear_map_is_its_matrix():
    A = np.array([[1.0, 2.0], [-0.5, 0.25]])
    f = lambda z: A @ z
    got = numdiff.jacobian(numdiff.pointwise(f), np.array([0.3, 0.9]))
    np.testing.assert_allclose(got, A, atol=1e-10)


def test_jacobian_polar_to_cartesian():
    f = lambda z: np.array([z[0] * math.cos(z[1]), z[0] * math.sin(z[1])])
    r, phi = 1.3, 0.6
    got = numdiff.jacobian(numdiff.pointwise(f), np.array([r, phi]))
    want = np.array(
        [
            [math.cos(phi), -r * math.sin(phi)],
            [math.sin(phi), r * math.cos(phi)],
        ]
    )
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_symmetrize_fixes_random_array(rng):
    arr = rng.normal(size=(3, 3, 3))
    sym = numdiff.symmetrize(arr)
    np.testing.assert_allclose(sym, np.transpose(sym, (1, 0, 2)), atol=1e-14)
    np.testing.assert_allclose(sym, np.transpose(sym, (0, 2, 1)), atol=1e-14)
    # idempotent
    np.testing.assert_allclose(numdiff.symmetrize(sym), sym, atol=1e-14)


def test_symmetrize_partial_axes(rng):
    arr = rng.normal(size=(2, 2, 2))
    sym = numdiff.symmetrize(arr, axes=(1, 2))
    np.testing.assert_allclose(sym, np.transpose(sym, (0, 2, 1)), atol=1e-14)
    # axis 0 untouched: the (1,2)-symmetrized slices must average the input slices
    np.testing.assert_allclose(sym[0], (arr[0] + arr[0].T) / 2.0, atol=1e-14)


def test_stencil_tables_are_shared_and_read_only():
    offsets, weights = numdiff._stencil_table((1, 2))
    again = numdiff._stencil_table((1, 2))
    assert again[0] is offsets and again[1] is weights
    assert not offsets.flags.writeable and not weights.flags.writeable
    assert offsets.shape == (6, 2) and weights.sum() == 0.0


# ---------------------------------------------------------------------------
# node arrays and stacks of base points

STACK = np.array([[0.4, -1.2], [0.0, 0.0], [1.3, 0.25], [-0.7, 2.1], [0.05, -0.3]])


def _matrix_integrand(z):
    """A complex (2, 3) array per row of an (N, 2) node array."""
    x, y = z[:, 0], z[:, 1]
    rows = [np.sin(x) * np.cos(y), x * x * y - 0.5j * y, np.cos(x * y), 1j * np.sin(x + y), x / (2.0 + y * y), y]
    return np.stack(rows, axis=-1).reshape(-1, 2, 3)


def _assert_stack_equals_single_calls(stacked, singles):
    want = np.stack([np.asarray(s) for s in singles])
    assert stacked.shape == want.shape and stacked.dtype == want.dtype
    assert stacked.tobytes() == want.tobytes()


@pytest.mark.parametrize("orders", [(1, 0), (0, 2), (2, 1), (1, 3)])
def test_partial_derivative_on_a_stack_equals_single_calls(orders):
    stacked = numdiff.partials(_matrix_integrand, STACK, [orders])[0]
    singles = [numdiff.partials(_matrix_integrand, x, [orders])[0] for x in STACK]
    _assert_stack_equals_single_calls(stacked, singles)


def test_jet_on_a_stack_equals_single_calls():
    stacked = numdiff.jet(_matrix_integrand, STACK, 3)
    assert stacked.shape == (len(STACK), 2, 3, len(numdiff.multi_indices(2, 3)))
    _assert_stack_equals_single_calls(stacked, [numdiff.jet(_matrix_integrand, x, 3) for x in STACK])


def test_jacobian_on_a_stack_equals_single_calls():
    f = lambda z: np.stack([z[:, 0] * np.cos(z[:, 1]), z[:, 0] * np.sin(z[:, 1]), z[:, 0] * z[:, 1]], axis=-1)
    stacked = numdiff.jacobian(f, STACK)
    assert stacked.shape == (len(STACK), 3, 2)
    _assert_stack_equals_single_calls(stacked, [numdiff.jacobian(f, x) for x in STACK])


def test_jet_calls_its_integrand_once_on_every_node():
    calls = []

    def f(z):
        calls.append(z.shape)
        return np.sin(z[:, 0]) * z[:, 1]

    numdiff.jet(f, np.array([0.3, 0.2]), 2)
    numdiff.jet(f, STACK[:4], 2)
    # the value, then per Richardson level the 8 distinct nodes of the 2 + 2
    # first-order and 3 + 4 + 3 second-order stencils: the base point and the
    # +-h axis nodes recur in the second-order ones
    nodes = 1 + 3 * 8
    assert calls == [(nodes, 2), (4 * nodes, 2)]


def test_jet_keeps_negative_zero_apart_from_zero():
    # arctan2(-0.0, -1) = -pi but arctan2(0.0, -1) = pi: the value node is the
    # point itself, so it is not merged with the centre node x + 0.0 of the
    # second-order stencils, which equals it only up to the sign of zero
    seen = []

    def f(z):
        seen.append(len(z))
        return np.arctan2(z[:, 1], z[:, 0] - 1.0)

    assert numdiff.jet(f, np.array([0.0, -0.0]), 2)[0] == -math.pi
    assert seen == [26]


def test_pointwise_lift_hands_its_function_single_points():
    seen = []

    def f(x):
        seen.append(x.shape)
        return np.array([x[0] * x[1], math.exp(x[0])])

    lifted = numdiff.pointwise(f)
    np.testing.assert_array_equal(lifted(STACK[2]), f(STACK[2]))
    values = lifted(STACK)
    assert values.shape == (len(STACK), 2) and values.dtype == float
    assert set(seen) == {(2,)}
