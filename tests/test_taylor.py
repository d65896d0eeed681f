"""The series algebra against closed-form jets of explicit functions of two variables.

Each test function is a sum of terms ``c x^i y^j exp(a x + b y)``, whose
partials are closed forms, and so are those of the products, sums and
reflections the operations stand for.
"""

import itertools
import math

import numpy as np
import pytest

from phasequant import numdiff, taylor

DIM, ORDER = 2, 4
POINT = (0.3, -0.2)
INDICES = numdiff.multi_indices(DIM, ORDER)


def _d(n, k, c, t):
    """The n-th derivative of ``t^k exp(c t)``."""
    terms = (math.comb(n, m) * math.perm(k, m) * t ** (k - m) * c ** (n - m) for m in range(min(n, k) + 1))
    return sum(terms) * math.exp(c * t)


def partial(terms, alpha, point=POINT):
    """``d^alpha`` of a sum of ``(c, i, j, a, b)`` terms at ``point``."""
    x, y = point
    return sum(c * _d(alpha[0], i, a, x) * _d(alpha[1], j, b, y) for c, i, j, a, b in terms)


def product(f, g):
    return [(c1 * c2, i1 + i2, j1 + j2, a1 + a2, b1 + b2) for c1, i1, j1, a1, b1 in f for c2, i2, j2, a2, b2 in g]


def tensor(shape, rows):
    """An object array of term lists, one per component, ``rows`` nested as the shape."""
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        entry = rows
        for i in idx:
            entry = entry[i]
        out[idx] = entry
    return out


def flat_jet(fn, order=ORDER, point=POINT):
    """The closed-form flat jet of an object array of term lists."""
    indices = numdiff.multi_indices(DIM, order)
    return np.array([[partial(fn[idx], alpha, point) for alpha in indices] for idx in np.ndindex(fn.shape)]).reshape(
        fn.shape + (-1,)
    )


def series(fn, order=ORDER, point=POINT):
    return taylor.Series(DIM, order, flat_jet(fn, order, point))


def scalar(terms):
    return tensor((), terms)


U = scalar([(1.0, 0, 0, 0.4, -0.7)])  # exp(0.4 x - 0.7 y)
V = tensor((2,), [[(1.0, 1, 1, 0.0, 0.0), (2.0, 0, 0, 0.0, 0.0)], [(1.0, 0, 0, 0.0, 0.5)]])  # (x y + 2, exp(y/2))
# (x^2, 1/2 - y exp(0.3 x))
W = tensor((2,), [[(1.0, 2, 0, 0.0, 0.0)], [(-1.0, 0, 1, 0.3, 0.0), (0.5, 0, 0, 0.0, 0.0)]])
M = tensor(
    (2, 2),
    [
        [[(1.0, 0, 0, 0.0, 0.0), (1.0, 2, 0, 0.0, 0.0)], [(1.0, 0, 1, 0.0, 0.0)]],
        [[(1.0, 1, 1, 0.0, 0.0)], [(1.0, 0, 0, 1.0, 0.0)]],
    ]
)  # [[1 + x^2, y], [x y, exp(x)]]


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_closed_form_partials():
    assert U.shape == () and V.shape == W.shape == (2,) and M.shape == (2, 2)
    assert partial(M[0, 0], (2, 0)) == 2.0 and partial(V[1], (0, 1)) == pytest.approx(0.5 * math.exp(-0.1))


def test_outer_is_the_leibniz_rule():
    got = taylor.outer(series(V), series(W))
    want = tensor((2, 2), [[product(V[i], W[j]) for j in range(2)] for i in range(2)])
    assert got.order == ORDER and got.base_shape == (2, 2)
    _close(got.jet, flat_jet(want))


def test_mul_scales_a_tensor_by_a_scalar_series():
    got = taylor.mul(series(U), series(M))
    want = tensor((2, 2), [[product(U[()], M[i, j]) for j in range(2)] for i in range(2)])
    _close(got.jet, flat_jet(want))


def test_outer_truncates_to_the_lower_order():
    got = taylor.outer(series(U, 2), series(V))
    assert got.order == 2
    _close(got.jet, flat_jet(tensor((2,), [product(U[()], V[i]) for i in range(2)]), 2))


def test_add_keeps_the_common_prefix():
    got = taylor.add(series(V, 3), series(W))
    assert got.order == 3
    _close(got.jet, flat_jet(tensor((2,), [V[i] + W[i] for i in range(2)]), 3))


def test_trace_and_matmul_contract_base_axes():
    _close(taylor.trace(series(M), 0, 1).jet, flat_jet(scalar(M[0, 0] + M[1, 1])))
    got = taylor.matmul(series(M), series(V))  # M^i_k V^k
    _close(got.jet, flat_jet(tensor((2,), [product(M[i, 0], V[0]) + product(M[i, 1], V[1]) for i in range(2)])))


@pytest.mark.parametrize("position", [0, 1])
def test_gradient_promotes_a_derivative_axis(position):
    got = taylor.gradient(series(V), position)
    assert got.order == ORDER - 1 and got.base_shape == (2, 2)
    for a, i in itertools.product(range(2), repeat=2):
        entry = got.jet[(a, i) if position == 0 else (i, a)]
        want = [partial(V[i], (b0 + (a == 0), b1 + (a == 1))) for b0, b1 in numdiff.multi_indices(DIM, ORDER - 1)]
        _close(entry, want)


def test_negate_argument_is_the_jet_of_the_reflection():
    reflected = tensor(
        (2,), [[(c * (-1.0) ** (i + j), i, j, -a, -b) for c, i, j, a, b in V[k]] for k in range(2)]
    )  # V(-x, -y)
    got = taylor.negate_argument(series(V, point=(0.0, 0.0)))
    _close(got.jet, flat_jet(reflected, point=(0.0, 0.0)))


def test_identity_pair_places_a_kronecker_delta():
    got = taylor.identity_pair(series(V), 0, 2)  # base [a, i, b]
    assert got.base_shape == (2, 2, 2)
    for a, i, b in itertools.product(range(2), repeat=3):
        _close(got.jet[a, i, b], flat_jet(scalar(V[i])) if a == b else 0.0)


def test_delta_pairing_at_rank_one_by_hand():
    # w = exp(0.4 x - 0.7 y), p = (x + 2 y, 3 + y^2) about 0:
    # d_x(w p^0) + d_y(w p^1) = 1 + (-0.7) 3 = -1.1, times -1/2
    p = tensor((2,), [[(1.0, 1, 0, 0.0, 0.0), (2.0, 0, 1, 0.0, 0.0)], [(3.0, 0, 0, 0.0, 0.0), (1.0, 0, 2, 0.0, 0.0)]])
    origin = (0.0, 0.0)
    assert taylor.delta_pairing(series(U, point=origin), series(p, point=origin)) == pytest.approx(0.55, abs=1e-14)


def test_delta_pairing_at_rank_two_by_hand():
    # p = [[x^2, 1], [1, 3 y]]: d_xx(w x^2) = 2, d_xy(w) = 0.4 (-0.7) twice,
    # d_yy(3 w y) = 6 (-0.7); the sum -2.76 times (-1/2)^2
    one = [(1.0, 0, 0, 0.0, 0.0)]
    p = tensor((2, 2), [[[(1.0, 2, 0, 0.0, 0.0)], one], [one, [(3.0, 0, 1, 0.0, 0.0)]]])
    origin = (0.0, 0.0)
    assert taylor.delta_pairing(series(U, point=origin), series(p, point=origin)) == pytest.approx(-0.69, abs=1e-14)


def test_from_jets_and_expand_are_inverse():
    arrays = []
    for k in range(ORDER + 1):
        arr = np.empty((2, 2) + (DIM,) * k)
        for idx in np.ndindex(arr.shape):
            arr[idx] = partial(M[idx[:2]], tuple(idx[2:].count(axis) for axis in range(DIM)))
        arrays.append(arr)
    s = taylor.from_jets(DIM, arrays)
    assert s.order == ORDER and s.base_shape == (2, 2) and s.jet.shape == (2, 2, len(INDICES))
    assert s.jet.tobytes() == flat_jet(M).tobytes()
    for got, want in zip(numdiff.expand(s.jet, DIM, ORDER), arrays):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_constant_has_only_a_value():
    s = taylor.constant(DIM, 2, np.eye(2))
    assert s.jet.shape == (2, 2, 6)
    assert np.array_equal(s.jet[..., 0], np.eye(2)) and not s.jet[..., 1:].any()


def _row_by_row_product(a, b, dim, order):
    """The Leibniz rule of :func:`taylor.jet_product` summed one weighted row at a time."""
    first, second, weights = taylor._leibniz_table(dim, order)
    terms = weights * (a[..., first] * b[..., second])
    total = terms[..., 0, :]
    for row in range(1, len(weights)):
        total = total + terms[..., row, :]
    return total


@pytest.mark.parametrize("dim, order", [(1, 4), (2, 1), (2, 4), (3, 3)])
def test_jet_product_is_the_row_by_row_leibniz_sum_bit_for_bit(dim, order):
    rng = np.random.default_rng(7)
    size = len(numdiff.multi_indices(dim, order))
    a = rng.normal(size=(5, 2, size)) + 1j * rng.normal(size=(5, 2, size))
    b = rng.normal(size=(2, size))
    got = taylor.jet_product(a, b, dim, order)
    assert got.tobytes() == _row_by_row_product(a, b, dim, order).tobytes()
    for point in range(len(a)):  # a stack gives its single points' jets
        assert got[point].tobytes() == taylor.jet_product(a[point], b, dim, order).tobytes()
