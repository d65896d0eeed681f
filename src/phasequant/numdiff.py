"""Central-difference jets with Richardson extrapolation.

All numerical differentiation in the package funnels through this module so
that forward maps and their inverses cancel exactly when they differentiate
the same field twice.

Stencils are the classical symmetric second-order ones; Richardson
extrapolation over step halvings removes the h^2 and h^4 error terms, so the
returned values are O(h^6) accurate for smooth inputs (:data:`LEVELS` = 2).

Integrands take node arrays: ``f`` is called on an ``(N, dim)`` array of
points and returns the ``N`` values stacked along a leading axis.  A call of
:func:`partials`, :func:`jet` or :func:`jacobian` collects every node it
needs (all stencil offsets, at all Richardson levels, for every requested
partial) and calls ``f`` once.  ``x`` is one point, shape ``(dim,)``, or a
stack of ``M`` points, shape ``(M, dim)``, whose results stack along a
leading axis and equal, bit for bit, those of ``M`` single-point calls.  A
function of one point is lifted to node arrays with :func:`pointwise`.

A jet is flat: one entry per distinct partial along a last axis over
:func:`multi_indices`, the layout of field jets and of ``taylor.Series``.
:func:`expand` gives its symmetric derivative arrays, one per order, and
:func:`compress` takes them back.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import UnsupportedOrderError

# Base step per the shared differentiation policy.
DEFAULT_STEP = 1e-2
MAX_ORDER = 4
LEVELS = 2

# Symmetric second-order stencils for d^m/dx^m, m = 0..4, as (offsets, weights).
_CENTRAL_STENCILS: dict[int, tuple[tuple[int, ...], tuple[float, ...]]] = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}


@functools.lru_cache(maxsize=None)
def _stencil_table(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product stencil for a mixed partial of per-axis ``orders``.

    Returns integer offset vectors of shape (#nodes, d) and weights such that
    sum_i w_i f(x + h*offset_i) / h^total approximates the mixed partial.
    Tables are built once per ``orders`` and shared read-only.
    """
    per_axis = [_CENTRAL_STENCILS[m] for m in orders]
    offsets = []
    weights = []
    for combo in itertools.product(*[range(len(p[0])) for p in per_axis]):
        off = [per_axis[ax][0][i] for ax, i in enumerate(combo)]
        w = math.prod(per_axis[ax][1][i] for ax, i in enumerate(combo))
        offsets.append(off)
        weights.append(w)
    offsets, weights = np.asarray(offsets, dtype=float), np.asarray(weights, dtype=float)
    offsets.flags.writeable = weights.flags.writeable = False
    return offsets, weights


def pointwise(fn: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], object]:
    """Lift a function of one point to point arrays: on an ``(N, dim)`` array
    it is called at each row in turn and the results are stacked; a single
    point passes through."""

    def lifted(x):
        return fn(x) if x.ndim == 1 else np.array([fn(point) for point in x])

    return lifted


def richardson(samples: Sequence) -> np.ndarray:
    """Extrapolate a sequence D(h), D(h/2), ... with even error expansions."""
    rows = [np.asarray(s) for s in samples]
    k = 1
    while len(rows) > 1:
        factor = 4.0**k
        rows = [(factor * rows[i + 1] - rows[i]) / (factor - 1.0) for i in range(len(rows) - 1)]
        k += 1
    return rows[0]


def partials(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    requests: Sequence[Sequence[int]],
    step: float = DEFAULT_STEP,
) -> list[np.ndarray]:
    """Mixed partials of ``f`` at ``x``, one per entry of ``requests``, each a
    tuple of per-axis derivative counts (all zeros give the value itself).

    ``f`` is called once, on the nodes of every requested stencil at every
    Richardson level; where the stencils of a point share nodes, on each
    bit-distinct node once, in order of first appearance.  Each partial is
    then the weighted sum of its node values in stencil order, divided by
    ``h**order``, per level.  ``f`` may return scalars or arrays per point;
    derivatives apply elementwise.
    """
    x = np.asarray(x, dtype=float)
    stack = np.atleast_2d(x)
    requests = [tuple(orders) for orders in requests]
    nodes, starts, count = [], [], 0  # starts[r]: the first node and the step per level (None for a value)
    for orders in requests:
        if not any(orders):
            nodes.append(stack[:, None, :])
            starts.append((count, None))
            count += 1
            continue
        offsets = _stencil_table(orders)[0]
        steps = [step / 2**lvl for lvl in range(LEVELS + 1)]
        nodes.extend(stack[:, None, :] + h * offsets for h in steps)
        starts.append((count, steps))
        count += len(steps) * len(offsets)
    nodes = np.concatenate(nodes, axis=1).reshape(-1, stack.shape[1])
    if len({node.tobytes() for node in nodes[:count]}) == count:  # the stencils at a point share no node
        values = np.asarray(f(nodes))
    else:  # compare bytes: -0.0 is not 0.0
        first: dict[bytes, int] = {}  # each distinct node's first row
        rows = [first.setdefault(node.tobytes(), i) for i, node in enumerate(nodes)]
        distinct = list(first.values())
        values = np.asarray(f(nodes[distinct]))[np.searchsorted(distinct, rows)]
    values = values.reshape((len(stack), count) + values.shape[1:])
    out = []
    for orders, (first, steps) in zip(requests, starts):
        if steps is None:
            result = values[:, first]
        else:
            # one pass over the stencil for every level at once: each element
            # sees the same products and sums, in the same order, as per level
            weights, total = _stencil_table(orders)[1], int(sum(orders))
            stencils = values[:, first : first + len(steps) * len(weights)]
            stencils = stencils.reshape((len(stack), len(steps), len(weights)) + values.shape[2:]).swapaxes(0, 1)
            acc = weights[0] * stencils[:, :, 0]
            for i in range(1, len(weights)):
                acc = acc + weights[i] * stencils[:, :, i]
            divisors = np.array([h**total for h in steps]).reshape((len(steps),) + (1,) * (acc.ndim - 1))
            result = richardson(acc / divisors)
        out.append(result if x.ndim == 2 else result[0])
    return out


@functools.cache
def multi_indices(dim: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Per-axis counts of each distinct partial through ``order``, order 0 first:
    the last axis of a flat jet, so a lower-order jet is a prefix."""
    return tuple(
        tuple(idx.count(axis) for axis in range(dim))
        for k in range(order + 1)
        for idx in itertools.combinations_with_replacement(range(dim), k)
    )


@functools.cache
def _full_positions(dim: int, k: int) -> np.ndarray:
    """Flat position of the partial at each entry of a ``(dim,)*k`` derivative array."""
    position = {alpha: i for i, alpha in enumerate(multi_indices(dim, k))}
    entries = itertools.product(range(dim), repeat=k)
    return np.array([position[tuple(idx.count(axis) for axis in range(dim))] for idx in entries]).reshape((dim,) * k)


def expand(flat: np.ndarray, dim: int, order: int) -> list[np.ndarray]:
    """Symmetric derivative arrays of a flat jet, ``(dim,)*k`` axes appended for order k."""
    return [flat[..., _full_positions(dim, k)] for k in range(order + 1)]


@functools.cache
def _first_positions(dim: int, k: int) -> np.ndarray:
    """Each order-``k`` partial's first entry in a flattened ``(dim,)*k`` derivative array: its sorted index tuple."""
    return np.unique(_full_positions(dim, k), return_index=True)[1]


def compress(jets: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """The flat jet of symmetric derivative arrays, the inverse of :func:`expand`."""
    columns = []
    for k, arr in enumerate(map(np.asarray, jets)):
        columns.append(arr.reshape(arr.shape[: arr.ndim - k] + (-1,))[..., _first_positions(dim, k)])
    return np.concatenate(columns, axis=-1)


def jet(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    max_order: int,
    step: float = DEFAULT_STEP,
) -> np.ndarray:
    """All partial derivatives of ``f`` at ``x`` up to ``max_order``, as a flat jet.

    The value's axes come first (after the leading axis of a stack of
    points), then one axis over ``multi_indices(dim, max_order)``;
    :func:`expand` gives the symmetric derivative arrays.
    """
    if max_order > MAX_ORDER:
        raise UnsupportedOrderError(f"jet order {max_order} exceeds the supported cap of {MAX_ORDER}")
    x = np.asarray(x, dtype=float)
    return np.stack(partials(f, x, multi_indices(x.shape[-1], max_order), step), axis=-1)


def jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Jacobian matrix (outputs x inputs) of a vector-valued map."""
    x = np.asarray(x, dtype=float)
    dim = x.shape[-1]
    return np.stack(partials(f, x, [tuple(int(i == ax) for i in range(dim)) for ax in range(dim)], step), axis=-1)


def symmetrize(arr: np.ndarray, axes: Sequence[int] | None = None) -> np.ndarray:
    """Average an array over all permutations of the given axes (default: all)."""
    arr = np.asarray(arr)
    if axes is None:
        axes = tuple(range(arr.ndim))
    axes = tuple(axes)
    if len(axes) < 2:
        return arr
    fixed = [ax for ax in range(arr.ndim) if ax not in axes]
    perms = list(itertools.permutations(axes))
    acc = np.zeros_like(arr)
    for perm in perms:
        mapping = dict(zip(axes, perm))
        order = [mapping.get(ax, ax) for ax in range(arr.ndim)]
        acc = acc + np.transpose(arr, order)
    return acc / len(perms)
