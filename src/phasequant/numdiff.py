"""Central-difference jets with Richardson extrapolation.

All numerical differentiation in the package funnels through this module so
that forward maps and their inverses cancel exactly when they differentiate
the same field twice.

Stencils are the classical symmetric second-order ones; Richardson
extrapolation over step halvings removes the h^2 and h^4 error terms, so the
returned values are O(h^6) accurate for smooth inputs (:data:`LEVELS` = 2).
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


def _stencil(orders: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product stencil for a mixed partial of per-axis ``orders``.

    Returns integer offset vectors of shape (#nodes, d) and weights such that
    sum_i w_i f(x + h*offset_i) / h^total approximates the mixed partial.
    Tables are built once per ``orders`` and shared read-only.
    """
    return _stencil_table(tuple(orders))


@functools.lru_cache(maxsize=None)
def _stencil_table(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
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


def _apply_stencil(f: Callable, x: np.ndarray, orders: Sequence[int], h: float):
    offsets, weights = _stencil(orders)
    total = int(sum(orders))
    acc = None
    for off, w in zip(offsets, weights):
        val = np.asarray(f(x + h * off))
        acc = w * val if acc is None else acc + w * val
    return acc / h**total


def richardson(samples: Sequence) -> np.ndarray:
    """Extrapolate a sequence D(h), D(h/2), ... with even error expansions."""
    rows = [np.asarray(s) for s in samples]
    k = 1
    while len(rows) > 1:
        factor = 4.0**k
        rows = [(factor * rows[i + 1] - rows[i]) / (factor - 1.0) for i in range(len(rows) - 1)]
        k += 1
    return rows[0]


def partial_derivative(
    f: Callable,
    x: np.ndarray,
    orders: Sequence[int],
    step: float = DEFAULT_STEP,
):
    """Mixed partial of ``f`` at ``x``; ``orders[i]`` counts derivatives in axis i.

    ``f`` may return scalars or arrays; derivatives apply elementwise.
    """
    x = np.asarray(x, dtype=float)
    if all(m == 0 for m in orders):
        return np.asarray(f(x))
    samples = [_apply_stencil(f, x, orders, step / 2**lvl) for lvl in range(LEVELS + 1)]
    return richardson(samples)


def _multi_index_orders(dim: int, order: int):
    """Yield (orders tuple, representative index tuple) for all distinct partials."""
    for idx in itertools.combinations_with_replacement(range(dim), order):
        orders = [0] * dim
        for i in idx:
            orders[i] += 1
        yield tuple(orders), idx


def jet(
    f: Callable,
    x: np.ndarray,
    max_order: int,
    step: float = DEFAULT_STEP,
) -> list[np.ndarray]:
    """All partial derivatives of ``f`` at ``x`` up to ``max_order``.

    Returns a list indexed by order; entry k has shape
    ``np.shape(f(x)) + (dim,)*k`` with the derivative axes appended, filled
    symmetrically.
    """
    if max_order > 4:
        raise UnsupportedOrderError(f"jet order {max_order} exceeds the supported cap of 4")
    x = np.asarray(x, dtype=float)
    base = np.asarray(f(x))
    out: list[np.ndarray] = [base]
    dim = x.size
    dtype = complex if np.iscomplexobj(base) else float
    for order in range(1, max_order + 1):
        arr = np.zeros(base.shape + (dim,) * order, dtype=dtype)
        for orders, idx in _multi_index_orders(dim, order):
            val = partial_derivative(f, x, orders, step=step)
            for perm in set(itertools.permutations(idx)):
                arr[(Ellipsis,) + perm] = val
        out.append(arr)
    return out


def jacobian(f: Callable, x: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Jacobian matrix (outputs x inputs) of a vector-valued map."""
    x = np.asarray(x, dtype=float)
    cols = []
    for ax in range(x.size):
        orders = [0] * x.size
        orders[ax] = 1
        cols.append(partial_derivative(f, x, orders, step=step))
    return np.stack(cols, axis=-1)


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
