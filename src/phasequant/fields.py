"""Tensor fields on a chart: one class, each field one jet node.

Every coefficient object is a symmetric tensor field of some rank, a scalar
rank 0: a symbol term, an operator coefficient, a level of a manifold's
geometry and a density jet alike.  A field's one derivative primitive is
``field.jet(q, order)``: its partials through ``order`` at a point or at each
row of an ``(N, dim)`` point array, its ``rank`` component axes first and a
last axis over :func:`numdiff.multi_indices`.  An expression fills it from its
symbolic partials, a callable from one finite-difference jet, and sums and
products from their parts' jets (the Leibniz rule).  Scaling, sums,
contractions (one Leibniz product per weight slot; a rank-0 weight makes a
product) and divergences act on the whole node, and :func:`stack` makes one node of an object array of
scalar fields.  The value is the order-0 entry, on a point array bit for bit
those at the single points (the same numpy operations run on both).  A field
remembers its jet, read-only, at the last point or point array (keyed by shape
and bytes, so a point and a one-row array are apart), so shared subtrees
compute each distinct jet once per point or point array.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Sequence

import numpy as np

from . import numdiff, taylor
from .errors import ShapeError
from .expressions import Expr, parse_expression


class TensorField:
    """A complex-valued tensor field of chart coordinates with all its partials.

    ``jet(q, order)`` holds ``rank`` component axes of length ``dim`` before
    any point axis and the multi-index axis; a scalar field has rank 0.
    """

    __slots__ = ("dim", "rank", "_jet", "_last")

    def __init__(self, dim: int, rank: int, jet: Callable[[np.ndarray, int], np.ndarray]):
        self.dim = dim
        self.rank = rank
        self._jet = jet
        self._last: tuple = (None, -1, None)  # ((shape, bytes) of q, order, read-only jet), replaced as one

    def jet(self, q: np.ndarray, order: int) -> np.ndarray:
        """Every partial through ``order`` at ``q``, along the last axis."""
        q = np.asarray(q, dtype=float)
        key, (last, known, jet) = (q.shape, q.tobytes()), self._last
        if key != last or known < order:
            jet, known = self._jet(q, order), order
            jet.flags.writeable = False
            self._last = (key, order, jet)
        return jet if known == order else jet[..., : len(numdiff.multi_indices(self.dim, order))]

    def __call__(self, q: np.ndarray) -> complex | np.ndarray:
        """The value of a rank-0 field at a point, or its values on a point array."""
        q = np.asarray(q, dtype=float)
        jet = self.jet(q, 0)
        return complex(jet[0]) if q.ndim == 1 else jet[..., 0]

    def evaluate(self, q: np.ndarray) -> np.ndarray:
        """Components at one point or on a point array, the point axis first, in C order:
        matmul sums a strided stack by another kernel, moving symbol values' last bits."""
        values = self.jet(q, 0)[..., 0]  # the component axes, then a point array's
        return np.array(values.transpose(-1, *range(self.rank)) if values.ndim > self.rank else values, order="C")


def sorted_entries(jet: np.ndarray, dim: int, rank: int) -> np.ndarray:
    """``jet`` with each entry of its ``rank`` leading component axes read at the
    sorted index: symmetric slots hold one entry's bits, as shared components do."""
    flat = np.arange(dim**rank).reshape((dim,) * rank)
    positions = [flat[tuple(sorted(idx))] for idx in np.ndindex(flat.shape)]
    return jet.reshape((dim**rank,) + jet.shape[rank:])[positions].reshape(jet.shape)


def constant(dim: int, values: complex | np.ndarray) -> TensorField:
    """The constant field of rank ``values.ndim``: ``values`` symmetrized, each
    entry read at its sorted index, so permuted entries hold one entry's bits."""
    values = np.asarray(values, dtype=complex)
    rank = values.ndim
    values = sorted_entries(numdiff.symmetrize(values), dim, rank)

    def jet(q, order):
        out = np.zeros(values.shape + q.shape[:-1] + (len(numdiff.multi_indices(dim, order)),), dtype=complex)
        out[..., 0] = values.reshape(values.shape + (1,) * (q.ndim - 1))
        return out

    return TensorField(dim, rank, jet)


def from_expression(source: str | Expr, coordinates: Sequence[str]) -> TensorField:
    """Build a scalar field with exact symbolic partials from an expression.

    Each mixed partial differentiates, once, the expression of the partial
    one order lower along the last axis that still has a derivative.  On a
    point array the field's values are those at the single points, bit for
    bit, since an expression runs the same numpy operations on both.
    """
    coords = tuple(coordinates)
    dim = len(coords)
    exprs = [parse_expression(source, coords) if isinstance(source, str) else source]

    def jet(q, order):
        indices = numdiff.multi_indices(dim, order)
        for alpha in indices[len(exprs) :]:
            last = max(i for i, n in enumerate(alpha) if n)
            lower = indices.index(alpha[:last] + (alpha[last] - 1,) + alpha[last + 1 :])
            exprs.append(exprs[lower].diff(coords[last]))
        env = dict(zip(coords, q.T))
        out = np.empty(q.shape[:-1] + (len(indices),), dtype=complex)
        for i in range(len(indices)):
            out[..., i] = exprs[i].eval(env)  # a constant expression gives one number
        return out

    return TensorField(dim, 0, jet)


def from_callable(dim: int, fn: Callable[[np.ndarray], complex]) -> TensorField:
    """Wrap a plain callable of one point; its jet is one :func:`numdiff.jet`, taken
    as it comes (the same flat layout), each mixed partial a single stencil (the
    noise floor stays near the Richardson accuracy of ``fn``).  The jet of an
    array-valued ``fn`` holds the value's axes first.
    """
    lifted = numdiff.pointwise(fn)

    def jet(q, order):
        flat = numdiff.jet(lifted, q, order).astype(complex)
        return flat if q.ndim == 1 else np.moveaxis(flat, 0, -2)  # the point axis just before the jet's

    return TensorField(dim, 0, jet)


def stack(dim: int, rank: int, comps: np.ndarray) -> TensorField:
    """One node of an object array of scalar fields of shape ``(dim,)*rank``,
    its jet the stack of theirs."""
    comps = np.array(comps, dtype=object)
    if comps.shape != (dim,) * rank:
        raise ShapeError(f"component array shape {comps.shape} != {(dim,) * rank}")

    def jet(q, order):
        stacked = np.array([field.jet(q, order) for field in comps.flat])
        return stacked.reshape(comps.shape + stacked.shape[1:])

    return TensorField(dim, rank, jet)


def tensor_from_fields(dim: int, rank: int, assign: Callable[[tuple[int, ...]], TensorField]) -> TensorField:
    """Build a symmetric tensor field; ``assign`` is called once per sorted index.
    A rank-0 tensor is its one field."""
    shared = {idx: assign(idx) for idx in itertools.combinations_with_replacement(range(dim), rank)}
    if rank == 0:
        return shared[()]
    comps = [shared[tuple(sorted(idx))] for idx in np.ndindex((dim,) * rank)]
    return stack(dim, rank, np.array(comps, dtype=object).reshape((dim,) * rank))


def scale(field: TensorField, factor: complex) -> TensorField:
    """``factor`` times ``field``; a zero factor gives the exact zero constant of its rank."""
    factor = complex(factor)
    if factor == 0:
        return constant(field.dim, np.zeros((field.dim,) * field.rank))
    return TensorField(field.dim, field.rank, lambda q, order: factor * field.jet(q, order))


def add(*fields: TensorField) -> TensorField:
    """The sum of fields of one rank and dimension, added left to right."""
    if not fields:
        raise ShapeError("add() needs at least one field")
    first = fields[0]
    if any(f.rank != first.rank or f.dim != first.dim for f in fields):
        raise ShapeError("add() requires matching rank and dimension")

    def jet(q, order):
        total = first.jet(q, order)
        for f in fields[1:]:
            total = total + f.jet(q, order)
        return total

    return TensorField(first.dim, first.rank, jet)


def contract(t: TensorField, weights: TensorField) -> TensorField:
    """``W_{a1..ak} T^{a1..ak J}`` for a rank-k weight tensor field ``W``: a rank
    ``t.rank - k`` field with partials as exact as those of ``W`` and ``t``, one
    Leibniz product per slot added in slot order.  Only the symmetric part of ``W`` contributes."""

    def jet(q, order):
        T, W = t.jet(q, order), weights.jet(q, order)
        slots = np.ndindex((t.dim,) * weights.rank)
        return functools.reduce(np.add, [taylor.jet_product(W[s], T[s], t.dim, order) for s in slots])

    return TensorField(t.dim, t.rank - weights.rank, jet)
