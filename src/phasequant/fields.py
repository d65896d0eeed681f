"""Scalar and tensor coefficient fields on a chart.

A field's one derivative primitive is ``field.jet(q, order)``: its partials
through ``order`` at a point or at each row of an ``(N, dim)`` point array,
along a last axis over :func:`numdiff.multi_indices`.  An expression fills it
from its symbolic partials, a callable from one finite-difference jet, sums
and products from their parts' jets (the Leibniz rule), and a partial from its
parent's jet shifted down an order.  A tensor field, a symbol coefficient or a
level of a manifold's geometry alike, is one such node with its component axes
first: scaling, sums, contractions (one Leibniz product per weight slot) and
divergences act on the whole stack, and a :func:`component` reads one entry of
it.  The value is the order-0 entry, on a point array bit for bit those at the
single points (the same numpy operations run on both).  A field remembers its
jet, read-only, at the last point or point array (keyed by shape and bytes, so
a point and a one-row array are apart), so shared subtrees compute each
distinct jet once per point or point array.  Fields combine with ``+``, ``-``
and ``*`` (a number scales), so array formulas apply to object arrays of
component fields before they are stacked.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Sequence

import numpy as np

from . import numdiff, taylor
from .errors import ShapeError, UnsupportedOrderError
from .expressions import Expr, parse_expression

class ScalarField:
    """A complex-valued function of chart coordinates with all its partials.

    ``cap``, when set, is the highest order a finite-difference source gives; a
    chain of partials past it raises at once.  A field whose jet has component
    axes first is the shared source of :func:`component` fields.
    """

    __slots__ = ("dim", "cap", "_jet", "_last")

    def __init__(self, dim: int, jet: Callable[[np.ndarray, int], np.ndarray], cap: int | None = None):
        self.dim = dim
        self.cap = cap
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
        q = np.asarray(q, dtype=float)
        jet = self.jet(q, 0)
        return complex(jet[0]) if q.ndim == 1 else jet[..., 0]

    def partial(self, axis: int) -> "ScalarField":
        if self.cap == 0:
            raise UnsupportedOrderError("finite-difference chain exceeds supported order")
        cap = None if self.cap is None else self.cap - 1
        return ScalarField(self.dim, lambda q, n: taylor.jet_shift(self.jet(q, n + 1), self.dim, n, axis), cap)

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return add(self, other)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return add(self, scale(other, -1.0))

    def __mul__(self, other: "ScalarField | complex") -> "ScalarField":
        return multiply(self, other) if isinstance(other, ScalarField) else scale(self, other)

    __rmul__ = __mul__


def constant(dim: int, value: complex) -> ScalarField:
    value = complex(value)

    def jet(q, order):
        out = np.zeros(q.shape[:-1] + (len(numdiff.multi_indices(dim, order)),), dtype=complex)
        out[..., 0] = value
        return out

    return ScalarField(dim, jet)


def from_expression(source: str | Expr, coordinates: Sequence[str]) -> ScalarField:
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

    return ScalarField(dim, jet)


def from_callable(dim: int, fn: Callable[[np.ndarray], complex]) -> ScalarField:
    """Wrap a plain callable of one point; its jet is one :func:`numdiff.jet`, taken
    as it comes (the same flat layout), each mixed partial a single stencil (the
    noise floor stays near the Richardson accuracy of ``fn``).  An array-valued
    ``fn`` is a :func:`component` source.
    """
    lifted = numdiff.pointwise(fn)

    def jet(q, order):
        flat = numdiff.jet(lifted, q, order).astype(complex)
        return flat if q.ndim == 1 else np.moveaxis(flat, 0, -2)  # the point axis just before the jet's

    return ScalarField(dim, jet, numdiff.MAX_ORDER)


def component(source: ScalarField, idx: tuple[int, ...]) -> ScalarField:
    """The field of entry ``idx`` of a tensor-valued ``source``, whose jet at a
    point is computed once for all its components."""
    return ScalarField(source.dim, lambda q, order: source.jet(q, order)[idx], source.cap)


def scale(field: ScalarField, factor: complex) -> ScalarField:
    factor = complex(factor)
    if factor == 0:
        return constant(field.dim, 0.0)
    return ScalarField(field.dim, lambda q, order: factor * field.jet(q, order), field.cap)


def add(*fields: ScalarField) -> ScalarField:
    if not fields:
        raise ShapeError("add() needs at least one field")

    def jet(q, order):
        total = fields[0].jet(q, order)
        for f in fields[1:]:
            total = total + f.jet(q, order)
        return total

    return ScalarField(fields[0].dim, jet)


def multiply(a: ScalarField, b: ScalarField) -> ScalarField:
    """The product ``a b``; its partials follow the Leibniz rule."""
    dim = a.dim
    return ScalarField(dim, lambda q, order: taylor.jet_product(a.jet(q, order), b.jet(q, order), dim, order))


class TensorField:
    """A tensor field, its component axes first: one jet node, ``source``, whose
    jet holds ``rank`` component axes of length ``dim`` before any point axis and
    the multi-index axis.  Built from an object array of component fields of shape
    ``(dim,)*rank``, the node stacks their jets; :func:`component` reads one entry."""

    __slots__ = ("dim", "rank", "source")

    def __init__(self, dim: int, rank: int, comps: np.ndarray):
        comps = np.array(comps, dtype=object)
        if comps.shape != (dim,) * rank:
            raise ShapeError(f"component array shape {comps.shape} != {(dim,) * rank}")

        def jet(q, order):
            stacked = np.array([field.jet(q, order) for field in comps.flat])
            return stacked.reshape(comps.shape + stacked.shape[1:])

        self.dim, self.rank, self.source = dim, rank, ScalarField(dim, jet)

    @classmethod
    def from_source(cls, dim: int, rank: int, source: ScalarField) -> "TensorField":
        """The tensor whose stacked jet is ``source``'s."""
        t = cls.__new__(cls)
        t.dim, t.rank, t.source = dim, rank, source
        return t

    def evaluate(self, q: np.ndarray) -> np.ndarray:
        """Components at one point or on a point array, the point axis first, in C order:
        matmul sums a strided stack by another kernel, moving symbol values' last bits."""
        values = self.source.jet(q, 0)[..., 0]  # the component axes, then a point array's
        return np.array(values.transpose(-1, *range(self.rank)) if values.ndim > self.rank else values, order="C")


def sorted_entries(jet: np.ndarray, dim: int, rank: int) -> np.ndarray:
    """``jet`` with each entry of its ``rank`` leading component axes read at the
    sorted index: symmetric slots hold one entry's bits, as shared components do."""
    flat = np.arange(dim**rank).reshape((dim,) * rank)
    positions = [flat[tuple(sorted(idx))] for idx in np.ndindex(flat.shape)]
    return jet.reshape((dim**rank,) + jet.shape[rank:])[positions].reshape(jet.shape)


def tensor_from_fields(dim: int, rank: int, assign: Callable[[tuple[int, ...]], ScalarField]) -> TensorField:
    """Build a symmetric tensor field; ``assign`` is called once per sorted index."""
    shared = {idx: assign(idx) for idx in itertools.combinations_with_replacement(range(dim), rank)}
    comps = [shared[tuple(sorted(idx))] for idx in np.ndindex((dim,) * rank)]
    return TensorField(dim, rank, np.array(comps, dtype=object).reshape((dim,) * rank))


def tensor_constant(dim: int, values: np.ndarray) -> TensorField:
    values = np.asarray(values, dtype=complex)
    rank = values.ndim
    values = numdiff.symmetrize(values)
    return tensor_from_fields(dim, rank, lambda idx: constant(dim, values[idx]))


def tensor_scalar(field: ScalarField) -> TensorField:
    return tensor_from_fields(field.dim, 0, lambda idx: field)


def tensor_scale(t: TensorField, factor: complex) -> TensorField:
    if complex(factor) == 0:
        return tensor_constant(t.dim, np.zeros((t.dim,) * t.rank))
    return TensorField.from_source(t.dim, t.rank, scale(t.source, factor))


def tensor_add(*tensors: TensorField) -> TensorField:
    first = tensors[0]
    if any(t.rank != first.rank or t.dim != first.dim for t in tensors):
        raise ShapeError("tensor_add() requires matching rank and dimension")
    return TensorField.from_source(first.dim, first.rank, add(*[t.source for t in tensors]))


def contract(t: TensorField, weights: TensorField) -> TensorField:
    """``W_{a1..ak} T^{a1..ak J}`` for a rank-k weight tensor field ``W``: a rank
    ``t.rank - k`` field with partials as exact as those of ``W`` and ``t``, one
    Leibniz product per slot added in slot order.  Only the symmetric part of ``W`` contributes."""

    def jet(q, order):
        T, W = t.source.jet(q, order), weights.source.jet(q, order)
        slots = np.ndindex((t.dim,) * weights.rank)
        return functools.reduce(np.add, [taylor.jet_product(W[s], T[s], t.dim, order) for s in slots])

    return TensorField.from_source(t.dim, t.rank - weights.rank, ScalarField(t.dim, jet))
