"""Scalar and symmetric tensor coefficient fields on a chart.

Fields wrap point evaluations together with partial-derivative access.  When
a field is built from the expression grammar (or another analytic source) its
partials are exact; otherwise they fall back to the shared finite-difference
engine.  A field and its partials share one table of them keyed by per-axis
derivative orders, and a partial of a sum or product reads its children's
tables (the Leibniz rule) rather than building a field tree.  A field called
on one chart point, shape ``(dim,)``, returns a complex number; called on an
``(N, dim)`` array of points it returns the N values as one array, computed
with array arithmetic except for opaque callables (:func:`from_callable`),
which are called point by point.  A field remembers its value at the last
single point it was called on, so a field tree that shares subtrees evaluates
each distinct field once per point without the caller doing anything; point
arrays are never remembered (an operator matrix keeps its own per-grid
table).  :func:`evaluate` evaluates an object array of fields.  Fields add,
subtract and multiply with ``+``, ``-`` and ``*`` (a number scales), so array
formulas apply to object arrays of them.  All
symbol/operator coefficient algebra in the package is expressed through these
objects, which keeps forward and inverse maps numerically consistent.
Covariant derivatives and divergences of these fields, the Cartesian ones
included, are built in ``geometry``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Callable, Sequence

import numpy as np

from . import numdiff
from .errors import ShapeError, UnsupportedOrderError
from .expressions import Expr, parse_expression


class ScalarField:
    """A complex-valued function of chart coordinates with partial derivatives.

    ``fn`` takes a point of shape ``(dim,)`` and returns a complex number, or
    an ``(N, dim)`` point array and returns the N values; ``derive(orders)``
    returns such a function for the partial with ``orders[i]`` derivatives
    along axis ``i``, which is one field however its axes are ordered.  The
    value at the last single point is remembered and returned, unchanged,
    when the field is called there again.
    """

    __slots__ = ("dim", "_fn", "_derive", "_orders", "_family", "_last")

    def __init__(
        self,
        dim: int,
        fn: Callable[[np.ndarray], complex],
        derive: Callable[[tuple[int, ...]], Callable[[np.ndarray], complex]],
    ):
        self.dim = dim
        self._fn = fn
        self._derive = derive
        self._orders: tuple[int, ...] | None = None  # derivative counts from the table's root
        self._family: dict[tuple[int, ...], ScalarField] | None = None
        self._last: tuple = (None, None)  # (point bytes, value), replaced as one

    def __call__(self, q: np.ndarray) -> complex | np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.ndim != 1:
            return self._fn(q)
        key, last = q.tobytes(), self._last
        if last[0] != key:
            last = self._last = (key, self._fn(q))
        return last[1]

    def derivative(self, orders: Sequence[int]) -> "ScalarField":
        """The mixed partial with ``orders[i]`` derivatives along axis ``i``."""
        total = tuple(orders if self._orders is None else map(operator.add, self._orders, orders))
        if self._family is None:  # made on first use: most fields are never differentiated
            self._family = {(0,) * self.dim: self}
        if total not in self._family:
            field = self._family[total] = ScalarField(self.dim, self._derive(total), self._derive)
            field._orders, field._family = total, self._family
        return self._family[total]

    def partial(self, axis: int) -> "ScalarField":
        return self.derivative([int(i == axis) for i in range(self.dim)])

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return add(self, other)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return add(self, scale(other, -1.0))

    def __mul__(self, other: "ScalarField | complex") -> "ScalarField":
        return multiply(self, other) if isinstance(other, ScalarField) else scale(self, other)

    __rmul__ = __mul__


def constant(dim: int, value: complex) -> ScalarField:
    def fn(q, value=complex(value)):
        return value if q.ndim == 1 else np.full(len(q), value)

    return ScalarField(dim, fn, lambda orders: functools.partial(fn, value=0j))


def from_expression(source: str | Expr, coordinates: Sequence[str]) -> ScalarField:
    """Build a scalar field with exact symbolic partials from an expression.

    Each mixed partial differentiates, once, the expression of the partial
    one order lower along the last axis that still has a derivative.  On a
    point array the field's values are those at the single points, bit for
    bit (integer powers go through :func:`expressions.libm`).
    """
    coords = tuple(coordinates)
    expr = parse_expression(source, coords) if isinstance(source, str) else source
    exprs = {(0,) * len(coords): expr}

    def fn(q, e=expr):
        if q.ndim == 1:
            return complex(e.eval(dict(zip(coords, q))))
        out = np.empty(len(q), dtype=complex)
        out[:] = e.eval(dict(zip(coords, q.T)))  # a constant expression gives one number
        return out

    def derive(orders: tuple[int, ...]) -> Callable[[np.ndarray], complex]:
        if orders not in exprs:
            last = max(i for i, n in enumerate(orders) if n)
            lower = orders[:last] + (orders[last] - 1,) + orders[last + 1 :]
            derive(lower)
            exprs[orders] = exprs[lower].diff(coords[last])
        return functools.partial(fn, e=exprs[orders])

    return ScalarField(len(coords), fn, derive)


def from_callable(dim: int, fn: Callable[[np.ndarray], complex]) -> ScalarField:
    """Wrap a plain callable; each mixed partial is one stencil of ``fn``.

    ``field.partial(a).partial(b)`` evaluates a single second-order stencil of
    ``fn`` rather than nesting first-order differences, which keeps the noise
    floor near the Richardson accuracy of the base function.  ``fn`` takes one
    point; on a point array the field calls it at each point in turn, and a
    partial evaluates every stencil node of every point in one pass.
    """
    lifted = numdiff.pointwise(fn)

    def derive(orders: tuple[int, ...]) -> Callable[[np.ndarray], complex]:
        if sum(orders) > numdiff.MAX_ORDER:
            raise UnsupportedOrderError("finite-difference chain exceeds supported order")

        def value(q):
            d = numdiff.partial_derivative(lifted, q, orders)
            return complex(d) if q.ndim == 1 else d.astype(complex)

        return value

    return ScalarField(dim, numdiff.pointwise(lambda q: complex(fn(q))), derive)


def scale(field: ScalarField, factor: complex) -> ScalarField:
    factor = complex(factor)
    if factor == 0:
        return constant(field.dim, 0.0)

    def value(f: ScalarField) -> Callable[[np.ndarray], complex]:
        return lambda q: factor * f(q)

    return ScalarField(field.dim, value(field), lambda orders: value(field.derivative(orders)))


def add(*fields: ScalarField) -> ScalarField:
    if not fields:
        raise ShapeError("add() needs at least one field")

    def value(terms: Sequence[ScalarField]) -> Callable[[np.ndarray], complex]:
        return lambda q: sum(f(q) for f in terms)

    return ScalarField(fields[0].dim, value(fields), lambda orders: value([f.derivative(orders) for f in fields]))


@functools.cache
def _leibniz_terms(orders: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """``(binomial(orders, beta), beta, orders - beta)`` for every ``beta <= orders``,
    the highest ``beta`` first (a first partial reads ``a' b + a b'``)."""
    return tuple(
        (math.prod(map(math.comb, orders, beta)), beta, tuple(n - b for n, b in zip(orders, beta)))
        for beta in itertools.product(*[range(n, -1, -1) for n in orders])
    )


def multiply(a: ScalarField, b: ScalarField) -> ScalarField:
    """The product ``a b``; its partials follow the Leibniz rule."""

    def derive(orders: tuple[int, ...]) -> Callable[[np.ndarray], complex]:
        terms = [(c, a.derivative(beta), b.derivative(rest)) for c, beta, rest in _leibniz_terms(orders)]
        return lambda q: sum(c * (fa(q) * fb(q)) for c, fa, fb in terms)

    return ScalarField(a.dim, lambda q: a(q) * b(q), derive)


class TensorField:
    """A totally symmetric contravariant tensor field, stored componentwise.

    ``comps`` is an object array of shape ``(dim,)*rank`` whose entries are
    ScalarField instances; symmetric slots share the same object.
    """

    __slots__ = ("dim", "rank", "comps")

    def __init__(self, dim: int, rank: int, comps: np.ndarray):
        self.dim = dim
        self.rank = rank
        comps = np.asarray(comps, dtype=object)
        if comps.shape != (dim,) * rank:
            raise ShapeError(f"component array shape {comps.shape} != {(dim,) * rank}")
        self.comps = comps

    def evaluate(self, q: np.ndarray) -> np.ndarray:
        """Components at one point or on a point array (:func:`evaluate`)."""
        return evaluate(self.comps, q)


def evaluate(comps: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Values of an object array of fields at one point, or at each row of an
    ``(N, dim)`` point array (shape ``(N,) + comps.shape``, the point axis first)."""
    q = np.asarray(q, dtype=float)
    out = np.empty(q.shape[:-1] + comps.shape, dtype=complex)
    flat = out.reshape(q.shape[:-1] + (-1,))
    for i, field in enumerate(comps.flat):
        flat[..., i] = field(q)
    return out


def tensor_from_fields(dim: int, rank: int, assign: Callable[[tuple[int, ...]], ScalarField]) -> TensorField:
    """Build a symmetric tensor field; ``assign`` is called once per sorted index."""
    comps = np.empty((dim,) * rank, dtype=object)
    for idx in itertools.combinations_with_replacement(range(dim), rank):  # rank 0: the one index ()
        field = assign(idx)
        for perm in set(itertools.permutations(idx)):
            comps[perm] = field
    return TensorField(dim, rank, comps)


def tensor_constant(dim: int, values: np.ndarray) -> TensorField:
    values = np.asarray(values, dtype=complex)
    rank = values.ndim
    values = numdiff.symmetrize(values)
    return tensor_from_fields(dim, rank, lambda idx: constant(dim, values[idx]))


def tensor_scalar(field: ScalarField) -> TensorField:
    return tensor_from_fields(field.dim, 0, lambda idx: field)


def tensor_scale(t: TensorField, factor: complex) -> TensorField:
    return tensor_from_fields(t.dim, t.rank, lambda idx: scale(t.comps[idx], factor))


def tensor_add(*tensors: TensorField) -> TensorField:
    first = tensors[0]
    if any(t.rank != first.rank or t.dim != first.dim for t in tensors):
        raise ShapeError("tensor_add() requires matching rank and dimension")
    return tensor_from_fields(
        first.dim,
        first.rank,
        lambda idx: add(*[t.comps[idx] for t in tensors]),
    )


def contract(t: TensorField, weights: np.ndarray) -> TensorField:
    """``W_{a1..ak} T^{a1..ak J}`` for an object array ``W`` of weight fields,
    shape ``(dim,)*k``: a rank ``t.rank - k`` field with partials as exact as
    those of ``W`` and ``t``.  Only the symmetric part of ``W`` contributes."""

    def assign(idx: tuple[int, ...]) -> ScalarField:
        return add(*[multiply(weights[s], t.comps[s + idx]) for s in np.ndindex(weights.shape)])

    return tensor_from_fields(t.dim, t.rank - weights.ndim, assign)
