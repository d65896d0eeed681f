"""Scalar and symmetric tensor coefficient fields on a chart.

Fields wrap point evaluations together with partial-derivative access.  When
a field is built from the expression grammar (or another analytic source) its
partials are exact; otherwise they fall back to the shared finite-difference
engine.  A field called on one chart point, shape ``(dim,)``, returns a
complex number; called on an ``(N, dim)`` array of points it returns the N
values as one array, computed with array arithmetic except for opaque
callables (:func:`from_callable`), which are called point by point.  A
field remembers its value at the last single point it was called on, so a
field tree that shares subtrees evaluates each distinct field once per point
without the caller doing anything; point arrays are never remembered (an
operator matrix keeps its own per-grid table).  :func:`evaluate` evaluates an
object array of fields.  All symbol/operator coefficient algebra in the
package is expressed through these objects, which keeps forward and inverse
maps numerically consistent.  Covariant derivatives and divergences of these
fields, the Cartesian ones included, are built in ``geometry``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from . import numdiff
from .errors import ShapeError, UnsupportedOrderError
from .expressions import Expr, parse_expression


class ScalarField:
    """A complex-valued function of chart coordinates with partial derivatives.

    ``fn`` takes a point of shape ``(dim,)`` and returns a complex number, or
    an ``(N, dim)`` point array and returns the N values;
    ``partial_factory(axis)`` builds the partial along one axis (finite
    differences of a plain callable come from :func:`from_callable`).  The
    value at the last single point is remembered and returned, unchanged, when
    the field is called there again.
    """

    __slots__ = ("dim", "_fn", "_partial_factory", "_partial_cache", "_last")

    def __init__(
        self,
        dim: int,
        fn: Callable[[np.ndarray], complex],
        partial_factory: Callable[[int], "ScalarField"],
    ):
        self.dim = dim
        self._fn = fn
        self._partial_factory = partial_factory
        self._partial_cache: dict[int, ScalarField] = {}
        self._last: tuple = (None, None)  # (point bytes, value), replaced as one

    def __call__(self, q: np.ndarray) -> complex | np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.ndim != 1:
            return self._fn(q)
        key, last = q.tobytes(), self._last
        if last[0] != key:
            last = self._last = (key, self._fn(q))
        return last[1]

    def partial(self, axis: int) -> "ScalarField":
        if axis not in self._partial_cache:
            self._partial_cache[axis] = self._partial_factory(axis)
        return self._partial_cache[axis]


def constant(dim: int, value: complex) -> ScalarField:
    value = complex(value)
    zero = None

    def zero_factory(axis: int) -> ScalarField:
        nonlocal zero
        if zero is None:
            zero = constant(dim, 0.0)
        return zero

    return ScalarField(dim, lambda q: value if q.ndim == 1 else np.full(len(q), value), zero_factory)


def from_expression(source: str | Expr, coordinates: Sequence[str]) -> ScalarField:
    """Build a scalar field with exact symbolic partials from an expression.

    On a point array the field's values are those at the single points, bit
    for bit (integer powers go through :func:`expressions.libm`).
    """
    coords = tuple(coordinates)
    expr = parse_expression(source, coords) if isinstance(source, str) else source

    def make(e: Expr) -> ScalarField:
        def fn(q):
            if q.ndim == 1:
                return complex(e.eval(dict(zip(coords, q))))
            out = np.empty(len(q), dtype=complex)
            out[:] = e.eval(dict(zip(coords, q.T)))  # a constant expression gives one number
            return out

        def partial_factory(axis: int) -> ScalarField:
            return make(e.diff(coords[axis]))

        return ScalarField(len(coords), fn, partial_factory)

    return make(expr)


def from_callable(dim: int, fn: Callable[[np.ndarray], complex]) -> ScalarField:
    """Wrap a plain callable; derivative chains accumulate into one mixed stencil.

    ``field.partial(a).partial(b)`` evaluates a single second-order stencil of
    ``fn`` rather than nesting first-order differences, which keeps the noise
    floor near the Richardson accuracy of the base function.  ``fn`` takes one
    point; on a point array the field calls it at each point in turn, and a
    partial evaluates every stencil node of every point in one pass.
    """
    lifted = numdiff.pointwise(fn)

    def make(orders: tuple[int, ...]) -> ScalarField:
        if sum(orders) == 0:
            value = numdiff.pointwise(lambda q: complex(fn(q)))
        elif sum(orders) > numdiff.MAX_ORDER:
            raise UnsupportedOrderError("finite-difference chain exceeds supported order")
        else:

            def value(q):
                d = numdiff.partial_derivative(lifted, q, orders)
                return complex(d) if q.ndim == 1 else d.astype(complex)

        def partial_factory(axis: int) -> ScalarField:
            bumped = list(orders)
            bumped[axis] += 1
            return make(tuple(bumped))

        return ScalarField(dim, value, partial_factory)

    return make((0,) * dim)


def scale(field: ScalarField, factor: complex) -> ScalarField:
    factor = complex(factor)
    if factor == 0:
        return constant(field.dim, 0.0)

    def partial_factory(axis: int) -> ScalarField:
        return scale(field.partial(axis), factor)

    return ScalarField(field.dim, lambda q: factor * field(q), partial_factory)


def add(*fields: ScalarField) -> ScalarField:
    fields = tuple(f for f in fields if f is not None)
    if not fields:
        raise ShapeError("add() needs at least one field")
    dim = fields[0].dim

    def partial_factory(axis: int) -> ScalarField:
        return add(*[f.partial(axis) for f in fields])

    return ScalarField(dim, lambda q: sum(f(q) for f in fields), partial_factory)


def multiply(a: ScalarField, b: ScalarField) -> ScalarField:
    def partial_factory(axis: int) -> ScalarField:
        return add(multiply(a.partial(axis), b), multiply(a, b.partial(axis)))

    return ScalarField(a.dim, lambda q: a(q) * b(q), partial_factory)


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
    if rank == 0:
        comps[()] = assign(())
    else:
        for idx in itertools.combinations_with_replacement(range(dim), rank):
            field = assign(idx)
            for perm in set(itertools.permutations(idx)):
                comps[perm] = field
    return TensorField(dim, rank, comps)


def tensor_constant(dim: int, values: np.ndarray) -> TensorField:
    values = np.asarray(values, dtype=complex)
    rank = values.ndim
    values = numdiff.symmetrize(values)
    return tensor_from_fields(dim, rank, lambda idx: constant(dim, values[idx] if rank else complex(values)))


def tensor_scalar(field: ScalarField) -> TensorField:
    comps = np.empty((), dtype=object)
    comps[()] = field
    return TensorField(field.dim, 0, comps)


def tensor_scale(t: TensorField, factor: complex) -> TensorField:
    return tensor_from_fields(t.dim, t.rank, lambda idx: scale(t.comps[idx] if t.rank else t.comps[()], factor))


def tensor_add(*tensors: TensorField) -> TensorField:
    first = tensors[0]
    if any(t.rank != first.rank or t.dim != first.dim for t in tensors):
        raise ShapeError("tensor_add() requires matching rank and dimension")
    return tensor_from_fields(
        first.dim,
        first.rank,
        lambda idx: add(*[(t.comps[idx] if t.rank else t.comps[()]) for t in tensors]),
    )


def contract(t: TensorField, weights: np.ndarray) -> TensorField:
    """``W_{a1..ak} T^{a1..ak J}`` for an object array ``W`` of weight fields,
    shape ``(dim,)*k``: a rank ``t.rank - k`` field with partials as exact as
    those of ``W`` and ``t``.  Only the symmetric part of ``W`` contributes."""

    def assign(idx: tuple[int, ...]) -> ScalarField:
        return add(*[multiply(weights[s], t.comps[s + idx]) for s in np.ndindex(weights.shape)])

    return tensor_from_fields(t.dim, t.rank - weights.ndim, assign)
