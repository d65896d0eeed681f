"""Scalar and symmetric tensor coefficient fields on a chart.

Fields wrap point evaluations together with partial-derivative access.  When
a field is built from the expression grammar (or another analytic source) its
partials are exact; otherwise they fall back to the shared finite-difference
engine.  A field called on one chart point, shape ``(dim,)``, returns a
complex number; called on an ``(N, dim)`` array of points it returns the N
values as one array, computed with array arithmetic except for opaque
callables (:func:`from_callable`), which are called point by point.  All
symbol/operator coefficient algebra in the package is expressed through
these objects, which keeps forward and inverse maps numerically consistent.  Covariant derivatives and divergences of these fields, the
Cartesian ones included, are built in ``geometry``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from . import numdiff
from .expressions import Expr, parse_expression


class ScalarField:
    """A complex-valued function of chart coordinates with partial derivatives.

    ``fn`` takes a point of shape ``(dim,)`` and returns a complex number, or
    an ``(N, dim)`` point array and returns the N values.
    """

    __slots__ = ("dim", "_fn", "_partial_factory", "_partial_cache")

    def __init__(
        self,
        dim: int,
        fn: Callable[[np.ndarray], complex],
        partial_factory: Callable[[int], "ScalarField"] | None = None,
    ):
        self.dim = dim
        self._fn = fn
        self._partial_factory = partial_factory
        self._partial_cache: dict[int, ScalarField] = {}

    def __call__(self, q: np.ndarray) -> complex | np.ndarray:
        return self._fn(np.asarray(q, dtype=float))

    def partial(self, axis: int) -> "ScalarField":
        if axis in self._partial_cache:
            return self._partial_cache[axis]
        if self._partial_factory is not None:
            field = self._partial_factory(axis)
        else:
            orders = [0] * self.dim
            orders[axis] = 1
            fn = self._fn

            def fd(q, _orders=tuple(orders)):
                return complex(numdiff.partial_derivative(fn, q, _orders))

            field = ScalarField(self.dim, _pointwise(fd))
        self._partial_cache[axis] = field
        return field


def _pointwise(fn: Callable[[np.ndarray], complex]) -> Callable[[np.ndarray], complex | np.ndarray]:
    """Lift a one-point function to point arrays by calling it at each point."""

    def lifted(q):
        return fn(q) if q.ndim == 1 else np.array([fn(x) for x in q], dtype=complex)

    return lifted


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
    for bit, except where integer powers are taken: numpy's array power may
    differ from the scalar one in the last bit.
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
    point; on a point array the field calls it at each point in turn.
    """

    def make(orders: tuple[int, ...]) -> ScalarField:
        if sum(orders) == 0:
            value = _pointwise(lambda q: complex(fn(q)))
        elif sum(orders) > numdiff.MAX_ORDER:
            raise ValueError("finite-difference chain exceeds supported order")
        else:
            value = _pointwise(lambda q: complex(numdiff.partial_derivative(fn, q, orders)))

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
        raise ValueError("add() needs at least one field")
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
            raise ValueError(f"component array shape {comps.shape} != {(dim,) * rank}")
        self.comps = comps

    def evaluate(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        out = np.empty((self.dim,) * self.rank, dtype=complex)
        flat = out.reshape(-1)
        for i, field in enumerate(self.comps.reshape(-1)):
            flat[i] = field(q)
        return out if self.rank else out.reshape(())


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
        raise ValueError("tensor_add() requires matching rank and dimension")
    return tensor_from_fields(
        first.dim,
        first.rank,
        lambda idx: add(*[(t.comps[idx] if t.rank else t.comps[()]) for t in tensors]),
    )


def tensor_from_array_callable(dim: int, rank: int, fn: Callable[[np.ndarray], np.ndarray]) -> TensorField:
    """Wrap an array-valued callable as a tensor field (FD partials)."""

    def assign(idx: tuple[int, ...]) -> ScalarField:
        if rank:
            return from_callable(dim, lambda q, _i=idx: complex(np.asarray(fn(q))[_i]))
        return from_callable(dim, lambda q: complex(np.asarray(fn(q))))

    return tensor_from_fields(dim, rank, assign)


def symmetrized_contraction_field(t: TensorField, weight_fn: Callable[[np.ndarray], np.ndarray], k: int) -> TensorField:
    """Contract the first ``k`` slots of ``t`` with a point-dependent array.

    ``weight_fn(q)`` must return an array of shape ``(dim,)*k``.  The result is
    a rank ``t.rank - k`` tensor field with finite-difference partials.
    """
    if k == 0:
        return t
    rank_out = t.rank - k
    axes_in = tuple(range(k))

    def fn(q):
        vals = t.evaluate(q)
        w = np.asarray(weight_fn(q))
        return np.tensordot(w, vals, axes=(axes_in, axes_in))

    return tensor_from_array_callable(t.dim, rank_out, fn)
