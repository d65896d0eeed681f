"""Truncated multivariate Taylor algebra on derivative arrays.

A :class:`Series` stores the derivative arrays of a tensor-valued function of
a ``dim``-dimensional argument at a single point: ``coeffs[k]`` has shape
``base_shape + (dim,)*k`` and is symmetric in the trailing ``k`` derivative
axes (these are raw partial derivatives, not divided by k!).

The product, contraction, and re-basing operations here implement the jet
calculus needed for delta-family trace pairings: derivative arrays multiply
by the Leibniz rule with binomial weights, and one derivative axis can be
promoted into the base to represent an explicit gradient.

Fields keep flat jets instead, each distinct partial once along the last
axis (:func:`numdiff.multi_indices`), so mixed partials are symmetric by
construction; :func:`jet_shift` and :func:`jet_product` act on them, with
leading axes (components, points) broadcast.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .errors import ShapeError


@dataclass
class Series:
    """Derivative arrays of a tensor-valued function at a point."""

    dim: int
    order: int
    base_rank: int
    coeffs: list[np.ndarray]

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ShapeError("need one coefficient array per order 0..order")
        self.coeffs = [np.asarray(c) for c in self.coeffs]
        base = self.coeffs[0].shape
        if len(base) != self.base_rank:
            raise ShapeError(f"base rank {self.base_rank} != leading shape {base}")
        for k, c in enumerate(self.coeffs):
            if c.shape != base + (self.dim,) * k:
                raise ShapeError(f"order-{k} coefficient has shape {c.shape}")

    @property
    def base_shape(self) -> tuple[int, ...]:
        return self.coeffs[0].shape


def constant(dim: int, order: int, value: np.ndarray) -> Series:
    value = np.asarray(value)
    coeffs = [value] + [
        np.zeros(value.shape + (dim,) * k, dtype=value.dtype) for k in range(1, order + 1)
    ]
    return Series(dim, order, value.ndim, coeffs)


def from_jets(dim: int, jets: list[np.ndarray]) -> Series:
    jets = [np.asarray(j) for j in jets]
    return Series(dim, len(jets) - 1, jets[0].ndim, jets)


def scale(s: Series, factor: complex) -> Series:
    return Series(s.dim, s.order, s.base_rank, [factor * c for c in s.coeffs])


def add(s1: Series, s2: Series) -> Series:
    if s1.base_shape != s2.base_shape:
        raise ShapeError("series base shapes differ")
    order = min(s1.order, s2.order)
    return Series(
        s1.dim, order, s1.base_rank, [s1.coeffs[k] + s2.coeffs[k] for k in range(order + 1)]
    )


def outer(s1: Series, s2: Series) -> Series:
    """Tensor product of two series; base shapes concatenate, and the
    derivative arrays multiply by the Leibniz rule (:func:`jet_product`)."""
    if s1.dim != s2.dim:
        raise ShapeError("series dimensions differ")
    dim, order = s1.dim, min(s1.order, s2.order)
    a, b = (numdiff.compress(s.coeffs[: order + 1], dim) for s in (s1, s2))
    prod = jet_product(a.reshape(s1.base_shape + (1,) * s2.base_rank + a.shape[-1:]), b, dim, order)
    return Series(dim, order, s1.base_rank + s2.base_rank, numdiff.expand(prod, dim, order))


def mul(scalar: Series, tensor: Series) -> Series:
    """Product of a scalar series (empty base) with any series."""
    if scalar.base_rank != 0:
        raise ShapeError("first factor must have scalar base")
    return outer(scalar, tensor)


def trace(s: Series, axis1: int, axis2: int) -> Series:
    """Contract two base axes of every coefficient array."""
    if axis1 == axis2 or max(axis1, axis2) >= s.base_rank:
        raise ShapeError("trace axes must be distinct base axes")
    coeffs = [np.trace(c, axis1=axis1, axis2=axis2) for c in s.coeffs]
    return Series(s.dim, s.order, s.base_rank - 2, coeffs)


def matmul(s1: Series, s2: Series) -> Series:
    """Contract the last base axis of ``s1`` with the first base axis of ``s2``."""
    return trace(outer(s1, s2), s1.base_rank - 1, s1.base_rank)


def negate_argument(s: Series) -> Series:
    """The series of xi -> f(-xi)."""
    coeffs = [(-1.0) ** k * s.coeffs[k] for k in range(s.order + 1)]
    return Series(s.dim, s.order, s.base_rank, coeffs)


def gradient(s: Series, base_position: int) -> Series:
    """Promote one derivative axis into the base at ``base_position``.

    Returns the gradient of ``s``: order drops by one, base rank grows by one,
    and ``result.coeffs[k][a, ...] = d_a (s)``-th derivative arrays.
    """
    if s.order == 0:
        raise ShapeError("cannot differentiate an order-0 series")
    coeffs = []
    for k in range(s.order):
        src = s.coeffs[k + 1]
        # first derivative axis sits right after the base; move it into the base
        arr = np.moveaxis(src, s.base_rank, base_position)
        coeffs.append(arr)
    return Series(s.dim, s.order - 1, s.base_rank + 1, coeffs)


def identity_pair(s: Series, pos_a: int, pos_b: int) -> Series:
    """Tensor ``delta_{ab} * s`` with the two new base axes at given positions.

    Used to encode a monomial factor whose index is tied to a new derivative
    slot: the Kronecker delta links the two roles without committing to an
    index value.
    """
    ident = constant(s.dim, s.order, np.eye(s.dim))
    prod = outer(ident, s)  # base: (a, b, old base...)
    coeffs = [np.moveaxis(c, [0, 1], [pos_a, pos_b]) for c in prod.coeffs]
    return Series(s.dim, prod.order, prod.base_rank, coeffs)


def delta_pairing(w: Series, p: Series) -> complex:
    """Evaluate ``(-1/2)^r d^r_{a1..ar}[(w * p)^{a1..ar}](0)`` with r = base rank.

    ``w`` is a scalar series, ``p`` a series whose base axes all contract
    pairwise with the derivative axes of the order-``r`` coefficient of the
    product. This is the delta-family trace pairing used to turn operator
    jets back into symbol values.
    """
    rank = p.base_rank
    if w.base_rank != 0:
        raise ShapeError("weight series must have scalar base")
    if min(w.order, p.order) < rank:
        raise ShapeError("series order too low for the pairing rank")
    prod = mul(w, p)
    arr = prod.coeffs[rank]
    for _ in range(rank):
        # contract first remaining base axis with first remaining derivative axis
        arr = np.trace(arr, axis1=0, axis2=arr.ndim // 2)
    return complex((-0.5) ** rank * arr)


# ---------------------------------------------------------------------------
# flat jets


@functools.cache
def _shift_positions(dim: int, order: int) -> np.ndarray:
    """``[axis, alpha]``: the position of ``alpha + e_axis`` in the jet through ``order + 1``."""
    position = {alpha: i for i, alpha in enumerate(numdiff.multi_indices(dim, order + 1))}
    lower = numdiff.multi_indices(dim, order)
    return np.array([[position[a[:e] + (a[e] + 1,) + a[e + 1 :]] for a in lower] for e in range(dim)])


def jet_shift(jet: np.ndarray, dim: int, order: int, axis: int | slice) -> np.ndarray:
    """The jet through ``order`` of the partial along ``axis`` (a slice: one per axis, before the jet's axis)."""
    return jet[..., _shift_positions(dim, order)[axis]]


@functools.cache
def _leibniz_table(dim: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(L, M)`` positions of ``beta`` and ``alpha - beta`` and ``C(alpha, beta)``:
    the Leibniz terms of each ``alpha``, highest ``beta`` first, zero-padded."""
    indices = numdiff.multi_indices(dim, order)
    position = {alpha: i for i, alpha in enumerate(indices)}
    columns = [
        [
            (position[beta], position[tuple(map(operator.sub, alpha, beta))], math.prod(map(math.comb, alpha, beta)))
            for beta in itertools.product(*[range(n, -1, -1) for n in alpha])
        ]
        for alpha in indices
    ]
    table = np.zeros((3, max(map(len, columns)), len(indices)))
    for i, terms in enumerate(columns):
        table[:, : len(terms), i] = np.transpose(terms)
    return table[0].astype(np.intp), table[1].astype(np.intp), table[2]


def jet_product(a: np.ndarray, b: np.ndarray, dim: int, order: int) -> np.ndarray:
    """The flat jet through ``order`` of a product, adding its Leibniz terms one
    at a time, so a stack of points gives its single points' jets bit for bit."""
    if order == 0:  # the one term, a b
        return a[..., :1] * b[..., :1]
    first, second, weights = _leibniz_table(dim, order)
    terms = weights * (a[..., first] * b[..., second])
    total = terms[..., 0, :]
    for row in range(1, len(weights)):
        total = total + terms[..., row, :]
    return total
