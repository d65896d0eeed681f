"""Truncated multivariate Taylor algebra on derivative arrays.

A :class:`Series` stores the derivative arrays of a tensor-valued function of
a ``dim``-dimensional argument at a single point: ``coeffs[k]`` has shape
``base_shape + (dim,)*k`` and is symmetric in the trailing ``k`` derivative
axes (these are raw partial derivatives, not divided by k!).

The product, contraction, and re-basing operations here implement the jet
calculus needed for delta-family trace pairings: derivative arrays multiply
by the Leibniz rule with binomial weights, and one derivative axis can be
promoted into the base to represent an explicit gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .errors import ShapeError


def _sym_last(arr: np.ndarray, k: int) -> np.ndarray:
    if k < 2:
        return arr
    return numdiff.symmetrize(arr, axes=range(arr.ndim - k, arr.ndim))


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
    """Tensor product of two series; base shapes concatenate.

    Derivative axes merge Leibniz-style: order-k output collects
    ``C(k, j) * sym(d^j s1 (x) d^(k-j) s2)``.
    """
    if s1.dim != s2.dim:
        raise ShapeError("series dimensions differ")
    order = min(s1.order, s2.order)
    b1, b2 = s1.base_rank, s2.base_rank
    coeffs = []
    for k in range(order + 1):
        total = None
        for j in range(k + 1):
            a = s1.coeffs[j]
            b = s2.coeffs[k - j]
            prod = np.multiply.outer(a, b)
            # axes: (base1, j derivs, base2, k-j derivs) -> move the j axes
            # to sit after base2.
            prod = np.moveaxis(prod, range(b1, b1 + j), range(b1 + b2, b1 + b2 + j))
            term = math.comb(k, j) * prod
            total = term if total is None else total + term
        coeffs.append(_sym_last(total, k))
    return Series(s1.dim, order, b1 + b2, coeffs)


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


def derivative(s: Series, base_position: int) -> Series:
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
