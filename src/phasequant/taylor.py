"""Truncated multivariate Taylor algebra on flat jets.

A :class:`Series` is the jet of a tensor-valued function of ``dim`` variables
at a point, in the layout of field jets: base (tensor) axes, then one axis
over :func:`numdiff.multi_indices` through ``order``, each distinct raw
partial once.  Symmetric derivative arrays come in only through
:func:`from_jets`; :func:`numdiff.expand` gives them back.

The operations implement the jet calculus of delta-family trace pairings:
products are the Leibniz rule (:func:`jet_product`), contractions act on base
axes, and :func:`gradient` promotes a derivative into the base
(:func:`jet_shift`).  Both primitives act on field jets too, with leading
axes (components, points) broadcast.
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
    """The flat jet through ``order`` of a tensor-valued function at a point:
    base axes first, then one axis over ``numdiff.multi_indices(dim, order)``."""

    dim: int
    order: int
    jet: np.ndarray

    def __post_init__(self):
        self.jet = np.asarray(self.jet)
        if self.jet.shape[-1:] != (len(numdiff.multi_indices(self.dim, self.order)),):
            raise ShapeError(f"a jet through order {self.order} in {self.dim} variables has shape {self.jet.shape}")

    @property
    def base_rank(self) -> int:
        return self.jet.ndim - 1

    @property
    def base_shape(self) -> tuple[int, ...]:
        return self.jet.shape[:-1]


def constant(dim: int, order: int, value: np.ndarray) -> Series:
    value = np.asarray(value)
    jet = np.zeros(value.shape + (len(numdiff.multi_indices(dim, order)),), dtype=value.dtype)
    jet[..., 0] = value
    return Series(dim, order, jet)


def from_jets(dim: int, jets: list[np.ndarray]) -> Series:
    """The series of symmetric derivative arrays, one per order 0, 1, ...:
    order k has ``(dim,)*k`` derivative axes after the base axes."""
    return Series(dim, len(jets) - 1, numdiff.compress(jets, dim))


def scale(s: Series, factor: complex) -> Series:
    return Series(s.dim, s.order, factor * s.jet)


def add(s1: Series, s2: Series) -> Series:
    if s1.base_shape != s2.base_shape:
        raise ShapeError("series base shapes differ")
    order = min(s1.order, s2.order)
    n = len(numdiff.multi_indices(s1.dim, order))  # a lower-order jet is a prefix
    return Series(s1.dim, order, s1.jet[..., :n] + s2.jet[..., :n])


def outer(s1: Series, s2: Series) -> Series:
    """Tensor product of two series; base shapes concatenate, and the jets
    multiply by the Leibniz rule (:func:`jet_product`)."""
    if s1.dim != s2.dim:
        raise ShapeError("series dimensions differ")
    dim, order = s1.dim, min(s1.order, s2.order)
    n = len(numdiff.multi_indices(dim, order))
    a = s1.jet[..., :n].reshape(s1.base_shape + (1,) * s2.base_rank + (n,))
    return Series(dim, order, jet_product(a, s2.jet[..., :n], dim, order))


def mul(scalar: Series, tensor: Series) -> Series:
    """Product of a scalar series (empty base) with any series."""
    if scalar.base_rank != 0:
        raise ShapeError("first factor must have scalar base")
    return outer(scalar, tensor)


def trace(s: Series, axis1: int, axis2: int) -> Series:
    """Contract two base axes."""
    if axis1 == axis2 or max(axis1, axis2) >= s.base_rank:
        raise ShapeError("trace axes must be distinct base axes")
    return Series(s.dim, s.order, np.trace(s.jet, axis1=axis1, axis2=axis2))


def matmul(s1: Series, s2: Series) -> Series:
    """Contract the last base axis of ``s1`` with the first base axis of ``s2``."""
    return trace(outer(s1, s2), s1.base_rank - 1, s1.base_rank)


def negate_argument(s: Series) -> Series:
    """The series of xi -> f(-xi): each partial times ``(-1)^|alpha|``."""
    signs = [(-1.0) ** sum(alpha) for alpha in numdiff.multi_indices(s.dim, s.order)]
    return Series(s.dim, s.order, np.asarray(signs) * s.jet)


def gradient(s: Series, base_position: int) -> Series:
    """Promote one derivative axis into the base at ``base_position``.

    Returns the gradient of ``s``: order drops by one, and the new base axis
    ``a`` holds the jet of ``d_a s``.
    """
    if s.order == 0:
        raise ShapeError("cannot differentiate an order-0 series")
    shifted = jet_shift(s.jet, s.dim, s.order - 1, slice(None))  # base + [a, jet]
    return Series(s.dim, s.order - 1, np.moveaxis(shifted, -2, base_position))


def identity_pair(s: Series, pos_a: int, pos_b: int) -> Series:
    """Tensor ``delta_{ab} * s`` with the two new base axes at given positions.

    Used to encode a monomial factor whose index is tied to a new derivative
    slot: the Kronecker delta links the two roles without committing to an
    index value.
    """
    prod = outer(constant(s.dim, s.order, np.eye(s.dim)), s)  # base: (a, b, old base...)
    return Series(s.dim, prod.order, np.moveaxis(prod.jet, [0, 1], [pos_a, pos_b]))


def delta_pairing(w: Series, p: Series) -> complex:
    """Evaluate ``(-1/2)^r d^r_{a1..ar}[(w * p)^{a1..ar}](0)`` with r = base rank.

    ``w`` is a scalar series, ``p`` a series whose base axes all contract
    pairwise with the derivative axes of the order-``r`` derivative array of
    the product. This is the delta-family trace pairing used to turn operator
    jets back into symbol values.
    """
    rank = p.base_rank
    if w.base_rank != 0:
        raise ShapeError("weight series must have scalar base")
    if min(w.order, p.order) < rank:
        raise ShapeError("series order too low for the pairing rank")
    arr = numdiff.expand(mul(w, p).jet, p.dim, rank)[rank]
    for _ in range(rank):
        # contract first remaining base axis with first remaining derivative axis
        arr = np.trace(arr, axis1=0, axis2=arr.ndim // 2)
    return complex((-0.5) ** rank * arr)


# ---------------------------------------------------------------------------
# flat-jet primitives


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
    """The flat jet through ``order`` of a product: its weighted Leibniz terms summed
    in one reduction, which gives a stack of points its single points' jets bit for bit."""
    if order == 0:  # the one term, a b
        return a[..., :1] * b[..., :1]
    first, second, weights = _leibniz_table(dim, order)
    return np.einsum("...rn,rn->...n", a[..., first] * b[..., second], weights)
