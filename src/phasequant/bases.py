"""Orthonormal bases and quadrature rules for matrix representations.

Two families: Fourier modes on a periodic coordinate (trapezoid quadrature,
spectrally exact for trigonometric integrands) and scaled Hermite functions
on the line (Gauss-Legendre on a mapped interval for generic integrands,
Gauss-Hermite for Gaussian-weighted kernels).  Basis functions are exposed as
:class:`~phasequant.fields.ScalarField` objects with analytic derivatives so
operator images stay at machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField


@dataclass(frozen=True)
class FourierBasis:
    """Orthonormal Fourier modes ``exp(i k theta) / sqrt(2 pi)``, |k| <= K."""

    dim: int = 1

    @staticmethod
    def indices(K: int) -> list[int]:
        return list(range(-K, K + 1))

    def fields(self, K: int) -> list[ScalarField]:
        return [fourier_mode(k) for k in self.indices(K)]

    def quadrature(self, nodes: int) -> tuple[np.ndarray, np.ndarray]:
        theta = -math.pi + 2.0 * math.pi * np.arange(nodes) / nodes
        weights = np.full(nodes, 2.0 * math.pi / nodes)
        return theta.reshape(-1, 1), weights


def fourier_mode(k: int) -> ScalarField:
    """The mode ``exp(i k theta) / sqrt(2 pi)`` with exact derivative chain."""
    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def make(prefactor: complex) -> ScalarField:
        def fn(q, _c=prefactor):
            return _c * np.exp(1j * k * q[..., 0])

        def partial_factory(axis: int) -> ScalarField:
            return make(prefactor * 1j * k)

        return ScalarField(1, fn, partial_factory)

    return make(norm)


@dataclass(frozen=True)
class HermiteBasis:
    """Scaled Hermite functions, orthonormal on the line.

    ``h_k(x) = hbar^(-1/4) P_k(x / sqrt(hbar)) exp(-x^2 / (2 hbar))`` with
    ``P_k`` the orthonormal Hermite polynomials; these diagonalize the
    harmonic oscillator at scale ``hbar``.
    """

    hbar: float = 1.0
    dim: int = 1
    half_width: float = 10.0

    def fields(self, K: int) -> list[ScalarField]:
        return [hermite_function(k, self.hbar) for k in range(K + 1)]

    def quadrature(self, nodes: int) -> tuple[np.ndarray, np.ndarray]:
        # Gauss-Legendre on a fixed window; Hermite functions decay like
        # exp(-x^2 / (2 hbar)), so a +-half_width*sqrt(hbar) window keeps the
        # truncation error far below quadrature tolerances for modest K.
        u, w = np.polynomial.legendre.leggauss(nodes)
        half = self.half_width * math.sqrt(self.hbar)
        return (half * u).reshape(-1, 1), half * w


def hermite_polynomial_values(max_index: int, u: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite polynomial values ``P_k(u)``, k = 0..max_index.

    Satisfy ``integral P_j P_k exp(-u^2) du = delta_jk`` via the stable
    three-term recurrence.  Returns shape ``(max_index + 1,) + u.shape``.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty((max_index + 1,) + u.shape)
    out[0] = math.pi ** -0.25
    if max_index >= 1:
        out[1] = math.sqrt(2.0) * u * out[0]
    for k in range(1, max_index):
        out[k + 1] = math.sqrt(2.0 / (k + 1)) * u * out[k] - math.sqrt(k / (k + 1)) * out[k - 1]
    return out


def hermite_function(k: int, hbar: float = 1.0) -> ScalarField:
    """The k-th scaled Hermite function as a field with exact derivatives.

    Derivatives use the ladder identity
    ``h_k' = (sqrt(k/2) h_{k-1} - sqrt((k+1)/2) h_{k+1}) / sqrt(hbar)``,
    expanded over a small linear combination of neighbors.
    """
    root_h = math.sqrt(hbar)

    def make(combo: dict[int, float]) -> ScalarField:
        top = max(combo)

        def fn(q):
            u = q[..., 0] / root_h
            vals = hermite_polynomial_values(top, u)
            gauss = _libm_exp(-0.5 * u * u)
            total = sum(c * (vals[i] * gauss * hbar ** -0.25) for i, c in combo.items())
            return complex(total) if q.ndim == 1 else total.astype(complex)

        def partial_factory(axis: int) -> ScalarField:
            new: dict[int, float] = {}
            for i, c in combo.items():
                if i >= 1:
                    new[i - 1] = new.get(i - 1, 0.0) + c * math.sqrt(i / 2.0) / root_h
                new[i + 1] = new.get(i + 1, 0.0) - c * math.sqrt((i + 1) / 2.0) / root_h
            return make(new)

        return ScalarField(1, fn, partial_factory)

    return make({k: 1.0})


def _libm_exp(w: np.ndarray) -> float | np.ndarray:
    """``exp`` by the scalar ``math.exp`` at every entry.

    numpy's vectorized ``exp`` may differ from ``math.exp`` in the last bit,
    so this keeps a field's values on a point array bit-identical to its
    values at the single points.
    """
    if w.ndim == 0:
        return math.exp(w)
    return np.fromiter(map(math.exp, w.tolist()), dtype=float, count=w.size)


def gauss_hermite(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite rule for ``integral exp(-u^2) g(u) du``."""
    return np.polynomial.hermite.hermgauss(nodes)
