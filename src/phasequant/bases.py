"""Orthonormal bases and quadrature rules for matrix representations.

Two families: Fourier modes on a periodic coordinate (trapezoid quadrature,
spectrally exact for trigonometric integrands) and scaled Hermite functions
on the line (Gauss-Legendre on a mapped interval for generic integrands,
Gauss-Hermite for Gaussian-weighted kernels).  Basis functions are exposed as
:class:`~phasequant.fields.ScalarField` objects with analytic derivatives so
operator images stay at machine precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .expressions import libm
from .fields import ScalarField

# Least half-width of the Hermite quadrature window, in units of sqrt(hbar).
HERMITE_HALF_WIDTH = 10.0


@dataclass(frozen=True)
class FourierBasis:
    """Orthonormal Fourier modes ``exp(i k theta) / sqrt(2 pi)``, |k| <= K."""

    @staticmethod
    def indices(K: int) -> list[int]:
        return list(range(-K, K + 1))

    def fields(self, K: int) -> list[ScalarField]:
        return [fourier_mode(k) for k in self.indices(K)]

    def resolving_nodes(self, K: int) -> int:
        return 3 * K  # trapezoid-exact below frequency 3K: 2K from the modes, K for the coefficient

    def quadrature(self, nodes: int, K: int) -> tuple[np.ndarray, np.ndarray]:
        theta = -math.pi + 2.0 * math.pi * np.arange(nodes) / nodes
        weights = np.full(nodes, 2.0 * math.pi / nodes)
        return theta.reshape(-1, 1), weights


def fourier_mode(k: int) -> ScalarField:
    """The mode ``exp(i k theta) / sqrt(2 pi)``; each derivative multiplies it by ``i k``."""
    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def fn(q, prefactor=norm):
        return prefactor * np.exp(1j * k * q[..., 0])

    def derive(orders: tuple[int, ...]):
        prefactor = norm
        for _ in range(orders[0]):
            prefactor = prefactor * 1j * k
        return functools.partial(fn, prefactor=prefactor)

    return ScalarField(1, fn, derive)


@dataclass(frozen=True)
class HermiteBasis:
    """Scaled Hermite functions, orthonormal on the line.

    ``h_k(x) = hbar^(-1/4) P_k(x / sqrt(hbar)) exp(-x^2 / (2 hbar))`` with
    ``P_k`` the orthonormal Hermite polynomials; these diagonalize the
    harmonic oscillator at scale ``hbar``.
    """

    hbar: float = 1.0

    def fields(self, K: int) -> list[ScalarField]:
        return [hermite_function(k, self.hbar) for k in range(K + 1)]

    def resolving_nodes(self, K: int) -> int:
        return 4 * K  # h_K has K zeros, in a window that widens with K

    def quadrature(self, nodes: int, K: int) -> tuple[np.ndarray, np.ndarray]:
        # Gauss-Legendre on a window past the turning point sqrt((2K + 1) hbar)
        # of h_K, beyond which it decays like exp(-x^2 / (2 hbar)): 4.25 more
        # units keep the truncation, which no coarse/fine check sees, far
        # below quadrature tolerances.
        u, w = np.polynomial.legendre.leggauss(nodes)
        half = max(HERMITE_HALF_WIDTH, math.sqrt(2 * K + 1) + 4.25) * math.sqrt(self.hbar)
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

    Derivatives apply the ladder identity
    ``h_k' = (sqrt(k/2) h_{k-1} - sqrt((k+1)/2) h_{k+1}) / sqrt(hbar)``
    once per order, to a small linear combination of neighbors.
    """
    root_h = math.sqrt(hbar)

    def fn(q, combo={k: 1.0}):
        u = q[..., 0] / root_h
        vals = hermite_polynomial_values(max(combo), u)
        gauss = libm(math.exp, -0.5 * u * u)
        total = sum(c * (vals[i] * gauss * hbar ** -0.25) for i, c in combo.items())
        return complex(total) if q.ndim == 1 else total.astype(complex)

    def derive(orders: tuple[int, ...]):
        combo = {k: 1.0}
        for _ in range(orders[0]):
            new: dict[int, float] = {}
            for i, c in combo.items():
                if i >= 1:
                    new[i - 1] = new.get(i - 1, 0.0) + c * math.sqrt(i / 2.0) / root_h
                new[i + 1] = new.get(i + 1, 0.0) - c * math.sqrt((i + 1) / 2.0) / root_h
            combo = new
        return functools.partial(fn, combo=combo)

    return ScalarField(1, fn, derive)


@functools.cache
def gauss_hermite(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite rule for ``integral exp(-u^2) g(u) du``.

    Computed once per node count; the node and weight arrays are read-only.
    """
    u, w = np.polynomial.hermite.hermgauss(nodes)
    u.flags.writeable = w.flags.writeable = False
    return u, w
