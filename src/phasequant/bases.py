"""Orthonormal bases and quadrature rules for matrix representations.

Two families: Fourier modes on a periodic coordinate (trapezoid quadrature,
spectrally exact for trigonometric integrands) and scaled Hermite functions
on the line (Gauss-Legendre on a mapped interval for generic integrands,
Gauss-Hermite for Gaussian-weighted kernels).  Basis functions are exposed as
:class:`~phasequant.fields.ScalarField` objects with analytic derivatives so
operator images stay at machine precision.

:func:`gauss_legendre` is the package's one source of Gauss-Legendre rules
(the Hermite window here and the cutoff transforms of ``cylinder``).  It
takes Newton steps on the Legendre three-term recurrence from asymptotic
starting guesses, as in Hale & Townsend, SISC 35 (2013): O(n^2) numpy work
vectorized over half the nodes, about 1 ms at 256 nodes, with no eigensolve
(numpy's own Legendre rule solves the Golub-Welsch eigenproblem, O(n^3)
through LAPACK).
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
# Newton on the Legendre recurrence stops once no node moves by more than
# NEWTON_TOLERANCE; from the asymptotic guesses that takes three steps from
# 32 to 2048 nodes and four below.
NEWTON_TOLERANCE = 1e-14
NEWTON_STEPS = 10


def _legendre_and_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``P_n(x)``, ``P_n'(x)`` and ``1 - x^2`` by the three-term recurrence.

    ``1 - x^2`` is formed as ``(1 - x)(1 + x)``, whose first factor is exact
    for ``x`` in [1/2, 1], so the derivative keeps its accuracy next to the
    end points."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        xp = x * p1
        p0, p1 = p1, xp + (k / (k + 1)) * (xp - p0)  # (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}
    s = (1.0 - x) * (1.0 + x)
    return p1, n * (p0 - x * p1) / s, s


@functools.cache
def gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Tricomi's asymptotic guesses for the nonnegative nodes are refined by
    Newton steps on the three-term recurrence, all nodes at once; the
    negative half mirrors them, so the rule is symmetric bit for bit and an
    odd rule has the node 0.0.  The weights ``2 / ((1 - x^2) P_n'(x)^2)``
    use the derivative of the last Newton step, carried to the root by one
    Taylor step, and are then scaled by 2 over their exact sum, since the
    exact rule's weights add up to 2.  Computed once per node count; the
    arrays are read-only.
    """
    n, half = nodes, (nodes + 1) // 2
    theta = math.pi * (4 * np.arange(1, half + 1) - 1) / (4 * n + 2)
    x = (1 - (n - 1) / (8 * n**3) - (39 - 28 / np.sin(theta) ** 2) / (384 * n**4)) * np.cos(theta)
    if n % 2:
        x[-1] = 0.0
    for _ in range(NEWTON_STEPS):
        p, dp, s = _legendre_and_derivative(n, x)
        dx = p / dp
        root, x = x, x - dx
        if np.max(np.abs(dx), initial=0.0) <= NEWTON_TOLERANCE:
            break
    # (1 - x^2) P_n'(x)^2 at the root, root - dx, to first order in dx (the
    # P_n'' it takes comes from Legendre's equation).  Taken at the rounded
    # node instead, it would carry the node's rounding, amplified by
    # 1/(1 - x^2), into the weights next to x = +-1: at 512 nodes their
    # relative error would be 9e-13 instead of 1.3e-13.
    w = 2.0 / ((s - 2.0 * root * dx) * dp * dp)
    u, weights = np.empty(n), np.empty(n)
    u[:half], u[n - half :] = -x, x[::-1]  # an odd rule's middle node is written last, as +0.0
    weights[:half], weights[n - half :] = w, w[::-1]
    weights *= 2.0 / math.fsum(weights)
    u.flags.writeable = weights.flags.writeable = False
    return u, weights


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
        u, w = gauss_legendre(nodes)
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
