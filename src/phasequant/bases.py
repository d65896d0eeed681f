"""Orthonormal bases and quadrature rules for matrix representations.

Two families: Fourier modes on a periodic coordinate (trapezoid quadrature,
spectrally exact for trigonometric integrands) and scaled Hermite functions
on the line (Gauss-Legendre on a mapped interval for generic integrands,
Gauss-Hermite for Gaussian-weighted kernels).  A basis takes the Galerkin
sum of an operator matrix from coefficient values at its own nodes,
``galerkin(points, values, weights, K)``: per derivative order a Toeplitz
matrix from one trapezoid FFT (Fourier, :func:`fourier_coefficients`), or one
table of functions and derivatives by the ladder identity (Hermite).

This module is the package's one source of quadrature rules on an interval
or the line.  :func:`gauss_legendre` and :func:`gauss_hermite` take Newton
steps on the three-term recurrence from asymptotic starting guesses, as in
Hale & Townsend, SISC 35 (2013), and Townsend, Trogdon & Olver, IMA J.
Numer. Anal. 36 (2016): O(n^2) numpy work vectorized over half the nodes,
with no eigensolve (numpy's own rules solve the Golub-Welsch eigenproblem,
O(n^3) through LAPACK, and its Hermite rule's weights turn to NaN past about
360 nodes).  That work is the same on every run, so the output of the Newton
builders for the eight sizes the default experiments take (:data:`RULE_SIZES`)
is stored, bit for bit, in one array, :data:`RULE_TABLE` (written by
``scripts/tabulate_rules.py``), and read back on the first rule request;
every other size takes Newton.
:func:`clenshaw_curtis` needs no iteration: closed-form nodes
and one FFT for the weights.  Its rules nest, the rule of ``2n`` intervals
holding every node of the rule of ``n``, and at the node counts of the
cutoff transforms it is as accurate as Gauss-Legendre (Trefethen, SIAM Rev.
50, 2008).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import check_hbar

# Least half-width of the Hermite quadrature window, in units of sqrt(hbar).
HERMITE_HALF_WIDTH = 10.0
# Newton on the Legendre recurrence stops once no node moves by more than
# NEWTON_TOLERANCE; from the asymptotic guesses that takes three steps from
# 32 to 2048 nodes and four below.
NEWTON_TOLERANCE = 1e-14
NEWTON_STEPS = 10
# Newton on the Hermite recurrence stops once no node moves by more than
# HERMITE_NEWTON_TOLERANCE: the next step would move a node x by about x dx^2
# (Hermite's equation gives f''/2f' = x at a zero), below half an ulp of x.
HERMITE_NEWTON_TOLERANCE = 1e-8
HERMITE_RESCALE_STEPS = 32
#: The rule sizes the default experiments take, per family, in table order:
#: ``operator_matrix``'s coarse and fine Legendre rules at QUADRATURE_NODES for
#: every Hermite operator matrix with K <= 48; ``flat_trace``'s Hermite ladder
#: at K = 4, 8, 16, 32 (8K nodes each; the first also serves
#: ``quantizer_diag_flat``'s small kernels), ``quantizer_matrix_flat`` at K = 16
#: and ``quantize_gaussian_flat`` at flat-axioms' default K = 32.
RULE_SIZES = {"legendre": (192, 384), "hermite": (32, 64, 68, 128, 132, 256)}
#: The Newton output, bit for bit, for :data:`RULE_SIZES`: one ``(2, columns)``
#: float64 array, nodes over weights, each rule's nonnegative half in turn,
#: written by ``scripts/tabulate_rules.py``; a cold run reads it instead of iterating.
RULE_TABLE = Path(__file__).with_name("gauss_rules.npy")


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

    The nonnegative half comes from :func:`_legendre_newton`, or from
    :data:`RULE_TABLE` where that holds the output for ``nodes``; the
    negative half mirrors it, so the rule is symmetric bit for bit and an
    odd rule has the node 0.0.  The weights are then scaled by 2 over their
    exact sum, since the exact rule's weights add up to 2.  Computed once per
    node count; the arrays are read-only.
    """
    return _mirrored_rule(nodes, *_half_rule("legendre", nodes, _legendre_newton), 2.0)


def _legendre_newton(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonnegative Gauss-Legendre nodes (descending, an odd rule's 0.0
    last) and their weights.

    Tricomi's asymptotic guesses are refined by Newton steps on the
    three-term recurrence, all nodes at once.  The weights
    ``2 / ((1 - x^2) P_n'(x)^2)`` use the derivative of the last Newton step,
    carried to the root by one Taylor step.
    """
    half = (n + 1) // 2
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
    return x, 2.0 / ((s - 2.0 * root * dx) * dp * dp)


@functools.cache
def _rule_table() -> dict[str, np.ndarray]:
    """The ``(2, half)`` slices of :data:`RULE_TABLE`, nodes over weights,
    keyed ``legendre_<n>`` and ``hermite_<n>``, read-only: read on the first
    rule request, never at import; the offsets follow :data:`RULE_SIZES`."""
    table, halves, start = np.load(RULE_TABLE, allow_pickle=False), {}, 0
    table.flags.writeable = False
    for family, sizes in RULE_SIZES.items():
        for n in sizes:
            stop = start + (n + 1) // 2
            halves[f"{family}_{n}"], start = table[:, start:stop], stop
    return halves


def _half_rule(family: str, n: int, newton) -> tuple[np.ndarray, np.ndarray]:
    """The nonnegative half of the rule of ``n`` nodes: tabulated, else ``newton(n)``."""
    half = _rule_table().get(f"{family}_{n}")
    return newton(n) if half is None else (half[0], half[1])


def _mirrored_rule(n: int, x: np.ndarray, w: np.ndarray, total: float) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric rule of ``n`` nodes from its nonnegative nodes ``x``
    (descending, an odd rule's 0.0 last) and their weights ``w``: mirrored,
    the weights scaled to their exact sum ``total``, read-only."""
    half = (n + 1) // 2
    u, weights = np.empty(n), np.empty(n)
    u[:half], u[n - half :] = -x, x[::-1]  # an odd rule's middle node is written last, as +0.0
    weights[:half], weights[n - half :] = w, w[::-1]
    weights *= total / math.fsum(weights)
    u.flags.writeable = weights.flags.writeable = False
    return u, weights


def _monic_hermite(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``H_{n-1}(x) / 2^(n-1)`` and ``H_n(x) / 2^n`` times ``2^-exponent``, and
    ``exponent``: every :data:`HERMITE_RESCALE_STEPS` steps of the recurrence
    the pair is divided, exactly, by the power of two next to its size, so
    its growth like ``exp(x^2 / 2)`` never overflows."""
    p0, p1 = np.ones_like(x), x
    exponent = np.zeros(x.shape, dtype=int)
    for k in range(1, n):
        p0, p1 = p1, x * p1 - (0.5 * k) * p0
        if k % HERMITE_RESCALE_STEPS == 0:
            shift = np.frexp(np.abs(p0) + np.abs(p1))[1]
            p0, p1, exponent = np.ldexp(p0, -shift), np.ldexp(p1, -shift), exponent + shift
    return p0, p1, exponent


@functools.cache
def gauss_hermite(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes (ascending) and weights for ``integral exp(-u^2) g(u) du``.

    As :func:`gauss_legendre`, from :func:`_hermite_newton` or
    :data:`RULE_TABLE`; the weights are scaled by ``sqrt(pi)`` over their
    exact sum.
    """
    return _mirrored_rule(nodes, *_half_rule("hermite", nodes, _hermite_newton), math.sqrt(math.pi))


def _hermite_newton(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonnegative Gauss-Hermite nodes (descending, an odd rule's 0.0
    last) and their weights.

    As :func:`_legendre_newton`, from Tricomi's guesses for the positive
    zeros of ``H_n`` (Gatteschi, J. Comput. Appl. Math. 144, 2002, eq. 2.1).
    The weights ``C / H_{n-1}(x)^2`` take the recurrence's powers of two
    last, so one below the smallest double becomes 0.0, never NaN.
    """
    nu = 2 * n + 1
    rhs = math.pi * (4 * np.arange(n // 2) + 3) / nu
    t = np.full(n // 2, 0.5 * math.pi)
    for _ in range(7):  # t - sin t = rhs
        t -= (t - np.sin(t) - rhs) / (1.0 - np.cos(t))
    c = np.cos(0.5 * t) ** 2
    x = np.sqrt(nu * c - (5.0 / (4.0 * (1.0 - c) ** 2) - 1.0 / (1.0 - c) - 0.25) / (3.0 * nu))  # descending
    if n % 2:
        x = np.append(x, 0.0)
    for _ in range(NEWTON_STEPS):
        p0, p1, exponent = _monic_hermite(n, x)
        dx = p1 / (n * p0)  # H_n' = 2n H_{n-1}
        root, x = x, x - dx
        if np.max(np.abs(dx), initial=0.0) <= HERMITE_NEWTON_TOLERANCE:
            break
    mantissa, shift = np.frexp(p0 * (1.0 - 2.0 * root * dx))
    exponent += shift
    return x, np.ldexp(1.0 / (mantissa * mantissa), 2 * (np.min(exponent) - exponent))


@functools.cache
def clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw-Curtis nodes ``-cos(j pi / n)``, j = 0..n (ascending), and
    weights on [-1, 1]: the ``n + 1``-point rule, exact for polynomials of
    degree ``n``.

    The nonnegative nodes are ``sin(pi (n - 2j) / (2n))``, mirrored; doubling
    ``n`` doubles numerator and denominator exactly, so every node of the rule
    of ``n`` is, bit for bit, the even-indexed node of the rule of ``2n``.
    The weights are the type-I discrete cosine transform of the Chebyshev
    moments ``2 / (1 - k^2)`` (even k), one real FFT of their even extension
    (Waldvogel, BIT 46, 2006), mirrored and scaled to their exact sum 2.
    Computed once per ``n``; the arrays are read-only.
    """
    half = (n + 2) // 2
    j = np.arange(half)
    moments = np.zeros(n + 1)
    moments[::2] = 2.0 / (1.0 - np.arange(0, n + 1, 2) ** 2.0)
    spectrum = np.fft.rfft(np.concatenate([moments, moments[-2:0:-1]]))[:half].real
    w = np.where(j == 0, 0.5, 1.0) * spectrum / n
    return _mirrored_rule(n + 1, np.sin(math.pi * (n - 2 * j) / (2 * n)), w, 2.0)


def angle_grid(nodes: int) -> np.ndarray:
    """The trapezoid nodes ``theta_j = -pi + 2 pi j / nodes`` on ``[-pi, pi)``."""
    return -math.pi + 2.0 * math.pi * np.arange(nodes) / nodes


def fourier_coefficients(samples: np.ndarray, mmax: int) -> np.ndarray:
    """Coefficients ``t_m = (1/2pi) int t e^{-im theta}``, ``|m| <= mmax``, by
    the trapezoid rule on samples of ``t`` at :func:`angle_grid` (last axis):
    one FFT, as ``e^{-im theta_j} = (-1)^m e^{-2 pi i m j / N}``."""
    nodes = samples.shape[-1]
    m = np.arange(-mmax, mmax + 1)
    spectrum = np.fft.fft(samples, axis=-1)[..., m % nodes]
    return np.where(m % 2, -1.0, 1.0) * spectrum / nodes


@dataclass(frozen=True)
class FourierBasis:
    """Orthonormal Fourier modes ``exp(i k theta) / sqrt(2 pi)``, |k| <= K."""

    def resolving_nodes(self, K: int) -> int:
        return 3 * K  # trapezoid-exact below frequency 3K: 2K from the modes, K for the coefficient

    def quadrature(self, nodes: int, K: int) -> tuple[np.ndarray, np.ndarray]:
        return angle_grid(nodes).reshape(-1, 1), np.full(nodes, 2.0 * math.pi / nodes)

    def galerkin(self, points: np.ndarray, values: np.ndarray, weights: np.ndarray, K: int) -> np.ndarray:
        """``M[j, k] = sum_n weights_n conj(phi_j) sum_r values[r, n] phi_k^(r)``
        over the nodes ``points`` of :meth:`quadrature`, |j|, |k| <= K, is
        ``sum_r (i k)^r c_r[j - k]``, ``c_r`` the Fourier coefficients of
        ``values[r] * weights / (2 pi / N)``: one FFT per order, read into a
        Toeplitz matrix (Boyd, *Chebyshev and Fourier Spectral Methods*, 2001)."""
        k = np.arange(-K, K + 1)
        spectra = fourier_coefficients(values * (weights * (len(weights) / (2.0 * math.pi))), 2 * K)
        powers = np.vander(1j * k, len(values), increasing=True).T
        return np.einsum("rjk,rk->jk", spectra[:, k[:, None] - k + 2 * K], powers)


#: Largest K of a Hermite operator matrix of order 1 or 2: from K = 604 on, at any
#: hbar, the recurrence overflows at the outermost nodes and the table reads NaN.
MAX_HERMITE_TRUNCATION = 603


@dataclass(frozen=True)
class HermiteBasis:
    """Scaled Hermite functions, orthonormal on the line.

    ``h_k(x) = hbar^(-1/4) P_k(x / sqrt(hbar)) exp(-x^2 / (2 hbar))`` with
    ``P_k`` the orthonormal Hermite polynomials; these diagonalize the
    harmonic oscillator at scale ``hbar``, which must be positive and finite
    (:class:`~phasequant.errors.ConfigError` at construction otherwise).
    """

    hbar: float = 1.0

    def __post_init__(self):
        check_hbar(self.hbar)

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

    def galerkin(self, points: np.ndarray, values: np.ndarray, weights: np.ndarray, K: int) -> np.ndarray:
        """``M[j, k] = sum_n weights_n h_j sum_r values[r, n] h_k^(r)`` over the
        nodes ``points``, 0 <= j, k <= K, from one :meth:`table`."""
        table = self.table(points, K, len(values) - 1)
        return (table[0] * weights) @ np.einsum("rn,rkn->kn", values, table).T

    def table(self, points: np.ndarray, K: int, order: int) -> np.ndarray:
        """``h_k^(r)`` at every ``(N, 1)`` point for k = 0..K and r = 0..order,
        shape ``(order + 1, K + 1, N)``: one recurrence up to ``h_{K+order}``,
        then per derivative the ladder identity
        ``h_k' = (sqrt(k/2) h_{k-1} - sqrt((k+1)/2) h_{k+1}) / sqrt(hbar)``,
        which loses the top index.
        """
        root_h = math.sqrt(self.hbar)
        u = points[:, 0] / root_h
        level = hermite_polynomial_values(K + order, u) * (self.hbar**-0.25 * np.exp(-0.5 * u * u))
        out = [level[: K + 1]]
        for _ in range(order):
            k = np.arange(len(level) - 1)[:, None]
            derivative = -np.sqrt((k + 1) / 2.0) * level[1:]
            derivative[1:] += np.sqrt(k[1:] / 2.0) * level[:-2]
            level = derivative / root_h
            out.append(level[: K + 1])
        return np.array(out)


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
