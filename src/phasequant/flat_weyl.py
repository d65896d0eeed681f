"""Quantization maps on flat space in Cartesian-type charts.

The symbol-to-operator map itself is the flat case of the covariant image
(:func:`curved.wue_weyl_image` on a flat model, where every volume-density
jet beyond order zero vanishes).  This module keeps what is particular to
flat space: the A-ordered image and its dequantization (an operator's
symmetric symbol is the standard ordering transform of the symbol read off
its coefficients, through the same ``A(Delta)`` series), an explicit
quantizer kernel in the scaled Hermite basis (with trace diagnostics), and
the quantization of phase-space Gaussians through their Weyl position
kernel, with their exact overlaps.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry
from .bases import gauss_hermite, hermite_polynomial_values
from .curved import wue_weyl_image
from .errors import ConfigError, InversionError, check_hbar, finite, positive_finite
from .fields import scale
from .geometry import ManifoldModel
from .symbols import (
    CovariantOperator,
    MomentumPolynomial,
    OrderingScheme,
    ordering_scheme,
    ordering_transform,
)

#: Relative defect above which :func:`dequantize_flat` rejects an operator.
INVERSION_TOLERANCE = 1e-9


def a_image_flat(
    A: OrderingScheme,
    f: MomentumPolynomial,
    model: ManifoldModel | None = None,
    hbar: float = 1.0,
) -> CovariantOperator:
    """Quantize with an ordering scheme: symmetric image of ``A(Delta) f``."""
    model = model or geometry.euclidean_space(f.dim)
    return wue_weyl_image(model, ordering_transform(model, A, f, hbar), hbar)


def _weyl_symbol(model: ManifoldModel, D: CovariantOperator, hbar: float) -> MomentumPolynomial:
    """Exact inverse of the symmetric image on a flat ``model``.

    On flat space ``D = sum_k D_k nabla^k`` is the standard image of the
    read-off symbol ``sum_k (i/hbar)^k D_k p^k``, and the standard image is
    the symmetric image after the standard ordering series, so the symmetric
    symbol is the standard transform of the read-off one.
    """
    read_off = MomentumPolynomial(D.dim, {k: scale(t, (1j / hbar) ** k) for k, t in D.terms.items()})
    return ordering_transform(model, ordering_scheme("standard", hbar), read_off, hbar)


def dequantize_flat(
    A: OrderingScheme,
    D: CovariantOperator,
    p: np.ndarray,
    x: np.ndarray,
    hbar: float = 1.0,
    model: ManifoldModel | None = None,
) -> complex | np.ndarray:
    """Recover the ``A``-ordered symbol value of a flat-space operator.

    Inverts the symmetric image exactly, then unwinds the ordering with the
    formal inverse series.  The recovered symbol is re-quantized and compared
    against the input operator at ``x``; a relative mismatch above
    :data:`INVERSION_TOLERANCE` raises :class:`InversionError` (it flags
    operators outside the image of the polynomial calculus, e.g. a
    coefficient with a jump at ``x``, whose finite-difference partials do
    not cancel), and so does a NaN coefficient at ``x``.

    ``p`` and ``x`` are one phase-space point, shape ``(dim,)`` each, which
    gives one complex value, or a stack of ``N`` points, shape ``(N, dim)``
    each, which gives the ``N`` values, each bit for bit its point's alone.
    A stack is checked row by row: each row's defect is held against that
    row's own magnitude, so a bad row cannot hide behind a larger one.
    """
    check_hbar(hbar)
    model = model or geometry.euclidean_space(D.dim)
    g = _weyl_symbol(model, D, hbar)
    f = ordering_transform(model, A.inverse(), g, hbar)
    x_arr = np.asarray(x, dtype=float)
    rows = len(x_arr) if x_arr.ndim > 1 else 1
    redone = a_image_flat(A, f, model, hbar)
    defects, magnitudes = [np.zeros(rows)], [np.ones(rows)]
    for order in set(D.terms) | set(redone.terms):
        want = np.asarray(D.terms[order].evaluate(x_arr) if order in D.terms else 0.0)
        got = np.asarray(redone.terms[order].evaluate(x_arr) if order in redone.terms else 0.0)
        defect, magnitude = np.broadcast_arrays(np.abs(want - got), np.abs(want))
        defects.append(np.max(defect.reshape(rows, -1), axis=1))
        magnitudes.append(np.max(magnitude.reshape(rows, -1), axis=1))
    worst, scale_ref = np.max(defects, axis=0), np.max(magnitudes, axis=0)  # a NaN in either propagates
    failed = ~(worst <= INVERSION_TOLERANCE * scale_ref)  # so a NaN fails
    if np.any(failed):
        raise InversionError(
            f"operator is not reproduced by its recovered symbol (defect {worst[np.argmax(failed)]:.3e})"
        )
    return f.evaluate(np.atleast_1d(np.asarray(p, dtype=float)), x_arr)


# ---------------------------------------------------------------------------
# explicit quantizer kernel in the scaled Hermite basis (one dimension)

#: Largest K of :func:`quantize_gaussian_flat`: from 323 on, at any hbar, its
#: ``P_k(sqrt(2) tau)`` table overflows at the outermost nodes and reads NaN.
MAX_TRUNCATION = 322


def _kernel_factors(p: float, x: float, K: int, hbar: float) -> tuple[np.ndarray, np.ndarray, float]:
    """``2 integral dxi exp(-2 i p xi / hbar) h_j(x - xi) h_k(x + xi)`` as
    ``c * sum_i A[j, i] B[k, i]`` over Gauss-Hermite nodes in the scaled
    offset, the shared Gaussian pulled out into ``c``: ``(A, B, c)``.  Every
    kernel entry point reads it, so it checks ``hbar``, then ``p`` and ``x``, first."""
    check_hbar(hbar)
    if not (finite(p) and finite(x)):
        raise ConfigError(f"phase-space point must be finite, got p = {p!r}, x = {x!r}")
    s = math.sqrt(hbar)
    xt = x / s
    u, w = gauss_hermite(max(4 * (K + 1), 32))
    a = hermite_polynomial_values(K, xt - u) * (w * np.exp(-2j * p * u / s))
    return a, hermite_polynomial_values(K, xt + u), 2.0 * math.exp(-xt * xt)


def quantizer_matrix_flat(p: float, x: float, K: int, hbar: float = 1.0) -> np.ndarray:
    """Phase-space kernel matrix in Hermite functions 0..K at one point;
    node symmetry makes it hermitian to rounding."""
    a, b, c = _kernel_factors(p, x, K, hbar)
    return c * (a @ b.T)


def quantizer_diag_flat(p: float, x: float, K: int, hbar: float = 1.0) -> np.ndarray:
    """Diagonal kernel entries ``<h_k | Omega(p, x) | h_k>`` for k = 0..K."""
    a, b, c = _kernel_factors(p, x, K, hbar)
    return c * np.einsum("ki,ki->k", a, b)


def flat_trace(p: float, x: float, K: int, hbar: float = 1.0) -> complex:
    """Regularized kernel trace at truncation scale ``K``.

    The sharp kernel is only conditionally trace-class: raw partial sums over
    Hermite diagonal elements oscillate without settling, so a summability
    method is required.  This is a Gaussian-weighted sum
    ``sum_k d_k exp(-(2k/K)^2)`` over the first ``2K`` diagonal entries,
    whose deviation from 1 decreases monotonically in ``K``.
    """
    diag = quantizer_diag_flat(p, x, 2 * K - 1, hbar)
    weights = np.exp(-((2.0 * np.arange(2 * K) / K) ** 2))
    return complex(np.sum(diag * weights))


def trace_ladder(p: float, x: float, sizes: list[int], hbar: float = 1.0) -> list[float]:
    """Deviation ``|trace - 1|`` of the regularized truncated trace per size."""
    return [abs(flat_trace(p, x, K, hbar) - 1.0) for K in sizes]


def quantize_gaussian_flat(
    p0: float,
    x0: float,
    sp: float,
    sx: float,
    K: int,
    hbar: float = 1.0,
) -> np.ndarray:
    """Quantize a phase-space Gaussian through its Weyl position kernel.

    For ``f(p, x) = exp(-(p-p0)^2/2sp^2 - (x-x0)^2/2sx^2)`` the kernel
    ``<y|Op(f)|z> = (2 pi hbar)^-1 integral f(p, (y+z)/2) e^{ip(y-z)/hbar} dp``
    (Folland, *Harmonic Analysis in Phase Space*, 1989, ch. 2) is the phase
    ``e^{i p0 (y-z)/hbar}`` times a real Gaussian ``G(y, z)``, in closed form.
    The Hermite functions carry the weight ``exp(-(y^2 + z^2) / 2hbar)``, so
    one Gauss-Hermite rule in ``y = sqrt(2 hbar) tau`` per axis takes the
    ``(y, z)`` integral: with ``P`` the ``(K+1, n)`` table of
    ``P_k(sqrt(2) tau)`` times weights and phase, the matrix is
    ``c P G P^H`` on the ``n x n`` grid, O(n^2 K) work, finite for ``K`` up
    to :data:`MAX_TRUNCATION`.  Both products are real ``np.einsum`` sums, not
    BLAS ones, which from about K = 32 round differently on one thread and on two.
    A center that is not finite, or a width that is not positive and finite,
    raises :class:`ConfigError`.
    """
    check_hbar(hbar)
    if not (finite(p0) and finite(x0)):
        raise ConfigError(f"Gaussian center must be finite, got p0 = {p0!r}, x0 = {x0!r}")
    if not (positive_finite(sp) and positive_finite(sx)):
        raise ConfigError(f"Gaussian widths must be positive finite numbers, got sp = {sp!r}, sx = {sx!r}")
    nodes = max(4 * (K + 1), 96)
    tau, w = gauss_hermite(nodes)
    y = math.sqrt(2.0 * hbar) * tau
    difference, middle = y[:, None] - y, 0.5 * (y[:, None] + y)
    gauss = np.exp(-0.5 * (sp * difference / hbar) ** 2 - 0.5 * ((middle - x0) / sx) ** 2)
    table = hermite_polynomial_values(K, math.sqrt(2.0) * tau) * (w * np.exp(1j * p0 * y / hbar))
    # 2 sqrt(hbar) from dy dz and the Hermite functions' hbar^(-1/4) each
    c = 2.0 * math.sqrt(hbar) * sp / (math.sqrt(2.0 * math.pi) * hbar)
    parts = np.concatenate([table.real, table.imag])  # P = P_re + i P_im, stacked
    block = np.einsum("kn,jn->kj", np.einsum("kn,nm->km", parts, gauss), parts).reshape(2, K + 1, 2, K + 1)
    return c * ((block[0, :, 0] + block[1, :, 1]) + 1j * (block[1, :, 0] - block[0, :, 1]))


def gaussian_pair_integral(
    g1: tuple[float, float, float, float], g2: tuple[float, float, float, float]
) -> float:
    """Exact ``integral f1 f2 dp dx`` for two phase-space Gaussians."""
    p1, x1, sp1, sx1 = g1
    p2, x2, sp2, sx2 = g2

    def one_axis(c1, s1, c2, s2):
        var = s1 * s1 + s2 * s2
        return math.sqrt(2.0 * math.pi * (s1 * s1 * s2 * s2) / var) * math.exp(
            -0.5 * (c1 - c2) ** 2 / var
        )

    return one_axis(p1, sp1, p2, sp2) * one_axis(x1, sx1, x2, sx2)
