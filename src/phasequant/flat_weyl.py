"""Quantization maps on flat space in Cartesian-type charts.

The symbol-to-operator map itself is the flat case of the covariant image
(:func:`curved.wue_weyl_image` on a flat model, where every volume-density
jet beyond order zero vanishes).  This module keeps what is particular to
flat space: the A-ordered image and its dequantization (through the exact
inverse of the symmetric image), an explicit quantizer kernel in the scaled
Hermite basis (with trace diagnostics), and the quantization of phase-space
Gaussians with their exact overlaps, used in pairing checks.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry
from .bases import gauss_hermite, hermite_polynomial_values
from .curved import _binomial_weight, wue_weyl_image
from .errors import InversionError
from .fields import TensorField, tensor_add, tensor_scale
from .geometry import ManifoldModel
from .symbols import (
    CovariantOperator,
    MomentumPolynomial,
    OrderingScheme,
    ordering_transform,
)

#: Relative defect above which :func:`dequantize_flat` rejects an operator.
INVERSION_TOLERANCE = 1e-9
#: Position nodes per block in :func:`quantize_gaussian_flat`'s accumulation.
GAUSSIAN_BLOCK_NODES = 32


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
    """Exact inverse of the symmetric image on a flat ``model`` by
    descending-order elimination.

    The top-order coefficient fixes the top symbol term; each lower order is
    the operator coefficient minus the divergence cascade of the higher terms.
    """
    recovered: dict[int, TensorField] = {}
    divergences: dict[int, list[TensorField]] = {}  # [recovered[m2], its divergence, ...]
    for m in range(D.max_order, -1, -1):
        pieces: list[TensorField] = []
        if m in D.terms:
            pieces.append(D.terms[m])
        for m2 in range(m + 1, D.max_order + 1):
            if m2 not in recovered:
                continue
            divs = divergences.setdefault(m2, [recovered[m2]])
            divs.append(geometry.covariant_divergence(model, divs[-1]))  # the (m2 - m)-th
            weight = (-1j * hbar) ** m2 * _binomial_weight(m2, 0, m2 - m)
            pieces.append(tensor_scale(divs[m2 - m], -weight))
        if not pieces:
            continue
        combined = pieces[0] if len(pieces) == 1 else tensor_add(*pieces)
        recovered[m] = tensor_scale(combined, (1j / hbar) ** m)
    return MomentumPolynomial(D.dim, recovered)


def dequantize_flat(
    A: OrderingScheme,
    D: CovariantOperator,
    p: np.ndarray,
    x: np.ndarray,
    hbar: float = 1.0,
    model: ManifoldModel | None = None,
) -> complex:
    """Recover the ``A``-ordered symbol value of a flat-space operator.

    Inverts the symmetric image exactly, then unwinds the ordering with the
    formal inverse series.  The recovered symbol is re-quantized and compared
    against the input operator at ``x``; a relative mismatch above
    :data:`INVERSION_TOLERANCE` raises :class:`InversionError` (it flags
    operators outside the image of the polynomial calculus, e.g.
    non-symmetric coefficient data).
    """
    model = model or geometry.euclidean_space(D.dim)
    g = _weyl_symbol(model, D, hbar)
    f = ordering_transform(model, A.inverse(), g, hbar)
    x_arr = np.asarray(x, dtype=float)
    redone = a_image_flat(A, f, model, hbar)
    scale_ref = 1.0
    worst = 0.0
    for order in set(D.terms) | set(redone.terms):
        want = D.terms[order].evaluate(x_arr) if order in D.terms else 0.0
        got = redone.terms[order].evaluate(x_arr) if order in redone.terms else 0.0
        worst = max(worst, float(np.max(np.abs(np.asarray(want) - np.asarray(got)))))
        scale_ref = max(scale_ref, float(np.max(np.abs(np.asarray(want)))))
    if worst > INVERSION_TOLERANCE * scale_ref:
        raise InversionError(
            f"operator is not reproduced by its recovered symbol (defect {worst:.3e})"
        )
    return f.evaluate(np.atleast_1d(np.asarray(p, dtype=float)), x_arr)


# ---------------------------------------------------------------------------
# explicit quantizer kernel in the scaled Hermite basis (one dimension)


def quantizer_matrix_flat(p: float, x: float, K: int, hbar: float = 1.0) -> np.ndarray:
    """Phase-space kernel matrix in Hermite functions 0..K at one point.

    Entries are ``2 integral dxi exp(-2 i p xi / hbar) h_j(x - xi) h_k(x + xi)``
    evaluated with Gauss-Hermite quadrature after pulling out the shared
    Gaussian; node symmetry makes the result hermitian to rounding.
    """
    s = math.sqrt(hbar)
    xt = x / s
    u, w = gauss_hermite(max(4 * (K + 1), 32))
    pm = hermite_polynomial_values(K, xt - u)  # (K+1, nodes)
    pp = hermite_polynomial_values(K, xt + u)
    phase = np.exp(-2j * p * u / s)
    return 2.0 * math.exp(-xt * xt) * ((pm * (w * phase)) @ pp.T)


def quantizer_diag_flat(p: float, x: float, K: int, hbar: float = 1.0) -> np.ndarray:
    """Diagonal kernel entries ``<h_k | Omega(p, x) | h_k>`` for k = 0..K."""
    nodes = max(4 * (K + 1), 32)
    s = math.sqrt(hbar)
    xt = x / s
    u, w = gauss_hermite(nodes)
    pm = hermite_polynomial_values(K, xt - u)
    pp = hermite_polynomial_values(K, xt + u)
    phase = np.exp(-2j * p * u / s)
    return 2.0 * math.exp(-xt * xt) * np.einsum("i,ki,ki->k", w * phase, pm, pp)


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
    """Quantize a phase-space Gaussian with the momentum integral done exactly.

    For ``f(p, x) = exp(-(p-p0)^2/2sp^2 - (x-x0)^2/2sx^2)`` the momentum
    average of the kernel phase is a closed-form Gaussian, so the remaining
    ``(x, xi)`` integral is smooth and one Gauss-Hermite rule, used for both
    the scaled position ``v = x / s`` and the scaled offset ``u = xi / s``,
    handles it to rounding.  Sampling ``f`` on a phase-space grid would need
    far more nodes to resolve the kernel's oscillation at large ``K``.

    The weight of node pair ``(v_i, u_j)`` factors as ``a_i b_j``, a real
    position part times a complex offset part, so the sum over node pairs of
    ``a_i b_j P_k(v_i - u_j) P_l(v_i + u_j)`` is a matrix product over the
    pair index.  It is accumulated over blocks of
    :data:`GAUSSIAN_BLOCK_NODES` position nodes: the Hermite values of all
    ``nodes^2`` pairs at once would be two ``(K+1) x nodes x nodes`` arrays,
    and a block keeps peak memory near that of the rest of the computation.
    """
    nodes = max(4 * (K + 1), 96)
    s = math.sqrt(hbar)
    u, w = gauss_hermite(nodes)
    a = w * np.exp(-0.5 * ((s * u - x0) / sx) ** 2)  # position Gaussian
    # exact  integral dp exp(-(p-p0)^2/2sp^2) exp(-2 i p xi / hbar)
    b = w * np.exp(-2.0 * (sp * u / s) ** 2 - 2j * p0 * u / s)
    out = np.zeros((K + 1, K + 1), dtype=complex)
    for start in range(0, nodes, GAUSSIAN_BLOCK_NODES):
        block = slice(start, start + GAUSSIAN_BLOCK_NODES)
        v = u[block, None]
        pm = hermite_polynomial_values(K, v - u).reshape(K + 1, -1)
        pp = hermite_polynomial_values(K, v + u).reshape(K + 1, -1)
        weight = (a[block, None] * b).reshape(-1)
        out += (pm * weight.real) @ pp.T + 1j * ((pm * weight.imag) @ pp.T)
    return out * (math.sqrt(2.0 * math.pi) * sp * s / (math.pi * hbar))


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
