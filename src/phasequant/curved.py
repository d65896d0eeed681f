"""Quantization maps on Riemannian configuration spaces.

The symbol-to-operator map generalizes the flat symmetric ordering by
contracting coefficient tensors with jets of the reciprocal volume density in
normal coordinates; its inverse is a delta-family trace pairing evaluated
through truncated Taylor algebra.  The round trip is not exact on curved
manifolds: the residual is a curvature multiple of the symbol coefficients,
and quantifying it is the main job of this module.

The pairing reads its ingredients as jets in normal coordinates from
``geometry``: density jets from ``geometry.sqrt_g_jet`` (the curvature
expansion of the density), connection jets from
``geometry.normal_christoffel_jets`` (the normal-coordinate metric, exact at
every order), and coefficient jets from covariant derivatives
(``geometry.covariant_jets``) corrected by those connection jets along the
radial geodesics.  The image contracts the same
density jets, as nodes (``geometry.density_jet_fields``), that the pairing
evaluates at a point.  Every operator order the package supports (up to 4)
is exact in the curvature; flat models are the zero-curvature case of the
same path, and a model with an opaque metric takes it too, with finite
differences only at its metric callable, one call per stencil node.  A
pairing computes each distinct field's jet once, since a field remembers its
jet at the last point.  Its Taylor algebra holds flat jets, as fields do:
each ingredient's derivative arrays enter once, through ``taylor.from_jets``.

Only the phase series and the final pairing sums depend on the momentum.  An
operator remembers the rest of its pairing (the normal frame, the density
series and the coefficient series collected per monomial rank), read-only,
at its last model and point, and a symbol remembers the Weyl image
:func:`axiom_defect` built for it at its last model, ``hbar`` and measure.
Each memo holds one entry, keyed by the model's identity (and the point's
shape and bytes), so a p-scan at one point builds one image and one pairing,
and any other call builds them afresh.

The images here are also the package's flat-space images: on a flat model
every volume-density jet beyond order zero vanishes, and both maps reduce to
the flat symmetric and standard orderings.

Two measure conventions are supported for building and tracing operators:
``"paper"`` weights the pairing with the normal-coordinate volume density
(and produces the jet-corrected image), while ``"emmrich"`` uses the density
at the base point only (no jet corrections).  The names follow the external
configuration vocabulary.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from . import geometry, numdiff, taylor
from .errors import ConfigError, ShapeError, check_hbar, finite
from .fields import TensorField, contract, scale
from .geometry import ManifoldModel
from .symbols import CovariantOperator, MomentumPolynomial, merge_terms, ordering_scheme, ordering_transform

MEASURE_VARIANTS = ("paper", "emmrich")


def _check_variant(measure_variant: str) -> str:
    if measure_variant not in MEASURE_VARIANTS:
        raise ConfigError(
            f"measure_variant must be one of {MEASURE_VARIANTS}, got {measure_variant!r}"
        )
    return measure_variant


@functools.cache
def _binomial_weight(m: int, k: int, j: int) -> float:
    """Exact dyadic weight ``C(m,k) C(m-k,j) / 2^(k+j)``."""
    return float(Fraction(math.comb(m, k) * math.comb(m - k, j), 2 ** (k + j)))


# ---------------------------------------------------------------------------
# symbol-to-operator maps


def wue_weyl_image(
    model: ManifoldModel,
    f: MomentumPolynomial,
    hbar: float = 1.0,
    measure_variant: str = "paper",
) -> CovariantOperator:
    """Symmetric-ordering operator of a momentum polynomial on a manifold.

    A degree-``m`` term maps to a double cascade over volume-density jet
    contractions (k) and covariant divergences (j):

    ``(hbar/i)^m sum_k C(m,k) sum_j C(m-k,j) 2^-(k+j)
    (nabla^j . X~_k) nabla^(m-k-j)``

    where ``X~_k`` contracts ``k`` slots of ``X`` with the reciprocal
    volume-density jets.  On flat models every jet beyond order zero
    vanishes and the map reduces to the flat symmetric ordering.  With the
    ``emmrich`` measure no jet terms arise (k = 0 only).
    """
    return _image(model, f, hbar, measure_variant, divergences=True)


def wue_standard_image(
    model: ManifoldModel,
    f: MomentumPolynomial,
    hbar: float = 1.0,
    measure_variant: str = "paper",
) -> CovariantOperator:
    """All-derivatives-to-the-right operator on a manifold.

    Single jet cascade, no divergence terms:
    ``(hbar/i)^m sum_k 2^-k C(m,k) X~_k nabla^(m-k)``; on flat models
    only ``k = 0`` survives, ``(hbar/i)^m X d^m``.
    """
    return _image(model, f, hbar, measure_variant, divergences=False)


def _image(
    model: ManifoldModel, f: MomentumPolynomial, hbar: float, measure_variant: str, divergences: bool
) -> CovariantOperator:
    """The jet cascade of both images, with the divergence cascade of the symmetric one; an ``hbar``
    that is not positive and finite raises :class:`ConfigError`."""
    _check_variant(measure_variant)
    check_hbar(hbar)
    pieces: list[dict[int, TensorField]] = []
    for m, X in f.terms.items():
        front = (-1j * hbar) ** m
        top_k = 0 if measure_variant == "emmrich" or model.flat else m
        for k in range(top_k + 1):
            if k == 1:
                continue  # the first volume jet vanishes identically
            Xt = X if k == 0 else contract(X, geometry.density_jet_fields(model, k, -1.0))
            for j in range(m - k + 1 if divergences else 1):
                if j:
                    Xt = geometry.covariant_divergence(model, Xt)
                pieces.append({m - k - j: scale(Xt, front * _binomial_weight(m, k, j))})
    return CovariantOperator(f.dim, merge_terms(f.dim, *pieces))


def kinetic_symbol(model: ManifoldModel, hbar: float = 1.0) -> MomentumPolynomial:
    """The symbol whose symmetric image is exactly ``(hbar/i)^2 g^{ab} nabla_a nabla_b``.

    The standard ordering transform of ``|p|_g^2`` plus ``(hbar^2/12) g^{ab}
    R_{ab}``: the transform's divergence terms vanish on a metric-compatible
    connection, leaving kinetic energy plus a scalar curvature shift.  An
    ``hbar`` that is not positive and finite raises :class:`ConfigError`.
    """
    check_hbar(hbar)
    X = geometry.inverse_metric_field(model)
    kinetic = MomentumPolynomial(model.dim, {2: X})
    standard = ordering_transform(model, ordering_scheme("standard"), kinetic, hbar)
    shift = {0: scale(geometry.ricci_contraction(model, X), hbar * hbar / 12.0)}
    return MomentumPolynomial(model.dim, merge_terms(model.dim, standard.terms, shift))


# ---------------------------------------------------------------------------
# ingredient jets for the dequantization pairing


def _phase_series(dim: int, order: int, p_frame: np.ndarray, hbar: float) -> taylor.Series:
    v = (-2j / hbar) * np.asarray(p_frame, dtype=complex)
    arrays = [np.ones((), dtype=complex)]
    for _ in range(order):
        arrays.append(np.multiply.outer(arrays[-1], v))
    return taylor.from_jets(dim, arrays)


def _ray_correction(G: list[np.ndarray], f: list[np.ndarray], rank: int, n: int) -> np.ndarray:
    """``nabla^n X`` minus the n-th jet of ``X~`` in normal coordinates, ray axes unsymmetrized.

    Along a radial geodesic ``t -> t v`` the tangent ``v`` is parallel, so
    ``nabla^n X [v..v] = (d/dt + Gamma~(t v) v)^n X~(t v)`` at ``t = 0``;
    expanding with ``Gamma~(0) = 0`` leaves these connection terms, with
    ``G`` the connection jets and ``f`` the lower jets of ``X~``.
    """

    def g(j: int, Y: np.ndarray) -> np.ndarray:
        # G[j] (axes [c, a, b] + j derivative axes) meets each contravariant
        # slot of Y through b, c takes the slot's place, and a and the
        # derivative axes are appended as ray axes
        out = None
        for i in range(rank):
            term = np.tensordot(G[j], Y, axes=([2], [i]))
            term = np.moveaxis(term, range(j + 2), [i, *range(term.ndim - j - 1, term.ndim)])
            out = term if out is None else out + term
        return out

    if n == 2:
        return g(1, f[0])
    if n == 3:
        return g(2, f[0]) + 3 * g(1, f[1])
    return g(3, f[0]) + 4 * g(2, f[1]) + 6 * g(1, f[2]) + 3 * g(1, g(1, f[0]))


def _coeff_jets(
    model: ManifoldModel, q: np.ndarray, tensor: TensorField, order: int, gamma_jets: list[np.ndarray]
) -> list[np.ndarray]:
    """Pullback jets of a contravariant coefficient tensor in normal coordinates.

    The k-th jet is the frame components (the model's one ``geometry.frame``
    at ``q``) of the k-th covariant derivative, less the connection terms of
    :func:`_ray_correction` (none on flat models), symmetrized over its
    derivative axes.
    """
    rank, basis = tensor.rank, geometry.frame(model, q)
    jets: list[np.ndarray] = []
    for k, level in enumerate(geometry.covariant_jets(model, tensor, rank, q, 0, order)):
        jet = geometry.frame_components(level[..., 0], basis, rank)
        if k >= 2 and rank and not model.flat:
            jet = jet - _ray_correction(gamma_jets, jets, rank, k)
        jets.append(numdiff.symmetrize(jet, axes=range(rank, rank + k)))
    return jets


def _pairing_data(model: ManifoldModel, q: np.ndarray, D: CovariantOperator) -> tuple:
    """The part of the pairing at ``q`` that no momentum enters: the normal frame
    ``E``, ``h = sqrt(g)^(-1/2)`` with its argument negated, ``sqrt(g)``, and the
    coefficient series collected per monomial rank (:func:`_momentum_polynomial_series`),
    all jets in normal coordinates at ``q``.  The connection is
    read through order ``D.max_order - 1`` (zeros pad it), the order-k
    coefficient through order k: it meets monomials of rank at most k, and the
    trace pairing of rank r reads order r.  The operator remembers this part,
    read-only, at its last model (by identity) and point (by shape and bytes)."""
    key, (last, known, part) = (q.shape, q.tobytes()), D._pairing
    if last is model and known == key:
        return part
    dim, order = model.dim, D.max_order
    # no jet read here needs the metric past ``order``: one remembered opaque metric_fn jet serves all
    model._fields["g"].jet(q, order)
    E = geometry.normal_frame(model, q)  # the model's one frame at q, which every frame reader below shares
    gamma_jets = geometry.normal_christoffel_jets(model, q, max(order - 1, 0))
    coeff = {k: taylor.from_jets(dim, _coeff_jets(model, q, t, k, gamma_jets)) for k, t in D.terms.items()}
    h = taylor.from_jets(dim, geometry.sqrt_g_jet(model, q, order, power=-0.5))
    sqrt_g = taylor.from_jets(dim, geometry.sqrt_g_jet(model, q, order))
    gamma_jets = gamma_jets + [np.zeros((dim,) * (3 + k)) for k in range(len(gamma_jets), order + 1)]
    collected = _momentum_polynomial_series(h, taylor.from_jets(dim, gamma_jets), coeff, order)
    h_rev = taylor.negate_argument(h)
    for array in (h_rev.jet, sqrt_g.jet, *(series.jet for series in collected.values())):
        array.flags.writeable = False
    part = (E, h_rev, sqrt_g, collected)
    D._pairing = (model, key, part)
    return part


# ---------------------------------------------------------------------------
# the dequantization trace


def _momentum_polynomial_series(
    h: taylor.Series, gamma: taylor.Series, coeff: dict[int, taylor.Series], order: int
) -> dict[int, taylor.Series]:
    """Contract operator coefficient series against derivative cascades.

    Walks ``nabla^k (h exp(i s xi))`` through the series algebra: each step
    adds a derivative axis, lifts a monomial factor ``i s_a`` (tracked as a
    linked base-axis pair), or contracts a connection series into an existing
    covariant slot.  Contributions are collected per monomial rank after
    contracting with the coefficient series of matching order.
    """
    collected: dict[int, taylor.Series] = {}

    def accumulate(bucket: dict[int, taylor.Series], r: int, s: taylor.Series) -> None:
        bucket[r] = taylor.add(bucket[r], s) if r in bucket else s  # add keeps the lower order

    level: dict[int, taylor.Series] = {0: h}
    for k in range(order + 1):
        if k in coeff:
            ck = coeff[k]
            for r, S in level.items():
                prod = taylor.outer(ck, S)  # base: [c k][s r][cov k]
                for i in range(k):
                    prod = taylor.trace(prod, 0, (k - i) + r)
                accumulate(collected, r, prod)
        if k == order:
            break
        nxt: dict[int, taylor.Series] = {}
        for r, S in level.items():
            if S.order >= 1:
                accumulate(nxt, r, taylor.gradient(S, r))
            accumulate(nxt, r + 1, taylor.identity_pair(S, r, r + 1))
            for t in range(k):
                prod = taylor.outer(gamma, S)  # base [c a b] + [s r] + [cov k]
                tr = taylor.trace(prod, 0, 3 + r + t)  # contract c into cov slot t
                # remaining [a b] + [s r] + [cov k-1]: a becomes the new front
                # cov index, b refills slot t (one position later, after a)
                moved = taylor.Series(tr.dim, tr.order, np.moveaxis(tr.jet, [0, 1], [r, r + 1 + t]))
                accumulate(nxt, r, taylor.scale(moved, -1.0))
        level = nxt
    return collected


def _momentum(model: ManifoldModel, p: np.ndarray) -> np.ndarray:
    """``p`` as a float array of ``model.dim`` finite components; a wrong shape raises
    :class:`ShapeError`, a NaN or infinite component :class:`ConfigError`."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.shape != (model.dim,):
        raise ShapeError(f"expected a momentum of {model.dim} components, got shape {p.shape}")
    if not all(map(finite, p.tolist())):
        raise ConfigError(f"momentum components must be finite, got {p.tolist()}")
    return p


def dequantize_curved(
    model: ManifoldModel,
    D: CovariantOperator,
    p: np.ndarray,
    q: np.ndarray,
    hbar: float = 1.0,
    measure_variant: str = "paper",
) -> complex:
    """Trace the operator against the quantizer at one phase-space point.

    Evaluates the delta-family pairing
    ``sum_r (-1/2)^r d^r[(W Q_r)^{a...}](0)`` where ``W`` collects the
    measure density, the reversed-argument quarter-power density, and the
    momentum phase, and ``Q_r`` are the monomial coefficient series of the
    operator applied to plane-wave-like states in normal coordinates.  On
    flat models this recovers the symbol exactly (up to jet accuracy); on
    curved manifolds the deviation from the symbol is the trace-axiom defect.

    Only the phase series, ``W`` and the final pairing sums depend on ``p``.
    The rest (:func:`_pairing_data`) the operator remembers at its last model
    and point, so a p-scan at one point builds it once; a momentum whose
    shape is not ``(model.dim,)`` raises :class:`ShapeError` first, and a
    non-finite momentum component or an ``hbar`` that is not positive and
    finite :class:`ConfigError`.
    """
    _check_variant(measure_variant)
    p = _momentum(model, p)
    check_hbar(hbar)
    q = np.asarray(q, dtype=float)
    geometry.check_point(model, q)
    E, h_rev, sqrt_g, collected = _pairing_data(model, q, D)
    phase = _phase_series(model.dim, D.max_order, E.T @ p, hbar)
    if measure_variant == "paper":
        w = taylor.mul(sqrt_g, taylor.mul(h_rev, phase))
    else:
        w = taylor.mul(h_rev, phase)
    total = 0.0 + 0.0j
    for r, series in collected.items():
        total += taylor.delta_pairing(w, series)
    return total


def axiom_defect(
    model: ManifoldModel,
    f: MomentumPolynomial,
    p: np.ndarray,
    q: np.ndarray,
    hbar: float = 1.0,
    measure_variant: str = "paper",
) -> complex:
    """Deviation of quantize-then-dequantize from the identity at one point.

    The symbol remembers the Weyl image it was given here at its last model
    (by identity), ``hbar`` and measure, and that image remembers its pairing
    at its last point (:func:`dequantize_curved`): a p-scan at one point
    builds one image and one pairing.  A wrong momentum shape, a non-finite
    momentum component or a bad ``hbar`` raises before either memo is read.
    """
    p = _momentum(model, p)
    check_hbar(hbar)
    last, known_hbar, known_variant, D = f._image
    if last is not model or known_hbar != hbar or known_variant != measure_variant:
        D = wue_weyl_image(model, f, hbar, measure_variant)
        f._image = (model, hbar, measure_variant, D)
    value = dequantize_curved(model, D, p, q, hbar, measure_variant)
    return f.evaluate(p, np.asarray(q, dtype=float)) - value
