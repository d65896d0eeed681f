"""Quantization maps on Riemannian configuration spaces.

The symbol-to-operator map generalizes the flat symmetric ordering by
contracting coefficient tensors with jets of the reciprocal volume density in
normal coordinates; its inverse is a delta-family trace pairing evaluated
through truncated Taylor algebra.  The round trip is not exact on curved
manifolds: the residual is a curvature multiple of the symbol coefficients,
and quantifying it is the main job of this module.

The pairing reads its ingredients as jets in normal coordinates: coefficient
jets from covariant derivatives (``geometry.covariant_derivative_fields``) and
density jets from ``geometry.sqrt_g_jet``.  These are exact through operator
order 2, and at every order on flat models, which are the zero-curvature case
of the same path.  Finite-difference jets serve only operators of order
above 2 on curved models.

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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import geometry, numdiff, taylor
from .errors import ConfigError
from .fields import TensorField, symmetrized_contraction_field, tensor_add, tensor_scale
from .geometry import ManifoldModel
from .symbols import CovariantOperator, MomentumPolynomial, merge_terms

MEASURE_VARIANTS = ("paper", "emmrich")


def _check_variant(measure_variant: str) -> str:
    if measure_variant not in MEASURE_VARIANTS:
        raise ConfigError(
            f"measure_variant must be one of {MEASURE_VARIANTS}, got {measure_variant!r}"
        )
    return measure_variant


def _binomial_weight(m: int, k: int, j: int) -> float:
    """Exact dyadic weight ``C(m,k) C(m-k,j) / 2^(k+j)``."""
    return float(Fraction(math.comb(m, k) * math.comb(m - k, j), 2 ** (k + j)))


# ---------------------------------------------------------------------------
# symbol-to-operator maps


def _iter_cov_div(model: ManifoldModel, tensor: TensorField, times: int) -> TensorField:
    for _ in range(times):
        tensor = geometry.covariant_divergence(model, tensor)
    return tensor


def _jet_contracted(model: ManifoldModel, X: TensorField, k: int) -> TensorField:
    """The coefficient ``X`` with ``k`` slots eaten by reciprocal volume-density jets.

    The jets are those of ``sqrt(g(q)) / sqrt(g(xi))`` in normal coordinates,
    with chart derivative axes.  The second is ``Ric / 3``, contracted through
    exact Ricci fields on expression metrics; higher jets are numeric, with
    finite-difference partials.
    """
    if k == 0:
        return X
    if k == 2:
        return tensor_scale(geometry.ricci_contraction(model, X), 1.0 / 3.0)

    def chart_jet(q: np.ndarray) -> np.ndarray:
        jet = np.asarray(geometry.sqrt_g_jet(model, q, k, power=-1.0)[k], dtype=float)
        Einv = np.linalg.inv(geometry.normal_frame(model, q))
        for axis in range(k):
            jet = np.moveaxis(np.tensordot(Einv, jet, axes=([0], [axis])), 0, axis)
        return jet

    return symmetrized_contraction_field(X, chart_jet, k)


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
    _check_variant(measure_variant)
    terms: dict[int, TensorField] = {}
    for m, X in f.terms.items():
        front = (-1j * hbar) ** m
        top_k = 0 if measure_variant == "emmrich" or model.flat else m
        for k in range(top_k + 1):
            if k == 1:
                continue  # the first volume jet vanishes identically
            Xt = _jet_contracted(model, X, k)
            for j in range(m - k + 1):
                piece = tensor_scale(
                    _iter_cov_div(model, Xt, j), front * _binomial_weight(m, k, j)
                )
                terms = merge_terms(f.dim, terms, {m - k - j: piece})
    return CovariantOperator(f.dim, terms)


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
    _check_variant(measure_variant)
    terms: dict[int, TensorField] = {}
    for m, X in f.terms.items():
        front = (-1j * hbar) ** m
        top_k = 0 if measure_variant == "emmrich" or model.flat else m
        for k in range(top_k + 1):
            if k == 1:
                continue
            piece = tensor_scale(
                _jet_contracted(model, X, k), front * _binomial_weight(m, k, 0)
            )
            terms = merge_terms(f.dim, terms, {m - k: piece})
    return CovariantOperator(f.dim, terms)


def kinetic_symbol(model: ManifoldModel, hbar: float = 1.0) -> MomentumPolynomial:
    """The symbol whose symmetric image is exactly ``(hbar/i)^2 g^{ab} nabla_a nabla_b``.

    ``|p|_g^2 + i hbar (nabla . g^{-1}) p - (hbar^2/4) nabla.nabla.g^{-1}
    + (hbar^2/12) g^{ab} R_{ab}``; on a metric-compatible connection the two
    divergence pieces vanish and the symbol is kinetic energy plus a scalar
    curvature shift.
    """
    dim = model.dim
    X = geometry.inverse_metric_field(model)
    div1 = geometry.covariant_divergence(model, X)
    div2 = geometry.covariant_divergence(model, div1)
    ricci_term = geometry.ricci_contraction(model, X)
    terms = {
        2: X,
        1: tensor_scale(div1, 1j * hbar),
        0: tensor_add(
            tensor_scale(div2, -0.25 * hbar * hbar),
            tensor_scale(ricci_term, hbar * hbar / 12.0),
        ),
    }
    return MomentumPolynomial(dim, terms)


# ---------------------------------------------------------------------------
# ingredient jets for the dequantization pairing


def _eval_field_array(arr: np.ndarray, q: np.ndarray) -> np.ndarray:
    out = np.empty(arr.shape, dtype=complex)
    flat_out = out.reshape(-1)
    for i, f in enumerate(arr.reshape(-1)):
        flat_out[i] = f(q)
    return out


def _gamma_frame_derivative(model: ManifoldModel, q: np.ndarray) -> np.ndarray:
    """Curvature-exact first jet of the normal-coordinate connection.

    ``d_d Gamma~^c_{ab}(0) = -(1/3)(R~^c_{abd} + R~^c_{bad})`` with the frame
    Riemann tensor; array axes ``[c, a, b, d]``.
    """
    E = geometry.normal_frame(model, q)
    Einv = np.linalg.inv(E)
    R = geometry.riemann(model, q)
    Rf = np.einsum("ca,abgd,bB,gG,dD->cBGD", Einv, R, E, E, E)
    return -(Rf + np.swapaxes(Rf, 1, 2)) / 3.0


def _phase_series(dim: int, order: int, p_frame: np.ndarray, hbar: float) -> taylor.Series:
    v = (-2j / hbar) * np.asarray(p_frame, dtype=complex)
    coeffs: list[np.ndarray] = [np.ones((), dtype=complex)]
    for k in range(1, order + 1):
        coeffs.append(np.multiply.outer(coeffs[-1], v))
    return taylor.Series(dim, order, 0, coeffs)


@dataclass
class _PairingData:
    """Normal-coordinate ingredient series for the trace pairing at one point."""

    h: taylor.Series
    sqrt_g: taylor.Series
    gamma: taylor.Series
    coeff: dict[int, taylor.Series]


def _coeff_jets_numeric(
    model: ManifoldModel, q: np.ndarray, tensor: TensorField, order: int
) -> list[np.ndarray]:
    """Finite-difference pullback jets of a contravariant coefficient tensor."""
    dim, rank = model.dim, tensor.rank
    E = geometry.normal_frame(model, q)

    def pull(xi: np.ndarray) -> np.ndarray:
        v = E @ xi
        y = geometry.exp_map(model, q, v)
        J = geometry.exp_jacobian(model, q, v) @ E
        Ji = np.linalg.inv(J)
        vals = tensor.evaluate(y)
        for axis in range(rank):
            vals = np.moveaxis(np.tensordot(Ji, vals, axes=([1], [axis])), 0, axis)
        return vals if rank else np.asarray(vals)

    return numdiff.jet(pull, np.zeros(dim), order)


def _coeff_jets_curvature(
    model: ManifoldModel, q: np.ndarray, tensor: TensorField, order: int
) -> list[np.ndarray]:
    """Curvature-exact pullback jets: every order on flat models, through
    second order on curved ones.

    The k-th jet is the frame components of the k-th covariant derivative,
    symmetrized over its derivative axes.  On a curved model the second jet
    also subtracts the connection's first jet contracted into each
    contravariant slot; flat models need no correction at any order.
    """
    rank = tensor.rank
    E = geometry.normal_frame(model, q)
    Einv = np.linalg.inv(E)

    def to_frame(arr: np.ndarray, lower: int) -> np.ndarray:
        out = np.asarray(arr, dtype=complex)
        for axis in range(rank):
            out = np.moveaxis(np.tensordot(Einv, out, axes=([1], [axis])), 0, axis)
        for axis in range(rank, rank + lower):
            out = np.moveaxis(np.tensordot(E, out, axes=([0], [axis])), 0, axis)
        return out

    c0 = to_frame(tensor.evaluate(q), 0)
    jets = [c0]
    comps = tensor.comps
    for k in range(1, order + 1):
        comps = geometry.covariant_derivative_fields(model, comps, rank)
        jet = to_frame(_eval_field_array(comps, q), k)
        if k == 2 and not model.flat:
            dG = _gamma_frame_derivative(model, q)  # [c, a, b, d]
            correction = np.zeros_like(jet)
            for i in range(rank):
                # (d_e Gamma~^{A_i}_{d g}) c~^{.. g ..}  with dG[A_i, d, g, e]
                term = np.tensordot(dG, c0, axes=([2], [i]))  # [A_i, d, e] + rest
                correction += np.moveaxis(term, [0, 1, 2], [i, rank, rank + 1])
            jet = jet - correction
        jets.append(numdiff.symmetrize(jet, axes=range(rank, rank + k)))
    return jets


def _pairing_data(
    model: ManifoldModel, q: np.ndarray, D: CovariantOperator, order: int
) -> _PairingData:
    """Ingredient series at ``q``: curvature-exact on flat models and for
    orders up to 2, finite differences only for higher orders on curved ones."""
    dim = model.dim
    exact = model.flat or order <= 2
    coeff_jets = _coeff_jets_curvature if exact else _coeff_jets_numeric
    coeff = {k: taylor.from_jets(dim, coeff_jets(model, q, t, order)) for k, t in D.terms.items()}
    method = "curvature" if exact else "numeric"
    h = taylor.from_jets(dim, geometry.sqrt_g_jet(model, q, order, method, power=-0.5))
    sqrt_g = taylor.from_jets(dim, geometry.sqrt_g_jet(model, q, order, method))
    if exact:
        gamma_jets = [np.zeros((dim,) * 3)]
        if order >= 1:
            gamma_jets.append(_gamma_frame_derivative(model, q))
    else:
        normal_model = ManifoldModel(
            name=f"{model.name}-normal",
            dim=dim,
            coords=tuple(geometry.CoordSpec(f"xi{i}") for i in range(dim)),
            metric_fn=geometry.normal_metric_fn(model, q),
        )
        gamma_jets = numdiff.jet(
            lambda xi: geometry.christoffel(normal_model, xi), np.zeros(dim), max(order - 1, 0),
            step=5e-2,
        )
    # connection jets beyond those read by the pairing are padded with zeros:
    # a rank-r pairing only consumes connection data through order r - 1.
    while len(gamma_jets) < order + 1:
        gamma_jets.append(np.zeros((dim,) * (3 + len(gamma_jets))))
    return _PairingData(h, sqrt_g, taylor.from_jets(dim, gamma_jets), coeff)


# ---------------------------------------------------------------------------
# the dequantization trace


def _momentum_polynomial_series(data: _PairingData, order: int) -> dict[int, taylor.Series]:
    """Contract operator coefficient series against derivative cascades.

    Walks ``nabla^k (h exp(i s xi))`` through the series algebra: each step
    adds a derivative axis, lifts a monomial factor ``i s_a`` (tracked as a
    linked base-axis pair), or contracts a connection series into an existing
    covariant slot.  Contributions are collected per monomial rank after
    contracting with the coefficient series of matching order.
    """
    collected: dict[int, taylor.Series] = {}

    def accumulate(bucket: dict[int, taylor.Series], r: int, s: taylor.Series) -> None:
        if r in bucket:
            prev = bucket[r]
            trunc = min(prev.order, s.order)
            bucket[r] = taylor.add(taylor.truncate(prev, trunc), taylor.truncate(s, trunc))
        else:
            bucket[r] = s

    level: dict[int, taylor.Series] = {0: data.h}
    for k in range(order + 1):
        if k in data.coeff:
            ck = data.coeff[k]
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
                accumulate(nxt, r, taylor.derivative(S, r))
            accumulate(nxt, r + 1, taylor.identity_pair(S, r, r + 1))
            for t in range(k):
                prod = taylor.outer(data.gamma, S)  # base [c a b] + [s r] + [cov k]
                tr = taylor.trace(prod, 0, 3 + r + t)  # contract c into cov slot t
                # remaining [a b] + [s r] + [cov k-1]: a becomes the new front
                # cov index, b refills slot t (one position later, after a)
                coeffs = [np.moveaxis(c, [0, 1], [r, r + 1 + t]) for c in tr.coeffs]
                moved = taylor.Series(tr.dim, tr.order, tr.base_rank, coeffs)
                accumulate(nxt, r, taylor.scale(moved, -1.0))
        level = nxt
    return collected


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
    """
    _check_variant(measure_variant)
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.asarray(q, dtype=float)
    geometry.check_point(model, q)
    order = D.max_order
    data = _pairing_data(model, q, D, order)
    dim = model.dim
    phase = _phase_series(dim, order, geometry.normal_frame(model, q).T @ p, hbar)
    h_rev = taylor.negate_argument(data.h)
    if measure_variant == "paper":
        w = taylor.mul(data.sqrt_g, taylor.mul(h_rev, phase))
    else:
        w = taylor.mul(h_rev, phase)
    collected = _momentum_polynomial_series(data, order)
    total = 0.0 + 0.0j
    for r, series in collected.items():
        total += taylor.delta_pairing(taylor.truncate(w, series.order), series)
    return total


def axiom_defect(
    model: ManifoldModel,
    f: MomentumPolynomial,
    p: np.ndarray,
    q: np.ndarray,
    hbar: float = 1.0,
    measure_variant: str = "paper",
) -> complex:
    """Deviation of quantize-then-dequantize from the identity at one point."""
    D = wue_weyl_image(model, f, hbar, measure_variant)
    value = dequantize_curved(model, D, p, q, hbar, measure_variant)
    return f.evaluate(np.atleast_1d(np.asarray(p, dtype=float)), np.asarray(q, dtype=float)) - value


def defect_curvature_coefficient(
    model: ManifoldModel,
    f: MomentumPolynomial,
    points: list[np.ndarray],
    p: np.ndarray,
    hbar: float = 1.0,
    measure_variant: str = "paper",
) -> float:
    """Least-squares coefficient of the defect against the curvature contraction.

    Fits ``defect(q_i) = c * hbar^2 * (X^{ab} R_{ab})(q_i)`` over sample
    points using the degree-2 coefficient of ``f`` and returns ``c``.
    """
    X = f.terms.get(2)
    if X is None:
        raise ConfigError("curvature-coefficient extraction needs a degree-2 term")
    defects = []
    weights = []
    for q in points:
        q = np.asarray(q, dtype=float)
        d = axiom_defect(model, f, p, q, hbar, measure_variant)
        contraction = complex(
            np.tensordot(X.evaluate(q), geometry.ricci(model, q), axes=([0, 1], [0, 1]))
        )
        defects.append(d.real)
        weights.append(hbar * hbar * contraction.real)
    weights_arr = np.asarray(weights)
    defects_arr = np.asarray(defects)
    denom = float(weights_arr @ weights_arr)
    if denom == 0.0:
        raise ConfigError("curvature contraction vanishes at every sample point")
    return float(weights_arr @ defects_arr / denom)
