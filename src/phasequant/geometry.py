"""Chart-based Riemannian geometry for the configuration manifolds.

A :class:`ManifoldModel` bundles a single chart (coordinate ranges) and the
metric in that chart.  Each level of a model (the metric, its inverse,
connection, curvature and Ricci tensor) is one tensor node, its component axes
first, that every reader takes whole.  Only the metric and inverse jets depend
on how the metric is given: built-in models give it as expressions, whose
symbolic partials are exact, and a model given by an opaque ``metric_fn``
reads both from one finite-difference jet of ``metric_fn`` and its inverse at
the same nodes, so finite differences apply only one level deep, at the
callable.  The connection and curvature take their jets from the jets of the
level below by the Leibniz rule (Taylor-mode propagation, Griewank and
Walther, *Evaluating Derivatives*, ch. 13), one code path for every model.

The covariant derivative is one operation on jets, :func:`covariant_jets`,
which the pairing's coefficient jets, the frame curvature ``R``, ``nabla R``
and ``nabla nabla R``, divergences and density jets all read.  The
normal-coordinate expansion of the metric through fourth order gives the
connection jets (:func:`normal_metric_series`, :func:`normal_christoffel_jets`)
and, as one tensor node per order over the base point, the density jets
(:func:`density_jet_fields`): the image contracts that node and
:func:`sqrt_g_jet` evaluates it at a point, so density jets have one source.
The exponential map is a power series in the frame components
(:func:`exp_series`), solved order by order from the connection's own chart
jets, with no integrator and no closed-form geodesics; the density and
pullback jets composed with it (``sqrt_g_jet(method="numeric")``,
:func:`pullback_jet`) are the references that checks compare the curvature
forms with.  The metric series is a flat jet (``taylor.Series``); connection,
density and pullback jets are returned as symmetric derivative arrays, one
per order.

Everything in normal coordinates is read in one orthonormal frame ``E`` at
``q``.  A model remembers ``E`` and ``E^-1`` (:func:`frame`), read-only, at its
last point, keyed by the point's shape and bytes; the memo takes no part in
the model's equality, hashing or ``repr``.  So one pairing evaluates the
metric, runs Gram-Schmidt and inverts ``E`` once, and every frame reader
(:func:`frame_components` of the curvature levels, density jets, Ricci and
covariant derivatives, the linear term of :func:`exp_series`, and the
pairing's coefficient jets) takes the same pair.

Conventions:

* curvature: ``R^r_{s m n} = d_m Gamma^r_{n s} - d_n Gamma^r_{m s}
  + Gamma^r_{m l} Gamma^l_{n s} - Gamma^r_{n l} Gamma^l_{m s}`` and
  ``Ric_{s n} = R^m_{s m n}``; on the unit sphere ``Ric = g``.
* normal frames are Gram-Schmidt orthonormalizations of the chart basis,
  taken in chart-index order.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable

import numpy as np

from . import numdiff, taylor
from .errors import ChartDomainError, ConfigError, ShapeError, UnsupportedOrderError
from .expressions import Const, Expr, inverse_matrix, parse_expression
from .fields import TensorField, add, constant, contract, from_callable, from_expression, scale, sorted_entries, stack

# Safety margin (in chart units) kept away from open chart boundaries.
CHART_MARGIN = 0.1


@dataclass(frozen=True)
class CoordSpec:
    """One chart coordinate: name, open range, and periodicity."""

    name: str
    lower: float = -math.inf
    upper: float = math.inf
    periodic: bool = False


@dataclass(frozen=True)
class ManifoldModel:
    """A Riemannian manifold presented in a single chart.

    The metric is given by exactly one of ``metric_exprs``, a matrix of
    expressions in the coordinate names, and an opaque ``metric_fn`` of one
    point, whose connection and curvature take finite differences of it;
    ``metric_fn`` is set only for opaque models.  Either way the metric and its
    inverse are the ``g`` and ``g_inv`` nodes of ``_fields``, and the levels
    above them are computed from their jets alike.
    """

    name: str
    dim: int
    coords: tuple[CoordSpec, ...]
    metric_fn: Callable[[np.ndarray], np.ndarray] | None = None
    metric_exprs: tuple[tuple[Expr, ...], ...] | None = None
    flat: bool = False
    # ((shape, bytes) of the last point, (E, E^-1) there), read-only, replaced as one (see :func:`frame`)
    _frame: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.metric_fn is None) == (self.metric_exprs is None):
            raise ConfigError(f"manifold {self.name!r} needs exactly one of metric_fn and metric_exprs")

    @property
    def coordinate_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.coords)

    @cached_property
    def connection_free(self) -> bool:
        """Whether every Christoffel symbol vanishes identically: every partial of
        every metric expression is the constant 0 (an opaque metric never is)."""
        if self.metric_exprs is None:
            return False
        partials = [e.diff(name) for row in self.metric_exprs for e in row for name in self.coordinate_names]
        return all(isinstance(d, Const) and d.value == 0 for d in partials)

    @cached_property
    def _fields(self) -> dict[str, TensorField]:
        """The model's levels, keyed ``g``, ``g_inv``, ``gamma``, ``riemann`` and
        ``ricci``, each one tensor node, its component axes first, shared by all
        callers.  Only the ``g`` and ``g_inv`` jets depend on how the metric is
        given: the stacked fields of ``metric_exprs`` and of their closed-form
        inverse, with exact partials, or the entries, each read at its sorted
        index, of one finite-difference jet of ``metric_fn`` and its inverse at the
        same nodes, so finite differences act one level deep.  Each higher level's
        jet comes from the jets of the level below (:func:`_christoffel_from`,
        :func:`_riemann_from`, then the trace ``Ric_{sn} = R^m_{smn}`` in index order)."""
        dim = self.dim
        if self.metric_exprs is None:
            metric_fn = self.metric_fn

            def pair(x: np.ndarray) -> np.ndarray:  # g and g^-1 at one node
                g = np.asarray(metric_fn(x), dtype=float)
                return np.stack([g, np.linalg.inv(g)])

            source = from_callable(dim, pair)
            # each entry reads its sorted index, as inv(g) need not be symmetric to the last bit
            g, g_inv = (
                TensorField(dim, 2, lambda q, n, i=i: sorted_entries(source.jet(q, n)[i], dim, 2)) for i in (0, 1)
            )
        else:
            exprs = np.array(self.metric_exprs, dtype=object)
            to_field = np.frompyfunc(lambda e: from_expression(e, self.coordinate_names), 1, 1)
            g, g_inv = (stack(dim, 2, to_field(m)) for m in (exprs, inverse_matrix(exprs)))
        # g first: an opaque metric's jet through n + 1 then serves g^-1's through n
        gamma = TensorField(dim, 3, lambda q, n: _christoffel_from(g.jet(q, n + 1), g_inv.jet(q, n), dim, n))
        riemann = TensorField(dim, 4, lambda q, n: _riemann_from(gamma.jet(q, n + 1), dim, n))

        def ricci(q, n):
            R = riemann.jet(q, n)
            return reduce(np.add, [R[m, :, m] for m in range(dim)])

        return {"g": g, "g_inv": g_inv, "gamma": gamma, "riemann": riemann, "ricci": TensorField(dim, 2, ricci)}


# ---------------------------------------------------------------------------
# connection and curvature formulas on jets

# the levels' operation order: ``a - b`` is ``a + _MINUS * b``, and 1/2 a complex factor, as fields.scale takes one
_MINUS, _HALF = complex(-1.0), complex(0.5)


def _axes(jet: np.ndarray, *order: int) -> np.ndarray:
    """``jet`` with its leading component axes permuted to ``order``; any point axis and the jet's stay last."""
    return jet.transpose(order + tuple(range(len(order), jet.ndim)))


def _grad(jet: np.ndarray, rank: int, dim: int, order: int) -> np.ndarray:
    """The jet through ``order`` of each partial ``d_e`` of a rank-``rank`` field, from
    its jet through ``order + 1``: the new index ``e`` last among the component axes."""
    out = taylor.jet_shift(jet, dim, order, slice(None))  # [.., e, M], after the point axis of a point array
    return out if out.ndim == rank + 2 else out.swapaxes(-3, -2)


def _christoffel_from(g: np.ndarray, g_inv: np.ndarray, dim: int, order: int) -> np.ndarray:
    """The jet through ``order`` of ``Gamma^c_{ab} = 1/2 g^{cd} (d_a g_db + d_b g_da - d_d g_ab)``,
    indexed ``[c, a, b]``, from the metric's jet through ``order + 1`` and the
    inverse's through ``order``; the sum over ``d`` runs in index order."""
    dg = _grad(g, 2, dim, order)  # [a, b, c] = d_c g_ab
    lowered = _axes(dg, 0, 2, 1) + dg + _MINUS * _axes(dg, 2, 0, 1)  # [d, a, b]
    terms = [taylor.jet_product(g_inv[:, d, None, None], lowered[d][None], dim, order) for d in range(dim)]
    return _HALF * reduce(np.add, terms)


def _riemann_from(gamma: np.ndarray, dim: int, order: int) -> np.ndarray:
    """The jet through ``order`` of ``R^r_{s m n}``, indexed ``[r, s, m, n]``, from the
    connection's jet through ``order + 1``; each sum over ``l`` runs in index order."""
    dgamma = _grad(gamma, 3, dim, order)  # [c, a, b, d] = d_d Gamma^c_{ab}
    # [r, m, n, s] = Gamma^r_{ml} Gamma^l_{ns}; a jet through order + 1 holds the one through order as a prefix
    terms = [taylor.jet_product(gamma[:, :, l, None, None], gamma[l][None, None], dim, order) for l in range(dim)]
    gg = reduce(np.add, terms)
    return (
        _axes(dgamma, 0, 2, 3, 1) + _MINUS * _axes(dgamma, 0, 2, 1, 3)
        + _axes(gg, 0, 3, 1, 2) + _MINUS * _axes(gg, 0, 3, 2, 1)
    )


# ---------------------------------------------------------------------------
# chart domain handling


def check_point(model: ManifoldModel, q: np.ndarray) -> np.ndarray:
    """Validate a chart point, raising :class:`ChartDomainError` near edges.

    Periodic coordinates are never rejected; open boundaries are shrunk by
    :data:`CHART_MARGIN` so downstream finite differences cannot step outside.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (model.dim,):
        raise ChartDomainError("point", float(q.size), f"expected {model.dim} coordinates, got shape {q.shape}")
    for spec, value in zip(model.coords, q):
        if spec.periodic:
            continue
        lo = spec.lower if math.isinf(spec.lower) else spec.lower + CHART_MARGIN
        hi = spec.upper if math.isinf(spec.upper) else spec.upper - CHART_MARGIN
        if not (lo <= value <= hi):
            raise ChartDomainError(spec.name, float(value))
    return q


# ---------------------------------------------------------------------------
# metric-level quantities


def metric(model: ManifoldModel, q: np.ndarray) -> np.ndarray:
    """``g_ab`` at a chart point, or at each row of an ``(N, dim)`` point array:
    the ``g`` node's values, for an opaque model ``metric_fn``'s bit for bit."""
    return model._fields["g"].evaluate(q).real


def inverse_metric(model: ManifoldModel, q: np.ndarray) -> np.ndarray:
    return model._fields["g_inv"].evaluate(q).real


def inverse_metric_field(model: ManifoldModel) -> TensorField:
    """The inverse metric ``g^{ab}`` as a rank-2 tensor field, the model's own
    ``g_inv`` node: exact partials for expression metrics, and single
    finite-difference stencils of the inverse of an opaque ``metric_fn``."""
    return model._fields["g_inv"]


def riemann(model: ManifoldModel, q: np.ndarray) -> np.ndarray:
    """Curvature tensor ``R^r_{s m n}`` indexed ``[r, s, m, n]``."""
    if model.flat:
        return np.zeros((model.dim,) * 4)
    return model._fields["riemann"].evaluate(q).real


def ricci(model: ManifoldModel, q: np.ndarray) -> np.ndarray:
    """Ricci tensor ``Ric_{s n} = R^m_{s m n}``."""
    if model.flat:
        return np.zeros((model.dim,) * 2)
    return model._fields["ricci"].evaluate(q).real


def ricci_contraction(model: ManifoldModel, X: TensorField) -> TensorField:
    """``Ric_{ab} X^{ab J}`` as a rank ``X.rank - 2`` field, with partials as
    exact as the model's Ricci node (finite differences only at an opaque
    ``metric_fn``, one level deep)."""
    if model.flat:
        return constant(model.dim, np.zeros((model.dim,) * (X.rank - 2)))
    return contract(X, model._fields["ricci"])


def density_jet_fields(model: ManifoldModel, k: int, power: float) -> TensorField:
    """The rank-``k`` tensor field whose symmetrization is, at each ``q``, the ``k``-th jet
    (``k`` = 2, 3, 4) of the density power ``(sqrt g)**power`` in normal
    coordinates at ``q``, chart axes.  This is the one source of density
    jets: the image contracts it with coefficients (``power`` -1), and
    :func:`sqrt_g_jet` evaluates it at a point.  With ``p = power``, from
    the expansion of :func:`normal_metric_series`::

        k = 2:  -(p/3) Ric_ab
        k = 3:  -(p/2) nabla_c Ric_ab
        k = 4:  -p ((3/5) nabla_d nabla_c Ric_ab + (2/15) R^e_{afb} R^f_{ced}) + (p^2/3) Ric_ab Ric_cd
    """
    if not 2 <= k <= 4:
        raise UnsupportedOrderError(f"density jets are built for orders 2 to 4, got {k}")
    dim, riem, ric = model.dim, model._fields["riemann"], model._fields["ricci"]
    if k == 2:
        return scale(ric, -power / 3.0)
    # nabla^(k-2) Ric_ab, new indices last
    nabla_ric = TensorField(dim, k, lambda q, n: covariant_jets(model, riem, 1, q, n, k - 2)[-1].trace(0, 0, 2))
    if k == 3:
        return scale(nabla_ric, -power / 2.0)

    def quad(q, n):  # [a, b, c, d] = R^e_{afb} R^f_{ced}, the (e, f) terms added in index order
        R = riem.jet(q, n)
        factors = [(R[e, :, f, :, None, None], R[f, None, None, :, e]) for e, f in np.ndindex(dim, dim)]
        return reduce(np.add, [taylor.jet_product(a, b, dim, n) for a, b in factors])

    def ric_ric(q, n):  # [a, b, c, d] = Ric_ab Ric_cd
        jet = ric.jet(q, n)
        return taylor.jet_product(jet[:, :, None, None], jet[None, None], dim, n)

    quad_term, ric_ric_term = TensorField(dim, k, quad), TensorField(dim, k, ric_ric)
    terms = [(nabla_ric, -power * 0.6), (quad_term, -power * 2.0 / 15.0), (ric_ric_term, power * power / 3.0)]
    return add(*[scale(t, factor) for t, factor in terms])


def scalar_curvature(model: ManifoldModel, q: np.ndarray) -> float:
    return float(np.einsum("ab,ab->", inverse_metric(model, q), ricci(model, q)))


# ---------------------------------------------------------------------------
# normal frames and normal coordinates


def _gram_schmidt(g: np.ndarray) -> np.ndarray:
    """The orthonormal frame of the metric value ``g``: Gram-Schmidt over the
    chart basis vectors in chart-index order."""
    dim = len(g)
    E = np.zeros((dim, dim))
    for a in range(dim):
        w = np.zeros(dim)
        w[a] = 1.0
        for b in range(a):
            w = w - (E[:, b] @ g @ w) * E[:, b]
        norm = math.sqrt(w @ g @ w)
        E[:, a] = w / norm
    return E


def frame(model: ManifoldModel, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal frame ``E`` at ``q`` (:func:`normal_frame`) and its inverse,
    both read-only.  The model remembers the pair at its last point, keyed by
    shape and bytes, so every reader at one point shares one metric evaluation,
    one Gram-Schmidt and one inverse."""
    q = np.asarray(q, dtype=float)
    key, (last, pair) = (q.shape, q.tobytes()), model._frame
    if key != last:
        E = _gram_schmidt(metric(model, q))
        pair = (E, np.linalg.inv(E))
        for array in pair:
            array.flags.writeable = False
        object.__setattr__(model, "_frame", (key, pair))
    return pair


def normal_frame(model: ManifoldModel, q: np.ndarray) -> np.ndarray:
    """Orthonormal frame at ``q`` as a read-only matrix ``E`` with ``E[:, a] = e_a``.

    Gram-Schmidt over the chart basis vectors in chart-index order, so for
    diagonal metrics ``E`` is the diagonal rescaling ``1/sqrt(g_aa)``.
    Satisfies ``E^T g E = identity``.
    """
    return frame(model, q)[0]


def frame_components(arr: np.ndarray, basis: tuple[np.ndarray, np.ndarray], upper: int) -> np.ndarray:
    """Components of a tensor in the orthonormal frame ``basis = (E, E^-1)`` of
    :func:`frame`; the first ``upper`` axes are contravariant, the others covariant."""
    E, Einv = basis
    out = arr
    for axis in range(arr.ndim):
        order = (*range(1, axis + 1), 0, *range(axis + 1, arr.ndim))  # the new axis 0 back to ``axis``
        if axis < upper:
            out = np.tensordot(Einv, out, axes=([1], [axis])).transpose(order)
        else:
            out = np.tensordot(E, out, axes=([0], [axis])).transpose(order)
    return out


def _compose(jet: np.ndarray, r: np.ndarray, dim: int, order: int) -> np.ndarray:
    """The flat jet through ``order`` in ``xi`` of ``f(q + r(xi))``, from ``f``'s chart jet
    at ``q`` (component axes first) and the jet ``[i, M]`` of ``r``, ``r(0) = 0``: the sum
    of ``d^beta f(q) r^beta / beta!``, each power one Leibniz product over a lower one.
    Only ``f``'s partials through its jet's own order enter, so the result is exact
    through the lower of that order and ``order``."""
    indices = numdiff.multi_indices(dim, order)
    powers = [np.eye(1, len(indices))[0]]  # the jet of r^beta, per beta in index order
    total = jet[..., :1] * powers[0]
    for i, beta in enumerate(indices[1 : jet.shape[-1]], 1):
        axis = max(a for a in range(dim) if beta[a])
        lower = indices.index(beta[:axis] + (beta[axis] - 1,) + beta[axis + 1 :])
        powers.append(taylor.jet_product(powers[lower], r[axis], dim, order))
        total = total + jet[..., i : i + 1] / math.prod(map(math.factorial, beta)) * powers[i]
    return total


def exp_series(model: ManifoldModel, q: np.ndarray, order: int) -> np.ndarray:
    """The flat jet through ``order``, axes ``[i, M]``, of ``r(xi) = exp_q(E xi) - q`` in
    the frame components ``xi`` (``E`` the :func:`normal_frame`): the geodesics of the
    model's own connection as a power series, exact to rounding (Taylor mode; Brewin,
    arXiv:0903.2087).  With the Euler operator ``D = xi . d_xi``, the geodesic equation
    along rays reads ``(D^2 - D) r = -Gamma(q + r)(D r, D r)``; its degree-``k`` part
    gives ``k (k - 1) r_k`` from the degrees below ``k`` and Gamma's chart jets at ``q``
    through ``k - 2``, so it takes no integrator and works on every model.
    """
    q = np.asarray(q, dtype=float)
    dim = model.dim
    degree = np.array([sum(alpha) for alpha in numdiff.multi_indices(dim, order)])
    r = np.zeros((dim, len(degree)))
    r[:, 1 : dim + 1] = normal_frame(model, q)[:, : len(degree) - 1]  # the linear term E xi
    gamma = model._fields["gamma"].jet(q, max(order - 2, 0)).real
    for k in range(2, order + 1):
        n = np.count_nonzero(degree <= k)
        Dr = degree[:n] * r[:, :n]
        # Gamma(q + r) is exact through degree k - 2, all of it that meets (D r, D r) on degree k
        G = _compose(gamma[..., : np.count_nonzero(degree <= k - 2)], r[:, :n], dim, k)
        pairs = taylor.jet_product(Dr[:, None], Dr[None, :], dim, k)
        rhs = reduce(np.add, [taylor.jet_product(G[:, a, b], pairs[a, b], dim, k) for a, b in np.ndindex(dim, dim)])
        r[:, degree == k] = -rhs[:, degree[:n] == k] / (k * (k - 1))
    return r


def _frame_riemann(model: ManifoldModel, q: np.ndarray, count: int) -> list[np.ndarray]:
    """Frame components of ``R``, ``nabla R`` and ``nabla nabla R`` at ``q``
    (the first ``count`` of them), axes ``[r, s, m, n]`` then derivative axes."""
    basis = frame(model, q)
    levels = covariant_jets(model, model._fields["riemann"], 1, q, 0, count - 1)
    return [frame_components(level[..., 0].real, basis, 1) for level in levels]


def normal_metric_series(model: ManifoldModel, q: np.ndarray, order: int) -> taylor.Series:
    """Taylor series of the metric in normal coordinates at ``q``, frame axes:
    the Riemann-normal-coordinate expansion through fourth order (Mueller,
    Schubert and van de Ven, gr-qc/9712092; Brewin, arXiv:0903.2087)::

        g_ab = delta_ab - (1/3) R_acbd x^c x^d - (1/6) nabla_e R_acbd x^c x^d x^e
               + (-(1/20) nabla_f nabla_e R_acbd + (2/45) R_acgd R_begf) x^c x^d x^e x^f

    with the curvature from the model's Riemann node; the identity on flat models.
    """
    dim = model.dim
    if model.flat:
        return taylor.constant(dim, order, np.eye(dim))
    if order > 4:
        raise UnsupportedOrderError("the normal-coordinate metric expansion stops at order 4")
    curvature = _frame_riemann(model, q, order - 1)
    terms = [np.eye(dim), np.zeros((dim,) * 3)]
    terms += [-np.swapaxes(R, 1, 2) / divisor for R, divisor in zip(curvature, (3.0, 6.0, 20.0))]
    if order >= 4:
        R = curvature[0]
        terms[4] = terms[4] + (2.0 / 45.0) * np.einsum("acgd,begf->abcdef", R, R)
    coeffs = [math.factorial(k) * numdiff.symmetrize(t, axes=range(2, 2 + k)) for k, t in enumerate(terms)]
    return taylor.from_jets(dim, coeffs[: order + 1])


def normal_christoffel_jets(model: ManifoldModel, q: np.ndarray, order: int) -> list[np.ndarray]:
    """Jets of the connection ``Gamma~^c_{ab}`` in normal coordinates at ``q``.

    Frame axes ``[c, a, b]`` then derivative axes.  The value vanishes, the
    first jet is ``-(R~^c_{abd} + R~^c_{bad}) / 3``, and higher jets (through
    order 3) come from :func:`normal_metric_series` through
    ``Gamma = (1/2) g^{-1} (d g + d g - d g)``.
    """
    dim = model.dim
    R = _frame_riemann(model, q, 1)[0]
    jets = [np.zeros((dim,) * 3), -(R + np.swapaxes(R, 1, 2)) / 3.0][: order + 1]
    if order < 2:
        return jets
    G = normal_metric_series(model, q, order + 1)
    # g^{-1} = 1 + sum_n (-A)^n over the powers of A = G - 1 that survive
    # truncation (A starts at order 2)
    A = taylor.add(G, taylor.constant(dim, G.order, -np.eye(dim)))
    power, total = A, taylor.scale(A, -1.0)
    for n in range(2, G.order // 2 + 1):
        power = taylor.matmul(power, A)
        total = taylor.add(total, taylor.scale(power, (-1.0) ** n))
    g_inv = taylor.add(taylor.constant(dim, G.order, np.eye(dim)), total)
    # [d, a, b] = Gamma_{dab} from [a, b, e] = d_e g_ab
    c = taylor.gradient(G, 2).jet
    lower = taylor.Series(dim, order, 0.5 * (c.swapaxes(1, 2) + c - np.moveaxis(c, 2, 0)))
    return jets + numdiff.expand(taylor.matmul(g_inv, lower).jet, dim, order)[2:]


def ricci_in_frame(model: ManifoldModel, q: np.ndarray) -> np.ndarray:
    """Ricci tensor contracted into the orthonormal normal frame."""
    return frame_components(ricci(model, q), frame(model, q), 0)


def sqrt_g_jet(
    model: ManifoldModel,
    q: np.ndarray,
    max_order: int = 2,
    method: str = "curvature",
    power: float = 1.0,
) -> list[np.ndarray]:
    """Jets at 0 of a power ``(sqrt(det g))**power`` of the normal-coordinate
    volume density, derivative axes in the orthonormal frame.

    The pairing uses ``power`` 1 and -1/2, the image's jet corrections -1.
    ``method``:

    * ``"curvature"`` - value 1, vanishing gradient, and each higher jet the
      symmetrized frame components of :func:`density_jet_fields` at ``q``, the
      same node the image contracts.  On flat models every jet beyond the
      value vanishes, at any order.
    * ``"numeric"`` - the density ``sqrt(det(J^T g(q + r) J))**power`` of the metric
      pulled back along :func:`exp_series`, ``J = d(q + r)/d xi``, as a
      composition of series: the reference that checks compare the curvature
      form with, computed from the connection's geodesics, not from curvature.
    """
    q = np.asarray(q, dtype=float)
    dim = model.dim
    if method not in ("numeric", "curvature"):
        raise ConfigError(f"unknown jet method {method!r}")
    if method == "numeric":
        n = len(numdiff.multi_indices(dim, max_order))
        one = np.eye(1, n)[0]  # the jet of the constant 1
        r = exp_series(model, q, max_order + 1)
        J = taylor.Series(dim, max_order, taylor.jet_shift(r, dim, max_order, slice(None)))  # [i, a] = d_a r_i
        g = taylor.Series(dim, max_order, _compose(model._fields["g"].jet(q, max_order).real, r[:, :n], dim, max_order))
        G = taylor.matmul(taylor.matmul(taylor.Series(dim, max_order, J.jet.swapaxes(0, 1)), g), J).jet

        def product(a, b):
            return taylor.jet_product(a, b, dim, max_order)

        det = 0.0  # the permutation sum of det(J^T g(q + r) J)
        for perm in itertools.permutations(range(dim)):
            sign = (-1) ** sum(perm[i] > perm[j] for i, j in itertools.combinations(range(dim), 2))
            det = det + sign * reduce(product, [G[a, perm[a]] for a in range(dim)])
        # det**(power/2) = det(0)**(power/2) (1 + u)**(power/2), the binomial series of u = det/det(0) - 1
        u = det / det[0] - one
        term = total = one
        for k in range(1, max_order + 1):
            term = product(term, u) * (power / 2.0 - k + 1) / k
            total = total + term
        return numdiff.expand(det[0] ** (power / 2.0) * total, dim, max_order)
    if model.flat:
        return [np.ones(()) if k == 0 else np.zeros((dim,) * k) for k in range(max_order + 1)]
    basis, jets = frame(model, q), [np.ones(()), np.zeros((dim,))]
    for k in range(2, max_order + 1):
        values = density_jet_fields(model, k, power).evaluate(q).real
        jets.append(numdiff.symmetrize(frame_components(values, basis, 0)))
    return jets[: max_order + 1]


# ---------------------------------------------------------------------------
# covariant derivatives and normal-coordinate pullbacks


def _nabla(T: np.ndarray, rank: int, upper: int, gamma: np.ndarray | None, dim: int, order: int) -> np.ndarray:
    """The jet through ``order`` of nabla T, new index ``e`` last among the
    ``rank`` component axes, from T's jet through ``order + 1`` (``upper``
    contravariant axes first) and the connection's (``None``: no connection).

    The only code that builds connection terms: the partial along ``e``, then
    per dummy index ``g`` and slot ``+ Gamma^r_{e g} T^{..g..}`` or
    ``- Gamma^g_{e r} T_{..g..}``, an order that fixes the sum's rounding.
    """
    out = _grad(T, rank, dim, order)
    if gamma is None:
        return out
    for g in range(dim):
        for i in range(rank):
            slot = T[(slice(None),) * i + (None, g) + (slice(None),) * (rank - 1 - i) + (None,)]  # T^{..g..}
            G = gamma[:, :, g] if i < upper else gamma[g].swapaxes(0, 1)  # [r, e] + jet axes
            G = G.reshape((1,) * i + (dim,) + (1,) * (rank - 1 - i) + G.shape[1:])
            term = taylor.jet_product(G, slot, dim, order)
            out = out + term if i < upper else out - term
    return out


def covariant_jets(
    model: ManifoldModel, tensor: TensorField, upper: int, q: np.ndarray, order: int, n: int
) -> list[np.ndarray]:
    """Flat jets through ``order`` of ``T, nabla T, ..., nabla^n T`` at a point or point
    array ``q``, for a tensor field (a coefficient or a level of the model) with ``upper``
    contravariant axes first; entry ``k`` adds the new covariant indices last among its
    component axes (unsymmetrized), before any point axis and the multi-index axis (value first)."""
    top = order + n
    gamma = None if model.connection_free or n == 0 else model._fields["gamma"].jet(q, top - 1)
    levels = [tensor.jet(q, top)]
    for k in range(1, n + 1):
        levels.append(_nabla(levels[-1], tensor.rank + k - 1, upper, gamma, model.dim, top - k))
    return levels


def sym_cov_deriv(model: ManifoldModel, psi: TensorField, q: np.ndarray, order: int) -> np.ndarray:
    """Symmetrized ``order``-th covariant derivative of a scalar at ``q``.

    Chart (lower) indices.  Order 0 returns the value itself.
    """
    vals = covariant_jets(model, psi, 0, q, 0, order)[order][..., 0]
    if order == 0:
        return vals
    if np.allclose(vals.imag, 0.0):
        vals = vals.real
    return numdiff.symmetrize(vals)


def sym_cov_deriv_in_frame(
    model: ManifoldModel, psi: TensorField, q: np.ndarray, order: int
) -> np.ndarray:
    """Symmetrized covariant derivative contracted with the normal frame."""
    return frame_components(sym_cov_deriv(model, psi, q, order), frame(model, q), 0)


def covariant_divergence(model: ManifoldModel, tensor: TensorField) -> TensorField:
    """Covariant divergence of a symmetric contravariant tensor field.

    ``(nabla . X)^{J} = nabla_b X^{bJ}``: the trace of the first slot of the
    covariant derivative with its new index, each ``J`` read at its sorted
    index.  Returns a rank ``tensor.rank - 1`` tensor field.
    """
    if tensor.rank == 0:
        raise ShapeError("cannot take the divergence of a rank-0 tensor")
    rank = tensor.rank

    def jet(q, n):  # trace the first slot with the new index; connection terms come in slot order
        out = covariant_jets(model, tensor, rank, q, n, 1)[1].trace(0, 0, rank)
        return out if model.connection_free else sorted_entries(out, model.dim, rank - 1)

    return TensorField(model.dim, rank - 1, jet)


def pullback_jet(
    model: ManifoldModel,
    psi: TensorField,
    q: np.ndarray,
    max_order: int,
) -> list[np.ndarray]:
    """Jets of ``psi`` composed with normal coordinates, ``psi(q + r(xi))`` for the
    :func:`exp_series` ``r``: ``psi``'s chart jet at ``q`` composed with ``r``.

    For scalars these agree with :func:`sym_cov_deriv_in_frame` order by order.
    """
    q = np.asarray(q, dtype=float)
    pulled = _compose(psi.jet(q, max_order), exp_series(model, q, max_order), model.dim, max_order)
    return numdiff.expand(pulled, model.dim, max_order)


# ---------------------------------------------------------------------------
# built-in models


def _metric_exprs(names: tuple[str, ...], rows: list[list[str]]) -> tuple[tuple[Expr, ...], ...]:
    return tuple(tuple(parse_expression(entry, names) for entry in row) for row in rows)


def euclidean_space(dim: int) -> ManifoldModel:
    if not 1 <= dim <= 3:
        raise ConfigError(f"euclidean model supports dimensions 1-3, got {dim}")
    names = ("x", "y", "z")[:dim]
    return ManifoldModel(
        name=f"euclidean:{dim}",
        dim=dim,
        coords=tuple(CoordSpec(name) for name in names),
        metric_exprs=_metric_exprs(names, [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]),
        flat=True,
    )


def circle() -> ManifoldModel:
    return ManifoldModel(
        name="circle",
        dim=1,
        coords=(CoordSpec("theta", -math.pi, math.pi, periodic=True),),
        metric_exprs=_metric_exprs(("theta",), [["1"]]),
        flat=True,
    )


def sphere(radius: float = 1.0) -> ManifoldModel:
    a = float(radius)
    if not (a > 0 and 0 < a * a < math.inf):  # also rejects nan
        raise ConfigError(f"sphere radius must be positive with a finite nonzero square, got {radius}")
    # The kinetic image differentiates 1/(a^2 sin^2 theta) twice, and each
    # quotient-rule derivative squares its denominator, so its expressions
    # hold a^8: the fourth powers of the curvature 1/a^2 and of a^2 must be
    # normal floats, which keeps a within about [3.5e-39, 2.9e38].
    try:
        normal = all(sys.float_info.min <= x**4 < math.inf for x in (a * a, 1.0 / (a * a)))
    except OverflowError:
        normal = False
    if not normal:
        raise ConfigError(
            f"sphere radius {radius} is out of range: the fourth powers of the curvature 1/a^2 "
            "and of a^2 must be normal floats"
        )
    a2 = repr(a * a)

    return ManifoldModel(
        name=f"sphere:{a:g}",
        dim=2,
        coords=(
            CoordSpec("theta", 0.0, math.pi),
            CoordSpec("phi", -math.pi, math.pi, periodic=True),
        ),
        metric_exprs=_metric_exprs(("theta", "phi"), [[a2, "0"], ["0", f"{a2}*sin(theta)**2"]]),
        flat=False,
    )


def polar_plane() -> ManifoldModel:
    return ManifoldModel(
        name="polar-plane",
        dim=2,
        coords=(
            CoordSpec("r", 0.0, math.inf),
            CoordSpec("phi", -math.pi, math.pi, periodic=True),
        ),
        metric_exprs=_metric_exprs(("r", "phi"), [["1", "0"], ["0", "r*r"]]),
        flat=True,
    )


def manifold(name: str) -> ManifoldModel:
    """Build a built-in manifold from its config string.

    Recognized: ``euclidean:<dim>``, ``circle``, ``sphere:<radius>``,
    ``polar-plane``.
    """
    key, _, arg = name.partition(":")
    key = key.strip().lower()
    if key == "euclidean":
        if not arg:
            raise ConfigError("euclidean model needs a dimension, e.g. 'euclidean:2'")
        try:
            dim = int(arg)
        except ValueError as exc:
            raise ConfigError(f"invalid euclidean dimension {arg!r}") from exc
        return euclidean_space(dim)
    if key in ("circle", "polar-plane"):
        if arg:
            raise ConfigError(f"{key} takes no parameter")
        return circle() if key == "circle" else polar_plane()
    if key == "sphere":
        try:
            radius = float(arg) if arg else 1.0
        except ValueError as exc:
            raise ConfigError(f"invalid sphere radius {arg!r}") from exc
        return sphere(radius)
    raise ConfigError(
        f"unknown manifold {name!r}; expected euclidean:<dim>, circle, sphere:<radius>, or polar-plane"
    )
