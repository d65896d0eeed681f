"""Momentum-polynomial symbols, covariant operators, ordering schemes.

The objects here are the two sides of the quantization maps: polynomial
functions on phase space with point-dependent symmetric coefficient tensors,
and differential operators given by symmetric contravariant coefficients
contracting iterated covariant derivatives.  Ordering schemes act on symbols
through the point-transformation derivation ``delta_apply``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import geometry, numdiff
from .errors import ConfigError, QuadratureAccuracyError, UnsupportedOrderError
from .fields import TensorField, add, constant, from_expression, scale, tensor_from_fields
from .geometry import ManifoldModel

#: Highest momentum degree / operator order supported by the package.
MAX_DEGREE = 4


def _check_terms(dim: int, terms: dict[int, TensorField], kind: str) -> dict[int, TensorField]:
    clean: dict[int, TensorField] = {}
    for degree, tensor in terms.items():
        if not isinstance(degree, int) or degree < 0:
            raise ConfigError(f"{kind} degrees must be non-negative integers, got {degree!r}")
        if degree > MAX_DEGREE:
            raise UnsupportedOrderError(
                f"{kind} of degree {degree} exceeds the supported maximum {MAX_DEGREE}"
            )
        if tensor.rank != degree:
            raise ConfigError(
                f"{kind} coefficient at degree {degree} has tensor rank {tensor.rank}"
            )
        if tensor.dim != dim:
            raise ConfigError(f"{kind} coefficient dimension mismatch at degree {degree}")
        clean[degree] = tensor
    return clean


def _contract_full(vals: np.ndarray, p: np.ndarray, m: int) -> complex | np.ndarray:
    """``X^{a1..am} p_{a1} .. p_{am}`` on a stack (``vals`` of shape ``(N,) +
    (dim,)*m``, ``p`` of shape ``(N, dim)``), one axis at a time, each row by a
    matrix-vector product; a point goes through as a one-row stack."""
    dim = p.shape[-1]
    out = np.asarray(vals, dtype=complex).reshape((-1,) + (dim,) * m)
    column = p.astype(complex).reshape(-1, dim, 1)
    for _ in range(m):
        rows = np.moveaxis(out, 1, -1).reshape(len(out), -1, dim)
        out = np.matmul(rows, column).reshape(out.shape[:1] + out.shape[2:])
    return complex(out[0]) if p.ndim == 1 else out


class MomentumPolynomial:
    """A polynomial in momentum with symmetric tensor coefficient fields.

    ``terms[m]`` is a rank-``m`` symmetric contravariant tensor field; the
    symbol value is ``sum_m X_m^{a1..am}(q) p_{a1} .. p_{am}``.  At most one
    term per degree; degrees run from 0 to :data:`MAX_DEGREE`.
    """

    __slots__ = ("dim", "terms", "_image")

    def __init__(self, dim: int, terms: dict[int, TensorField]):
        self.dim = dim
        self.terms = _check_terms(dim, terms, "symbol")
        self._image: tuple = (None, None, None, None)  # (model, hbar, measure, Weyl image) of curved.axiom_defect

    def evaluate(self, p: np.ndarray, q: np.ndarray) -> complex | np.ndarray:
        """The value at one phase-space point, or at each row of ``(N, dim)``
        momentum and position arrays."""
        p = np.atleast_1d(np.asarray(p, dtype=float))
        q = np.asarray(q, dtype=float)
        total = 0.0 + 0.0j
        for m, tensor in self.terms.items():
            total += _contract_full(tensor.evaluate(q), p, m)
        return total


class CovariantOperator:
    """A differential operator ``sum_k c_k^{a1..ak} nabla_(a1..ak)``.

    ``terms[k]`` is a rank-``k`` symmetric contravariant coefficient tensor
    field; the operator acts on scalars through symmetrized iterated
    covariant derivatives.
    """

    __slots__ = ("dim", "terms", "_pairing", "__weakref__")

    def __init__(self, dim: int, terms: dict[int, TensorField]):
        self.dim = dim
        self.terms = _check_terms(dim, terms, "operator")
        self._pairing: tuple = (None, None, None)  # (model, (shape, bytes) of q, read-only part) of curved._pairing_data

    @property
    def max_order(self) -> int:
        return max(self.terms, default=0)


def merge_terms(dim: int, *sources: dict[int, TensorField]) -> dict[int, TensorField]:
    """Add term dictionaries degree by degree: each degree, in order of first
    appearance, is one :func:`fields.add` of its tensors in source order, which
    sums left to right as nested pairwise sums would."""
    buckets: dict[int, list[TensorField]] = {}
    for terms in sources:
        for degree, tensor in terms.items():
            buckets.setdefault(degree, []).append(tensor)
    return {d: (ts[0] if len(ts) == 1 else add(*ts)) for d, ts in buckets.items()}


#: Least nodes of the coarse quadrature in :func:`operator_matrix` (a basis may ask for more); the fine one doubles them.
QUADRATURE_NODES = 192
#: Largest coarse/fine entry difference :func:`operator_matrix` accepts.
QUADRATURE_TOLERANCE = 1e-8


def operator_matrix(model: ManifoldModel, D: CovariantOperator, basis, K: int) -> np.ndarray:
    """Matrix elements ``M[j, k] = <phi_j | D phi_k>`` in an orthonormal basis.

    The basis gives the quadrature rule and takes the Galerkin sum
    (``basis.galerkin``) from the coefficient values of every order and the
    weights times ``sqrt(g)`` at its nodes.  The integral is repeated at
    doubled resolution and must agree to :data:`QUADRATURE_TOLERANCE`,
    otherwise (a NaN entry included) :class:`QuadratureAccuracyError` is raised.
    Each coefficient of ``D`` (and ``sqrt(g)`` on a model with a connection) is
    evaluated once, on the coarse rule's nodes followed by the fine rule's, and
    each Galerkin sum takes a contiguous copy of its own rule's slice: a point
    array gives every point's single-point value bit for bit, and the rules
    need not nest (Gauss-Legendre rules do not).
    Bases take partial derivatives, which are covariant ones on a connection-free
    model, and up to order one on any model; a model with a connection raises
    :class:`UnsupportedOrderError` for operators of higher order.
    """
    order = D.max_order
    if order > 1 and not model.connection_free:
        raise UnsupportedOrderError(
            f"operator matrices on {model.name!r}, which has a connection, take operators of order <= 1, "
            f"got order {order}"
        )

    nodes = max(QUADRATURE_NODES, basis.resolving_nodes(K))
    rules = [basis.quadrature(n, K) for n in (nodes, 2 * nodes)]
    points = np.concatenate([rule_points for rule_points, _ in rules])
    split = len(rules[0][0])
    # a constant metric has one determinant, broadcast over the nodes
    det = np.linalg.det(geometry.metric(model, points[:1] if model.connection_free else points))
    vol = np.broadcast_to(np.sqrt(det), len(points))
    coefficients = np.zeros((order + 1, len(points)), dtype=complex)
    for r, tensor in D.terms.items():
        coefficients[r] = tensor.evaluate(points)[(slice(None),) + (0,) * r]
    coarse, fine = (
        basis.galerkin(rule_points, np.ascontiguousarray(coefficients[:, part]), weights * vol[part], K)
        for part, (rule_points, weights) in zip((slice(None, split), slice(split, None)), rules)
    )
    err = float(np.max(np.abs(fine - coarse)))
    if not err <= QUADRATURE_TOLERANCE:  # a NaN difference fails too
        raise QuadratureAccuracyError(err, QUADRATURE_TOLERANCE)
    return fine


def hermiticity_defect(matrix: np.ndarray) -> float:
    matrix = np.asarray(matrix)
    return float(np.max(np.abs(matrix - matrix.conj().T)))


@dataclass(frozen=True)
class OrderingScheme:
    """A formal power series ``A(Delta) = 1 + sum_k A_k Delta^k``.

    ``coefficients`` stores ``(A_0, A_1, ...)`` with ``A_0 = 1``.  The scheme
    is hermitian exactly when every coefficient is real.
    """

    coefficients: tuple[complex, ...]
    name: str = "custom"

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if not coeffs or coeffs[0] != 1:
            raise ConfigError("ordering coefficients must start with A_0 = 1")
        object.__setattr__(self, "coefficients", coeffs)

    def inverse(self) -> "OrderingScheme":
        """The formal inverse series ``B`` with ``B(Delta) A(Delta) = 1``,
        through ``Delta^MAX_DEGREE`` at least, however short ``A`` is."""
        a = self.coefficients + (0j,) * (MAX_DEGREE + 1 - len(self.coefficients))
        b = [1.0 + 0j]
        for k in range(1, len(a)):
            b.append(-sum(a[j] * b[k - j] for j in range(1, k + 1)))
        return OrderingScheme(tuple(b), name=f"{self.name}-inverse")


def ordering_scheme(name: str) -> OrderingScheme:
    """Named ordering presets.

    ``weyl`` is the identity series.  ``standard`` produces operators with all
    derivatives to the right of the coefficients.
    """
    coeffs: list[complex]
    if name == "weyl":
        coeffs = [1.0 + 0j] + [0j] * MAX_DEGREE
    elif name == "standard":
        coeffs = [(-0.5j) ** k / math.factorial(k) for k in range(MAX_DEGREE + 1)]
    else:
        raise ConfigError(f"unknown ordering scheme {name!r}")
    return OrderingScheme(tuple(coeffs), name=name)


def delta_apply(model: ManifoldModel, f: MomentumPolynomial, hbar: float = 1.0) -> MomentumPolynomial:
    """One application of the ordering derivation.

    Acting on a degree-``m`` term with coefficient ``X`` it produces the
    degree ``m - 1`` term ``-hbar * m * (nabla . X)``; constants are
    annihilated.
    """
    out = {
        m - 1: scale(geometry.covariant_divergence(model, tensor), -hbar * m)
        for m, tensor in f.terms.items()
        if m
    }
    return MomentumPolynomial(f.dim, out)


def flat_chart_delta_value(
    f: MomentumPolynomial,
    to_cartesian,
    from_cartesian,
    p: np.ndarray,
    q: np.ndarray,
    hbar: float = 1.0,
) -> complex | np.ndarray:
    """Evaluate the ordering generator of ``f`` through a Cartesian chart.

    For a flat metric written in a curvilinear chart, the generator applied
    by :func:`delta_apply` can be cross-checked chart-independently: push the
    symbol to a Cartesian chart, where the connection vanishes and the
    generator is the plain mixed derivative ``-hbar d^2/(dp_i dx^i)``, and
    read the value back at the matching phase-space point.  ``to_cartesian``
    and ``from_cartesian`` map ``(N, dim)`` arrays of points both ways (lift
    maps of one point with :func:`numdiff.pointwise`); momenta transform with
    the Jacobian of ``to_cartesian``.

    ``p`` and ``q`` are one phase-space point, shape ``(dim,)`` each, which
    gives one complex value, or a stack of ``M`` points, shape ``(M, dim)``
    each, which gives the ``M`` values, each bit for bit its point's alone.
    A stack takes one Jacobian of all its points, one batched solve for their
    Cartesian momenta, and one :func:`numdiff.partials` call, which evaluates
    the symbol once, on the stencil nodes of every point and every one of the
    ``dim`` mixed partials together.
    """
    q = np.asarray(q, dtype=float)
    qs = np.atleast_2d(q)
    ps = np.asarray(p, dtype=float).reshape(qs.shape)
    dim = qs.shape[1]

    def jacobian(qq: np.ndarray) -> np.ndarray:
        return numdiff.jacobian(to_cartesian, qq, step=numdiff.DEFAULT_STEP)

    def symbol_in_cartesian(z: np.ndarray) -> np.ndarray:  # (N, 2 dim) phase-space nodes
        pc, xc = z[:, :dim], z[:, dim:]
        qq = np.asarray(from_cartesian(xc), dtype=float)
        return f.evaluate(np.matmul(jacobian(qq).transpose(0, 2, 1), pc[:, :, None])[:, :, 0], qq)

    x_c = np.asarray(to_cartesian(qs), dtype=float)
    p_c = np.linalg.solve(jacobian(qs).transpose(0, 2, 1), ps[..., None])[..., 0]
    z0 = np.concatenate([p_c, x_c], axis=1)
    mixed = [tuple(int(i in (alpha, dim + alpha)) for i in range(2 * dim)) for alpha in range(dim)]
    total = 0.0 + 0.0j
    for value in numdiff.partials(symbol_in_cartesian, z0, mixed):
        total = total + value
    values = -hbar * total
    return complex(values[0]) if q.ndim == 1 else values


def ordering_transform(
    model: ManifoldModel,
    A: OrderingScheme,
    f: MomentumPolynomial,
    hbar: float = 1.0,
) -> MomentumPolynomial:
    """Apply ``A(Delta)`` to a symbol: ``f + sum_k A_k Delta^k f``, taking
    ``Delta`` no further than the last nonzero ``A_k``."""
    sources = [f.terms]
    acc = f
    last = max(k for k, ak in enumerate(A.coefficients) if ak != 0)
    for k in range(1, last + 1):
        acc = delta_apply(model, acc, hbar)
        if not acc.terms:
            break
        ak = A.coefficients[k]
        if ak != 0:
            sources.append({d: scale(t, ak) for d, t in acc.terms.items()})
    return MomentumPolynomial(f.dim, merge_terms(f.dim, *sources))


# ---------------------------------------------------------------------------
# config-driven symbol construction


def symbol_from_config(model: ManifoldModel, cfg) -> MomentumPolynomial:
    """Build a symbol from a config entry.

    Accepts either a shorthand string (the coefficient name) or a mapping
    with keys ``coefficient`` (one of ``constant``, ``cos-theta``,
    ``inverse-metric``, or ``custom:<expression>``), ``degree`` and ``scale``.
    Unknown keys are rejected.
    """
    if isinstance(cfg, str):
        cfg = {"coefficient": cfg}
    if not isinstance(cfg, dict):
        raise ConfigError(f"symbol config must be a string or mapping, got {type(cfg).__name__}")
    allowed = {"coefficient", "degree", "scale"}
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown symbol config keys: {sorted(unknown)}")
    coefficient = cfg.get("coefficient", "constant")
    if not isinstance(coefficient, str):
        raise ConfigError(f"symbol coefficient must be a string, got {coefficient!r}")
    degree = cfg.get("degree", 1)
    scale_value = cfg.get("scale", 1.0)
    real = isinstance(scale_value, (int, float)) and not isinstance(scale_value, bool)
    if not (real and abs(scale_value) <= sys.float_info.max):  # exact for huge integers; nan fails it
        raise ConfigError(f"symbol scale must be a finite real number, got {scale_value!r}")
    scale_value = complex(scale_value)
    if not isinstance(degree, int) or not 0 <= degree <= MAX_DEGREE:
        raise ConfigError(f"symbol degree must be an integer in 0..{MAX_DEGREE}")

    dim = model.dim
    if coefficient == "cos-theta":
        if "theta" not in model.coordinate_names:
            raise ConfigError("cos-theta symbols need a coordinate named theta")
        coefficient = "custom:cos(theta)"
    if coefficient == "constant":
        tensor = constant(dim, np.full((dim,) * degree, scale_value))
    elif coefficient == "inverse-metric":
        if degree != 2:
            raise ConfigError("inverse-metric symbols must have degree 2")
        tensor = geometry.inverse_metric_field(model)
        if scale_value != 1:
            tensor = scale(tensor, scale_value)
    elif coefficient.startswith("custom:"):
        expr = coefficient[len("custom:") :]
        base = from_expression(expr, model.coordinate_names)
        shared = scale(base, scale_value) if scale_value != 1 else base
        tensor = tensor_from_fields(dim, degree, lambda idx: shared)
    else:
        raise ConfigError(f"unknown symbol coefficient {coefficient!r}")
    return MomentumPolynomial(dim, {degree: tensor})
