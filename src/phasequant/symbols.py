"""Momentum-polynomial symbols, covariant operators, ordering schemes.

The objects here are the two sides of the quantization maps: polynomial
functions on phase space with point-dependent symmetric coefficient tensors,
and differential operators given by symmetric contravariant coefficients
contracting iterated covariant derivatives.  Ordering schemes act on symbols
through the point-transformation derivation ``delta_apply``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, numdiff
from .errors import ConfigError, QuadratureAccuracyError, UnsupportedOrderError
from .fields import (
    TensorField,
    from_expression,
    scale,
    tensor_add,
    tensor_constant,
    tensor_from_fields,
    tensor_scalar,
    tensor_scale,
)
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


def _contract_full(vals: np.ndarray, p: np.ndarray, m: int) -> complex:
    out = np.asarray(vals, dtype=complex)
    for _ in range(m):
        out = np.tensordot(out, p, axes=([0], [0]))
    return complex(out)


class MomentumPolynomial:
    """A polynomial in momentum with symmetric tensor coefficient fields.

    ``terms[m]`` is a rank-``m`` symmetric contravariant tensor field; the
    symbol value is ``sum_m X_m^{a1..am}(q) p_{a1} .. p_{am}``.  At most one
    term per degree; degrees run from 0 to :data:`MAX_DEGREE`.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict[int, TensorField]):
        self.dim = dim
        self.terms = _check_terms(dim, terms, "symbol")

    @property
    def max_degree(self) -> int:
        return max(self.terms, default=0)

    def evaluate(self, p: np.ndarray, q: np.ndarray) -> complex:
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

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict[int, TensorField]):
        self.dim = dim
        self.terms = _check_terms(dim, terms, "operator")

    @property
    def max_order(self) -> int:
        return max(self.terms, default=0)


def merge_terms(dim: int, *sources: dict[int, TensorField]) -> dict[int, TensorField]:
    """Add term dictionaries degree by degree."""
    buckets: dict[int, list[TensorField]] = {}
    for terms in sources:
        for degree, tensor in terms.items():
            buckets.setdefault(degree, []).append(tensor)
    return {d: (ts[0] if len(ts) == 1 else tensor_add(*ts)) for d, ts in buckets.items()}


#: Nodes of the coarse quadrature in :func:`operator_matrix`; the fine one doubles them.
QUADRATURE_NODES = 192
#: Largest coarse/fine entry difference :func:`operator_matrix` accepts.
QUADRATURE_TOLERANCE = 1e-8


def operator_matrix(model: ManifoldModel, D: CovariantOperator, basis, K: int) -> np.ndarray:
    """Matrix elements ``M[j, k] = <phi_j | D phi_k>`` in an orthonormal basis.

    The quadrature rule comes from the basis object; the integral is repeated
    at doubled resolution and must agree to :data:`QUADRATURE_TOLERANCE`,
    otherwise :class:`QuadratureAccuracyError` is raised.  Every field is
    evaluated once per quadrature grid, on the whole point array.
    """
    fns = basis.fields(K)
    levels = [
        geometry.iterated_covariant_derivative_fields(model, f, D.max_order) for f in fns
    ]

    def assemble(nodes: int) -> np.ndarray:
        points, weights = basis.quadrature(nodes)
        if model.connection_free:  # a constant metric has one density value
            vol = np.full(len(points), geometry.sqrt_g(model, points[0]))
        else:
            vol = np.array([geometry.sqrt_g(model, x) for x in points])
        values: dict[int, np.ndarray] = {}  # symmetric slots share one field

        def on_grid(field) -> np.ndarray:
            if id(field) not in values:
                values[id(field)] = field(points)
            return values[id(field)]

        phi = np.array([on_grid(f) for f in fns])
        # Contract each coefficient component against the per-basis
        # derivative values instead of assembling the image field per entry.
        dphi = np.zeros((len(fns), len(points)), dtype=complex)
        for order, tensor in D.terms.items():
            for idx in itertools.product(range(model.dim), repeat=order):
                key = idx if order else ()
                cvals = on_grid(tensor.comps[key])
                for row, level in enumerate(levels):
                    dphi[row] += cvals * on_grid(level[order][key])
        return np.einsum("i,ji,ki->jk", weights * vol, phi.conj(), dphi)

    coarse = assemble(QUADRATURE_NODES)
    fine = assemble(2 * QUADRATURE_NODES)
    err = float(np.max(np.abs(fine - coarse)))
    if err > QUADRATURE_TOLERANCE:
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

    @property
    def is_hermitian(self) -> bool:
        return all(c.imag == 0.0 for c in self.coefficients)

    def inverse(self) -> "OrderingScheme":
        """The formal inverse series ``B`` with ``B(Delta) A(Delta) = 1``."""
        a = self.coefficients
        n = len(a)
        b = [0j] * n
        b[0] = 1.0 + 0j
        for k in range(1, n):
            b[k] = -sum(a[j] * b[k - j] for j in range(1, k + 1) if j < n)
        return OrderingScheme(tuple(b), name=f"{self.name}-inverse")


def ordering_scheme(name: str, hbar: float = 1.0, max_order: int = MAX_DEGREE) -> OrderingScheme:
    """Named ordering presets.

    ``weyl`` is the identity series.  ``standard`` produces operators with all
    derivatives to the right of the coefficients.  ``standard-printed`` is a
    variant that scales the series argument by ``hbar`` and flips the phase;
    it is kept for side-by-side comparisons.
    """
    coeffs: list[complex]
    if name == "weyl":
        coeffs = [1.0 + 0j] + [0j] * max_order
    elif name == "standard":
        coeffs = [(-0.5j) ** k / math.factorial(k) for k in range(max_order + 1)]
    elif name == "standard-printed":
        coeffs = [(0.5j * hbar) ** k / math.factorial(k) for k in range(max_order + 1)]
    else:
        raise ConfigError(f"unknown ordering scheme {name!r}")
    return OrderingScheme(tuple(coeffs), name=name)


def delta_apply(model: ManifoldModel, f: MomentumPolynomial, hbar: float = 1.0) -> MomentumPolynomial:
    """One application of the ordering derivation.

    Acting on a degree-``m`` term with coefficient ``X`` it produces the
    degree ``m - 1`` term ``-hbar * m * (nabla . X)``; constants are
    annihilated.
    """
    out: dict[int, TensorField] = {}
    for m, tensor in f.terms.items():
        if m == 0:
            continue
        div = geometry.covariant_divergence(model, tensor)
        piece = tensor_scale(div, -hbar * m)
        out = merge_terms(f.dim, out, {m - 1: piece})
    return MomentumPolynomial(f.dim, out)


def flat_chart_delta_value(
    f: MomentumPolynomial,
    to_cartesian,
    from_cartesian,
    p: np.ndarray,
    q: np.ndarray,
    hbar: float = 1.0,
) -> complex:
    """Evaluate the ordering generator of ``f`` through a Cartesian chart.

    For a flat metric written in a curvilinear chart, the generator applied
    by :func:`delta_apply` can be cross-checked chart-independently: push the
    symbol to a Cartesian chart, where the connection vanishes and the
    generator is the plain mixed derivative ``-hbar d^2/(dp_i dx^i)``, and
    read the value back at the matching phase-space point.  ``to_cartesian``
    and ``from_cartesian`` map chart points both ways; momenta transform with
    the Jacobian of ``to_cartesian``.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.asarray(q, dtype=float)
    dim = q.size

    def jacobian(qq: np.ndarray) -> np.ndarray:
        cart = lambda t: np.asarray(to_cartesian(t), dtype=float)
        cols = []
        for alpha in range(dim):
            orders = [0] * dim
            orders[alpha] = 1
            cols.append(numdiff.partial_derivative(cart, qq, orders))
        return np.column_stack(cols)

    def symbol_in_cartesian(z: np.ndarray) -> complex:
        pc, xc = z[:dim], z[dim:]
        qq = np.asarray(from_cartesian(xc), dtype=float)
        return f.evaluate(jacobian(qq).T @ pc, qq)

    x_c = np.asarray(to_cartesian(q), dtype=float)
    p_c = np.linalg.solve(jacobian(q).T, p)
    z0 = np.concatenate([p_c, x_c])
    total = 0.0 + 0.0j
    for alpha in range(dim):
        orders = [0] * (2 * dim)
        orders[alpha] = 1
        orders[dim + alpha] = 1
        total += complex(numdiff.partial_derivative(symbol_in_cartesian, z0, orders))
    return -hbar * total


def ordering_transform(
    model: ManifoldModel,
    A: OrderingScheme,
    f: MomentumPolynomial,
    hbar: float = 1.0,
) -> MomentumPolynomial:
    """Apply ``A(Delta)`` to a symbol: ``f + sum_k A_k Delta^k f``."""
    result = dict(f.terms)
    acc = f
    for k in range(1, len(A.coefficients)):
        acc = delta_apply(model, acc, hbar)
        if not acc.terms:
            break
        ak = A.coefficients[k]
        if ak == 0:
            continue
        scaled = {d: tensor_scale(t, ak) for d, t in acc.terms.items()}
        result = merge_terms(f.dim, result, scaled)
    return MomentumPolynomial(f.dim, result)


# ---------------------------------------------------------------------------
# config-driven symbol construction


def _isotropic_tensor(dim: int, degree: int, value: complex) -> np.ndarray:
    if degree == 0:
        return np.asarray(value)
    return np.full((dim,) * degree, value)


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
    try:
        scale_value = complex(cfg.get("scale", 1.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"symbol scale must be a number, got {cfg.get('scale')!r}") from exc
    if not isinstance(degree, int) or not 0 <= degree <= MAX_DEGREE:
        raise ConfigError(f"symbol degree must be an integer in 0..{MAX_DEGREE}")

    dim = model.dim
    if coefficient == "constant":
        tensor = tensor_constant(dim, _isotropic_tensor(dim, degree, scale_value))
    elif coefficient == "cos-theta":
        names = model.coordinate_names
        if "theta" not in names:
            raise ConfigError("cos-theta symbols need a coordinate named theta")
        base = from_expression("cos(theta)", names)
        if degree == 0:
            tensor = tensor_scalar(scale(base, scale_value)) if scale_value != 1 else tensor_scalar(base)
        else:
            shared = scale(base, scale_value) if scale_value != 1 else base
            tensor = tensor_from_fields(dim, degree, lambda idx: shared)
    elif coefficient == "inverse-metric":
        if degree != 2:
            raise ConfigError("inverse-metric symbols must have degree 2")
        tensor = geometry.inverse_metric_field(model)
        if scale_value != 1:
            tensor = tensor_scale(tensor, scale_value)
    elif coefficient.startswith("custom:"):
        expr = coefficient[len("custom:") :]
        base = from_expression(expr, model.coordinate_names)
        shared = scale(base, scale_value) if scale_value != 1 else base
        if degree == 0:
            tensor = tensor_scalar(shared)
        else:
            tensor = tensor_from_fields(dim, degree, lambda idx: shared)
    else:
        raise ConfigError(f"unknown symbol coefficient {coefficient!r}")
    return MomentumPolynomial(dim, {degree: tensor})
