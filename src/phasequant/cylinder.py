"""Phase-space quantizer on the cylinder (momentum line times a circle).

Every quantizer here is one kernel, ``(1/pi) e^{i(k'-k) theta} I(k + k' -
2p/hbar)`` in the Fourier basis (:func:`_kernel`), ``I`` the cosine transform
of a squared cutoff profile; smeared pair traces share one double sum
(:func:`_smeared_sum`).  Because the cutoff is identically one on an inner
plateau and supported strictly inside the fundamental angular domain, every
full Fourier-index sum collapses onto the plateau (a Poisson-summation
identity); `polynomial_reproduction_check` uses that collapse to complete
the truncated trace, while the pair-trace diagnostics deliberately keep
the raw truncated sums whose failure to approximate a delta pair is the
point being measured.  Angular Fourier coefficients (of smearing test
functions and of symbols in :func:`discrete_quantize`) are trapezoid sums,
taken by one FFT.

Cutoff transforms take arrays of frequencies.  The plateau contributes in
closed form; the smooth transition from plateau to support is integrated by
one Gauss-Legendre rule for all frequencies at once, a nodes x frequencies
cosine matrix (see :class:`CutoffFamily`).

The discrete quantizer at momentum ``n * hbar``, the kernel of the closed-form
indicator transform (:func:`_discrete_transform`), is the limit of the
continuous one along mollifiers shrinking onto the indicator of [-pi/2, pi/2].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bases import FourierBasis, gauss_legendre
from .curved import wue_weyl_image
from .errors import ConfigError, QuadratureAccuracyError
from .fields import ScalarField, tensor_from_fields
from .geometry import circle
from .symbols import MomentumPolynomial, operator_matrix

MAX_TRUNCATION = 64
PROFILES = ("smoothstep", "classic-bump", "indicator")

#: Largest gap between the coarse and the fine Gauss-Legendre value of a cutoff transform.
QUAD_TOLERANCE = 1e-11
#: Coarse Gauss-Legendre rules have a multiple of this many nodes; the fine rule doubles them.
RULE_NODE_STEP = 64
#: Most nodes of a coarse rule; a transform that would need more raises.
MAX_RULE_NODES = 1024
# Mollifier-ladder members j = 1..LADDER_STEPS compared by discrete_limit_check.
LADDER_STEPS = 4


def _check_truncation(K: int) -> None:
    if not isinstance(K, (int, np.integer)) or K < 1 or K > MAX_TRUNCATION:
        raise ConfigError(f"Fourier truncation must be an integer in [1, {MAX_TRUNCATION}], got {K}")


def _cosine_integral(weight: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, s: np.ndarray) -> np.ndarray:
    """``int_lo^hi weight(x) cos(s x) dx`` at every frequency of ``s``.

    The coarse rule has ``RULE_NODE_STEP + ceil((hi - lo) * max|s| / 2)``
    nodes rounded up to a multiple of ``RULE_NODE_STEP``; the fine rule has
    twice as many.  The fine values are returned when the two agree to
    :data:`QUAD_TOLERANCE`.
    """
    s_max = float(np.max(s, initial=0.0))
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    nodes = RULE_NODE_STEP * (1 + math.ceil(half * s_max / RULE_NODE_STEP))
    if nodes > MAX_RULE_NODES:
        raise QuadratureAccuracyError(
            math.inf,
            QUAD_TOLERANCE,
            f"cutoff transform at frequency {s_max:.6g} needs {nodes} Gauss-Legendre nodes, "
            f"more than the cap of {MAX_RULE_NODES}",
        )
    values = []
    for count in (nodes, 2 * nodes):
        u, w = gauss_legendre(count)
        x = mid + half * u
        values.append((half * w * weight(x)) @ np.cos(np.outer(x, s.reshape(-1))))
    coarse, fine = values
    gap = float(np.max(np.abs(fine - coarse), initial=0.0))
    if gap > QUAD_TOLERANCE:
        raise QuadratureAccuracyError(gap, QUAD_TOLERANCE)
    return fine.reshape(s.shape)


@dataclass(frozen=True)
class CutoffFamily:
    """Even cutoff profile: 1 on ``[-plateau, plateau]``, 0 outside ``(-support, support)``.

    ``profile`` selects the transition shape between plateau and support:
    ``smoothstep`` (infinitely differentiable, the default), ``classic-bump``
    (the traditional ``exp(1 - 1/(1 - t^2))`` mollifier, which matches the
    plateau only to first order), or ``indicator`` (sharp edge; requires
    ``plateau == support`` and has a closed-form transform).

    ``value``, ``transform`` and ``weighted_transform`` accept a number or an
    array (a number gives a float).  A transform integrates the transition
    ``[plateau, support]`` (and, for ``weighted_transform``, the plateau)
    with one Gauss-Legendre rule for every frequency at once.  Its node count
    grows with the interval length times the largest frequency (see
    ``_cosine_integral``) and is capped at :data:`MAX_RULE_NODES`, beyond
    which :class:`QuadratureAccuracyError` is raised; the rule is repeated
    with twice the nodes, and a gap between the two above
    :data:`QUAD_TOLERANCE` raises the same error.  The rules come from
    :func:`~phasequant.bases.gauss_legendre`, cached per node count: Newton
    on the Legendre recurrence, O(n^2) numpy work, about 0.5, 1 and 2.6 ms
    the first time at 128, 256 and 512 nodes.
    """

    plateau: float
    support: float
    profile: str = "smoothstep"

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown cutoff profile {self.profile!r}; choose from {PROFILES}")
        if not 0.0 < self.plateau <= self.support < math.pi:
            raise ConfigError("cutoff radii must satisfy 0 < plateau <= support < pi")
        if self.profile == "indicator":
            if self.plateau != self.support:
                raise ConfigError("indicator cutoff requires plateau == support")
        elif self.plateau == self.support:
            raise ConfigError(f"{self.profile} cutoff requires plateau < support")

    @classmethod
    def mollifier(cls, j: int, profile: str = "smoothstep") -> "CutoffFamily":
        """Ladder member j >= 1 shrinking onto the indicator of [-pi/2, pi/2]."""
        if j < 1:
            raise ConfigError(f"mollifier index must be >= 1, got {j}")
        return cls(plateau=math.pi / 2 - 2.0 ** (-j), support=math.pi / 2 - 2.0 ** (-j - 1), profile=profile)

    def value(self, xi: float | np.ndarray) -> float | np.ndarray:
        """The profile at ``xi``.  Between plateau and support, with ``t`` the
        fraction of the way out, it is the infinitely flat step
        ``e^{-1/(1-t)} / (e^{-1/(1-t)} + e^{-1/t})`` or the bump
        ``exp(1 - 1/(1 - t^2))``."""
        x = np.abs(np.asarray(xi, dtype=float))
        out = np.where(x <= self.plateau, 1.0, 0.0)
        inside = (x > self.plateau) & (x < self.support)
        t = (x[inside] - self.plateau) / (self.support - self.plateau)
        if self.profile == "smoothstep":
            lo, hi = np.exp(-1.0 / (1.0 - t)), np.exp(-1.0 / t)
            out[inside] = lo / (lo + hi)
        else:
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - t * t))
        return float(out) if out.ndim == 0 else out

    def transform(self, s: float | np.ndarray) -> float | np.ndarray:
        """Cosine transform ``int chi^2(xi) exp(i s xi) dxi`` (real and even in s)."""
        s = np.abs(np.asarray(s, dtype=float))
        a, b = self.plateau, self.support
        with np.errstate(divide="ignore", invalid="ignore"):
            total = np.where(s == 0.0, 2.0 * a, 2.0 * np.sin(s * a) / s)
        if self.profile != "indicator":
            total = total + _cosine_integral(lambda x: 2.0 * self.value(x) ** 2, a, b, s)
        return float(total) if total.ndim == 0 else total

    def weighted_transform(
        self, s: float | np.ndarray, envelope: Callable[[np.ndarray], np.ndarray]
    ) -> float | np.ndarray:
        """Cosine transform of ``chi^2 * envelope`` for an even real envelope.

        ``envelope`` is called on arrays of quadrature nodes and must return
        the array of its values.
        """
        s = np.abs(np.asarray(s, dtype=float))
        total = np.zeros(s.shape)
        for lo, hi in ((0.0, self.plateau), (self.plateau, self.support)):
            if hi > lo:
                total += _cosine_integral(lambda x: 2.0 * self.value(x) ** 2 * envelope(x), lo, hi, s)
        return float(total) if total.ndim == 0 else total


def __getattr__(name: str):
    # The perfbench tracer looks ``quad`` up here by name to count its calls,
    # so the name resolves.  This shim and harness's are the only scipy imports
    # in the package (scipy is a test dependency); nothing here calls ``quad``.
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# continuous quantizer


def _kernel(ivals: np.ndarray, theta: float, K: int) -> np.ndarray:
    """``(1/pi) e^{i(k'-k) theta} I(k + k')``, |k|,|k'| <= K, from ``ivals = I(-2K..2K)``."""
    ks = np.arange(-K, K + 1)
    hankel = ivals[(ks[:, None] + ks[None, :]) + 2 * K]
    phase = np.exp(1j * ks * theta)
    return np.outer(np.conj(phase), phase) * hankel / math.pi


def quantizer_matrix_cyl(
    p: float, theta: float, chi: CutoffFamily, K: int, hbar: float = 1.0
) -> np.ndarray:
    """Quantizer matrix ``(1/pi) e^{i(k'-k) theta} I(k + k' - 2p/hbar)``, |k|,|k'| <= K."""
    _check_truncation(K)
    return _kernel(chi.transform(np.arange(-2 * K, 2 * K + 1) - 2.0 * p / hbar), theta, K)


def quantizer_trace_cyl(p: float, theta: float, chi: CutoffFamily, K: int, hbar: float = 1.0) -> float:
    """Raw truncated trace ``(1/pi) sum_{|k|<=K} I(2k - 2p/hbar)`` (exactly 1 as K grows)."""
    _check_truncation(K)
    c = 2.0 * p / hbar
    return float(np.sum(chi.transform(2 * np.arange(-K, K + 1) - c))) / math.pi


def polynomial_reproduction_check(
    X: ScalarField,
    m: int,
    p: float,
    theta: float,
    chi: CutoffFamily,
    K: int,
    hbar: float = 1.0,
) -> float:
    """Residual of dequantizing the operator matrix of ``X(theta) p^m`` on the cylinder.

    The trace ``Tr{quantizer * matrix}`` is evaluated band by band: entries of
    a band are an exact degree-``m`` polynomial in the Fourier index, so the
    full index sum has the closed form ``e^{i d theta} P_d((2p/hbar - d)/2)``
    per band ``d`` (the cutoff's plateau kills every other Poisson term).  The
    residual therefore reflects operator-matrix quadrature, not the cutoff.
    """
    _check_truncation(K)
    if m < 0:
        raise ConfigError(f"momentum degree must be >= 0, got {m}")
    model = circle()
    f = MomentumPolynomial(1, {m: tensor_from_fields(1, m, lambda idx: X)})
    D = wue_weyl_image(model, f, hbar)
    F = operator_matrix(model, D, FourierBasis(), K)
    c = 2.0 * p / hbar

    scale = np.max(np.abs(F))
    completed = 0.0 + 0.0j
    for d in range(-2 * K, 2 * K + 1):
        band = np.diagonal(F, -d)  # F[k + d, k], Fourier index k
        if np.max(np.abs(band)) <= 1e-11 * (1.0 + scale):
            continue
        # fit the centered samples: every k within the smallest radius that holds m + 1 of them
        lo, hi = -K + max(0, -d), K - max(0, d)
        r = sorted(abs(k) for k in range(lo, hi + 1))[min(m, hi - lo)]
        first, last = max(lo, -r), min(hi, r)
        coeffs = np.polynomial.polynomial.polyfit(np.arange(first, last + 1), band[first - lo : last - lo + 1], m)
        completed += np.exp(1j * d * theta) * np.polynomial.polynomial.polyval((c - d) / 2.0, coeffs)

    exact = complex(X(np.array([theta]))) * p**m
    return abs(complex(completed) - exact)


# ---------------------------------------------------------------------------
# pair traces and smeared diagnostics


def periodic_test_function(center: float, width: float) -> Callable[[float], float]:
    """Smooth 2 pi-periodic bump ``exp((cos(theta - center) - 1)/width^2)``, peak 1."""
    if width <= 0.0:
        raise ConfigError("test-function width must be positive")

    def t(theta):
        return np.exp((np.cos(theta - center) - 1.0) / (width * width))

    return t


def _angle_grid(nodes: int = 512) -> np.ndarray:
    """The trapezoid nodes ``theta_j = -pi + 2 pi j / nodes`` on ``[-pi, pi)``
    (by default those for the Fourier coefficients of a smearing test function)."""
    return -math.pi + 2.0 * math.pi * np.arange(nodes) / nodes


def _fourier_coefficients(samples: np.ndarray, mmax: int) -> np.ndarray:
    """Coefficients ``t_m = (1/2pi) int t e^{-im theta}``, ``|m| <= mmax``, by
    the trapezoid rule on samples of ``t`` at :func:`_angle_grid` (last axis):
    one FFT, as ``e^{-im theta_j} = (-1)^m e^{-2 pi i m j / N}``."""
    nodes = samples.shape[-1]
    m = np.arange(-mmax, mmax + 1)
    spectrum = np.fft.fft(samples, axis=-1)[..., m % nodes]
    return np.where(m % 2, -1.0, 1.0) * spectrum / nodes


def _smeared_sum(ivals: np.ndarray, jvals: np.ndarray, tcoef: np.ndarray, theta: float, K: int) -> complex:
    """``sum_{k,k'} e^{i(k'-k) theta} I(k + k') J(k + k') t_{k'-k}``, each from its values at ``-2K..2K``."""
    ks = np.arange(-K, K + 1)
    ksum = ks[:, None] + ks[None, :] + 2 * K
    kdiff = ks[None, :] - ks[:, None]
    return np.sum(np.exp(1j * kdiff * theta) * ivals[ksum] * jvals[ksum] * tcoef[kdiff + 2 * K])


def pair_trace_smeared_cyl(
    p: float,
    theta: float,
    chi: CutoffFamily,
    K: int,
    hbar: float = 1.0,
    *,
    theta_center: float,
    p_center: float,
    theta_width: float = 0.4,
    p_width: float = 0.8,
) -> complex:
    """Pair trace smeared against a bump in angle and a Gaussian in momentum.

    Computes ``int dp' dtheta'/(2 pi hbar) t(theta') s(p')
    Tr{quantizer(p, theta) quantizer(p', theta')}`` with ``t`` the periodic
    bump centered at ``theta_center`` and ``s`` a unit-peak Gaussian centered
    at ``p_center``.  The momentum integral is folded into a weighted cutoff
    transform; the angle integral picks Fourier coefficients of ``t``.
    """
    _check_truncation(K)
    amplitude = p_width * math.sqrt(2.0 * math.pi)

    def envelope(xi: np.ndarray) -> np.ndarray:
        return amplitude * np.exp(-2.0 * (p_width * xi / hbar) ** 2)

    us = np.arange(-2 * K, 2 * K + 1)
    ivals = chi.transform(us - 2.0 * p / hbar)
    wvals = chi.weighted_transform(us - 2.0 * p_center / hbar, envelope)
    t = periodic_test_function(theta_center, theta_width)
    tcoef = _fourier_coefficients(t(_angle_grid()), 2 * K)
    total = _smeared_sum(ivals, wvals, tcoef, theta, K)
    return complex(total * 2.0 * math.pi / (2.0 * math.pi * hbar * math.pi**2))


# ---------------------------------------------------------------------------
# discrete quantizer and its limit


def _discrete_transform(s: np.ndarray) -> np.ndarray:
    """Closed-form transform of the indicator cutoff at pi/2: I(0) = pi, I(m) = 2 sin(m pi/2)/m."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    zero = s == 0.0
    out[zero] = math.pi
    out[~zero] = 2.0 * np.sin(s[~zero] * math.pi / 2.0) / s[~zero]
    return out


def discrete_quantizer(n: int, theta: float, K: int) -> np.ndarray:
    """Quantizer at lattice momentum ``n * hbar``: entries ``(1/pi) e^{i(k'-k)theta} I(k+k'-2n)``."""
    _check_truncation(K)
    if not isinstance(n, (int, np.integer)):
        raise ConfigError(f"discrete mode requires an integer momentum index, got {n!r}")
    return _kernel(_discrete_transform(np.arange(-2 * K, 2 * K + 1) - 2 * n), theta, K)


def discrete_limit_check(n: int, theta: float, K: int) -> np.ndarray:
    """Max-entry error of the mollifier-ladder quantizer against the discrete one.

    Returns one error per ladder index ``j = 1, ..., LADDER_STEPS`` of the
    smoothstep ladder; the sequence decreases strictly as the cutoffs shrink
    onto the indicator of ``[-pi/2, pi/2]``.
    """
    target = discrete_quantizer(n, theta, K)
    errors = []
    for j in range(1, LADDER_STEPS + 1):
        chi = CutoffFamily.mollifier(j)
        approx = quantizer_matrix_cyl(float(n), theta, chi, K)
        errors.append(float(np.max(np.abs(approx - target))))
    return np.array(errors)


def discrete_pair_trace(n: int, n2: int, theta: float, theta2: float, K: int) -> complex:
    """Truncated ``Tr{quantizer(n, theta) quantizer(n2, theta2)}`` on the lattice."""
    A = discrete_quantizer(n, theta, K)
    B = discrete_quantizer(n2, theta2, K)
    return complex(np.sum(A * B.T))


def discrete_pair_trace_smeared(
    n: int,
    n2: int,
    theta: float,
    t: Callable[[np.ndarray], np.ndarray],
    K: int,
) -> complex:
    """Pair trace smeared in the second angle: ``int dtheta' t(theta') Tr{...}``.

    For ``n == n2`` this is the order-K Fourier partial sum of ``2 pi t`` at
    ``theta``; for ``n != n2`` it decays with K.
    """
    _check_truncation(K)
    us = np.arange(-2 * K, 2 * K + 1)
    tcoef = _fourier_coefficients(t(_angle_grid()), 2 * K)
    total = _smeared_sum(_discrete_transform(us - 2 * n), _discrete_transform(us - 2 * n2), tcoef, theta, K)
    return complex(total * 2.0 * math.pi / math.pi**2)


def discrete_quantize(
    f: Callable[[float, float], complex],
    N: int,
    K: int,
    hbar: float = 1.0,
) -> np.ndarray:
    """Quantization map ``sum_{|n|<=N} int dtheta/(2 pi) f(n hbar, theta) quantizer(n, theta)``.

    ``f`` is sampled at lattice momenta ``n * hbar``.  Functions of momentum
    alone quantize to exactly diagonal matrices with entries ``f(k hbar)``
    for ``|k| <= min(N, K)``.  A warning is emitted when ``f`` has not
    decayed at the momentum cap.
    """
    _check_truncation(K)
    if N < 0:
        raise ConfigError(f"momentum cap must be >= 0, got {N}")
    grid = _angle_grid(max(4 * K + 4, 64))
    ks = np.arange(-K, K + 1)
    ksum = ks[:, None] + ks[None, :] + 2 * K + 2 * N  # I(k + k' - 2n) sits at ksum - 2n
    kdiff = ks[None, :] - ks[:, None]
    table = _discrete_transform(np.arange(-2 * K - 2 * N, 2 * K + 2 * N + 1))

    samples = np.array([[complex(f(n * hbar, th)) for th in grid] for n in range(-N, N + 1)])
    peak = float(np.max(np.abs(samples)))
    # Momentum-only symbols pick up nothing from |n| > N (the angle average
    # kills every off-diagonal term), so only angle variation at the cap
    # signals a genuinely truncated tail.
    edge = samples[[0, -1], :]
    variation = float(np.max(np.abs(edge - edge.mean(axis=1, keepdims=True))))
    if variation > 1e-9 * (1.0 + peak):
        warnings.warn(
            "discrete_quantize: symbol still varies with angle at the momentum cap; "
            "increase N for a faithful operator",
            stacklevel=2,
        )

    coeffs = _fourier_coefficients(samples, 2 * K)
    out = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
    for row, n in enumerate(range(-N, N + 1)):
        out += table[ksum - 2 * n] * coeffs[row, -kdiff + 2 * K]
    return out / math.pi
