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
a nested pair of Clenshaw-Curtis rules for all frequencies at once, with
exact phases at one anchor per block of 16 integer frequencies and two real
matmuls for the rest, never a nodes x frequencies table (see
:func:`_cosine_integral`).  A smeared pair trace's two transforms depend on
its lattice (``K``, ``p``, ``p_center``, ``p_width``, ``hbar``) and not on
its angles, so the cutoff remembers the last pair, one read-only entry: a
series of test-function centers on one lattice transforms once.  One
:meth:`CutoffFamily.transform` call gives the plain and the
envelope-weighted rows, whose transition integrals share one rule, one set
of phase tables and one evaluation of the cutoff at the nodes.

The discrete quantizer at momentum ``n * hbar``, the kernel of the closed-form
indicator transform (:func:`_discrete_transform`), is the limit of the
continuous one along mollifiers shrinking onto the indicator of [-pi/2, pi/2].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bases import FourierBasis, angle_grid, clenshaw_curtis, fourier_coefficients
from .curved import wue_weyl_image
from .errors import ConfigError, QuadratureAccuracyError, check_hbar, finite, positive_finite
from .fields import TensorField, tensor_from_fields
from .geometry import circle
from .symbols import MomentumPolynomial, operator_matrix

MAX_TRUNCATION = 64
PROFILES = ("smoothstep", "classic-bump", "indicator")

#: Largest gap between the coarse and the fine Clenshaw-Curtis value of a cutoff transform.
QUAD_TOLERANCE = 1e-11
#: Coarse Clenshaw-Curtis rules have a multiple of this many intervals; the fine rule doubles them.
RULE_NODE_STEP = 64
#: Most intervals of a coarse rule; a transform that would need more raises.
MAX_RULE_NODES = 1024
# Integer frequencies that share one exact anchor phase in _cosine_integral.
_PHASE_BLOCK = 16
# Mollifier-ladder members j = 1..LADDER_STEPS compared by discrete_limit_check.
LADDER_STEPS = 4
# Trapezoid nodes of the Fourier coefficients of a smearing test function.
SMEARING_NODES = 512


def _check_truncation(K: int) -> None:
    if not isinstance(K, (int, np.integer)) or K < 1 or K > MAX_TRUNCATION:
        raise ConfigError(f"Fourier truncation must be an integer in [1, {MAX_TRUNCATION}], got {K}")


def _check_angle(name: str, value: float) -> None:
    """Raise :class:`ConfigError` unless the angle ``value`` is a finite number; any finite angle is valid."""
    if not finite(value):
        raise ConfigError(f"{name} must be a finite angle, got {value!r}")


def _largest_frequency(s: np.ndarray) -> float:
    """``max |s|`` (0 for no frequency); a non-finite frequency raises :class:`QuadratureAccuracyError`."""
    s_max = float(np.max(np.abs(s), initial=0.0))
    if not math.isfinite(s_max):
        raise QuadratureAccuracyError(math.inf, QUAD_TOLERANCE, f"cutoff transform at non-finite frequency {s_max}")
    return s_max


def _cosine_integral(weight: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, s: np.ndarray) -> np.ndarray:
    """``int_lo^hi weight(x) cos(s x) dx`` at every frequency of ``s``, for each weight of a stack.

    ``weight`` maps the nodes to one row of values or to a stack of rows
    (nodes last); the result is stacked the same way over ``s``'s shape.
    The coarse Clenshaw-Curtis rule has ``n = RULE_NODE_STEP + ceil((hi - lo)
    * max|s| / 2)`` intervals rounded up to a multiple of ``RULE_NODE_STEP``;
    the fine rule has ``2n``, and its ``2n + 1`` nodes hold the coarse rule's.
    No nodes x frequencies table is formed: with ``s = a + r + eps``, ``r`` the
    place in a block of ``_PHASE_BLOCK`` integers and ``a`` the block's first
    integer plus the fractional part of ``s`` rounded to 1e-9 (shared by a
    shifted integer lattice), ``sum_n w_n cos(s x_n) = Re T_w(a, r) - eps
    Im T_{wx}(a, r) + O((eps x)^2)`` with ``T_v(a, r) = sum_n v_n e^{i a x_n}
    e^{i r x_n}``: exact phases at the anchors and the steps (Van Loan,
    *Computational Frameworks for the FFT*, 1992, 1.4), built once for the
    stack, then two real matmuls for both rules per weight, of one shape
    however many weights there are.  The fine values are returned when the
    two agree to :data:`QUAD_TOLERANCE`, for every weight in turn.
    """
    s_max = _largest_frequency(s)
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    nodes = RULE_NODE_STEP * (1 + math.ceil(half * s_max / RULE_NODE_STEP))
    if nodes > MAX_RULE_NODES:
        raise QuadratureAccuracyError(
            math.inf,
            QUAD_TOLERANCE,
            f"cutoff transform at frequency {s_max:.6g} needs a Clenshaw-Curtis rule of {nodes} intervals, "
            f"more than the cap of {MAX_RULE_NODES}",
        )
    u, fine_weights = clenshaw_curtis(2 * nodes)
    weights = np.zeros((2, 2 * nodes + 1))
    weights[0, ::2], weights[1] = clenshaw_curtis(nodes)[1], fine_weights
    x = mid + half * u
    values = half * weight(x)[..., None, :] * weights  # stack x (coarse, fine) x nodes
    freq = s.reshape(-1)
    whole = np.floor(freq)
    block = _PHASE_BLOCK * np.floor(whole / _PHASE_BLOCK)
    key = block + np.round(freq - whole, 9)
    starts = np.diff(key, prepend=np.nan) != 0  # runs of equal keys share an anchor (np.unique's sort adds RSS)
    anchors, group = key[starts], np.cumsum(starts) - 1
    step = (whole - block).astype(int)
    eps = freq - key - step
    ax, rx = np.outer(anchors, x), np.outer(np.arange(_PHASE_BLOCK), x)
    cos_r, sin_r, cos_a, sin_a = np.cos(rx), np.sin(rx), np.cos(ax).T, np.sin(ax).T
    terms = np.empty((2, 2, _PHASE_BLOCK, x.size))  # (w, w x) x (coarse, fine) x steps x nodes
    out = np.empty(values.shape[:-2] + (freq.size,))
    for index in np.ndindex(out.shape[:-1]):
        v = np.stack([values[index], values[index] * x])[:, :, None]
        # Re T_w = sum w (cos ax cos rx - sin ax sin rx), Im T_wx = sum w x (sin ax cos rx + cos ax sin rx)
        np.multiply(v[0], cos_r, out=terms[0])
        np.multiply(v[1], sin_r, out=terms[1])
        t = terms.reshape(-1, x.size) @ cos_a
        np.negative(np.multiply(v[0], sin_r, out=terms[0]), out=terms[0])
        np.multiply(v[1], cos_r, out=terms[1])
        t += terms.reshape(-1, x.size) @ sin_a
        re_w, im_wx = t.reshape(2, 2, _PHASE_BLOCK, anchors.size)[:, :, step, group]
        coarse, out[index] = re_w - eps * im_wx
        gap = float(np.max(np.abs(out[index] - coarse), initial=0.0))
        if gap > QUAD_TOLERANCE:
            raise QuadratureAccuracyError(gap, QUAD_TOLERANCE)
    return out.reshape(out.shape[:-1] + s.shape)


@dataclass(frozen=True)
class CutoffFamily:
    """Even cutoff profile: 1 on ``[-plateau, plateau]``, 0 outside ``(-support, support)``.

    ``profile`` selects the transition shape between plateau and support:
    ``smoothstep`` (infinitely differentiable, the default), ``classic-bump``
    (the traditional ``exp(1 - 1/(1 - t^2))`` mollifier, which matches the
    plateau only to first order), or ``indicator`` (sharp edge; requires
    ``plateau == support`` and has a closed-form transform).

    ``value`` and ``transform`` accept a number or an array (a number gives a
    float); ``transform`` stacks one row per smearing envelope under the
    plain transform.  A transform integrates the transition ``[plateau,
    support]`` (and, for the envelope rows, the plateau) with one
    Clenshaw-Curtis rule for every frequency at once.  Its interval
    count grows with the interval length times the largest frequency (see
    ``_cosine_integral``) and is capped at :data:`MAX_RULE_NODES`, beyond
    which :class:`QuadratureAccuracyError` is raised, as for a non-finite
    frequency; the rule with twice the intervals reuses its nodes and
    phases, and a gap between the two above :data:`QUAD_TOLERANCE` raises the
    same error.  A shifted integer lattice costs exact cosines and sines at
    16 steps and one anchor per block of 16 over the ``2n + 1`` fine nodes of
    a coarse rule of ``n`` intervals.  The rules come from
    :func:`~phasequant.bases.clenshaw_curtis`, cached per interval count:
    closed-form nodes and one FFT for the weights.  The rows share the
    transition's rule and phase tables, and each row then takes the matmuls
    a lone transform takes, so every row keeps the bits it has alone.

    A cutoff remembers the transform pair of its last
    :func:`pair_trace_smeared_cyl` call, read-only; the memo takes no part in
    equality, hashing or ``repr``.
    """

    plateau: float
    support: float
    profile: str = "smoothstep"
    # (key, stacked I and weighted J values) of the last pair_trace_smeared_cyl call,
    # key (K, p, p_center, p_width, hbar)
    _smeared: tuple = field(default=(None, None), init=False, repr=False, compare=False)

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

    def transform(self, s: float | np.ndarray, *envelopes: Callable[[np.ndarray], np.ndarray]) -> float | np.ndarray:
        """Cosine transform ``int chi^2(xi) exp(i s xi) dxi`` (real and even in s), and
        after it one row per even real envelope, the transform of ``chi^2 * envelope``.

        An envelope maps an array of quadrature nodes to its values.  Row 0's
        plateau is closed-form; the envelope rows' plateau is one
        :func:`_cosine_integral`, and every row's transition one more, of the
        stacked weights.  With no envelope a number gives a float; a non-finite
        frequency raises on every profile, the closed-form indicator's too.
        """
        s = np.asarray(s, dtype=float)
        _largest_frequency(s)
        a = self.plateau

        def weights(x: np.ndarray) -> np.ndarray:
            squared = 2.0 * self.value(x) ** 2
            return np.stack([squared] + [squared * envelope(x) for envelope in envelopes])

        with np.errstate(divide="ignore", invalid="ignore"):
            rows = [np.where(s == 0.0, 2.0 * a, 2.0 * np.sin(s * a) / s)]
        if envelopes:
            rows.extend(_cosine_integral(lambda x: weights(x)[1:], 0.0, a, s))
        total = np.stack(rows)
        if self.profile != "indicator":
            total = total + _cosine_integral(weights, a, self.support, s)
        total = total if envelopes else total[0]
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
    check_hbar(hbar)
    _check_angle("theta", theta)
    return _kernel(chi.transform(np.arange(-2 * K, 2 * K + 1) - 2.0 * p / hbar), theta, K)


def quantizer_trace_cyl(p: float, chi: CutoffFamily, K: int, hbar: float = 1.0) -> float:
    """Raw truncated trace ``(1/pi) sum_{|k|<=K} I(2k - 2p/hbar)`` (exactly 1 as K grows);
    the diagonal entries do not depend on the angle, so it takes none."""
    _check_truncation(K)
    check_hbar(hbar)
    c = 2.0 * p / hbar
    return float(np.sum(chi.transform(2 * np.arange(-K, K + 1) - c))) / math.pi


def polynomial_reproduction_check(
    X: TensorField,
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
    A ``theta`` or ``p`` that is not finite raises :class:`ConfigError`.
    """
    _check_truncation(K)
    check_hbar(hbar)
    _check_angle("theta", theta)
    if not finite(p):
        raise ConfigError(f"momentum must be a finite number, got {p!r}")
    if m < 0:
        raise ConfigError(f"momentum degree must be >= 0, got {m}")
    model = circle()
    f = MomentumPolynomial(1, {m: tensor_from_fields(1, m, lambda idx: X)})
    D = wue_weyl_image(model, f, hbar)
    F = operator_matrix(model, D, FourierBasis(), K)
    c = 2.0 * p / hbar

    # the peak of |F[k + d, k]| for every band d in one gather, |F| padded by 2K zero rows
    magnitude, bands, columns = np.abs(F), np.arange(-2 * K, 2 * K + 1), np.arange(2 * K + 1)
    peaks = np.max(np.pad(magnitude, ((2 * K, 2 * K), (0, 0)))[columns + bands[:, None] + 2 * K, columns], axis=1)
    completed = 0.0 + 0.0j
    for d in bands[peaks > 1e-11 * (1.0 + np.max(magnitude))].tolist():
        band = np.diagonal(F, -d)  # F[k + d, k], Fourier index k
        # fit the centered samples: every k within the smallest radius that holds m + 1 of them
        lo, hi = -K + max(0, -d), K - max(0, d)
        r = sorted(abs(k) for k in range(lo, hi + 1))[min(m, hi - lo)]
        first, last = max(lo, -r), min(hi, r)
        coeffs = np.polyfit(np.arange(first, last + 1), band[first - lo : last - lo + 1], m)
        completed += np.exp(1j * d * theta) * np.polyval(coeffs, (c - d) / 2.0)

    exact = complex(X(np.array([theta]))) * p**m
    return abs(complex(completed) - exact)


# ---------------------------------------------------------------------------
# pair traces and smeared diagnostics


def periodic_test_function(center: float, width: float) -> Callable[[float], float]:
    """Smooth 2 pi-periodic bump ``exp((cos(theta - center) - 1)/width^2)``, peak 1."""
    _check_angle("center", center)
    if not positive_finite(width):
        raise ConfigError(f"test-function width must be a positive finite number, got {width!r}")

    def t(theta):
        return np.exp((np.cos(theta - center) - 1.0) / (width * width))

    return t


def _smeared_sum(ivals: np.ndarray, jvals: np.ndarray, tcoef: np.ndarray, theta: float, K: int) -> complex:
    """``sum_{k,k'} e^{i(k'-k) theta} I(k + k') J(k + k') t_{k'-k}``, each from its values at ``-2K..2K``,
    the phase taken once per difference."""
    ks = np.arange(-K, K + 1)
    ksum = ks[:, None] + ks[None, :] + 2 * K
    kdiff = ks[None, :] - ks[:, None] + 2 * K
    phases = np.exp(1j * np.arange(-2 * K, 2 * K + 1) * theta)
    return np.sum(phases[kdiff] * ivals[ksum] * jvals[ksum] * tcoef[kdiff])


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

    The two cutoff transforms depend on ``K``, ``p``, ``p_center``,
    ``p_width`` and ``hbar`` only, so ``chi`` remembers the last pair, keyed
    by exactly those, and a call that repeats them (another ``theta`` or
    ``theta_center``, say) skips both transforms; its sum is the same
    product and the same ``np.sum``, so the value keeps its bits.  A miss
    takes both from one :meth:`CutoffFamily.transform` at the ``p_center``
    frequencies, and the plain one afresh only when ``p_center != p``.  The
    pair is stored only once both transforms succeed.  An ``hbar``, ``p_width`` or
    ``theta_width`` that is not positive and finite, or a ``theta`` that is
    not finite, raises :class:`ConfigError` before the memo is read.
    """
    _check_truncation(K)
    check_hbar(hbar)
    _check_angle("theta", theta)
    if not positive_finite(p_width):
        raise ConfigError(f"momentum width must be a positive finite number, got {p_width!r}")
    t = periodic_test_function(theta_center, theta_width)
    key = (K, p, p_center, p_width, hbar)
    known, pair = chi._smeared
    if known != key:
        amplitude = p_width * math.sqrt(2.0 * math.pi)

        def envelope(xi: np.ndarray) -> np.ndarray:
            return amplitude * np.exp(-2.0 * (p_width * xi / hbar) ** 2)

        us = np.arange(-2 * K, 2 * K + 1)
        # kept as it is: a copy of the result sits between the transforms' freed
        # temporaries and raised a perfbench cylinder pass's peak RSS by 0.1 MB
        pair = chi.transform(us - 2.0 * p_center / hbar, envelope)
        if p_center != p:
            pair[0] = chi.transform(us - 2.0 * p / hbar)
        pair.setflags(write=False)
        object.__setattr__(chi, "_smeared", (key, pair))  # the dataclass is frozen
    tcoef = fourier_coefficients(t(angle_grid(SMEARING_NODES)), 2 * K)
    total = _smeared_sum(pair[0], pair[1], tcoef, theta, K)
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
    _check_angle("theta", theta)
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
    _check_angle("theta", theta)
    us = np.arange(-2 * K, 2 * K + 1)
    tcoef = fourier_coefficients(t(angle_grid(SMEARING_NODES)), 2 * K)
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
    check_hbar(hbar)
    if N < 0:
        raise ConfigError(f"momentum cap must be >= 0, got {N}")
    grid = angle_grid(max(4 * K + 4, 64))
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

    coeffs = fourier_coefficients(samples, 2 * K)
    out = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
    for row, n in enumerate(range(-N, N + 1)):
        out += table[ksum - 2 * n] * coeffs[row, -kdiff + 2 * K]
    return out / math.pi
