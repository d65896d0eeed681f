import gc
import hashlib
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from phasequant import bases, cylinder
from phasequant.errors import ConfigError, QuadratureAccuracyError
from phasequant.fields import constant, from_expression
from phasequant.symbols import hermiticity_defect


@pytest.fixture(scope="module")
def chi():
    return cylinder.CutoffFamily(0.8, 2.8)


# ---------------------------------------------------------------------------
# cutoff families


def test_cutoff_plateau_and_support(chi):
    assert chi.value(0.0) == 1.0
    assert chi.value(0.79) == 1.0
    assert chi.value(-0.5) == 1.0
    assert chi.value(2.81) == 0.0
    assert 0.0 < chi.value(1.8) < 1.0
    # even
    assert chi.value(-1.8) == chi.value(1.8)


def test_cutoff_validation():
    with pytest.raises(ConfigError):
        cylinder.CutoffFamily(-0.1, 1.0)
    with pytest.raises(ConfigError):
        cylinder.CutoffFamily(2.0, 1.0)
    with pytest.raises(ConfigError):
        cylinder.CutoffFamily(0.5, 1.0, profile="boxish")
    with pytest.raises(ConfigError):
        cylinder.CutoffFamily(0.5, 1.0, profile="indicator")  # needs plateau == support


def test_mollifier_ladder_parameters():
    for j in (1, 2, 3):
        fam = cylinder.CutoffFamily.mollifier(j)
        assert fam.plateau == pytest.approx(math.pi / 2.0 - 2.0**-j)
        assert fam.support == pytest.approx(math.pi / 2.0 - 2.0 ** -(j + 1))


def test_indicator_transform_closed_form():
    a = 1.3
    fam = cylinder.CutoffFamily(a, a, profile="indicator")
    for s in (0.0, 0.7, 2.0):
        want = 2.0 * a if s == 0.0 else 2.0 * math.sin(s * a) / s
        assert fam.transform(s) == pytest.approx(want, abs=1e-12)


def test_transform_is_even_and_matches_quadrature(chi):
    s = 1.4
    assert chi.transform(-s) == pytest.approx(chi.transform(s), abs=1e-14)
    direct, err = quad(
        lambda x: 2.0 * chi.value(x) ** 2 * math.cos(s * x), 0.0, chi.support, limit=300
    )
    del err
    assert chi.transform(s) == pytest.approx(direct, abs=1e-9)


def test_weighted_transform_with_unit_envelope_matches_transform(chi):
    s = 0.9
    assert chi.transform(s, lambda x: 1.0)[1] == pytest.approx(chi.transform(s), abs=1e-10)


def smoothstep_squared(chi, x):
    """``chi(x)^2`` of a smoothstep cutoff inside its transition, in scalar arithmetic."""
    t = (x - chi.plateau) / (chi.support - chi.plateau)
    lo, hi = math.exp(-1.0 / (1.0 - t)), math.exp(-1.0 / t)
    return (lo / (lo + hi)) ** 2


def plain_quad_transform(chi, s):
    """The transform with the transition integrated by plain adaptive quadrature
    of ``chi^2 cos(s x)``: no cosine-weighted rule, no Gauss-Legendre rule."""
    a, b = chi.plateau, chi.support
    head = 2.0 * a if s == 0.0 else 2.0 * math.sin(s * a) / s
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        tail, _ = quad(
            lambda x: 2.0 * smoothstep_squared(chi, x) * math.cos(s * x),
            a,
            b,
            limit=400,
            epsabs=1e-14,
            epsrel=1e-14,
        )
    return head + tail


def test_transform_where_cosine_weighted_quadpack_was_wrong():
    # s * (support - plateau) = 64: QUADPACK's cosine-weighted rule returned
    # 0.019140 here and estimated its own error at 8e-15
    value = cylinder.CutoffFamily(1.0, 1.4).transform(160)
    assert value == pytest.approx(4.53568e-6, rel=1e-5)
    assert value == pytest.approx(plain_quad_transform(cylinder.CutoffFamily(1.0, 1.4), 160.0), abs=1e-12)


@pytest.mark.parametrize(
    "family",
    [cylinder.CutoffFamily(0.8, 2.8)] + [cylinder.CutoffFamily.mollifier(j) for j in range(1, 5)],
    ids=["default", "mollifier-1", "mollifier-2", "mollifier-3", "mollifier-4"],
)
def test_transform_matches_plain_quadrature_on_integer_frequencies(family):
    s = np.arange(261)
    want = [plain_quad_transform(family, float(v)) for v in s]
    np.testing.assert_allclose(family.transform(s), want, rtol=0.0, atol=1e-12)


def gauss_legendre_transform(chi, s, nodes):
    """The transform with the transition integrated by a Gauss-Legendre rule
    of ``nodes`` nodes, an independent rule from the Clenshaw-Curtis pair."""
    a, b = chi.plateau, chi.support
    u, w = bases.gauss_legendre(nodes)
    x = 0.5 * (a + b) + 0.5 * (b - a) * u
    tail = (0.5 * (b - a) * w * 2.0 * chi.value(x) ** 2) @ np.cos(np.outer(x, s))
    return 2.0 * np.sin(s * a) / s + tail


@pytest.mark.parametrize(
    "family", [cylinder.CutoffFamily(0.8, 2.8), cylinder.CutoffFamily.mollifier(4)], ids=["default", "mollifier-4"]
)
def test_transform_matches_gauss_legendre_at_four_times_the_nodes(family):
    # the frequencies of a K = 64 quantizer matrix at p = 0.4, hbar = 1
    s = np.arange(-128, 129) - 0.8
    half = 0.5 * (family.support - family.plateau)
    nodes = cylinder.RULE_NODE_STEP * (1 + math.ceil(half * np.max(np.abs(s)) / cylinder.RULE_NODE_STEP))
    want = gauss_legendre_transform(family, np.abs(s), 4 * nodes)
    np.testing.assert_allclose(family.transform(s), want, rtol=0.0, atol=1e-14)


def direct_cosine_integral(weight, lo, hi, s):
    """``_cosine_integral``'s fine sum from one nodes x frequencies cosine table
    on the same fine Clenshaw-Curtis rule."""
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    nodes = cylinder.RULE_NODE_STEP * (1 + math.ceil(half * np.max(np.abs(s)) / cylinder.RULE_NODE_STEP))
    u, w = bases.clenshaw_curtis(2 * nodes)
    x = mid + half * u
    return ((half * weight(x) * w) @ np.cos(np.outer(x, s.reshape(-1)))).reshape(s.shape)


_rng = np.random.default_rng(24)
COSINE_INTEGRAL_FREQUENCIES = {
    "K64-lattice": np.arange(-128, 129) - 0.8,  # a K = 64 quantizer matrix at p = 0.4
    "K64-lattice-folded": np.abs(np.arange(-128, 129) - 0.8),
    "trace-lattice": 2 * np.arange(-64, 65) - 0.8,  # quantizer_trace_cyl at K = 64, p = 0.4
    "mixed": np.array([0.0, 1.4, -3.0, 17.5]),
    "jittered-lattice": np.arange(-25, 25) + 0.3 + _rng.uniform(-1e-13, 1e-13, 50),  # remainders far above an ulp
    "single": np.array(37.25),
    "random": _rng.uniform(-200.0, 200.0, 40),
}


@pytest.mark.parametrize("frequencies", list(COSINE_INTEGRAL_FREQUENCIES))
def test_cosine_integral_matches_the_direct_cosine_table(chi, frequencies):
    s = COSINE_INTEGRAL_FREQUENCIES[frequencies]
    for weight, lo, hi in (
        (lambda x: 2.0 * chi.value(x) ** 2, chi.plateau, chi.support),
        (lambda x: 2.0 * np.exp(-2.0 * (0.8 * x) ** 2), 0.0, chi.plateau),
    ):
        got = cylinder._cosine_integral(weight, lo, hi, s)
        assert got.shape == s.shape
        np.testing.assert_allclose(got, direct_cosine_integral(weight, lo, hi, s), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_frequencies_raise_before_any_rule_is_built(chi, bad, monkeypatch):
    def no_rule(n):
        raise AssertionError("a rule was built")

    with pytest.raises(QuadratureAccuracyError, match="non-finite"):
        cylinder.pair_trace_smeared_cyl(0.4, 0.0, chi, 8, theta_center=0.0, p_center=bad)
    monkeypatch.setattr(cylinder, "clenshaw_curtis", no_rule)
    with pytest.raises(QuadratureAccuracyError, match="non-finite"):
        chi.transform(bad)
    with pytest.raises(QuadratureAccuracyError, match="non-finite"):
        chi.transform(np.array([0.0, bad]), np.cos)
    with pytest.raises(QuadratureAccuracyError, match="non-finite"):
        cylinder.quantizer_matrix_cyl(bad, 0.0, chi, 8)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_indicator_transform_rejects_non_finite_frequencies(bad):
    # the closed form never reaches _cosine_integral, so the guard sits in transform
    sharp = cylinder.CutoffFamily(1.0, 1.0, "indicator")
    for s in (bad, np.array([0.0, 2.0, bad])):
        with pytest.raises(QuadratureAccuracyError, match="non-finite"):
            sharp.transform(s)
    with pytest.raises(QuadratureAccuracyError, match="non-finite"):
        cylinder.quantizer_matrix_cyl(bad, 0.0, sharp, 2)


def test_transform_peak_memory_stays_below_one_cosine_table(chi):
    s = np.arange(-128, 129) - 0.8  # 513 fine nodes
    chi.transform(s)  # builds and caches the rules
    tracemalloc.start()
    try:
        chi.transform(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 513 * s.size * np.dtype(float).itemsize


def test_scalar_arguments_give_floats_and_arrays_give_arrays(chi):
    assert type(chi.value(1.8)) is float
    assert type(chi.transform(1.4)) is float
    assert type(chi.transform(np.float64(1.4))) is float
    assert chi.transform(0.9, np.cos).shape == (2,)
    xs = np.array([-3.0, -1.8, 0.0, 0.8, 1.2, 2.79, 2.8])
    np.testing.assert_allclose(chi.value(xs), [chi.value(x) for x in xs], rtol=0.0, atol=1e-15)
    s = np.array([0.0, 1.4, -3.0, 17.5])
    np.testing.assert_allclose(chi.transform(s), [chi.transform(v) for v in s], rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(
        chi.transform(s, np.cos), np.transpose([chi.transform(v, np.cos) for v in s]), rtol=0.0, atol=1e-13
    )


def test_transform_refuses_rules_above_the_node_cap(chi):
    with pytest.raises(QuadratureAccuracyError, match="cap"):
        chi.transform(1e6)
    with pytest.raises(QuadratureAccuracyError):
        cylinder.quantizer_matrix_cyl(1e5, 0.0, chi, 8)


def test_coarse_fine_gap_guards_the_transform(chi, monkeypatch):
    monkeypatch.setattr(cylinder, "QUAD_TOLERANCE", 1e-18)  # below the rules' rounding
    with pytest.raises(QuadratureAccuracyError) as excinfo:
        chi.transform(np.arange(41.0))
    assert 1e-18 < excinfo.value.estimate < 1e-11


@given(s=st.floats(0, 8))
@settings(max_examples=20, deadline=None)
def test_transform_bounded_by_zero_frequency_value(s):
    fam = cylinder.CutoffFamily(0.8, 2.8)
    assert abs(fam.transform(s)) <= fam.transform(0.0) + 1e-12


# ---------------------------------------------------------------------------
# continuum kernel


def test_kernel_matrix_is_hermitian(chi):
    M = cylinder.quantizer_matrix_cyl(0.6, 1.1, chi, 12)
    assert hermiticity_defect(M) < 1e-12


def test_kernel_entry_matches_direct_integral(chi):
    M = cylinder.quantizer_matrix_cyl(0.0, 0.0, chi, 8)
    want, err = quad(
        lambda xi: 2.0 * chi.value(xi) ** 2 * math.cos(xi),
        0.0,
        chi.support,
        limit=200,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    del err
    assert M[8, 9].real == pytest.approx(want / math.pi, abs=1e-12)
    assert M[8, 9].imag == pytest.approx(0.0, abs=1e-14)


def test_raw_trace_near_one_with_wide_cutoff():
    wide = cylinder.CutoffFamily(0.8, 2.8)
    for p in (0.0, 0.77, -1.4):
        trace = cylinder.quantizer_trace_cyl(p, wide, cylinder.MAX_TRUNCATION)
        assert trace == pytest.approx(1.0, abs=1e-8)


def test_truncation_cap_enforced(chi):
    with pytest.raises(ConfigError):
        cylinder.quantizer_matrix_cyl(0.0, 0.0, chi, cylinder.MAX_TRUNCATION + 1)


@pytest.mark.parametrize("m", range(4))
def test_polynomial_reproduction(chi, m):
    X = from_expression("cos(theta)", ("theta",))
    residual = cylinder.polynomial_reproduction_check(X, m, 2.0, 0.7, chi, 16)
    assert residual < 1e-6


# repr of polynomial_reproduction_check(cos(theta), m, 2, 0.7, default cutoff, 32)
# for m = 0..4, as the residuals read before each coefficient of the operator
# matrix was evaluated once over both of its rules
REPRODUCTION_REPRS = [
    "2.2887833992611187e-16",
    "4.440892098500626e-16",
    "1.3322676295501878e-15",
    "1.9860273225978185e-15",
    "2.3364326363345898e-14",
]


def test_polynomial_reproduction_reads_its_pinned_reprs(chi):
    X = from_expression("cos(theta)", ("theta",))
    got = [repr(cylinder.polynomial_reproduction_check(X, m, 2.0, 0.7, chi, 32, 1.0)) for m in range(5)]
    assert got == REPRODUCTION_REPRS


def test_reproduction_rejects_negative_degree(chi):
    with pytest.raises(ConfigError):
        cylinder.polynomial_reproduction_check(constant(1, 1.0), -1, 0.0, 0.0, chi, 8)


def test_pair_trace_localizes_in_angle(chi):
    """Smearing against a bump shows support at coincident angles only."""
    p0, theta0 = 0.4, 0.9
    kwargs = dict(p_center=p0, theta_width=0.4, p_width=0.8)
    coincident = cylinder.pair_trace_smeared_cyl(
        p0, theta0, chi, 32, theta_center=theta0, **kwargs
    ).real
    quarter = cylinder.pair_trace_smeared_cyl(
        p0, theta0, chi, 32, theta_center=theta0 + math.pi / 2.0, **kwargs
    ).real
    assert coincident > 0.5
    assert abs(quarter) / coincident < 0.05


# the cylinder-axioms runner's smeared pair traces: (theta_center offset, K) in call order
SMEARED_SERIES = [(0.0, 64), (math.pi / 2.0, 64), (math.pi, 64)] + [
    (offset, K) for K in (16, 32, 48) for offset in (0.0, math.pi / 2.0)
]
LATTICE = dict(K=64, p=0.4, p_center=0.4, p_width=0.8, hbar=1.0)


def smeared(chi, offset=0.0, K=64, p=0.4, p_center=0.4, p_width=0.8, hbar=1.0):
    return cylinder.pair_trace_smeared_cyl(
        p, 0.9, chi, K, hbar, theta_center=0.9 + offset, p_center=p_center, theta_width=0.4, p_width=p_width
    )


def fresh_smeared(**kwargs):
    return smeared(cylinder.CutoffFamily(0.8, 2.8), **kwargs)


def bits(value: complex) -> bytes:
    return np.array(value).tobytes()


def test_the_runners_smeared_series_on_one_cutoff_equals_fresh_cutoffs_bit_for_bit():
    chi = cylinder.CutoffFamily(0.8, 2.8)
    for offset, K in SMEARED_SERIES:
        assert bits(smeared(chi, offset, K)) == bits(fresh_smeared(offset=offset, K=K))


def test_the_smeared_memo_holds_one_read_only_entry():
    chi = cylinder.CutoffFamily(0.8, 2.8)
    smeared(chi)
    key, pair = chi._smeared
    assert key == tuple(LATTICE.values())
    assert pair.shape == (2, 4 * 64 + 1)
    assert not pair.flags.writeable and not pair[0].flags.writeable
    with pytest.raises(ValueError):
        pair[1, 0] = 0.0
    last = weakref.ref(pair)
    del pair
    smeared(chi, K=16)
    gc.collect()
    assert last() is None
    assert chi._smeared[0] == (16, 0.4, 0.4, 0.8, 1.0)


@pytest.mark.parametrize(
    "part, other", [("K", 48), ("p", -0.3), ("p_center", 0.9), ("p_width", 0.5), ("hbar", 0.7)]
)
def test_switching_each_key_part_and_back_gives_the_fresh_values(part, other):
    chi = cylinder.CutoffFamily(0.8, 2.8)
    switched = {part: other}
    for kwargs in ({}, switched, {}, switched):
        for offset in (0.0, math.pi / 2.0):
            assert bits(smeared(chi, offset, **kwargs)) == bits(fresh_smeared(offset=offset, **kwargs))


def test_a_raising_call_leaves_the_memo_as_it_was():
    chi = cylinder.CutoffFamily(0.8, 2.8)
    with pytest.raises(QuadratureAccuracyError):
        smeared(chi, p_center=math.inf)
    assert chi._smeared == (None, None)
    want = bits(fresh_smeared())
    assert bits(smeared(chi)) == want
    entry = chi._smeared
    with pytest.raises(QuadratureAccuracyError):
        smeared(chi, p_center=math.inf)
    assert chi._smeared is entry
    assert bits(smeared(chi, math.pi / 2.0)) == bits(fresh_smeared(offset=math.pi / 2.0))
    assert bits(smeared(chi)) == want


@pytest.mark.parametrize("width", [0.0, -0.8, math.nan, math.inf, True])
def test_a_width_that_is_not_positive_and_finite_is_refused_before_the_memo_is_read(width):
    chi = cylinder.CutoffFamily(0.8, 2.8)

    def call(**widths):
        kwargs = dict(theta_center=0.9, p_center=0.4, theta_width=0.4, p_width=0.8) | widths
        return cylinder.pair_trace_smeared_cyl(0.4, 0.9, chi, 64, 1.0, **kwargs)

    for bad in (dict(p_width=width), dict(theta_width=width)):
        with pytest.raises(ConfigError, match="width"):
            call(**bad)
    assert chi._smeared == (None, None)
    assert bits(call()) == bits(fresh_smeared())
    entry = chi._smeared
    for bad in (dict(p_width=width), dict(theta_width=width)):
        with pytest.raises(ConfigError, match="width"):
            call(**bad)
    assert chi._smeared is entry
    with pytest.raises(ConfigError, match="width"):
        cylinder.periodic_test_function(0.9, width)


def test_equal_cutoffs_stay_equal_after_one_fills_its_memo():
    filled, fresh = cylinder.CutoffFamily(0.8, 2.8), cylinder.CutoffFamily(0.8, 2.8)
    smeared(filled)
    assert filled == fresh and hash(filled) == hash(fresh) and repr(filled) == repr(fresh)
    assert repr(fresh) == "CutoffFamily(plateau=0.8, support=2.8, profile='smoothstep')"
    assert len({filled, fresh}) == 1
    assert filled != cylinder.CutoffFamily(0.8, 2.7)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_a_non_finite_theta_is_refused_before_the_memo_is_read(theta):
    chi = cylinder.CutoffFamily(0.8, 2.8)
    call = dict(p=0.4, theta=theta, chi=chi, K=64, hbar=1.0, theta_center=0.9, p_center=0.4)
    with pytest.raises(ConfigError, match="theta"):
        cylinder.pair_trace_smeared_cyl(**call)
    assert chi._smeared == (None, None)
    smeared(chi)
    entry = chi._smeared
    with pytest.raises(ConfigError, match="theta"):  # a filled memo is not read either
        cylinder.pair_trace_smeared_cyl(**call)
    assert chi._smeared is entry


# repr of each of the cylinder-axioms runner's nine smeared pair traces on one
# default cutoff, as they read before a pair at equal frequencies shared its
# transition tables; sharing them must keep every bit
SMEARED_SERIES_REPRS = [
    "(0.9741413129615574-8.294751723398339e-18j)",
    "(0.0018556549634531287+3.374673328859916e-17j)",
    "(-0.012884661476590807+3.6164843324648986e-18j)",
    "(0.9741413128902771-1.4404217283094207e-17j)",
    "(0.0018556549651238563+4.499564438479888e-17j)",
    "(0.9741413129615547-2.9036994621647314e-17j)",
    "(0.0018556549634531623+3.374673328859916e-17j)",
    "(0.9741413129615574-1.7193840102221555e-17j)",
    "(0.00185565496345314+3.374673328859916e-17j)",
]


def test_the_runners_smeared_series_reads_its_pinned_reprs():
    chi = cylinder.CutoffFamily(0.8, 2.8)
    assert [repr(smeared(chi, offset, K)) for offset, K in SMEARED_SERIES] == SMEARED_SERIES_REPRS


def counted_cosine_integrals(monkeypatch) -> list:
    intervals, integral = [], cylinder._cosine_integral

    def counted(weight, lo, hi, s):
        intervals.append((lo, hi))
        return integral(weight, lo, hi, s)

    monkeypatch.setattr(cylinder, "_cosine_integral", counted)
    return intervals


def test_a_smeared_pair_at_equal_frequencies_integrates_its_transition_once(monkeypatch):
    intervals = counted_cosine_integrals(monkeypatch)
    transforms, transform = [], cylinder.CutoffFamily.transform

    def counted(self, s, *envelopes):
        transforms.append(len(envelopes))
        return transform(self, s, *envelopes)

    monkeypatch.setattr(cylinder.CutoffFamily, "transform", counted)
    chi = cylinder.CutoffFamily(0.8, 2.8)
    smeared(chi)
    assert intervals == [(0.0, 0.8), (0.8, 2.8)]  # the weighted plateau, then both transitions
    assert transforms == [1]  # one transform with the envelope
    intervals.clear()
    smeared(chi, math.pi / 2.0)  # a memo hit
    assert intervals == [] and transforms == [1]
    smeared(chi, p_center=-0.3)  # unequal frequencies: the plain transform again at p
    assert intervals == [(0.0, 0.8), (0.8, 2.8), (0.8, 2.8)]
    assert transforms == [1, 1, 0]


# SHA-256 of the (plain, weighted) pair at frequencies s and s + shift, as the
# transform and the weighted transform gave it when each was its own method
TRANSFORM_PAIR_SHA256 = {
    ("smoothstep", 0.0): "6256aca6b409110a4fb98c7b668faf569383dfcfe3a164ad2434142b56aa42dc",
    ("smoothstep", 0.7): "b90f078c5b02cd51de1e508e3e44c3886f24f93746be0160faad39db87fc91f9",
    ("classic-bump", 0.0): "3c04205bc0e04d52d9a9987088a7cbc188aaffaef3ad0ad3a8d7de89286a337b",
    ("classic-bump", 0.7): "929f3491fb93da3b31606b18981e4d6e093192a1e4bda1b54dee0b0ea6af070a",
    ("indicator", 0.0): "a87a61c287be495390720794123f1f6bebfa674a307a5bab8e6e29fede494e49",
    ("indicator", 0.7): "1870932bb8e2afe8a4856286c0bfbbfc66e3583318832f7dde49edf2bcec3e2b",
}


@pytest.mark.parametrize(
    "profile, plateau, support", [("smoothstep", 0.8, 2.8), ("classic-bump", 1.0, 1.4), ("indicator", 1.0, 1.0)]
)
@pytest.mark.parametrize("shift", [0.0, 0.7])
def test_transform_pair_equals_the_two_transforms_bit_for_bit(profile, plateau, support, shift):
    family = cylinder.CutoffFamily(plateau, support, profile)
    s = np.arange(-64, 65) - 0.8

    def envelope(x):
        return 2.0 * np.exp(-2.0 * (0.8 * x) ** 2)

    pair = family.transform(s + shift, envelope)
    assert pair.shape == (2,) + s.shape
    assert pair[0].tobytes() == family.transform(s + shift).tobytes()  # the plain row is the lone transform
    pair[0] = family.transform(s)
    assert hashlib.sha256(pair.tobytes()).hexdigest() == TRANSFORM_PAIR_SHA256[profile, shift]


def test_cosine_integral_stacks_weights_bit_for_bit(chi):
    s = COSINE_INTEGRAL_FREQUENCIES["K64-lattice"]
    rows = [lambda x: 2.0 * chi.value(x) ** 2, lambda x: np.exp(-2.0 * (0.8 * x) ** 2)]
    stacked = cylinder._cosine_integral(lambda x: np.stack([w(x) for w in rows]), 0.8, 2.8, s)
    assert stacked.shape == (2,) + s.shape
    for got, weight in zip(stacked, rows):
        assert got.tobytes() == cylinder._cosine_integral(weight, 0.8, 2.8, s).tobytes()


def test_periodic_test_function_properties():
    t = cylinder.periodic_test_function(0.9, 0.5)
    assert t(np.array([0.9]))[0] == pytest.approx(1.0)
    assert t(np.array([0.9 + 2 * math.pi]))[0] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ConfigError):
        cylinder.periodic_test_function(0.0, 0.0)


@pytest.mark.parametrize("nodes, mmax", [(512, 20), (64, 26), (16, 10)])
def test_fourier_coefficients_match_the_direct_trapezoid_sum(nodes, mmax):
    # (16, 10) asks for more coefficients than the grid resolves: the FFT
    # entries repeat with period 16, as the phases of the direct sum do
    grid = -math.pi + 2.0 * math.pi * np.arange(nodes) / nodes
    np.testing.assert_array_equal(bases.angle_grid(nodes), grid)
    phases = np.exp(-1j * np.outer(np.arange(-mmax, mmax + 1), grid))
    t = cylinder.periodic_test_function(0.9, 0.4)
    rows = np.array([t(grid), np.cos(3.0 * grid) + 1j * np.sin(grid) ** 2])  # a real and a complex sample row
    got = bases.fourier_coefficients(rows, mmax)
    assert got.shape == (2, 2 * mmax + 1)
    # the direct sum's phases e^{-i m theta} round at |m theta| up to 26 pi,
    # which leaves about 1e-15 in its own entries
    np.testing.assert_allclose(got, rows @ phases.T / nodes, rtol=0.0, atol=4e-15)
    np.testing.assert_array_equal(bases.fourier_coefficients(rows[0], mmax), got[0])


# ---------------------------------------------------------------------------
# discrete lattice kernel


def test_discrete_quantizer_closed_form():
    K, n, theta = 16, 2, 0.7
    M = cylinder.discrete_quantizer(n, theta, K)
    center = K + n
    # diagonal is a one-hot at the lattice momentum
    want = np.zeros(2 * K + 1)
    want[center] = 1.0
    np.testing.assert_allclose(np.diag(M).real, want, atol=1e-12)
    # first band carries (2/pi) e^{i theta}
    assert M[center, center + 1] == pytest.approx(
        (2.0 / math.pi) * np.exp(1j * theta), abs=1e-12
    )
    assert np.trace(M) == pytest.approx(1.0, abs=1e-12)
    assert hermiticity_defect(M) < 1e-12


def test_discrete_limit_errors_strictly_decrease():
    errors = cylinder.discrete_limit_check(3, 1.1, 32)
    assert len(errors) == 4
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_indicator_cutoff_reproduces_discrete_kernel():
    fam = cylinder.CutoffFamily(math.pi / 2.0, math.pi / 2.0, profile="indicator")
    continuum = cylinder.quantizer_matrix_cyl(3.0, 1.1, fam, 16)
    lattice = cylinder.discrete_quantizer(3, 1.1, 16)
    np.testing.assert_allclose(continuum, lattice, atol=1e-12)


def test_discrete_pair_trace_grows_linearly_in_truncation():
    same16 = cylinder.discrete_pair_trace(3, 3, 1.3, 1.3, 16).real
    same32 = cylinder.discrete_pair_trace(3, 3, 1.3, 1.3, 32).real
    assert same32 / same16 == pytest.approx(65.0 / 33.0, rel=0.2)


def test_smeared_diagonal_recovers_test_function():
    t = cylinder.periodic_test_function(0.9, 0.5)
    theta0 = 1.3
    got = cylinder.discrete_pair_trace_smeared(3, 3, theta0, t, 64).real
    want = 2.0 * math.pi * t(np.array([theta0]))[0]
    assert got == pytest.approx(want, rel=0.01)


def test_smeared_off_diagonal_is_suppressed():
    t = cylinder.periodic_test_function(0.9, 0.5)
    diag = cylinder.discrete_pair_trace_smeared(3, 3, 1.3, t, 64).real
    off = abs(cylinder.discrete_pair_trace_smeared(3, 6, 1.3, t, 64))
    assert off / abs(diag) < 0.05


def test_smeared_flat_function_gives_two_pi():
    flat = lambda angles: np.ones_like(angles, dtype=float)
    got = cylinder.discrete_pair_trace_smeared(2, 2, 0.4, flat, 48).real
    assert got == pytest.approx(2.0 * math.pi, abs=1e-8)


# ---------------------------------------------------------------------------
# quantization on the lattice


def test_momentum_functions_quantize_diagonally():
    for fn, label in (
        (lambda p, th: p, "p"),
        (lambda p, th: p * p, "p^2"),
    ):
        M = cylinder.discrete_quantize(fn, 16, 12)
        off = M - np.diag(np.diag(M))
        assert np.max(np.abs(off)) < 1e-12, label
        ks = np.arange(-12, 13, dtype=float)
        np.testing.assert_allclose(np.diag(M).real, [fn(k, 0.0) for k in ks], atol=1e-12)


def test_quantize_momentum_scales_with_hbar():
    M = cylinder.discrete_quantize(lambda p, th: p, 8, 6, hbar=0.5)
    ks = np.arange(-6, 7, dtype=float)
    np.testing.assert_allclose(np.diag(M).real, 0.5 * ks, atol=1e-12)


def test_quantize_warns_when_angle_variation_reaches_cap():
    with pytest.warns(UserWarning):
        cylinder.discrete_quantize(lambda p, th: math.cos(th), 2, 6)


def test_quantize_rejects_negative_cap():
    with pytest.raises(ConfigError):
        cylinder.discrete_quantize(lambda p, th: p, -1, 6)
