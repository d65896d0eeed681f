"""End-to-end acceptance checks, one per shipped guarantee.

Each test measures one headline property of the calculus at its published
tolerance and emits a single ``[PASS]``/``[FAIL]`` line (shown with
``pytest -s``, or in the captured output on failure), so the suite doubles
as a human-readable checklist.  The checks intentionally re-derive their
references instead of importing them from the experiment harness.
"""

import math

import numpy as np

from conftest import random_symbol
from phasequant import curved, cylinder, flat_weyl, geometry, numdiff
from phasequant.bases import FourierBasis, HermiteBasis
from phasequant.cylinder import CutoffFamily
from phasequant.fields import (
    add as field_add,
    constant as constant_field,
    from_expression,
    tensor_from_fields,
)
from phasequant.symbols import (
    MomentumPolynomial,
    OrderingScheme,
    delta_apply,
    flat_chart_delta_value,
    hermiticity_defect,
    operator_matrix,
    ordering_scheme,
    symbol_from_config,
)

SEED = 20260814


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _operator_gap(first, second, points) -> float:
    worst = 0.0
    for order in set(first.terms) | set(second.terms):
        for q in points:
            a = np.asarray(first.terms[order].evaluate(q)) if order in first.terms else 0.0
            b = np.asarray(second.terms[order].evaluate(q)) if order in second.terms else 0.0
            worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


def _cubic(rng):
    coeffs = [float(v) for v in rng.uniform(-1.0, 1.0, size=4)]
    source = " + ".join(f"({c!r})*x**{k}" if k else f"({c!r})" for k, c in enumerate(coeffs))
    return from_expression(source, ("x",)), np.polynomial.Polynomial(coeffs)


def test_01_flat_symmetric_image_and_inverse():
    rng = np.random.default_rng(SEED)
    probes = (-0.7, 0.2, 0.9)
    model = geometry.euclidean_space(1)

    # Closed form for one-dimensional monomials X(x) p^m: the derivative
    # order m-k carries the coefficient (-i hbar)^m C(m,k) 2^-k X^(k).
    worst_coeff = 0.0
    for m in range(4):
        field, poly = _cubic(rng)
        tensor = tensor_from_fields(1, m, lambda idx, f=field: f)
        D = curved.wue_weyl_image(model, MomentumPolynomial(1, {m: tensor}))
        for k in range(m + 1):
            weight = (-1j) ** m * math.comb(m, k) * 0.5**k
            deriv = poly.deriv(k) if k else poly
            for x in probes:
                got = np.asarray(D.terms[m - k].evaluate(np.array([x]))).reshape(-1)[0]
                worst_coeff = max(worst_coeff, abs(complex(got) - weight * deriv(x)))

    weyl = ordering_scheme("weyl")
    worst_rt = 0.0
    for _ in range(20):
        f = random_symbol(rng)
        D = flat_weyl.a_image_flat(weyl, f, model)
        p = rng.uniform(-1.5, 1.5, size=1)
        x = rng.uniform(-1.0, 1.0, size=1)
        worst_rt = max(
            worst_rt, abs(flat_weyl.dequantize_flat(weyl, D, p, x, model=model) - f.evaluate(p, x))
        )

    ok = worst_coeff < 1e-12 and worst_rt < 1e-12
    _report(
        "flat-image-and-inverse",
        ok,
        f"coefficient error {worst_coeff:.2e}, round-trip error {worst_rt:.2e} (tol 1e-12)",
    )


def test_02_ordering_family_consistency():
    rng = np.random.default_rng(SEED + 2)
    model = geometry.euclidean_space(1)
    circle = geometry.circle()
    probes = [np.array([v]) for v in (-0.8, 0.1, 0.7)]

    unit_gap = 0.0
    for _ in range(3):
        f = random_symbol(rng)
        unit_gap = max(
            unit_gap,
            _operator_gap(
                curved.wue_weyl_image(model, f),
                flat_weyl.a_image_flat(ordering_scheme("weyl"), f, model),
                probes,
            ),
        )

    standard_gap = 0.0
    for degree in range(4):
        field, _ = _cubic(rng)
        tensor = tensor_from_fields(1, degree, lambda idx, f=field: f)
        f = MomentumPolynomial(1, {degree: tensor})
        standard_gap = max(
            standard_gap,
            _operator_gap(
                curved.wue_standard_image(model, f),
                flat_weyl.a_image_flat(ordering_scheme("standard"), f, model),
                probes,
            ),
        )

    scheme = OrderingScheme((1.0, 0.35, -0.15, 0.05, 0.0), name="real-demo")
    coeff = from_expression("0.4 + 0.9*x + 0.25*x**2", ("x",))
    real_defect = 0.0
    for degree in (1, 2):
        f = MomentumPolynomial(1, {degree: tensor_from_fields(1, degree, lambda idx: coeff)})
        D = flat_weyl.a_image_flat(scheme, f, model)
        real_defect = max(
            real_defect, hermiticity_defect(operator_matrix(model, D, HermiteBasis(), 16))
        )

    cos_p = symbol_from_config(circle, {"coefficient": "cos-theta", "degree": 1})
    D = curved.wue_standard_image(circle, cos_p)
    standard_defect = hermiticity_defect(operator_matrix(circle, D, FourierBasis(), 16))

    ok = (
        unit_gap < 1e-12
        and standard_gap < 1e-13
        and real_defect < 1e-9
        and standard_defect > 1e-9
    )
    _report(
        "ordering-consistency",
        ok,
        f"unit-vs-symmetric {unit_gap:.2e}, standard preset {standard_gap:.2e}, "
        f"real-coefficient hermiticity {real_defect:.2e} (tol 1e-9), "
        f"standard-ordered defect {standard_defect:.3f} (> 0 required)",
    )


def test_03_curved_kinetic_golden_operator():
    model = geometry.manifold("sphere:1.0")
    probes = [np.array([1.1, 0.4]), np.array([1.9, -0.9])]

    f2 = symbol_from_config(model, {"coefficient": "inverse-metric", "degree": 2})
    D2 = curved.wue_weyl_image(model, f2)
    coeff_gap = 0.0
    for q in probes:
        scalar_curv = float(
            np.tensordot(geometry.inverse_metric(model, q), geometry.ricci(model, q), 2)
        )
        term0 = complex(np.asarray(D2.terms[0].evaluate(q)))
        coeff_gap = max(coeff_gap, abs(-term0.real / scalar_curv - 1.0 / 12.0))

    f = curved.kinetic_symbol(model)
    D = curved.wue_weyl_image(model, f)
    residual = 0.0
    for q in probes:
        for order, tensor in D.terms.items():
            values = np.asarray(tensor.evaluate(q))
            want = -geometry.inverse_metric(model, q) if order == 2 else np.zeros_like(values)
            residual = max(residual, float(np.max(np.abs(values - want))))

    ok = coeff_gap < 1e-6 and residual < 1e-8
    _report(
        "curved-kinetic-operator",
        ok,
        f"curvature-coefficient error {coeff_gap:.2e} (tol 1e-6), "
        f"kinetic-image residual {residual:.2e} (tol 1e-8)",
    )


def test_04_trace_axiom_defect():
    model = geometry.manifold("sphere:1.0")
    q0 = np.array([1.1, 0.4])
    p0 = np.array([0.3, -0.55])
    f = symbol_from_config(model, {"coefficient": "inverse-metric", "degree": 2})

    defect = curved.axiom_defect(model, f, p0, q0).real
    value_rel = abs(defect - 2.0 / 3.0) / (2.0 / 3.0)

    scan = [
        curved.axiom_defect(model, f, t * p0, q0).real
        for t in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)
    ]
    spread = max(scan) - min(scan)

    big = geometry.manifold("sphere:2.0")
    f_big = symbol_from_config(big, {"coefficient": "inverse-metric", "degree": 2})
    defect_big = curved.axiom_defect(big, f_big, p0, q0).real
    radius_rel = abs(defect_big - defect / 4.0) / abs(defect / 4.0)

    flat_worst = 0.0
    for name, q in (("euclidean:2", np.array([0.3, -0.8])), ("polar-plane", np.array([1.2, 0.5]))):
        mdl = geometry.manifold(name)
        ff = symbol_from_config(mdl, {"coefficient": "inverse-metric", "degree": 2})
        flat_worst = max(flat_worst, abs(curved.axiom_defect(mdl, ff, np.array([0.7, 0.2]), q)))

    emmrich = abs(curved.axiom_defect(model, f, p0, q0, measure_variant="emmrich"))

    ok = (
        value_rel < 1e-4
        and spread < 1e-6
        and radius_rel < 1e-3
        and flat_worst < 1e-8
        and emmrich > 0.1
    )
    _report(
        "trace-axiom-defect",
        ok,
        f"value 2/3 rel {value_rel:.2e} (tol 1e-4), p-spread {spread:.2e} (tol 1e-6), "
        f"radius-scaling rel {radius_rel:.2e} (tol 1e-3), flat {flat_worst:.2e} (tol 1e-8), "
        f"emmrich {emmrich:.3f} (> 0.1 required)",
    )


def test_05_chart_covariance_of_momentum_shift():
    rng = np.random.default_rng(SEED + 5)
    polar = geometry.polar_plane()
    r, phi = polar.coordinate_names

    def smooth():
        c = [float(v) for v in rng.uniform(-1.0, 1.0, size=4)]
        return from_expression(
            f"({c[0]!r}) + ({c[1]!r})*{r} + ({c[2]!r})*sin({phi}) + ({c[3]!r})*{r}*cos({phi})",
            (r, phi),
        )

    raw = [[smooth() for _ in range(2)] for _ in range(2)]
    f = MomentumPolynomial(
        2,
        {
            0: smooth(),
            1: tensor_from_fields(2, 1, lambda idx: smooth()),
            2: tensor_from_fields(2, 2, lambda idx: field_add(raw[idx[0]][idx[1]], raw[idx[1]][idx[0]])),
        },
    )
    derived = delta_apply(polar, f)

    def to_cartesian(q):
        return np.array([q[0] * math.cos(q[1]), q[0] * math.sin(q[1])])

    def from_cartesian(xy):
        return np.array([math.hypot(xy[0], xy[1]), math.atan2(xy[1], xy[0])])

    chart_gap = 0.0
    for _ in range(20):
        q = np.array([rng.uniform(0.6, 1.8), rng.uniform(-2.5, 2.5)])
        p = rng.uniform(-1.2, 1.2, size=2)
        direct = derived.evaluate(p, q)
        conjugated = flat_chart_delta_value(f, numdiff.pointwise(to_cartesian), numdiff.pointwise(from_cartesian), p, q)
        chart_gap = max(chart_gap, abs(direct - conjugated))

    radial = MomentumPolynomial(2, {1: constant_field(2, np.array([1.0, 0.0]))})
    shifted = delta_apply(polar, radial)
    shift_gap = max(
        abs(shifted.evaluate(np.array([0.3, -0.7]), np.array([rad, 0.4])).real + 1.0 / rad)
        for rad in (0.5, 1.0, 2.0)
    )

    ok = chart_gap < 1e-6 and shift_gap < 1e-8
    _report(
        "chart-covariance",
        ok,
        f"polar-vs-cartesian {chart_gap:.2e} over 20 draws (tol 1e-6), "
        f"radial shift -1/r {shift_gap:.2e} (tol 1e-8)",
    )


def test_06_cylinder_kernel_axioms():
    one = constant_field(1, 1.0)
    cos_theta = from_expression("cos(theta)", ("theta",))
    families = (
        CutoffFamily(0.8, 2.8),
        CutoffFamily(1.2, 2.2, "classic-bump"),
        CutoffFamily.mollifier(2),
    )

    trace_gap = 0.0
    for chi in families:
        for p, theta in ((0.77, 0.3), (-1.4, -2.0)):
            trace_gap = max(
                trace_gap, cylinder.polynomial_reproduction_check(one, 0, p, theta, chi, 32)
            )

    chi = families[0]
    residuals = [
        cylinder.polynomial_reproduction_check(cos_theta, m, 2.0, 0.7, chi, 32)
        for m in range(5)
    ]
    other = CutoffFamily.mollifier(2)
    agreement = abs(
        residuals[2] - cylinder.polynomial_reproduction_check(cos_theta, 2, 2.0, 0.7, other, 32)
    )

    ok = trace_gap < 1e-8 and max(residuals) < 1e-6 and agreement < 1e-6
    _report(
        "cylinder-kernel-axioms",
        ok,
        f"trace deviation {trace_gap:.2e} over 3 cutoffs (tol 1e-8), "
        f"reproduction residual {max(residuals):.2e} for degree <= 4 (tol 1e-6), "
        f"cutoff agreement {agreement:.2e} (tol 1e-6)",
    )


def test_07_pair_trace_is_not_a_double_delta():
    chi = CutoffFamily(0.8, 2.8)
    theta0, p0 = 0.9, 0.4
    theta_width = 0.4

    def smeared(offset: float) -> float:
        return cylinder.pair_trace_smeared_cyl(
            p0,
            theta0,
            chi,
            64,
            theta_center=theta0 + offset,
            p_center=p0,
            theta_width=theta_width,
            p_width=0.8,
        ).real

    coincident = smeared(0.0)
    quarter = smeared(math.pi / 2.0)
    antipodal = smeared(math.pi)
    ratio = abs(quarter) / abs(coincident)

    # A genuine double-delta pair trace would follow the smearing profile,
    # which at the antipode is exp((cos(pi) - 1) / width^2) of the coincident
    # value; the kernel instead keeps real support there.
    delta_prediction = math.exp((math.cos(math.pi) - 1.0) / theta_width**2)
    mismatch = abs(antipodal / coincident - delta_prediction)

    ok = ratio < 0.05 and mismatch > 10.0 * cylinder.QUAD_TOLERANCE
    _report(
        "pair-trace-localization",
        ok,
        f"quarter/coincident {ratio:.2e} (< 0.05), "
        f"delta-model mismatch {mismatch:.2e} (> {10.0 * cylinder.QUAD_TOLERANCE:.0e} required)",
    )


def test_08_discrete_kernel_is_the_cutoff_limit():
    rng = np.random.default_rng(SEED + 8)

    monotone = True
    worst_final = 0.0
    for _ in range(5):
        n = int(rng.integers(-3, 4))
        theta = float(rng.uniform(-math.pi, math.pi))
        errors = cylinder.discrete_limit_check(n, theta, 32)
        monotone = monotone and bool(np.all(np.diff(errors) < 0.0))
        worst_final = max(worst_final, float(errors[-1]))

    t = cylinder.periodic_test_function(0.9, 0.5)
    n0, theta0 = 3, 1.3
    diagonal = cylinder.discrete_pair_trace_smeared(n0, n0, theta0, t, 64).real
    off = abs(cylinder.discrete_pair_trace_smeared(n0, n0 + 3, theta0, t, 64))
    diag_rel = abs(diagonal - 2.0 * math.pi * t(theta0)) / (2.0 * math.pi * t(theta0))
    off_ratio = off / abs(diagonal)

    ok = monotone and off_ratio < 0.05 and diag_rel < 0.01
    _report(
        "discrete-kernel-limit",
        ok,
        f"ladder strictly decreasing over 5 draws: {monotone} (final error {worst_final:.2e}), "
        f"off-diagonal ratio {off_ratio:.2e} (< 0.05), diagonal 2*pi*t rel {diag_rel:.2e} (< 0.01)",
    )


def test_09_momentum_functions_quantize_diagonally():
    hbar = 1.0
    functions = (
        lambda p, theta: p,
        lambda p, theta: p * p,
        lambda p, theta: math.cos(p * math.pi / hbar),
    )

    worst_off = 0.0
    worst_diag = 0.0
    for fn in functions:
        matrix = cylinder.discrete_quantize(fn, 16, 12, hbar)
        ks = np.arange(-12, 13)
        diag = np.diag(matrix)
        want = np.array([fn(k * hbar, 0.0) for k in ks], dtype=complex)
        worst_diag = max(worst_diag, float(np.max(np.abs(diag - want))))
        worst_off = max(worst_off, float(np.max(np.abs(matrix - np.diag(diag)))))

    ok = worst_off < 1e-12 and worst_diag < 1e-12
    _report(
        "momentum-function-diagonality",
        ok,
        f"off-diagonal {worst_off:.2e}, sample mismatch {worst_diag:.2e} (tol 1e-12)",
    )


def test_10_geometry_substrate():
    unit = geometry.manifold("sphere:1.0")
    q0 = np.array([1.1, 0.4])

    ricci_gap = max(
        float(np.max(np.abs(geometry.ricci(unit, q) - geometry.metric(unit, q))))
        for q in (q0, np.array([2.0, -1.3]))
    )

    jets = geometry.sqrt_g_jet(unit, q0, 2, method="numeric")
    density_gap = float(np.max(np.abs(jets[2] + geometry.ricci_in_frame(unit, q0) / 3.0)))

    names = unit.coordinate_names
    psi = from_expression(f"sin({names[0]})*cos({names[1]}) + 0.3*cos({names[0]})", names)
    pulled = geometry.pullback_jet(unit, psi, q0, 3)
    pullback_gap = 0.0
    for k in range(4):
        frame = geometry.sym_cov_deriv_in_frame(unit, psi, q0, k)
        pullback_gap = max(pullback_gap, float(np.max(np.abs(pulled[k] - frame))))

    ok = ricci_gap < 1e-6 and density_gap < 1e-5 and pullback_gap < 1e-5
    _report(
        "geometry-substrate",
        ok,
        f"curvature-vs-metric {ricci_gap:.2e} (tol 1e-6), "
        f"density jet +R/3 {density_gap:.2e} (tol 1e-5), "
        f"pullback-vs-covariant {pullback_gap:.2e} for k <= 3 (tol 1e-5)",
    )
