"""Tests for the cone verifier: quadrature, kernel integrals, margin checks.

Expected values come from independent oracles: adaptive quadrature
(scipy.integrate.dblquad in vertex-polar coordinates), closed forms for
radial/linear fields, and hand-derived angular means.  The catalog sweep is
the acceptance workhorse: every bound must hold on every (field, cone,
exponent) instance with slack 1e-9.
"""
from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import qmc

import oscbound
from oscbound import (
    INF,
    AnalyticField,
    ConeSpec,
    ExponentPair,
    QuadratureRule,
    catalog_cones,
    catalog_fields,
    cone_average,
    cone_measure,
    cone_samples,
    default_exponent_grid,
    lp_norm_cone,
    riesz_potential,
    run_cone_sweep,
    scale_field,
    verify_interpolation_cone,
    verify_morrey_cone,
    verify_pointwise_cone,
)
from oscbound.cones import _halton
from oscbound.errors import DomainError, GeometryError


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def make_cone(dim=2, theta=math.pi / 4, a=1.0, vertex=None, axis=None) -> ConeSpec:
    if vertex is None:
        vertex = [0.3, -0.2, 0.1][:dim]
    if axis is None:
        axis = [1.0, 2.0, -1.0][:dim]
    return ConeSpec(vertex=np.array(vertex, dtype=float),
                    axis=np.array(axis, dtype=float), theta=theta, height=a)


# --------------------------------------------------------------------------
# independent oracles (2-d adaptive quadrature in vertex-polar coordinates)
# --------------------------------------------------------------------------

def riesz_oracle_2d(cone: ConeSpec, grad_mag, weighted: bool) -> float:
    psi0 = math.atan2(cone.axis[1], cone.axis[0])
    a = cone.height

    def integrand(s, phi):
        y = cone.vertex + s * np.array([math.cos(phi), math.sin(phi)])
        w = (a**2 - s**2) / 2.0 if weighted else 1.0
        # kernel s^{1-N} times Jacobian s^{N-1} = 1 for N = 2
        return grad_mag(y[None, :])[0] * w

    val, err = integrate.dblquad(integrand, psi0 - cone.theta, psi0 + cone.theta,
                                 0.0, a, epsabs=1e-13, epsrel=1e-12)
    return val / cone_measure(cone)


def average_oracle_2d(cone: ConeSpec, value) -> float:
    psi0 = math.atan2(cone.axis[1], cone.axis[0])

    def integrand(s, phi):
        y = cone.vertex + s * np.array([math.cos(phi), math.sin(phi)])
        return value(y[None, :])[0] * s

    val, err = integrate.dblquad(integrand, psi0 - cone.theta, psi0 + cone.theta,
                                 0.0, cone.height, epsabs=1e-13, epsrel=1e-12)
    return val / cone_measure(cone)


def field_by_label(label: str, dim: int = 2) -> AnalyticField:
    for f in catalog_fields(dim):
        if f.label == label:
            return f
    raise KeyError(label)


# --------------------------------------------------------------------------
# quadrature rule
# --------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 4, math.pi / 2])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_rule_weights_sum_to_cone_measure(dim, theta, a):
    cone = make_cone(dim, theta, a)
    rule = QuadratureRule.build(cone)
    assert rel_err(float(np.sum(rule.weights)), cone_measure(cone)) < 1e-13
    assert rule.count == rule.points.shape[0] == rule.radii.size


def test_rule_nodes_lie_inside_cone():
    for dim in (2, 3):
        cone = make_cone(dim, theta=math.pi / 5, a=1.3)
        rule = QuadratureRule.build(cone)
        rel = rule.points - cone.vertex
        dist = np.linalg.norm(rel, axis=1)
        assert np.all(dist <= cone.height + 1e-12)
        assert np.allclose(dist, rule.radii, rtol=1e-12, atol=1e-12)
        cosang = (rel @ cone.axis) / dist
        assert np.all(cosang >= math.cos(cone.theta) - 1e-12)


def test_rule_polynomial_exactness_2d():
    cone = make_cone(2, theta=math.pi / 3 / 2, a=1.7)
    rule = QuadratureRule.build(cone, n_radial=20, n_angular=24)

    def poly(y):
        return y[:, 0] ** 2 + 0.5 * y[:, 0] * y[:, 1] - y[:, 1] + 2.0

    got = float(np.sum(rule.weights * poly(rule.points))) / cone_measure(cone)
    want = average_oracle_2d(cone, poly)
    assert rel_err(got, want) < 1e-12


def test_rule_radial_moment_exactness_3d():
    # average of |y - x|^2 over the cone is N a^2 / (N + 2), any dimension
    cone = make_cone(3, theta=0.7, a=1.4)
    rule = QuadratureRule.build(cone)
    got = float(np.sum(rule.weights * rule.radii**2)) / cone_measure(cone)
    assert rel_err(got, 3.0 * cone.height**2 / 5.0) < 1e-13


def test_rule_angular_moment_exactness_3d():
    # mean of cos^2(beta) over the spherical cap is (1 - cos^3) / (3 (1 - cos))
    cone = make_cone(3, theta=0.9, a=1.0)
    rule = QuadratureRule.build(cone)
    rel = rule.points - cone.vertex
    c2 = ((rel @ cone.axis) / rule.radii) ** 2
    got = float(np.sum(rule.weights * rule.radii**2 * c2)) / cone_measure(cone)
    ct = math.cos(cone.theta)
    want = (3.0 * cone.height**2 / 5.0) * (1.0 - ct**3) / (3.0 * (1.0 - ct))
    assert rel_err(got, want) < 1e-13


def test_rule_for_other_cone_rejected():
    cone = make_cone(2)
    other = make_cone(2, a=2.0)
    rule = QuadratureRule.build(other)
    field = field_by_label("quad_radial")
    with pytest.raises(DomainError):
        riesz_potential(cone, field, rule=rule)


def test_halton_samples_fill_cone():
    for dim in (2, 3):
        cone = make_cone(dim, theta=0.6, a=1.2)
        pts = cone_samples(cone, 3000)
        rel = pts - cone.vertex
        dist = np.linalg.norm(rel, axis=1)
        assert np.all(dist <= cone.height + 1e-12)
        inner = np.divide(rel @ cone.axis, dist,
                          out=np.ones_like(dist), where=dist > 0)
        assert np.all(inner >= math.cos(cone.theta) - 1e-9)
        # deterministic
        assert np.array_equal(pts, cone_samples(cone, 3000))


@pytest.mark.parametrize("dim", [2, 3])
def test_halton_matches_scipy_unscrambled(dim):
    want = qmc.Halton(d=dim, scramble=False).random(10_000)
    assert np.array_equal(_halton(10_000, dim), want)


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize"])
def test_cli_import_skips_scipy_module(module):
    src = os.path.dirname(os.path.dirname(oscbound.__file__))
    code = f"import sys, oscbound.cli; print({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          check=True)
    assert done.stdout.strip() == "False"


# --------------------------------------------------------------------------
# field catalog
# --------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_catalog_fields_pass_gradient_self_check(dim):
    fields = catalog_fields(dim)
    assert len(fields) >= 20
    assert len({f.label for f in fields}) == len(fields)
    for f in fields:
        worst = f.self_check(dim)
        assert worst <= 1e-6


def test_self_check_catches_wrong_gradient():
    bad = AnalyticField("bad",
                        lambda y: y[:, 0] ** 2,
                        lambda y: 3.0 * y)  # should be 2 y e0
    with pytest.raises(DomainError):
        bad.self_check(2)


# --------------------------------------------------------------------------
# kernel integrals: closed forms and adaptive-quadrature oracles
# --------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_riesz_constant_gradient_closed_forms(dim):
    # |grad f| = m everywhere: plain kernel integral is m N / a^{N-1},
    # weighted is m a N / (N + 1)
    field = field_by_label("affine_mix", dim)
    m = float(np.linalg.norm(field.gradient(np.zeros((1, dim)))[0]))
    for cone in catalog_cones(dim):
        a, N = cone.height, dim
        plain = riesz_potential(cone, field, weighted=False)
        weighted = riesz_potential(cone, field, weighted=True)
        assert rel_err(plain, m * N / a ** (N - 1)) < 1e-8
        assert rel_err(weighted, m * a * N / (N + 1)) < 1e-8


def test_riesz_matches_adaptive_quadrature():
    # fields whose gradient *magnitude* is smooth on the cone, so the product
    # Gauss rule is spectrally accurate and can meet the adaptive oracle
    cone = make_cone(2, theta=0.55, a=1.1)
    for label in ("exp_inner", "runge"):
        field = field_by_label(label)
        for weighted in (False, True):
            got = riesz_potential(cone, field, weighted=weighted)
            want = riesz_oracle_2d(cone, field.gradient_magnitude, weighted)
            assert rel_err(got, want) < 1e-9, (label, weighted)


def test_riesz_kinked_magnitude_still_converges_algebraically():
    # |grad f| of gauss_shift has a conical kink inside this cone; the rule
    # still gets ~6 digits, which is ample slack for margin checks
    cone = make_cone(2, theta=0.55, a=1.1)
    field = field_by_label("gauss_shift")
    got = riesz_potential(cone, field, weighted=False)
    want = riesz_oracle_2d(cone, field.gradient_magnitude, False)
    assert rel_err(got, want) < 1e-5


def test_riesz_doubling_convergence_check():
    cone = make_cone(2)
    for label in ("gauss_origin", "exp_inner", "runge"):
        field = field_by_label(label)
        riesz_potential(cone, field, weighted=True, check=True)
        riesz_potential(cone, field, weighted=False, check=True)


def test_riesz_convergence_check_flags_rough_field():
    cone = make_cone(2)
    e0 = np.array([1.0, 0.0])
    rough = AnalyticField(
        "grad_step",
        lambda y: np.where(y[:, 0] > 0.55, 2.0, 1.0) * y[:, 0],
        lambda y: np.where(y[:, 0] > 0.55, 2.0, 1.0)[:, None] * e0,
    )
    with pytest.raises(GeometryError):
        riesz_potential(cone, rough, check=True)


def test_cone_average_linear_field_angular_means():
    # mean of v.(y - x) over the cone, v parallel to the axis:
    # |v| (a N / (N + 1)) * (sin(theta)/theta in 2-d, (1 + cos(theta))/2 in 3-d)
    for dim in (2, 3):
        for theta in (math.pi / 8, math.pi / 4, math.pi / 2):
            cone = make_cone(dim, theta=theta, a=1.5)
            v = 0.8 * cone.axis
            field = AnalyticField(
                "linear_along_axis",
                lambda y, v=v: y @ v,
                lambda y, v=v: np.tile(v, (y.shape[0], 1)),
            )
            ang = math.sin(theta) / theta if dim == 2 else (1.0 + math.cos(theta)) / 2.0
            want = float(cone.vertex @ v) + np.linalg.norm(v) * (
                cone.height * dim / (dim + 1)) * ang
            assert rel_err(cone_average(cone, field), want) < 1e-12


def test_cone_average_matches_adaptive_quadrature():
    cone = make_cone(2, theta=1.1, a=0.9)
    field = field_by_label("runge")
    got = cone_average(cone, field)
    want = average_oracle_2d(cone, field.value)
    assert rel_err(got, want) < 1e-10


# --------------------------------------------------------------------------
# Lp norms on the cone
# --------------------------------------------------------------------------

def test_lp_norm_constant_vector_field():
    cone = make_cone(2, theta=0.7, a=1.3)
    const = lambda y: np.tile(np.array([0.6, -0.8]), (y.shape[0], 1))
    for p in (1.0, 2.0, 3.5, INF):
        assert rel_err(lp_norm_cone(cone, const, p), 1.0) < 1e-12


def test_lp_norm_radial_vector_field():
    # |V(y)| = |y - x| on a cone of height 1: ||V||_p = (N/(N+p))^{1/p}, sup = 1
    for dim in (2, 3):
        cone = make_cone(dim, theta=math.pi / 4, a=1.0)
        radial = lambda y, c=cone: y - c.vertex
        for p in (1.0, 2.0, 4.0):
            want = (dim / (dim + p)) ** (1.0 / p)
            assert rel_err(lp_norm_cone(cone, radial, p), want) < 1e-12
        assert rel_err(lp_norm_cone(cone, radial, INF), 1.0) < 1e-12


def test_lp_norm_square_example():
    cone = make_cone(2, theta=math.pi / 4, a=1.0)
    radial = lambda y: y - cone.vertex
    assert rel_err(lp_norm_cone(cone, radial, 2.0), math.sqrt(0.5)) < 1e-12


def test_lp_norm_accepts_analytic_field_gradient():
    cone = make_cone(2)
    field = field_by_label("affine_mix")
    m = float(np.linalg.norm(field.gradient(np.zeros((1, 2)))[0]))
    assert rel_err(lp_norm_cone(cone, field, 2.0), m) < 1e-12


def test_lp_norm_scalar_callable():
    cone = make_cone(2, a=1.0)
    scalar = lambda y: np.linalg.norm(y - cone.vertex, axis=1)
    assert rel_err(lp_norm_cone(cone, scalar, 2.0), math.sqrt(0.5)) < 1e-12


def test_lp_norm_rejects_bad_exponent():
    cone = make_cone(2)
    with pytest.raises(DomainError):
        lp_norm_cone(cone, lambda y: y, 0.5)


# --------------------------------------------------------------------------
# pointwise checks: equality witnesses and oracle margins
# --------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_equality_witness_distance_field(dim):
    # f = |y| on a cone with vertex at the origin: f(x) = 0 and |grad f| = 1,
    # so the weighted bound and the sup-norm cone bound are both equalities.
    cone = make_cone(dim, theta=0.6, a=1.2, vertex=[0.0] * dim)
    field = field_by_label("dist_origin", dim)
    weighted, plain = verify_pointwise_cone(cone, field)
    assert weighted.check == "pointwise_weighted"
    assert abs(weighted.margin) < 1e-10
    assert plain.margin > 0.1  # strictly lossy: a^N/N overestimates the weight
    sup = verify_morrey_cone(cone, field, INF)
    assert abs(sup.margin) < 1e-10
    assert rel_err(weighted.lhs, cone.height * dim / (dim + 1)) < 1e-12


def test_equality_witness_affine_log_interpolation():
    # affine fields have constant |grad f|, so the p = N, q = inf bound
    # N ||grad f||_N log(e ||grad f||_inf / ||grad f||_N) collapses to the
    # plain kernel value exactly
    for dim in (2, 3):
        cone = make_cone(dim, theta=math.pi / 4, a=1.5)
        field = field_by_label("affine_mix", dim)
        chk = verify_interpolation_cone(cone, field, ExponentPair(float(dim), INF, dim))
        assert chk.check == "interp_log"
        assert abs(chk.margin) < 1e-9 * max(chk.lhs, 1.0)


def test_pointwise_weighted_never_beats_plain():
    cone = make_cone(2, theta=0.5, a=1.0)
    for field in catalog_fields(2)[:8]:
        weighted, plain = verify_pointwise_cone(cone, field)
        assert weighted.rhs <= plain.rhs * (1.0 + 1e-12)
        assert weighted.lhs == plain.lhs


def test_margins_scale_linearly_with_field():
    cone = make_cone(2, theta=0.8, a=1.2)
    field = field_by_label("sincos_prod")
    lam = 3.7
    scaled = scale_field(field, lam)
    w1, p1 = verify_pointwise_cone(cone, field)
    w2, p2 = verify_pointwise_cone(cone, scaled)
    assert rel_err(w2.margin, lam * w1.margin) < 1e-9
    assert rel_err(p2.margin, lam * p1.margin) < 1e-9
    m1 = verify_morrey_cone(cone, field, 5.0)
    m2 = verify_morrey_cone(cone, scaled, 5.0)
    assert rel_err(m2.margin, lam * m1.margin) < 1e-9
    for pair in (ExponentPair(1.0, 4.0, 2), ExponentPair(2.0, 6.0, 2)):
        c1 = verify_interpolation_cone(cone, field, pair)
        c2 = verify_interpolation_cone(cone, scaled, pair)
        assert rel_err(c2.margin, lam * c1.margin) < 1e-8


def test_interpolation_sigma_in_range():
    cone = make_cone(2, a=1.4)
    field = field_by_label("gauss_origin")
    for pair in (ExponentPair(1.0, 3.0, 2), ExponentPair(1.5, INF, 2),
                 ExponentPair(2.0, 4.0, 2), ExponentPair(2.0, INF, 2)):
        chk = verify_interpolation_cone(cone, field, pair)
        assert chk.sigma is not None
        assert 0.0 < chk.sigma <= cone.height + 1e-12


def test_interpolation_rejects_bad_exponents():
    cone = make_cone(2)
    field = field_by_label("quad_radial")
    with pytest.raises(DomainError):
        verify_interpolation_cone(cone, field, ExponentPair(2.5, 3.0, 2))
    with pytest.raises(DomainError):
        verify_interpolation_cone(cone, field, ExponentPair(1.0, 2.0, 2))
    with pytest.raises(DomainError):
        verify_interpolation_cone(cone, field, ExponentPair(1.0, 4.0, 3))


def test_morrey_rejects_p_not_above_dim():
    cone = make_cone(2)
    field = field_by_label("quad_radial")
    with pytest.raises(DomainError):
        verify_morrey_cone(cone, field, 2.0)


@settings(max_examples=25, deadline=None)
@given(
    c0=st.floats(-2, 2), c1=st.floats(-2, 2),
    a00=st.floats(-1.5, 1.5), a01=st.floats(-1.5, 1.5), a11=st.floats(-1.5, 1.5),
)
def test_random_quadratic_fields_obey_all_bounds(c0, c1, a00, a01, a11):
    cone = make_cone(2, theta=0.9, a=1.1)
    c = np.array([c0, c1])
    A = np.array([[a00, a01], [a01, a11]])
    field = AnalyticField(
        "random_quadratic",
        lambda y: y @ c + np.sum((y @ A) * y, axis=1),
        lambda y: c + 2.0 * (y @ A),
    )
    for chk in verify_pointwise_cone(cone, field):
        assert chk.ok()
    assert verify_morrey_cone(cone, field, 3.0).ok()
    assert verify_interpolation_cone(cone, field, ExponentPair(1.0, INF, 2)).ok()
    assert verify_interpolation_cone(cone, field, ExponentPair(2.0, 4.0, 2)).ok()


# --------------------------------------------------------------------------
# the catalog sweep
# --------------------------------------------------------------------------

def test_full_sweep_2d_has_no_violations():
    checks = run_cone_sweep(dim=2)
    morrey_ps, pairs = default_exponent_grid(2)
    per_pair = 2 + len(morrey_ps) + len(pairs)
    assert len(checks) == 9 * len(catalog_fields(2)) * per_pair
    worst = min(chk.margin for chk in checks)
    bad = [chk for chk in checks if not chk.ok(1e-9)]
    assert not bad, (
        f"{len(bad)} violations, worst margin {worst:.3e}: "
        + "; ".join(f"{c.field}/{c.check}(theta={c.theta:.3f},a={c.a},p={c.p},q={c.q})"
                    for c in bad[:5])
    )
    # the sweep exercises every check type
    kinds = {chk.check for chk in checks}
    assert kinds == {"pointwise_weighted", "pointwise_plain", "morrey",
                     "interp_power", "interp_log"}


def test_sweep_3d_smoke():
    fields = [field_by_label(lbl, 3) for lbl in
              ("affine_mix", "quad_aniso", "gauss_shift", "plane_wave",
               "dist_origin", "runge")]
    cones = [make_cone(3, theta=math.pi / 8, a=0.5),
             make_cone(3, theta=math.pi / 2, a=2.0)]
    checks = run_cone_sweep(dim=3, fields=fields, cones=cones,
                            n_radial=32, n_angular=32)
    bad = [chk for chk in checks if not chk.ok(1e-9)]
    assert not bad, f"worst margin {min(c.margin for c in checks):.3e}"
