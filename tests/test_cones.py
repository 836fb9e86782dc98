"""Tests for the cone verifier: quadrature, kernel integrals, margin checks.

Expected values come from independent oracles: adaptive quadrature
(scipy.integrate.dblquad in vertex-polar coordinates), closed forms for
radial/linear fields, and hand-derived angular means.  The catalog sweep is
the acceptance workhorse: every bound must hold on every (field, cone,
exponent) instance with slack 1e-9.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import oscbound
from oscbound.cones import (
    AnalyticField,
    ConeField,
    QuadratureRule,
    _cap_directions,
    _gauss_on,
    _leggauss,
    _row_sum_sq,
    catalog_cones,
    catalog_fields,
    default_exponent_grid,
    run_cone_sweep,
    verify_interpolation_cone,
    verify_morrey_cone,
    verify_pointwise_cone,
)
from oscbound.constants import INF, ConeSpec, ExponentPair, cone_measure
from oscbound.errors import DomainError


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def make_cone(dim=2, theta=math.pi / 4, a=1.0, vertex=None, axis=None) -> ConeSpec:
    if vertex is None:
        vertex = [0.3, -0.2, 0.1][:dim]
    if axis is None:
        axis = [1.0, 2.0, -1.0][:dim]
    return ConeSpec(vertex=np.array(vertex, dtype=float),
                    axis=np.array(axis, dtype=float), theta=theta, height=a)


def on_cone(cone: ConeSpec, field: AnalyticField) -> ConeField:
    return ConeField(QuadratureRule.build(cone), field)


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


def rule_directions(cone: ConeSpec) -> np.ndarray:
    """The unit vectors of the default rule's angular nodes, in its order."""
    n_angular = 48  # QuadratureRule.build's default
    if cone.dim == 2:
        psi0 = math.atan2(cone.axis[1], cone.axis[0])
        phi, _ = _gauss_on(psi0 - cone.theta, psi0 + cone.theta, n_angular)
        return _cap_directions(cone, phi)
    c, _ = _gauss_on(math.cos(cone.theta), 1.0, n_angular // 4)
    gamma = 2.0 * math.pi * np.arange(n_angular) / n_angular
    return _cap_directions(cone, np.repeat(c, n_angular), np.tile(gamma, c.size))


def test_sup_norm_is_the_max_over_nodes_shell_and_vertex():
    for dim in (2, 3):
        fields = catalog_fields(dim)
        for cone in catalog_cones(dim):
            rule = QuadratureRule.build(cone)
            dirs = rule_directions(cone)
            # the directions are the rule's own: its outer layer of nodes
            assert np.array_equal(rule.points[-len(dirs):],
                                  cone.vertex + rule.radii[-1] * dirs)
            shell = cone.vertex + cone.height * dirs
            assert rule.sup_points.shape == (len(dirs) + 1, dim)
            for field in fields:
                want = max(float(np.max(field.gradient_magnitude(pts)))
                           for pts in (rule.points, shell, cone.vertex[None, :]))
                assert ConeField(rule, field).norm(INF) == want, (field.label, cone)


RULE_ARRAYS = ("points", "radii", "weights", "sup_points", "kernel_weights",
               "weighted_kernel_weights")


@pytest.mark.parametrize("dim", [2, 3])
def test_rule_arrays_are_read_only(dim):
    rule = QuadratureRule.build(make_cone(dim))
    cf = ConeField(rule, field_by_label("runge", dim))
    cf.riesz(weighted=True)
    for name in RULE_ARRAYS:
        arr = getattr(rule, name)
        assert getattr(cf.rule, name) is arr
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert rule.measure == cone_measure(rule.cone)
    for arr in _leggauss(48):
        with pytest.raises(ValueError):
            arr[0] = 0.0


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
def test_catalog_fields_pass_gradient_self_check(dim, gradient_self_check):
    fields = catalog_fields(dim)
    assert len(fields) >= 20
    assert len({f.label for f in fields}) == len(fields)
    for f in fields:
        worst = gradient_self_check(f, dim)
        assert worst <= 1e-6


def _inline_values(dim: int) -> dict:
    """The catalog values and gradients that reduce rows, as numpy reductions."""
    scales = 1.0 + np.arange(dim)
    c_shift = np.array([0.5, 0.4, -0.3][:dim])

    def radial2(y):
        return np.sum(y * y, axis=1)

    def shift2(y):
        return np.sum((y - c_shift) ** 2, axis=1)

    return {
        "quad_radial": (radial2, None),
        "quad_aniso": (lambda y: np.sum(scales * y * y, axis=1), None),
        "quartic_radial": (lambda y: radial2(y) ** 2,
                           lambda y: 4.0 * radial2(y)[:, None] * y),
        "gauss_origin": (lambda y: np.exp(-radial2(y)),
                         lambda y: -2.0 * np.exp(-radial2(y))[:, None] * y),
        "gauss_shift": (lambda y: np.exp(-shift2(y) / 2.25),
                        lambda y: (-2.0 / 2.25) * np.exp(-shift2(y) / 2.25)[:, None]
                        * (y - c_shift)),
        "runge": (lambda y: 1.0 / (1.0 + radial2(y)),
                  lambda y: -2.0 * y / (1.0 + radial2(y))[:, None] ** 2),
        "dist_origin": (lambda y: np.linalg.norm(y, axis=1),
                        lambda y: y / np.maximum(
                            np.linalg.norm(y, axis=1), 1e-300)[:, None]),
    }


@pytest.mark.parametrize("dim", [2, 3])
def test_row_helper_is_bit_identical_on_the_catalog(dim):
    inline = _inline_values(dim)
    scales = 1.0 + np.arange(dim)
    for cone in catalog_cones(dim)[::4]:
        rule = QuadratureRule.build(cone)
        for pts in (rule.points, rule.sup_points):
            assert np.array_equal(_row_sum_sq(pts), np.sum(pts * pts, axis=1))
            assert np.array_equal(_row_sum_sq(pts, scales),
                                  np.sum(scales * pts * pts, axis=1))
            for field in catalog_fields(dim):
                want = np.linalg.norm(field.gradient(pts), axis=-1)
                assert np.array_equal(field.gradient_magnitude(pts), want), field.label
                value, gradient = inline.get(field.label, (None, None))
                if value is not None:
                    assert np.array_equal(field.value(pts), value(pts)), field.label
                if gradient is not None:
                    assert np.array_equal(field.gradient(pts), gradient(pts)), field.label


@pytest.mark.parametrize("dim", [2, 3])
def test_cone_field_matches_inline_expressions(dim):
    morrey_ps, pairs = default_exponent_grid(dim)
    exponents = set(morrey_ps) | {x for pair in pairs for x in (pair.p, pair.q)}
    for cone in catalog_cones(dim)[::4]:
        rule = QuadratureRule.build(cone)
        measure = cone_measure(cone)
        kernel_w = rule.weights / rule.radii ** (dim - 1)
        weighted_w = kernel_w * (cone.height**dim - rule.radii**dim) / dim
        for field in catalog_fields(dim):
            cf = ConeField(rule, field)
            mags = np.linalg.norm(field.gradient(rule.points), axis=-1)
            sup = np.linalg.norm(field.gradient(rule.sup_points), axis=-1)
            vals = field.value(rule.points)
            assert cf.riesz(weighted=False) == float(np.sum(kernel_w * mags)) / measure
            assert cf.riesz(weighted=True) == float(np.sum(weighted_w * mags)) / measure
            assert cf.average() == float(np.sum(rule.weights * vals)) / measure
            # the power rule: products of the squares |v|^(2^k) for the set
            # bits of p, lowest first, times sqrt(|v|) for a half
            sq = mags * mags
            sq4 = sq * sq
            sq8 = sq4 * sq4
            powers = {1.0: mags, 1.5: mags * np.sqrt(mags), 2.0: sq,
                      3.0: mags * sq, 4.0: sq4, 6.0: sq * sq4, 8.0: sq8,
                      12.0: sq4 * sq8}
            for p in exponents:
                if p == INF:
                    want = max(float(np.max(mags)), float(np.max(sup)))
                else:
                    want = float(np.sum(rule.weights * powers[p])
                                 / measure) ** (1.0 / p)
                assert cf.norm(p) == want, (field.label, p)


@pytest.mark.parametrize("dim", [2, 3])
def test_cone_field_norms_do_not_depend_on_request_order(dim):
    # the norms share one power table per field, whose powers are a fixed
    # function of p: any order of requests gives the same bits
    morrey_ps, pairs = default_exponent_grid(dim)
    exponents = sorted(set(morrey_ps) | {x for pair in pairs
                                         for x in (pair.p, pair.q)})
    rule = QuadratureRule.build(catalog_cones(dim)[4])
    for label in ("gauss_shift", "plane_wave", "dist_origin"):
        field = field_by_label(label, dim)
        alone = {p: ConeField(rule, field).norm(p) for p in exponents}
        for order in (exponents, exponents[::-1], exponents[1::2] + exponents[::2]):
            cf = ConeField(rule, field)
            assert {p: cf.norm(p) for p in order} == alone, (label, order)


def test_cone_field_evaluates_the_field_once_per_point_set():
    # the sweep's checks read the vertex oscillation 5 times; the field is
    # evaluated once at the vertex and once on the nodes (the average)
    base = field_by_label("gauss_shift")
    sizes = []

    def value(y):
        sizes.append(len(y))
        return base.value(y)

    cf = on_cone(make_cone(), AnalyticField(base.label, value, base.gradient))
    morrey_ps, pairs = default_exponent_grid(2)
    checks = [*verify_pointwise_cone(cf),
              *(verify_morrey_cone(cf, p) for p in morrey_ps),
              *(verify_interpolation_cone(cf, pair) for pair in pairs)]
    assert len({chk.lhs for chk in checks
                if chk.check.startswith(("pointwise", "morrey"))}) == 1
    assert sorted(sizes) == [1, cf.rule.count]


@pytest.mark.parametrize("dim, equal", [(2, 27), (3, 12)])
def test_sweep_log_rows_at_equality(dim, equal):
    # a constant |grad f| (the affine fields, the distance to the origin)
    # makes the q = inf log bound an equality, which the norms keep exactly
    rows = [chk for chk in run_cone_sweep(dim)
            if chk.check == "interp_log" and chk.q == INF]
    assert sum(chk.lhs == chk.rhs != 0.0 for chk in rows) == equal


def test_self_check_catches_wrong_gradient(gradient_self_check):
    bad = AnalyticField("bad",
                        lambda y: y[:, 0] ** 2,
                        lambda y: 3.0 * y)  # should be 2 y e0
    with pytest.raises(DomainError):
        gradient_self_check(bad, 2)


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
        cf = on_cone(cone, field)
        plain, weighted = cf.riesz(weighted=False), cf.riesz(weighted=True)
        assert rel_err(plain, m * N / a ** (N - 1)) < 1e-8
        assert rel_err(weighted, m * a * N / (N + 1)) < 1e-8


def test_riesz_matches_adaptive_quadrature():
    # fields whose gradient *magnitude* is smooth on the cone, so the product
    # Gauss rule is spectrally accurate and can meet the adaptive oracle
    cone = make_cone(2, theta=0.55, a=1.1)
    for label in ("exp_inner", "runge"):
        field = field_by_label(label)
        for weighted in (False, True):
            got = on_cone(cone, field).riesz(weighted=weighted)
            want = riesz_oracle_2d(cone, field.gradient_magnitude, weighted)
            assert rel_err(got, want) < 1e-9, (label, weighted)


def test_riesz_kinked_magnitude_still_converges_algebraically():
    # |grad f| of gauss_shift has a conical kink inside this cone; the rule
    # still gets ~6 digits, which is ample slack for margin checks
    cone = make_cone(2, theta=0.55, a=1.1)
    field = field_by_label("gauss_shift")
    got = on_cone(cone, field).riesz(weighted=False)
    want = riesz_oracle_2d(cone, field.gradient_magnitude, False)
    assert rel_err(got, want) < 1e-5


def test_riesz_doubling_convergence_check():
    # the 48 x 48 rule of the sweep agrees with the 96 x 96 rule to 1e-8 on
    # smooth gradient magnitudes
    cone = make_cone(2)
    coarse_rule = QuadratureRule.build(cone, 48, 48)
    fine_rule = QuadratureRule.build(cone, 96, 96)
    for label in ("gauss_origin", "exp_inner", "runge"):
        field = field_by_label(label)
        coarse, fine = ConeField(coarse_rule, field), ConeField(fine_rule, field)
        for weighted in (False, True):
            drift = rel_err(coarse.riesz(weighted), fine.riesz(weighted))
            assert drift <= 1e-8, (label, weighted)


def test_riesz_convergence_check_flags_rough_field():
    # the same 48 x 48 vs 96 x 96 comparison flags a field whose gradient
    # jumps inside the cone
    cone = make_cone(2)
    e0 = np.array([1.0, 0.0])
    rough = AnalyticField(
        "grad_step",
        lambda y: np.where(y[:, 0] > 0.55, 2.0, 1.0) * y[:, 0],
        lambda y: np.where(y[:, 0] > 0.55, 2.0, 1.0)[:, None] * e0,
    )
    coarse = ConeField(QuadratureRule.build(cone, 48, 48), rough)
    fine = ConeField(QuadratureRule.build(cone, 96, 96), rough)
    for weighted in (False, True):
        assert rel_err(coarse.riesz(weighted), fine.riesz(weighted)) > 1e-8, weighted


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
            assert rel_err(on_cone(cone, field).average(), want) < 1e-12


def test_cone_average_matches_adaptive_quadrature():
    cone = make_cone(2, theta=1.1, a=0.9)
    field = field_by_label("runge")
    got = on_cone(cone, field).average()
    want = average_oracle_2d(cone, field.value)
    assert rel_err(got, want) < 1e-10


# --------------------------------------------------------------------------
# Lp norms on the cone
# --------------------------------------------------------------------------

def test_lp_norm_constant_vector_field():
    cone = make_cone(2, theta=0.7, a=1.3)
    v = np.array([0.6, -0.8])
    const = AnalyticField("unit_slope", lambda y: y @ v,
                          lambda y: np.tile(v, (y.shape[0], 1)))
    cf = on_cone(cone, const)
    for p in (1.0, 2.0, 3.5, INF):
        assert rel_err(cf.norm(p), 1.0) < 1e-12


def radial_field(cone: ConeSpec) -> AnalyticField:
    """|y - x|^2 / 2, whose gradient y - x has magnitude |y - x|."""
    return AnalyticField("radial",
                         lambda y: 0.5 * np.sum((y - cone.vertex) ** 2, axis=1),
                         lambda y: y - cone.vertex)


def test_lp_norm_radial_vector_field():
    # |V(y)| = |y - x| on a cone of height 1: ||V||_p = (N/(N+p))^{1/p}, sup = 1
    for dim in (2, 3):
        cone = make_cone(dim, theta=math.pi / 4, a=1.0)
        cf = on_cone(cone, radial_field(cone))
        for p in (1.0, 2.0, 4.0):
            want = (dim / (dim + p)) ** (1.0 / p)
            assert rel_err(cf.norm(p), want) < 1e-12
        assert rel_err(cf.norm(INF), 1.0) < 1e-12


def test_lp_norm_square_example():
    cone = make_cone(2, theta=math.pi / 4, a=1.0)
    assert rel_err(on_cone(cone, radial_field(cone)).norm(2.0),
                   math.sqrt(0.5)) < 1e-12


def test_lp_norm_accepts_analytic_field_gradient():
    cone = make_cone(2)
    field = field_by_label("affine_mix")
    m = float(np.linalg.norm(field.gradient(np.zeros((1, 2)))[0]))
    assert rel_err(on_cone(cone, field).norm(2.0), m) < 1e-12


def test_lp_norm_rejects_bad_exponent():
    cf = on_cone(make_cone(2), field_by_label("affine_mix"))
    for p in (0.5, math.nan):
        with pytest.raises(DomainError):
            cf.norm(p)


# --------------------------------------------------------------------------
# pointwise checks: equality witnesses and oracle margins
# --------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_equality_witness_distance_field(dim):
    # f = |y| on a cone with vertex at the origin: f(x) = 0 and |grad f| = 1,
    # so the weighted bound and the sup-norm cone bound are both equalities.
    cone = make_cone(dim, theta=0.6, a=1.2, vertex=[0.0] * dim)
    field = field_by_label("dist_origin", dim)
    cf = on_cone(cone, field)
    weighted, plain = verify_pointwise_cone(cf)
    assert weighted.check == "pointwise_weighted"
    assert abs(weighted.margin) < 1e-10
    assert plain.margin > 0.1  # strictly lossy: a^N/N overestimates the weight
    sup = verify_morrey_cone(cf, INF)
    assert abs(sup.margin) < 1e-10
    assert rel_err(weighted.lhs, cone.height * dim / (dim + 1)) < 1e-12


def test_equality_witness_affine_log_interpolation():
    # affine fields have constant |grad f|, so the p = N, q = inf bound
    # N ||grad f||_N log(e ||grad f||_inf / ||grad f||_N) collapses to the
    # plain kernel value exactly
    for dim in (2, 3):
        cone = make_cone(dim, theta=math.pi / 4, a=1.5)
        field = field_by_label("affine_mix", dim)
        chk = verify_interpolation_cone(on_cone(cone, field),
                                        ExponentPair(float(dim), INF, dim))
        assert chk.check == "interp_log"
        assert abs(chk.margin) < 1e-9 * max(chk.lhs, 1.0)


def test_pointwise_weighted_never_beats_plain():
    cone = make_cone(2, theta=0.5, a=1.0)
    for field in catalog_fields(2)[:8]:
        weighted, plain = verify_pointwise_cone(on_cone(cone, field))
        assert weighted.rhs <= plain.rhs * (1.0 + 1e-12)
        assert weighted.lhs == plain.lhs


def test_margins_scale_linearly_with_field():
    cone = make_cone(2, theta=0.8, a=1.2)
    field = field_by_label("sincos_prod")
    lam = 3.7
    scaled = AnalyticField(f"{field.label}*{lam:g}",
                           lambda y: lam * field.value(y),
                           lambda y: lam * field.gradient(y))
    rule = QuadratureRule.build(cone)
    cf1, cf2 = ConeField(rule, field), ConeField(rule, scaled)
    w1, p1 = verify_pointwise_cone(cf1)
    w2, p2 = verify_pointwise_cone(cf2)
    assert rel_err(w2.margin, lam * w1.margin) < 1e-9
    assert rel_err(p2.margin, lam * p1.margin) < 1e-9
    m1 = verify_morrey_cone(cf1, 5.0)
    m2 = verify_morrey_cone(cf2, 5.0)
    assert rel_err(m2.margin, lam * m1.margin) < 1e-9
    for pair in (ExponentPair(1.0, 4.0, 2), ExponentPair(2.0, 6.0, 2)):
        c1 = verify_interpolation_cone(cf1, pair)
        c2 = verify_interpolation_cone(cf2, pair)
        assert rel_err(c2.margin, lam * c1.margin) < 1e-8


def test_interpolation_rejects_bad_exponents():
    cf = on_cone(make_cone(2), field_by_label("quad_radial"))
    with pytest.raises(DomainError):
        verify_interpolation_cone(cf, ExponentPair(2.5, 3.0, 2))
    with pytest.raises(DomainError):
        verify_interpolation_cone(cf, ExponentPair(1.0, 2.0, 2))
    with pytest.raises(DomainError):
        verify_interpolation_cone(cf, ExponentPair(1.0, 4.0, 3))


def test_morrey_rejects_p_not_above_dim():
    cf = on_cone(make_cone(2), field_by_label("quad_radial"))
    with pytest.raises(DomainError):
        verify_morrey_cone(cf, 2.0)


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
    cf = on_cone(cone, field)
    for chk in verify_pointwise_cone(cf):
        assert chk.ok()
    assert verify_morrey_cone(cf, 3.0).ok()
    assert verify_interpolation_cone(cf, ExponentPair(1.0, INF, 2)).ok()
    assert verify_interpolation_cone(cf, ExponentPair(2.0, 4.0, 2)).ok()


# --------------------------------------------------------------------------
# the catalog sweep
# --------------------------------------------------------------------------

def test_full_sweep_2d_has_no_violations():
    checks = run_cone_sweep(dim=2)
    morrey_ps, pairs = default_exponent_grid(2)
    per_pair = 2 + len(morrey_ps) + len(pairs)
    assert len(checks) == 9 * len(catalog_fields(2)) * per_pair
    worst = min(chk.margin for chk in checks)
    bad = [chk for chk in checks if not chk.ok()]
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
    morrey_ps, pairs = default_exponent_grid(3)
    checks = []
    for cone in cones:
        rule = QuadratureRule.build(cone, 32, 32)
        for field in fields:
            cf = ConeField(rule, field)
            checks.extend(verify_pointwise_cone(cf))
            checks.extend(verify_morrey_cone(cf, p) for p in morrey_ps)
            checks.extend(verify_interpolation_cone(cf, pair) for pair in pairs)
    assert len(checks) == len(cones) * len(fields) * (2 + len(morrey_ps) + len(pairs))
    bad = [chk for chk in checks if not chk.ok()]
    assert not bad, f"worst margin {min(c.margin for c in checks):.3e}"


_SWEEP_HELPER_CPU_SCRIPT = """
import json, os, threading, time
from oscbound.cones import run_cone_sweep

def ticks():
    out = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat") as f:
                stat = f.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:
            continue
        out[int(tid)] = int(stat[11]) + int(stat[12])   # utime + stime
    return out

before = ticks()
run_cone_sweep(2)
run_cone_sweep(3)
time.sleep(0.3)
after = ticks()
main = threading.get_native_id()
print(json.dumps({str(tid): after[tid] - before[tid]
                  for tid in before if tid in after and tid != main}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread CPU times from /proc")
def test_sweep_leaves_helper_threads_idle(fresh_env):
    # a kernel sum rewritten as ``kernel_weights @ mags`` is one BLAS ddot over
    # 27,648 nodes; it wakes the OpenBLAS pool, whose helper thread then spins
    # for about 0.9 s of the sweep.  The sweep must leave the pool asleep.
    done = subprocess.run([sys.executable, "-c", _SWEEP_HELPER_CPU_SCRIPT],
                          capture_output=True, text=True, env=fresh_env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    gained = json.loads(done.stdout.splitlines()[-1])
    helper_s = sum(gained.values()) / os.sysconf("SC_CLK_TCK")
    assert helper_s < 0.030, gained
