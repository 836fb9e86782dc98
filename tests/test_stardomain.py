"""Tests for the star-shaped domain geometry.

Oracles: the parametric ellipse (curvature ab/(a^2 sin^2 t + b^2 cos^2 t)^{3/2},
perimeter 4 a E(e^2) from the complete elliptic integral), closed-form areas
of trigonometric-polynomial domains, dense-sampling brute force for distances,
and rolling-ball = 1/max curvature for convex shapes.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special

from oscbound import DomainError, GeometryError
from oscbound.stardomain import (
    BoundarySample,
    StarDomain2D,
    H0_and_R,
    area,
    ball_radii,
    boundary_sample,
    cone_params,
    curvature_deviation,
    delta_gamma,
    diameter,
    domain_scalars,
    inradius,
    perimeter,
    rho_bounds,
    rotated,
    star_radius,
)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


ELLIPSE_A, ELLIPSE_B = 2.0, 1.0
# perimeter of the a=2, b=1 ellipse: 4 a E(m), m = 1 - b^2/a^2
ELLIPSE_PERIMETER = 4.0 * ELLIPSE_A * special.ellipe(1.0 - (ELLIPSE_B / ELLIPSE_A) ** 2)


def parametric_ellipse_curvature(t: np.ndarray, a: float, b: float) -> np.ndarray:
    return a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5


# --------------------------------------------------------------------------
# construction and the radial function
# --------------------------------------------------------------------------

def test_radial_function_must_stay_positive():
    with pytest.raises(DomainError):
        StarDomain2D(c0=1.0, cos_coeffs=(1.5,))
    with pytest.raises(DomainError):
        StarDomain2D(c0=0.0)


def test_ellipse_fourier_truncation_is_machine_exact():
    dom = StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)
    phi = np.linspace(0.0, 2.0 * math.pi, 1237, endpoint=False)
    exact = ELLIPSE_A * ELLIPSE_B / np.sqrt(
        (ELLIPSE_B * np.cos(phi)) ** 2 + (ELLIPSE_A * np.sin(phi)) ** 2)
    assert float(np.max(np.abs(dom.radial(phi) - exact))) < 1e-12


def test_radial_derivatives_match_finite_differences():
    dom = StarDomain2D(c0=1.0, cos_coeffs=(0.1, 0.0, 0.05), sin_coeffs=(0.0, -0.07))
    phi = np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False)
    r, r1, r2 = dom.radial_derivatives(phi)
    h = 1e-6
    fd1 = (dom.radial(phi + h) - dom.radial(phi - h)) / (2.0 * h)
    fd2 = (dom.radial(phi + h) - 2.0 * r + dom.radial(phi - h)) / h**2
    assert float(np.max(np.abs(r1 - fd1))) < 1e-8
    assert float(np.max(np.abs(r2 - fd2))) < 1e-3


def test_contains_is_the_radial_test():
    dom = StarDomain2D.cosine(0.1, 3)
    pts = np.array([[0.0, 0.0], [1.05, 0.0], [0.5, 0.5], [2.0, 2.0]])
    inside = dom.contains(pts)
    assert inside.tolist() == [True, True, True, False]


# --------------------------------------------------------------------------
# boundary samples
# --------------------------------------------------------------------------

def test_boundary_sample_requires_64_points():
    dom = StarDomain2D.circle(1.0)
    with pytest.raises(DomainError):
        boundary_sample(dom, 32)


def test_boundary_sample_circle_curvature_and_normals():
    R = 1.7
    samples = boundary_sample(StarDomain2D.circle(R), 128)
    assert len(samples) == 128
    assert isinstance(samples[0], BoundarySample)
    for s in samples[::17]:
        assert rel_err(s.curvature, 1.0 / R) < 1e-14
        assert abs(np.linalg.norm(s.normal) - 1.0) < 1e-14
        # outward normal of a circle is the unit position vector
        assert np.allclose(s.normal, s.position / R, atol=1e-13)
    assert rel_err(sum(s.weight for s in samples), 2.0 * math.pi * R) < 1e-14


def test_ellipse_curvature_at_vertex():
    dom = StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)
    s0 = boundary_sample(dom, 64)[0]  # phi = 0 is the (a, 0) vertex
    assert rel_err(s0.curvature, ELLIPSE_A / ELLIPSE_B**2) < 1e-10


def test_ellipse_curvature_against_parametric_oracle():
    # the polar angle phi and the ellipse parameter t coincide at the axes
    # only, so compare at matched positions: tan t = (a/b) tan phi
    dom = StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)
    phi = np.array([0.1, 0.7, 1.3, 2.2, 4.0, 5.7])
    _, pos, _, kappa, _ = __import__("oscbound.stardomain", fromlist=["x"])._boundary_arrays(dom, 4096)
    t = np.arctan2(pos[:, 1] / ELLIPSE_B, pos[:, 0] / ELLIPSE_A)
    want = parametric_ellipse_curvature(t, ELLIPSE_A, ELLIPSE_B)
    assert float(np.max(np.abs(kappa - want))) < 1e-9


def test_perturbed_disk_curvature_formula():
    eps = 0.07
    dom = StarDomain2D.cosine(eps, 2)
    s0 = boundary_sample(dom, 64)[0]
    want = ((1 + eps) ** 2 + 4 * eps * (1 + eps)) / (1 + eps) ** 3
    assert rel_err(s0.curvature, want) < 1e-13


# --------------------------------------------------------------------------
# area, perimeter, diameter
# --------------------------------------------------------------------------

def test_circle_bulk_quantities():
    dom = StarDomain2D.circle(1.0)
    assert rel_err(area(dom), math.pi) < 1e-14
    assert rel_err(perimeter(dom), 2.0 * math.pi) < 1e-14
    assert rel_err(diameter(dom), 2.0) < 1e-12
    h0, R = H0_and_R(dom)
    assert rel_err(h0, 1.0) < 1e-13 and rel_err(R, 1.0) < 1e-13


def test_ellipse_area_perimeter_diameter():
    dom = StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)
    assert rel_err(area(dom), math.pi * ELLIPSE_A * ELLIPSE_B) < 1e-12
    assert rel_err(perimeter(dom), ELLIPSE_PERIMETER) < 1e-12
    assert rel_err(diameter(dom), 2.0 * ELLIPSE_A) < 1e-10
    h0, R = H0_and_R(dom)
    assert rel_err(R, 2.0 * math.pi * ELLIPSE_A * ELLIPSE_B / ELLIPSE_PERIMETER) < 1e-11


def test_cosine_area_closed_form():
    dom = StarDomain2D.cosine(0.1, 3)
    assert rel_err(area(dom), math.pi * (1.0 + 0.005)) < 1e-14


def test_perimeter_against_adaptive_quadrature():
    dom = StarDomain2D(c0=1.0, cos_coeffs=(0.12, 0.0, 0.06), sin_coeffs=(0.0, 0.08))

    def speed(phi):
        r, r1, _ = dom.radial_derivatives(np.asarray(phi))
        return float(np.sqrt(r * r + r1 * r1))

    want, _ = integrate.quad(speed, 0.0, 2.0 * math.pi, limit=200)
    assert rel_err(perimeter(dom), want) < 1e-11


def test_perimeter_converges_spectrally_under_doubling():
    dom = StarDomain2D.cosine(0.15, 5)
    ref = perimeter(dom, m=8192)
    err64 = abs(perimeter(dom, m=64) - ref)
    err128 = abs(perimeter(dom, m=128) - ref)
    assert err128 < 1e-12 or err64 > 4.0 * err128


def test_scaling_homogeneity():
    base = StarDomain2D.cosine(0.1, 3)
    lam = 2.5
    scaled = StarDomain2D(c0=lam * base.c0,
                          cos_coeffs=tuple(lam * c for c in base.cos_coeffs))
    assert rel_err(area(scaled), lam**2 * area(base)) < 1e-12
    assert rel_err(perimeter(scaled), lam * perimeter(base)) < 1e-12
    h0, R = H0_and_R(base)
    h0s, Rs = H0_and_R(scaled)
    assert rel_err(Rs, lam * R) < 1e-12
    assert rel_err(h0s, h0 / lam) < 1e-12


def test_isoperimetric_inequality_on_catalog():
    domains = [
        StarDomain2D.circle(0.8),
        StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B),
        StarDomain2D.ellipse(1.1, 1 / 1.1),
        StarDomain2D.cosine(0.1, 3),
        StarDomain2D.cosine(0.2, 2),
        StarDomain2D(c0=1.0, cos_coeffs=(0.1, 0.05), sin_coeffs=(0.0, 0.07)),
    ]
    for dom in domains:
        gap = perimeter(dom) ** 2 - 4.0 * math.pi * area(dom)
        assert gap >= -1e-10 * perimeter(dom) ** 2
        if dom.label.startswith("circle"):
            assert abs(gap) < 1e-10
        else:
            assert gap > 1e-6


# --------------------------------------------------------------------------
# radii and distances
# --------------------------------------------------------------------------

def test_rho_bounds_circle_and_offcenter():
    dom = StarDomain2D.circle(1.0)
    ri, re = rho_bounds(dom, np.zeros(2))
    assert rel_err(ri, 1.0) < 1e-12 and rel_err(re, 1.0) < 1e-12
    delta = 0.3
    ri2, re2 = rho_bounds(dom, np.array([delta, 0.0]))
    assert rel_err(ri2, 1.0 - delta) < 1e-10
    assert rel_err(re2, 1.0 + delta) < 1e-10


def test_rho_bounds_ellipse_axes():
    dom = StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)
    ri, re = rho_bounds(dom, np.zeros(2))
    assert rel_err(ri, ELLIPSE_B) < 1e-10
    assert rel_err(re, ELLIPSE_A) < 1e-10


def test_rho_bounds_rejects_outside_point():
    dom = StarDomain2D.circle(1.0)
    with pytest.raises(DomainError):
        rho_bounds(dom, np.array([2.0, 0.0]))


def test_delta_gamma_circle_and_boundary_point():
    dom = StarDomain2D.circle(1.5)
    assert rel_err(delta_gamma(dom, np.zeros(2)), 1.5) < 1e-10
    assert delta_gamma(dom, np.array([1.5, 0.0])) < 1e-8


def test_delta_gamma_against_brute_force():
    dom = StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)
    x = np.array([0.5, 0.0])
    phi = np.linspace(0.0, 2.0 * math.pi, 1_000_000, endpoint=False)
    brute = float(np.min(np.linalg.norm(dom.boundary(phi) - x, axis=-1)))
    assert abs(delta_gamma(dom, x) - brute) < 1e-8


def test_ball_radii_circle_capped_exterior():
    dom = StarDomain2D.circle(1.0)
    r_i, r_e = ball_radii(dom)
    assert abs(r_i - 1.0) < 1e-6
    assert rel_err(r_e, 2.0) < 1e-10  # capped at the diameter


def test_ball_radii_ellipse_rolling_ball():
    dom = StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)
    r_i, r_e = ball_radii(dom)
    assert abs(r_i - ELLIPSE_B**2 / ELLIPSE_A) < 1e-5
    assert rel_err(r_e, 2.0 * ELLIPSE_A) < 1e-9  # convex: capped


def test_ball_radii_convex_cosine_matches_curvature():
    dom = StarDomain2D.cosine(0.08, 3)
    _, _, _, kappa, _ = __import__("oscbound.stardomain", fromlist=["x"])._boundary_arrays(dom, 8192)
    want = 1.0 / float(np.max(kappa))
    r_i, _ = ball_radii(dom)
    assert r_i <= want + 1e-6
    assert abs(r_i - want) < 1e-4


def _mixed(eps: float) -> StarDomain2D:
    """r = 1 + eps (cos 2 phi + sin(3 phi) / 2): no mirror symmetry."""
    return StarDomain2D(1.0, (0.0, eps), (0.0, 0.0, 0.5 * eps))


def _frame(dom: StarDomain2D, t):
    """(position, outward normal, curvature) at the angles t."""
    t = np.asarray(t, dtype=float)
    r, r1, r2 = dom.radial_derivatives(t)
    speed = np.hypot(r, r1)
    c, s = np.cos(t), np.sin(t)
    pos = np.stack([r * c, r * s], axis=-1)
    nu = np.stack([r * c + r1 * s, r * s - r1 * c], axis=-1) / speed[..., None]
    return pos, nu, (r * r + 2.0 * r1 * r1 - r * r2) / speed**3


def _ball_radii_reference(dom: StarDomain2D, n_p: int = 4096,
                          n_q: int = 16384) -> tuple[float, float]:
    """Brute-force (r_i, r_e) of a nonconvex shape (r_e is not capped): the
    smaller of 1/max kappa on n_q samples and of the tangent-ball
    quotient |p - q|^2 / (2 (p - q) . nu) over an n_p x n_q table of
    Cartesian differences, each polished by scipy.

    Pairs closer than 0.02 rad are left out: their quotient tends to
    1/kappa, and they only add rounding noise.
    """
    tq = 2.0 * math.pi * np.arange(n_q) / n_q
    tp = 2.0 * math.pi * np.arange(n_p) / n_p
    q, _, kappa = _frame(dom, tq)
    p, nu, _ = _frame(dom, tp)
    out = []
    for side in (1.0, -1.0):
        j = int(np.argmax(side * kappa))
        h = 2.0 * math.pi / n_q
        res = optimize.minimize_scalar(
            lambda t: -side * _frame(dom, t)[2], bounds=(tq[j] - h, tq[j] + h),
            method="bounded", options={"xatol": 1e-14})
        k_max = max(-float(res.fun), side * float(kappa[j]))
        local = 1.0 / k_max if k_max > 0.0 else math.inf
        best, arg = math.inf, None
        for lo in range(0, n_p, 256):
            dx = p[lo:lo + 256, None, 0] - q[None, :, 0]
            dy = p[lo:lo + 256, None, 1] - q[None, :, 1]
            den = 2.0 * side * (dx * nu[lo:lo + 256, None, 0]
                                + dy * nu[lo:lo + 256, None, 1])
            gap = np.abs((tq[None, :] - tp[lo:lo + 256, None] + math.pi)
                         % (2.0 * math.pi) - math.pi)
            ok = (den > 0.0) & (gap > 0.02)
            f = np.where(ok, (dx * dx + dy * dy) / np.where(ok, den, 1.0),
                         math.inf)
            k = int(np.argmin(f))
            if f.flat[k] < best:
                a, b = np.unravel_index(k, f.shape)
                best, arg = float(f.flat[k]), (tp[lo + a], tq[b])

        def pair(x):
            (pp, nn, _), (qq, _, _) = _frame(dom, x[0]), _frame(dom, x[1])
            den = 2.0 * side * float((pp - qq) @ nn)
            return float((pp - qq) @ (pp - qq)) / den if den > 0.0 else math.inf

        if best < local:
            w = 2.0 * math.pi / n_p
            res = optimize.minimize(
                pair, np.array(arg), method="Nelder-Mead",
                bounds=[(arg[0] - w, arg[0] + w), (arg[1] - w, arg[1] + w)],
                options={"xatol": 1e-14, "fatol": 1e-16, "maxiter": 4000})
            best = min(best, float(res.fun))
        out.append(min(local, best))
    return out[0], out[1]


def test_ball_radii_closed_forms():
    r_i, _ = ball_radii(StarDomain2D.circle(1.0))
    assert abs(r_i - 1.0) < 1e-12
    a = 1.2
    r_i, _ = ball_radii(StarDomain2D.ellipse(a, 1.0 / a))
    assert rel_err(r_i, 1.0 / a**3) < 1e-12  # b^2 / a
    # peanut: half the neck 2 * 0.4 binds inside, the neck's 1/|kappa| outside
    r_i, r_e = ball_radii(StarDomain2D.cosine(0.6, 2))
    assert abs(r_i - 0.4) < 1e-12
    assert abs(r_e - 0.08) < 1e-12


def test_ball_radii_family_member_is_inverse_max_curvature():
    # the 32-mode ellipse family member at eps = 0.2 is not exactly an
    # ellipse, so the oracle is the curvature of its own series
    dom = StarDomain2D.ellipse(1.2, 1.0 / 1.2, n_modes=32)
    phi = np.linspace(0.0, 2.0 * math.pi, 65536, endpoint=False)
    kappa = _frame(dom, phi)[2]
    j = int(np.argmax(kappa))
    res = optimize.minimize_scalar(
        lambda t: -_frame(dom, t)[2], bounds=(phi[j] - 1e-4, phi[j] + 1e-4),
        method="bounded", options={"xatol": 1e-14})
    want = 1.0 / max(-float(res.fun), float(kappa[j]))
    r_i, _ = ball_radii(dom)
    assert rel_err(r_i, want) < 1e-12


def test_ball_radii_mixed_shape_matches_brute_force():
    # at eps = 0.5 a bottleneck binds inside and the curvature outside
    dom = _mixed(0.5)
    got = ball_radii(dom)
    want = _ball_radii_reference(dom)
    assert rel_err(got[0], want[0]) < 1e-9
    assert rel_err(got[1], want[1]) < 1e-9


@pytest.mark.parametrize("dom", [StarDomain2D.cosine(0.6, 2), _mixed(0.1),
                                 _mixed(0.5)], ids=["peanut", "mixed0.1",
                                                    "mixed0.5"])
def test_ball_radii_rotation_and_dilation(dom):
    r_i, r_e = ball_radii(dom)
    for alpha in (0.7, 2.1):
        got = ball_radii(rotated(dom, alpha))
        assert rel_err(got[0], r_i) < 1e-12
        assert rel_err(got[1], r_e) < 1e-12
    lam = 1.7
    big = StarDomain2D(lam * dom.c0, tuple(lam * c for c in dom.cos_coeffs),
                       tuple(lam * c for c in dom.sin_coeffs))
    got = ball_radii(big)
    assert rel_err(got[0], lam * r_i) < 1e-12
    assert rel_err(got[1], lam * r_e) < 1e-12


def test_cone_params_aperture_and_height():
    dom = StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)
    theta, a = cone_params(dom)
    assert theta == math.pi / 4
    assert abs(a - ELLIPSE_B**2 / ELLIPSE_A) < 1e-5
    assert a <= inradius(dom) + 1e-9


def test_star_radius_circle_and_ellipse():
    assert rel_err(star_radius(StarDomain2D.circle(1.3)), 1.3) < 1e-12
    # pedal distance of the ellipse attains its min b at the minor axis
    dom = StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)
    assert rel_err(star_radius(dom), ELLIPSE_B) < 1e-10


def test_star_radius_certifies_segment_containment():
    dom = StarDomain2D.cosine(0.2, 2)
    rho = star_radius(dom)
    rng = np.random.default_rng(11)
    inner = rho * 0.999 * rng.uniform(-1, 1, size=(40, 2))
    inner = inner[np.linalg.norm(inner, axis=1) < rho * 0.999]
    gamma = dom.boundary(rng.uniform(0, 2 * math.pi, size=60))
    for x in inner:
        for g in gamma:
            seg = x[None, :] + np.linspace(0, 1, 50)[:, None] * (g - x)[None, :]
            assert np.all(dom.contains(seg, tol=-1e-9))


def test_inradius_circle_and_ellipse():
    assert abs(inradius(StarDomain2D.circle(1.0)) - 1.0) < 1e-8
    assert abs(inradius(StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)) - ELLIPSE_B) < 1e-6


def test_domain_scalars_validate_for_catalog():
    for dom in (StarDomain2D.circle(1.0),
                StarDomain2D.ellipse(1.2, 1 / 1.2),
                StarDomain2D.cosine(0.1, 3)):
        scal = domain_scalars(dom)
        assert scal.N == 2
        assert scal.volume == pytest.approx(area(dom))


# --------------------------------------------------------------------------
# curvature deviation
# --------------------------------------------------------------------------

def test_curvature_deviation_zero_for_circle():
    assert curvature_deviation(StarDomain2D.circle(2.2)) < 1e-13


def test_curvature_deviation_ellipse_oracle():
    a = 1.1
    dom = StarDomain2D.ellipse(a, 1.0 / a)
    # independent parametric-ellipse quadrature at 2^14 samples
    m = 2**14
    t = 2.0 * math.pi * np.arange(m) / m
    b = 1.0 / a
    speed = np.sqrt(a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2)
    kappa = a * b / speed**3
    length = float(np.sum(speed)) * (2.0 * math.pi / m)
    h0 = length / (2.0 * math.pi * a * b)
    want = math.sqrt(
        float(np.sum(speed * (kappa - h0) ** 2)) * (2.0 * math.pi / m) / length)
    got = curvature_deviation(dom)
    assert rel_err(got, want) < 1e-9


def test_curvature_deviation_rotation_invariant():
    dom = StarDomain2D.cosine(0.15, 3)
    base = curvature_deviation(dom)
    for alpha in (0.3, 1.1, 2.0):
        assert rel_err(curvature_deviation(rotated(dom, alpha)), base) < 1e-12


@settings(max_examples=15, deadline=None)
@given(eps=st.floats(0.01, 0.18), k=st.integers(2, 4))
def test_small_perturbations_keep_invariants(eps, k):
    dom = StarDomain2D.cosine(eps, k)
    assert perimeter(dom) ** 2 >= 4.0 * math.pi * area(dom) - 1e-10
    ri, re = rho_bounds(dom, np.zeros(2))
    assert ri <= re
    assert rel_err(ri, 1.0 - eps) < 1e-9
    assert rel_err(re, 1.0 + eps) < 1e-9
    rho = star_radius(dom)
    assert 0.0 < rho <= ri + 1e-12


def test_quantities_converge_under_sample_doubling():
    dom = StarDomain2D.cosine(0.15, 5)
    ref = curvature_deviation(dom, m=2**15)
    e1 = abs(curvature_deviation(dom, m=128) - ref)
    e2 = abs(curvature_deviation(dom, m=256) - ref)
    assert e2 < 1e-12 or e1 > 4.0 * e2
