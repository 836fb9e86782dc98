"""Tests for the star-shaped domain geometry.

Oracles: the parametric ellipse (curvature ab/(a^2 sin^2 t + b^2 cos^2 t)^{3/2},
perimeter 4 a E(e^2) from the complete elliptic integral), closed-form areas
of trigonometric-polynomial domains, dense-sampling brute force for distances
and for the inradius, and rolling-ball = 1/max curvature for convex shapes.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special

from oscbound import stardomain
from oscbound.errors import DomainError, GeometryError
from oscbound.stardomain import (
    StarDomain2D,
    _ANGLE_RESOLUTION,
    _PROBES,
    _ball_table,
    _bracket_min,
    _delaunay_table,
    _farthest_pair,
    _sample_boundary,
    _tangent_ball,
    area,
    ball_radii,
    boundary_distance,
    diameter,
    inradius,
    perimeter,
    rho_bounds,
    rotated,
    star_radius,
)
from oscbound.torsion import Grid


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def h0_and_r(dom: StarDomain2D) -> tuple[float, float]:
    """H0 = 1/R with R = 2 |Omega| / |Gamma|, as PipelineData.H0 and .R."""
    R = 2.0 * area(dom) / perimeter(dom)
    return 1.0 / R, R


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


@pytest.mark.parametrize("a, b, n_modes", [(ELLIPSE_A, ELLIPSE_B, 64),
                                           (1.2, 1.0 / 1.2, 32)])
def test_ellipse_odd_and_sine_coefficients_are_exact_zeros(a, b, n_modes):
    # r is even and pi-periodic, so only the even cosine modes are nonzero
    # and the kernel runs on the even rows alone
    dom = StarDomain2D.ellipse(a, b, n_modes=n_modes)
    assert dom.cos_coeffs[::2] == (0.0,) * (n_modes // 2)
    assert not any(dom.sin_coeffs)
    assert all(c != 0.0 for c in dom.cos_coeffs[1::2])
    assert dom._series.shape[0] == 3
    phi = np.linspace(0.0, 2.0 * math.pi, 1237, endpoint=False)
    exact = a * b / np.sqrt((b * np.cos(phi)) ** 2 + (a * np.sin(phi)) ** 2)
    assert float(np.max(np.abs(dom.radial(phi) - exact))) < 1e-12


def test_radial_derivatives_match_finite_differences():
    # (r, r', r'') and the curve map's (gamma, gamma', gamma'')
    dom = StarDomain2D(c0=1.0, cos_coeffs=(0.1, 0.0, 0.05), sin_coeffs=(0.0, -0.07))
    phi = np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False)
    h = 1e-6
    for value, (f, f1, f2) in ((dom.radial, dom.radial_derivatives(phi)),
                               (dom.boundary, dom.curve(phi))):
        fd1 = (value(phi + h) - value(phi - h)) / (2.0 * h)
        fd2 = (value(phi + h) - 2.0 * f + value(phi - h)) / h**2
        assert float(np.max(np.abs(f1 - fd1))) < 1e-8
        assert float(np.max(np.abs(f2 - fd2))) < 1e-3


def long_double_derivatives(dom: StarDomain2D, phi: np.ndarray):
    """(r, r', r'') summed term by term in long double."""
    ld = np.longdouble
    k, a, b = (x.astype(ld) for x in dom.coefficient_arrays())
    ang = phi.astype(ld)[:, None] * k
    c, s = np.cos(ang), np.sin(ang)
    return (ld(dom.c0) + np.sum(c * a + s * b, axis=1),
            np.sum(k * (c * b - s * a), axis=1),
            -np.sum(k * k * (c * a + s * b), axis=1))


# Per shape, the largest error per derivative order (r, r', r'') of the
# (angles x modes) cos/sin tables that the kernel replaced, measured against
# the long-double sums on the angles of the test below; the kernel must stay
# within twice that.
KERNEL_CASES = [
    pytest.param(StarDomain2D.ellipse(1.2, 1.0 / 1.2),
                 (2.36e-16, 2.84e-16, 8.72e-16), id="ellipse-64"),
    pytest.param(StarDomain2D.ellipse(1.2, 1.0 / 1.2, n_modes=32),
                 (2.00e-16, 2.48e-16, 7.27e-16), id="ellipse-32"),
    pytest.param(StarDomain2D.cosine(0.6, 2),
                 (1.90e-16, 1.60e-16, 3.23e-16), id="peanut"),
    pytest.param(rotated(StarDomain2D(c0=0.5, cos_coeffs=(0.0,) * 7 + (0.45,)),
                         0.3),
                 (1.70e-16, 7.54e-16, 5.49e-15), id="petals"),
    pytest.param(StarDomain2D(c0=1.0, cos_coeffs=(0.0, 0.4),
                              sin_coeffs=(0.0, 0.0, 0.2)),
                 (5.48e-16, 1.17e-15, 3.40e-15), id="mixed"),
    pytest.param(StarDomain2D(c0=1.0, cos_coeffs=(0.0, 0.1) + (0.0,) * 6 + (0.03,),
                              sin_coeffs=(0.05,) + (0.0,) * 9 + (0.02,)),
                 (3.40e-16, 2.00e-15, 1.96e-14), id="odd-two-blocks"),
]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("dom, table_errors", KERNEL_CASES)
def test_radial_derivatives_match_long_double_reference(dom, table_errors):
    rng = np.random.default_rng(0)
    phi = np.concatenate([rng.uniform(0.0, 2.0 * math.pi, 20000),
                          [0.0, 1e-9, math.pi, math.pi - 1e-9,
                           2.0 * math.pi - 1e-12]])
    got = dom.radial_derivatives(phi)
    want = long_double_derivatives(dom, phi)
    for order, table_error in enumerate(table_errors):
        err = np.abs(got[order].astype(np.longdouble) - want[order])
        assert float(np.max(err)) < 2.0 * table_error, order


@pytest.mark.parametrize("dom", [
    StarDomain2D.ellipse(1.2, 1.0 / 1.2, n_modes=32),
    StarDomain2D(c0=1.0, cos_coeffs=(0.0, 0.2), sin_coeffs=(0.0, 0.0, 0.1)),
    rotated(StarDomain2D.cosine(0.3, 5), 0.7),
], ids=["ellipse", "odd", "rotated"])
def test_lower_order_gives_the_same_bits_at_two_or_more_angles(dom):
    # at a single angle numpy reduces the (rows, 1) arrays in another inner
    # loop, and a value may differ by one ulp; from two angles on it may not
    rng = np.random.default_rng(2)
    for count in (2, 3, 16, 1000):
        for _ in range(20):
            phi = rng.uniform(0.0, 2.0 * math.pi, count)
            full = dom.radial_derivatives(phi)
            for order in (0, 1):
                got = dom.radial_derivatives(phi, order)
                assert len(got) == order + 1
                for a, b in zip(got, full):
                    assert np.array_equal(a, b), (count, order)


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
@pytest.mark.parametrize("dom", [
    StarDomain2D(c0=1.0),
    StarDomain2D.ellipse(1.2, 1.0 / 1.2, n_modes=32),
    StarDomain2D(c0=1.0, cos_coeffs=(0.1, 0.0, 0.05), sin_coeffs=(0.0,) * 9 + (0.01,)),
], ids=["circle", "ellipse", "odd"])
def test_evaluations_keep_the_input_shape(dom, shape):
    phi = np.random.default_rng(1).uniform(0.0, 2.0 * math.pi, shape)
    flat = phi.reshape(-1)
    for got, want in ((dom.radial(phi), dom.radial(flat)),
                      *zip(dom.radial_derivatives(phi),
                           dom.radial_derivatives(flat))):
        assert np.shape(got) == shape
        assert np.array_equal(np.reshape(got, -1), want)
    for got, want in ((dom.boundary(phi), dom.boundary(flat)),
                      *zip(dom.curve(phi), dom.curve(flat))):
        assert got.shape == shape + (2,)
        assert np.array_equal(got.reshape(-1, 2), want)
    if shape == ():
        assert isinstance(dom.radial(phi), np.floating)
        assert all(isinstance(x, np.floating)
                   for x in dom.radial_derivatives(float(phi)))


def test_contains_is_the_radial_test():
    dom = StarDomain2D.cosine(0.1, 3)
    pts = np.array([[0.0, 0.0], [1.05, 0.0], [0.5, 0.5], [2.0, 2.0]])
    inside = dom.contains(pts)
    assert inside.tolist() == [True, True, True, False]


# --------------------------------------------------------------------------
# boundary samples
# --------------------------------------------------------------------------

def test_boundary_sample_circle_curvature_and_normals():
    R = 1.7
    _, pos, normal, kappa, weight = _sample_boundary(StarDomain2D(c0=R), 128)[:5]
    assert pos.shape == normal.shape == (128, 2)
    assert float(np.max(np.abs(kappa * R - 1.0))) < 1e-14
    assert float(np.max(np.abs(np.linalg.norm(normal, axis=1) - 1.0))) < 1e-14
    # outward normal of a circle is the unit position vector
    assert np.allclose(normal, pos / R, atol=1e-13)
    assert rel_err(float(np.sum(weight)), 2.0 * math.pi * R) < 1e-14


@pytest.mark.parametrize("dom", [
    StarDomain2D.ellipse(1.2, 1.0 / 1.2, n_modes=32),
    StarDomain2D.cosine(0.1, 2),
    rotated(StarDomain2D(c0=1.0, cos_coeffs=(0.12, 0.0, 0.06),
                         sin_coeffs=(0.0, 0.08)), 0.37),
], ids=["ellipse-32", "cosine-k2", "rotated-asymmetric"])
def test_coarse_table_is_sampling_a_quarter_of_the_angles(dom):
    # the 1024-angle users read every 4th row of the one 4096-angle table,
    # with the weights times 4; bit for bit, so no output moves
    coarse = dom.coarse_table
    want = _sample_boundary(dom, 1024)
    for got, expected in zip(coarse[:5], want):
        assert np.array_equal(got, expected)
    table = dom.boundary_table
    assert np.array_equal(coarse.weight, table.weight[::4] * 4)
    assert not table.gamma.flags.writeable
    assert not any(x.flags.writeable for x in coarse)
    assert dom.coarse_table is coarse


def test_ellipse_curvature_at_vertex():
    dom = StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)
    kappa = _sample_boundary(dom, 64)[3]  # phi = 0 is the (a, 0) vertex
    assert rel_err(float(kappa[0]), ELLIPSE_A / ELLIPSE_B**2) < 1e-10


def test_ellipse_curvature_against_parametric_oracle():
    # the polar angle phi and the ellipse parameter t coincide at the axes
    # only, so compare at matched positions: tan t = (a/b) tan phi
    dom = StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)
    phi = np.array([0.1, 0.7, 1.3, 2.2, 4.0, 5.7])
    _, pos, _, kappa, _ = _sample_boundary(dom, 4096)[:5]
    t = np.arctan2(pos[:, 1] / ELLIPSE_B, pos[:, 0] / ELLIPSE_A)
    want = parametric_ellipse_curvature(t, ELLIPSE_A, ELLIPSE_B)
    assert float(np.max(np.abs(kappa - want))) < 1e-9


def test_perturbed_disk_curvature_formula():
    eps = 0.07
    dom = StarDomain2D.cosine(eps, 2)
    kappa = _sample_boundary(dom, 64)[3]
    want = ((1 + eps) ** 2 + 4 * eps * (1 + eps)) / (1 + eps) ** 3
    assert rel_err(float(kappa[0]), want) < 1e-13


# --------------------------------------------------------------------------
# area, perimeter, diameter
# --------------------------------------------------------------------------

def test_circle_bulk_quantities():
    dom = StarDomain2D(c0=1.0)
    assert rel_err(area(dom), math.pi) < 1e-14
    assert rel_err(perimeter(dom), 2.0 * math.pi) < 1e-14
    assert rel_err(diameter(dom), 2.0) < 1e-12
    h0, R = h0_and_r(dom)
    assert rel_err(h0, 1.0) < 1e-13 and rel_err(R, 1.0) < 1e-13


def test_ellipse_area_perimeter_diameter():
    dom = StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)
    assert rel_err(area(dom), math.pi * ELLIPSE_A * ELLIPSE_B) < 1e-12
    assert rel_err(perimeter(dom), ELLIPSE_PERIMETER) < 1e-12
    assert rel_err(diameter(dom), 2.0 * ELLIPSE_A) < 1e-10
    h0, R = h0_and_r(dom)
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


def _perimeter_at(dom: StarDomain2D, m: int) -> float:
    """The trapezoid sum of :func:`perimeter` at m angles."""
    return float(np.sum(_sample_boundary(dom, m)[4]))


def test_perimeter_converges_spectrally_under_doubling():
    dom = StarDomain2D.cosine(0.15, 5)
    assert rel_err(_perimeter_at(dom, 4096), perimeter(dom)) < 1e-15
    ref = _perimeter_at(dom, 8192)
    err64 = abs(_perimeter_at(dom, 64) - ref)
    err128 = abs(_perimeter_at(dom, 128) - ref)
    assert err128 < 1e-12 or err64 > 4.0 * err128


def test_scaling_homogeneity():
    base = StarDomain2D.cosine(0.1, 3)
    lam = 2.5
    scaled = StarDomain2D(c0=lam * base.c0,
                          cos_coeffs=tuple(lam * c for c in base.cos_coeffs))
    assert rel_err(area(scaled), lam**2 * area(base)) < 1e-12
    assert rel_err(perimeter(scaled), lam * perimeter(base)) < 1e-12
    h0, R = h0_and_r(base)
    h0s, Rs = h0_and_r(scaled)
    assert rel_err(Rs, lam * R) < 1e-12
    assert rel_err(h0s, h0 / lam) < 1e-12


def test_isoperimetric_inequality_on_catalog():
    domains = [
        StarDomain2D(c0=0.8, label="circle"),
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
    dom = StarDomain2D(c0=1.0)
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
    dom = StarDomain2D(c0=1.0)
    with pytest.raises(DomainError):
        rho_bounds(dom, np.array([2.0, 0.0]))


def delta_gamma(dom: StarDomain2D, x) -> float:
    """delta_Gamma(x) by :func:`boundary_distance` from the nearest vertex
    of the coarse table."""
    x = np.asarray(x, dtype=float)[None, :]
    near = np.linalg.norm(dom.coarse_table.gamma - x, axis=-1)
    return float(boundary_distance(dom, x, np.argmin(near, keepdims=True))[0])


def test_delta_gamma_circle_and_boundary_point():
    dom = StarDomain2D(c0=1.5)
    assert rel_err(delta_gamma(dom, np.zeros(2)), 1.5) < 1e-10
    assert delta_gamma(dom, np.array([1.5, 0.0])) < 1e-8


def test_delta_gamma_against_brute_force():
    dom = StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)
    x = np.array([0.5, 0.0])
    phi = np.linspace(0.0, 2.0 * math.pi, 1_000_000, endpoint=False)
    brute = float(np.min(np.linalg.norm(dom.boundary(phi) - x, axis=-1)))
    assert abs(delta_gamma(dom, x) - brute) < 1e-8
    # the min of rho_bounds is the same step
    assert rho_bounds(dom, x)[0] == delta_gamma(dom, x)


def test_ball_radii_circle_capped_exterior():
    dom = StarDomain2D(c0=1.0)
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
    kappa = _sample_boundary(dom, 8192)[3]
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


def test_ball_table_blocks_match_one_pass():
    # the table is built and reduced in row blocks; the arithmetic is the
    # same as one pass over the whole (tangency point x lag) array, and each
    # row keeps the first lag where its minimum ties
    dom = _mixed(0.5)
    table = dom.boundary_table
    r, r1 = table.r, table.r1
    m, stride = r.size, 8
    lag = np.arange(stride + 1, m - stride)
    rq = r[(np.arange(0, m, stride)[:, None] + lag[None, :]) % m]
    d = 2.0 * math.pi * lag / m
    num, den = _tangent_ball(r[::stride, None], r1[::stride, None], rq,
                             np.sin(d), np.sin(0.5 * d))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    least, lags = _ball_table(dom)
    for row, side in enumerate((1.0, -1.0)):
        pairs = np.where(side * den > 0.0, side * ratio, math.inf)
        k = np.argmin(pairs, axis=1)
        assert np.array_equal(least[row], np.min(pairs, axis=1))
        assert np.array_equal(lags[row], lag[k])
    assert np.array_equal(least[0], np.min(ratio, axis=1, initial=math.inf,
                                           where=den > 0.0))


@pytest.mark.parametrize("dom", [
    _mixed(0.5),
    rotated(StarDomain2D(c0=0.5, cos_coeffs=(0.0,) * 7 + (0.45,)),
            math.pi / 8.0),
], ids=["mixed", "petals"])
def test_shared_ball_table_gives_the_separate_values(dom):
    # the table the domain keeps for r_i, r_e and the inradius gives, bit
    # for bit, what two equal domains with a table each give, and neither
    # search writes to it
    table = _ball_table(dom)
    before = [x.tobytes() for x in table]
    shared = (*ball_radii(dom), inradius(dom))
    alone = [StarDomain2D(dom.c0, dom.cos_coeffs, dom.sin_coeffs)
             for _ in range(2)]
    separate = (*ball_radii(alone[0]), inradius(alone[1]))
    assert _ball_table(alone[0]) is not _ball_table(alone[1])
    assert [x.hex() for x in shared] == [x.hex() for x in separate]
    assert _ball_table(dom) is table
    assert [x.tobytes() for x in table] == before
    assert not any(x.flags.writeable for x in table)


def test_ball_radii_closed_forms():
    r_i, _ = ball_radii(StarDomain2D(c0=1.0))
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


def test_star_radius_circle_and_ellipse():
    assert rel_err(star_radius(StarDomain2D(c0=1.3)), 1.3) < 1e-12
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
            dist = np.hypot(seg[:, 0], seg[:, 1])
            phi = np.arctan2(seg[:, 1], seg[:, 0])
            assert np.all(dist < dom.radial(phi) + 1e-9)


def test_inradius_circle_and_ellipse():
    assert abs(inradius(StarDomain2D(c0=1.0)) - 1.0) < 1e-8
    assert abs(inradius(StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)) - ELLIPSE_B) < 1e-6


def _asymmetric() -> StarDomain2D:
    """Modes 1 to 3 in cosine and sine, rotated: no symmetry at all."""
    return rotated(StarDomain2D(1.0, (0.05, 0.2, 0.0), (0.1, 0.0, 0.07)), 0.4)


_CATALOG = [
    StarDomain2D(c0=1.0),
    StarDomain2D.ellipse(1.2, 1 / 1.2),
    StarDomain2D.cosine(0.1, 3),
    StarDomain2D.cosine(0.6, 2),  # the peanut
    _mixed(0.3),
    _asymmetric(),
]


def test_domain_scalars_validate_for_catalog():
    # the consistency inequalities between the planar domain scalars, with
    # rho_i the distance from the origin to the boundary
    for dom in _CATALOG:
        vol, surf, d = area(dom), perimeter(dom), diameter(dom)
        rho_i, _ = rho_bounds(dom, np.zeros(2))
        r_omega = inradius(dom)
        for lo, hi in [
            (math.pi * r_omega**2, vol),  # |B| r_Omega^2 <= |Omega|
            (vol, math.pi * d**2),  # |Omega| <= |B| d^2
            (2.0 * math.pi * r_omega, surf),  # 2 |B| r_Omega <= |Gamma|
            (surf, 2.0 * vol / rho_i),  # |Gamma| <= 2 |Omega| / rho_i
            (rho_i, r_omega),
            (r_omega, d / 2.0),
        ]:
            assert lo <= hi * (1.0 + 1e-9), dom.label


def test_ball_radii_below_inradius():
    # r_i, the height of the interior cones, is the smallest tangent-ball
    # radius and r_Omega the largest
    for dom in _CATALOG:
        r_i, _ = ball_radii(dom)
        assert r_i <= inradius(dom) * (1.0 + 1e-12), dom.label


def test_inradius_closed_forms():
    assert abs(inradius(StarDomain2D(c0=1.0)) - 1.0) < 1e-12
    assert abs(inradius(StarDomain2D(c0=1.3)) - 1.3) < 1e-12
    for a, b in ((1.2, 1.0 / 1.2), (ELLIPSE_A, ELLIPSE_B)):
        assert abs(inradius(StarDomain2D.ellipse(a, b)) - b) < 1e-12
    # the disk of radius 1 - eps about the origin touches every trough
    for eps, k in ((0.1, 2), (0.1, 3), (0.15, 5)):
        assert abs(inradius(StarDomain2D.cosine(eps, k)) - (1.0 - eps)) < 1e-12


@pytest.mark.parametrize("dom", [StarDomain2D.cosine(0.6, 2), _mixed(0.3),
                                 _asymmetric()],
                         ids=["peanut", "mixed", "asymmetric"])
def test_inradius_rotation_and_dilation(dom):
    want = inradius(dom)
    for alpha in (0.7, 2.1):
        assert rel_err(inradius(rotated(dom, alpha)), want) < 1e-12
    lam = 1.7
    big = StarDomain2D(lam * dom.c0, tuple(lam * c for c in dom.cos_coeffs),
                       tuple(lam * c for c in dom.sin_coeffs))
    assert rel_err(inradius(big), lam * want) < 1e-12


def _nearest_angle(dom: StarDomain2D, c, t):
    """Newton's method on |gamma(t) - c|^2 / 2 from the angles t."""
    for _ in range(12):
        r, r1, r2 = dom.radial_derivatives(t)
        co, si = np.cos(t), np.sin(t)
        gx, gy = r * co - c[0], r * si - c[1]
        tx, ty = r1 * co - r * si, r1 * si + r * co
        ax, ay = (r2 - r) * co - 2.0 * r1 * si, (r2 - r) * si + 2.0 * r1 * co
        t = t - (tx * gx + ty * gy) / (tx * tx + ty * ty + ax * gx + ay * gy)
    return t


def _inradius_reference(dom: StarDomain2D, n: int = 65536) -> float:
    """Brute-force inradius: the deepest center of a coarse and then a fine
    grid by the distance to n boundary samples, polished by SLSQP on
    max s subject to |c - q_k(c)| >= s, where q_k(c) are the projections of
    c onto every branch of the curve that comes near the grid's best center.
    """
    t = 2.0 * math.pi * np.arange(n) / n
    pts = dom.boundary(t)
    p2 = np.sum(pts * pts, axis=1)

    def sampled(centers, stride):
        d2 = np.concatenate([
            np.min(np.sum(c * c, axis=1)[:, None] + p2[None, ::stride]
                   - 2.0 * c @ pts[::stride].T, axis=1)
            for c in np.array_split(centers, max(1, len(centers) // 64))])
        return np.sqrt(np.maximum(d2, 0.0))

    best = np.zeros(2)
    r_max = float(np.max(np.sqrt(p2)))
    for h, half, stride in ((0.02, r_max, 16), (0.002, 0.04, 1)):
        ax = np.arange(-half, half + h / 2, h)
        X, Y = np.meshgrid(ax, ax)
        c = np.stack([X.ravel(), Y.ravel()], axis=-1) + best
        c = c[dom.contains(c)]
        best = c[int(np.argmax(sampled(c, stride)))]
    d = np.hypot(pts[:, 0] - best[0], pts[:, 1] - best[1])
    branch = (d <= np.roll(d, 1)) & (d <= np.roll(d, -1)) & (d < d.min() + 0.05)
    seeds = t[branch]

    def contacts(x):
        seeds[:] = _nearest_angle(dom, x[:2], seeds)
        q = dom.boundary(seeds)
        return q, np.hypot(q[:, 0] - x[0], q[:, 1] - x[1])

    def jac(x):
        q, dist = contacts(x)
        return np.column_stack([(x[0] - q[:, 0]) / dist,
                                (x[1] - q[:, 1]) / dist, -np.ones(dist.size)])

    x0 = np.r_[best, float(np.min(contacts(np.r_[best, 0.0])[1]))]
    res = optimize.minimize(
        lambda x: -x[2], x0, jac=lambda x: np.array([0.0, 0.0, -1.0]),
        constraints=[{"type": "ineq", "fun": lambda x: contacts(x)[1] - x[2],
                      "jac": jac}],
        method="SLSQP", options={"ftol": 1e-16, "maxiter": 200})
    return float(np.min(contacts(res.x)[1]))


@pytest.mark.parametrize("dom", [
    StarDomain2D.cosine(0.6, 2),
    _asymmetric(),
    # the largest disk touches three branches whose sampled quotients
    # rank differently from their minima
    StarDomain2D(1.0, (0.1, 0.15, 0.05), (-0.1, 0.05, 0.08)),
], ids=["peanut", "asymmetric", "three-contact"])
def test_inradius_matches_brute_force(dom):
    assert abs(inradius(dom) - _inradius_reference(dom)) < 1e-9


def test_bracket_search_stops_when_the_bracket_stops_shrinking():
    calls = []

    def parabola(x):
        calls.append(x)
        return (x - 0.3) ** 2

    t, f = _bracket_min(parabola, 0.5, 0.04, 0.5)
    assert abs(t - 0.3) < 1e-15
    assert f == (t - 0.3) ** 2
    # each probe is new, and a round evaluates all but the middle point in
    # one call
    probes = np.concatenate(calls)
    assert probes.size == np.unique(probes).size
    assert 0.04 not in probes
    assert {x.size for x in calls} == {_PROBES - 1}


def test_bracket_search_stops_at_the_angle_resolution():
    # a minimum at 0 would let the bracket shrink through the denormals;
    # the bracket narrows (_PROBES + 1) / 2 times a round, so it reaches
    # the angle resolution from width 1 within this many rounds
    rounds = math.ceil(math.log(1.0 / _ANGLE_RESOLUTION)
                       / math.log((_PROBES + 1) / 2))
    calls = []

    def parabola(x):
        calls.append(x)
        return x * x

    t, _ = _bracket_min(parabola, -0.5, 0.25, 0.5)
    assert abs(t) < 1e-14
    assert len(calls) <= rounds == 25


# star_radius, r_i, r_e, inradius and rho_bounds(dom, 0) from the golden
# search that ran to a 90-step cap, to which the bracket search, stopping at
# the angle resolution, must stay within 1e-15.  The ellipse's r_i is the value after its odd and sine
# coefficients became exact zeros, which moved it by 6.9e-15 (toward the
# closed form b^2 / a).
_GEOMETRY_REFERENCE = [
    (StarDomain2D(c0=1.0, label="circle(R=1)"),
     (1.0, 1.0, 2.0, 1.0, 0.9999999999999999, 1.0)),
    (StarDomain2D.ellipse(1.2, 1 / 1.2),
     (0.8333333333333334, 0.5787037037036827, 2.4000000000000004,
      0.8333333333333335, 0.8333333333333335, 1.2000000000000002)),
    (StarDomain2D.cosine(0.1, 2),
     (0.9, 0.8066666666666666, 2.2, 0.9, 0.9, 1.1)),
    (StarDomain2D.cosine(0.1, 3),
     (0.8999999999999999, 0.605, 2.0714627957232823, 0.9, 0.9, 1.1)),
    (rotated(StarDomain2D.cosine(0.15, 5), 0.3),
     (0.7569996270372054, 0.26989795918367343, 0.24913793103448265,
      0.8499999999999988, 0.85, 1.15)),
    (StarDomain2D.cosine(0.6, 2),
     (0.3001109251069126, 0.4, 0.08000000000000003, 0.7111111111111112,
      0.4, 1.6)),
    (_mixed(0.3),
     (0.45368626146149443, 0.5412256104240895, 0.15125, 0.7000000000000001,
      0.5499999999999999, 1.3659564810057327)),
    (_asymmetric(),
     (0.7655200626502817, 0.6149244706189014, 1.379518578653075,
      0.8035529061186943, 0.7655200626502818, 1.2973050703205875)),
]


@pytest.mark.parametrize("dom, want", _GEOMETRY_REFERENCE,
                         ids=[d.label for d, _ in _GEOMETRY_REFERENCE])
def test_golden_refinements_keep_their_values(dom, want):
    got = (star_radius(dom), *ball_radii(dom), inradius(dom),
           *rho_bounds(dom, np.zeros(2)))
    for g, w in zip(got, want):
        assert rel_err(g, w) <= 1e-15


@pytest.mark.parametrize("dom", [d for d, _ in _GEOMETRY_REFERENCE],
                         ids=[d.label for d, _ in _GEOMETRY_REFERENCE])
def test_farthest_pair_matches_the_broadcast_distances(dom):
    # scipy's squared-distance table is, bit for bit, the sum of the
    # broadcast squares, so diameter seeds from the same pair
    pts = dom.coarse_table.gamma
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    i, j = np.unravel_index(int(np.argmax(d2)), d2.shape)
    got = _farthest_pair(pts)
    assert got[:2] == (i, j)
    assert got[2].hex() == float(d2[i, j]).hex()


def test_geometry_kernel_budget(monkeypatch):
    # every search evaluates a round of probes in one kernel call, and the
    # inradius projects the contacts of all of a round's branches together;
    # {angles per call: calls} on r = 1 + 0.2 (cos 2 phi + sin(3 phi) / 2 +
    # cos(5 phi) / 3), whose boundary table and diameter are built before
    # counting.  Scalar probes took 792, 120, 61 and 65 calls.
    dom = StarDomain2D(1.0, (0.0, 0.2, 0.0, 0.0, 0.2 / 3.0), (0.0, 0.0, 0.1))
    diameter(dom)
    kernel = StarDomain2D.radial_derivatives
    sizes = []

    def counted(self, phi, *order):
        sizes.append(np.size(phi))
        return kernel(self, phi, *order)

    monkeypatch.setattr(StarDomain2D, "radial_derivatives", counted)
    budget = {
        inradius: {1: 8, 6: 63, 7: 7, 10: 7, 12: 91},
        ball_radii: {6: 40},
        star_radius: {6: 20},
        lambda d: rho_bounds(d, np.zeros(2)): {1: 4, 6: 20},
    }
    for fun, want in budget.items():
        sizes.clear()
        fun(dom)
        assert dict(Counter(sizes)) == want


def test_geometry_is_kept_on_the_domain_object(monkeypatch):
    # the first ball_radii, inradius and diameter call and the first grid's
    # delta build the tables; a second call on the same object builds
    # nothing and calls no kernel, a second grid's delta builds no Delaunay
    # table, and a new object with equal coefficients builds its own tables
    dom = _mixed(0.5)
    first = (ball_radii(dom), inradius(dom), diameter(dom))
    delta = Grid.build(dom, 1.0 / 32.0).delta
    kernel = StarDomain2D.radial_derivatives
    counts = Counter()

    def counted(name, fn):
        def shim(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return shim

    monkeypatch.setattr(StarDomain2D, "radial_derivatives",
                        counted("kernel", kernel))
    monkeypatch.setattr(stardomain, "sliding_window_view", counted(
        "table", stardomain.sliding_window_view))
    monkeypatch.setattr(stardomain, "_farthest_pair", counted(
        "farthest", stardomain._farthest_pair))
    monkeypatch.setattr(stardomain, "Delaunay", counted(
        "delaunay", stardomain.Delaunay))
    assert (ball_radii(dom), inradius(dom), diameter(dom)) == first
    assert counts == {}
    again = Grid.build(dom, 1.0 / 32.0).delta
    assert np.array_equal(again, delta, equal_nan=True)
    assert counts["delaunay"] == 0
    equal = StarDomain2D(dom.c0, dom.cos_coeffs, dom.sin_coeffs)
    assert equal == dom
    assert ball_radii(equal) == first[0]
    assert counts["table"] == 1 and counts["farthest"] == 1
    assert counts["kernel"] > 0
    assert _ball_table(equal) is not _ball_table(dom)
    assert np.array_equal(Grid.build(equal, 1.0 / 32.0).delta, delta,
                          equal_nan=True)
    assert counts["delaunay"] == 1
    assert _delaunay_table(equal) is not _delaunay_table(dom)
    assert counts["delaunay"] == 1
    assert not any(x.flags.writeable for x in _delaunay_table(dom))


# --------------------------------------------------------------------------
# curvature deviation
# --------------------------------------------------------------------------

def test_curvature_deviation_zero_for_circle():
    assert _curvature_deviation_at(StarDomain2D(c0=2.2), 4096) < 1e-13


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
    got = _curvature_deviation_at(dom, 4096)
    assert rel_err(got, want) < 1e-9


def test_curvature_deviation_rotation_invariant():
    dom = StarDomain2D.cosine(0.15, 3)
    base = _curvature_deviation_at(dom, 4096)
    for alpha in (0.3, 1.1, 2.0):
        assert rel_err(_curvature_deviation_at(rotated(dom, alpha), 4096),
                       base) < 1e-12


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


def _curvature_deviation_at(dom: StarDomain2D, m: int) -> float:
    """Normalized boundary L2 norm of kappa - H0 from the m-angle samples
    (measure dS / |Gamma|)."""
    _, _, _, kappa, weight = _sample_boundary(dom, m)[:5]
    length = float(np.sum(weight))
    h0 = length / (2.0 * area(dom))
    return math.sqrt(float(np.sum(weight * (kappa - h0) ** 2)) / length)


def test_quantities_converge_under_sample_doubling():
    dom = StarDomain2D.cosine(0.15, 5)
    ref = _curvature_deviation_at(dom, 2**15)
    e1 = abs(_curvature_deviation_at(dom, 128) - ref)
    e2 = abs(_curvature_deviation_at(dom, 256) - ref)
    assert e2 < 1e-12 or e1 > 4.0 * e2
