"""Tests for the identity checks and inequality chains on solved domains.

Oracles: on the ellipse a=2, b=1 the torsion function is the quadratic
u = c (x^2/a^2 + y^2/b^2 - 1) with c = a^2 b^2 / (a^2 + b^2), so every
integral in the check battery has a closed form.  The ones frozen below
were cross-checked against scipy.integrate.quad of the boundary-arc
integrands before being pinned:

* int |hess h|^2 dx      = 18/25 * pi a b                = 36 pi / 25
* int (-u) |hess h|^2 dx = 18/25 * c/2 * pi a b          = 72 pi / 125
* oint H u_nu^2 dS       = 2 |Omega| - int |hess h|^2 dx = 64 pi / 25
* oint (u_nu - R)^2/R dS = 0.5312572925551439  (quad, R = 2|Omega|/|Gamma|)
* sup |grad h|           = (1 - 2c/a^2) * a              = 6/5

On the ball every identity degenerates to 0 = 0 and must pass trivially.
Dilation covariance is exercised with a power-of-two scaling, which the
whole pipeline reproduces exactly in floating point.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from oscbound import DomainError, GeometryError, identities, stardomain, torsion
from oscbound.constants import INF
from oscbound.identities import (
    FLOOR,
    IdentityReport,
    build_pipeline_data,
    check_divergence_identity,
    check_fundamental_identity,
    check_grad_infty_bound,
    check_hopf_bound,
    check_identity_mp,
    check_min_depth,
    check_oscillation_chain,
    check_sbt_chain,
    check_torsion_depth,
    check_weighted_poincare,
    run_domain_checks,
)
from oscbound.stability import FamilySpec, build_family_domain, run_family
from oscbound.stardomain import (
    StarDomain2D,
    ball_radii,
    diameter,
    inradius,
    star_radius,
)
from oscbound.torsion import lp_norm_domain

ELLIPSE_A, ELLIPSE_B = 2.0, 1.0
MP_BOTH_SIDES = 72.0 * math.pi / 125.0
HESS_INTEGRAL = 36.0 * math.pi / 25.0
CURV_BOUNDARY_TERM = 64.0 * math.pi / 25.0
TRACE_DEFECT_TERM = 0.5312572925551439
SUP_GRAD_H = 1.2

CHECK_ORDER = [
    "divergence",
    "fundamental",
    "identity_mp",
    "hopf",
    "torsion_depth",
    "min_depth",
    "oscillation_chain",
    "grad_infty",
    "grad_infty",
    "grad_infty_weighted",
    "weighted_poincare",
    "sbt_hessian_link",
    "sbt_trace_link",
    "sbt_flatness_link",
]


@pytest.fixture(scope="module")
def disk_data():
    return build_pipeline_data(StarDomain2D.circle(1.0), 1.0 / 32.0)


@pytest.fixture(scope="module")
def ellipse_data():
    return build_pipeline_data(
        StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B), 1.0 / 64.0)


@pytest.fixture(scope="module")
def ellipse_coarse():
    return build_pipeline_data(
        StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B), 1.0 / 32.0)


# --------------------------------------------------------------------------
# report semantics
# --------------------------------------------------------------------------

class TestIdentityReport:
    def test_identity_pass_and_fail(self):
        ok = IdentityReport.identity("eq", 1.0, 1.0005, 1e-3)
        assert ok.status == "pass"
        assert ok.kind == "identity"
        assert ok.residual == pytest.approx(0.0005 / 1.0005)
        bad = IdentityReport.identity("eq", 1.0, 1.1, 1e-3)
        assert bad.status == "fail"

    def test_identity_natural_scale(self):
        """Noise-over-noise residuals deflate against the term magnitude."""
        raw = IdentityReport.identity("eq", 1e-6, 0.0, 1e-2)
        assert raw.status == "fail" and raw.residual == pytest.approx(1.0)
        scaled = IdentityReport.identity("eq", 1e-6, 0.0, 1e-2,
                                         natural_scale=1.0)
        assert scaled.status == "pass"
        assert scaled.residual == pytest.approx(1e-6)

    def test_inequality_margins(self):
        assert IdentityReport.inequality("le", 1.0, 2.0).status == "pass"
        # absolute slack: a 5e-10 violation of an equality-witness bound
        eq_edge = IdentityReport.inequality("le", 5e-10, 0.0)
        assert eq_edge.status == "pass"
        assert IdentityReport.inequality("le", 2e-9, 0.0).status == "fail"
        # relative slack through the tolerance
        rel = IdentityReport.inequality("le", 1.0005, 1.0, tolerance=1e-3)
        assert rel.status == "pass"
        assert IdentityReport.inequality("le", 1.1, 1.0,
                                         tolerance=1e-3).status == "fail"

    def test_monitored_status(self):
        live = IdentityReport.monitored("ratio", 0.7, 1.3)
        assert live.kind == "ratio"
        assert live.status == "monitored"
        trivial = IdentityReport.monitored("ratio", 1e-13, 1e-14)
        assert trivial.status == "pass"

    def test_ratio_property(self):
        assert IdentityReport.monitored("r", 3.0, 1.5).ratio == pytest.approx(2.0)
        assert IdentityReport.monitored("r", 0.0, 0.0).ratio == 0.0
        degenerate = IdentityReport("r", 1.0, 0.0, 0.0, 0.0, "monitored",
                                    kind="ratio")
        assert degenerate.ratio == math.inf

    def test_status_contradictions_rejected(self):
        with pytest.raises(DomainError):
            IdentityReport("eq", 1.0, 2.0, 0.5, 0.1, "pass")
        with pytest.raises(DomainError):
            IdentityReport("eq", 1.0, 1.0, 0.0, 0.1, "fail")
        with pytest.raises(DomainError):
            IdentityReport("le", 2.0, 1.0, 1.0, 0.0, "pass", kind="inequality")
        with pytest.raises(DomainError):
            IdentityReport("r", 1.0, 2.0, 0.0, 0.0, "pass", kind="ratio")

    def test_nonfinite_sides_must_fail(self):
        with pytest.raises(DomainError):
            IdentityReport("eq", math.nan, 1.0, 0.0, 0.1, "pass")
        report = IdentityReport("eq", math.nan, 1.0, math.inf, 0.1, "fail")
        assert report.status == "fail"

    def test_unknown_kind_and_status(self):
        with pytest.raises(DomainError):
            IdentityReport("eq", 1.0, 1.0, 0.0, 0.1, "pass", kind="oracle")
        with pytest.raises(DomainError):
            IdentityReport("eq", 1.0, 1.0, 0.0, 0.1, "maybe")


# --------------------------------------------------------------------------
# integration helpers on the bundle
# --------------------------------------------------------------------------

class TestPipelineBundle:
    def test_constant_domain_integral(self, disk_data):
        total = disk_data.domain_integral(
            np.ones_like(disk_data.u.values))
        assert total == pytest.approx(disk_data.area, rel=1e-8)

    def test_domain_integral_rescales_exclusions(self, disk_data):
        grid = disk_data.u.grid
        rng = np.random.default_rng(7)
        valid = rng.random(grid.inside.shape) < 0.5
        total = disk_data.domain_integral(
            np.full(grid.inside.shape, 3.0), valid)
        assert total == pytest.approx(3.0 * disk_data.area, rel=1e-8)

    def test_domain_integral_needs_valid_nodes(self, disk_data):
        empty = np.zeros_like(disk_data.u.grid.inside)
        with pytest.raises(GeometryError):
            disk_data.domain_integral(disk_data.u.values, empty)

    def test_constant_boundary_integral(self, disk_data):
        ones = np.ones_like(disk_data.trace.values)
        assert disk_data.boundary_integral(ones) == pytest.approx(
            disk_data.perimeter, rel=1e-12)

    def test_boundary_integral_needs_valid_samples(self, disk_data):
        with pytest.raises(GeometryError):
            disk_data.boundary_integral(
                np.full_like(disk_data.trace.values, np.nan))

    def test_reference_radius(self, disk_data, ellipse_data):
        assert disk_data.R == pytest.approx(1.0, rel=1e-12)
        assert disk_data.H0 == pytest.approx(1.0, rel=1e-12)
        # |Gamma| = 4 a E(1 - b^2/a^2); R = 2 |Omega| / |Gamma|
        from scipy.special import ellipe
        perim = 4.0 * ELLIPSE_A * ellipe(1.0 - (ELLIPSE_B / ELLIPSE_A) ** 2)
        assert ellipse_data.R == pytest.approx(
            2.0 * math.pi * ELLIPSE_A * ELLIPSE_B / perim, rel=1e-12)

    def test_hessian_residue_is_trace_free(self, ellipse_data):
        comp = ellipse_data.hess_h.components
        trace = comp[..., 0] + comp[..., 2]
        assert np.max(np.abs(trace[ellipse_data.hess_h.valid])) < 1e-9

    def test_auxiliary_field_definition(self, ellipse_data):
        grid = ellipse_data.u.grid
        xx, yy = np.meshgrid(grid.xs, grid.ys, indexing="ij")
        quad = 0.5 * ((xx - ellipse_data.z[0]) ** 2
                      + (yy - ellipse_data.z[1]) ** 2)
        expected = quad - ellipse_data.u.values
        gap = np.abs(ellipse_data.h_aux.values - expected)[grid.inside]
        assert np.max(gap) < 1e-12

    def test_geometry_scalars(self, disk_data, ellipse_data):
        assert disk_data.z == pytest.approx([0.0, 0.0], abs=1e-9)
        assert disk_data.r_i == pytest.approx(1.0, rel=1e-9)
        assert disk_data.rho_e - disk_data.rho_i == pytest.approx(0.0, abs=1e-9)
        assert disk_data.mean_convex
        # rolling-ball radius of the ellipse is b^2/a, its inradius is b
        assert ellipse_data.r_i == pytest.approx(
            ELLIPSE_B**2 / ELLIPSE_A, abs=1e-4)
        assert ellipse_data.r_inradius == pytest.approx(ELLIPSE_B, rel=1e-9)
        assert ellipse_data.rho_star == pytest.approx(1.0, rel=1e-9)
        assert ellipse_data.mean_convex


# --------------------------------------------------------------------------
# ball: every check is trivial and must pass
# --------------------------------------------------------------------------

class TestBallBattery:
    def test_all_asserted_checks_pass(self, disk_data):
        for report in run_domain_checks(disk_data):
            if report.kind != "ratio":
                assert report.status == "pass", report

    def test_fundamental_trivially_passes(self, disk_data):
        report = check_fundamental_identity(disk_data)
        assert report.status == "pass"
        assert abs(report.lhs) < 1e-3 and abs(report.rhs) < 1e-3
        assert report.residual < 1e-4

    def test_mp_identity_trivially_passes(self, disk_data):
        report = check_identity_mp(disk_data)
        assert report.status == "pass"
        assert abs(report.lhs) < 1e-3 and abs(report.rhs) < 1e-3
        assert report.residual < 1e-4

    def test_gradient_trace_nearly_radial(self, disk_data):
        # u_nu = (x - z) . nu = 1 on the unit circle, so h_nu ~ 0
        assert np.max(np.abs(disk_data.h_nu[disk_data.trace.valid])) < 1e-2

    def test_hessian_link_vanishes(self, disk_data):
        link = check_sbt_chain(disk_data)[0]
        assert link.name == "sbt_hessian_link"
        assert link.status == "pass"  # both deviations are exactly ~0


# --------------------------------------------------------------------------
# ellipse: closed-form oracles
# --------------------------------------------------------------------------

class TestEllipseOracles:
    def test_interior_hessian_integral(self, ellipse_data):
        mag2 = ellipse_data.hess_h.magnitude() ** 2
        value = ellipse_data.domain_integral(mag2, ellipse_data.hess_h.valid)
        assert value == pytest.approx(HESS_INTEGRAL, rel=1e-10)

    def test_curvature_boundary_term(self, ellipse_data):
        un = ellipse_data.trace.values
        value = ellipse_data.boundary_integral(ellipse_data.curvature * un**2)
        assert value == pytest.approx(CURV_BOUNDARY_TERM, rel=8e-3)

    def test_trace_defect_term(self, ellipse_data):
        un = ellipse_data.trace.values
        value = ellipse_data.boundary_integral(
            (un - ellipse_data.R) ** 2) / ellipse_data.R
        assert value == pytest.approx(TRACE_DEFECT_TERM, rel=1e-3)

    def test_mp_interior_integral(self, ellipse_data):
        report = check_identity_mp(ellipse_data)
        assert report.lhs == pytest.approx(MP_BOTH_SIDES, rel=5e-4)
        assert report.rhs == pytest.approx(MP_BOTH_SIDES, rel=5e-3)
        assert report.status == "pass"

    def test_divergence_sides(self, ellipse_data):
        report = check_divergence_identity(ellipse_data)
        assert report.lhs == pytest.approx(4.0 * math.pi, rel=1e-12)
        assert report.rhs == pytest.approx(4.0 * math.pi, rel=5e-3)
        assert report.status == "pass"

    def test_fundamental_passes(self, ellipse_data):
        report = check_fundamental_identity(ellipse_data)
        assert report.status == "pass"
        assert report.lhs == pytest.approx(
            HESS_INTEGRAL + TRACE_DEFECT_TERM, rel=2e-3)

    def test_sup_gradient(self, ellipse_data):
        sup = lp_norm_domain(ellipse_data.grad_h, INF)
        assert sup == pytest.approx(SUP_GRAD_H, rel=2e-2)


# --------------------------------------------------------------------------
# ellipse: inequality checks
# --------------------------------------------------------------------------

class TestEllipseInequalities:
    def test_hopf(self, ellipse_data):
        report = check_hopf_bound(ellipse_data)
        assert report.kind == "inequality"
        assert report.status == "pass"
        # min u_nu = 2 c b / a at the flat ends of the ellipse
        assert report.rhs == pytest.approx(0.8, rel=5e-3)

    def test_torsion_depth(self, ellipse_data):
        report = check_torsion_depth(ellipse_data)
        assert report.status == "pass"
        assert report.lhs <= 1e-3

    def test_torsion_depth_on_refined_family_member(self):
        # the ladder's ellipse rung: its near-boundary nodes need the exact
        # boundary distance, a boundary polygon overestimates it
        spec = FamilySpec(kind="ellipse")
        data = build_pipeline_data(build_family_domain(spec, 0.2), 1.0 / 128.0)
        report = check_torsion_depth(data)
        assert report.status == "pass"
        assert report.lhs < 0.0

    def test_min_depth(self, ellipse_data):
        report = check_min_depth(ellipse_data)
        assert report.status == "pass"
        assert report.lhs == pytest.approx(ELLIPSE_B / math.sqrt(2.0),
                                           rel=1e-9)
        assert report.rhs == pytest.approx(ELLIPSE_B, rel=1e-6)

    def test_oscillation_chain_asserted(self, ellipse_data):
        report = check_oscillation_chain(ellipse_data)
        assert report.kind == "inequality"
        assert report.status == "pass"
        assert report.lhs < report.rhs

    def test_oscillation_chain_monitored_regime(self, ellipse_data):
        report = check_oscillation_chain(ellipse_data, p=2.0)
        assert report.kind == "ratio"
        assert report.status == "monitored"

    def test_grad_infty_asserted(self, ellipse_data):
        for q in (INF, 8.0):
            report = check_grad_infty_bound(ellipse_data, p=1.0, q=q)
            assert report.kind == "inequality"
            assert report.status == "pass"
            assert report.lhs == pytest.approx(SUP_GRAD_H, rel=2e-2)

    def test_grad_infty_weighted_monitored(self, ellipse_data):
        report = check_grad_infty_bound(ellipse_data, weighted=True)
        assert report.kind == "ratio"
        assert report.status == "monitored"

    def test_grad_infty_exponent_ranges(self, ellipse_data):
        with pytest.raises(DomainError):
            check_grad_infty_bound(ellipse_data, p=0.5)
        with pytest.raises(DomainError):
            check_grad_infty_bound(ellipse_data, p=4.0)
        with pytest.raises(DomainError):
            check_grad_infty_bound(ellipse_data, q=2.0)

    def test_weighted_poincare_monitored(self, ellipse_data):
        report = check_weighted_poincare(ellipse_data)
        assert report.kind == "ratio"
        assert report.status == "monitored"
        assert report.lhs > 0.0 and report.rhs > 0.0

    def test_weighted_poincare_exponent_window(self, ellipse_data):
        with pytest.raises(DomainError):
            check_weighted_poincare(ellipse_data, alpha=1.5)
        with pytest.raises(DomainError):
            check_weighted_poincare(ellipse_data, r=1.0, p=2.0)
        with pytest.raises(DomainError):
            check_weighted_poincare(ellipse_data, r=4.0, p=2.0, alpha=0.0)
        with pytest.raises(DomainError):
            check_weighted_poincare(ellipse_data, r=5.0, p=2.0, alpha=0.5)

    def test_sbt_chain_reports(self, ellipse_data):
        links = check_sbt_chain(ellipse_data)
        assert [r.name for r in links] == [
            "sbt_hessian_link", "sbt_trace_link", "sbt_flatness_link"]
        assert all(r.kind == "ratio" for r in links)
        assert all(r.status == "monitored" for r in links)
        assert all(math.isfinite(r.ratio) and r.ratio > 0.0 for r in links)

    def test_run_domain_checks_order(self, ellipse_data):
        reports = run_domain_checks(ellipse_data)
        assert [r.name for r in reports] == CHECK_ORDER
        asserted = [r for r in reports if r.kind != "ratio"]
        assert all(r.status == "pass" for r in asserted)


# --------------------------------------------------------------------------
# residual decay and dilation covariance
# --------------------------------------------------------------------------

class TestConsistency:
    def test_identity_residuals_decay(self, ellipse_coarse, ellipse_data):
        checks = (check_divergence_identity, check_fundamental_identity,
                  check_identity_mp)
        for check in checks:
            coarse = check(ellipse_coarse).residual
            fine = check(ellipse_data).residual
            order = math.log(coarse / fine) / math.log(2.0)
            assert order > 0.8, check.__name__

    def test_dilation_covariance(self):
        lam = 2.0  # power of two: the scaled solve is exact in binary fp
        base = build_pipeline_data(StarDomain2D.cosine(0.1, 3), 1.0 / 32.0)
        big = build_pipeline_data(
            StarDomain2D.cosine(lam * 0.1, 3, base=lam), 1.0 / 16.0)
        assert big.area == pytest.approx(lam**2 * base.area, rel=1e-10)
        assert big.R == pytest.approx(lam * base.R, rel=1e-10)
        assert big.r_i == pytest.approx(lam * base.r_i, rel=1e-10)
        assert np.allclose(big.z, lam * base.z, atol=1e-10)
        assert big.curvature_flatness == pytest.approx(
            base.curvature_flatness / lam, rel=1e-10)
        assert big.trace_flatness == pytest.approx(
            lam * base.trace_flatness, rel=1e-10)
        assert big.gauss_deviation == pytest.approx(
            lam * base.gauss_deviation, rel=1e-10)
        assert big.hess_norm == pytest.approx(base.hess_norm, rel=1e-10)
        assert big.weighted_hess_norm == pytest.approx(
            math.sqrt(lam) * base.weighted_hess_norm, rel=1e-10)
        assert big.rho_e - big.rho_i == pytest.approx(
            lam * (base.rho_e - base.rho_i), rel=1e-10)


class TestLazyGeometry:
    """The battery-only geometry is computed when a check reads it."""

    LAZY = ("ball_radii", "diameter", "star_radius", "inradius")

    def test_family_runs_never_compute_it(self, monkeypatch):
        spec = FamilySpec(eps=(0.1, 0.2), spacing=1.0 / 32.0)
        expected = run_family(spec)

        def forbidden(*args, **kwargs):
            raise AssertionError("battery-only geometry computed")

        for name in self.LAZY:
            monkeypatch.setattr(identities, name, forbidden)
        records = run_family(spec)
        assert all(r.status == "ok" for r in records)
        assert records == expected

    def test_battery_reads_the_direct_values(self):
        domain = StarDomain2D.cosine(0.1, 3)
        data = build_pipeline_data(domain, 1.0 / 32.0)
        cached = ("_ball_radii", "diam", "rho_star", "r_inradius")
        assert not set(cached) & set(vars(data))
        run_domain_checks(data)
        assert (data.r_i, data.r_e) == ball_radii(domain)
        assert data.diam == diameter(domain)
        assert data.rho_star == star_radius(domain)
        assert data.r_inradius == inradius(domain)

    def test_traced_bindings_stay_module_names(self):
        # profilers wrap these module-level names; a local import or a
        # renamed solver would silently bypass them
        assert identities.ball_radii is stardomain.ball_radii
        assert callable(torsion.spsolve)
        assert "spsolve" in torsion.solve_torsion.__code__.co_names
