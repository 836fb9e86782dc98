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

import dataclasses
import gc
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from oscbound import cli, cones, identities, stability, stardomain, torsion
from oscbound.constants import INF, ExponentPair, oscillation_regime
from oscbound.errors import DomainError, GeometryError
from oscbound.identities import (
    CHAIN_PAIRS,
    FLOOR,
    IdentityReport,
    PipelineData,
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
    run_domain_checks,
)
from oscbound.stability import (
    FamilySpec,
    build_family_domain,
    record_from_data,
    run_family,
)
from oscbound.stardomain import (
    StarDomain2D,
    area,
    ball_radii,
    inradius,
    perimeter,
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
    "oscillation_chain_p6_qinf",
    "oscillation_chain_p2_qinf",
    "oscillation_chain_p1_qinf",
    "grad_infty_qinf",
    "grad_infty_q8",
    "sbt_hessian_link",
    "sbt_trace_link",
    "sbt_flatness_link",
]


@pytest.fixture(scope="module")
def disk_data():
    return build_pipeline_data(StarDomain2D(c0=1.0), 1.0 / 32.0)


@pytest.fixture(scope="module")
def ellipse_data():
    return build_pipeline_data(
        StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B), 1.0 / 64.0)


@pytest.fixture(scope="module")
def ellipse_coarse():
    return build_pipeline_data(
        StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B), 1.0 / 32.0)


@pytest.fixture(scope="module")
def thin_data():
    # the trace excludes the 100 samples near the two tips, 40% of the weight
    return build_pipeline_data(StarDomain2D.ellipse(1.0, 0.12), 1.0 / 32.0)


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
        degenerate = IdentityReport("r", 1.0, 0.0, 0.0, 0.0, kind="ratio")
        assert degenerate.ratio == math.inf

    def test_nonfinite_sides_must_fail(self):
        report = IdentityReport("eq", math.nan, 1.0, math.inf, 0.1)
        assert report.status == "fail"
        assert IdentityReport.inequality("le", 1.0, math.nan).status == "fail"
        assert IdentityReport.monitored("r", math.inf, 1.0).status == "fail"

    def test_unknown_kind_and_status(self):
        with pytest.raises(DomainError):
            IdentityReport("eq", 1.0, 1.0, 0.0, 0.1, kind="oracle")


# --------------------------------------------------------------------------
# integration helpers on the bundle
# --------------------------------------------------------------------------

class TestPipelineBundle:
    def test_constant_domain_integral(self, disk_data):
        total = disk_data.domain_integral(
            np.ones_like(disk_data.u.values), disk_data.u.grid.inside)
        assert total == pytest.approx(area(disk_data.domain), rel=1e-8)

    def test_domain_integral_rescales_exclusions(self, disk_data):
        grid = disk_data.u.grid
        rng = np.random.default_rng(7)
        valid = rng.random(grid.inside.shape) < 0.5
        total = disk_data.domain_integral(
            np.full(grid.inside.shape, 3.0), valid)
        assert total == pytest.approx(3.0 * area(disk_data.domain),
                                      rel=1e-8)

    def test_domain_integral_needs_valid_nodes(self, disk_data):
        empty = np.zeros_like(disk_data.u.grid.inside)
        with pytest.raises(GeometryError):
            disk_data.domain_integral(disk_data.u.values, empty)

    def test_constant_boundary_integral(self, disk_data):
        ones = np.ones_like(disk_data.trace.values)
        assert disk_data.boundary_integral(ones) == pytest.approx(
            perimeter(disk_data.domain), rel=1e-12)

    def test_boundary_integral_needs_valid_samples(self, disk_data):
        with pytest.raises(GeometryError):
            disk_data.boundary_integral(
                np.full_like(disk_data.trace.values, np.nan))

    def test_boundary_norm_of_constants(self, disk_data):
        flat = np.full_like(disk_data.trace.values, 2.5)
        for p in (1.0, 2.0, math.inf):
            assert abs(disk_data.boundary_norm(flat, p) - 2.5) < 1e-13
        with pytest.raises(DomainError):
            disk_data.boundary_norm(flat, 0.3)

    def test_boundary_norm_needs_valid_samples(self, disk_data):
        with pytest.raises(GeometryError):
            disk_data.boundary_norm(
                np.full_like(disk_data.trace.values, np.nan), 2.0)

    def test_bundle_reads_the_domain_coarse_table(self, disk_data):
        # the bundle holds the trace and nothing the domain owns: the
        # boundary samples, the area and the perimeter are read from it
        assert [f.name for f in dataclasses.fields(PipelineData)] == [
            "domain", "u", "report", "z", "hess_h", "trace", "rho_i", "rho_e"]
        assert [f.name for f in dataclasses.fields(disk_data.trace)] == [
            "table", "values", "valid"]
        assert disk_data.trace.table is disk_data.domain.coarse_table

    def test_trace_exclusions_are_skipped(self, thin_data):
        trace = thin_data.trace
        valid, weight = trace.valid, trace.table.weight
        assert trace.excluded_fraction > 0.4
        # finite values at excluded samples change neither the norm nor the
        # integral, which is rescaled from the valid weight to |Gamma|
        spiked = np.where(valid, 2.5, 1e6)
        for p in (1.0, 2.0, math.inf):
            assert abs(thin_data.boundary_norm(spiked, p) - 2.5) < 1e-13
        assert thin_data.boundary_integral(spiked) == pytest.approx(
            2.5 * perimeter(thin_data.domain), rel=1e-13)
        kappa = trace.table.kappa
        want = math.sqrt(float(np.sum(weight[valid] * kappa[valid] ** 2)
                               / np.sum(weight[valid])))
        assert thin_data.boundary_norm(kappa, 2.0) == pytest.approx(
            want, rel=1e-13)

    def test_reference_radius(self, disk_data, ellipse_data):
        assert disk_data.R == pytest.approx(1.0, rel=1e-12)
        assert disk_data.H0 == pytest.approx(1.0, rel=1e-12)
        # |Gamma| = 4 a E(1 - b^2/a^2); R = 2 |Omega| / |Gamma|
        from scipy.special import ellipe
        perim = 4.0 * ELLIPSE_A * ellipe(1.0 - (ELLIPSE_B / ELLIPSE_A) ** 2)
        assert ellipse_data.R == pytest.approx(
            2.0 * math.pi * ELLIPSE_A * ELLIPSE_B / perim, rel=1e-12)

    def test_hessian_residue_is_trace_free(self, ellipse_data):
        # the entries whose Frobenius norm hess_h holds: I - hess u
        uxx, _, uyy, valid = torsion._hessian_parts(ellipse_data.u)
        assert np.array_equal(valid, ellipse_data.hess_h.valid)
        trace = (1.0 - uxx) + (1.0 - uyy)
        assert np.max(np.abs(trace[valid])) < 1e-9

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
        assert ball_radii(disk_data.domain)[0] == pytest.approx(1.0, rel=1e-9)
        assert disk_data.rho_e - disk_data.rho_i == pytest.approx(0.0, abs=1e-9)
        assert disk_data.mean_convex
        # rolling-ball radius of the ellipse is b^2/a, its inradius is b
        ellipse = ellipse_data.domain
        assert ball_radii(ellipse)[0] == pytest.approx(
            ELLIPSE_B**2 / ELLIPSE_A, abs=1e-4)
        assert inradius(ellipse) == pytest.approx(ELLIPSE_B, rel=1e-9)
        assert star_radius(ellipse) == pytest.approx(1.0, rel=1e-9)
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
        mag2 = ellipse_data.hess_h.magnitude ** 2
        value = ellipse_data.domain_integral(mag2, ellipse_data.hess_h.valid)
        assert value == pytest.approx(HESS_INTEGRAL, rel=1e-10)

    def test_curvature_boundary_term(self, ellipse_data):
        un = ellipse_data.trace.values
        value = ellipse_data.boundary_integral(
            ellipse_data.trace.table.kappa * un**2)
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
        report = check_oscillation_chain(ellipse_data, p=6.0, q=INF)
        assert report.name == "oscillation_chain_p6_qinf"
        assert report.kind == "inequality"
        assert report.status == "pass"
        assert report.lhs < report.rhs

    def test_oscillation_chain_monitored_regime(self, ellipse_data):
        # the log and interpolation regimes are asserted as well: no
        # constant of the bound is implicit in any regime
        for p, name in ((2.0, "oscillation_chain_p2_qinf"),
                        (1.0, "oscillation_chain_p1_qinf")):
            report = check_oscillation_chain(ellipse_data, p=p, q=INF)
            assert report.name == name
            assert report.kind == "inequality"
            assert report.status == "pass"
            assert report.lhs < report.rhs

    def test_oscillation_chain_fails_when_the_bound_drops(self, ellipse_data,
                                                          monkeypatch):
        # the fixture's rows sit at lhs/rhs 0.008-0.013, so a bound cut to
        # 1e-3 of its value falls below the annulus gap in every regime
        def names(status):
            return [r.name for r in run_domain_checks(ellipse_data)
                    if r.name.startswith("oscillation_chain")
                    and r.status == status]

        chain = [name for name in CHECK_ORDER
                 if name.startswith("oscillation_chain")]
        assert names("pass") == chain
        bound = identities.oscillation_bound
        monkeypatch.setattr(identities, "oscillation_bound",
                            lambda *args: 1e-3 * bound(*args))
        assert names("fail") == chain

    def test_grad_infty_asserted(self, ellipse_data):
        for q in (INF, 8.0):
            report = check_grad_infty_bound(ellipse_data, q=q)
            assert report.kind == "inequality"
            assert report.status == "pass"
            assert report.lhs == pytest.approx(SUP_GRAD_H, rel=2e-2)

    def test_grad_infty_exponent_ranges(self, ellipse_data):
        with pytest.raises(DomainError):
            check_grad_infty_bound(ellipse_data, q=2.0)

    def test_sbt_chain_reports(self, ellipse_data):
        links = check_sbt_chain(ellipse_data)
        assert [r.name for r in links] == [
            "sbt_hessian_link", "sbt_trace_link", "sbt_flatness_link"]
        assert all(r.kind == "ratio" for r in links)
        assert all(r.status == "monitored" for r in links)
        assert all(math.isfinite(r.ratio) and r.ratio > 0.0 for r in links)

    def test_battery_defaults_have_one_owner(self):
        # the battery is fixed: it takes no exponent, the command line sets
        # none, and the chain takes its pairs from CHAIN_PAIRS, one per
        # regime of oscillation_regime
        assert list(inspect.signature(run_domain_checks).parameters) == [
            "data"]
        config = cli.parse_config("domain-verify")
        assert not {"p", "q", "alpha"} & {f.name for f in
                                          dataclasses.fields(config)}
        assert all(par.default is inspect.Parameter.empty for par in
                   inspect.signature(check_oscillation_chain)
                   .parameters.values())
        assert [oscillation_regime(ExponentPair(p=p, q=q, N=2))
                for p, q in CHAIN_PAIRS] == ["morrey", "log", "interpolation"]

    def test_run_domain_checks_order(self, ellipse_data):
        reports = run_domain_checks(ellipse_data)
        assert [r.name for r in reports] == CHECK_ORDER
        asserted = [r for r in reports if r.kind != "ratio"]
        assert all(r.status == "pass" for r in asserted)


# r = 1 + 0.2 (cos 2phi + sin 3phi / 2 + cos 5phi / 3): no mirror symmetry,
# so the deepest point z is off the origin
MIXED = StarDomain2D(c0=1.0, cos_coeffs=(0.0, 0.2, 0.0, 0.0, 0.2 / 3.0),
                     sin_coeffs=(0.0, 0.0, 0.1))


@pytest.mark.parametrize("domain, h", [
    (MIXED, 1.0 / 64.0),
    (build_family_domain(FamilySpec(kind="ellipse"), 0.2), 1.0 / 128.0),
    (build_family_domain(FamilySpec(kind="cosine_perturbation"), 0.1),
     1.0 / 128.0),
], ids=["mixed-h64", "ladder-ellipse-h128", "ladder-cosine-h128"])
def test_battery_passes_off_symmetry_and_on_ladder_rungs(domain, h):
    # where the default families (mirror-symmetric, h = 1/64) cannot reach:
    # an asymmetric shape and the two ladder members one halving finer
    data = build_pipeline_data(domain, h)
    if domain is MIXED:
        assert np.hypot(*data.z) > 0.02
    reports = run_domain_checks(data)
    assert [r.name for r in reports] == CHECK_ORDER
    assert {r.name: r.status for r in reports if r.kind != "ratio"} == {
        name: "pass" for name in CHECK_ORDER if not name.startswith("sbt_")}


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
        assert area(big.domain) == pytest.approx(
            lam**2 * area(base.domain), rel=1e-10)
        assert big.R == pytest.approx(lam * base.R, rel=1e-10)
        assert ball_radii(big.domain)[0] == pytest.approx(
            lam * ball_radii(base.domain)[0], rel=1e-10)
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

    def test_battery_reads_the_direct_values(self, monkeypatch):
        # the bundle keeps no copy of the domain's geometry: the battery
        # reads it from the domain, which builds one tangent-ball table (one
        # window view of r) and one farthest pair for all of its checks
        counts = {"sliding_window_view": 0, "_farthest_pair": 0}

        def counting(name, fn):
            def shim(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return shim

        for name in counts:
            monkeypatch.setattr(stardomain, name, counting(
                name, getattr(stardomain, name)))
        data = build_pipeline_data(StarDomain2D.cosine(0.1, 3), 1.0 / 32.0)
        assert counts == {"sliding_window_view": 0, "_farthest_pair": 0}
        run_domain_checks(data)
        assert counts == {"sliding_window_view": 1, "_farthest_pair": 1}

    def test_auxiliary_field_is_built_by_the_battery_only(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("battery-only field computed")

        domain = build_family_domain(FamilySpec(kind="ellipse"), 0.1)
        with monkeypatch.context() as patch:
            for name in ("h_field", "gradient"):
                patch.setattr(identities, name, forbidden)
            data = build_pipeline_data(domain, 1.0 / 64.0)
            record_from_data(0.1, data)
        assert not {"h_aux", "grad_h", "mean_convex"} & set(vars(data))

        calls = {"h_field": 0, "gradient": 0}

        def counting(name):
            original = getattr(identities, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(identities, name, counting(name))
        run_domain_checks(data)
        assert calls == {"h_field": 1, "gradient": 1}

    def test_rung_does_each_piece_of_work_once(self, monkeypatch):
        # delta is projected at the inside nodes only, and the battery
        # builds one tangent-ball table (one window view of r), one
        # diameter (one farthest pair) and one star radius (one bracket
        # search of the pedal distance, not one per chain pair), which the
        # domain keeps
        counts = {"projected": 0, "_ball_table": 0, "diameter": 0,
                  "star_radius": 0}

        def counting(name, fn, size=lambda *args: 1):
            def shim(*args, **kwargs):
                counts[name] += size(*args)
                return fn(*args, **kwargs)
            return shim

        pedal_search = inspect.unwrap(star_radius).__code__
        monkeypatch.setattr(stardomain, "_refine_extremum", counting(
            "star_radius", stardomain._refine_extremum,
            lambda *args: sys._getframe(2).f_code is pedal_search))

        monkeypatch.setattr(torsion, "boundary_distance", counting(
            "projected", torsion.boundary_distance,
            lambda domain, points, *rest: len(points)))
        for name, built in (("_ball_table", "sliding_window_view"),
                            ("diameter", "_farthest_pair")):
            monkeypatch.setattr(stardomain, built, counting(
                name, getattr(stardomain, built)))
        data = build_pipeline_data(StarDomain2D.cosine(0.1, 3), 1.0 / 32.0)
        assert counts["projected"] == data.u.grid.n_unknowns
        run_domain_checks(data)
        assert counts == {"projected": data.u.grid.n_unknowns,
                          "_ball_table": 1, "diameter": 1, "star_radius": 1}
        kept = star_radius(data.domain)
        assert counts["star_radius"] == 1
        monkeypatch.undo()
        assert kept == inspect.unwrap(star_radius)(data.domain)

    def test_battery_takes_each_tensor_magnitude_once(self, monkeypatch):
        built = []
        original = torsion.TensorField.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(torsion.TensorField, "__post_init__", counting)
        data = build_pipeline_data(StarDomain2D.cosine(0.1, 3), 1.0 / 32.0)
        record_from_data(0.1, data)
        run_domain_checks(data)
        run_domain_checks(data)
        assert sorted(map(id, built)) == sorted(
            {id(data.hess_h), id(data.grad_h)})
        assert not data.hess_h.magnitude.flags.writeable
        assert not data.grad_h.magnitude.flags.writeable

    def test_battery_takes_each_norm_once(self, monkeypatch):
        # ||grad h||_inf feeds all three chain rows and both grad_infty
        # rows, ||grad h||_1 the (1, inf) row and both grad_infty rows: the
        # battery takes 7 distinct norms, the 12 calls of a warm bundle
        # and hess_norm's ||hess h||_2, each once and with the same bits
        taken = []
        original = torsion.normalized_norm

        def counting(values, weights, p, total):
            taken.append(p)
            return original(values, weights, p, total)

        monkeypatch.setattr(torsion, "normalized_norm", counting)
        data = build_pipeline_data(StarDomain2D.cosine(0.1, 3), 1.0 / 32.0)
        first = run_domain_checks(data)
        assert sorted(taken) == [1.0, 2.0, 2.0, 6.0, 8.0, INF, INF]
        record_from_data(0.1, data)  # adds only the weighted Hessian norm
        assert len(taken) == 8
        again = run_domain_checks(data)
        assert len(taken) == 8
        assert [(r.lhs, r.rhs) for r in again] == [(r.lhs, r.rhs) for r in first]
        monkeypatch.undo()
        fresh = build_pipeline_data(StarDomain2D.cosine(0.1, 3), 1.0 / 32.0)
        grid = fresh.u.grid
        for field, p in ((fresh.grad_h, INF), (fresh.grad_h, 1.0),
                         (fresh.hess_h, 8.0)):
            mask = field.valid & grid.inside
            want = original(field.magnitude[mask], grid.cell_weights[mask], p,
                            float(np.sum(grid.cell_weights)))
            assert lp_norm_domain(field, p) == want
            assert lp_norm_domain(field, p) == want

    def test_rung_holds_only_what_its_readers_use(self):
        # after the battery a rung keeps, per grid node, the inside mask,
        # an int32 index, the cell areas, delta, u and the two magnitudes
        # with their masks, about 47 bytes; it kept 132 with the gradient
        # and Hessian component stacks, a cached h and four full-grid cut
        # fraction arrays
        domain = build_family_domain(FamilySpec(kind="ellipse"), 0.2)
        run_domain_checks(build_pipeline_data(domain, 1.0 / 32.0))
        gc.collect()
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            data = build_pipeline_data(domain, 1.0 / 128.0)
            run_domain_checks(data)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        grid = data.u.grid
        assert held / grid.inside.size <= 60.0
        # no component stack and no full-grid fraction array: the float
        # arrays of the grid's shape are u, the cell areas, delta and the
        # two magnitudes
        full = [a for a in _held_arrays(data)
                if a.shape[:2] == grid.inside.shape]
        assert all(a.ndim == 2 for a in full)
        assert sum(a.dtype == np.float64 for a in full) == 5
        for nodes, fractions in grid.cuts.values():
            assert 0 < nodes.size == fractions.size < grid.n_unknowns // 10

    def test_traced_bindings_stay_module_names(self):
        # profilers wrap these module-level names; a local import or a
        # renamed solver would silently bypass them
        assert identities.ball_radii is stardomain.ball_radii
        for name in ("rho_bounds", "diameter", "star_radius", "inradius",
                     "perimeter", "area"):
            assert getattr(identities, name) is getattr(stardomain, name)
        for name in ("locate_min", "h_field", "gradient", "hessian_torsion",
                     "normal_derivative"):
            assert getattr(identities, name) is getattr(torsion, name)
        assert callable(torsion.spsolve)
        assert "spsolve" in torsion.solve_torsion.__code__.co_names
        assert "cKDTree" in torsion.Grid.delta.func.__code__.co_names
        for name in ("build_pipeline_data", "run_domain_checks"):
            assert getattr(cli, name) is getattr(identities, name)
        for name in ("run_family", "check_sbt_profile", "check_serrin_profile",
                     "verify_monotone_deviations"):
            assert getattr(cli, name) is getattr(stability, name)
        assert cli.run_cone_sweep is cones.run_cone_sweep
        assert callable(vars(cli)["constants_table"])
        for name in ("build_pipeline_data", "check_divergence_identity",
                     "check_fundamental_identity", "check_identity_mp"):
            assert getattr(stability, name) is getattr(identities, name)
        build = vars(cones.QuadratureRule)["build"]
        assert isinstance(build, staticmethod)
        params = list(inspect.signature(build.__func__).parameters)
        assert params[:3] == ["cone", "n_radial", "n_angular"]
        assert callable(vars(StarDomain2D)["contains"])


def _held_arrays(root) -> list[np.ndarray]:
    """Every numpy array that ``root`` reaches through instance attributes,
    dicts, lists and tuples, each once."""
    seen, arrays, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return arrays


def test_one_uniform_boundary_sampling_per_domain(monkeypatch):
    # construction, the pipeline bundle, the record and the battery all read
    # the domain's one boundary table: one kernel call on uniform angles
    kernel = StarDomain2D.radial_derivatives
    grids = []

    def counted(self, phi, *order):
        t = np.asarray(phi, dtype=float).reshape(-1)
        for m in (1024, 4096):
            if t.size == m and np.array_equal(
                    t, 2.0 * math.pi * np.arange(m) / m):
                grids.append(m)
        return kernel(self, phi, *order)

    monkeypatch.setattr(StarDomain2D, "radial_derivatives", counted)
    domain = build_family_domain(FamilySpec(kind="ellipse"), 0.2)
    data = build_pipeline_data(domain, 1.0 / 64.0)
    record_from_data(0.2, data)
    run_domain_checks(data)
    assert grids == [4096]


# --------------------------------------------------------------------------
# no BLAS thread pool wakes on the member path
# --------------------------------------------------------------------------

_HELPER_CPU_SCRIPT = """
import json, os, threading, time
from oscbound.identities import build_pipeline_data, run_domain_checks
from oscbound.stability import FamilySpec, build_family_domain

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

domain = build_family_domain(FamilySpec(kind="ellipse"), 0.1)
before = ticks()
run_domain_checks(build_pipeline_data(domain, 1.0 / 64.0))
time.sleep(0.3)
after = ticks()
main = threading.get_native_id()
print(json.dumps({str(tid): after[tid] - before[tid]
                  for tid in before if tid in after and tid != main}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread CPU times from /proc")
def test_member_path_leaves_helper_threads_idle(fresh_env):
    # a woken OpenBLAS pool spins on the core that a sibling pool worker of
    # run_family needs; the threads numpy and scipy start at import must
    # stay idle through one member and its check battery
    done = subprocess.run([sys.executable, "-c", _HELPER_CPU_SCRIPT],
                          capture_output=True, text=True, env=fresh_env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    gained = json.loads(done.stdout.splitlines()[-1])
    helper_s = sum(gained.values()) / os.sysconf("SC_CLK_TCK")
    assert helper_s < 0.030, gained
