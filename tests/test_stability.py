"""Tests for the epsilon-family stability experiments.

Oracles: the ellipse family has constant Hessian residue, so
``||hess h||_{2,Omega}`` must equal ``sqrt(2) (a^2 - b^2) / (a^2 + b^2)``
to rounding; the area-preserving parameterization keeps ``|Omega| = pi``
exactly; synthetic record lists with ``y = x`` and ``y = x^2`` pin the
log-log fitter.  Profile slopes on real families were measured on disjoint
grids before the windows below were frozen.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from oscbound import stability
from oscbound.errors import DomainError
from oscbound.stability import (
    DEVIATION_FIELDS,
    FamilySpec,
    FitResult,
    StabilityRecord,
    build_family_domain,
    check_sbt_profile,
    check_serrin_profile,
    fit_exponent,
    run_family,
    verify_monotone_deviations,
    verify_refinement,
)
from oscbound.stardomain import area

TEST_EPS = (0.05, 0.1, 0.15, 0.2)


def ellipse_hessian_oracle(eps: float) -> float:
    """Closed-form ``||hess h||_{2,Omega}`` on the ellipse family member.

    The torsion function of an ellipse is quadratic, so the Hessian residue
    is the constant matrix ``diag(1, -1) (a^2 - b^2) / (a^2 + b^2)`` and its
    Frobenius norm is uniform over the domain.
    """
    a2 = (1.0 + eps) ** 2
    b2 = 1.0 / a2
    return math.sqrt(2.0) * (a2 - b2) / (a2 + b2)


@pytest.fixture(scope="module")
def ellipse_family():
    spec = FamilySpec(kind="ellipse", eps=TEST_EPS, spacing=1.0 / 32.0)
    return run_family(spec)


@pytest.fixture(scope="module")
def cosine_family():
    spec = FamilySpec(kind="cosine_perturbation", k=2, eps=TEST_EPS,
                      spacing=1.0 / 32.0)
    return run_family(spec)


def synth_record(eps: float, **overrides) -> StabilityRecord:
    base = dict(
        eps=eps, curvature_flatness=eps, radius_gap=eps, gauss_deviation=eps,
        trace_flatness=eps, hess_norm=eps, weighted_hess_norm=eps,
        residual_divergence=1e-3, residual_fundamental=1e-4,
        residual_mp=1e-5, h=1.0 / 32.0)
    base.update(overrides)
    return StabilityRecord(**base)


# --------------------------------------------------------------------------
# family specs and domain construction
# --------------------------------------------------------------------------

class TestFamilySpec:
    def test_defaults(self):
        spec = FamilySpec()
        assert spec.kind == "ellipse"
        assert spec.eps == (0.02, 0.04, 0.07, 0.1, 0.14, 0.2)
        assert spec.spacing == pytest.approx(1.0 / 64.0)

    # id -> spec arguments; each id is written out, so deleting a case
    # renames no other
    INVALID = {
        "kwargs0": {"kind": "square"},
        "kwargs1": {"eps": ()},
        "kwargs2": {"eps": (-0.1, 0.2)},
        "kwargs3": {"eps": (0.1, 0.1)},
        "kwargs4": {"eps": (0.2, 0.1)},
        "kwargs5": {"kind": "cosine_perturbation", "eps": (0.5, 1.0)},
        "kwargs6": {"kind": "cosine_perturbation", "k": 0},
        "kwargs7": {"spacing": 0.0},
        "kwargs8": {"kind": "cosine_perturbation", "k": 1.5},
        "kwargs9": {"spacing": -1.0 / 64.0},
        "kwargs10": {"eps": (0.1, math.inf)},
        "kwargs11": {"eps": (0.1, math.nan)},
        "kwargs12": {"spacing": math.inf},
    }

    @pytest.mark.parametrize("kwargs", list(INVALID.values()),
                             ids=list(INVALID))
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(DomainError):
            FamilySpec(**kwargs)

    def test_ellipse_members_preserve_area(self):
        spec = FamilySpec(kind="ellipse")
        for eps in (0.02, 0.2):
            domain = build_family_domain(spec, eps)
            assert area(domain) == pytest.approx(math.pi, rel=1e-9)

    def test_cosine_members(self):
        plain = build_family_domain(
            FamilySpec(kind="cosine_perturbation", k=2), 0.2)
        assert area(plain) == pytest.approx(
            math.pi * (1.0 + 0.5 * 0.2**2), rel=1e-9)
        scaled = build_family_domain(
            FamilySpec(kind="cosine_perturbation", k=2, normalize_area=True),
            0.2)
        assert area(scaled) == pytest.approx(math.pi, rel=1e-9)


# --------------------------------------------------------------------------
# record validation
# --------------------------------------------------------------------------

class TestStabilityRecord:
    def test_valid_record(self):
        record = synth_record(0.1)
        assert record.status == "ok"
        assert record.radius_gap == pytest.approx(0.1)

    def test_negative_measurements_rejected(self):
        with pytest.raises(DomainError):
            synth_record(0.1, curvature_flatness=-1.0)

    def test_nonfinite_needs_error_status(self):
        with pytest.raises(DomainError):
            synth_record(0.1, hess_norm=math.nan)
        failure = synth_record(0.1, hess_norm=math.nan, status="error",
                               detail="solver blew up")
        assert failure.status == "error"

    def test_bad_status_and_eps(self):
        with pytest.raises(DomainError):
            synth_record(0.1, status="maybe")
        with pytest.raises(DomainError):
            synth_record(-0.1)


# --------------------------------------------------------------------------
# running families
# --------------------------------------------------------------------------

class TestRunFamily:
    def test_one_sorted_record_per_eps(self, ellipse_family):
        assert [r.eps for r in ellipse_family] == list(TEST_EPS)
        assert all(r.status == "ok" for r in ellipse_family)
        assert all(r.h == pytest.approx(1.0 / 32.0) for r in ellipse_family)

    def test_hessian_norm_matches_ellipse_oracle(self, ellipse_family):
        for record in ellipse_family:
            oracle = ellipse_hessian_oracle(record.eps)
            assert record.hess_norm == pytest.approx(oracle, rel=1e-2)

    def test_identity_residuals_stay_small(self, ellipse_family):
        for record in ellipse_family:
            assert record.residual_divergence <= 1e-2
            assert record.residual_fundamental <= 1e-2
            assert record.residual_mp <= 1e-2

    def test_deviations_monotone(self, ellipse_family, cosine_family):
        for family in (ellipse_family, cosine_family):
            reports = verify_monotone_deviations(family)
            assert len(reports) == len(DEVIATION_FIELDS)
            assert all(r.status == "pass" for r in reports)

    def test_pipeline_errors_become_failure_rows(self):
        spec = FamilySpec(kind="ellipse", eps=(0.1, 0.2), spacing=1.5)
        records = run_family(spec)
        assert [r.eps for r in records] == [0.1, 0.2]
        for record in records:
            assert record.status == "error"
            assert record.detail
            assert math.isnan(record.curvature_flatness)
            assert record.h == pytest.approx(1.5)

    def test_bitwise_reproducible(self):
        spec = FamilySpec(kind="ellipse", eps=(0.1, 0.2), spacing=1.0 / 32.0)
        assert run_family(spec) == run_family(spec)

    def test_parallel_map_matches_serial(self):
        spec = FamilySpec(kind="ellipse", eps=(0.1, 0.2), spacing=1.0 / 32.0)
        assert run_family(spec, jobs=2) == run_family(spec, jobs=1)

    def test_bad_worker_count(self):
        with pytest.raises(DomainError):
            run_family(FamilySpec(), jobs=0)


# --------------------------------------------------------------------------
# log-log fitting
# --------------------------------------------------------------------------

class TestFitExponent:
    def test_linear_synthetic(self):
        records = [synth_record(e) for e in (0.02, 0.05, 0.1, 0.2)]
        fit = fit_exponent(records, "curvature_flatness", "radius_gap")
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 4

    def test_quadratic_synthetic(self):
        records = [synth_record(e, radius_gap=e * e)
                   for e in (0.05, 0.1, 0.2, 0.4)]
        fit = fit_exponent(records, "curvature_flatness", "radius_gap")
        assert fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_nonpositive_excluded_with_warning(self):
        records = [synth_record(e) for e in (0.02, 0.05, 0.1, 0.2)]
        records.append(synth_record(0.4, radius_gap=0.0))
        with pytest.warns(RuntimeWarning):
            fit = fit_exponent(records, "curvature_flatness", "radius_gap")
        assert fit.n_points == 4

    def test_too_few_surviving_points(self):
        records = [synth_record(e) for e in (0.02, 0.05, 0.1)]
        records.append(synth_record(0.2, radius_gap=0.0))
        with pytest.warns(RuntimeWarning):
            with pytest.raises(DomainError):
                fit_exponent(records, "curvature_flatness", "radius_gap")

    def test_error_rows_skipped(self):
        records = [synth_record(e) for e in (0.02, 0.05, 0.1, 0.2)]
        records.append(synth_record(
            0.4, radius_gap=math.nan, status="error", detail="boom"))
        fit = fit_exponent(records, "curvature_flatness", "radius_gap")
        assert fit.n_points == 4

    def test_degenerate_abscissa(self):
        records = [synth_record(e, curvature_flatness=0.1)
                   for e in (0.02, 0.05, 0.1, 0.2)]
        with pytest.raises(DomainError):
            fit_exponent(records, "curvature_flatness", "radius_gap")

    def test_fit_result_needs_four_points(self):
        with pytest.raises(DomainError):
            FitResult(1.0, 0.0, 1.0, 3)


# --------------------------------------------------------------------------
# profile verdicts
# --------------------------------------------------------------------------

class TestProfiles:
    def test_ellipse_sbt_profile(self, ellipse_family):
        verdict = check_sbt_profile(ellipse_family)
        assert verdict.name == "sbt"
        assert verdict.passed
        assert 0.9 <= verdict.primary.slope <= 1.1
        assert verdict.primary.r_squared >= 0.98
        assert verdict.gauss.slope >= 0.9
        assert math.isfinite(verdict.c_emp) and verdict.c_emp > 0.0

    def test_ellipse_serrin_profile(self, ellipse_family):
        verdict = check_serrin_profile(ellipse_family)
        assert verdict.name == "serrin"
        assert verdict.passed
        assert 0.9 <= verdict.primary.slope <= 1.1
        assert verdict.gauss.slope >= 0.9

    def test_cosine_profiles(self, cosine_family):
        assert check_sbt_profile(cosine_family).passed
        assert check_serrin_profile(cosine_family).passed

    def test_narrow_window_fails_without_raising(self):
        # radius gap quadratic in the deviation: slope 2, outside the window
        records = [synth_record(e, radius_gap=e * e)
                   for e in (0.02, 0.05, 0.1, 0.2)]
        verdict = check_sbt_profile(records)
        assert not verdict.passed

    def test_gauss_threshold_fails(self):
        # Gauss deviation growing like the square root: slope 0.5 < 0.9
        records = [synth_record(e, gauss_deviation=math.sqrt(e))
                   for e in (0.02, 0.05, 0.1, 0.2)]
        verdict = check_serrin_profile(records)
        assert not verdict.passed

    def test_degenerate_family_is_a_fit_error(self):
        # a disk run four times: every deviation sits at the noise floor
        records = [synth_record(e, curvature_flatness=1e-14, radius_gap=1e-14,
                                gauss_deviation=1e-14)
                   for e in (0.02, 0.05, 0.1, 0.2)]
        with pytest.warns(RuntimeWarning):
            with pytest.raises(DomainError):
                check_sbt_profile(records)


# --------------------------------------------------------------------------
# grid convergence of the family measurements
# --------------------------------------------------------------------------

def synth_level(scale: float) -> list[StabilityRecord]:
    """One grid level of synthetic records: every deviation ``scale * eps``."""
    return [synth_record(e, **{c: scale * e for c in DEVIATION_FIELDS})
            for e in (0.1, 0.15, 0.2)]


@pytest.fixture
def no_solves(monkeypatch):
    """Make any member solve fail the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a member was solved")

    monkeypatch.setattr(stability, "run_family", forbidden)
    monkeypatch.setattr(stability, "build_pipeline_data", forbidden)


class TestRefinement:
    def test_ladder_converges(self):
        spec = FamilySpec(kind="ellipse", eps=(0.1, 0.2), spacing=1.0 / 32.0)
        levels = [run_family(spec),
                  run_family(replace(spec, spacing=1.0 / 64.0))]
        reports = verify_refinement(levels)
        assert len(reports) == len(DEVIATION_FIELDS)
        assert all(r.name.startswith("refine1_") for r in reports)
        assert all(r.status == "pass" for r in reports)

    def test_converging_levels_pass(self, no_solves):
        levels = [synth_level(1.04), synth_level(1.01), synth_level(1.0)]
        reports = verify_refinement(levels)
        assert [r.name for r in reports] == [
            f"refine{level}_{column}" for level in (1, 2)
            for column in DEVIATION_FIELDS]
        assert all(r.status == "pass" for r in reports)
        # the largest change against 10% of the finer level's least value
        assert reports[0].lhs == pytest.approx(0.03 * 0.2)
        assert reports[0].rhs == pytest.approx(0.1 * 1.01 * 0.1)

    def test_change_above_ten_percent_fails(self, no_solves):
        coarse = synth_level(1.0)
        coarse[1] = replace(coarse[1], trace_flatness=0.15 + 0.012)
        by_name = {r.name: r
                   for r in verify_refinement([coarse, synth_level(1.0)])}
        assert by_name["refine1_trace_flatness"].status == "fail"
        assert by_name["refine1_radius_gap"].status == "pass"

    def test_error_row_is_rejected(self, no_solves):
        fine = synth_level(1.0)
        fine[2] = synth_record(0.2, status="error", detail="GeometryError: x")
        with pytest.raises(DomainError, match="every record ok"):
            verify_refinement([synth_level(1.0), fine])

    def test_requires_refinements(self, no_solves):
        for levels in ([], [synth_level(1.0)]):
            with pytest.raises(DomainError, match="at least two grid levels"):
                verify_refinement(levels)

    def test_requires_one_coarse_record_per_eps(self, no_solves):
        with pytest.raises(DomainError, match="one record per epsilon"):
            verify_refinement([synth_level(1.0), synth_level(1.0)[:2]])

    def test_monotone_needs_two_records(self):
        with pytest.raises(DomainError):
            verify_monotone_deviations([synth_record(0.1)])

    def test_monotone_flags_decreasing_column(self):
        records = [synth_record(0.05), synth_record(0.1),
                   synth_record(0.2, trace_flatness=0.05)]
        reports = verify_monotone_deviations(records)
        by_name = {r.name: r for r in reports}
        assert by_name["monotone_trace_flatness"].status == "fail"
        assert by_name["monotone_radius_gap"].status == "pass"
