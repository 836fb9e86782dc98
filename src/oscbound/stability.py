"""Epsilon-families of domains and empirical stability exponents.

A family is a curve of star domains shrinking onto the unit disk: ellipses
``a = 1 + eps``, ``b = 1 / (1 + eps)`` (area stays pi exactly) or cosine
perturbations ``r = 1 + eps cos(k phi)``.  Each member runs through the full
torsion pipeline (:func:`oscbound.identities.build_pipeline_data`) and the
flatness deviations are collected into :class:`StabilityRecord` rows.  The
stability profiles are then read off empirically: log-log least squares of
one deviation against another.  For planar domains both the soap-bubble and
the Serrin profile are linear, so the fitted slopes must sit in a narrow
window around 1.

Records are plain frozen dataclasses and the whole pipeline is
deterministic, so repeated runs under one configuration reproduce the rows
bit for bit; the parallel map over the epsilon list preserves order.
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, OscboundError
from .identities import (
    IdentityReport,
    PipelineData,
    build_pipeline_data,
    check_divergence_identity,
    check_fundamental_identity,
    check_identity_mp,
)
from .stardomain import StarDomain2D

__all__ = [
    "DEVIATION_FIELDS",
    "FLOAT_FIELDS",
    "MIN_FIT_POINTS",
    "FamilySpec",
    "StabilityRecord",
    "FitResult",
    "ProfileVerdict",
    "build_family_domain",
    "run_family",
    "record_from_data",
    "fit_exponent",
    "check_sbt_profile",
    "check_serrin_profile",
    "verify_monotone_deviations",
    "verify_refinement",
]

# columns of StabilityRecord that measure distance from the disk
DEVIATION_FIELDS = (
    "curvature_flatness",
    "radius_gap",
    "gauss_deviation",
    "trace_flatness",
    "hess_norm",
    "weighted_hess_norm",
)

# the fewest usable points a family fit takes, so the fewest members a
# fitting command can run
MIN_FIT_POINTS = 4
_FLOOR = 1e-12          # below this a deviation is unresolved noise
_MONOTONE_FLOOR = 1e-8  # discretization floor for monotonicity checks
# planar profiles are linear: the fitted slope window, the least R^2 of that
# fit, and the least slope of the Gauss-map deviation
_SLOPE_WINDOW = (0.9, 1.1)
_MIN_R2 = 0.98
_MIN_GAUSS_SLOPE = 0.9


# --------------------------------------------------------------------------
# family description
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """One epsilon-parameterized family of star domains.

    Parameters
    ----------
    kind : str
        ``"ellipse"`` for the area-preserving ellipses or
        ``"cosine_perturbation"`` for ``r = 1 + eps cos(k phi)``.
    eps : tuple of float
        Positive, finite, strictly ascending; for cosine families the
        largest value must stay below 1 so the radial profile stays positive.
    k : int
        Mode number of the cosine perturbation (ignored for ellipses).
    normalize_area : bool
        Rescale cosine members to area pi (ellipse members have it already).
    spacing : float
        Grid spacing handed to the torsion solver, positive and finite.  A
        refinement ladder runs one spec per level, each at half the spacing
        of the last, and compares their records with
        :func:`verify_refinement`.
    """

    kind: str = "ellipse"
    eps: tuple[float, ...] = (0.02, 0.04, 0.07, 0.1, 0.14, 0.2)
    k: int = 2
    normalize_area: bool = False
    spacing: float = 1.0 / 64.0

    def __post_init__(self):
        if self.kind not in ("ellipse", "cosine_perturbation"):
            raise DomainError(f"unknown family kind {self.kind!r}")
        eps = tuple(float(e) for e in self.eps)
        object.__setattr__(self, "eps", eps)
        if not eps:
            raise DomainError("family needs at least one epsilon")
        if not all(0.0 < e < math.inf for e in eps):
            raise DomainError("epsilon values must be positive and finite")
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise DomainError("epsilon values must be strictly ascending")
        if self.kind == "cosine_perturbation":
            if int(self.k) != self.k or self.k < 1:
                raise DomainError(f"mode number must be >= 1, got {self.k}")
            if eps[-1] >= 1.0:
                raise DomainError(
                    "cosine amplitude must stay below 1 to keep r > 0")
        if not 0.0 < self.spacing < math.inf:
            raise DomainError(
                f"grid spacing must be positive and finite, got {self.spacing}")


def build_family_domain(spec: FamilySpec, eps: float) -> StarDomain2D:
    """Materialize the family member at one epsilon.

    Ellipse members keep 32 Fourier modes, not the 64 of
    :meth:`StarDomain2D.ellipse`'s default: their r is within 7.4e-14 of
    the ellipse at eps = 0.2 and within 4.4e-16 at eps = 0.02, where 64
    modes give 4.4e-16 at both.
    """
    if spec.kind == "ellipse":
        a = 1.0 + eps
        return StarDomain2D.ellipse(a, 1.0 / a, n_modes=32)
    if spec.normalize_area:
        # area of r = base (1 + eps cos k phi) is pi base^2 (1 + eps^2/2)
        base = 1.0 / math.sqrt(1.0 + eps * eps / 2.0)
        return StarDomain2D.cosine(base * eps, spec.k, base=base)
    return StarDomain2D.cosine(eps, spec.k)


# --------------------------------------------------------------------------
# records
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityRecord:
    """Deviations and identity residuals of one solved family member.

    Failure rows (``status == "error"``) keep the epsilon and grid spacing
    and carry NaN measurements plus the error message in ``detail``.
    """

    eps: float
    curvature_flatness: float      # || H - H0 ||_{2, Gamma}
    radius_gap: float              # rho_e - rho_i around the deepest point
    gauss_deviation: float         # R || nu - (x - z)/R ||_{2, Gamma}
    trace_flatness: float          # || u_nu - R ||_{2, Gamma}
    hess_norm: float               # || hess h ||_{2, Omega}
    weighted_hess_norm: float      # || delta^{1/2} hess h ||_{2, Omega}
    residual_divergence: float
    residual_fundamental: float
    residual_mp: float
    h: float                       # grid spacing of the solve
    status: str = "ok"
    detail: str = ""

    def __post_init__(self):
        if self.status not in ("ok", "error"):
            raise DomainError(f"unknown record status {self.status!r}")
        if not (self.eps > 0.0 and self.h > 0.0):
            raise DomainError("record needs positive epsilon and spacing")
        if self.status == "ok":
            for name in FLOAT_FIELDS:
                value = getattr(self, name)
                if not (math.isfinite(value) and value >= 0.0):
                    raise DomainError(
                        f"record field {name} must be finite and "
                        f">= 0, got {value}")


# the float columns of a record: finite and >= 0 in an ok row, NaN in a
# failure row except eps and h
FLOAT_FIELDS = tuple(f.name for f in fields(StabilityRecord)
                     if f.type == "float")


def record_from_data(eps: float, data: PipelineData) -> StabilityRecord:
    """Collapse one solved pipeline bundle into a record row."""
    return StabilityRecord(
        eps=eps,
        curvature_flatness=data.curvature_flatness,
        radius_gap=data.rho_e - data.rho_i,
        gauss_deviation=data.gauss_deviation,
        trace_flatness=data.trace_flatness,
        hess_norm=data.hess_norm,
        weighted_hess_norm=data.weighted_hess_norm,
        residual_divergence=check_divergence_identity(data).residual,
        residual_fundamental=check_fundamental_identity(data).residual,
        residual_mp=check_identity_mp(data).residual,
        h=data.h,
    )


def _failure_record(eps: float, spacing: float, exc: Exception) -> StabilityRecord:
    nan = dict.fromkeys(FLOAT_FIELDS, math.nan)
    return StabilityRecord(
        **{**nan, "eps": eps, "h": spacing}, status="error",
        detail=f"{type(exc).__name__}: {exc}",
    )


def _run_one(spec: FamilySpec, eps: float) -> StabilityRecord:
    try:
        domain = build_family_domain(spec, eps)
        data = build_pipeline_data(domain, spec.spacing)
        return record_from_data(eps, data)
    except OscboundError as exc:
        return _failure_record(eps, spec.spacing, exc)


def run_family(spec: FamilySpec, jobs: int = 1) -> list[StabilityRecord]:
    """Run every family member through the pipeline, one record per epsilon.

    A pipeline error inside one member produces a failure row instead of
    aborting the family; a worker process that dies raises
    :class:`OscboundError`.  Records come back sorted by epsilon regardless
    of ``jobs``; the parallel map changes wall time only, never the bytes.
    """
    if int(jobs) != jobs or jobs < 1:
        raise DomainError(f"worker count must be a positive integer, got {jobs}")
    if jobs == 1 or len(spec.eps) == 1:
        return [_run_one(spec, eps) for eps in spec.eps]
    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(spec.eps))) as pool:
            return list(pool.map(_run_one, [spec] * len(spec.eps), spec.eps))
    except BrokenProcessPool as exc:
        raise OscboundError(
            f"a worker process died while running the {spec.kind} family "
            f"(eps {', '.join(f'{e:g}' for e in spec.eps)}): {exc}") from exc


# --------------------------------------------------------------------------
# log-log fits
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    """Least-squares line through ``(log x, log y)``."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int

    def __post_init__(self):
        if self.n_points < MIN_FIT_POINTS:
            raise DomainError(f"a valid fit needs >= {MIN_FIT_POINTS} "
                              f"points, got {self.n_points}")


def fit_exponent(records: list[StabilityRecord], x_field: str,
                 y_field: str) -> FitResult:
    """Fit ``log y = slope log x + intercept`` across a family.

    Failure rows and points with an unresolved (nonpositive or sub-noise)
    coordinate are excluded with a warning; fewer than ``MIN_FIT_POINTS``
    surviving points is an error.
    """
    xs, ys = [], []
    for record in records:
        if record.status != "ok":
            continue
        x = getattr(record, x_field)
        y = getattr(record, y_field)
        if not (x > _FLOOR and y > _FLOOR):
            warnings.warn(
                f"excluding eps={record.eps:g} from the {y_field} vs "
                f"{x_field} fit: unresolved value", RuntimeWarning,
                stacklevel=2)
            continue
        xs.append(math.log(x))
        ys.append(math.log(y))
    if len(xs) < MIN_FIT_POINTS:
        raise DomainError(
            f"fit of {y_field} vs {x_field} has {len(xs)} usable points, "
            f"needs >= {MIN_FIT_POINTS}")
    lx = np.asarray(xs)
    ly = np.asarray(ys)
    if np.ptp(lx) <= 0.0:
        raise DomainError(
            f"fit of {y_field} vs {x_field} has a degenerate abscissa")
    slope, intercept = np.polyfit(lx, ly, 1)
    residue = ly - (slope * lx + intercept)
    total = ly - ly.mean()
    ss_tot = float(total @ total)
    ss_res = float(residue @ residue)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(float(slope), float(intercept), r2, len(xs))


# --------------------------------------------------------------------------
# profile verdicts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileVerdict:
    """Outcome of one stability-profile check over a family."""

    name: str
    primary: FitResult       # radius gap against the driving deviation
    gauss: FitResult         # Gauss-map deviation against the same
    c_emp: float             # worst observed radius-gap / deviation ratio
    passed: bool


def _profile(records: list[StabilityRecord], name: str,
             deviation: str) -> ProfileVerdict:
    primary = fit_exponent(records, deviation, "radius_gap")
    gauss = fit_exponent(records, deviation, "gauss_deviation")
    ratios = [record.radius_gap / getattr(record, deviation)
              for record in records
              if record.status == "ok" and getattr(record, deviation) > _FLOOR]
    lo, hi = _SLOPE_WINDOW
    passed = (lo <= primary.slope <= hi and primary.r_squared >= _MIN_R2
              and gauss.slope >= _MIN_GAUSS_SLOPE)
    return ProfileVerdict(name=name, primary=primary, gauss=gauss,
                          c_emp=max(ratios), passed=passed)


def check_sbt_profile(records: list[StabilityRecord]) -> ProfileVerdict:
    """Planar soap-bubble stability profile: linear in ``||H - H0||_2``.

    Asserts the fitted exponent of the radius gap against the curvature
    flatness sits in [0.9, 1.1] with coefficient of determination at least
    0.98, and that the Gauss-map deviation grows with slope at least 0.9.
    """
    return _profile(records, "sbt", "curvature_flatness")


def check_serrin_profile(records: list[StabilityRecord]) -> ProfileVerdict:
    """Planar overdetermined-torsion stability profile: linear in
    ``||u_nu - R||_2``, with the thresholds of :func:`check_sbt_profile`."""
    return _profile(records, "serrin", "trace_flatness")


# --------------------------------------------------------------------------
# family-level invariants
# --------------------------------------------------------------------------

def verify_monotone_deviations(
        records: list[StabilityRecord]) -> list[IdentityReport]:
    """Every deviation column must grow strictly with epsilon.

    One inequality report per column; the largest non-monotone step must
    stay below the discretization floor, 1e-8.
    """
    rows = [r for r in records if r.status == "ok"]
    if len(rows) < 2:
        raise DomainError("monotonicity needs at least two records")
    reports = []
    for column in DEVIATION_FIELDS:
        values = [getattr(r, column) for r in rows]
        worst = max(a - b for a, b in zip(values, values[1:]))
        reports.append(
            IdentityReport.inequality(f"monotone_{column}", worst,
                                      _MONOTONE_FLOOR))
    return reports


def verify_refinement(
        levels: list[list[StabilityRecord]]) -> list[IdentityReport]:
    """Check the family's deviations are grid-converged.

    ``levels`` holds one record list per grid level, as returned by
    :func:`run_family`: the family's own spacing first, each next level at
    half the spacing of the one before.  At each halving, the largest change
    in any deviation column must stay below 10% of the smallest deviation on
    the finer grid.  This only compares; it solves nothing.
    """
    if len(levels) < 2:
        raise DomainError("refinement check needs at least two grid levels")
    sizes = [len(records) for records in levels]
    if len(set(sizes)) != 1:
        raise DomainError(
            "refinement check needs one record per epsilon on every level, "
            f"got {', '.join(map(str, sizes))}")
    if any(r.status != "ok" for records in levels for r in records):
        raise DomainError("refinement check needs every record ok")
    reports = []
    for level, (coarse, fine) in enumerate(zip(levels, levels[1:]), start=1):
        for column in DEVIATION_FIELDS:
            gaps = [abs(getattr(a, column) - getattr(b, column))
                    for a, b in zip(coarse, fine)]
            reports.append(IdentityReport.inequality(
                f"refine{level}_{column}", max(gaps),
                0.1 * min(getattr(b, column) for b in fine)))
    return reports
