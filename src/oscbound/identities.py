"""Integral identities and inequality chains on solved torsion data.

Everything here consumes a :class:`PipelineData` bundle (one solved domain:
torsion solution, deepest point, auxiliary field ``h = |x-z|^2/2 - u``,
derivative tensors and the normal-derivative trace on the domain's coarse
boundary table, the parts only the battery reads built on first read) and
produces :class:`IdentityReport` records.  The geometry scalars (area,
perimeter, radii) are read from the domain, which owns them.  Three kinds
of check coexist:

* ``identity`` — both sides of an exact integral identity are computed
  numerically and must agree up to a discretization tolerance;
* ``inequality`` — a bound with a fully explicit constant is evaluated and
  the margin must not be negative beyond slack;
* ``ratio`` — a bound whose constant the source analysis leaves implicit is
  recorded as a left/right ratio and only monitored.

The identities integrate with unnormalized measures (plain ``dx`` and
``dS``); norms use the volume- and perimeter-normalized measures used
throughout the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import (
    INF,
    ExponentPair,
    cap_measure,
    min_depth_bound,
    morrey_cone_constant,
    normalized_norm,
    oscillation_bound,
    oscillation_regime,
    two_term_minimize,
    unit_ball_volume,
    weighted_poincare_window,
)
from .errors import DomainError, GeometryError
from .stardomain import (
    StarDomain2D,
    area,
    ball_radii,
    diameter,
    inradius,
    perimeter,
    rho_bounds,
    star_radius,
)
from .torsion import (
    BoundaryTrace,
    DiscreteField,
    SolveReport,
    TensorField,
    gauss_map_deviation,
    gradient,
    h_field,
    hessian_torsion,
    locate_min,
    lp_norm_domain,
    normal_derivative,
    solve_torsion,
)

Array = np.ndarray

__all__ = [
    "BATTERY_ALPHA",
    "BATTERY_P",
    "BATTERY_Q",
    "FLOOR",
    "IdentityReport",
    "PipelineData",
    "build_pipeline_data",
    "check_battery_exponents",
    "check_divergence_identity",
    "check_hopf_bound",
    "check_torsion_depth",
    "check_min_depth",
    "check_fundamental_identity",
    "check_identity_mp",
    "check_weighted_poincare",
    "check_oscillation_chain",
    "check_grad_infty_bound",
    "check_grad_infty_weighted",
    "check_sbt_chain",
    "run_domain_checks",
]

FLOOR = 1e-12        # scale floor in relative residuals
_ABS_SLACK = 1e-9    # absolute slack for explicit-constant inequalities
_POINCARE_R, _POINCARE_P = 4.0, 2.0  # the battery's weighted Poincare ratio
# the battery's default exponents: (p, q) of the oscillation chain and the
# weight exponent alpha of the weighted Poincare ratio
BATTERY_P, BATTERY_Q, BATTERY_ALPHA = 6.0, INF, 0.5


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    """One checked statement: name, both sides, residual, and a verdict.

    ``kind`` selects the verdict semantics, and ``status`` is derived from
    it on construction.  For ``identity`` the residual is ``|lhs - rhs| /
    max(|lhs|, |rhs|, FLOOR)`` and passing means it does not exceed the
    tolerance.  For ``inequality`` the statement is ``lhs <= rhs``; the
    residual keeps only the violation, and slack is ``max(tolerance * scale,
    1e-9)``.  ``ratio`` records are informational (status ``monitored``)
    unless both sides vanish, which counts as a pass.  A report with a
    non-finite side fails, whatever its kind.
    """

    name: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    kind: str = "identity"
    status: str = field(init=False)

    def __post_init__(self):
        if self.kind not in ("identity", "inequality", "ratio"):
            raise DomainError(f"unknown report kind {self.kind!r}")
        if not (math.isfinite(self.lhs) and math.isfinite(self.rhs)):
            status = "fail"
        elif self.kind == "identity":
            status = "pass" if self.residual <= self.tolerance else "fail"
        elif self.kind == "inequality":
            scale = max(abs(self.lhs), abs(self.rhs), FLOOR)
            slack = max(self.tolerance * scale, _ABS_SLACK)
            status = "pass" if self.lhs - self.rhs <= slack else "fail"
        else:
            status = "pass" if max(abs(self.lhs), abs(self.rhs)) < _ABS_SLACK \
                else "monitored"
        object.__setattr__(self, "status", status)

    @property
    def ratio(self) -> float:
        """``lhs / rhs`` guarded against a vanishing denominator."""
        if abs(self.rhs) > FLOOR:
            return self.lhs / self.rhs
        return 0.0 if abs(self.lhs) <= FLOOR else math.inf

    @staticmethod
    def identity(name: str, lhs: float, rhs: float, tolerance: float,
                 natural_scale: float = 0.0) -> "IdentityReport":
        """Build an identity report.

        ``natural_scale`` is the magnitude of the identity's individual
        terms before cancellation; including it in the residual denominator
        keeps domains where both sides vanish analytically (and the numbers
        are pure discretization noise) from dividing noise by noise.
        """
        scale = max(abs(lhs), abs(rhs), abs(natural_scale), FLOOR)
        return IdentityReport(name, lhs, rhs, abs(lhs - rhs) / scale, tolerance)

    @staticmethod
    def inequality(name: str, lhs: float, rhs: float,
                   tolerance: float = 0.0) -> "IdentityReport":
        scale = max(abs(lhs), abs(rhs), FLOOR)
        return IdentityReport(name, lhs, rhs, max(0.0, lhs - rhs) / scale,
                              tolerance, kind="inequality")

    @staticmethod
    def monitored(name: str, lhs: float, rhs: float) -> "IdentityReport":
        return IdentityReport(name, lhs, rhs, 0.0, 0.0, kind="ratio")


# --------------------------------------------------------------------------
# the per-domain data bundle
# --------------------------------------------------------------------------

@dataclass(eq=False)
class PipelineData:
    """Everything the identity checks need about one solved domain.

    ``trace`` is u_nu on the domain's coarse boundary table
    (``trace.table``), whose positions, normals, curvatures and weights the
    boundary terms read.  The area and the perimeter are read from the
    domain through :func:`area` and :func:`perimeter`.
    """

    domain: StarDomain2D
    u: DiscreteField
    report: SolveReport
    z: Array
    hess_h: TensorField
    trace: BoundaryTrace
    rho_i: float
    rho_e: float

    @property
    def h(self) -> float:
        """Grid spacing of the solve."""
        return self.u.grid.h

    @property
    def R(self) -> float:
        """Reference radius N |Omega| / |Gamma|."""
        return 2.0 * area(self.domain) / perimeter(self.domain)

    @property
    def H0(self) -> float:
        return 1.0 / self.R

    # ---------------- fields read only by the check battery ----------------
    #
    # No stability record column depends on these, so they are computed on
    # first read instead of once per family member.

    @cached_property
    def h_aux(self) -> DiscreteField:
        """The auxiliary field ``|x - z|^2 / 2 - u``."""
        return h_field(self.u, self.z)

    @cached_property
    def grad_h(self) -> TensorField:
        """Gradient of :attr:`h_aux`."""
        return gradient(self.h_aux)

    @cached_property
    def mean_convex(self) -> bool:
        """Whether the boundary curvature is nowhere negative (up to slack)."""
        return bool(np.min(self.trace.table.kappa) >= -_ABS_SLACK)

    # ---------------- integration helpers (unnormalized) ----------------

    def domain_integral(self, values: Array, valid: Array | None = None) -> float:
        """``int_Omega values dx`` by cell weights, rescaled over exclusions."""
        grid = self.u.grid
        mask = grid.inside if valid is None else (grid.inside & valid)
        w = grid.cell_weights
        covered = float(np.sum(w[mask]))
        if covered <= 0.0:
            raise GeometryError("domain integral has no valid nodes")
        return float(np.sum(w[mask] * values[mask])) * float(np.sum(w)) / covered

    def _valid_samples(self, values: Array) -> tuple[Array, Array]:
        """``values`` and the arclength weights at the valid trace samples
        where ``values`` is finite."""
        ok = self.trace.valid & np.isfinite(values)
        if not ok.any():
            raise GeometryError("no valid boundary samples remain")
        return values[ok], self.trace.table.weight[ok]

    def boundary_integral(self, values: Array) -> float:
        """``int_Gamma values dS`` over valid trace samples, rescaled."""
        vals, w = self._valid_samples(values)
        return float(np.sum(w * vals)) * perimeter(self.domain) / float(np.sum(w))

    def boundary_norm(self, values: Array, p: float) -> float:
        """Perimeter-normalized boundary p-norm (measure dS / |Gamma|) over
        valid trace samples."""
        vals, w = self._valid_samples(values)
        return normalized_norm(vals, w, p, np.sum(w))

    # ---------------- derived boundary fields ----------------

    @cached_property
    def h_nu(self) -> Array:
        """Normal derivative of ``u - |x-z|^2/2`` on the boundary.

        Computed from the trace and exact geometry: ``u_nu - (x-z).nu``; the
        auxiliary field of this package is its negative, which no check
        depends on since each use is either squared or explicitly signed.
        """
        b = self.trace.table
        return self.trace.values - np.sum((b.gamma - self.z) * b.normal, axis=-1)

    # ---------------- the stability deviations ----------------

    @cached_property
    def curvature_flatness(self) -> float:
        """``|| H - H_0 ||_{2, Gamma}`` (normalized)."""
        return self.boundary_norm(self.trace.table.kappa - self.H0, 2.0)

    @cached_property
    def trace_flatness(self) -> float:
        """``|| u_nu - R ||_{2, Gamma}`` (normalized)."""
        return self.boundary_norm(self.trace.values - self.R, 2.0)

    @cached_property
    def gauss_deviation(self) -> float:
        """``R || nu - (x-z)/R ||_{2, Gamma}``."""
        return gauss_map_deviation(self.domain, self.z, self.R)

    @cached_property
    def hess_norm(self) -> float:
        """``|| hess h ||_{2, Omega}`` (normalized)."""
        return lp_norm_domain(self.hess_h, 2.0)

    @cached_property
    def weighted_hess_norm(self) -> float:
        """``|| delta^{1/2} hess h ||_{2, Omega}`` (normalized)."""
        return lp_norm_domain(self.hess_h, 2.0, alpha=0.5)


def build_pipeline_data(domain: StarDomain2D, h: float) -> PipelineData:
    """Solve the torsion problem and assemble the check bundle."""
    u, report = solve_torsion(domain, h)
    z = locate_min(u)
    hess_u = hessian_torsion(u)
    residue = np.stack([1.0 - hess_u.components[..., 0],
                        -hess_u.components[..., 1],
                        1.0 - hess_u.components[..., 2]], axis=-1)
    hess_h = TensorField(grid=u.grid, components=residue, valid=hess_u.valid)
    rho_i, rho_e = rho_bounds(domain, z)
    return PipelineData(domain=domain, u=u, report=report, z=z, hess_h=hess_h,
                        trace=normal_derivative(u), rho_i=rho_i, rho_e=rho_e)


# --------------------------------------------------------------------------
# identity checks
# --------------------------------------------------------------------------

def check_divergence_identity(data: PipelineData) -> IdentityReport:
    """``N |Omega| = int_Gamma u_nu dS`` (integrate the equation once)."""
    tol = max(1.0 * data.h, _ABS_SLACK)
    lhs = 2.0 * area(data.domain)
    rhs = data.boundary_integral(data.trace.values)
    return IdentityReport.identity("divergence", lhs, rhs, tol)


def check_fundamental_identity(data: PipelineData) -> IdentityReport:
    """Hessian-defect identity behind the soap-bubble estimates.

    ``(1/(N-1)) int |hess h|^2 dx + (1/R) int_Gamma (u_nu - R)^2 dS
    = int_Gamma (H_0 - H) u_nu^2 dS`` with unnormalized measures.
    """
    tol = max(2.0 * data.h, _ABS_SLACK)
    mag2 = data.hess_h.magnitude ** 2
    interior = data.domain_integral(mag2, data.hess_h.valid)  # 1/(N-1) = 1
    un = data.trace.values
    defect = data.boundary_integral((un - data.R) ** 2) / data.R
    rhs = data.boundary_integral((data.H0 - data.trace.table.kappa) * un**2)
    # on a ball every term vanishes; the discretization error still scales
    # with the uncancelled curvature-side magnitude
    natural = data.H0 * data.boundary_integral(un**2)
    return IdentityReport.identity("fundamental", interior + defect, rhs, tol,
                                   natural_scale=natural)


def check_identity_mp(data: PipelineData) -> IdentityReport:
    """Weighted-Hessian identity behind the Serrin estimates.

    ``int (-u) |hess h|^2 dx = (1/2) int_Gamma (u_nu^2 - R^2)
    (u_nu - (x-z).nu) dS``; the boundary weight is the normal derivative of
    ``u - |x-z|^2/2``, written out with the exact geometric term.
    """
    tol = max(2.0 * data.h, _ABS_SLACK)
    grid = data.u.grid
    mag2 = data.hess_h.magnitude ** 2
    minus_u = np.where(grid.inside, -data.u.values, 0.0)
    lhs = data.domain_integral(minus_u * mag2, data.hess_h.valid)
    un = data.trace.values
    rhs = 0.5 * data.boundary_integral((un**2 - data.R**2) * data.h_nu)
    # triangle majorant of the boundary side: the yardstick the noise scales
    # with when both sides vanish on a ball
    b = data.trace.table
    geom = np.abs(np.sum((b.gamma - data.z) * b.normal, axis=-1))
    natural = 0.5 * data.boundary_integral(
        (un**2 + data.R**2) * (np.abs(un) + geom))
    return IdentityReport.identity("identity_mp", lhs, rhs, tol,
                                   natural_scale=natural)


# --------------------------------------------------------------------------
# pointwise inequality checks
# --------------------------------------------------------------------------

def check_hopf_bound(data: PipelineData) -> IdentityReport:
    """``u_nu >= r_i`` on the boundary (Hopf-type barrier bound)."""
    tol = 1.0 * data.h
    rhs = float(np.min(data._valid_samples(data.trace.values)[0]))
    return IdentityReport.inequality("hopf", ball_radii(data.domain)[0], rhs,
                                     tol)


def check_torsion_depth(data: PipelineData) -> IdentityReport:
    """``delta_Gamma(x) <= -2 u(x) / r_i`` at every inside node."""
    tol = 1.0 * data.h
    grid = data.u.grid
    gap = grid.delta + 2.0 * data.u.values / ball_radii(data.domain)[0]
    lhs = float(np.max(gap[grid.inside]))
    return IdentityReport.inequality("torsion_depth", lhs, 0.0, tol)


def check_min_depth(data: PipelineData) -> IdentityReport:
    """The deepest point keeps its distance from the boundary.

    ``delta_Gamma(z) >= r_Omega / sqrt(N)`` for mean-convex domains, with the
    explicit damping bracket otherwise.
    """
    tol = 1.0 * data.h
    domain = data.domain
    bound = min_depth_bound(2, inradius(domain), d=diameter(domain),
                            r_e=ball_radii(domain)[1],
                            mean_convex=data.mean_convex)
    depth = data.rho_i  # delta_Gamma(z), the min of rho_bounds
    return IdentityReport.inequality("min_depth", bound, depth, tol)


# --------------------------------------------------------------------------
# constructive inequality chains
# --------------------------------------------------------------------------

def check_oscillation_chain(data: PipelineData, p: float,
                            q: float) -> IdentityReport:
    """Annulus gap against the constructive oscillation bound of ``h``.

    The exact geometric step ``rho_e - rho_i <= 2 (|B|/|Omega|)^{1/N}
    (max_Gamma h - min_Gamma h)`` feeds the oscillation of ``h`` into the
    kernel-splitting bound evaluated with this package's explicit constants.
    For ``p > N`` every constant is explicit and the chain is asserted; the
    other regimes are recorded as monitored ratios because their final
    assembly routes through implicit constants in the source analysis.
    """
    pair = ExponentPair(p=p, q=q, N=2)
    grad_p = lp_norm_domain(data.grad_h, p)
    grad_q = lp_norm_domain(data.grad_h, q)
    omega = area(data.domain)
    estimate = oscillation_bound(grad_p, grad_q, pair, diameter(data.domain),
                                 star_radius(data.domain), omega)
    lhs = data.rho_e - data.rho_i
    rhs = 2.0 * math.sqrt(unit_ball_volume(2) / omega) * estimate
    if p > 2:
        return IdentityReport.inequality("oscillation_chain", lhs, rhs)
    return IdentityReport.monitored("oscillation_chain", lhs, rhs)


def check_grad_infty_bound(data: PipelineData, q: float = INF) -> IdentityReport:
    """Sup of ``|grad h|`` against the interior-cone interpolation bound.

    Replays the cone argument with explicit constants: at the maximizing
    point an interior cone of opening pi/4 and height r_i fits, the
    directional derivative is split as cone average plus kernel remainder at
    radius sigma, and the sigma minimization runs over (0, r_i]:

    ``|grad h|(x) <= (N |Omega| / |S| sigma^N) ||grad h||_1
    + c_q sigma^{1 - N/q} (N |Omega| / |S|)^{1/q} ||hess h||_q``

    with the cone average taken in L^1 (p = 1) and ``q > N``.  The report
    is named after q: ``grad_infty_qinf``, ``grad_infty_q8``.
    """
    N, p = 2, 1.0
    if not q > N:
        raise DomainError(f"exponent q must exceed {N}, got {q}")
    sup_grad = lp_norm_domain(data.grad_h, INF)
    hess_q = lp_norm_domain(data.hess_h, q)
    grad_p = lp_norm_domain(data.grad_h, p)
    cap = cap_measure(math.pi / 4.0, N)
    vol_ratio = N * area(data.domain) / cap
    B = vol_ratio ** (1.0 / p) * grad_p
    A = morrey_cone_constant(q, N, 1.0) * vol_ratio ** (1.0 / q) * hess_q
    _, value = two_term_minimize(A, B, 1.0 - N / q, -N / p,
                                 ball_radii(data.domain)[0])
    return IdentityReport.inequality(f"grad_infty_q{q:g}", sup_grad, value)


def check_grad_infty_weighted(data: PipelineData) -> IdentityReport:
    """Sup of ``|grad h|`` against its distance-weighted interpolation.

    ``||grad h||_inf^{2N - p + 2p(1 - N/q)} <= c ||hess h||_q^{2N - p}
    ||delta^{1/2} hess h||_p^{2p(1 - N/q)}`` at p = 1, q = inf, monitored:
    its constant routes through an implicit calibration.
    """
    N, p, e = 2, 1.0, 1.0  # e = 1 - N/q at q = inf
    sup_grad = lp_norm_domain(data.grad_h, INF)
    hess_q = lp_norm_domain(data.hess_h, INF)
    weighted_p = lp_norm_domain(data.hess_h, p, alpha=0.5)
    lhs = sup_grad ** (2 * N - p + 2 * p * e)
    rhs = hess_q ** (2 * N - p) * weighted_p ** (2 * p * e)
    return IdentityReport.monitored("grad_infty_weighted", lhs, rhs)


def check_weighted_poincare(data: PipelineData,
                            alpha: float) -> IdentityReport:
    """Distance-weighted Poincare ratio around the critical point of ``h``.

    Records ``||grad h||_{4, Omega}`` against ``||delta^alpha hess h||_{2,
    Omega}``; ``alpha`` must keep these exponents in the admissible window,
    but the inequality's absolute constant is not known, so the report is
    monitored (vanishing sides pass).
    """
    weighted_poincare_window(2, _POINCARE_R, _POINCARE_P, alpha)
    lhs = lp_norm_domain(data.grad_h, _POINCARE_R)
    rhs = lp_norm_domain(data.hess_h, _POINCARE_P, alpha=alpha)
    return IdentityReport.monitored("weighted_poincare", lhs, rhs)


def check_sbt_chain(data: PipelineData) -> list[IdentityReport]:
    """The three monitored links of the soap-bubble stability chain.

    Hessian defect against curvature flatness, boundary gradient trace
    against normal-derivative flatness, and normal-derivative flatness
    against curvature flatness; each as an lhs/rhs ratio record.
    """
    h_nu_norm = data.boundary_norm(data.h_nu, 2.0)
    return [
        IdentityReport.monitored("sbt_hessian_link", data.hess_norm,
                                 data.curvature_flatness),
        IdentityReport.monitored("sbt_trace_link", h_nu_norm,
                                 data.trace_flatness),
        IdentityReport.monitored("sbt_flatness_link", data.trace_flatness,
                                 data.curvature_flatness),
    ]


def check_battery_exponents(p: float, q: float, alpha: float) -> None:
    """Reject exponents that :func:`run_domain_checks` cannot use.

    (p, q) must select a regime of the oscillation chain and ``alpha`` must
    keep the weighted Poincare ratio, at its exponents r = 4 and p = 2, in
    its window.  Needs no solved domain, so a run can call it first.
    """
    oscillation_regime(ExponentPair(p=p, q=q, N=2))
    weighted_poincare_window(2, _POINCARE_R, _POINCARE_P, alpha)


def run_domain_checks(data: PipelineData, p: float = BATTERY_P,
                      q: float = BATTERY_Q,
                      alpha: float = BATTERY_ALPHA) -> list[IdentityReport]:
    """Run the full per-domain check battery in a fixed order.

    ``p``/``q`` steer the oscillation chain and ``alpha`` the weighted
    Poincare ratio; everything else runs at its contract exponents, checked
    first by :func:`check_battery_exponents`.
    """
    check_battery_exponents(p, q, alpha)
    reports = [
        check_divergence_identity(data),
        check_fundamental_identity(data),
        check_identity_mp(data),
        check_hopf_bound(data),
        check_torsion_depth(data),
        check_min_depth(data),
        check_oscillation_chain(data, p=p, q=q),
        check_grad_infty_bound(data),
        check_grad_infty_bound(data, q=8.0),
        check_grad_infty_weighted(data),
        check_weighted_poincare(data, alpha=alpha),
    ]
    reports.extend(check_sbt_chain(data))
    return reports
