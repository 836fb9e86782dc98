"""Integral identities and inequality chains on solved torsion data.

Everything here consumes a :class:`PipelineData` bundle (one solved domain:
torsion solution, deepest point, auxiliary field ``h = |x-z|^2/2 - u``,
derivative tensors, boundary traces, and exact geometry scalars) and produces
:class:`IdentityReport` records.  Three kinds of check coexist:

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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import (
    INF,
    ExponentPair,
    cap_measure,
    min_depth_bound,
    morrey_cone_constant,
    oscillation_bound,
    two_term_minimize,
    unit_ball_volume,
    weighted_poincare_structural_constant,
)
from .errors import DomainError, GeometryError
from .stardomain import (
    StarDomain2D,
    _boundary_arrays,
    area,
    ball_radii,
    delta_gamma,
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
    boundary_lp_norm,
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
    "FLOOR",
    "IdentityReport",
    "PipelineData",
    "build_pipeline_data",
    "check_divergence_identity",
    "check_hopf_bound",
    "check_torsion_depth",
    "check_min_depth",
    "check_fundamental_identity",
    "check_identity_mp",
    "check_weighted_poincare",
    "check_oscillation_chain",
    "check_grad_infty_bound",
    "check_sbt_chain",
    "run_domain_checks",
]

FLOOR = 1e-12        # scale floor in relative residuals
_ABS_SLACK = 1e-9    # absolute slack for explicit-constant inequalities


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    """One checked statement: name, both sides, residual, and a verdict.

    ``kind`` selects the verdict semantics.  For ``identity`` the residual is
    ``|lhs - rhs| / max(|lhs|, |rhs|, FLOOR)`` and passing means it does not
    exceed the tolerance.  For ``inequality`` the statement is ``lhs <= rhs``;
    the residual keeps only the violation, and slack is
    ``max(tolerance * scale, 1e-9)``.  ``ratio`` records are informational
    (status ``monitored``) unless both sides vanish, which counts as a pass.
    """

    name: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    status: str
    kind: str = "identity"

    def __post_init__(self):
        if self.kind not in ("identity", "inequality", "ratio"):
            raise DomainError(f"unknown report kind {self.kind!r}")
        if self.status not in ("pass", "fail", "monitored"):
            raise DomainError(f"unknown report status {self.status!r}")
        if not (math.isfinite(self.lhs) and math.isfinite(self.rhs)):
            if self.status != "fail":
                raise DomainError(
                    f"report {self.name!r} has non-finite sides and must fail"
                )
            return
        if self.kind == "identity":
            expect = "pass" if self.residual <= self.tolerance else "fail"
        elif self.kind == "inequality":
            scale = max(abs(self.lhs), abs(self.rhs), FLOOR)
            slack = max(self.tolerance * scale, _ABS_SLACK)
            expect = "pass" if self.lhs - self.rhs <= slack else "fail"
        else:
            expect = "pass" if max(abs(self.lhs), abs(self.rhs)) < _ABS_SLACK \
                else "monitored"
        if self.status != expect:
            raise DomainError(
                f"report {self.name!r}: status {self.status!r} contradicts "
                f"its own kind/tolerance (expected {expect!r})"
            )

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
        residual = abs(lhs - rhs) / scale
        status = "pass" if residual <= tolerance else "fail"
        return IdentityReport(name, lhs, rhs, residual, tolerance, status)

    @staticmethod
    def inequality(name: str, lhs: float, rhs: float,
                   tolerance: float = 0.0) -> "IdentityReport":
        scale = max(abs(lhs), abs(rhs), FLOOR)
        residual = max(0.0, lhs - rhs) / scale
        ok = lhs - rhs <= max(tolerance * scale, _ABS_SLACK)
        return IdentityReport(name, lhs, rhs, residual, tolerance,
                              "pass" if ok else "fail", kind="inequality")

    @staticmethod
    def monitored(name: str, lhs: float, rhs: float) -> "IdentityReport":
        status = "pass" if max(abs(lhs), abs(rhs)) < _ABS_SLACK else "monitored"
        return IdentityReport(name, lhs, rhs, 0.0, 0.0, status, kind="ratio")


# --------------------------------------------------------------------------
# the per-domain data bundle
# --------------------------------------------------------------------------

@dataclass(eq=False)
class PipelineData:
    """Everything the identity checks need about one solved domain."""

    domain: StarDomain2D
    h: float
    u: DiscreteField
    report: SolveReport
    z: Array
    h_aux: DiscreteField
    grad_h: TensorField
    hess_u: TensorField
    hess_h: TensorField
    trace: BoundaryTrace          # u_nu at uniform boundary angles
    gamma: Array                  # boundary points behind the trace
    normal: Array
    curvature: Array
    area: float
    perimeter: float
    rho_i: float
    rho_e: float
    mean_convex: bool

    @property
    def R(self) -> float:
        """Reference radius N |Omega| / |Gamma|."""
        return 2.0 * self.area / self.perimeter

    @property
    def H0(self) -> float:
        return 1.0 / self.R

    # ---------------- geometry read only by the check battery ----------------
    #
    # No stability record column depends on these, so they are computed on
    # first read instead of once per family member.

    @cached_property
    def _ball_radii(self) -> tuple[float, float]:
        return ball_radii(self.domain)

    @property
    def r_i(self) -> float:
        """Uniform interior ball radius."""
        return self._ball_radii[0]

    @property
    def r_e(self) -> float:
        """Uniform exterior ball radius, capped at the diameter."""
        return self._ball_radii[1]

    @cached_property
    def diam(self) -> float:
        """Largest boundary-to-boundary distance."""
        return diameter(self.domain)

    @cached_property
    def rho_star(self) -> float:
        """Star-shapedness radius about the origin."""
        return star_radius(self.domain)

    @cached_property
    def r_inradius(self) -> float:
        """Radius of the largest inscribed disk."""
        return inradius(self.domain)

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

    def boundary_integral(self, values: Array) -> float:
        """``int_Gamma values dS`` over valid trace samples, rescaled."""
        ok = self.trace.valid & np.isfinite(values)
        if not ok.any():
            raise GeometryError("boundary integral has no valid samples")
        w = self.trace.weights
        return float(np.sum(w[ok] * values[ok])) * self.perimeter / float(np.sum(w[ok]))

    def boundary_norm(self, values: Array, p: float) -> float:
        """Perimeter-normalized boundary p-norm over valid samples."""
        tr = BoundaryTrace(phi=self.trace.phi, values=values,
                           weights=self.trace.weights,
                           valid=self.trace.valid & np.isfinite(values))
        return boundary_lp_norm(tr, p)

    # ---------------- derived boundary fields ----------------

    @cached_property
    def h_nu(self) -> Array:
        """Normal derivative of ``u - |x-z|^2/2`` on the boundary.

        Computed from the trace and exact geometry: ``u_nu - (x-z).nu``; the
        auxiliary field of this package is its negative, which no check
        depends on since each use is either squared or explicitly signed.
        """
        return self.trace.values - np.sum((self.gamma - self.z) * self.normal, axis=-1)

    # ---------------- the stability deviations ----------------

    @cached_property
    def curvature_flatness(self) -> float:
        """``|| H - H_0 ||_{2, Gamma}`` (normalized)."""
        return self.boundary_norm(self.curvature - self.H0, 2.0)

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


def build_pipeline_data(domain: StarDomain2D, h: float,
                        boundary_samples: int = 1024) -> PipelineData:
    """Solve the torsion problem and assemble the full check bundle."""
    u, report = solve_torsion(domain, h)
    z = locate_min(u)
    h_aux = h_field(u, z)
    grad_h = gradient(h_aux)
    hess_u = hessian_torsion(u)
    residue = np.stack([1.0 - hess_u.components[..., 0],
                        -hess_u.components[..., 1],
                        1.0 - hess_u.components[..., 2]], axis=-1)
    hess_h = TensorField(grid=u.grid, components=residue, valid=hess_u.valid,
                         provenance="derived")
    trace = normal_derivative(u, domain, m=boundary_samples)
    _, gamma, normal, curvature, _ = _boundary_arrays(domain, boundary_samples)
    rho_i, rho_e = rho_bounds(domain, z)
    return PipelineData(
        domain=domain, h=h, u=u, report=report, z=z, h_aux=h_aux,
        grad_h=grad_h, hess_u=hess_u, hess_h=hess_h, trace=trace,
        gamma=gamma, normal=normal, curvature=curvature,
        area=area(domain), perimeter=perimeter(domain),
        rho_i=rho_i, rho_e=rho_e,
        mean_convex=bool(np.min(curvature) >= -_ABS_SLACK),
    )


# --------------------------------------------------------------------------
# identity checks
# --------------------------------------------------------------------------

def check_divergence_identity(data: PipelineData,
                              tolerance: float | None = None) -> IdentityReport:
    """``N |Omega| = int_Gamma u_nu dS`` (integrate the equation once)."""
    tol = max(1.0 * data.h, _ABS_SLACK) if tolerance is None else tolerance
    lhs = 2.0 * data.area
    rhs = data.boundary_integral(data.trace.values)
    return IdentityReport.identity("divergence", lhs, rhs, tol)


def check_fundamental_identity(data: PipelineData,
                               tolerance: float | None = None) -> IdentityReport:
    """Hessian-defect identity behind the soap-bubble estimates.

    ``(1/(N-1)) int |hess h|^2 dx + (1/R) int_Gamma (u_nu - R)^2 dS
    = int_Gamma (H_0 - H) u_nu^2 dS`` with unnormalized measures.
    """
    tol = max(2.0 * data.h, _ABS_SLACK) if tolerance is None else tolerance
    mag2 = data.hess_h.magnitude() ** 2
    interior = data.domain_integral(mag2, data.hess_h.valid)  # 1/(N-1) = 1
    un = data.trace.values
    defect = data.boundary_integral((un - data.R) ** 2) / data.R
    rhs = data.boundary_integral((data.H0 - data.curvature) * un**2)
    # on a ball every term vanishes; the discretization error still scales
    # with the uncancelled curvature-side magnitude
    natural = data.H0 * data.boundary_integral(un**2)
    return IdentityReport.identity("fundamental", interior + defect, rhs, tol,
                                   natural_scale=natural)


def check_identity_mp(data: PipelineData,
                      tolerance: float | None = None) -> IdentityReport:
    """Weighted-Hessian identity behind the Serrin estimates.

    ``int (-u) |hess h|^2 dx = (1/2) int_Gamma (u_nu^2 - R^2)
    (u_nu - (x-z).nu) dS``; the boundary weight is the normal derivative of
    ``u - |x-z|^2/2``, written out with the exact geometric term.
    """
    tol = max(2.0 * data.h, _ABS_SLACK) if tolerance is None else tolerance
    grid = data.u.grid
    mag2 = data.hess_h.magnitude() ** 2
    minus_u = np.where(grid.inside, -data.u.values, 0.0)
    lhs = data.domain_integral(minus_u * mag2, data.hess_h.valid)
    un = data.trace.values
    rhs = 0.5 * data.boundary_integral((un**2 - data.R**2) * data.h_nu)
    # triangle majorant of the boundary side: the yardstick the noise scales
    # with when both sides vanish on a ball
    geom = np.abs(np.sum((data.gamma - data.z) * data.normal, axis=-1))
    natural = 0.5 * data.boundary_integral(
        (un**2 + data.R**2) * (np.abs(un) + geom))
    return IdentityReport.identity("identity_mp", lhs, rhs, tol,
                                   natural_scale=natural)


# --------------------------------------------------------------------------
# pointwise inequality checks
# --------------------------------------------------------------------------

def check_hopf_bound(data: PipelineData,
                     tolerance: float | None = None) -> IdentityReport:
    """``u_nu >= r_i`` on the boundary (Hopf-type barrier bound)."""
    tol = 1.0 * data.h if tolerance is None else tolerance
    ok = data.trace.valid
    if not ok.any():
        raise GeometryError("Hopf check needs at least one valid trace sample")
    rhs = float(np.min(data.trace.values[ok]))
    return IdentityReport.inequality("hopf", data.r_i, rhs, tol)


def check_torsion_depth(data: PipelineData,
                        tolerance: float | None = None) -> IdentityReport:
    """``delta_Gamma(x) <= -2 u(x) / r_i`` at every inside node."""
    tol = 1.0 * data.h if tolerance is None else tolerance
    grid = data.u.grid
    gap = grid.delta + 2.0 * data.u.values / data.r_i
    lhs = float(np.max(gap[grid.inside]))
    return IdentityReport.inequality("torsion_depth", lhs, 0.0, tol)


def check_min_depth(data: PipelineData,
                    tolerance: float | None = None) -> IdentityReport:
    """The deepest point keeps its distance from the boundary.

    ``delta_Gamma(z) >= r_Omega / sqrt(N)`` for mean-convex domains, with the
    explicit damping bracket otherwise.
    """
    tol = 1.0 * data.h if tolerance is None else tolerance
    bound = min_depth_bound(2, data.r_inradius, d=data.diam, r_e=data.r_e,
                            mean_convex=data.mean_convex)
    depth = delta_gamma(data.domain, data.z)
    return IdentityReport.inequality("min_depth", bound, depth, tol)


# --------------------------------------------------------------------------
# constructive inequality chains
# --------------------------------------------------------------------------

def check_oscillation_chain(data: PipelineData, p: float = 6.0,
                            q: float = INF) -> IdentityReport:
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
    estimate = oscillation_bound(grad_p, grad_q, pair, data.diam,
                                 data.rho_star, data.area)
    lhs = data.rho_e - data.rho_i
    rhs = 2.0 * math.sqrt(unit_ball_volume(2) / data.area) * estimate.value
    if p > 2:
        return IdentityReport.inequality("oscillation_chain", lhs, rhs)
    return IdentityReport.monitored("oscillation_chain", lhs, rhs)


def check_grad_infty_bound(data: PipelineData, p: float = 1.0, q: float = INF,
                           weighted: bool = False) -> IdentityReport:
    """Sup of ``|grad h|`` against interior-cone interpolation bounds.

    The asserted form replays the cone argument with explicit constants: at
    the maximizing point an interior cone of opening pi/4 and height r_i
    fits, the directional derivative is split as cone average plus kernel
    remainder at radius sigma, and the sigma minimization runs over (0, r_i]:

    ``|grad h|(x) <= (N |Omega| / |S| sigma^N)^{1/p} ||grad h||_p
    + c_q sigma^{1 - N/q} (N |Omega| / |S|)^{1/q} ||hess h||_q``.

    With ``weighted=True`` the distance-weighted variant
    ``||grad h||_inf^{2N - p + 2p(1 - N/q)} <= c ||hess h||_q^{2N - p}
    ||delta^{1/2} hess h||_p^{2p(1 - N/q)}`` is recorded as a monitored
    ratio (its constant routes through an implicit calibration).
    """
    N = 2
    if not (1.0 <= p < 2 * N):
        raise DomainError(f"exponent p must lie in [1, {2 * N}), got {p}")
    if not q > N:
        raise DomainError(f"exponent q must exceed {N}, got {q}")
    sup_grad = lp_norm_domain(data.grad_h, INF)
    hess_q = lp_norm_domain(data.hess_h, q)

    if weighted:
        e = 1.0 if q == INF else 1.0 - N / q
        weighted_p = lp_norm_domain(data.hess_h, p, alpha=0.5)
        lhs = sup_grad ** (2 * N - p + 2 * p * e)
        rhs = hess_q ** (2 * N - p) * weighted_p ** (2 * p * e)
        return IdentityReport.monitored("grad_infty_weighted", lhs, rhs)

    grad_p = lp_norm_domain(data.grad_h, p)
    cap = cap_measure(math.pi / 4.0, N)
    vol_ratio = N * data.area / cap
    B = vol_ratio ** (1.0 / p) * grad_p
    if q == INF:
        A = morrey_cone_constant(INF, N, 1.0) * hess_q
        exp_a = 1.0
    else:
        A = morrey_cone_constant(q, N, 1.0) * vol_ratio ** (1.0 / q) * hess_q
        exp_a = 1.0 - N / q
    _, value = two_term_minimize(A, B, exp_a, -N / p, data.r_i)
    return IdentityReport.inequality("grad_infty", sup_grad, value)


def check_weighted_poincare(data: PipelineData, r: float = 4.0, p: float = 2.0,
                            alpha: float = 0.5,
                            calibration_k: float = 1.0) -> IdentityReport:
    """Distance-weighted Poincare ratio around the critical point of ``h``.

    Records ``||grad h||_{r, Omega}`` against ``calibration_k ||delta^alpha
    hess h||_{p, Omega}``; the admissible exponent window is validated
    through the structural-constant routine, but the inequality's absolute
    constant is a calibration, so the report is monitored (vanishing sides
    pass).
    """
    # validates (r, p, alpha) ranges; the value itself is calibration-scaled
    weighted_poincare_structural_constant(
        2, r, p, alpha, volume=data.area, d=data.diam, r_i=data.r_i,
        r_e=data.r_e, mean_convex=data.mean_convex,
        calibration_k=calibration_k,
    )
    lhs = lp_norm_domain(data.grad_h, r)
    rhs = calibration_k * lp_norm_domain(data.hess_h, p, alpha=alpha)
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


def run_domain_checks(data: PipelineData, p: float = 6.0, q: float = INF,
                      alpha: float = 0.5,
                      calibration_k: float = 1.0) -> list[IdentityReport]:
    """Run the full per-domain check battery in a fixed order.

    ``p``/``q`` steer the oscillation chain, ``alpha`` and ``calibration_k``
    the weighted Poincare ratio; everything else runs at its contract
    exponents.
    """
    reports = [
        check_divergence_identity(data),
        check_fundamental_identity(data),
        check_identity_mp(data),
        check_hopf_bound(data),
        check_torsion_depth(data),
        check_min_depth(data),
        check_oscillation_chain(data, p=p, q=q),
        check_grad_infty_bound(data),
        check_grad_infty_bound(data, p=1.0, q=8.0),
        check_grad_infty_bound(data, weighted=True),
        check_weighted_poincare(data, alpha=alpha,
                                calibration_k=calibration_k),
    ]
    reports.extend(check_sbt_chain(data))
    return reports
