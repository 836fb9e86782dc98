"""Integral identities and inequality chains on solved torsion data.

Everything here consumes a :class:`PipelineData` bundle (one solved domain:
torsion solution, deepest point, auxiliary field ``h = |x-z|^2/2 - u``,
the magnitudes of its gradient and Hessian and the normal-derivative trace
on the domain's coarse boundary table, the parts only the battery reads
built on first read) and produces :class:`IdentityReport` records.  The
geometry scalars (area, perimeter, radii) are read from the domain, which
owns them.  Three kinds of check coexist:

* ``identity`` — both sides of an exact integral identity are computed
  numerically and must agree up to a discretization tolerance;
* ``inequality`` — a bound with a fully explicit constant is evaluated and
  the margin must not be negative beyond slack;
* ``ratio`` — a link whose constant is not yet derived is recorded as a
  left/right ratio and only monitored; these are the three ``sbt_*_link``
  rows of the soap-bubble chain.

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
    two_term_minimize,
    unit_ball_volume,
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
    "CHAIN_PAIRS",
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
    "check_oscillation_chain",
    "check_grad_infty_bound",
    "check_sbt_chain",
    "run_domain_checks",
]

FLOOR = 1e-12        # scale floor in relative residuals
_ABS_SLACK = 1e-9    # absolute slack for explicit-constant inequalities
# the (p, q) pairs of the oscillation chain, one per regime of
# oscillation_regime: Morrey, log and interpolation
CHAIN_PAIRS = ((6.0, INF), (2.0, INF), (1.0, INF))


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

    ``hess_h`` is the magnitude of the Hessian of h, ``|I - hess u|``, and
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

    @property
    def h_aux(self) -> DiscreteField:
        """The auxiliary field ``|x - z|^2 / 2 - u``, built on each read:
        only :attr:`grad_h` needs it."""
        return h_field(self.u, self.z)

    @cached_property
    def grad_h(self) -> TensorField:
        """Magnitude of the gradient of :attr:`h_aux`."""
        return gradient(self.h_aux)

    @cached_property
    def mean_convex(self) -> bool:
        """Whether the boundary curvature is nowhere negative (up to slack)."""
        return bool(np.min(self.trace.table.kappa) >= -_ABS_SLACK)

    # ---------------- integration helpers (unnormalized) ----------------

    def domain_integral(self, values: Array, valid: Array) -> float:
        """``int_Omega values dx`` by cell weights over the inside nodes where
        ``valid`` holds, rescaled over the excluded ones."""
        grid = self.u.grid
        mask = grid.inside & valid
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

    @property
    def hess_norm(self) -> float:
        """``|| hess h ||_{2, Omega}`` (normalized)."""
        return lp_norm_domain(self.hess_h, 2.0)

    @property
    def weighted_hess_norm(self) -> float:
        """``|| delta^{1/2} hess h ||_{2, Omega}`` (normalized)."""
        return lp_norm_domain(self.hess_h, 2.0, alpha=0.5)


def build_pipeline_data(domain: StarDomain2D, h: float) -> PipelineData:
    """Solve the torsion problem and assemble the check bundle."""
    u, report = solve_torsion(domain, h)
    z = locate_min(u)
    hess_h = hessian_torsion(u)
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
    (max_Gamma h - min_Gamma h)`` feeds the oscillation of ``h`` into
    :func:`oscillation_bound`.  The chain is asserted in every regime, since
    no constant of that bound is implicit: the averaging prefactor ``2 d^N /
    (N |B_1| rho^N)`` is geometric, the near-field (q > N) and far-field
    (p < N) Hoelder coefficients are closed forms, the p = N shells number
    at most ``1 + log2(d / sigma)`` with a closed-form shell constant, and
    the split radius is minimized exactly.  The report is named after the
    pair: ``oscillation_chain_p6_qinf``.
    """
    pair = ExponentPair(p=p, q=q, N=2)
    grad_p = lp_norm_domain(data.grad_h, p)
    grad_q = lp_norm_domain(data.grad_h, q)
    omega = area(data.domain)
    estimate = oscillation_bound(grad_p, grad_q, pair, diameter(data.domain),
                                 star_radius(data.domain), omega)
    lhs = data.rho_e - data.rho_i
    rhs = 2.0 * math.sqrt(unit_ball_volume(2) / omega) * estimate
    return IdentityReport.inequality(f"oscillation_chain_p{p:g}_q{q:g}",
                                     lhs, rhs)


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


def run_domain_checks(data: PipelineData) -> list[IdentityReport]:
    """Run the full per-domain check battery in a fixed order: the
    oscillation chain at each pair of :data:`CHAIN_PAIRS`, every other
    check at its contract exponents."""
    reports = [
        check_divergence_identity(data),
        check_fundamental_identity(data),
        check_identity_mp(data),
        check_hopf_bound(data),
        check_torsion_depth(data),
        check_min_depth(data),
        *(check_oscillation_chain(data, p, q) for p, q in CHAIN_PAIRS),
        check_grad_infty_bound(data),
        check_grad_infty_bound(data, q=8.0),
    ]
    reports.extend(check_sbt_chain(data))
    return reports
