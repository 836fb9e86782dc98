"""Planar star-shaped domains with trigonometric-polynomial radial functions.

A domain is described by ``r(phi) = c0 + sum_k (a_k cos k phi + b_k sin k phi)``
around the origin.  Derivatives of r are closed-form, so boundary positions,
outward normals and curvature carry no discretization error; smooth analytic
shapes (the ellipse) are projected onto a finite Fourier basis, which is
machine-exact because their coefficients decay geometrically.

All geometric quantities of the estimates live here: area, perimeter,
diameter, curvature statistics, the two radii measured from a marked center
(rho_i, rho_e), the uniform interior/exterior ball radii (r_i, r_e), boundary
distance, and the aperture/height of the interior cones that drive the
pointwise bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import minimize

from .constants import DomainScalars, _golden_min
from .errors import DomainError

Array = np.ndarray

__all__ = [
    "StarDomain2D",
    "BoundarySample",
    "boundary_sample",
    "area",
    "perimeter",
    "diameter",
    "H0_and_R",
    "rho_bounds",
    "ball_radii",
    "delta_gamma",
    "cone_params",
    "curvature_deviation",
    "star_radius",
    "inradius",
    "domain_scalars",
    "rotated",
]

_VALIDATION_SAMPLES = 4096
_CONE_APERTURE = math.pi / 4
_EVAL_BLOCK = 16384  # angles per block of the (angles x modes) tables


def _eval_blocks(phi: Array):
    """``(slice, column)`` pairs covering the flattened angles in blocks.

    Evaluating in blocks caps the (angles x modes) cos/sin tables of a
    grid-sized call at a few megabytes; ``[()]`` on the reshaped result
    keeps 0-d inputs returning numpy scalars.
    """
    flat = phi.reshape(-1)
    for lo in range(0, flat.size, _EVAL_BLOCK):
        yield slice(lo, lo + _EVAL_BLOCK), flat[lo:lo + _EVAL_BLOCK, None]


# --------------------------------------------------------------------------
# the domain type
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StarDomain2D:
    """Star-shaped planar domain, radial graph over the origin.

    ``r(phi) = c0 + sum_k (cos_coeffs[k-1] cos(k phi) + sin_coeffs[k-1]
    sin(k phi))`` must stay positive; this is checked on 4096 samples at
    construction.  The boundary is C-infinity by construction.
    """

    c0: float
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()
    label: str = field(default="star", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))
        object.__setattr__(self, "c0", float(self.c0))
        phi = np.linspace(0.0, 2.0 * math.pi, _VALIDATION_SAMPLES, endpoint=False)
        rmin = float(np.min(self.radial(phi)))
        if not rmin > 0.0:
            raise DomainError(
                f"radial function must be positive; min r = {rmin:.6g}"
            )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def circle(radius: float = 1.0) -> "StarDomain2D":
        return StarDomain2D(c0=radius, label=f"circle(R={radius:g})")

    @staticmethod
    def ellipse(a: float, b: float, n_modes: int = 64) -> "StarDomain2D":
        """Ellipse with semi-axes a, b as a star domain.

        The radial function ``a b / sqrt(b^2 cos^2 + a^2 sin^2)`` is analytic,
        so its Fourier series converges geometrically; ``n_modes = 64`` already
        reaches machine precision for the aspect ratios used here.
        """
        if a <= 0 or b <= 0:
            raise DomainError(f"semi-axes must be positive, got a={a}, b={b}")
        n = 4096
        phi = 2.0 * math.pi * np.arange(n) / n
        r = a * b / np.sqrt((b * np.cos(phi)) ** 2 + (a * np.sin(phi)) ** 2)
        spec = np.fft.rfft(r) / n
        k_max = min(n_modes, spec.size - 1)
        cos_c = 2.0 * spec[1:k_max + 1].real
        sin_c = -2.0 * spec[1:k_max + 1].imag
        return StarDomain2D(
            c0=float(spec[0].real),
            cos_coeffs=tuple(cos_c),
            sin_coeffs=tuple(sin_c),
            label=f"ellipse(a={a:g},b={b:g})",
        )

    @staticmethod
    def cosine(eps: float, k: int, base: float = 1.0) -> "StarDomain2D":
        """Perturbed disk ``r = base + eps cos(k phi)``."""
        if k < 1:
            raise DomainError(f"mode number must be >= 1, got {k}")
        cos_c = [0.0] * k
        cos_c[k - 1] = eps
        return StarDomain2D(c0=base, cos_coeffs=tuple(cos_c),
                            label=f"cosine(eps={eps:g},k={k})")

    # -- closed-form evaluation --------------------------------------------

    @property
    def n_modes(self) -> int:
        return max(len(self.cos_coeffs), len(self.sin_coeffs))

    def _coefficient_arrays(self) -> tuple[Array, Array, Array]:
        K = self.n_modes
        a = np.zeros(K)
        b = np.zeros(K)
        a[: len(self.cos_coeffs)] = self.cos_coeffs
        b[: len(self.sin_coeffs)] = self.sin_coeffs
        return np.arange(1, K + 1, dtype=float), a, b

    def radial(self, phi: Array | float) -> Array:
        phi = np.asarray(phi, dtype=float)
        if self.n_modes == 0:
            return np.full(phi.shape, self.c0)
        k, a, b = self._coefficient_arrays()
        r = np.empty(phi.size)
        for block, p in _eval_blocks(phi):
            ang = p * k
            r[block] = self.c0 + np.cos(ang) @ a + np.sin(ang) @ b
        return r.reshape(phi.shape)[()]

    def radial_derivatives(self, phi: Array | float) -> tuple[Array, Array, Array]:
        """(r, r', r'') at the given angles, all closed-form."""
        phi = np.asarray(phi, dtype=float)
        if self.n_modes == 0:
            z = np.zeros(phi.shape)
            return np.full(phi.shape, self.c0), z, z.copy()
        k, a, b = self._coefficient_arrays()
        r, r1, r2 = np.empty(phi.size), np.empty(phi.size), np.empty(phi.size)
        for block, p in _eval_blocks(phi):
            ang = p * k
            c, s = np.cos(ang), np.sin(ang)
            r[block] = self.c0 + c @ a + s @ b
            r1[block] = -s @ (k * a) + c @ (k * b)
            r2[block] = -c @ (k * k * a) - s @ (k * k * b)
        return tuple(x.reshape(phi.shape)[()] for x in (r, r1, r2))

    def boundary(self, phi: Array | float) -> Array:
        phi = np.asarray(phi, dtype=float)
        r = self.radial(phi)
        return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)

    def contains(self, points: Array, tol: float = 0.0) -> Array:
        """Strict interior test by the radial graph (vectorized)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rho = np.hypot(pts[:, 0], pts[:, 1])
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        return rho < self.radial(phi) - tol


def rotated(domain: StarDomain2D, alpha: float) -> StarDomain2D:
    """The same shape rotated by alpha (Fourier coefficients are remixed)."""
    k, a, b = domain._coefficient_arrays()
    ca, sa = np.cos(k * alpha), np.sin(k * alpha)
    return StarDomain2D(
        c0=domain.c0,
        cos_coeffs=tuple(a * ca - b * sa),
        sin_coeffs=tuple(a * sa + b * ca),
        label=f"{domain.label}@{alpha:g}rad",
    )


# --------------------------------------------------------------------------
# boundary samples
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundarySample:
    """One boundary point with its exact differential-geometry data."""

    phi: float
    position: Array
    normal: Array
    curvature: float
    weight: float  # arclength weight sqrt(r^2 + r'^2) * dphi


def _curvature(r: Array, r1: Array, r2: Array) -> Array:
    """Signed curvature of the radial graph from (r, r', r'')."""
    speed = np.sqrt(r * r + r1 * r1)
    return (r * r + 2.0 * r1 * r1 - r * r2) / speed**3


def _boundary_arrays(domain: StarDomain2D, m: int):
    phi = 2.0 * math.pi * np.arange(m) / m
    r, r1, r2 = domain.radial_derivatives(phi)
    speed = np.sqrt(r * r + r1 * r1)
    cphi, sphi = np.cos(phi), np.sin(phi)
    pos = np.stack([r * cphi, r * sphi], axis=-1)
    normal = np.stack([r * cphi + r1 * sphi, r * sphi - r1 * cphi], axis=-1)
    normal /= speed[:, None]
    kappa = _curvature(r, r1, r2)
    weight = speed * (2.0 * math.pi / m)
    return phi, pos, normal, kappa, weight


def boundary_sample(domain: StarDomain2D, m: int) -> list[BoundarySample]:
    """Uniform-in-phi boundary samples with exact normal and curvature."""
    if m < 64:
        raise DomainError(f"need at least 64 boundary samples, got {m}")
    phi, pos, normal, kappa, weight = _boundary_arrays(domain, m)
    return [
        BoundarySample(phi=float(phi[i]), position=pos[i], normal=normal[i],
                       curvature=float(kappa[i]), weight=float(weight[i]))
        for i in range(m)
    ]


# --------------------------------------------------------------------------
# bulk quantities
# --------------------------------------------------------------------------

def area(domain: StarDomain2D) -> float:
    """|Omega| = (1/2) int r^2 dphi, closed form by Parseval."""
    _, a, b = domain._coefficient_arrays() if domain.n_modes else (None, np.zeros(0), np.zeros(0))
    return math.pi * (domain.c0**2 + 0.5 * float(np.sum(a * a) + np.sum(b * b)))


def perimeter(domain: StarDomain2D, m: int = 4096) -> float:
    """|Gamma| = int sqrt(r^2 + r'^2) dphi by the periodic trapezoid rule.

    The integrand is smooth and periodic, so the rule converges geometrically.
    """
    phi = 2.0 * math.pi * np.arange(m) / m
    r, r1, _ = domain.radial_derivatives(phi)
    return float(np.sum(np.sqrt(r * r + r1 * r1))) * (2.0 * math.pi / m)


def _refine_extremum(fun, grid: Array, values: Array, j: int) -> float:
    """Golden-section refinement of a discrete minimum on a periodic grid."""
    step = grid[1] - grid[0] if grid.size > 1 else 2.0 * math.pi
    lo, hi = grid[j] - step, grid[j] + step
    t = _golden_min(lambda x: float(fun(x)), lo, hi, iters=90)
    return min(float(fun(t)), float(values[j]))


def diameter(domain: StarDomain2D, m: int = 1024) -> float:
    """Largest boundary-to-boundary distance, coarse grid plus refinement.

    The farthest pair of the grid seeds ``_critical_pair``, since the
    farthest pair of the curve is a critical pair of the distance.
    """
    phi = 2.0 * math.pi * np.arange(m) / m
    pts = domain.boundary(phi)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    i, j = np.unravel_index(int(np.argmax(d2)), d2.shape)
    t1, t2 = _critical_pair(domain, float(phi[i]), float(phi[j]))
    g1, g2 = domain.boundary(np.array([t1, t2]))
    return max(float(np.linalg.norm(g1 - g2)), math.sqrt(float(d2[i, j])))


def H0_and_R(domain: StarDomain2D) -> tuple[float, float]:
    """Reference curvature H0 = 1/R with R = 2 |Omega| / |Gamma|."""
    R = 2.0 * area(domain) / perimeter(domain)
    return 1.0 / R, R


def curvature_deviation(domain: StarDomain2D, m: int = 4096) -> float:
    """Normalized boundary L2 norm of kappa - H0 (measure dS / |Gamma|)."""
    _, _, _, kappa, weight = _boundary_arrays(domain, m)
    length = float(np.sum(weight))
    h0 = length / (2.0 * area(domain))
    return math.sqrt(float(np.sum(weight * (kappa - h0) ** 2)) / length)


# --------------------------------------------------------------------------
# radii and distances
# --------------------------------------------------------------------------

def rho_bounds(domain: StarDomain2D, z) -> tuple[float, float]:
    """(min, max) of |gamma(phi) - z| over the boundary, refined locally."""
    z = np.asarray(z, dtype=float)
    if not bool(domain.contains(z[None, :])[0]):
        raise DomainError(f"marked point {z.tolist()} is not inside the domain")
    phi = np.linspace(0.0, 2.0 * math.pi, _VALIDATION_SAMPLES, endpoint=False)
    d = np.linalg.norm(domain.boundary(phi) - z, axis=-1)

    def dist(t: float) -> float:
        return float(np.linalg.norm(domain.boundary(np.asarray(t)) - z))

    rho_i = _refine_extremum(dist, phi, d, int(np.argmin(d)))
    rho_e = -_refine_extremum(lambda t: -dist(t), phi, -d, int(np.argmax(d)))
    return rho_i, rho_e


def delta_gamma(domain: StarDomain2D, x) -> float:
    """Distance of x to the boundary, projected from the nearest of 4096 samples."""
    x = np.asarray(x, dtype=float)
    phi = np.linspace(0.0, 2.0 * math.pi, _VALIDATION_SAMPLES, endpoint=False)
    r, r1, r2 = domain.radial_derivatives(phi)
    d = np.hypot(r * np.cos(phi) - x[0], r * np.sin(phi) - x[1])
    j = int(np.argmin(d))
    projected = _projected_distance(
        domain, x[None, :], phi[j:j + 1], (r[j:j + 1], r1[j:j + 1], r2[j:j + 1]))
    # the sample stays an upper bound if a projection misses
    return min(float(projected[0]), float(d[j]))


_NEWTON_STEPS = 2  # evaluated steps after the tabulated first step


def _projected_distance(domain: StarDomain2D, points: Array, phi: Array,
                        derivs: tuple[Array, Array, Array]) -> Array:
    """Distance of each point to the boundary by seeded Newton projection.

    Newton's method on ``|gamma(phi) - x|^2 / 2`` starts from the parameter
    ``phi`` of a nearby boundary point (the nearest vertex of a table) and
    takes its first step from that vertex's tabulated ``derivs`` = (r, r',
    r''), so it costs no evaluation; the iteration converges quadratically
    to the closest point in ``_NEWTON_STEPS`` more steps.  Each step is
    capped at a hundredth of a radian and skipped where the objective is not
    locally convex.
    """
    x, y = points[:, 0], points[:, 1]
    for k in range(_NEWTON_STEPS + 1):
        r, r1, r2 = derivs if k == 0 else domain.radial_derivatives(phi)
        c, s = np.cos(phi), np.sin(phi)
        gx, gy = r * c - x, r * s - y
        tx, ty = r1 * c - r * s, r1 * s + r * c
        ax, ay = (r2 - r) * c - 2.0 * r1 * s, (r2 - r) * s + 2.0 * r1 * c
        slope = tx * gx + ty * gy
        curve = tx * tx + ty * ty + ax * gx + ay * gy
        step = np.where(curve > 0.0, -slope / np.where(curve > 0.0, curve, 1.0),
                        0.0)
        phi = phi + np.clip(step, -1e-2, 1e-2)
    return np.linalg.norm(domain.boundary(phi) - points, axis=-1)


def _min_boundary_distance(domain: StarDomain2D, centers: Array,
                           dense: Array) -> Array:
    """Distance of each center to the boundary (dense grid + parabolic fix).

    The squared distance is sampled on a uniform phi grid; a three-point
    parabola through the discrete minimum locates the continuous minimizer to
    O(dphi^3), and the true distance is re-evaluated there.
    """
    m = dense.shape[0]
    d2 = (np.sum(centers**2, axis=1)[:, None]
          + np.sum(dense**2, axis=1)[None, :]
          - 2.0 * centers @ dense.T)
    np.maximum(d2, 0.0, out=d2)
    j = np.argmin(d2, axis=1)
    rows = np.arange(centers.shape[0])
    left = d2[rows, (j - 1) % m]
    mid = d2[rows, j]
    right = d2[rows, (j + 1) % m]
    denom = left - 2.0 * mid + right
    shift = np.where(np.abs(denom) > 1e-300,
                     0.5 * (left - right) / np.maximum(np.abs(denom), 1e-300)
                     * np.sign(denom),
                     0.0)
    shift = np.clip(shift, -1.0, 1.0)
    dphi = 2.0 * math.pi / m
    phi_star = j * dphi + shift * dphi
    refined = np.linalg.norm(domain.boundary(phi_star) - centers, axis=-1)
    return np.minimum(np.sqrt(mid), refined)


_BALL_SAMPLES = 4096  # boundary samples q of the ball-radius search
_BALL_STRIDE = 8  # every 8th sample is a tangency point p; also the pair gap


def _tangent_ball(r: Array, r1: Array, rq: Array, sin_d: Array,
                  sin_half: Array) -> tuple[Array, Array]:
    """``(|p - q|^2, 2 (p - q) . nu)`` for p = gamma(phi), q = gamma(phi + d).

    ``r, r1`` are r and r' at p, ``rq`` is r at q, ``sin_d = sin d`` and
    ``sin_half = sin(d / 2)``.  The ball tangent at p on the inner side that
    passes through q has radius the first over the second.  Both come from
    polar differences (r_p - r_q and the angle d), not Cartesian ones, so no
    terms of the size of |p| cancel: on a circle the quotient is exact.
    """
    dr = r - rq
    chord = 4.0 * r * rq * sin_half * sin_half
    dot = 2.0 * (r * dr + 0.5 * chord + r1 * rq * sin_d)
    return dr * dr + chord, dot / np.sqrt(r * r + r1 * r1)


def _critical_pair(domain: StarDomain2D, t1: float,
                   t2: float) -> tuple[float, float]:
    """Newton's method for a critical pair of ``|gamma(t1) - gamma(t2)|^2 / 2``.

    A pair is critical when the chord is normal to the curve at both ends,
    as at a bottleneck or at the farthest pair.  Each step is capped at a
    hundredth of a radian in each parameter; from a seed within a table
    spacing the iteration converges quadratically well inside its 8 steps.
    """
    for _ in range(8):
        r, r1, r2 = domain.radial_derivatives(np.array([t1, t2]))
        c, s = np.cos([t1, t2]), np.sin([t1, t2])
        tx, ty = r1 * c - r * s, r1 * s + r * c
        ax, ay = (r2 - r) * c - 2.0 * r1 * s, (r2 - r) * s + 2.0 * r1 * c
        gx, gy = r[0] * c[0] - r[1] * c[1], r[0] * s[0] - r[1] * s[1]
        grad = np.array([gx * tx[0] + gy * ty[0], -(gx * tx[1] + gy * ty[1])])
        cross = -(tx[0] * tx[1] + ty[0] * ty[1])
        hess = np.array(
            [[tx[0] ** 2 + ty[0] ** 2 + gx * ax[0] + gy * ay[0], cross],
             [cross, tx[1] ** 2 + ty[1] ** 2 - gx * ax[1] - gy * ay[1]]])
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            break
        step = np.clip(step, -1e-2, 1e-2)
        t1, t2 = t1 + float(step[0]), t2 + float(step[1])
    return t1, t2


def ball_radii(domain: StarDomain2D) -> tuple[float, float]:
    """Uniform interior and exterior ball radii (r_i, r_e), in closed form.

    At a boundary point p with outward normal nu, the ball tangent at p on
    the inner side through another boundary point q has radius
    ``|p - q|^2 / (2 (p - q) . nu)`` (for (p - q) . nu > 0), and the largest
    interior ball tangent at p is the smaller of 1/kappa(p) (q -> p) and
    the infimum of that quotient over q.  r_i is the minimum over p, which
    is the reach of the boundary: the smaller of 1/max kappa and half the
    interior bottleneck (Federer 1959; Aamari et al. 2019).  r_e is the same
    with nu -> -nu and kappa -> -kappa, capped at the diameter (convex
    shapes admit arbitrarily large exterior balls).

    The local term refines max kappa and max(-kappa) over 4096 samples by
    golden section.  The pair term tabulates the quotient for 512 tangency
    points against 4096 samples, leaving out pairs within 8 samples of each
    other (the local term covers those).  When the table undercuts the local
    term, a bottleneck binds: the minimizing pair has its chord normal to
    the curve at both ends, so the best pair of the table seeds
    ``_critical_pair``.
    """
    m, stride = _BALL_SAMPLES, _BALL_STRIDE
    phi = 2.0 * math.pi * np.arange(m) / m
    r, r1, r2 = domain.radial_derivatives(phi)
    kappa = _curvature(r, r1, r2)

    def quotient(tp: float, tq: float, side: float) -> float:
        rp, rp1, _ = domain.radial_derivatives(np.asarray(tp))
        rq = domain.radial(np.asarray(tq))
        d = tq - tp
        num, den = _tangent_ball(rp, rp1, rq, np.sin(d), np.sin(0.5 * d))
        den = side * float(den)
        return float(num) / den if den > 0.0 else math.inf

    # row i holds p = sample stride * i against q = sample stride * i + lag
    # for every lag more than ``stride`` samples from p on either side
    lag = np.arange(stride + 1, m - stride)
    d_phi = 2.0 * math.pi * lag / m
    rq = sliding_window_view(np.concatenate([r, r[:-1]]), m)[::stride, lag]
    num, den = _tangent_ball(r[::stride, None], r1[::stride, None], rq,
                             np.sin(d_phi), np.sin(0.5 * d_phi))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den

    out = []
    for side in (1.0, -1.0):  # interior, then exterior
        j = int(np.argmax(side * kappa))
        k_max = -_refine_extremum(
            lambda t: -side * _curvature(*domain.radial_derivatives(t)),
            phi, -side * kappa, j)
        best = 1.0 / k_max if k_max > 0.0 else math.inf
        table = np.where(side * den > 0.0, side * ratio, math.inf)
        ip, k = np.unravel_index(int(np.argmin(table)), table.shape)
        if table[ip, k] < best:
            tp, tq = _critical_pair(domain, phi[stride * ip],
                                    phi[(stride * ip + lag[k]) % m])
            best = min(float(table[ip, k]), quotient(tp, tq, side))
        out.append(best)
    return out[0], min(out[1], diameter(domain))


def cone_params(domain: StarDomain2D) -> tuple[float, float]:
    """(aperture, height) of interior cones: (pi/4, r_i).

    Every boundary point of a C^2 domain with uniform interior ball radius
    r_i carries an interior cone of half-aperture pi/4 and height r_i
    (a cone of height a <= 2 r_i cos(theta) fits inside the touching ball).
    """
    r_i, _ = ball_radii(domain)
    return _CONE_APERTURE, r_i


def star_radius(domain: StarDomain2D) -> float:
    """Largest rho such that the domain is star-shaped w.r.t. B_rho(0).

    Equals the minimum over the boundary of the pedal distance
    gamma . nu = r^2 / sqrt(r^2 + r'^2) (distance from the origin to the
    tangent line).
    """
    phi = np.linspace(0.0, 2.0 * math.pi, _VALIDATION_SAMPLES, endpoint=False)

    def pedal(t) -> Array:
        r, r1, _ = domain.radial_derivatives(np.asarray(t))
        return r * r / np.sqrt(r * r + r1 * r1)

    vals = pedal(phi)
    return _refine_extremum(lambda t: float(pedal(t)), phi, vals,
                            int(np.argmin(vals)))


def inradius(domain: StarDomain2D) -> float:
    """Unconstrained inradius: max over interior centers of delta_Gamma."""
    dense_pts = domain.boundary(
        np.linspace(0.0, 2.0 * math.pi, _VALIDATION_SAMPLES, endpoint=False))
    # coarse polar scan of candidate centers
    best = (0.0, np.zeros(2))
    phi = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    rmax = domain.radial(phi)
    for frac in (0.0, 0.15, 0.3, 0.45, 0.6, 0.75):
        centers = (frac * rmax)[:, None] * np.stack(
            [np.cos(phi), np.sin(phi)], axis=-1)
        if frac == 0.0:
            centers = centers[:1]
        dist = _min_boundary_distance(domain, centers, dense_pts)
        k = int(np.argmax(dist))
        if dist[k] > best[0]:
            best = (float(dist[k]), centers[k])
    # Nelder-Mead polish on the smooth objective
    res = minimize(
        lambda c: -_min_boundary_distance(domain, c[None, :], dense_pts)[0],
        best[1], method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 400})
    return max(best[0], -float(res.fun))


def domain_scalars(domain: StarDomain2D) -> DomainScalars:
    """Bundle of validated scalar quantities (marked center = origin)."""
    rho_i, rho_e = rho_bounds(domain, np.zeros(2))
    return DomainScalars(
        N=2,
        volume=area(domain),
        surface=perimeter(domain),
        diameter=diameter(domain),
        r_i=rho_i,
        r_e=rho_e,
        r_Omega=inradius(domain),
    )
