"""Planar star-shaped domains with trigonometric-polynomial radial functions.

A domain is described by ``r(phi) = c0 + sum_k (a_k cos k phi + b_k sin k phi)``
around the origin.  Derivatives of r are closed-form, so boundary positions,
outward normals and curvature carry no discretization error; smooth analytic
shapes (the ellipse) are projected onto a finite Fourier basis, which is
machine-exact because their coefficients decay geometrically.

All geometric quantities of the estimates live here: area, perimeter,
diameter, curvature statistics, the two radii measured from a marked point
(rho_i, rho_e), the uniform interior/exterior ball radii (r_i, r_e), the
inradius and the boundary distance.  Three searches carry every extremum:
the tangent-ball quotient table (the ball radii and the inradius), the
seeded Newton projection onto the curve (every nearest-point distance) and
golden-section refinement of a tabulated extremum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constants import _golden_min
from .errors import DomainError

Array = np.ndarray

__all__ = [
    "StarDomain2D",
    "area",
    "perimeter",
    "diameter",
    "H0_and_R",
    "rho_bounds",
    "ball_radii",
    "delta_gamma",
    "curvature_deviation",
    "star_radius",
    "inradius",
    "rotated",
]

_VALIDATION_SAMPLES = 4096
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

def _curvature(r: Array, r1: Array, r2: Array) -> Array:
    """Signed curvature of the radial graph from (r, r', r'')."""
    speed = np.sqrt(r * r + r1 * r1)
    return (r * r + 2.0 * r1 * r1 - r * r2) / speed**3


def _boundary_arrays(domain: StarDomain2D, m: int):
    """(phi, position, outward normal, curvature, arclength weight) at m
    uniform angles, all from the closed-form (r, r', r'')."""
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
    """(min, max) of |gamma(phi) - z| over the boundary.

    The min is the boundary distance :func:`delta_gamma`; the max refines
    the farthest of 4096 samples by golden section.
    """
    z = np.asarray(z, dtype=float)
    if not bool(domain.contains(z[None, :])[0]):
        raise DomainError(f"marked point {z.tolist()} is not inside the domain")
    phi = np.linspace(0.0, 2.0 * math.pi, _VALIDATION_SAMPLES, endpoint=False)
    d = np.linalg.norm(domain.boundary(phi) - z, axis=-1)

    def dist(t: float) -> float:
        return float(np.linalg.norm(domain.boundary(np.asarray(t)) - z))

    rho_e = -_refine_extremum(lambda t: -dist(t), phi, -d, int(np.argmax(d)))
    return delta_gamma(domain, z), rho_e


def delta_gamma(domain: StarDomain2D, x) -> float:
    """Distance of x to the boundary, projected from the nearest of 4096 samples."""
    x = np.asarray(x, dtype=float)
    phi = np.linspace(0.0, 2.0 * math.pi, _VALIDATION_SAMPLES, endpoint=False)
    r, r1, r2 = domain.radial_derivatives(phi)
    d = np.hypot(r * np.cos(phi) - x[0], r * np.sin(phi) - x[1])
    j = int(np.argmin(d))
    projected, _ = _projected_distance(
        domain, x[None, :], phi[j:j + 1], (r[j:j + 1], r1[j:j + 1], r2[j:j + 1]))
    # the sample stays an upper bound if a projection misses
    return min(float(projected[0]), float(d[j]))


_NEWTON_STEPS = 2  # evaluated steps after the tabulated first step


def _projected_distance(domain: StarDomain2D, points: Array, phi: Array,
                        derivs: tuple[Array, Array, Array]
                        ) -> tuple[Array, Array]:
    """Distance of each point to the boundary by seeded Newton projection.

    Newton's method on ``|gamma(phi) - x|^2 / 2`` starts from the parameter
    ``phi`` of a nearby boundary point (the nearest vertex of a table) and
    takes its first step from that vertex's tabulated ``derivs`` = (r, r',
    r''), so it costs no evaluation; the iteration converges quadratically
    to the closest point in ``_NEWTON_STEPS`` more steps.  Each step is
    capped at a hundredth of a radian and skipped where the objective is not
    locally convex.  Returns the distances and the parameters of the
    closest points.
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
    return np.linalg.norm(domain.boundary(phi) - points, axis=-1), phi


_BALL_SAMPLES = 4096  # boundary samples q of the ball-radius search
_BALL_STRIDE = 8  # every 8th sample is a tangency point p; also the pair gap
_TABLE_BLOCK = 16  # tangency points per block of the quotient table


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


def _ball_table(domain: StarDomain2D):
    """The tangent-ball quotient table of :func:`ball_radii` and :func:`inradius`.

    Row i holds the tangency point p = sample ``_BALL_STRIDE * i`` against
    q = sample ``_BALL_STRIDE * i + lag`` for every lag more than
    ``_BALL_STRIDE`` samples from p on either side.  Returns the sample
    angles, (r, r', r'') there, the lags, and the table's denominators
    ``2 (p - q) . nu`` and quotients.
    """
    m, stride = _BALL_SAMPLES, _BALL_STRIDE
    phi = 2.0 * math.pi * np.arange(m) / m
    r, r1, r2 = domain.radial_derivatives(phi)
    lag = np.arange(stride + 1, m - stride)
    d_phi = 2.0 * math.pi * lag / m
    sin_d, sin_half = np.sin(d_phi), np.sin(0.5 * d_phi)
    rp, rp1 = r[::stride, None], r1[::stride, None]
    window = sliding_window_view(np.concatenate([r, r[:-1]]), m)[::stride]
    num, den = np.empty((2, rp.size, lag.size))
    for lo in range(0, rp.size, _TABLE_BLOCK):  # blocks that stay in cache
        b = slice(lo, lo + _TABLE_BLOCK)
        num[b], den[b] = _tangent_ball(rp[b], rp1[b], window[b][:, lag],
                                       sin_d, sin_half)
    with np.errstate(divide="ignore", invalid="ignore"):
        num /= den
    return phi, (r, r1, r2), lag, den, num


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
    golden section.  The pair term is the quotient table of
    :func:`_ball_table`, which leaves out pairs within 8 samples of each
    other (the local term covers those).  When the table undercuts the local
    term, a bottleneck binds: the minimizing pair has its chord normal to
    the curve at both ends, so the best pair of the table seeds
    ``_critical_pair``.
    """
    m, stride = _BALL_SAMPLES, _BALL_STRIDE
    phi, (r, r1, r2), lag, den, ratio = _ball_table(domain)
    kappa = _curvature(r, r1, r2)

    def quotient(tp: float, tq: float, side: float) -> float:
        rp, rp1, _ = domain.radial_derivatives(np.asarray(tp))
        rq = domain.radial(np.asarray(tq))
        d = tq - tp
        num, den = _tangent_ball(rp, rp1, rq, np.sin(d), np.sin(0.5 * d))
        den = side * float(den)
        return float(num) / den if den > 0.0 else math.inf

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


_CONTACT_ROUNDS = 2  # projections of the tangent-ball center per rho(p)
_CONTACT_BRANCHES = 8  # per rho(p), at most: a circle's samples all tie


def inradius(domain: StarDomain2D) -> float:
    """Inradius r_Omega: the radius of the largest inscribed disk.

    Let rho(p) be the radius of the largest interior ball tangent at the
    boundary point p, the smaller of 1/kappa(p) and the infimum over q of
    the tangent-ball quotient (see :func:`ball_radii`, which minimizes it).
    The largest inscribed disk is tangent wherever it touches, so r_Omega
    is the maximum of rho(p).

    The rows of the :func:`_ball_table` give rho at 512 tangency points;
    the best row is refined over p by golden section on an exact rho(p).
    Each evaluation takes the quotient of p against the 4096 tabulated
    samples (only sin(q - p) changes with p).  The sampled quotient is
    biased high, so for each local minimum that could hold the infimum,
    the center p - rho nu of the ball it gives is projected onto the curve
    and the quotient recomputed at that contact, which converges to the
    minimum of that branch quadratically.
    """
    m, stride = _BALL_SAMPLES, _BALL_STRIDE
    phi, (r, r1, r2), _, den, ratio = _ball_table(domain)
    ratio[den <= 0.0] = math.inf
    kappa = _curvature(r[::stride], r1[::stride], r2[::stride])
    with np.errstate(divide="ignore"):
        rows = np.minimum(np.min(ratio, axis=1),
                          np.where(kappa > 0.0, 1.0 / kappa, math.inf))
    # sin(q - p) and sin((q - p) / 2) by the difference formulas
    cos_q, sin_q = np.cos(phi), np.sin(phi)
    cos_h, sin_h = np.cos(0.5 * phi), np.sin(0.5 * phi)
    near = np.arange(-stride, stride + 1)

    def rho(t: float) -> float:
        rp, rp1, rp2 = domain.radial_derivatives(np.asarray(t))
        c, s = math.cos(t), math.sin(t)
        num, dot = _tangent_ball(
            rp, rp1, r, sin_q * c - cos_q * s,
            sin_h * math.cos(0.5 * t) - cos_h * math.sin(0.5 * t))
        # pairs within ``stride`` samples are left out, as in the table;
        # every local minimum of the sampled quotient is a contact branch,
        # and a branch can undercut the sampled best by about an eighth of
        # its second difference ``dip``, so keep those within a quarter
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = np.where(dot > 0.0, num / dot, math.inf)
            quot[(round(t * m / (2.0 * math.pi)) + near) % m] = math.inf
            left, right = np.roll(quot, 1), np.roll(quot, -1)
            dip = left + right - 2.0 * quot
        best = float(np.min(quot))
        low = quot - 0.25 * dip
        j = np.flatnonzero((quot < left) & (quot <= right) & np.isfinite(dip)
                           & (low <= best))
        j = j[np.argsort(low[j])][:_CONTACT_BRANCHES]
        speed = math.hypot(rp, rp1)
        p = np.array([rp * c, rp * s])
        nu = np.array([rp * c + rp1 * s, rp * s - rp1 * c]) / speed
        est, tq, derivs = quot[j], phi[j], (r[j], r1[j], r2[j])
        for _ in range(_CONTACT_ROUNDS):
            _, tq = _projected_distance(domain, p - est[:, None] * nu, tq,
                                        derivs)
            derivs = domain.radial_derivatives(tq)
            dq = tq - t
            num, dot = _tangent_ball(rp, rp1, derivs[0], np.sin(dq),
                                     np.sin(0.5 * dq))
            with np.errstate(divide="ignore", invalid="ignore"):
                est = np.minimum(est, np.where(dot > 0.0, num / dot, math.inf))
        best = min(best, float(np.min(est, initial=math.inf)))
        k = float(_curvature(rp, rp1, rp2))
        return min(best, 1.0 / k) if k > 0.0 else best

    i = int(np.argmax(rows))
    rows[i] = rho(phi[stride * i])  # the fallback must be exact, not sampled
    return -_refine_extremum(lambda t: -rho(t), phi[::stride], -rows, i)
