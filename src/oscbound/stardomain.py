"""Planar star-shaped domains with trigonometric-polynomial radial functions.

A domain is described by ``r(phi) = c0 + sum_k (a_k cos k phi + b_k sin k phi)``
around the origin.  Derivatives of r are closed-form, so boundary positions,
outward normals and curvature carry no discretization error; smooth analytic
shapes (the ellipse) are projected onto a finite Fourier basis, which is
machine-exact because their coefficients decay geometrically.

One kernel, :meth:`StarDomain2D.radial_derivatives`, sums the series for
(r, r', r'') by Horner's rule in O(angles) memory, and one curve map on top
of it, :meth:`StarDomain2D.curve`, gives every Cartesian (gamma, gamma',
gamma'') that a caller needs.  Each domain samples its boundary once, in
one table at 4096 uniform angles (:attr:`StarDomain2D.boundary_table`).

All geometric quantities of the estimates live here: area, perimeter,
diameter, the two radii measured from a marked point (rho_i, rho_e), the
uniform interior/exterior ball radii (r_i, r_e), the inradius and the
boundary distance.  Each starts from the boundary table,
and three searches carry every extremum: the tangent-ball quotient table
(the ball radii and the inradius), the seeded Newton projection onto the
curve (every nearest-point distance) and golden-section refinement of a
tabulated extremum.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError

Array = np.ndarray

__all__ = [
    "StarDomain2D",
    "area",
    "perimeter",
    "diameter",
    "rho_bounds",
    "ball_radii",
    "delta_gamma",
    "star_radius",
    "inradius",
    "rotated",
]

_TABLE_SAMPLES = 4096  # uniform angles of the boundary table
_COARSE_STRIDE = 4  # the coarse view keeps every 4th, 1024 angles
_HORNER_BLOCK = 8  # modes per Horner block; blocks are joined in z^8


def _horner(coef: Array, x: Array) -> Array:
    """``sum_m coef[:, m] x^m`` for each row of ``coef``, by Horner's rule."""
    acc = np.repeat(coef[:, -1], x.size, axis=1)
    for m in range(coef.shape[1] - 2, -1, -1):
        acc *= x
        acc += coef[:, m]
    return acc


# --------------------------------------------------------------------------
# the domain type
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StarDomain2D:
    """Star-shaped planar domain, radial graph over the origin.

    ``r(phi) = c0 + sum_k (cos_coeffs[k-1] cos(k phi) + sin_coeffs[k-1]
    sin(k phi))`` must stay positive; this is checked on the boundary table
    at construction.  The boundary is C-infinity by construction.  Every
    evaluation goes through one kernel, :meth:`radial_derivatives`, and the
    Cartesian boundary and its derivatives through :meth:`curve`.
    """

    c0: float
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()
    label: str = field(default="star", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))
        object.__setattr__(self, "c0", float(self.c0))
        rmin = float(np.min(self.boundary_table.r))
        if not rmin > 0.0:
            raise DomainError(
                f"radial function must be positive; min r = {rmin:.6g}"
            )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def ellipse(a: float, b: float, n_modes: int = 64) -> "StarDomain2D":
        """Ellipse with semi-axes a, b as a star domain.

        The radial function ``a b / sqrt(b^2 cos^2 + a^2 sin^2)`` is analytic,
        so its Fourier series converges geometrically; ``n_modes = 64`` already
        reaches machine precision for the aspect ratios used here.  It is
        even and pi-periodic, so the sine and odd cosine coefficients are
        exactly 0 (the FFT leaves rounding noise there), and the kernel skips
        the odd modes.
        """
        if a <= 0 or b <= 0:
            raise DomainError(f"semi-axes must be positive, got a={a}, b={b}")
        n = 4096
        phi = 2.0 * math.pi * np.arange(n) / n
        r = a * b / np.sqrt((b * np.cos(phi)) ** 2 + (a * np.sin(phi)) ** 2)
        spec = np.fft.rfft(r) / n
        k_max = min(n_modes, spec.size - 1)
        cos_c = 2.0 * spec[1:k_max + 1].real
        cos_c[::2] = 0.0  # k = 1, 3, 5, ...
        return StarDomain2D(
            c0=float(spec[0].real),
            cos_coeffs=tuple(cos_c),
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

    @cached_property
    def _series(self) -> Array:
        """Rows ``k^j c_k`` (j = 0, 1, 2) over the even k, then over the odd
        k if any c_k there is nonzero, with c_0 = c0 and c_k = a_k - i b_k,
        so that r = Re sum_k c_k e^{ik phi}."""
        _, a, b = self._coefficient_arrays()
        c = np.concatenate([[self.c0], a - 1j * b])
        c = np.append(c, [0.0] * (c.size % 2))  # as many odd k as even k
        k = np.arange(c.size)
        rows = np.stack([c, k * c, k * k * c])[:, :, None]
        even, odd = rows[:, ::2], rows[:, 1::2]
        return np.concatenate([even, odd]) if odd.any() else even

    def radial(self, phi: Array | float) -> Array:
        return self.radial_derivatives(phi)[0]

    def radial_derivatives(self, phi: Array | float) -> tuple[Array, Array, Array]:
        """(r, r', r'') at the given angles, all closed-form.

        r = Re S_0, r' = -Im S_1 and r'' = -Re S_2 for S_j = sum_k k^j c_k
        z^k, z = e^{i phi}.  Each S_j splits into its even and odd modes,
        E_j(z^2) + z O_j(z^2), and all six sums run together by Horner's
        rule in z^2 within blocks of 8 modes and in w = z^8 across blocks.
        z, z^2 and w come from exponentials of the exact arguments phi,
        2 phi and 8 phi: powers formed as products carry the rounding of z
        into the higher modes.  Memory is O(angles).
        """
        phi = np.asarray(phi, dtype=float)
        t = phi.reshape(-1)
        c = self._series
        half = _HORNER_BLOCK // 2  # powers of z^2 per block and parity
        blocks = [c[:, lo:lo + half] for lo in range(0, c.shape[1], half)]
        z2 = np.exp(2j * t)
        w = np.exp(1j * _HORNER_BLOCK * t) if len(blocks) > 1 else None
        total = _horner(blocks[-1], z2)
        for block in blocks[-2::-1]:
            total *= w
            total += _horner(block, z2)
        if len(total) == 6:  # S_j = E_j(z^2) + z O_j(z^2)
            total[3:] *= np.exp(1j * t)
            total[:3] += total[3:]
        s0, s1, s2 = total[:3]
        # r is copied out, so that it does not keep ``total`` alive
        return tuple(x.reshape(phi.shape)[()]
                     for x in (s0.real.copy(), -s1.imag, -s2.real))

    def curve(self, phi: Array | float) -> tuple[Array, Array, Array]:
        """The boundary gamma = r e^{i phi} and its derivatives gamma',
        gamma'' at the given angles, each with a trailing (x, y) axis."""
        phi = np.asarray(phi, dtype=float)
        t = phi.reshape(-1)  # numpy scalars multiply in another order
        return tuple(g.reshape(phi.shape + (2,))
                     for g in _curve_map(t, *self.radial_derivatives(t)))

    @cached_property
    def boundary_table(self) -> "BoundaryTable":
        """The boundary at 4096 uniform angles (:func:`_sample_boundary`)."""
        return _sample_boundary(self, _TABLE_SAMPLES)

    def boundary(self, phi: Array | float) -> Array:
        return self.curve(phi)[0]

    def contains(self, points: Array) -> Array:
        """Strict interior test by the radial graph (vectorized)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rho = np.hypot(pts[:, 0], pts[:, 1])
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        return rho < self.radial(phi)


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


def _curve_map(t: Array, r: Array, r1: Array,
               r2: Array) -> tuple[Array, Array, Array]:
    """(gamma, gamma', gamma'') at the angles t (1-D) from (r, r', r'') there:
    gamma = r e^{i phi}, gamma' = (r' + i r) e^{i phi} and gamma'' = (r'' - r
    + 2 i r') e^{i phi}, each with a trailing (x, y) axis."""
    z = np.exp(1j * t)
    return tuple(np.stack([g.real, g.imag], axis=-1)
                 for g in (r * z, (r1 + 1j * r) * z, (r2 - r + 2j * r1) * z))


# the first five fields are what a boundary integral reads
BoundaryTable = namedtuple("BoundaryTable", "phi gamma normal kappa weight "
                           "speed r r1 r2 tangent accel")


def _sample_boundary(domain: StarDomain2D, m: int) -> BoundaryTable:
    """The boundary at the m angles 2 pi j / m: (r, r', r'') from one kernel
    call, (gamma, gamma', gamma'') = (gamma, tangent, accel) from the curve
    map, the speed sqrt(r^2 + r'^2), the outward unit normal, the curvature
    (both from the polar form, exact on a circle) and the trapezoid weight
    speed 2 pi / m.  A domain's callers share its table, so it is read-only.
    """
    phi = 2.0 * math.pi * np.arange(m) / m
    r, r1, r2 = domain.radial_derivatives(phi)
    gamma, tangent, accel = _curve_map(phi, r, r1, r2)
    speed = np.sqrt(r * r + r1 * r1)
    # the positivity check reads r from here, so r = r' = 0 can occur
    with np.errstate(divide="ignore", invalid="ignore"):
        normal = np.stack([tangent[:, 1], -tangent[:, 0]],
                          axis=-1) / speed[:, None]
        kappa = _curvature(r, r1, r2)
    table = BoundaryTable(phi, gamma, normal, kappa,
                          speed * (2.0 * math.pi / m), speed, r, r1, r2,
                          tangent, accel)
    for x in table:
        x.flags.writeable = False
    return table


def _coarse(table: BoundaryTable) -> BoundaryTable:
    """Every 4th sample with the weights times 4: bit for bit the table of a
    quarter as many angles."""
    view = BoundaryTable(*(x[::_COARSE_STRIDE] for x in table))
    return view._replace(weight=view.weight * _COARSE_STRIDE)


# --------------------------------------------------------------------------
# bulk quantities
# --------------------------------------------------------------------------

def area(domain: StarDomain2D) -> float:
    """|Omega| = (1/2) int r^2 dphi, closed form by Parseval."""
    _, a, b = domain._coefficient_arrays()
    return math.pi * (domain.c0**2 + 0.5 * float(np.sum(a * a) + np.sum(b * b)))


def perimeter(domain: StarDomain2D) -> float:
    """|Gamma| = int sqrt(r^2 + r'^2) dphi by the periodic trapezoid rule on
    the boundary table.

    The integrand is smooth and periodic, so the rule converges geometrically.
    """
    table = domain.boundary_table
    return float(np.sum(table.speed)) * (2.0 * math.pi / table.phi.size)


_GOLDEN_CAP = 200  # golden-section steps, a guard: the stopping rules end sooner
# 4 pi eps: a bracket this narrow holds about three doubles near 2 pi
_ANGLE_RESOLUTION = 4.0 * math.pi * float(np.finfo(float).eps)


def _golden_min(fun, lo: float, hi: float) -> float:
    """Golden-section minimizer for a scalar unimodal function on [lo, hi].

    Stops once the bracket is no wider than ``_ANGLE_RESOLUTION``, or once
    it stops shrinking, where a new probe would land on the probe it keeps
    or outside the bracket.  Without the first rule, a bracket ending at 0
    would shrink through the denormals.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(_GOLDEN_CAP):
        if hi - lo <= _ANGLE_RESOLUTION:
            break
        if f1 <= f2:
            probe = x2 - inv_phi * (x2 - lo)
            if not lo < probe < x1:
                break
            hi, x2, f2 = x2, x1, f1
            x1, f1 = probe, fun(probe)
        else:
            probe = x1 + inv_phi * (hi - x1)
            if not x2 < probe < hi:
                break
            lo, x1, f1 = x1, x2, f2
            x2, f2 = probe, fun(probe)
    return x1 if f1 <= f2 else x2


def _refine_extremum(fun, grid: Array, values: Array, j: int) -> float:
    """Golden-section refinement of a discrete minimum on a periodic grid."""
    step = grid[1] - grid[0] if grid.size > 1 else 2.0 * math.pi
    lo, hi = grid[j] - step, grid[j] + step
    t = _golden_min(lambda x: float(fun(x)), lo, hi)
    return min(float(fun(t)), float(values[j]))


def diameter(domain: StarDomain2D) -> float:
    """Largest boundary-to-boundary distance, coarse table plus refinement.

    The farthest pair of the coarse table seeds ``_critical_pair``, since
    the farthest pair of the curve is a critical pair of the distance.
    """
    table = _coarse(domain.boundary_table)
    phi, pts = table.phi, table.gamma
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    i, j = np.unravel_index(int(np.argmax(d2)), d2.shape)
    t1, t2 = _critical_pair(domain, float(phi[i]), float(phi[j]))
    g1, g2 = domain.boundary(np.array([t1, t2]))
    return max(float(np.linalg.norm(g1 - g2)), math.sqrt(float(d2[i, j])))


# --------------------------------------------------------------------------
# radii and distances
# --------------------------------------------------------------------------

def rho_bounds(domain: StarDomain2D, z) -> tuple[float, float]:
    """(min, max) of |gamma(phi) - z| over the boundary.

    The min is the boundary distance :func:`delta_gamma`; the max refines
    the farthest sample of the boundary table by golden section.
    """
    z = np.asarray(z, dtype=float)
    if not bool(domain.contains(z[None, :])[0]):
        raise DomainError(f"marked point {z.tolist()} is not inside the domain")
    table = domain.boundary_table
    d = np.linalg.norm(table.gamma - z, axis=-1)

    def dist(t: float) -> float:
        return float(np.linalg.norm(domain.boundary(np.asarray(t)) - z))

    rho_e = -_refine_extremum(lambda t: -dist(t), table.phi, -d,
                              int(np.argmax(d)))
    return delta_gamma(domain, z), rho_e


def delta_gamma(domain: StarDomain2D, x) -> float:
    """Distance of x to the boundary, projected from the nearest sample of
    the boundary table."""
    x = np.asarray(x, dtype=float)
    table = domain.boundary_table
    d = np.linalg.norm(table.gamma - x, axis=-1)
    j = int(np.argmin(d))
    seed = (table.gamma[j:j + 1], table.tangent[j:j + 1], table.accel[j:j + 1])
    projected, _ = _projected_distance(domain, x[None, :], table.phi[j:j + 1],
                                       seed)
    # the sample stays an upper bound if a projection misses
    return min(float(projected[0]), float(d[j]))


_NEWTON_STEPS = 2  # evaluated steps after the tabulated first step


def _projected_distance(domain: StarDomain2D, points: Array, phi: Array,
                        seed: tuple[Array, Array, Array]
                        ) -> tuple[Array, Array]:
    """Distance of each point to the boundary by seeded Newton projection.

    Newton's method on ``|gamma(phi) - x|^2 / 2`` starts from the parameter
    ``phi`` of a nearby boundary point (the nearest vertex of a table) and
    takes its first step from that vertex's tabulated ``seed`` = (gamma,
    gamma', gamma''), so it costs no evaluation; the iteration converges
    quadratically to the closest point in ``_NEWTON_STEPS`` more steps.
    Each step is capped at a hundredth of a radian and skipped where the
    objective is not locally convex.  Returns the distances and the
    parameters of the closest points.
    """
    for k in range(_NEWTON_STEPS + 1):
        gamma, tangent, accel = seed if k == 0 else domain.curve(phi)
        gap = gamma - points
        slope = np.einsum("ij,ij->i", tangent, gap)
        bend = (np.einsum("ij,ij->i", tangent, tangent)
                + np.einsum("ij,ij->i", accel, gap))
        step = np.where(bend > 0.0, -slope / np.where(bend > 0.0, bend, 1.0),
                        0.0)
        phi = phi + np.clip(step, -1e-2, 1e-2)
    return np.linalg.norm(domain.boundary(phi) - points, axis=-1), phi


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
        gamma, tangent, accel = domain.curve(np.array([t1, t2]))
        chord = gamma[0] - gamma[1]
        grad = np.array([chord @ tangent[0], -(chord @ tangent[1])])
        cross = -(tangent[0] @ tangent[1])
        hess = np.array([[tangent[0] @ tangent[0] + chord @ accel[0], cross],
                         [cross, tangent[1] @ tangent[1] - chord @ accel[1]]])
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            break
        step = np.clip(step, -1e-2, 1e-2)
        t1, t2 = t1 + float(step[0]), t2 + float(step[1])
    return t1, t2


def _ball_table(domain: StarDomain2D):
    """The tangent-ball quotient table of :func:`ball_radii` and :func:`inradius`.

    Row i holds the tangency point p = boundary-table sample
    ``_BALL_STRIDE * i`` against q = sample ``_BALL_STRIDE * i + lag`` for
    every lag more than ``_BALL_STRIDE`` samples from p on either side.
    Returns the sample angles, (r, r', r'') there, the lags, and the
    table's denominators ``2 (p - q) . nu`` and quotients.  One table can
    serve both searches, so its arrays are read-only.
    """
    table = domain.boundary_table
    phi, r, r1, r2 = table.phi, table.r, table.r1, table.r2
    m, stride = phi.size, _BALL_STRIDE
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
    for x in (lag, den, num):
        x.flags.writeable = False
    return phi, (r, r1, r2), lag, den, num


def ball_radii(domain: StarDomain2D, *, table=None,
               diam: float | None = None) -> tuple[float, float]:
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

    The local term refines max kappa and max(-kappa) over the boundary
    table by golden section.  The pair term is the quotient table of
    :func:`_ball_table`, which leaves out pairs within 8 samples of each
    other (the local term covers those).  When the table undercuts the local
    term, a bottleneck binds: the minimizing pair has its chord normal to
    the curve at both ends, so the best pair of the table seeds
    ``_critical_pair``.

    One table serves this and :func:`inradius`: a caller that needs both
    builds it once with ``_ball_table(domain)`` and passes it as ``table``,
    and passes the domain's :func:`diameter` as ``diam`` if it holds it.
    Both are computed here when left out; the radii are the same either way.
    """
    if table is None:
        table = _ball_table(domain)
    phi, _, lag, den, ratio = table
    m, stride = phi.size, _BALL_STRIDE
    kappa = domain.boundary_table.kappa

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
        pairs = np.where(side * den > 0.0, side * ratio, math.inf)
        ip, k = np.unravel_index(int(np.argmin(pairs)), pairs.shape)
        if pairs[ip, k] < best:
            tp, tq = _critical_pair(domain, phi[stride * ip],
                                    phi[(stride * ip + lag[k]) % m])
            best = min(float(pairs[ip, k]), quotient(tp, tq, side))
        out.append(best)
    return out[0], min(out[1], diameter(domain) if diam is None else diam)


def star_radius(domain: StarDomain2D) -> float:
    """Largest rho such that the domain is star-shaped w.r.t. B_rho(0).

    Equals the minimum over the boundary of the pedal distance
    gamma . nu = r^2 / sqrt(r^2 + r'^2) (distance from the origin to the
    tangent line).
    """
    def pedal(r: Array, r1: Array) -> Array:
        return r * r / np.sqrt(r * r + r1 * r1)

    table = domain.boundary_table
    vals = pedal(table.r, table.r1)
    return _refine_extremum(
        lambda t: float(pedal(*domain.radial_derivatives(np.asarray(t))[:2])),
        table.phi, vals, int(np.argmin(vals)))


_CONTACT_ROUNDS = 2  # projections of the tangent-ball center per rho(p)
_CONTACT_BRANCHES = 8  # per rho(p), at most: a circle's samples all tie


def inradius(domain: StarDomain2D, *, table=None) -> float:
    """Inradius r_Omega: the radius of the largest inscribed disk.

    Let rho(p) be the radius of the largest interior ball tangent at the
    boundary point p, the smaller of 1/kappa(p) and the infimum over q of
    the tangent-ball quotient (see :func:`ball_radii`, which minimizes it).
    The largest inscribed disk is tangent wherever it touches, so r_Omega
    is the maximum of rho(p).

    The rows of the :func:`_ball_table` give rho at 512 tangency points;
    the best row is refined over p by golden section on an exact rho(p).
    Each evaluation takes the quotient of p against the boundary-table
    samples (only sin(q - p) changes with p).  The sampled quotient is
    biased high, so for each local minimum that could hold the infimum,
    the center p - rho nu of the ball it gives is projected onto the curve
    and the quotient recomputed at that contact, which converges to the
    minimum of that branch quadratically.

    ``table`` is the domain's ``_ball_table``, built here when left out;
    one table serves this and :func:`ball_radii`, and neither writes to it.
    """
    if table is None:
        table = _ball_table(domain)
    phi, (r, _, _), _, den, ratio = table
    m, stride = phi.size, _BALL_STRIDE
    kappa = domain.boundary_table.kappa[::stride]
    with np.errstate(divide="ignore"):
        rows = np.minimum(np.min(ratio, axis=1, initial=math.inf,
                                 where=den > 0.0),
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
        p, (tx, ty), _ = domain.curve(t)
        nu = np.array([ty, -tx]) / math.hypot(rp, rp1)
        est, tq = quot[j], phi[j]
        for _ in range(_CONTACT_ROUNDS):
            _, tq = _projected_distance(domain, p - est[:, None] * nu, tq,
                                        domain.curve(tq))
            dq = tq - t
            num, dot = _tangent_ball(rp, rp1, domain.radial(tq), np.sin(dq),
                                     np.sin(0.5 * dq))
            with np.errstate(divide="ignore", invalid="ignore"):
                est = np.minimum(est, np.where(dot > 0.0, num / dot, math.inf))
        best = min(best, float(np.min(est, initial=math.inf)))
        k = float(_curvature(rp, rp1, rp2))
        return min(best, 1.0 / k) if k > 0.0 else best

    i = int(np.argmax(rows))
    rows[i] = rho(phi[stride * i])  # the fallback must be exact, not sampled
    return -_refine_extremum(lambda t: -rho(t), phi[::stride], -rows, i)
