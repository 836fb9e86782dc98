"""Planar star-shaped domains with trigonometric-polynomial radial functions.

A domain is described by ``r(phi) = c0 + sum_k (a_k cos k phi + b_k sin k phi)``
around the origin.  Derivatives of r are closed-form, so boundary positions,
outward normals and curvature carry no discretization error; smooth analytic
shapes (the ellipse) are projected onto a finite Fourier basis, which is
machine-exact because their coefficients decay geometrically.

One kernel, :meth:`StarDomain2D.radial_derivatives`, sums the series for
(r, r', r'') by Horner's rule in O(angles) memory, and one curve map on top
of it, :meth:`StarDomain2D.curve`, gives every Cartesian (gamma, gamma',
gamma'') that a caller needs.

All geometric quantities of the estimates live here: area, perimeter,
diameter, the two radii measured from a marked point (rho_i, rho_e), the
uniform interior/exterior ball radii (r_i, r_e), the inradius and the
boundary distance.  The domain object keeps, read-only and computed on
first use, what several of them share: the boundary table at 4096 uniform
angles and its every-4th-angle view (:attr:`StarDomain2D.boundary_table`,
:attr:`StarDomain2D.coarse_table`), and by :func:`_kept` the tangent-ball
quotient table, the Delaunay graph of the coarse table, the diameter, the
ball radii, the star radius and the inradius.  Four
searches carry every extremum: the tangent-ball quotient table, reduced to
row minima as it is built (the ball radii and the inradius), the seeded
Newton projection onto the curve, the Newton step on a critical pair of
boundary points (:func:`_critical_pair`: the diameter and the bottleneck of
the ball radii) and one bracket search that refines a tabulated extremum,
evaluating each round's probes in one vectorized call.
Every nearest-point distance is one :func:`boundary_distance` step: the
projection from a coarse-table vertex that the caller picks, capped at
that vertex's distance.  :func:`nearest_vertex` picks it for many points at
once by a walk on the Delaunay graph.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, wraps

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial import Delaunay
from scipy.spatial.distance import cdist

from .errors import DomainError

Array = np.ndarray

__all__ = [
    "StarDomain2D",
    "area",
    "perimeter",
    "diameter",
    "rho_bounds",
    "ball_radii",
    "boundary_distance",
    "nearest_vertex",
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
        so its Fourier series converges geometrically.  The default
        ``n_modes = 64`` reaches machine precision (within 4.4e-16 at
        a = 1.2, b = 1/1.2); the 32 modes of the family ellipses
        (``stability.build_family_domain``) do not at every aspect ratio:
        they are within 7.4e-14 at eps = 0.2 (a = 1.2) and 4.4e-16 at
        eps = 0.02.  The function is even and pi-periodic, so the sine and
        odd cosine coefficients are exactly 0 (the FFT leaves rounding noise
        there), and the kernel skips the odd modes.
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

    def coefficient_arrays(self) -> tuple[Array, Array, Array]:
        """(k, a_k, b_k) for k = 1 .. K, the longer coefficient list's
        length, the missing coefficients as 0."""
        K = max(len(self.cos_coeffs), len(self.sin_coeffs))
        a = np.zeros(K)
        b = np.zeros(K)
        a[: len(self.cos_coeffs)] = self.cos_coeffs
        b[: len(self.sin_coeffs)] = self.sin_coeffs
        return np.arange(1, K + 1, dtype=float), a, b

    @cached_property
    def _series(self) -> Array:
        """Rows ``k^j c_k`` (j = 0, 1, 2) over the even k, each followed by
        its row over the odd k if any c_k there is nonzero, with c_0 = c0
        and c_k = a_k - i b_k, so that r = Re sum_k c_k e^{ik phi}."""
        _, a, b = self.coefficient_arrays()
        c = np.concatenate([[self.c0], a - 1j * b])
        c = np.append(c, [0.0] * (c.size % 2))  # as many odd k as even k
        k = np.arange(c.size)
        rows = np.stack([c, k * c, k * k * c])[:, :, None]
        even, odd = rows[:, ::2], rows[:, 1::2]
        if not odd.any():
            return even
        return np.stack([even, odd], axis=1).reshape(6, -1, 1)

    def radial(self, phi: Array | float) -> Array:
        return self.radial_derivatives(phi, 0)[0]

    def radial_derivatives(self, phi: Array | float,
                           order: int = 2) -> tuple[Array, ...]:
        """(r, r', r'') at the given angles, all closed-form; the first
        ``order + 1`` of them.

        r = Re S_0, r' = -Im S_1 and r'' = -Re S_2 for S_j = sum_k k^j c_k
        z^k, z = e^{i phi}.  Each S_j splits into its even and odd modes,
        E_j(z^2) + z O_j(z^2), and the sums up to S_order run together by
        Horner's rule in z^2 within blocks of 8 modes and in w = z^8 across
        blocks.  The rows never mix, so at two or more angles a lower
        ``order`` gives the same bits for what it returns; at a single
        angle numpy takes another inner loop for the (rows, 1) arrays, and
        a value may differ by one ulp.  z, z^2 and w come from exponentials
        of the exact arguments phi, 2 phi and 8 phi: powers formed as
        products carry the rounding of z into the higher modes.  Memory is
        O(angles).
        """
        phi = np.asarray(phi, dtype=float)
        t = phi.reshape(-1)
        parts = self._series.shape[0] // 3  # 2 when the odd modes are kept
        c = self._series[:parts * (order + 1)]
        half = _HORNER_BLOCK // 2  # powers of z^2 per block and parity
        blocks = [c[:, lo:lo + half] for lo in range(0, c.shape[1], half)]
        z2 = np.exp(2j * t)
        w = np.exp(1j * _HORNER_BLOCK * t) if len(blocks) > 1 else None
        total = _horner(blocks[-1], z2)
        for block in blocks[-2::-1]:
            total *= w
            total += _horner(block, z2)
        if parts == 2:  # S_j = E_j(z^2) + z O_j(z^2)
            odd = total[1::2]
            odd *= np.exp(1j * t)
            total = total[::2] + odd
        # r is copied out, so that it does not keep ``total`` alive
        take = (lambda s: s.real.copy(), lambda s: -s.imag, lambda s: -s.real)
        return tuple(f(s).reshape(phi.shape)[()] for f, s in zip(take, total))

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

    @cached_property
    def coarse_table(self) -> "BoundaryTable":
        """Every 4th sample of :attr:`boundary_table` with the weights times
        4: bit for bit the table of 1024 angles, and read-only like it."""
        view = BoundaryTable(*(x[::_COARSE_STRIDE] for x in self.boundary_table))
        weight = view.weight * _COARSE_STRIDE
        weight.flags.writeable = False
        return view._replace(weight=weight)

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
    k, a, b = domain.coefficient_arrays()
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
    return tuple(_xy(g) for g in (r * z, (r1 + 1j * r) * z,
                                  (r2 - r + 2j * r1) * z))


def _xy(g: Array) -> Array:
    """Complex points as a trailing (x, y) axis."""
    return np.stack([g.real, g.imag], axis=-1)


# the first five fields are what a boundary integral reads
BoundaryTable = namedtuple("BoundaryTable", "phi gamma normal kappa weight "
                           "speed r r1 tangent accel")


def _sample_boundary(domain: StarDomain2D, m: int) -> BoundaryTable:
    """The boundary at the m angles 2 pi j / m: (r, r', r'') from one kernel
    call (the table keeps r and r'), (gamma, gamma', gamma'') = (gamma,
    tangent, accel) from the curve map, the speed sqrt(r^2 + r'^2), the
    outward unit normal, the curvature (both from the polar form, exact on a
    circle) and the trapezoid weight speed 2 pi / m.  A domain's callers
    share its table, so it is read-only.
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
                          speed * (2.0 * math.pi / m), speed, r, r1, tangent,
                          accel)
    for x in table:
        x.flags.writeable = False
    return table


def _kept(fun):
    """``fun(domain)``, computed once per domain object and kept on it, as
    a cached property keeps its value; an equal object computes its own."""
    @wraps(fun)
    def kept(domain: StarDomain2D):
        values = vars(domain).setdefault("_kept", {})
        if fun.__name__ not in values:
            values[fun.__name__] = fun(domain)
        return values[fun.__name__]
    return kept


# --------------------------------------------------------------------------
# bulk quantities
# --------------------------------------------------------------------------

def area(domain: StarDomain2D) -> float:
    """|Omega| = (1/2) int r^2 dphi, closed form by Parseval."""
    _, a, b = domain.coefficient_arrays()
    return math.pi * (domain.c0**2 + 0.5 * float(np.sum(a * a) + np.sum(b * b)))


def perimeter(domain: StarDomain2D) -> float:
    """|Gamma| = int sqrt(r^2 + r'^2) dphi by the periodic trapezoid rule on
    the boundary table.

    The integrand is smooth and periodic, so the rule converges geometrically.
    """
    table = domain.boundary_table
    return float(np.sum(table.speed)) * (2.0 * math.pi / table.phi.size)


_PROBES = 7  # equally spaced points per round of the bracket search
# 4 pi eps: a bracket this narrow holds about three doubles near 2 pi
_ANGLE_RESOLUTION = 4.0 * math.pi * float(np.finfo(float).eps)
# the bracket ends and its probes, from -1 to 1 in steps 2 / (_PROBES + 1)
_OFFSETS = np.linspace(-1.0, 1.0, _PROBES + 2)


def _bracket_min(fun, t: float, f: float,
                 width: float) -> tuple[float, float]:
    """(argmin, min) of a unimodal function on [t - width, t + width], whose
    value at the middle t is f.

    Each round places ``_PROBES`` equally spaced points inside the bracket.
    The middle one is the best point so far, and ``fun`` (an array of
    angles in, an array of values out) takes the others in one call.  The
    best point and its two neighbours are the next bracket, ``(_PROBES +
    1) / 2`` times narrower.  Stops once the bracket is no wider than
    ``_ANGLE_RESOLUTION``, or once it stops shrinking, where the points no
    longer increase strictly.  Without the first rule, a bracket ending at
    0 would shrink through the denormals.
    """
    mid = _PROBES // 2
    while 2.0 * width > _ANGLE_RESOLUTION:
        x = t + width * _OFFSETS
        if not np.all(x[1:] > x[:-1]):
            break
        inner = x[1:-1]
        values = np.insert(fun(np.delete(inner, mid)), mid, f)
        k = int(np.argmin(values))
        t, f = float(inner[k]), float(values[k])
        width /= (_PROBES + 1) / 2
    return t, f


def _refine_extremum(fun, grid: Array, values: Array, j: int) -> float:
    """The minimum of ``fun`` (vectorized) near the tabulated minimum
    ``values[j]`` of a periodic grid: the bracket search over the grid
    steps on either side of ``grid[j]``."""
    step = grid[1] - grid[0] if grid.size > 1 else 2.0 * math.pi
    return _bracket_min(fun, float(grid[j]), float(values[j]), float(step))[1]


def _farthest_pair(points: Array) -> tuple[int, int, float]:
    """Indices and squared distance of the farthest pair of points (n, 2),
    from scipy's (n, n) table of squared distances."""
    d2 = cdist(points, points, "sqeuclidean")
    i, j = np.unravel_index(int(np.argmax(d2)), d2.shape)
    return int(i), int(j), float(d2[i, j])


@_kept
def diameter(domain: StarDomain2D) -> float:
    """Largest boundary-to-boundary distance, coarse table plus refinement.

    The farthest pair of the coarse table seeds ``_critical_pair``, since
    the farthest pair of the curve is a critical pair of the distance.
    """
    table = domain.coarse_table
    i, j, d2 = _farthest_pair(table.gamma)
    t1, t2 = _critical_pair(domain, float(table.phi[i]), float(table.phi[j]))
    g1, g2 = domain.boundary(np.array([t1, t2]))
    return max(float(np.linalg.norm(g1 - g2)), math.sqrt(d2))


# --------------------------------------------------------------------------
# radii and distances
# --------------------------------------------------------------------------

def rho_bounds(domain: StarDomain2D, z) -> tuple[float, float]:
    """(min, max) of |gamma(phi) - z| over the boundary.

    The min is the :func:`boundary_distance` of z from the nearest vertex
    of the coarse table; the max refines the farthest sample of the
    boundary table by the bracket search.
    """
    z = np.asarray(z, dtype=float)
    if not bool(domain.contains(z[None, :])[0]):
        raise DomainError(f"marked point {z.tolist()} is not inside the domain")
    table = domain.boundary_table
    d = np.linalg.norm(table.gamma - z, axis=-1)

    def dist(t: Array) -> Array:
        return np.linalg.norm(domain.boundary(t) - z, axis=-1)

    rho_e = -_refine_extremum(lambda t: -dist(t), table.phi, -d,
                              int(np.argmax(d)))
    # the coarse table is every _COARSE_STRIDE-th sample of this one
    nearest = np.argmin(d[::_COARSE_STRIDE], keepdims=True)
    return float(boundary_distance(domain, z[None, :], nearest)[0]), rho_e


def boundary_distance(domain: StarDomain2D, points: Array,
                      nearest: Array) -> Array:
    """Distance of each point (n, 2) to the boundary, projected from vertex
    ``nearest`` (n indices) of the coarse table, the vertex nearest to it:
    an argmin over the table for a few points, :func:`nearest_vertex` for
    many (the grid's delta).

    Newton's method starts from that vertex (:func:`_projected_distance`);
    the vertex's own distance caps the result, so it stays an upper bound
    if a projection misses.
    """
    table = domain.coarse_table
    seed = tuple(g[nearest] for g in (table.gamma, table.tangent, table.accel))
    projected = _projected_distance(domain, points, table.phi[nearest], seed)[0]
    return np.minimum(np.linalg.norm(seed[0] - points, axis=-1), projected)


_DELAUNAY_ROW = 8  # entries per row of the Delaunay table, at most


@_kept
def _delaunay_table(domain: StarDomain2D) -> tuple[Array, Array, Array, Array]:
    """The Delaunay graph of the coarse table's vertices, in rows of equal
    width.

    Vertex v and its Delaunay neighbours, in descending order and padded
    with v, fill rows ``first[v]`` to ``first[v + 1] - 1`` of the table, so
    that the first least entry of a vertex's rows is the one with the
    largest index.  A row is one more than the greatest degree wide, but at
    most ``_DELAUNAY_ROW``: cocircular vertices, as on a disk, may fan out
    from one vertex to all the others.  Returns ``first``, the table and
    the x and y of each entry's vertex, all read-only, as the domain keeps
    them.
    """
    gamma = domain.coarse_table.gamma
    indptr, indices = Delaunay(gamma).vertex_neighbor_vertices
    size = np.diff(indptr) + 1
    width = min(int(size.max()), _DELAUNAY_ROW)
    rows = -(-size // width)
    first = np.concatenate([[0], np.cumsum(rows)])
    own = np.arange(size.size)
    table = np.repeat(np.repeat(own, rows)[:, None], width, axis=1)
    entries = np.insert(indices, indptr[:-1], own)
    order = np.lexsort((-entries, np.repeat(own, size)))
    slot = np.arange(entries.size) - np.repeat(indptr[:-1] + own, size)
    table.flat[np.repeat(first[:-1] * width, size) + slot] = entries[order]
    kept = (first, table, gamma[table, 0], gamma[table, 1])
    for x in kept:
        x.flags.writeable = False
    return kept


def nearest_vertex(domain: StarDomain2D, points: Array,
                   start: Array) -> Array:
    """Index of the coarse-table vertex nearest to each point (n, 2), by a
    greedy walk on the Delaunay graph from the vertices ``start`` (n).

    Each round moves every point that is still walking to the vertex with
    the least ``dx * dx + dy * dy`` among its vertex and that vertex's
    Delaunay neighbours, the largest index on an exact tie; a point stops
    where it stays.  A vertex that no Delaunay neighbour is closer than is
    a nearest vertex (its Voronoi cell holds the point), and each move
    strictly lowers (squared distance, -index), so the walk is exact and
    ends (Mücke, Saias and Zhu 1999).  Qhull's triangulation is Delaunay
    to rounding only: where many vertices are equidistant from a point to
    rounding, as from the centre of a disk, the walk may end at one whose
    squared distance exceeds the least by rounding.  A start near the
    answer, such as the nearest vertex of a point close by, keeps the walk
    to a few rounds.
    """
    first, table, x, y = _delaunay_table(domain)
    nearest = np.array(start, dtype=np.intp)
    walking = np.arange(nearest.size)
    while walking.size:
        vertex = nearest[walking]
        # the rows of each walking point's vertex, and the point of each row
        count = first[vertex + 1] - first[vertex]
        at = np.cumsum(count) - count
        row = np.repeat(first[vertex] - at, count)
        row += np.arange(row.size)
        point = np.repeat(walking, count)
        dx = x[row]
        dx -= points[point, 0, None]
        dx *= dx
        dy = y[row]
        dy -= points[point, 1, None]
        dy *= dy
        dx += dy
        col = np.argmin(dx, axis=1)
        d2, best = dx[np.arange(row.size), col], table[row, col]
        least = np.repeat(np.minimum.reduceat(d2, at), count)
        best = np.maximum.reduceat(np.where(d2 == least, best, -1), at)
        nearest[walking] = best
        walking = walking[best != vertex]
    return nearest


_NEWTON_STEPS = 2  # evaluated steps after the tabulated first step


def _projected_distance(domain: StarDomain2D, points: Array, phi: Array,
                        seed: tuple[Array, Array, Array]
                        ) -> tuple[Array, Array, Array]:
    """Distance of each point to the boundary by seeded Newton projection.

    Newton's method on ``|gamma(phi) - x|^2 / 2`` starts from the parameter
    ``phi`` of a nearby boundary point (the nearest vertex of a table) and
    takes its first step from that vertex's tabulated ``seed`` = (gamma,
    gamma', gamma''), so it costs no evaluation; the iteration converges
    quadratically to the closest point in ``_NEWTON_STEPS`` more steps.
    Each step is capped at a hundredth of a radian and skipped where the
    objective is not locally convex.  The closing evaluation needs only
    gamma, so it sums r alone.  Returns the distances, the parameters of
    the closest points and r there.
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
    r = domain.radial(phi)
    gamma = _xy(r * np.exp(1j * phi))
    return np.linalg.norm(gamma - points, axis=-1), phi, r


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
    Both are summed in place on arrays of the table's shape, in the order
    of ``(r - rq)^2 + chord`` and ``2 (r (r - rq) + chord / 2 + r1 rq
    sin_d) / sqrt(r^2 + r1^2)``.
    """
    dr = r - rq
    chord = 4.0 * r * rq
    chord *= sin_half
    chord *= sin_half
    dot = r * dr
    dot += 0.5 * chord
    term = r1 * rq
    term *= sin_d
    dot += term
    dot *= 2.0
    dot /= np.sqrt(r * r + r1 * r1)
    dr *= dr
    dr += chord
    return dr, dot


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


@_kept
def _ball_table(domain: StarDomain2D) -> tuple[Array, Array]:
    """The tangent-ball quotient table of :func:`ball_radii` and
    :func:`inradius`, reduced to its row minima.

    Row i takes the tangency point p = boundary-table sample
    ``_BALL_STRIDE * i`` against q = sample ``_BALL_STRIDE * i + lag`` for
    every lag more than ``_BALL_STRIDE`` samples from p on either side.
    Each block of ``_TABLE_BLOCK`` rows is reduced while it is in cache:
    ``least[0, i]`` is the least quotient over the q with ``2 (p - q) . nu
    > 0`` (inner balls) and ``least[1, i]`` the least negated quotient over
    the q with ``2 (p - q) . nu < 0`` (outer balls), inf where there is no
    such q; ``lags`` holds the lag of each, the first where the minimum
    ties.  Returns ``(least, lags)``, both (2, rows).  The domain keeps
    the table for both searches, so its arrays are read-only.
    """
    table = domain.boundary_table
    r, r1 = table.r, table.r1
    m, stride = r.size, _BALL_STRIDE
    lag = np.arange(stride + 1, m - stride)
    d_phi = 2.0 * math.pi * lag / m
    sin_d, sin_half = np.sin(d_phi), np.sin(0.5 * d_phi)
    rp, rp1 = r[::stride, None], r1[::stride, None]
    window = sliding_window_view(np.concatenate([r, r[:-1]]), m)[::stride]
    least = np.empty((2, rp.size))
    lags = np.empty((2, rp.size), dtype=lag.dtype)
    for lo in range(0, rp.size, _TABLE_BLOCK):  # blocks that stay in cache
        b = slice(lo, lo + _TABLE_BLOCK)
        num, den = _tangent_ball(rp[b], rp1[b], window[b, lag[0]:lag[-1] + 1],
                                 sin_d, sin_half)
        with np.errstate(divide="ignore", invalid="ignore"):
            num /= den
        for side, quotient in enumerate((np.where(den > 0.0, num, math.inf),
                                         np.where(den < 0.0, -num, math.inf))):
            k = np.argmin(quotient, axis=1)
            least[side, b] = np.take_along_axis(quotient, k[:, None], 1)[:, 0]
            lags[side, b] = lag[k]
    for x in (least, lags):
        x.flags.writeable = False
    return least, lags


@_kept
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

    The local term refines max kappa and max(-kappa) over the boundary
    table by the bracket search.  The pair term is the least row minimum of
    :func:`_ball_table`, which leaves out pairs within 8 samples of each
    other (the local term covers those).  When the table undercuts the local
    term, a bottleneck binds: the minimizing pair has its chord normal to
    the curve at both ends, so the best pair of the table seeds
    ``_critical_pair``.
    """
    least, lags = _ball_table(domain)
    samples = domain.boundary_table
    phi, kappa = samples.phi, samples.kappa
    m, stride = phi.size, _BALL_STRIDE

    def quotient(tp: float, tq: float, side: float) -> float:
        r, r1 = domain.radial_derivatives(np.array([tp, tq]), 1)
        d = tq - tp
        num, den = _tangent_ball(r[0], r1[0], r[1], np.sin(d), np.sin(0.5 * d))
        den = side * float(den)
        return float(num) / den if den > 0.0 else math.inf

    out = []
    for row, side in enumerate((1.0, -1.0)):  # interior, then exterior
        j = int(np.argmax(side * kappa))
        k_max = -_refine_extremum(
            lambda t: -side * _curvature(*domain.radial_derivatives(t)),
            phi, -side * kappa, j)
        best = 1.0 / k_max if k_max > 0.0 else math.inf
        ip = int(np.argmin(least[row]))
        if least[row, ip] < best:
            tp, tq = _critical_pair(domain, phi[stride * ip],
                                    phi[(stride * ip + lags[row, ip]) % m])
            best = min(float(least[row, ip]), quotient(tp, tq, side))
        out.append(best)
    return out[0], min(out[1], diameter(domain))


@_kept
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
        lambda t: pedal(*domain.radial_derivatives(t, 1)),
        table.phi, vals, int(np.argmin(vals)))


_CONTACT_ROUNDS = 2  # projections of the tangent-ball center per rho(p)
_CONTACT_BRANCHES = 8  # per rho(p), at most: a circle's samples all tie


@_kept
def inradius(domain: StarDomain2D) -> float:
    """Inradius r_Omega: the radius of the largest inscribed disk.

    Let rho(p) be the radius of the largest interior ball tangent at the
    boundary point p, the smaller of 1/kappa(p) and the infimum over q of
    the tangent-ball quotient (see :func:`ball_radii`, which minimizes it).
    The largest inscribed disk is tangent wherever it touches, so r_Omega
    is the maximum of rho(p).

    The inner row minima of the :func:`_ball_table` give rho at 512
    tangency points; the best row is refined over p by the bracket search
    on an exact rho(p), evaluated for every probe of a round at once.  Each
    evaluation takes the quotient of p against the boundary-table samples
    (only sin(q - p) changes with p).  The sampled quotient is biased high,
    so for each local minimum that could hold the infimum, the center
    p - rho nu of the ball it gives is projected onto the curve, seeded
    from the table, and the quotient recomputed at that contact, which
    converges to the minimum of that branch quadratically.  The contacts of
    every branch of every probe are projected together.
    """
    least, _ = _ball_table(domain)
    samples = domain.boundary_table
    phi, r = samples.phi, samples.r
    m, stride = phi.size, _BALL_STRIDE
    kappa = samples.kappa[::stride]
    with np.errstate(divide="ignore"):
        rows = np.minimum(least[0],
                          np.where(kappa > 0.0, 1.0 / kappa, math.inf))
    # sin(q - p) and sin((q - p) / 2) by the difference formulas
    cos_q, sin_q = np.cos(phi), np.sin(phi)
    cos_h, sin_h = np.cos(0.5 * phi), np.sin(0.5 * phi)
    near = np.arange(-stride, stride + 1)

    def rho(t: Array) -> Array:
        rp, rp1, rp2 = domain.radial_derivatives(t)
        c, s = np.cos(t)[:, None], np.sin(t)[:, None]
        ch, sh = np.cos(0.5 * t)[:, None], np.sin(0.5 * t)[:, None]
        num, dot = _tangent_ball(rp[:, None], rp1[:, None], r,
                                 sin_q * c - cos_q * s,
                                 sin_h * ch - cos_h * sh)
        # pairs within ``stride`` samples are left out, as in the table;
        # every local minimum of the sampled quotient is a contact branch,
        # and a branch can undercut the sampled best by about an eighth of
        # its second difference ``dip``, so keep those within a quarter
        own = np.rint(t * m / (2.0 * math.pi)).astype(int)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = np.where(dot > 0.0, num / dot, math.inf)
            quot[np.arange(t.size)[:, None], (own + near) % m] = math.inf
            left, right = np.roll(quot, 1, axis=1), np.roll(quot, -1, axis=1)
            dip = left + right - 2.0 * quot
        best = np.min(quot, axis=1)
        low = quot - 0.25 * dip
        ip, jq = np.nonzero((quot < left) & (quot <= right) & np.isfinite(dip)
                            & (low <= best[:, None]))
        # the lowest ``_CONTACT_BRANCHES`` of each probe's branches
        order = np.lexsort((low[ip, jq], ip))
        ip, jq = ip[order], jq[order]
        keep = np.arange(ip.size) - np.searchsorted(ip, ip) < _CONTACT_BRANCHES
        ip, jq = ip[keep], jq[keep]
        p, tangent, _ = _curve_map(t, rp, rp1, rp2)
        nu = np.stack([tangent[:, 1], -tangent[:, 0]], axis=-1)
        nu /= np.hypot(rp, rp1)[:, None]
        est, tq = quot[ip, jq], phi[jq]
        seed = (samples.gamma[jq], samples.tangent[jq], samples.accel[jq])
        for step in range(_CONTACT_ROUNDS):
            if step:
                seed = domain.curve(tq)
            _, tq, rq = _projected_distance(
                domain, p[ip] - est[:, None] * nu[ip], tq, seed)
            dq = tq - t[ip]
            num, dot = _tangent_ball(rp[ip], rp1[ip], rq, np.sin(dq),
                                     np.sin(0.5 * dq))
            with np.errstate(divide="ignore", invalid="ignore"):
                est = np.minimum(est, np.where(dot > 0.0, num / dot, math.inf))
        np.minimum.at(best, ip, est)
        k = _curvature(rp, rp1, rp2)
        with np.errstate(divide="ignore"):
            return np.where(k > 0.0, np.minimum(best, 1.0 / k), best)

    i = int(np.argmax(rows))
    # the fallback must be exact, not sampled
    rows[i] = rho(phi[stride * i:stride * i + 1])[0]
    return -_refine_extremum(lambda t: -rho(t), phi[::stride], -rows, i)
