"""Finite-difference torsion solver on star-shaped planar domains.

Solves ``lap u = 2`` with ``u = 0`` on the boundary using the five-point
Laplacian with Shortley-Weller corrections at irregular nodes: where a grid
edge crosses the boundary, the exact crossing distance (found by bisection on
the radial inclusion test) replaces the full spacing, and the Dirichlet zero
is imposed at the crossing.  The module also produces everything the identity
checks consume: the deepest point z, the auxiliary field h = |x-z|^2/2 - u,
gradients and Hessians, interior norms with exact-total cell weights and
optional weights by the boundary distance delta (exact at every node, by
Newton projection onto the curve), and boundary traces of the normal
derivative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from .cones import AnalyticField
from .errors import DomainError, GeometryError
from .stardomain import (
    StarDomain2D,
    _boundary_arrays,
    _projected_distance,
    area,
)

Array = np.ndarray

__all__ = [
    "Grid",
    "DiscreteField",
    "TensorField",
    "BoundaryTrace",
    "SolveReport",
    "solve_torsion",
    "exact_ellipse_torsion",
    "locate_min",
    "h_field",
    "gradient",
    "hessian",
    "hessian_torsion",
    "lp_norm_domain",
    "bilinear",
    "normal_derivative",
    "boundary_lp_norm",
    "gauss_map_deviation",
    "estimate_order",
]

_SUBCELL = 12          # subgrid resolution for cut-cell areas
_BOUNDARY_TABLE = 1024  # boundary vertices seeding the distance projection
_T_MIN = 1e-8          # crossing-fraction snap to keep the matrix conditioned


# --------------------------------------------------------------------------
# grid
# --------------------------------------------------------------------------

@dataclass(eq=False)
class Grid:
    """Square-cell grid over the domain's bounding box.

    ``cuts[d][i, j]`` is the fraction of the spacing at which the edge from
    node (i, j) in direction d meets the boundary (1.0 when the neighbor is a
    regular inside node); ``cell_weights`` are node-cell areas that sum to
    the exact domain area; ``delta`` is the exact distance of each node to
    the boundary: the nearest vertex of a coarse boundary table seeds a
    Newton projection onto the closed-form curve.
    """

    domain: StarDomain2D
    h: float
    xs: Array
    ys: Array
    inside: Array                 # (ny, nx) bool
    index: Array                  # (ny, nx) int, -1 outside
    cuts: dict[str, Array]        # E, W, N, S fractions in (0, 1]
    cell_weights: Array           # (ny, nx), sums to |Omega|
    delta: Array                  # (ny, nx) distance to the boundary
    n_unknowns: int = 0

    @property
    def points(self) -> Array:
        X, Y = np.meshgrid(self.xs, self.ys)
        return np.stack([X, Y], axis=-1)

    @staticmethod
    def build(domain: StarDomain2D, h: float) -> "Grid":
        if h <= 0:
            raise DomainError(f"grid spacing must be positive, got {h}")
        phi_check = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        r_max = float(np.max(domain.radial(phi_check)))
        n_side = int(math.ceil((r_max + 1.5 * h) / h))
        xs = h * np.arange(-n_side, n_side + 1)
        ys = xs.copy()
        nx = ny = xs.size
        X, Y = np.meshgrid(xs, ys)
        pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
        inside = domain.contains(pts).reshape(ny, nx)

        labels, n_comp = ndimage.label(inside)
        if n_comp != 1 or not inside.any():
            raise GeometryError(
                f"inside region splits into {n_comp} grid components at "
                f"h={h:g}; the grid is too coarse for this shape"
            )

        index = np.full((ny, nx), -1, dtype=np.int64)
        index[inside] = np.arange(int(inside.sum()))

        cuts = {}
        offsets = {"E": (0, 1), "W": (0, -1), "N": (1, 0), "S": (-1, 0)}
        for name, (di, dj) in offsets.items():
            cuts[name] = _edge_fractions(domain, xs, ys, inside, di, dj)

        cell_w = _cell_weights(domain, xs, ys, inside)
        phi = np.linspace(0.0, 2.0 * math.pi, _BOUNDARY_TABLE, endpoint=False)
        r, r1, r2 = domain.radial_derivatives(phi)
        tree = cKDTree(np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1))
        dist, nearest = tree.query(pts, workers=-1)
        # the table vertex stays an upper bound if a projection misses
        projected, _ = _projected_distance(
            domain, pts, phi[nearest], (r[nearest], r1[nearest], r2[nearest]))
        delta = np.minimum(dist, projected).reshape(ny, nx)

        return Grid(domain=domain, h=h, xs=xs, ys=ys, inside=inside,
                    index=index, cuts=cuts, cell_weights=cell_w, delta=delta,
                    n_unknowns=int(inside.sum()))


def _edge_fractions(domain: StarDomain2D, xs: Array, ys: Array,
                    inside: Array, di: int, dj: int) -> Array:
    """Fraction of each cut edge that lies inside, by vectorized bisection."""
    ny, nx = inside.shape
    h = xs[1] - xs[0]
    frac = np.ones((ny, nx))
    neighbor = np.zeros_like(inside)
    src = inside
    if di == 0:
        if dj == 1:
            neighbor[:, :-1] = inside[:, 1:]
            cut = src & ~neighbor
            cut[:, -1] = inside[:, -1]
        else:
            neighbor[:, 1:] = inside[:, :-1]
            cut = src & ~neighbor
            cut[:, 0] = inside[:, 0]
    else:
        if di == 1:
            neighbor[:-1, :] = inside[1:, :]
            cut = src & ~neighbor
            cut[-1, :] = inside[-1, :]
        else:
            neighbor[1:, :] = inside[:-1, :]
            cut = src & ~neighbor
            cut[0, :] = inside[0, :]
    ii, jj = np.nonzero(cut)
    if ii.size == 0:
        return frac
    base = np.stack([xs[jj], ys[ii]], axis=-1)
    step = h * np.array([dj, di], dtype=float)
    lo = np.zeros(ii.size)
    hi = np.ones(ii.size)
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        pts = base + mid[:, None] * step[None, :]
        is_in = domain.contains(pts)
        lo = np.where(is_in, mid, lo)
        hi = np.where(is_in, hi, mid)
    frac[ii, jj] = np.maximum(0.5 * (lo + hi), _T_MIN)
    return frac


def _cell_weights(domain: StarDomain2D, xs: Array, ys: Array,
                  inside: Array) -> Array:
    """Node-cell areas: full cells exact, cut cells by subgrid counting.

    Area captured in cells of outside nodes is handed to an adjacent inside
    node, and the total is rescaled to the exact closed-form area, so the
    weights integrate constants exactly.
    """
    ny, nx = inside.shape
    h = xs[1] - xs[0]
    cx = np.concatenate([xs - 0.5 * h, [xs[-1] + 0.5 * h]])
    cy = np.concatenate([ys - 0.5 * h, [ys[-1] + 0.5 * h]])
    CX, CY = np.meshgrid(cx, cy)
    corner_in = domain.contains(
        np.stack([CX.ravel(), CY.ravel()], axis=-1)).reshape(ny + 1, nx + 1)
    c00 = corner_in[:-1, :-1]
    c01 = corner_in[:-1, 1:]
    c10 = corner_in[1:, :-1]
    c11 = corner_in[1:, 1:]
    n_corners = (c00.astype(np.int8) + c01 + c10 + c11)
    full = (n_corners == 4) & inside
    empty = (n_corners == 0) & ~inside
    cut = ~(full | empty)

    w = np.zeros((ny, nx))
    w[full] = h * h
    ii, jj = np.nonzero(cut)
    if ii.size:
        s = (np.arange(_SUBCELL) + 0.5) / _SUBCELL - 0.5
        ox, oy = np.meshgrid(s * h, s * h)
        sub = np.stack([ox.ravel(), oy.ravel()], axis=-1)  # (S^2, 2)
        pts = (np.stack([xs[jj], ys[ii]], axis=-1)[:, None, :] + sub[None, :, :])
        frac = domain.contains(pts.reshape(-1, 2)).reshape(ii.size, -1).mean(axis=1)
        w[ii, jj] = frac * h * h

    # hand stranded outside-node weight to an adjacent inside node
    oi, oj = np.nonzero((w > 0) & ~inside)
    for i, j in zip(oi, oj):
        for di, dj in ((0, 1), (0, -1), (1, 0), (-1, 0),
                       (1, 1), (1, -1), (-1, 1), (-1, -1)):
            a, b = i + di, j + dj
            if 0 <= a < ny and 0 <= b < nx and inside[a, b]:
                w[a, b] += w[i, j]
                break
        w[i, j] = 0.0

    total = float(w.sum())
    if total <= 0:
        raise GeometryError("cell-weight construction captured no area")
    w *= area(domain) / total
    return w


# --------------------------------------------------------------------------
# fields
# --------------------------------------------------------------------------

@dataclass(eq=False)
class DiscreteField:
    """Scalar nodal field; values are NaN outside the inside mask."""

    grid: Grid
    values: Array
    provenance: str = "derived"

    def __post_init__(self):
        vals = self.values[self.grid.inside]
        if not np.all(np.isfinite(vals)):
            raise DomainError("field has non-finite values at inside nodes")


@dataclass(eq=False)
class TensorField:
    """Vector/tensor nodal field with a validity mask.

    ``components`` has shape (ny, nx, k); k = 2 stores a gradient (x, y) and
    k = 3 a symmetric Hessian (xx, xy, yy).  ``excluded_fraction`` is the
    volume fraction of inside nodes whose stencil was unavailable.
    """

    grid: Grid
    components: Array
    valid: Array
    provenance: str = "derived"

    @property
    def excluded_fraction(self) -> float:
        w = self.grid.cell_weights
        lost = float(np.sum(w[self.grid.inside & ~self.valid]))
        return lost / float(np.sum(w))

    def magnitude(self) -> Array:
        c = self.components
        if c.shape[-1] == 2:
            return np.sqrt(c[..., 0] ** 2 + c[..., 1] ** 2)
        if c.shape[-1] == 3:
            return np.sqrt(c[..., 0] ** 2 + 2.0 * c[..., 1] ** 2 + c[..., 2] ** 2)
        raise DomainError(f"unsupported component count {c.shape[-1]}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one linear solve."""

    h: float
    residual: float
    n_unknowns: int

    def __post_init__(self):
        if not self.residual <= 1e-10:
            raise GeometryError(
                f"linear solve residual {self.residual:.3e} exceeds 1e-10"
            )


# --------------------------------------------------------------------------
# the solver
# --------------------------------------------------------------------------

def spsolve(A: sparse.spmatrix, rhs: Array) -> Array:
    """Solve the Shortley-Weller system ``A x = rhs`` by SuperLU.

    The matrix is structurally symmetric and a diagonally dominant
    M-matrix, so elimination needs no pivoting: SuperLU runs in symmetric
    mode, keeps the diagonal pivots and orders by minimum degree on
    A^T + A, which halves the fill of the default column ordering.
    """
    lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    return lu.solve(rhs)


def solve_torsion(domain: StarDomain2D, h: float) -> tuple[DiscreteField, SolveReport]:
    """Shortley-Weller discretization of ``lap u = 2``, ``u = 0`` on the boundary."""
    grid = Grid.build(domain, h)
    inside = grid.inside
    idx = grid.index
    ny, nx = inside.shape
    ii, jj = np.nonzero(inside)
    center = idx[ii, jj]
    h2 = h * h

    tE = grid.cuts["E"][ii, jj]
    tW = grid.cuts["W"][ii, jj]
    tN = grid.cuts["N"][ii, jj]
    tS = grid.cuts["S"][ii, jj]

    rows = [center]
    cols = [center]
    data = [-2.0 / (tE * tW * h2) - 2.0 / (tN * tS * h2)]

    def neighbor_entries(di, dj, t_this, t_opp):
        a, b = ii + di, jj + dj
        ok = (a >= 0) & (a < ny) & (b >= 0) & (b < nx)
        ok[ok] &= inside[a[ok], b[ok]]
        coeff = 2.0 / (t_this * (t_this + t_opp) * h2)
        rows.append(center[ok])
        cols.append(idx[a[ok], b[ok]])
        data.append(coeff[ok])

    neighbor_entries(0, 1, tE, tW)
    neighbor_entries(0, -1, tW, tE)
    neighbor_entries(1, 0, tN, tS)
    neighbor_entries(-1, 0, tS, tN)

    A = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_unknowns, grid.n_unknowns)).tocsr()
    rhs = np.full(grid.n_unknowns, 2.0)

    sol = spsolve(A, rhs)
    if not np.all(np.isfinite(sol)):
        raise GeometryError("linear solver returned non-finite values")
    residual = float(np.linalg.norm(A @ sol - rhs) / np.linalg.norm(rhs))

    values = np.full((ny, nx), np.nan)
    values[ii, jj] = sol
    u = DiscreteField(grid=grid, values=values, provenance="solved")
    return u, SolveReport(h=h, residual=residual, n_unknowns=grid.n_unknowns)


def exact_ellipse_torsion(a: float, b: float) -> AnalyticField:
    """Closed-form torsion function of an ellipse (the solver's oracle).

    ``u = (a^2 b^2 / (a^2 + b^2)) (x^2/a^2 + y^2/b^2 - 1)`` with constant
    Hessian diag(2 b^2, 2 a^2) / (a^2 + b^2); its trace is 2.
    """
    if a <= 0 or b <= 0:
        raise DomainError(f"semi-axes must be positive, got a={a}, b={b}")
    s = a * a * b * b / (a * a + b * b)
    hxx = 2.0 * b * b / (a * a + b * b)
    hyy = 2.0 * a * a / (a * a + b * b)

    def value(pts: Array) -> Array:
        return s * (pts[:, 0] ** 2 / (a * a) + pts[:, 1] ** 2 / (b * b) - 1.0)

    def grad(pts: Array) -> Array:
        return np.stack([hxx * pts[:, 0], hyy * pts[:, 1]], axis=-1)

    def hess(pts: Array) -> Array:
        out = np.zeros(pts.shape[:-1] + (2, 2))
        out[..., 0, 0] = hxx
        out[..., 1, 1] = hyy
        return out

    return AnalyticField(label=f"torsion_ellipse(a={a:g},b={b:g})",
                         value=value, gradient=grad, hessian=hess)


# --------------------------------------------------------------------------
# minima and derived fields
# --------------------------------------------------------------------------

def locate_min(u: DiscreteField) -> Array:
    """Deepest point of the field: grid argmin plus a biquadratic fit."""
    grid = u.grid
    vals = np.where(grid.inside, u.values, np.inf)
    i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
    patch = grid.inside[i - 1:i + 2, j - 1:j + 2]
    if patch.shape != (3, 3) or not patch.all():
        raise GeometryError(
            "field minimum sits on the boundary ring; geometry is degenerate "
            "at this resolution"
        )
    z = u.values[i - 1:i + 2, j - 1:j + 2].ravel()
    # least-squares biquadratic q = c0 + c1 x + c2 y + c3 x^2 + c4 xy + c5 y^2
    off = np.array([-1.0, 0.0, 1.0])
    Xo, Yo = np.meshgrid(off, off)
    design = np.stack([np.ones(9), Xo.ravel(), Yo.ravel(),
                       Xo.ravel() ** 2, (Xo * Yo).ravel(), Yo.ravel() ** 2],
                      axis=1)
    c = np.linalg.lstsq(design, z, rcond=None)[0]
    H = np.array([[2.0 * c[3], c[4]], [c[4], 2.0 * c[5]]])
    g = np.array([c[1], c[2]])
    try:
        step = np.linalg.solve(H, -g)
    except np.linalg.LinAlgError:
        step = np.zeros(2)
    step = np.clip(step, -1.0, 1.0)
    return np.array([grid.xs[j] + step[0] * grid.h,
                     grid.ys[i] + step[1] * grid.h])


def h_field(u: DiscreteField, z) -> DiscreteField:
    """The auxiliary field ``|x - z|^2 / 2 - u`` (harmonic for torsion u)."""
    z = np.asarray(z, dtype=float)
    grid = u.grid
    X, Y = np.meshgrid(grid.xs, grid.ys)
    q = 0.5 * ((X - z[0]) ** 2 + (Y - z[1]) ** 2)
    values = np.where(grid.inside, q - u.values, np.nan)
    return DiscreteField(grid=grid, values=values, provenance="derived")


# --------------------------------------------------------------------------
# derivatives
# --------------------------------------------------------------------------

def _axis_derivative(values: Array, inside: Array, h: float,
                     axis: int) -> tuple[Array, Array]:
    """Second-order first derivative along one axis with one-sided fallback."""
    def shift(arr: Array, k: int) -> Array:
        out = np.full_like(arr, np.nan)
        if axis == 1:
            if k > 0:
                out[:, :-k] = arr[:, k:]
            elif k < 0:
                out[:, -k:] = arr[:, :k]
            else:
                out = arr.copy()
        else:
            if k > 0:
                out[:-k, :] = arr[k:, :]
            elif k < 0:
                out[-k:, :] = arr[:k, :]
            else:
                out = arr.copy()
        return out

    def shift_mask(k: int) -> Array:
        m = shift(inside.astype(float), k)
        return m == 1.0

    vp1, vm1 = shift(values, 1), shift(values, -1)
    vp2, vm2 = shift(values, 2), shift(values, -2)
    mp1, mm1 = shift_mask(1), shift_mask(-1)
    mp2, mm2 = shift_mask(2), shift_mask(-2)

    deriv = np.full_like(values, np.nan)
    valid = np.zeros_like(inside)

    central = inside & mp1 & mm1
    deriv[central] = (vp1[central] - vm1[central]) / (2.0 * h)
    valid |= central

    fwd = inside & ~valid & mp1 & mp2
    deriv[fwd] = (-3.0 * values[fwd] + 4.0 * vp1[fwd] - vp2[fwd]) / (2.0 * h)
    valid |= fwd

    bwd = inside & ~valid & mm1 & mm2
    deriv[bwd] = (3.0 * values[bwd] - 4.0 * vm1[bwd] + vm2[bwd]) / (2.0 * h)
    valid |= bwd
    return deriv, valid


def gradient(field: DiscreteField) -> TensorField:
    """Nodal gradient: central differences, one-sided at the boundary ring."""
    grid = field.grid
    gx, vx = _axis_derivative(field.values, grid.inside, grid.h, axis=1)
    gy, vy = _axis_derivative(field.values, grid.inside, grid.h, axis=0)
    valid = vx & vy
    comps = np.stack([np.where(valid, gx, np.nan),
                      np.where(valid, gy, np.nan)], axis=-1)
    return TensorField(grid=grid, components=comps, valid=valid,
                       provenance=field.provenance)


def hessian(field: DiscreteField) -> TensorField:
    """Nodal Hessian by derivative composition (generic fields)."""
    grid = field.grid
    g = gradient(field)
    gx = np.where(g.valid, g.components[..., 0], np.nan)
    gy = np.where(g.valid, g.components[..., 1], np.nan)
    fxx, vxx = _axis_derivative(gx, g.valid, grid.h, axis=1)
    fyy, vyy = _axis_derivative(gy, g.valid, grid.h, axis=0)
    fxy1, vxy1 = _axis_derivative(gx, g.valid, grid.h, axis=0)
    fxy2, vxy2 = _axis_derivative(gy, g.valid, grid.h, axis=1)
    valid = vxx & vyy & vxy1 & vxy2 & grid.inside
    fxy = 0.5 * (fxy1 + fxy2)
    comps = np.stack([np.where(valid, fxx, np.nan),
                      np.where(valid, fxy, np.nan),
                      np.where(valid, fyy, np.nan)], axis=-1)
    return TensorField(grid=grid, components=comps, valid=valid,
                       provenance=field.provenance)


def hessian_torsion(u: DiscreteField) -> TensorField:
    """Hessian of the torsion solution, cut-aware on the diagonal.

    The pure second derivatives use the nonuniform three-point stencil with
    the known zero boundary values at the edge crossings, so they exist at
    every inside node; the mixed derivative comes from composing first
    derivatives and is masked where that stencil is unavailable.
    """
    grid = u.grid
    inside = grid.inside
    h = grid.h
    vals = np.where(inside, u.values, 0.0)  # cut neighbors carry value 0

    def second(axis: int, t_plus: Array, t_minus: Array) -> Array:
        if axis == 1:
            vp = np.full_like(vals, 0.0)
            vp[:, :-1] = vals[:, 1:]
            vm = np.full_like(vals, 0.0)
            vm[:, 1:] = vals[:, :-1]
        else:
            vp = np.full_like(vals, 0.0)
            vp[:-1, :] = vals[1:, :]
            vm = np.full_like(vals, 0.0)
            vm[1:, :] = vals[:-1, :]
        hp, hm = t_plus * h, t_minus * h
        return 2.0 * (vp / (hp * (hp + hm)) + vm / (hm * (hp + hm))
                      - vals / (hp * hm))

    uxx = second(1, grid.cuts["E"], grid.cuts["W"])
    uyy = second(0, grid.cuts["N"], grid.cuts["S"])

    g = gradient(u)
    gx = np.where(g.valid, g.components[..., 0], np.nan)
    gy = np.where(g.valid, g.components[..., 1], np.nan)
    fxy1, vxy1 = _axis_derivative(gx, g.valid, h, axis=0)
    fxy2, vxy2 = _axis_derivative(gy, g.valid, h, axis=1)
    valid = inside & vxy1 & vxy2
    uxy = 0.5 * (fxy1 + fxy2)
    comps = np.stack([np.where(valid, uxx, np.nan),
                      np.where(valid, uxy, np.nan),
                      np.where(valid, uyy, np.nan)], axis=-1)
    return TensorField(grid=grid, components=comps, valid=valid,
                       provenance=u.provenance)


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------

def lp_norm_domain(field: DiscreteField | TensorField, p: float,
                   alpha: float = 0.0) -> float:
    """Normalized interior norm ``|| delta^alpha f ||_{p, Omega}``.

    The measure is dx / |Omega| via the exact-total cell weights; masked
    nodes are excluded (their volume fraction is available on TensorField).
    """
    if isinstance(field, TensorField):
        grid = field.grid
        mag = field.magnitude()
        valid = field.valid
    else:
        grid = field.grid
        mag = np.abs(field.values)
        valid = grid.inside
    if not (p == math.inf or p >= 1.0):
        raise DomainError(f"exponent must be in [1, inf], got {p}")
    mask = valid & grid.inside
    vals = mag[mask]
    if alpha != 0.0:
        vals = vals * grid.delta[mask] ** alpha
    if p == math.inf:
        return float(np.max(vals))
    w = grid.cell_weights[mask]
    total = float(np.sum(grid.cell_weights))
    return float(np.sum(w * vals**p) / total) ** (1.0 / p)


def bilinear(field: DiscreteField, pts: Array) -> tuple[Array, Array]:
    """Bilinear interpolation; a point is valid if its 4 cell nodes are inside."""
    grid = field.grid
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    fx = (pts[:, 0] - grid.xs[0]) / grid.h
    fy = (pts[:, 1] - grid.ys[0]) / grid.h
    j0 = np.floor(fx).astype(int)
    i0 = np.floor(fy).astype(int)
    ny, nx = grid.inside.shape
    ok = (j0 >= 0) & (j0 < nx - 1) & (i0 >= 0) & (i0 < ny - 1)
    j0c = np.clip(j0, 0, nx - 2)
    i0c = np.clip(i0, 0, ny - 2)
    tx = fx - j0c
    ty = fy - i0c
    corners_in = (grid.inside[i0c, j0c] & grid.inside[i0c, j0c + 1]
                  & grid.inside[i0c + 1, j0c] & grid.inside[i0c + 1, j0c + 1])
    ok &= corners_in
    v = (field.values[i0c, j0c] * (1 - tx) * (1 - ty)
         + field.values[i0c, j0c + 1] * tx * (1 - ty)
         + field.values[i0c + 1, j0c] * (1 - tx) * ty
         + field.values[i0c + 1, j0c + 1] * tx * ty)
    return np.where(ok, v, np.nan), ok


# --------------------------------------------------------------------------
# boundary traces
# --------------------------------------------------------------------------

@dataclass(eq=False)
class BoundaryTrace:
    """Values of a quantity at uniform boundary samples, with exclusions."""

    phi: Array
    values: Array
    weights: Array
    valid: Array

    @property
    def excluded_fraction(self) -> float:
        return float(np.sum(self.weights[~self.valid]) / np.sum(self.weights))


def normal_derivative(u: DiscreteField, domain: StarDomain2D,
                      m: int = 1024, step_factor: float = 3.0) -> BoundaryTrace:
    """Outward normal derivative on the boundary by one-sided differences.

    Uses ``u = 0`` on the boundary and bilinear samples at distances delta
    and 2 delta inward along the normal (delta = step_factor * h), which is
    second-order accurate; samples whose stencil leaves the interior are
    flagged and excluded.
    """
    grid = u.grid
    phi, pos, normal, _, weight = _boundary_arrays(domain, m)
    delta = step_factor * grid.h
    p1 = pos - delta * normal
    p2 = pos - 2.0 * delta * normal
    v1, ok1 = bilinear(u, p1)
    v2, ok2 = bilinear(u, p2)
    valid = ok1 & ok2
    vals = (v2 - 4.0 * v1) / (2.0 * delta)
    return BoundaryTrace(phi=phi, values=np.where(valid, vals, np.nan),
                         weights=weight, valid=valid)


def boundary_lp_norm(trace: BoundaryTrace, p: float) -> float:
    """Normalized boundary norm (measure dS / |Gamma|) over valid samples."""
    if not (p == math.inf or p >= 1.0):
        raise DomainError(f"exponent must be in [1, inf], got {p}")
    vals = np.abs(trace.values[trace.valid])
    w = trace.weights[trace.valid]
    if vals.size == 0:
        raise GeometryError("no valid boundary samples remain")
    if p == math.inf:
        return float(np.max(vals))
    return float(np.sum(w * vals**p) / np.sum(w)) ** (1.0 / p)


def gauss_map_deviation(domain: StarDomain2D, z, R: float,
                        m: int = 4096) -> float:
    """``R || nu - (x - z)/R ||_{2, Gamma}`` with the normalized measure."""
    z = np.asarray(z, dtype=float)
    _, pos, normal, _, weight = _boundary_arrays(domain, m)
    dev = normal - (pos - z) / R
    val = np.sum(dev * dev, axis=-1)
    return R * math.sqrt(float(np.sum(weight * val) / np.sum(weight)))


def estimate_order(err_coarse: float, err_fine: float,
                   ratio: float = 2.0) -> float:
    """Observed convergence order from two errors at spacings h and h/ratio."""
    if err_coarse <= 0 or err_fine <= 0:
        raise DomainError("convergence order needs positive error pairs")
    return math.log(err_coarse / err_fine) / math.log(ratio)
