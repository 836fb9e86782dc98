"""Finite-difference torsion solver on star-shaped planar domains.

Solves ``lap u = 2`` with ``u = 0`` on the boundary using the five-point
Laplacian with Shortley-Weller corrections at irregular nodes: where a grid
edge crosses the boundary, the distance to its first crossing replaces the
full spacing, and the Dirichlet zero is imposed at the crossing.  One table
of the boundary's crossings with the grid lines, found by Newton's method on
the closed-form curve, gives the inside mask, those crossing distances and
the exact cut-cell areas.  BiCGSTAB preconditioned by a geometric
multigrid V-cycle solves the linear system, while a worker thread computes
the boundary distance delta.  The module also produces everything the identity
checks consume: the deepest point z, the auxiliary field h = |x-z|^2/2 - u,
gradients and Hessians, interior norms with exact cell areas and optional
weights by the boundary distance delta (exact at every inside node, by
Newton projection onto the curve, and NaN outside), and boundary traces of
the normal derivative.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from .cones import AnalyticField
from .errors import DomainError, GeometryError
from .stardomain import StarDomain2D, _coarse, _projected_distance, area

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
    "hessian_torsion",
    "lp_norm_domain",
    "bilinear",
    "normal_derivative",
    "boundary_lp_norm",
    "gauss_map_deviation",
    "estimate_order",
]

_ROOT_STEPS = 64        # cap on the safeguarded Newton steps of a root
_T_MIN = 1e-8           # crossing-fraction snap to keep the matrix conditioned
_ON_BOUNDARY = 1e-13    # a node this many spacings from a crossing is on it
_AREA_TOL = 1e-12       # relative gap allowed between the areas and |Omega|
_TRACE_STEP = 3.0       # normal-derivative stencil step, in grid spacings
_DELTA_CHUNK = 8192     # nodes per kd-tree query and projection of delta
_COARSEST = 3000        # unknowns of the coarsest multigrid level, factored
_JACOBI = 0.8           # damping of the coarse levels' Jacobi sweeps
_RTOL = 1e-11           # true relative residual at which BiCGSTAB stops
_STEPS = 100            # BiCGSTAB steps in all before the solve fails


# --------------------------------------------------------------------------
# grid
# --------------------------------------------------------------------------

@dataclass(eq=False)
class Grid:
    """Square-cell grid over the domain's bounding box.

    The domain's boundary table sizes the box and brackets one table of the
    boundary's crossings with the node lines and the cell lines (see
    :func:`_crossings`), from which everything but ``delta`` derives.
    ``cuts[d][i, j]`` is, at an inside node, the fraction of the spacing at
    which the edge from node (i, j) in direction d first meets the
    boundary, and 1.0 where the edge stays inside (and at every outside
    node); ``cell_weights`` are the exact areas of the parts of the node
    cells inside the domain, by Green's theorem, with the area of an
    outside node's cell handed to an inside neighbor; ``delta`` is exact at
    every inside node and NaN outside, as the values of a
    :class:`DiscreteField`: the nearest vertex of the coarse view of the
    boundary table (1024 angles) seeds a Newton projection onto the
    closed-form curve.  ``delta`` is computed on first read, in chunks of
    nodes so that its temporaries stay small; :func:`solve_torsion` makes
    that read on a worker thread while the linear solve runs.  ``index``
    numbers the inside nodes red (i + j even) first, then black, each colour
    in row-major order.
    """

    domain: StarDomain2D
    h: float
    xs: Array
    ys: Array
    inside: Array                 # (ny, nx) bool
    index: Array                  # (ny, nx) int, red first, -1 outside
    cuts: dict[str, Array]        # E, W, N, S fractions in (0, 1]
    cell_weights: Array           # (ny, nx), sums to |Omega|
    n_unknowns: int = 0

    @staticmethod
    def build(domain: StarDomain2D, h: float) -> "Grid":
        if h <= 0:
            raise DomainError(f"grid spacing must be positive, got {h}")
        r_max = float(np.max(domain.boundary_table.r))
        n_side = int(math.ceil((r_max + 1.5 * h) / h))
        # node lines x, y = m h / 2 at odd m, cell lines at even m
        lines = 0.5 * h * np.arange(-2 * n_side - 1, 2 * n_side + 2)
        rows, cols = (_crossings(domain, lines, hz) for hz in (True, False))
        xs = lines[1::2]
        inside, cuts = _mask_and_cuts(rows, cols, xs)

        labels, n_comp = ndimage.label(inside)
        if n_comp != 1 or not inside.any():
            raise GeometryError(
                f"inside region splits into {n_comp} grid components at "
                f"h={h:g}; the grid is too coarse for this shape"
            )

        # red nodes (i + j even) first, each colour in row-major order, so
        # the multigrid smoother reads each colour as one block of unknowns
        red = inside & (np.indices(inside.shape).sum(axis=0) % 2 == 0)
        n_red, n_unknowns = int(red.sum()), int(inside.sum())
        index = np.full(inside.shape, -1, dtype=np.int64)
        index[red] = np.arange(n_red)
        index[inside & ~red] = np.arange(n_red, n_unknowns)
        cell_w = _cell_areas(domain, rows, cols, lines)
        # hand the area in an outside node's cell to its first inside
        # neighbor; np.roll wraps, but the two outer rings hold no area
        stranded = ~inside & (cell_w != 0.0)
        for step in ((0, 1), (0, -1), (1, 0), (-1, 0),
                     (1, 1), (1, -1), (-1, 1), (-1, -1)):
            give = stranded & np.roll(inside, (-step[0], -step[1]), (0, 1))
            cell_w += np.roll(np.where(give, cell_w, 0.0), step, (0, 1))
            stranded &= ~give
        cell_w[~inside] = 0.0
        total, exact = float(cell_w.sum()), area(domain)
        if not abs(total - exact) <= _AREA_TOL * exact:
            raise GeometryError(f"cell areas sum to {total!r}, not the "
                                f"domain area {exact!r}")

        return Grid(domain=domain, h=h, xs=xs, ys=xs.copy(), inside=inside,
                    index=index, cuts=cuts, cell_weights=cell_w,
                    n_unknowns=n_unknowns)

    @cached_property
    def delta(self) -> Array:
        """Boundary distance at the inside nodes, NaN outside; built on
        first read, ``_DELTA_CHUNK`` nodes at a time."""
        table = _coarse(self.domain.boundary_table)
        tree = cKDTree(table.gamma)
        delta = np.full(self.inside.shape, np.nan)
        ii, jj = np.nonzero(self.inside)
        for start in range(0, ii.size, _DELTA_CHUNK):
            i, j = ii[start:start + _DELTA_CHUNK], jj[start:start + _DELTA_CHUNK]
            pts = np.stack([self.xs[j], self.ys[i]], axis=-1)
            dist, nearest = tree.query(pts, workers=1)
            # the table vertex stays an upper bound if a projection misses
            seed = tuple(g[nearest] for g in (table.gamma, table.tangent,
                                               table.accel))
            projected, _ = _projected_distance(self.domain, pts,
                                               table.phi[nearest], seed)
            delta[i, j] = np.minimum(dist, projected)
        return delta


def _root(fun, lo: Array, hi: Array, t: Array, up: Array) -> Array:
    """Roots in [lo, hi] of f, ``fun(t) = (f, f')``, by Newton's method from
    t safeguarded by bisection; f rises through the roots where ``up``."""
    for _ in range(_ROOT_STEPS):
        f, slope = fun(t)
        right = (f < 0.0) == up  # the root lies beyond t
        lo, hi = np.where(right, t, lo), np.where(right, hi, t)
        step = t - np.divide(f, slope, out=np.full_like(f, np.inf),
                             where=slope != 0.0)
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        if np.all(np.abs(step - t) <= 1e-14):  # at the rounding noise
            return step
        t = step
    return t


def _crossings(domain: StarDomain2D, lines: Array, horizontal: bool):
    """Crossings of the boundary with the lines y = c (``horizontal``) or
    x = c, for c in the ascending ``lines``.

    The coordinate g across the lines, read from the boundary table and
    split at its extrema, runs monotonically from a to b on each piece,
    which crosses the lines with min(a, b) < c <= max(a, b).  Returns each
    crossing's line index, position along the line, +1 (-1) where the line,
    walked towards larger positions, enters (leaves) the domain, and angle.
    """
    across, along = (1, 0) if horizontal else (0, 1)

    def trace(t, level=0.0):  # g - level, g', g'', position along the line
        gamma, tangent, accel = domain.curve(t)
        return (gamma[..., across] - level, tangent[..., across],
                accel[..., across], gamma[..., along])

    table = domain.boundary_table
    phi = np.append(table.phi, 2.0 * math.pi)
    g, g1 = (np.append(v[:, across], v[0, across])
             for v in (table.gamma, table.tangent))
    k = np.flatnonzero(g1[:-1] * g1[1:] < 0.0)
    ext = _root(lambda t: trace(t)[1:3], phi[k], phi[k + 1],
                0.5 * (phi[k] + phi[k + 1]), g1[k] < 0.0)
    phi, g = np.insert(phi, k + 1, ext), np.insert(g, k + 1, trace(ext)[0])
    a, b = g[:-1], g[1:]
    first = np.searchsorted(lines, np.minimum(a, b), side="right")
    count = np.searchsorted(lines, np.maximum(a, b), side="right") - first
    piece = np.repeat(np.arange(count.size), count)
    line = np.arange(piece.size) + np.repeat(first - np.cumsum(count) + count,
                                             count)
    c, a, b = lines[line], a[piece], b[piece]
    lo, hi = phi[piece], phi[piece + 1]
    t = _root(lambda t: trace(t, c)[:2], lo, hi,
              lo + (c - a) / (b - a) * (hi - lo), b > a)
    return line, trace(t)[3], np.where((b > a) != horizontal, 1, -1), t


def _mask_and_cuts(rows, cols, xs: Array):
    """Inside mask and Shortley-Weller fractions from the node-line crossings.

    A node is inside when the crossings left of it on its row wind once
    around it and none lies on it to rounding (the strict radial test).  An
    edge's fraction is its nearest crossing's offset over h, else 1.0.
    """
    n, h = xs.size, xs[1] - xs[0]
    winding = np.zeros((n, n + 1), dtype=np.int64)
    fractions = []
    for k, (line, pos, enter, _) in enumerate((rows, cols)):
        node = line % 2 == 1
        i, pos = line[node] // 2, pos[node]
        j = np.searchsorted(xs, pos)  # xs[j - 1] < pos <= xs[j]
        lower, upper = np.ones((n, n)), np.ones((n, n))
        np.minimum.at(upper, (i, j - 1), (pos - xs[j - 1]) / h)
        np.minimum.at(lower, (i, j), (xs[j] - pos) / h)
        if k == 0:
            np.add.at(winding, (i, j), enter[node])
        fractions += [lower, upper] if k == 0 else [lower.T, upper.T]
    inside = ((np.cumsum(winding, axis=1)[:, :-1] == 1)
              & (np.minimum.reduce(fractions) > _ON_BOUNDARY))
    return inside, {name: np.where(inside, np.maximum(frac, _T_MIN), 1.0)
                    for name, frac in zip("WESN", fractions)}


def _cell_areas(domain: StarDomain2D, rows, cols, lines: Array) -> Array:
    """Exact areas of the node cells' parts inside the domain, by Green's
    theorem: an edge piece on the cell line y = c or x = c with inside
    length L adds -+ c L / 2, an arc between consecutive cell-line crossings
    (1/2) int r^2 dphi, in closed form as r^2 is a trigonometric polynomial.
    """
    q = lines[::2]  # cell lines: the cell of node j spans [q[j], q[j + 1]]
    n, h = q.size - 1, q[1] - q[0]
    moments, angles = [], []
    for line, pos, enter, phi in (rows, cols):
        cell = line % 2 == 0
        i, pos, enter = line[cell] // 2, pos[cell], enter[cell]
        s = np.searchsorted(q, pos, side="right") - 1
        length, entered = np.zeros((2, n + 1, n))
        np.add.at(length, (i, s), enter * (q[s + 1] - pos))
        np.add.at(entered, (i, s), enter)
        length += h * (np.cumsum(entered, axis=1) - entered)
        moments.append(np.diff(q[:, None] * length, axis=0))
        angles.append(phi[cell])
    w = 0.5 * (moments[0] + moments[1].T)

    t = np.sort(np.concatenate(angles))
    half = 0.5 * np.diff(np.append(t, t[:1] + 2.0 * math.pi))
    mid = t + half
    _, a, b = domain._coefficient_arrays()
    spec = np.concatenate([(a + 1j * b)[::-1], [2.0 * domain.c0], a - 1j * b])
    sq = np.convolve(spec, spec)[2 * a.size:] / 4.0  # of e^{ik phi} in r^2
    k = np.arange(1, sq.size)
    arc = sq[0].real * half + 2.0 * np.sum(np.sin(half[:, None] * k) / k * (
        sq[1:] * np.exp(1j * mid[:, None] * k)).real, axis=1)
    r = domain.radial(mid)
    np.add.at(w, tuple(np.searchsorted(q, r * f(mid), side="right") - 1
                       for f in (np.sin, np.cos)), arc)
    return w


# --------------------------------------------------------------------------
# fields
# --------------------------------------------------------------------------

@dataclass(eq=False)
class DiscreteField:
    """Scalar nodal field; values are NaN outside the inside mask."""

    grid: Grid
    values: Array

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

    @property
    def excluded_fraction(self) -> float:
        w = self.grid.cell_weights
        lost = float(np.sum(w[self.grid.inside & ~self.valid]))
        return lost / float(np.sum(w))

    @cached_property
    def magnitude(self) -> Array:
        """Pointwise Euclidean (Frobenius) norm, computed on first read and
        kept read-only: the check battery takes several norms of one field."""
        c = self.components
        if c.shape[-1] == 2:
            mag = np.sqrt(c[..., 0] ** 2 + c[..., 1] ** 2)
        elif c.shape[-1] == 3:
            mag = np.sqrt(c[..., 0] ** 2 + 2.0 * c[..., 1] ** 2 + c[..., 2] ** 2)
        else:
            raise DomainError(f"unsupported component count {c.shape[-1]}")
        mag.flags.writeable = False
        return mag


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one linear solve."""

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

def _restriction(number: Array) -> tuple[sparse.csr_matrix, Array]:
    """The transpose R = P^T of bilinear interpolation P from the nodes with
    even (i, j) to every node, and the numbering of the coarse level.

    ``number`` maps each node of the level to its unknown, -1 outside.  The
    coarse level is the grid ``number[::2, ::2]`` and numbers its nodes in
    row-major order.  A coarse node gives weight 1 to the fine node on it,
    1/2 to the fine nodes beside it on a grid line and 1/4 to those on its
    diagonals, so a fine node that misses a coarse neighbour outside the
    domain takes the Dirichlet zero there.
    """
    nx = number.shape[1]
    even = number[::2, ::2] >= 0
    ci, cj = np.nonzero(even)
    coarse = np.full(even.shape, -1, dtype=np.int64)
    coarse[even] = np.arange(ci.size)
    # a ring of -1 around the level keeps every neighbour's index in range
    padded = np.pad(number, 1, constant_values=-1).ravel()
    step = np.array([-1, 0, 1])
    offsets = (step[:, None] * (nx + 2) + step).ravel()
    weights = (0.5 ** (np.abs(step)[:, None] + np.abs(step))).ravel()
    fine = padded[((2 * ci + 1) * (nx + 2) + 2 * cj + 1)[:, None] + offsets]
    hit = fine >= 0
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(hit, axis=1))])
    R = sparse.csr_matrix(
        (np.broadcast_to(weights, hit.shape)[hit], fine[hit], indptr),
        shape=(ci.size, int(np.count_nonzero(number >= 0))))
    return R, coarse


class _VCycle:
    """One multigrid V-cycle for the Shortley-Weller matrix, as the linear
    map M of a right-preconditioned BiCGSTAB, which applies it twice a step.

    ``A`` numbers its unknowns red (i + j even) first, ``n_red`` of them, as
    ``number`` maps the grid nodes to them: :meth:`Grid.build` numbers them
    so (see :func:`_restriction`).
    Each coarser level is the Galerkin product A_c = P^T A P with the
    bilinear P, down to at most ``_COARSEST`` unknowns, which SuperLU
    factors.  The fine level is smoothed by one red-black Gauss-Seidel
    sweep before and after the coarse correction: the five-point stencil
    couples a node only to nodes of the other colour, so each half-sweep
    solves its colour exactly, and the presmoothing sweep leaves no black
    residual.  The nine-point coarse levels are smoothed by two damped
    Jacobi sweeps before and after.  A system of at most ``_COARSEST``
    unknowns is factored whole.
    """

    def __init__(self, A: sparse.csr_matrix, number: Array, n_red: int):
        self.levels, self.P = [], None
        if A.shape[0] <= _COARSEST:
            self.lu = splu(A.tocsc())
            return
        d = A.diagonal()
        self.n_red, self.d_red, self.d_black = n_red, d[:n_red], d[n_red:]
        self.A_rb, self.A_br = A[:n_red, n_red:], A[n_red:, :n_red]
        R, number = _restriction(number)
        self.P, self.R_red = R.T.tocsr(), R[:, :n_red]
        A = R @ A @ self.P
        while A.shape[0] > _COARSEST:
            R, number = _restriction(number)
            P = R.T.tocsr()
            self.levels.append((A, _JACOBI / A.diagonal(), P, R))
            A = R @ A @ P
        self.lu = splu(A.tocsc())

    def __call__(self, b: Array) -> Array:
        if self.P is None:
            return self.lu.solve(b)
        n = self.n_red
        x = np.empty_like(b)
        x_red, x_black = x[:n], x[n:]
        b_red, b_black = b[:n], b[n:]
        np.divide(b_red, self.d_red, out=x_red)
        np.divide(b_black - self.A_br @ x_red, self.d_black, out=x_black)
        # the residual is -A_rb x_black on red and zero on black
        x -= self.P @ self._coarse(self.R_red @ (self.A_rb @ x_black), 0)
        np.divide(b_red - self.A_rb @ x_black, self.d_red, out=x_red)
        np.divide(b_black - self.A_br @ x_red, self.d_black, out=x_black)
        return x

    def _coarse(self, b: Array, level: int) -> Array:
        if level == len(self.levels):
            return self.lu.solve(b)
        A, scale, P, R = self.levels[level]
        x = scale * b
        x += scale * (b - A @ x)
        x += P @ self._coarse(R @ (b - A @ x), level + 1)
        for _ in range(2):
            x += scale * (b - A @ x)
        return x


def _norm(v: Array) -> float:
    """Euclidean norm by pairwise ``np.sum``, as every reduction of
    :func:`_bicgstab` is taken: np.linalg.norm's BLAS ddot wakes the
    OpenBLAS thread pool, whose helper then spins on a core that a sibling
    pool worker needs."""
    return math.sqrt(float(np.sum(v * v)))


def _bicgstab(A: sparse.csr_matrix, b: Array, precondition) -> Array:
    """Solve ``A x = b`` to the true relative residual ``_RTOL`` by
    right-preconditioned BiCGSTAB (van der Vorst 1992): x = M y, where
    ``precondition`` applies M.

    The recursive residual drifts from b - A x, so a round that brings it
    under the target is followed by a round from the true residual, until
    that is under the target too.  The true residual is summed as
    b_i - sum_j a_ij (x_j - x_i) - s_i x_i with the row sums s_i of A, zero
    away from cut nodes; the products a_ij x_j of b - A x are near
    4 |x| / h^2 and at h = 1/512 round to an error near ``_RTOL``.  Raises
    :class:`GeometryError` after ``_STEPS`` steps or on a zero denominator.
    """
    def quotient(num: float, den: float) -> float:
        # Python floats would raise ZeroDivisionError, not a solver failure
        if den == 0.0:
            raise GeometryError(f"BiCGSTAB broke down after {steps} "
                                "iterations on a zero denominator")
        return num / den

    def dot(u: Array, v: Array) -> float:
        return float(np.sum(u * v))

    rows = np.repeat(np.arange(b.size, dtype=A.indices.dtype),
                     np.diff(A.indptr))
    row_sums = np.bincount(rows, A.data, b.size)
    target = _RTOL * _norm(b)
    x, r, steps = np.zeros_like(b), b, 0
    while (res := _norm(r)) > target:
        shadow, rho, alpha, omega, p, v = r, 1.0, 1.0, 1.0, 0.0, 0.0
        while res > target:
            if steps >= _STEPS:
                raise GeometryError(
                    f"BiCGSTAB stopped after {steps} iterations at relative "
                    f"residual {res / _norm(b):.3e}, above {_RTOL:g}")
            steps += 1
            rho, last = dot(shadow, r), rho
            p = r + quotient(rho, last) * quotient(alpha, omega) * (
                p - omega * v)
            p_hat = precondition(p)
            v = A @ p_hat
            alpha = quotient(rho, dot(shadow, v))
            x += alpha * p_hat
            r = r - alpha * v
            # a solution in the Krylov space leaves r = 0 here, and then
            # t = A M r = 0 below
            if (res := _norm(r)) <= target:
                break
            s_hat = precondition(r)
            t = A @ s_hat
            omega = quotient(dot(t, r), dot(t, t))
            x += omega * s_hat
            r = r - omega * t
            res = _norm(r)
        # in place: one more temporary of nnz entries adds 30 MB to the
        # peak RSS of a 1/512 rung
        terms = x[A.indices]
        terms -= x[rows]
        terms *= A.data
        r = b - (np.bincount(rows, terms, b.size) + row_sums * x)
    return x


def spsolve(A: sparse.csr_matrix, rhs: Array, index: Array) -> Array:
    """Solve the Shortley-Weller system ``A x = rhs``, whose unknowns the
    grid map ``index`` numbers red (i + j even) first, by BiCGSTAB
    preconditioned with a geometric multigrid V-cycle (see
    :class:`_VCycle`).  It takes 7-11 steps from h = 1/64 to 1/512 on the
    ladder members, whose solution it gives within 1e-12 of a direct
    factorization's.  No step calls BLAS (see :func:`_norm`).
    """
    ii, jj = np.nonzero(index >= 0)
    n_red = int(np.count_nonzero((ii + jj) % 2 == 0))
    return _bicgstab(A, rhs, _VCycle(A, index, n_red))


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
        # couple across uncut edges only: a cut edge ends at a Dirichlet zero
        a, b = ii + di, jj + dj
        ok = (a >= 0) & (a < ny) & (b >= 0) & (b < nx) & (t_this == 1.0)
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

    # the first read of delta overlaps the solve where either side releases
    # the interpreter lock: the kd-tree query and large numpy operations do,
    # scipy's sparse products do not
    with ThreadPoolExecutor(max_workers=1) as worker:
        reading = worker.submit(getattr, grid, "delta")
        sol = spsolve(A, rhs, idx)
        reading.result()
    if not np.all(np.isfinite(sol)):
        raise GeometryError("linear solver returned non-finite values")
    residual = _norm(A @ sol - rhs) / _norm(rhs)

    values = np.full((ny, nx), np.nan)
    values[ii, jj] = sol[center]
    u = DiscreteField(grid=grid, values=values)
    return u, SolveReport(residual=residual, n_unknowns=grid.n_unknowns)


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

    return AnalyticField(label=f"torsion_ellipse(a={a:g},b={b:g})",
                         value=value, gradient=grad)


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
    return DiscreteField(grid=grid, values=values)


# --------------------------------------------------------------------------
# derivatives
# --------------------------------------------------------------------------

def _axis_derivative(values: Array, mask: Array, grid: Grid,
                     axis: int) -> tuple[Array, Array]:
    """Second-order first derivative along one axis with one-sided fallback.

    A neighbor counts only where it is in ``mask`` and the edge to it is
    uncut (cut 1.0), so no stencil reaches across the exterior.  np.roll
    wraps, but it reads only the two outer node rings, which are outside.
    """
    plus, minus = ("E", "W") if axis == 1 else ("N", "S")

    def ahead(arr: Array, k: int) -> Array:  # arr at the node k steps on
        return np.roll(arr, -k, axis)

    up = ahead(mask, 1) & (grid.cuts[plus] == 1.0)
    down = ahead(mask, -1) & (grid.cuts[minus] == 1.0)
    central = mask & up & down
    fwd = mask & ~central & up & ahead(up, 1)
    bwd = mask & ~central & ~fwd & down & ahead(down, -1)
    v0, vp1, vp2 = values, ahead(values, 1), ahead(values, 2)
    vm1, vm2 = ahead(values, -1), ahead(values, -2)
    deriv = np.select(
        [central, fwd, bwd],
        [vp1 - vm1, -3.0 * v0 + 4.0 * vp1 - vp2, 3.0 * v0 - 4.0 * vm1 + vm2],
        np.nan) / (2.0 * grid.h)
    return deriv, central | fwd | bwd


def gradient(field: DiscreteField) -> TensorField:
    """Nodal gradient: central differences, one-sided at the boundary ring."""
    grid = field.grid
    gx, vx = _axis_derivative(field.values, grid.inside, grid, axis=1)
    gy, vy = _axis_derivative(field.values, grid.inside, grid, axis=0)
    valid = vx & vy
    comps = np.stack([np.where(valid, gx, np.nan),
                      np.where(valid, gy, np.nan)], axis=-1)
    return TensorField(grid=grid, components=comps, valid=valid)


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
    vals = np.where(inside, u.values, 0.0)

    def second(axis: int, t_plus: Array, t_minus: Array) -> Array:
        # across a cut edge the neighbor is the boundary crossing, value 0;
        # np.roll wraps, but the outer node rings are outside
        vp = np.where(t_plus < 1.0, 0.0, np.roll(vals, -1, axis))
        vm = np.where(t_minus < 1.0, 0.0, np.roll(vals, 1, axis))
        hp, hm = t_plus * h, t_minus * h
        return 2.0 * (vp / (hp * (hp + hm)) + vm / (hm * (hp + hm))
                      - vals / (hp * hm))

    uxx = second(1, grid.cuts["E"], grid.cuts["W"])
    uyy = second(0, grid.cuts["N"], grid.cuts["S"])

    g = gradient(u)
    gx = np.where(g.valid, g.components[..., 0], np.nan)
    gy = np.where(g.valid, g.components[..., 1], np.nan)
    fxy1, vxy1 = _axis_derivative(gx, g.valid, grid, axis=0)
    fxy2, vxy2 = _axis_derivative(gy, g.valid, grid, axis=1)
    valid = inside & vxy1 & vxy2
    uxy = 0.5 * (fxy1 + fxy2)
    comps = np.stack([np.where(valid, uxx, np.nan),
                      np.where(valid, uxy, np.nan),
                      np.where(valid, uyy, np.nan)], axis=-1)
    return TensorField(grid=grid, components=comps, valid=valid)


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------

def lp_norm_domain(field: DiscreteField | TensorField, p: float,
                   alpha: float = 0.0) -> float:
    """Normalized interior norm ``|| delta^alpha f ||_{p, Omega}``.

    The measure is dx / |Omega| via the exact cell areas; masked nodes are
    excluded (their volume fraction is available on TensorField).
    """
    if isinstance(field, TensorField):
        grid = field.grid
        mag = field.magnitude
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
    """Bilinear interpolation; a point is valid if its 4 cell nodes are
    inside and none of the cell's 4 edges is cut."""
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
    uncut = ((grid.cuts["E"][i0c, j0c] == 1.0)
             & (grid.cuts["E"][i0c + 1, j0c] == 1.0)
             & (grid.cuts["N"][i0c, j0c] == 1.0)
             & (grid.cuts["N"][i0c, j0c + 1] == 1.0))
    ok &= corners_in & uncut
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


def normal_derivative(u: DiscreteField, samples: tuple[Array, ...]) -> BoundaryTrace:
    """Outward normal derivative on the boundary by one-sided differences.

    ``samples`` are the boundary samples to differentiate at: a
    boundary table or its first five fields
    (phi, position, outward normal, curvature, arclength weight); the
    pipeline passes the coarse view of the domain's boundary table.  Uses
    ``u = 0`` on the boundary and bilinear samples at distances delta and 2
    delta inward along the normal (delta = ``_TRACE_STEP`` h = 3 h).  The
    trace is first-order accurate as measured: against a spectral reference
    its max error on the ellipse eps = 0.2 is 2.37e-3, 1.19e-3 and 5.93e-4
    at h = 1/64, 1/128 and 1/256.  Samples whose stencil leaves the interior
    are flagged and excluded.
    """
    grid = u.grid
    phi, pos, normal, _, weight = samples[:5]
    delta = _TRACE_STEP * grid.h
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


def gauss_map_deviation(domain: StarDomain2D, z, R: float) -> float:
    """``R || nu - (x - z)/R ||_{2, Gamma}`` with the normalized measure, by
    the trapezoid rule on the domain's boundary table."""
    z = np.asarray(z, dtype=float)
    table = domain.boundary_table
    dev = table.normal - (table.gamma - z) / R
    val = np.sum(dev * dev, axis=-1)
    return R * math.sqrt(float(np.sum(table.weight * val)
                               / np.sum(table.weight)))


def estimate_order(err_coarse: float, err_fine: float,
                   ratio: float = 2.0) -> float:
    """Observed convergence order from two errors at spacings h and h/ratio."""
    if err_coarse <= 0 or err_fine <= 0:
        raise DomainError("convergence order needs positive error pairs")
    return math.log(err_coarse / err_fine) / math.log(ratio)
