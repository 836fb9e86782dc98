"""Finite-difference torsion solver on star-shaped planar domains.

Solves ``lap u = 2`` with ``u = 0`` on the boundary using the five-point
Laplacian with Shortley-Weller corrections at irregular nodes: where a grid
edge crosses the boundary, the distance to its first crossing replaces the
full spacing, and the Dirichlet zero is imposed at the crossing.  One table
of the boundary's crossings with the grid lines, found by Newton's method on
the closed-form curve, gives the inside mask, those crossing distances and
the exact cut-cell areas.  A spacing is refused when no node lies inside,
or when the inside nodes fall into more than one component joined by the
five-point stencil's edges (4-connectivity): each row's runs of inside
nodes are joined with the runs of the next row that share a column, and
union-find counts the components.  BiCGSTAB preconditioned by a geometric
multigrid V-cycle solves the linear system, while a worker thread computes
the boundary distance delta.  The module also produces everything the identity
checks consume: the deepest point z, the auxiliary field h = |x-z|^2/2 - u,
gradients and Hessians, interior norms with exact cell areas and optional
weights by the boundary distance delta, and boundary traces of the normal
derivative.  delta is exact at every inside node and NaN outside: a walk on
the Delaunay graph of the coarse boundary vertices, seeded by one kd-tree
query per block of nodes, finds each node's nearest vertex, and Newton's
method projects from it onto the curve.

The memory a rung needs.  The solve keeps the grid, A, the multigrid
hierarchy and BiCGSTAB's vectors, and nothing else of a size set by A's
entries: no assembly lists, no copy of A or of its blocks.  Its traced
peak on the ladder ellipse (eps = 0.2) is about 405 bytes per unknown at
h = 1/128 (403-413 measured).  One rung alone in a fresh process
(``build_pipeline_data`` and the check battery) peaks at a resident set of
157 MB at h = 1/256 and 379 MB at 1/512 on that ellipse, and 152 and
359 MB on the cosine member (k = 2, eps = 0.1); about 71 MB of it is the
interpreter and the imports.
The limit is documented, not checked: no spacing is refused for the
memory its rung would need.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from .cones import AnalyticField
from .constants import normalized_norm
from .errors import DomainError, GeometryError
from .stardomain import (
    BoundaryTable,
    StarDomain2D,
    area,
    boundary_distance,
    nearest_vertex,
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
    "hessian_torsion",
    "lp_norm_domain",
    "bilinear",
    "normal_derivative",
    "gauss_map_deviation",
    "estimate_order",
]

_ROOT_STEPS = 64        # cap on the safeguarded Newton steps of a root
_T_MIN = 1e-8           # crossing-fraction snap to keep the matrix conditioned
_ON_BOUNDARY = 1e-13    # a node this many spacings from a crossing is on it
_AREA_TOL = 1e-12       # relative gap allowed between the areas and |Omega|
_TRACE_STEP = 3.0       # normal-derivative stencil step, in grid spacings
_DELTA_CHUNK = 8192     # nodes per nearest-vertex walk and projection of delta
_SEED_BLOCK = 4         # delta's walks start from the vertex of a 4 x 4 block
_COARSEST = 3000        # unknowns of the coarsest multigrid level, factored
_JACOBI = 0.8           # damping of the coarse levels' Jacobi sweeps
_RTOL = 1e-11           # true relative residual at which BiCGSTAB stops
_STEPS = 100            # BiCGSTAB steps in all before the solve fails
_RESIDUAL_ROWS = 8192   # rows per chunk of the true residual


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
    :class:`DiscreteField`.  A kd-tree over the domain's coarse table
    (1024 angles) gives the vertex nearest to the centre of each block of
    ``_SEED_BLOCK`` x ``_SEED_BLOCK`` nodes; from it, :func:`nearest_vertex`
    walks the Delaunay graph of the table to each node's nearest vertex,
    and :func:`boundary_distance` projects from that onto the closed-form
    curve.  ``delta`` is computed on first read, the walk and the
    projection in chunks of nodes so that their temporaries stay small;
    :func:`solve_torsion` makes that read on a worker thread while the
    linear solve runs.  ``index`` numbers the inside nodes red (i + j even)
    first, then black, each colour in row-major order; ``n_red`` counts the
    red ones.
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
    n_red: int = 0                # the red unknowns, numbered first

    @staticmethod
    def build(domain: StarDomain2D, h: float) -> "Grid":
        if not 0 < h < math.inf:
            raise DomainError(f"grid spacing must be positive and finite, "
                              f"got {h}")
        r_max = float(np.max(domain.boundary_table.r))
        n_side = int(math.ceil((r_max + 1.5 * h) / h))
        # node lines x, y = m h / 2 at even m, cell lines at odd m
        lines = 0.5 * h * np.arange(-2 * n_side - 1, 2 * n_side + 2)
        rows, cols = (_crossings(domain, lines, hz) for hz in (True, False))
        xs = lines[1::2]
        inside, cuts = _mask_and_cuts(rows, cols, xs)

        if not inside.any():
            raise GeometryError(f"no grid node lies inside the domain at "
                                f"h={h:g}; the grid is too coarse for it")
        n_comp = _components(inside)
        if n_comp != 1:
            raise GeometryError(
                f"inside region splits into {n_comp} grid components at "
                f"h={h:g}; the grid is too coarse for this shape"
            )

        # red nodes (i + j even) first, each colour in row-major order, so
        # the multigrid smoother reads each colour as one block of unknowns
        red = np.zeros_like(inside)
        red[::2, ::2], red[1::2, 1::2] = inside[::2, ::2], inside[1::2, 1::2]
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
                    n_unknowns=n_unknowns, n_red=n_red)

    @cached_property
    def delta(self) -> Array:
        """Boundary distance at the inside nodes, NaN outside; built on
        first read, ``_DELTA_CHUNK`` nodes at a time."""
        delta = np.full(self.inside.shape, np.nan)
        ii, jj = np.nonzero(self.inside)
        # each node walks from the vertex nearest to the centre of its
        # block of _SEED_BLOCK x _SEED_BLOCK nodes, one kd-tree query a block
        b = _SEED_BLOCK
        ny, nx = self.inside.shape
        blocks = np.pad(self.inside, ((0, -ny % b), (0, -nx % b)))
        blocks = blocks.reshape(-(-ny // b), b, -(-nx // b), b).any(axis=(1, 3))
        si, sj = np.nonzero(blocks)
        centres = np.stack([self.xs[b * sj], self.ys[b * si]], axis=-1)
        centres += 0.5 * (b - 1) * self.h
        seeds = np.zeros(blocks.shape, dtype=np.intp)
        _, seeds[si, sj] = cKDTree(self.domain.coarse_table.gamma).query(
            centres, workers=1)
        for start in range(0, ii.size, _DELTA_CHUNK):
            i, j = ii[start:start + _DELTA_CHUNK], jj[start:start + _DELTA_CHUNK]
            pts = np.stack([self.xs[j], self.ys[i]], axis=-1)
            nearest = nearest_vertex(self.domain, pts, seeds[i // b, j // b])
            delta[i, j] = boundary_distance(self.domain, pts, nearest)
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


def _components(mask: Array) -> int:
    """Number of 4-connected components of a 2-D boolean mask.

    Each row's runs of True are the nodes of a graph, joined to the runs of
    the next row that share a column with them.  Union-find counts the
    graph's components: every round hooks the larger root of each join
    under the smaller, and pointer jumping then flattens the trees.
    """
    step = np.diff(mask, prepend=False, append=False, axis=1)
    row, col = np.nonzero(step)  # each run's start, then its end (exclusive)
    width = mask.shape[1] + 1
    first = row[::2] * width + col[::2]
    last = row[::2] * width + col[1::2]
    # the runs of the next row that overlap [start, end): ends after the
    # start and starts before the end, both shifted one row down
    lo = np.searchsorted(last, first + width, side="right")
    hi = np.searchsorted(first, last + width, side="left")
    count = np.maximum(hi - lo, 0)
    a = np.repeat(np.arange(first.size), count)
    b = np.arange(a.size) + np.repeat(lo - np.cumsum(count) + count, count)
    root = np.arange(first.size)
    while True:
        ra, rb = root[a], root[b]
        join = ra != rb
        if not join.any():
            return int(np.count_nonzero(root == np.arange(first.size)))
        np.minimum.at(root, np.maximum(ra, rb)[join], np.minimum(ra, rb)[join])
        while True:
            hop = root[root]
            if np.array_equal(hop, root):
                break
            root = hop


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
    _, a, b = domain.coefficient_arrays()
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

def _assemble(grid: Grid) -> sparse.csr_matrix:
    """The Shortley-Weller matrix of ``grid``, built directly in CSR form.

    Row k belongs to the unknown k and lists its columns in ascending
    order, as the grid numbers each colour in row-major order: a red row
    holds its diagonal and then its black neighbours S, W, E, N, a black
    row its red neighbours S, W, E, N and then its diagonal.  A node
    couples to a neighbour only across an uncut edge: a cut edge ends at a
    Dirichlet zero.  The inside nodes keep off the grid's outer ring, so a
    neighbour's flat index stays in range.
    """
    inside, index = grid.inside.ravel(), grid.index.ravel()
    nx, n, h2 = grid.inside.shape[1], grid.n_unknowns, grid.h * grid.h
    n_red = grid.n_red
    node = np.empty(n, dtype=np.intp)  # the flat node of each unknown
    node[index[inside]] = np.flatnonzero(inside)
    t = {d: grid.cuts[d].ravel()[node] for d in "EWNS"}
    # the neighbours in the order of their columns: each one's step in the
    # flat grid and the direction opposite to it
    steps = (("S", -nx, "N"), ("W", -1, "E"), ("E", 1, "W"), ("N", nx, "S"))
    coupled = [(t[d] == 1.0) & inside[node + step] for d, step, _ in steps]

    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(1 + sum(coupled), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    diagonal = np.concatenate([indptr[:n_red], indptr[n_red + 1:] - 1])
    indices[diagonal] = np.arange(n)
    data[diagonal] = (-2.0 / (t["E"] * t["W"] * h2)
                      - 2.0 / (t["N"] * t["S"] * h2))
    free = indptr[:-1] + (np.arange(n) < n_red)  # each row's next entry
    for (d, step, opp), ok in zip(steps, coupled):
        rows = np.flatnonzero(ok)
        at = free[rows]
        indices[at] = index[node[rows] + step]
        t_this = t[d][rows]
        data[at] = 2.0 / (t_this * (t_this + t[opp][rows]) * h2)
        free[rows] += 1
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def _interpolation(A: sparse.csr_matrix, number: Array,
                   red_black: bool) -> tuple[sparse.csr_matrix, Array]:
    """The transpose R = P^T of the interpolation P that the rows of ``A``
    define from the nodes with even (i, j) to every node, and the numbering
    of the coarse level (Alcouffe, Brandt, Dendy & Painter 1981; de Zeeuw
    1990).

    ``number`` maps each node of the level to its row of A, -1 outside.  A
    coarse node injects its value.  A node between two coarse nodes on a
    grid line collapses its 3 x 3 stencil onto that line: on a row its west
    weight is w_W = -(a_SW + a_W + a_NW) / (a_S + a_C + a_N), and so on
    for the east side and for a node on a column.  A cell-centre node
    solves its own row, with its edge neighbours' values interpolated and
    its corners' injected.  An absent neighbour drops out of a sum, and a
    zero weight is left out of P.  Where no edge of a node's stencil is
    cut, the fine level's weights are bilinear interpolation's, 1/2 and
    1/4 (to the bit where h is a power of two); next to a cut the larger
    diagonal makes them sum to less than 1, so the node takes the
    Dirichlet zero at the crossing, not a coarse value beyond it.

    Each row of A lists its columns in the order of their nodes, red
    before black where ``red_black``: the five-point level that
    :func:`_assemble` builds.  A row that lists them in another order
    raises RuntimeError, a fault of the code and not of the domain.  The
    coarse level is the grid ``number[::2, ::2]`` and numbers its nodes in
    row-major order.  R's indices and the coarse numbering are int32.
    """
    ny, nx = number.shape
    cy, cx = -(-ny // 2), -(-nx // 2)
    # the nodes of a level fall into four classes by the parity (p, q) of
    # (i, j), and each class into the cells (a, b): node (2a + p, 2b + q).
    # The padded level holds node (i, j) at (i + 3, j + 3), so that every
    # class reads as an array over the cells a, b >= -1, shifted by one
    # node in any direction; the padding is outside
    padded = np.full((2 * cy + 7, 2 * cx + 7), -1, dtype=np.int32)
    padded[3:ny + 3, 3:nx + 3] = number
    shape, width = (cy + 2, cx + 2), padded.shape[1]

    def nodes(p: int, q: int) -> Array:
        i, j = 1 + p, 1 + q
        return padded[i:i + 2 * shape[0]:2, j:j + 2 * shape[1]:2]

    steps = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
             if not (red_black and di and dj)]
    # the cells, as flat indices, of the class's inside nodes
    cells = {pq: np.flatnonzero(nodes(*pq) >= 0)
             for pq in ((0, 1), (1, 0), (1, 1))}

    def stencil(p: int, q: int) -> dict:
        # A's entries, by step, in the rows of the class (p, q) inside
        # nodes, zero where a row has none.  One pass over the steps, in
        # the order of their columns, takes each row's next entry where
        # its column is the step's node; a row with entries left after the
        # pass does not list its columns in that order
        a, b = np.unravel_index(cells[p, q], shape)
        node = (2 * a + 1 + p) * width + 2 * b + 1 + q  # in padded, flat
        row = padded.ravel().take(node)
        at, end = A.indptr.take(row), A.indptr.take(row + 1)
        entries = {}
        for s in sorted(steps, key=lambda s: (
                red_black and (p + q + s[0] + s[1]) % 2, s)):
            column = padded.ravel().take(node + s[0] * width + s[1])
            hit = (at < end) & (A.indices.take(at, mode="clip") == column)
            entries[s] = np.where(hit, A.data.take(at, mode="clip"), 0.0)
            at += hit
        if np.any(at < end):
            raise RuntimeError("a row of the multigrid level lists its "
                               "columns out of the order of their nodes")
        return entries

    # table[k]: each node's weight towards the coarse node one step s_k
    # from it, for the steps s_k in raster order, zero at an outside node;
    # table[4] is the coarse node's own weight, 1
    raster = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    table = np.zeros((9,) + shape)
    table[4] = 1.0
    towards = dict(zip(raster, table))
    for (p, q), axis in (((0, 1), 1), ((1, 0), 0)):
        # nodes on a row (axis 1) or a column (axis 0) take weights towards
        # the coarse nodes before and after them on that line
        entries = stencil(p, q)
        line = [[entries[s] for s in steps if s[axis] == k]
                for k in (-1, 0, 1)]
        den = -sum(line[1][1:], line[1][0])
        for side, d in ((line[0], -1), (line[2], 1)):
            np.put(towards[(0, d) if axis else (d, 0)], cells[p, q],
                   sum(side[1:], side[0]) / den)
    entries, cell = stencil(1, 1), cells[1, 1]
    for di, dj in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
        # the edge neighbour in direction (di, 0) is the node on a row of
        # cell (a + 1, b) or (a, b), the one in direction (0, dj) the node
        # on a column of cell (a, b + 1) or (a, b)
        total = (entries[di, 0] * towards[0, dj].take(cell + (di > 0)
                                                      * shape[1])
                 + entries[0, dj] * towards[di, 0].take(cell + (dj > 0)))
        if (di, dj) in entries:
            total += entries[di, dj]
        np.put(towards[di, dj], cell, total / -entries[0, 0])

    # row (a, b) of R: the 3 x 3 nodes around coarse node (a, b), each
    # with its weight towards it.  Node (a, b) + s_k is of class
    # (|di|, |dj|) and cell (a + min(di, 0), b + min(dj, 0)), and the
    # coarse node is the step s_(8 - k) from it
    ka, kb = np.nonzero(nodes(0, 0) >= 0)
    coarse = np.full((cy, cx), -1, dtype=np.int32)
    coarse[ka - 1, kb - 1] = np.arange(ka.size)
    size = shape[0] * shape[1]
    fine = padded.ravel()[((2 * ka + 1) * width + 2 * kb + 1)[:, None]
                          + [di * width + dj for di, dj in raster]]
    weights = table.ravel()[(ka * shape[1] + kb)[:, None] + [
        (8 - k) * size + min(di, 0) * shape[1] + min(dj, 0)
        for k, (di, dj) in enumerate(raster)]]
    hit = (fine >= 0) & (weights != 0.0)
    indptr = np.zeros(ka.size + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(hit, axis=1), out=indptr[1:])
    R = sparse.csr_matrix((weights[hit], fine[hit], indptr),
                          shape=(ka.size, A.shape[0]))
    return R, coarse


def _row_block(A: sparse.csr_matrix, start: int, stop: int) -> sparse.csr_matrix:
    """Rows ``start:stop`` of ``A`` as a CSR matrix that shares A's values
    and column indices.  Slicing would copy them, and so would the
    constructor, which copies a view shorter than half the array it views;
    so the block takes the views as attributes."""
    lo, hi = A.indptr[start], A.indptr[stop]
    block = sparse.csr_matrix((stop - start, A.shape[1]), dtype=A.dtype)
    block.data, block.indices = A.data[lo:hi], A.indices[lo:hi]
    block.indptr = A.indptr[start:stop + 1] - lo
    return block


class _VCycle:
    """One multigrid V-cycle for the Shortley-Weller matrix, as the linear
    map M of a right-preconditioned BiCGSTAB, which applies it twice a step.

    ``A`` numbers its unknowns red (i + j even) first, ``n_red`` of them, as
    ``number`` maps the grid nodes to them: :meth:`Grid.build` numbers them
    so.  Each coarser level is the Galerkin product A_c = R A P, R = P^T,
    down to at most ``_COARSEST`` unknowns, which SuperLU factors.  P is
    built from the rows of the level's own operator at every level, the
    nine-point coarse ones included (see :func:`_interpolation`; Alcouffe,
    Brandt, Dendy & Painter, SIAM J. Sci. Stat. Comput. 2, 1981; de Zeeuw,
    J. Comput. Appl. Math. 33, 1990), so that a node next to a cut edge
    takes the Dirichlet zero at the crossing, as its Shortley-Weller row
    does.  As a stationary iteration the cycle reduces the residual by a
    factor of 0.11-0.19 a cycle from h = 1/64 to 1/512 on the ladder
    members and the tests' mixed shape.  Each coarse level's rows are
    sorted by column before its P is read from them.  The fine level is
    smoothed by one red-black Gauss-Seidel sweep before and after the
    coarse correction: the five-point stencil couples a node only to nodes
    of the other colour, so each half-sweep solves its colour exactly, and
    the presmoothing sweep leaves no black residual.  The nine-point
    coarse levels are smoothed by two damped Jacobi sweeps before and
    after.  A system of at most ``_COARSEST`` unknowns is factored whole.

    The cycle keeps no copy of A.  The half-sweeps multiply by the red and
    the black rows of A (see :func:`_row_block`), which also read the
    colour being solved for; that colour is zero in the vector they
    multiply, so each sum adds the same terms in the same order as a
    product by the other colour's columns alone, and zeros.  The fine
    residual is restricted by R from a vector that is zero on black, and
    P is applied as the transpose view ``R.T``.  A call allocates its
    result and one more fine vector.
    """

    def __init__(self, A: sparse.csr_matrix, number: Array, n_red: int):
        self.levels, self.R = [], None
        if A.shape[0] <= _COARSEST:
            self.lu = splu(A.tocsc())
            return
        d = A.diagonal()
        self.n_red, self.d_red, self.d_black = n_red, d[:n_red], d[n_red:]
        self.A_red = _row_block(A, 0, n_red)
        self.A_black = _row_block(A, n_red, A.shape[0])
        self.R, number = _interpolation(A, number, True)
        A = self.R @ A @ self.R.T
        while A.shape[0] > _COARSEST:
            A.sort_indices()
            R, number = _interpolation(A, number, False)
            self.levels.append((A, _JACOBI / A.diagonal(), R))
            A = R @ A @ R.T
        self.lu = splu(A.tocsc())

    def __call__(self, b: Array) -> Array:
        if self.R is None:
            return self.lu.solve(b)
        red, black = slice(0, self.n_red), slice(self.n_red, None)
        x = np.zeros_like(b)
        np.divide(b[red], self.d_red, out=x[red])
        self._sweep(self.A_black, self.d_black, b, x, black)
        # the residual is -A_rb x_black on red and zero on black: w is
        # first (0, x_black), then (A_rb x_black, 0)
        w = np.zeros_like(b)
        w[black] = x[black]
        w[red] = self.A_red @ w
        w[black] = 0.0
        w = self.R @ w
        x -= self.R.T @ self._coarse(w, 0)
        self._sweep(self.A_red, self.d_red, b, x, red)
        self._sweep(self.A_black, self.d_black, b, x, black)
        return x

    @staticmethod
    def _sweep(rows, d: Array, b: Array, x: Array, colour: slice) -> None:
        """Solve the rows of one colour exactly for x on that colour."""
        x[colour] = 0.0
        y = rows @ x
        np.subtract(b[colour], y, out=y)
        np.divide(y, d, out=x[colour])

    def _coarse(self, b: Array, level: int) -> Array:
        if level == len(self.levels):
            return self.lu.solve(b)
        A, scale, R = self.levels[level]
        x = scale * b
        x += scale * (b - A @ x)
        x += R.T @ self._coarse(R @ (b - A @ x), level + 1)
        for _ in range(2):
            x += scale * (b - A @ x)
        return x


def _norm(v: Array) -> float:
    """Euclidean norm by pairwise ``np.sum``, as every reduction of
    :func:`_bicgstab` is taken: np.linalg.norm's BLAS ddot wakes the
    OpenBLAS thread pool, whose helper then spins on a core that a sibling
    pool worker needs."""
    return math.sqrt(float(np.sum(v * v)))


def _true_residual(A: sparse.csr_matrix):
    """The map (b, x, out) -> b - A x, written to ``out`` and summed as
    b_i - sum_j a_ij (x_j - x_i) - s_i x_i with the row sums s_i of A, zero
    away from cut nodes.

    The products a_ij x_j of b - A x are near 4 |x| / h^2 and at h = 1/512
    round to an error near ``_RTOL``; the differences x_j - x_i are small
    where u is smooth.  It runs over ``_RESIDUAL_ROWS`` rows at a time, so
    that no temporary has an entry per entry of A, and sums each row's
    terms in A's order, as one pass over all rows would.
    """
    n, indptr = A.shape[0], A.indptr
    chunks = [(lo, min(lo + _RESIDUAL_ROWS, n))
              for lo in range(0, n, _RESIDUAL_ROWS)]

    def entries(lo: int, hi: int):
        # the entries of rows lo:hi and the row of each, counted from lo
        at = slice(indptr[lo], indptr[hi])
        return at, np.repeat(np.arange(hi - lo), np.diff(indptr[lo:hi + 1]))

    row_sums = np.empty(n)
    for lo, hi in chunks:
        at, row = entries(lo, hi)
        row_sums[lo:hi] = np.bincount(row, A.data[at], hi - lo)

    def residual(b: Array, x: Array, out: Array) -> Array:
        for lo, hi in chunks:
            at, row = entries(lo, hi)
            terms = x[A.indices[at]]
            terms -= x[lo:hi][row]
            terms *= A.data[at]
            np.subtract(b[lo:hi], np.bincount(row, terms, hi - lo)
                        + row_sums[lo:hi] * x[lo:hi], out=out[lo:hi])
        return out
    return residual


def _bicgstab(A: sparse.csr_matrix, b: Array,
              precondition) -> tuple[Array, float]:
    """Solve ``A x = b`` to the true relative residual ``_RTOL`` by
    right-preconditioned BiCGSTAB (van der Vorst 1992): x = M y, where
    ``precondition`` applies M and returns a new array.  Returns x and its
    true relative residual.

    The recursive residual drifts from b - A x, so a round that brings it
    under the target is followed by a round from the true residual (see
    :func:`_true_residual`), until that is under the target too.  Raises
    :class:`GeometryError` when a round ends above the target without
    halving the true residual it started from, which the rounding of
    b - A x can stop from falling further; after ``_STEPS`` steps; or on a
    zero denominator.

    The recurrences are van der Vorst's, updated in place: x, r, the
    shadow residual and p are the solve's own vectors, and b is only read.
    Each step's M p, A M p, M r and A M r are new arrays that hold the
    step's scaled updates once read and are dropped at the step's end.  p
    keeps p - omega v from one step to the next.  Every update forms the
    same products and sums as the textbook expressions, in a commuted
    order, so x is the same to the bit.
    """
    def quotient(num: float, den: float) -> float:
        # Python floats would raise ZeroDivisionError, not a solver failure
        if den == 0.0:
            raise GeometryError(f"BiCGSTAB broke down after {steps} "
                                "iterations on a zero denominator")
        return num / den

    def dot(u: Array, v: Array) -> float:
        return float(np.sum(u * v))

    true_residual = _true_residual(A)
    norm_b = _norm(b)
    target = _RTOL * norm_b
    x, r, shadow, p = (np.zeros_like(b), b.copy(), np.empty_like(b),
                       np.empty_like(b))
    steps, start = 0, math.inf
    while (res := _norm(r)) > target:
        if res > start / 2.0:
            raise GeometryError(
                f"BiCGSTAB stalled after {steps} iterations: a round from "
                f"relative residual {start / norm_b:.3e} ended at "
                f"{res / norm_b:.3e}, above {_RTOL:g}")
        start = res
        np.copyto(shadow, r)
        rho, alpha, omega = 1.0, 1.0, 1.0
        p.fill(0.0)   # p - omega v at v = 0
        while res > target:
            if steps >= _STEPS:
                raise GeometryError(
                    f"BiCGSTAB stopped after {steps} iterations at relative "
                    f"residual {res / norm_b:.3e}, above {_RTOL:g}")
            steps += 1
            rho, last = dot(shadow, r), rho
            p *= quotient(rho, last) * quotient(alpha, omega)
            p += r
            p_hat = precondition(p)
            v = A @ p_hat
            alpha = quotient(rho, dot(shadow, v))
            p_hat *= alpha
            x += p_hat
            r -= np.multiply(v, alpha, out=p_hat)
            del p_hat
            # a solution in the Krylov space leaves r = 0 here, and then
            # t = A M r = 0 below
            if (res := _norm(r)) <= target:
                del v
                break
            s_hat = precondition(r)
            t = A @ s_hat
            omega = quotient(dot(t, r), dot(t, t))
            s_hat *= omega
            x += s_hat
            r -= np.multiply(t, omega, out=s_hat)
            p -= np.multiply(v, omega, out=t)
            del s_hat, t, v
            res = _norm(r)
        true_residual(b, x, r)
    return x, res / norm_b


def spsolve(A: sparse.csr_matrix, rhs: Array,
            grid: Grid) -> tuple[Array, float]:
    """Solve the Shortley-Weller system ``A x = rhs`` of ``grid``, whose
    map ``index`` numbers its ``n_red`` red (i + j even) unknowns first, by
    BiCGSTAB preconditioned with a geometric multigrid V-cycle (see
    :class:`_VCycle`).  Returns x and its true relative residual
    ||rhs - A x|| / ||rhs||, the one the last BiCGSTAB round stopped on
    (see :func:`_true_residual`).  It takes 5-6 steps (10-12 V-cycles)
    from h = 1/64 to 1/512 on the ladder members, whose solution it gives
    within 1e-12 of a direct factorization's.  No step calls BLAS (see
    :func:`_norm`), and none writes to A or rhs.
    """
    return _bicgstab(A, rhs, _VCycle(A, grid.index, grid.n_red))


def solve_torsion(domain: StarDomain2D, h: float) -> tuple[DiscreteField, SolveReport]:
    """Shortley-Weller discretization of ``lap u = 2``, ``u = 0`` on the boundary."""
    grid = Grid.build(domain, h)
    A = _assemble(grid)
    rhs = np.full(grid.n_unknowns, 2.0)

    # the first read of delta overlaps the solve where either side releases
    # the interpreter lock: the seed query of the kd-tree and the numpy
    # operations on whole chunks of the walk and the projection do, scipy's
    # sparse products do not
    with ThreadPoolExecutor(max_workers=1) as worker:
        reading = worker.submit(getattr, grid, "delta")
        sol, residual = spsolve(A, rhs, grid)
        reading.result()
    if not np.all(np.isfinite(sol)):
        raise GeometryError("linear solver returned non-finite values")

    values = np.full(grid.inside.shape, np.nan)
    values[grid.inside] = sol[grid.index[grid.inside]]
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
    fxy1, vxy1 = _axis_derivative(g.components[..., 0], g.valid, grid, axis=0)
    fxy2, vxy2 = _axis_derivative(g.components[..., 1], g.valid, grid, axis=1)
    valid = vxy1 & vxy2
    uxy = 0.5 * (fxy1 + fxy2)
    comps = np.stack([np.where(valid, uxx, np.nan),
                      np.where(valid, uxy, np.nan),
                      np.where(valid, uyy, np.nan)], axis=-1)
    return TensorField(grid=grid, components=comps, valid=valid)


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------

def lp_norm_domain(field: TensorField, p: float, alpha: float = 0.0) -> float:
    """Normalized interior norm ``|| delta^alpha |f| ||_{p, Omega}`` of a
    tensor field's magnitude.

    The measure is dx / |Omega| via the exact cell areas; masked nodes are
    excluded (their volume fraction is :attr:`TensorField.excluded_fraction`).
    """
    grid = field.grid
    mask = field.valid & grid.inside
    vals = field.magnitude[mask]
    if alpha != 0.0:
        vals = vals * grid.delta[mask] ** alpha
    return normalized_norm(vals, grid.cell_weights[mask], p,
                           float(np.sum(grid.cell_weights)))


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
    """Values of a quantity at the samples of a boundary table, with
    exclusions; the table holds the samples' angles, positions, normals,
    curvatures and arclength weights."""

    table: BoundaryTable
    values: Array
    valid: Array

    @property
    def excluded_fraction(self) -> float:
        weight = self.table.weight
        return float(np.sum(weight[~self.valid]) / np.sum(weight))


def normal_derivative(u: DiscreteField) -> BoundaryTrace:
    """Outward normal derivative on the boundary by one-sided differences.

    Samples the coarse view of the domain's boundary table
    (:attr:`StarDomain2D.coarse_table`, 1024 uniform angles).  Uses
    ``u = 0`` on the boundary and bilinear samples at distances delta and 2
    delta inward along the normal (delta = ``_TRACE_STEP`` h = 3 h).  The
    trace is first-order accurate as measured: against a spectral reference
    its max error on the ellipse eps = 0.2 is 2.37e-3, 1.19e-3 and 5.93e-4
    at h = 1/64, 1/128 and 1/256.  Samples whose stencil leaves the interior
    are flagged and excluded.
    """
    grid = u.grid
    table = grid.domain.coarse_table
    delta = _TRACE_STEP * grid.h
    v1, ok1 = bilinear(u, table.gamma - delta * table.normal)
    v2, ok2 = bilinear(u, table.gamma - 2.0 * delta * table.normal)
    valid = ok1 & ok2
    vals = (v2 - 4.0 * v1) / (2.0 * delta)
    return BoundaryTrace(table=table, values=np.where(valid, vals, np.nan),
                         valid=valid)


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
