"""Tests for the finite-difference torsion solver.

Oracles: the closed-form torsion function of disks and ellipses (quadratic,
so the Shortley-Weller scheme reproduces it to rounding), analytic crossing
points of grid edges with a circle, hand-integrated boundary-distance
moments on the disk, closed-form disk-square intersection areas, polar
quadrature of cut cells, the strict radial inclusion test, a direct LU
factorization of the whole system for the multigrid-preconditioned solve,
the multigrid interpolation formula evaluated one node at a time, and
Richardson self-comparison on a cosine domain where the solution is
genuinely non-quadratic.
"""
from __future__ import annotations

import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy import sparse
from scipy.optimize import brentq
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from oscbound import torsion
from oscbound.errors import DomainError, GeometryError
from oscbound.stability import FamilySpec, build_family_domain
from oscbound.stardomain import (
    StarDomain2D,
    area,
    boundary_distance,
    nearest_vertex,
    rotated,
)
from oscbound.torsion import (
    DiscreteField,
    Grid,
    SolveReport,
    TensorField,
    bilinear,
    estimate_order,
    exact_ellipse_torsion,
    gauss_map_deviation,
    gradient,
    h_field,
    hessian_torsion,
    locate_min,
    lp_norm_domain,
    normal_derivative,
    solve_torsion,
)
from oscbound.torsion import (
    _cell_areas,
    _crossings,
    _gradient_parts,
    _hessian_parts,
)

ELLIPSE_A, ELLIPSE_B = 2.0, 1.0
# eight deep nonconvex petals, off-axis
PETALS = rotated(StarDomain2D(c0=0.5, cos_coeffs=(0, 0, 0, 0, 0, 0, 0, 0.45)),
                 math.pi / 8.0)


@pytest.fixture(scope="module")
def disk_solve():
    domain = StarDomain2D(c0=1.0)
    u, report = solve_torsion(domain, 1.0 / 32.0)
    return domain, u, report


@pytest.fixture(scope="module")
def ellipse_solve():
    domain = StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)
    u, report = solve_torsion(domain, 1.0 / 64.0)
    return domain, u, report


@pytest.fixture(scope="module")
def cosine_solves():
    domain = StarDomain2D.cosine(0.15, 3)
    return domain, {k: solve_torsion(domain, 1.0 / k)[0] for k in (16, 32, 64)}


def nodal(grid: Grid, fun) -> DiscreteField:
    X, Y = np.meshgrid(grid.xs, grid.ys)
    return DiscreteField(grid, np.where(grid.inside, fun(X, Y), np.nan))


def unit_vectors(grid: Grid) -> TensorField:
    """A vector field of magnitude 1 at every inside node."""
    return TensorField(grid=grid, magnitude=np.ones(grid.inside.shape),
                       valid=grid.inside.copy())


# --------------------------------------------------------------------------
# grid construction
# --------------------------------------------------------------------------

def test_grid_origin_is_a_node_and_index_is_a_permutation(disk_solve):
    _, u, _ = disk_solve
    grid = u.grid
    assert 0.0 in grid.xs and 0.0 in grid.ys
    labels = grid.index[grid.inside]
    assert np.array_equal(np.sort(labels), np.arange(grid.n_unknowns))
    assert np.all(grid.index[~grid.inside] == -1)


def test_cell_weights_sum_to_exact_area(disk_solve, ellipse_solve):
    for domain, u, _ in (disk_solve, ellipse_solve):
        w = u.grid.cell_weights
        assert abs(float(w.sum()) - area(domain)) < 1e-12 * area(domain)
        assert np.all(w[~u.grid.inside] == 0.0)
        assert np.all(w >= 0.0)


def test_edge_cut_fractions_match_analytic_circle_crossings(disk_solve):
    _, u, _ = disk_solve
    grid = u.grid
    h = grid.h
    X, Y = np.meshgrid(grid.xs, grid.ys)
    east = grid.fractions("E")
    cut = east < 1.0
    x, y, t_num = X[cut], Y[cut], east[cut]
    # edge from (x, y) heading +x crosses the unit circle at sqrt(1 - y^2)
    t_exact = (np.sqrt(1.0 - y**2) - x) / h
    generic = t_exact > 1e-6  # skip near-tangent edges snapped to the floor
    assert generic.sum() > 50
    assert float(np.max(np.abs(t_num[generic] - t_exact[generic]))) < 1e-10
    for name in ("E", "W", "N", "S"):
        vals = grid.fractions(name)
        assert np.all((vals > 0.0) & (vals <= 1.0))
        # the grid keeps only the cut edges, each at an inside node
        nodes, kept = grid.cuts[name]
        assert np.array_equal(nodes, np.flatnonzero(vals < 1.0))
        assert np.all(grid.inside.ravel()[nodes]) and np.all(kept < 1.0)


@pytest.mark.parametrize("domain, h", [
    (StarDomain2D(c0=1.0), 1.0 / 32.0),  # four nodes lie on the circle
    # apex and vertex are nodes, on grid lines tangent to the curve
    (StarDomain2D.ellipse(1.0, 0.75), 1.0 / 32.0),
    (PETALS, 1.0 / 32.0),
    (PETALS, 1.0 / 64.0),
    (StarDomain2D.cosine(0.9, 8), 1.0 / 64.0),
    (build_family_domain(FamilySpec(kind="ellipse"), 0.2), 1.0 / 256.0),
    (build_family_domain(FamilySpec(kind="cosine_perturbation"), 0.1),
     1.0 / 256.0),
], ids=["circle", "ellipse", "petals32", "petals64", "cosine8",
        "ladder_ellipse", "ladder_cosine"])
def test_inside_mask_matches_the_radial_test(domain, h):
    grid = Grid.build(domain, h)
    X, Y = np.meshgrid(grid.xs, grid.ys)
    want = domain.contains(np.stack([X.ravel(), Y.ravel()], axis=-1))
    assert np.array_equal(grid.inside, want.reshape(grid.inside.shape))


def test_grid_build_makes_no_inclusion_test(monkeypatch):
    def refuse(self, points):
        raise AssertionError("Grid.build called contains")

    monkeypatch.setattr(StarDomain2D, "contains", refuse)
    grid = Grid.build(PETALS, 1.0 / 32.0)
    assert grid.n_unknowns > 0


@pytest.mark.parametrize("h", [1.0 / 64.0, 1.0 / 128.0])
def test_edges_that_leave_the_domain_between_inside_nodes_are_cut(h):
    # near the necks of eight deep petals a grid edge can pass through the
    # exterior although both of its nodes are inside
    domain = StarDomain2D.cosine(0.9, 8)
    u, _ = solve_torsion(domain, h)
    grid = u.grid
    inside = grid.inside
    ny, nx = inside.shape
    s = np.arange(1, 256) / 256.0
    ends = np.zeros_like(inside)
    for name, back, di, dj in (("E", "W", 0, 1), ("N", "S", 1, 0)):
        both = np.zeros_like(inside)
        both[:ny - di, :nx - dj] = inside[:ny - di, :nx - dj]
        both[:ny - di, :nx - dj] &= inside[di:, dj:]
        ii, jj = np.nonzero(both)
        base = np.stack([grid.xs[jj], grid.ys[ii]], axis=-1)
        step = h * np.array([dj, di], dtype=float)
        pts = base[:, None, :] + s[None, :, None] * step
        outside = ~domain.contains(pts.reshape(-1, 2)).reshape(ii.size, -1)
        leaves = outside.any(axis=1)
        t = grid.fractions(name)[ii, jj]
        assert leaves.sum() == 4
        assert np.array_equal(t < 1.0, leaves)
        assert np.array_equal(grid.fractions(back)[ii + di, jj + dj] < 1.0,
                              leaves)
        # the cut is the first crossing along the edge
        first_out = s[np.argmax(outside[leaves], axis=1)]
        t, base = t[leaves], base[leaves]
        assert np.all((t < first_out) & (first_out <= t + 1.0 / 256.0))
        t = t[:, None]
        assert domain.contains(base + (t - 1e-9) * step).all()
        assert not domain.contains(base + (t + 1e-9) * step).any()
        ends[ii[leaves], jj[leaves]] = True
        ends[ii[leaves] + di, jj[leaves] + dj] = True
    # solver rows and Hessian diagonal both see the zero at the crossing
    uxx, _, uyy, valid = _hessian_parts(u)
    assert (valid & ends).sum() == 16
    trace = uxx + uyy
    assert float(np.max(np.abs(trace - 2.0)[ends])) < 1e-9


@pytest.mark.parametrize("h", [1.0 / 64.0, 1.0 / 128.0])
def test_stencils_do_not_reach_across_cut_edges(h):
    # a value at the far end of an edge that leaves the domain between two
    # inside nodes must not move any derivative at the near end
    grid = Grid.build(StarDomain2D.cosine(0.9, 8), h)
    base = nodal(grid, lambda X, Y: np.sin(1.3 * X) * np.cos(0.7 * Y))
    def at_node(field, i, j):
        # every gradient and Hessian entry, and both magnitudes, at (i, j)
        parts = _gradient_parts(field)[:2] + _hessian_parts(field)[:3] + (
            gradient(field).magnitude, hessian_torsion(field).magnitude)
        return np.array([part[i, j] for part in parts])

    pairs = 0
    for name, di, dj in (("E", 0, 1), ("W", 0, -1), ("N", 1, 0), ("S", -1, 0)):
        far = np.roll(grid.inside, (-di, -dj), (0, 1))
        for i, j in zip(*np.nonzero(grid.inside & far
                                    & (grid.fractions(name) < 1.0))):
            values = base.values.copy()
            values[i + di, j + dj] += 1e3
            field = DiscreteField(grid, values)
            assert np.array_equal(at_node(field, i, j), at_node(base, i, j),
                                  equal_nan=True)
            pairs += 1
    assert pairs == 16  # the 8 edges, seen from both ends


def disk_cell_area(R: float, x0: float, x1: float, y0: float,
                   y1: float) -> float:
    """Closed-form area of the disk of radius R with [x0, x1] x [y0, y1].

    The height of the intersection over x is piecewise y1 or sqrt(R^2 - x^2)
    on top and y0 or -sqrt(R^2 - x^2) below; each piece integrates with the
    antiderivative (x s + R^2 atan2(x, s)) / 2 of s = sqrt(R^2 - x^2).
    """
    def s(x):
        return math.sqrt(max((R - x) * (R + x), 0.0))

    def S(x):
        return 0.5 * (x * s(x) + R * R * math.atan2(x, s(x)))

    knots = {x0, x1, -R, R}
    knots |= {sign * s(y) for y in (y0, y1) if abs(y) < R for sign in (-1, 1)}
    knots = sorted(x for x in knots if x0 <= x <= x1)
    total = 0.0
    for a, b in zip(knots, knots[1:]):
        top, bottom = min(y1, s(0.5 * (a + b))), max(y0, -s(0.5 * (a + b)))
        if top > bottom:
            arc = S(b) - S(a)
            total += ((y1 * (b - a) if top == y1 else arc)
                      - (y0 * (b - a) if bottom == y0 else -arc))
    return total


def polar_cell_area(domain: StarDomain2D, x0: float, x1: float, y0: float,
                    y1: float) -> float:
    """Area of the domain in a cell away from the origin, by quadrature over
    the ray angle of (min(r, exit)^2 - entry^2)+ / 2, where the ray from the
    origin enters and leaves the cell at radii entry and exit; the
    quadrature splits where the curve passes either radius."""
    corners = np.arctan2([y0, y0, y1, y1], [x0, x1, x0, x1])
    if np.ptp(corners) > math.pi:
        corners = np.mod(corners, 2.0 * math.pi)
    corners = np.sort(corners)

    def radii(phi):
        with np.errstate(divide="ignore"):
            tx = np.sort([x0 / np.cos(phi), x1 / np.cos(phi)], axis=0)
            ty = np.sort([y0 / np.sin(phi), y1 / np.sin(phi)], axis=0)
        return np.maximum(tx[0], ty[0]), np.minimum(tx[1], ty[1])

    def integrand(phi):
        enter, leave = radii(phi)
        top = min(float(domain.radial(phi)), float(leave))
        return 0.5 * (top * top - enter * enter) if top > enter else 0.0

    knots = list(corners)
    phi = np.linspace(corners[0], corners[-1], 4001)
    for side in (0, 1):
        def gap(p):
            return domain.radial(p) - radii(p)[side]
        g = np.sign(gap(phi))
        for m in np.flatnonzero(g[:-1] != g[1:]):
            knots.append(brentq(gap, phi[m], phi[m + 1], xtol=1e-16))
    knots = sorted(knots)
    return sum(quad(integrand, a, b, epsabs=1e-17, epsrel=1e-13, limit=200)[0]
               for a, b in zip(knots, knots[1:]))


def raw_cell_areas(domain: StarDomain2D, h: float, n_side: int = 0):
    """Node coordinates and cell areas before any hand-off, on a grid of
    2 n_side + 1 nodes a side (by default reaching 1.25 from the origin)."""
    n_side = n_side or math.ceil(1.25 / h)
    lines = 0.5 * h * np.arange(-2 * n_side - 1, 2 * n_side + 2)
    rows, cols = (_crossings(domain, lines, hz) for hz in (True, False))
    return lines[1::2], _cell_areas(domain, rows, cols, lines)


@pytest.mark.parametrize("radius", [1.0, 0.8])
def test_cell_areas_match_disk_square_intersections(radius):
    domain, h = StarDomain2D(c0=radius), 1.0 / 32.0
    xs, areas = raw_cell_areas(domain, h)
    cells = list(zip(*np.nonzero(areas)))
    exact = [disk_cell_area(radius, xs[j] - h / 2, xs[j] + h / 2,
                            xs[i] - h / 2, xs[i] + h / 2) for i, j in cells]
    err = np.abs(areas[tuple(np.transpose(cells))] - exact)
    assert float(err.max()) < 1e-12 * h * h
    assert abs(float(areas.sum()) - area(domain)) < 1e-14


def test_cell_weights_hand_off_matches_the_neighbor_loop():
    # the area in an outside node's cell goes to its first inside neighbor,
    # east, west, north, south, then the diagonals
    h = 1.0 / 32.0
    grid = Grid.build(PETALS, h)
    _, want = raw_cell_areas(PETALS, h, (grid.xs.size - 1) // 2)
    stranded = list(zip(*np.nonzero((want != 0.0) & ~grid.inside)))
    assert len(stranded) > 100
    for i, j in stranded:
        for di, dj in ((0, 1), (0, -1), (1, 0), (-1, 0),
                       (1, 1), (1, -1), (-1, 1), (-1, -1)):
            if grid.inside[i + di, j + dj]:
                want[i + di, j + dj] += want[i, j]
                break
        want[i, j] = 0.0
    assert np.allclose(grid.cell_weights, want, rtol=0.0, atol=1e-15 * h * h)


def test_petal_cell_areas_match_polar_quadrature():
    h = 1.0 / 32.0
    xs, areas = raw_cell_areas(PETALS, h)
    cut = np.argwhere((areas > 0.0) & (areas < h * h * (1.0 - 1e-12)))
    rng = np.random.default_rng(11)
    for i, j in cut[rng.choice(len(cut), 30, replace=False)]:
        want = polar_cell_area(PETALS, xs[j] - h / 2, xs[j] + h / 2,
                               xs[i] - h / 2, xs[i] + h / 2)
        assert abs(areas[i, j] - want) < 1e-11 * h * h


def test_boundary_distance_table_matches_disk_distance(disk_solve):
    domain, u, _ = disk_solve
    grid = u.grid
    X, Y = np.meshgrid(grid.xs, grid.ys)
    exact = np.abs(1.0 - np.hypot(X, Y))
    inside = grid.inside
    # every inside node is projected onto the exact curve; outside nodes
    # hold NaN, as the values of a DiscreteField
    err = np.abs(grid.delta[inside] - exact[inside])
    assert float(err.max()) < 1e-12
    assert np.isnan(grid.delta[~inside]).all()
    # the projection is exact outside the curve too
    out = np.argwhere(~inside)
    pts = np.stack([grid.xs[out[:, 1]], grid.ys[out[:, 0]]], axis=-1)
    err = np.abs(argmin_distance(domain, pts) - exact[~inside])
    assert float(err.max()) < 1e-12


def argmin_distance(domain: StarDomain2D, pts: np.ndarray) -> np.ndarray:
    """boundary_distance seeded by each point's argmin over the coarse
    table (the first on a tie), in place of the walk on the Delaunay
    graph."""
    gamma = domain.coarse_table.gamma
    near = np.argmin(np.linalg.norm(gamma[None] - pts[:, None], axis=-1),
                     axis=1)
    return boundary_distance(domain, pts, near)


@pytest.mark.parametrize("domain", [
    # no mirror symmetry: r = 1 + 0.2 (cos 2 phi + sin 3 phi / 2)
    StarDomain2D(c0=1.0, cos_coeffs=(0.0, 0.2), sin_coeffs=(0.0, 0.0, 0.1)),
    # eight deep nonconvex petals, off-axis
    rotated(StarDomain2D(c0=0.5, cos_coeffs=(0, 0, 0, 0, 0, 0, 0, 0.45)),
            math.pi / 8.0),
], ids=["mixed", "petals"])
def test_delta_seeds_from_the_nearest_coarse_vertex(domain):
    # the walk from the kd-tree seeds picks the vertex an argmin over the
    # coarse table picks
    grid = Grid.build(domain, 1.0 / 64.0)
    rng = np.random.default_rng(7)
    ii, jj = np.nonzero(grid.inside)
    pick = rng.choice(ii.size, 500, replace=False)
    i, j = ii[pick], jj[pick]
    want = argmin_distance(domain, np.stack([grid.xs[j], grid.ys[i]], axis=-1))
    assert float(np.max(np.abs(grid.delta[i, j] - want))) < 1e-12
    # delta is computed at the inside nodes only
    assert np.isnan(grid.delta[~grid.inside]).all()


def squared_distances(domain: StarDomain2D, pts: np.ndarray) -> np.ndarray:
    """``dx * dx + dy * dy`` from each point to each coarse-table vertex."""
    gamma = domain.coarse_table.gamma
    dx = gamma[None, :, 0] - pts[:, 0, None]
    dy = gamma[None, :, 1] - pts[:, 1, None]
    return dx * dx + dy * dy


@pytest.mark.parametrize("domain", [
    StarDomain2D(c0=1.0, cos_coeffs=(0.0, 0.2), sin_coeffs=(0.0, 0.0, 0.1)),
    PETALS,
    rotated(build_family_domain(FamilySpec(kind="ellipse"), 0.2), 1.234),
    # the vertices lie within 1e-3 of one circle: many near-ties
    StarDomain2D(c0=1.0, cos_coeffs=(0.0, 1e-3)),
], ids=["mixed", "petals", "rotated-ellipse", "near-circle"])
def test_walk_finds_the_brute_force_nearest_vertex(domain):
    # at every inside node the walk's vertex has the least squared distance
    # of all 1024 coarse vertices, from the kd-tree's vertex and from a
    # random one, and delta is the projection from it: bit for bit
    # argmin_distance where both pick the same vertex, which they do but
    # where the rounded distances tie
    grid = Grid.build(domain, 1.0 / 128.0)
    ii, jj = np.nonzero(grid.inside)
    pts = np.stack([grid.xs[jj], grid.ys[ii]], axis=-1)
    _, kd = cKDTree(domain.coarse_table.gamma).query(pts)
    walk = nearest_vertex(domain, pts, kd)
    assert np.array_equal(grid.delta[ii, jj],
                          boundary_distance(domain, pts, walk))
    pick = np.random.default_rng(3).choice(ii.size, 4096, replace=False)
    far = np.random.default_rng(4).integers(0, 1024, pick.size)
    assert np.array_equal(nearest_vertex(domain, pts[pick], far), walk[pick])
    near = np.empty_like(walk)
    for lo in range(0, ii.size, 2048):
        part = slice(lo, lo + 2048)
        d2 = squared_distances(domain, pts[part])
        rows = np.arange(d2.shape[0])
        assert np.array_equal(d2[rows, walk[part]], d2.min(axis=1))
        # np.linalg.norm, as argmin_distance takes it, is sqrt(d2) bit for bit
        dist = np.sqrt(d2)
        near[part] = np.argmin(dist, axis=1)
        other = near[part] != walk[part]
        assert np.array_equal(dist[rows, near[part]][other],
                              dist[rows, walk[part]][other])
    assert np.count_nonzero(near != walk) <= 2
    same = pick[:1024][near[pick[:1024]] == walk[pick[:1024]]]
    assert np.array_equal(grid.delta[ii[same], jj[same]],
                          argmin_distance(domain, pts[same]))


def test_delta_does_not_depend_on_the_chunk_size(monkeypatch):
    # the unrotated ellipse has exact mirror ties on its axes: the walk
    # takes the larger index from either tied vertex, and delta keeps its
    # bits on a fresh domain and with chunks of 1000 nodes
    def ellipse():
        return build_family_domain(FamilySpec(kind="ellipse"), 0.2)

    domain = ellipse()
    grid = Grid.build(domain, 1.0 / 128.0)
    ii, jj = np.nonzero(grid.inside)
    pts = np.stack([grid.xs[jj], grid.ys[ii]], axis=-1)
    pts = pts[(pts[:, 0] == 0.0) | (pts[:, 1] == 0.0)]  # the axis nodes
    d2 = squared_distances(domain, pts)
    tied = np.flatnonzero(np.count_nonzero(d2 == d2.min(axis=1)[:, None],
                                           axis=1) == 2)
    assert tied.size >= 4
    pair = np.sort(np.argsort(d2[tied], axis=1, kind="stable")[:, :2], axis=1)
    for start in pair.T:
        assert np.array_equal(nearest_vertex(domain, pts[tied], start),
                              pair[:, 1])

    fresh = Grid.build(ellipse(), 1.0 / 128.0).delta
    monkeypatch.setattr(torsion, "_DELTA_CHUNK", 1000)
    chunked = Grid.build(domain, 1.0 / 128.0).delta
    for other in (fresh, chunked):
        assert np.array_equal(other, grid.delta, equal_nan=True)


def test_grid_rejects_nonpositive_spacing():
    for h in (0.0, -0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="positive and finite"):
            Grid.build(StarDomain2D(c0=1.0), h)


def test_grid_rejects_disconnected_inside_region():
    # eight deep petals rotated off-axis: at h = 0.3 the neck nodes all fall
    # outside and the inside mask breaks into one island per petal
    flower = StarDomain2D(c0=0.5, cos_coeffs=(0, 0, 0, 0, 0, 0, 0, 0.45))
    with pytest.raises(GeometryError, match="splits into 9 grid components"):
        Grid.build(rotated(flower, math.pi / 8.0), 0.3)


def test_grid_rejects_a_thin_waist_at_a_coarse_spacing():
    # r = 0.5 + 0.45 cos 2(phi - pi/4): lobes along the diagonal, a waist of
    # half-width 0.05 across it.  At h = 0.6 the nodes (h, 0) and (0, h) lie
    # outside (r = 0.5 there), so the lobe nodes (h, h) and (-h, -h) touch
    # the centre node only diagonally: three 4-connected components.
    waist = rotated(StarDomain2D(c0=0.5, cos_coeffs=(0, 0.45)), math.pi / 4.0)
    with pytest.raises(GeometryError, match="splits into 3 grid components"):
        Grid.build(waist, 0.6)


def test_grid_with_no_inside_node_says_so():
    # the origin is a grid node inside every star domain, so only a spacing
    # that puts it within _ON_BOUNDARY spacings of the boundary empties the mask
    with pytest.raises(GeometryError, match="no grid node lies inside"):
        Grid.build(StarDomain2D(c0=1.0), 1e14)


def _label_count(mask):
    from scipy import ndimage   # the reference only; the package avoids it
    return ndimage.label(mask)[1]


def test_component_count_matches_ndimage_on_random_masks():
    rng = np.random.default_rng(24)
    masks = [np.zeros((0, 3), dtype=bool), np.zeros((4, 0), dtype=bool),
             np.zeros((3, 5), dtype=bool), np.ones((3, 5), dtype=bool),
             np.eye(6, dtype=bool), np.eye(6, dtype=bool)[::-1]]
    for _ in range(300):
        ny, nx = rng.integers(1, 30, size=2)
        masks.append(rng.random((ny, nx)) < rng.uniform(0.0, 1.0))
    counts = [(torsion._components(m), _label_count(m)) for m in masks]
    assert all(ours == ref for ours, ref in counts)
    assert {ref for _, ref in counts} >= {0, 1, 2, 6}


@pytest.mark.parametrize("spine, components", [(True, 1), (False, 311)])
def test_component_count_matches_ndimage_on_grid_sized_combs(spine,
                                                            components):
    # 621 x 621, about the ladder ellipse's 619 x 619 grid at h = 1/256: 311
    # one-column teeth of random lengths, two columns apart, hang from row
    # 0, so the upper rows hold hundreds of runs each and the teeth join
    # only through that spine row
    lengths = np.random.default_rng(39).integers(1, 621, size=311)
    mask = np.zeros((621, 621), dtype=bool)
    mask[1:, ::2] = np.arange(1, 621)[:, None] <= lengths
    mask[0] = spine
    assert torsion._components(mask) == _label_count(mask) == components


@pytest.mark.parametrize("kind", ["ellipse", "cosine_perturbation"])
def test_component_count_matches_ndimage_on_the_default_families(kind):
    spec = FamilySpec(kind=kind)
    for eps in spec.eps:
        inside = Grid.build(build_family_domain(spec, eps), 1.0 / 64.0).inside
        assert torsion._components(inside) == _label_count(inside) == 1


# --------------------------------------------------------------------------
# the solve: quadratic solutions are reproduced to rounding
# --------------------------------------------------------------------------

def test_disk_solution_is_machine_exact(disk_solve):
    _, u, report = disk_solve
    grid = u.grid
    X, Y = np.meshgrid(grid.xs, grid.ys)
    exact = 0.5 * (X**2 + Y**2 - 1.0)
    err = np.abs(u.values - exact)[grid.inside]
    assert float(err.max()) < 1e-12
    assert report.residual < 1e-11
    assert report.n_unknowns == grid.n_unknowns


def test_ellipse_solution_matches_closed_form(ellipse_solve):
    _, u, _ = ellipse_solve
    grid = u.grid
    exact = exact_ellipse_torsion(ELLIPSE_A, ELLIPSE_B)
    X, Y = np.meshgrid(grid.xs, grid.ys)
    vals = exact.value(np.stack([X.ravel(), Y.ravel()], axis=-1))
    vals = vals.reshape(grid.inside.shape)
    err = np.abs(u.values - vals)[grid.inside]
    assert float(err.max()) < 1e-12


def test_solution_is_negative_inside(cosine_solves):
    _, sols = cosine_solves
    u = sols[32]
    assert float(np.max(u.values[u.grid.inside])) < 0.0


def test_exact_ellipse_torsion_is_consistent(gradient_self_check):
    fld = exact_ellipse_torsion(ELLIPSE_A, ELLIPSE_B)
    gradient_self_check(fld, dim=2, seed=3)
    phi = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    boundary = np.stack([ELLIPSE_A * np.cos(phi), ELLIPSE_B * np.sin(phi)], axis=-1)
    assert float(np.max(np.abs(fld.value(boundary)))) < 1e-14
    with pytest.raises(DomainError):
        exact_ellipse_torsion(-1.0, 1.0)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("domain", [
    StarDomain2D(c0=1.0),
    StarDomain2D.ellipse(1.2, 1.0 / 1.2),
], ids=["disk", "ellipse"])
def test_solve_residual_matches_long_double(domain, monkeypatch):
    # the reported residual is the one BiCGSTAB stops on, summed by
    # differences; the reference sums b - A x in long double on the same A,
    # rhs and solution.  It agrees to 6e-5 here, while b - A x summed in
    # float64 is off by 1e-2, because its products a_ij x_j are near
    # 4 |u| / h^2 and their rounding is as large as the residual
    seen = []
    real_spsolve = torsion.spsolve

    def recording_spsolve(A, rhs, grid):
        sol, residual = real_spsolve(A, rhs, grid)
        seen.append((A, rhs, sol, residual))
        return sol, residual

    monkeypatch.setattr(torsion, "spsolve", recording_spsolve)
    _, report = solve_torsion(domain, 1.0 / 64.0)
    (A, rhs, sol, residual), = seen
    assert report.residual == residual
    ld = np.longdouble
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    r = rhs.astype(ld)
    np.subtract.at(r, rows, A.data.astype(ld) * sol[A.indices].astype(ld))
    reference = float(np.sqrt(np.sum(r * r) / np.sum(rhs.astype(ld) ** 2)))
    assert abs(report.residual - reference) <= 1e-3 * reference


MIXED = StarDomain2D(1.0, (0.0, 0.2, 0.0, 0.0, 0.2 / 3.0), (0.0, 0.0, 0.1))


@pytest.mark.parametrize("domain, h, snapped", [
    # no mirror symmetry: r = 1 + 0.2 (cos 2 phi + sin 3 phi / 2 + cos 5 phi / 3)
    (MIXED, 1.0 / 64.0, False),
    (PETALS, 1.0 / 64.0, False),
    # the node (1, 0) lies 1e-10 h inside the circle: its cuts snap to _T_MIN
    (StarDomain2D(c0=1.0 + 1e-10 / 32.0), 1.0 / 32.0, True),
    # five multigrid levels
    (MIXED, 1.0 / 256.0, False),
], ids=["mixed", "petals", "t_min", "mixed_256"])
def test_red_black_solve_matches_full_factorization(domain, h, snapped,
                                                     monkeypatch):
    # the multigrid solve agrees with a direct factorization of all of A
    seen = []
    real_spsolve = torsion.spsolve

    def recording_spsolve(A, rhs, grid):
        sol, residual = real_spsolve(A, rhs, grid)
        seen.append((A, rhs, grid, sol))
        return sol, residual

    monkeypatch.setattr(torsion, "spsolve", recording_spsolve)
    u, report = solve_torsion(domain, h)
    (A, rhs, grid, sol), = seen
    assert grid is u.grid
    assert report.residual <= torsion._RTOL
    # the grid numbers every red (i + j even) inside node before every
    # black, and counts them
    ii, jj = np.nonzero(grid.inside)
    red = np.empty(grid.n_unknowns, dtype=bool)
    red[grid.index[ii, jj]] = (ii + jj) % 2 == 0
    n_red = int(np.count_nonzero(red))
    assert grid.n_red == n_red
    assert 0 < n_red < grid.n_unknowns
    assert red[:n_red].all() and not red[n_red:].any()
    # the stencil couples only nodes of opposite colour, which makes each
    # half-sweep of the fine-level smoother exact
    coo = A.tocoo()
    off = coo.row != coo.col
    assert off.any()
    assert not np.any(red[coo.row[off]] == red[coo.col[off]])
    cuts = np.concatenate([frac for _, frac in grid.cuts.values()])
    assert np.any(cuts == torsion._T_MIN) == snapped
    reference = splu(A.tocsc()).solve(rhs)
    assert float(np.max(np.abs(sol - reference))) <= 1e-12


def test_solve_torsion_joins_its_worker_thread(monkeypatch):
    domain = StarDomain2D.ellipse(1.2, 1.0 / 1.2)
    before = threading.active_count()
    u, _ = solve_torsion(domain, 1.0 / 32.0)
    assert threading.active_count() == before
    # delta read on the worker matches delta read on this thread
    fresh = Grid.build(domain, 1.0 / 32.0)
    assert np.array_equal(u.grid.delta, fresh.delta, equal_nan=True)

    def failing(A, rhs, grid):
        raise GeometryError("solve failed")

    monkeypatch.setattr(torsion, "spsolve", failing)
    with pytest.raises(GeometryError, match="solve failed"):
        solve_torsion(domain, 1.0 / 32.0)
    assert threading.active_count() == before


def test_bicgstab_that_runs_out_of_steps_is_a_geometry_error(monkeypatch):
    domain = StarDomain2D.ellipse(1.2, 1.0 / 1.2)
    before = threading.active_count()
    monkeypatch.setattr(torsion, "_STEPS", 1)
    with pytest.raises(GeometryError,
                       match=r"after 1 iterations at relative residual \d"):
        solve_torsion(domain, 1.0 / 32.0)
    assert threading.active_count() == before


def test_bicgstab_that_stalls_is_a_geometry_error(monkeypatch):
    # under a target below the rounding floor of b - A x, the rounds end
    # at true residuals 9.99e-14, 2.79e-14 and 2.76e-14: the third does not
    # halve the residual it started from, which ends the solve there, 13
    # V-cycles in, and not at _STEPS
    rounds = []
    real_true_residual = torsion._true_residual

    def counting_true_residual(A):
        residual = real_true_residual(A)

        def counted(b, x, out):
            rounds.append(None)
            return residual(b, x, out)
        return counted

    monkeypatch.setattr(torsion, "_true_residual", counting_true_residual)
    monkeypatch.setattr(torsion, "_RTOL", 1e-14)
    before = threading.active_count()
    with pytest.raises(GeometryError, match=r"stalled after \d+ iterations"):
        solve_torsion(StarDomain2D.ellipse(1.2, 1.0 / 1.2), 1.0 / 32.0)
    assert len(rounds) == 3
    assert threading.active_count() == before


def test_bicgstab_breakdown_returns_the_solution():
    # A M = I and b along a unit vector: the first step leaves the residual
    # exactly zero, which must end the solve before t = A M r = 0 divides
    A = sparse.diags(np.full(50, 2.0), format="csr")
    b = np.zeros(50)
    b[7] = 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, residual = torsion._bicgstab(A, b, lambda v: 0.5 * v)
    assert np.array_equal(x, 0.5 * b)
    assert residual == 0.0


def test_bicgstab_zero_denominator_is_a_geometry_error():
    # the rotation A = [[0, 1], [-1, 0]] from b = e1 gives r^ . v = 0 at the
    # first step; a family member must fail with an error row, not end the run
    A = sparse.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(GeometryError, match="broke down after 1 iterations"):
        torsion._bicgstab(A, np.array([1.0, 0.0]), lambda v: v)


def coordinate_matrix(grid: Grid) -> sparse.csr_matrix:
    """The Shortley-Weller matrix from one coordinate list per stencil
    entry, which scipy sorts and sums into CSR form."""
    inside, index, h2 = grid.inside, grid.index, grid.h * grid.h
    ii, jj = np.nonzero(inside)
    center = index[ii, jj]
    t = {d: grid.fractions(d)[ii, jj] for d in "EWNS"}
    rows, cols = [center], [center]
    data = [-2.0 / (t["E"] * t["W"] * h2) - 2.0 / (t["N"] * t["S"] * h2)]
    for di, dj, d, opp in ((0, 1, "E", "W"), (0, -1, "W", "E"),
                           (1, 0, "N", "S"), (-1, 0, "S", "N")):
        ok = (t[d] == 1.0) & inside[ii + di, jj + dj]
        rows.append(center[ok])
        cols.append(index[ii + di, jj + dj][ok])
        data.append((2.0 / (t[d] * (t[d] + t[opp]) * h2))[ok])
    n = grid.n_unknowns
    return sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()


@pytest.mark.parametrize("domain, h", [
    (MIXED, 1.0 / 64.0),
    (PETALS, 1.0 / 64.0),
    (StarDomain2D(c0=1.0 + 1e-10 / 32.0), 1.0 / 32.0),
], ids=["mixed", "petals", "t_min"])
def test_direct_csr_build_matches_the_coordinate_build(domain, h):
    # the same values, column indices and row pointers, in the same order
    # and of the same types
    grid = Grid.build(domain, h)
    A, reference = torsion._assemble(grid), coordinate_matrix(grid)
    for name in ("data", "indices", "indptr"):
        got, want = getattr(A, name), getattr(reference, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("h", [1.0 / 16.0, 1.0 / 128.0],
                         ids=["factored", "multigrid"])
def test_spsolve_leaves_its_inputs_unchanged(h):
    # BiCGSTAB updates its vectors in place and the V-cycle multiplies by
    # views of A's rows; neither may write through to A or the rhs
    grid = Grid.build(MIXED, h)
    A = torsion._assemble(grid)
    rhs = np.full(grid.n_unknowns, 2.0)
    inputs = (A.data, A.indices, A.indptr, rhs)
    before = [v.tobytes() for v in inputs]
    _, residual = torsion.spsolve(A, rhs, grid)
    assert [v.tobytes() for v in inputs] == before
    assert residual <= torsion._RTOL


def test_vcycle_row_views_match_the_off_diagonal_blocks():
    # the fine level multiplies by all of A's red or black rows, with the
    # colour being solved for zero in the operand, and restricts from a
    # vector that is zero on black; the sums must be those of the
    # off-diagonal blocks and of R's red columns, which it does not copy
    grid = Grid.build(MIXED, 1.0 / 128.0)
    A = torsion._assemble(grid)
    cycle = torsion._VCycle(A, grid.index, grid.n_red)
    n = cycle.n_red
    assert all(np.shares_memory(rows.data, A.data)
               for rows in (cycle.A_red, cycle.A_black))
    A_rb, A_br = A[:n, n:], A[n:, :n]
    R_red, P = cycle.R[:, :n], cycle.R.T.tocsr()
    b = np.random.default_rng(5).standard_normal(grid.n_unknowns)
    x = np.empty_like(b)
    x[:n] = b[:n] / cycle.d_red
    x[n:] = (b[n:] - A_br @ x[:n]) / cycle.d_black
    x -= P @ cycle._coarse(R_red @ (A_rb @ x[n:]), 0)
    x[:n] = (b[:n] - A_rb @ x[n:]) / cycle.d_red
    x[n:] = (b[n:] - A_br @ x[:n]) / cycle.d_black
    assert cycle(b).tobytes() == x.tobytes()


def bilinear_restriction(number: np.ndarray) -> sparse.csr_matrix:
    """R = P^T of bilinear interpolation from the nodes with even (i, j):
    weight 1 on a coarse node, 1/2 beside it on a grid line, 1/4 on its
    diagonals, and nothing towards a coarse node outside."""
    coarse = np.full(number[::2, ::2].shape, -1)
    inner = number[::2, ::2] >= 0
    coarse[inner] = np.arange(np.count_nonzero(inner))
    R = sparse.dok_matrix((coarse.max() + 1, int(np.max(number)) + 1))
    for (a, b), c in np.ndenumerate(coarse):
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if c >= 0 and number[2 * a + di, 2 * b + dj] >= 0:
                    R[c, number[2 * a + di, 2 * b + dj]] = 0.5 ** (
                        abs(di) + abs(dj))
    return R.tocsr()


def reference_restriction(A: sparse.csr_matrix,
                          number: np.ndarray) -> dict:
    """The entries {(coarse, fine): weight} of the operator-dependent R,
    by the formula at every node, one node at a time, with each sum taken
    in the documented order: S, C, N (W, C, E) across a line and the
    3 x 3 steps in raster order along it."""
    entry = A.todok()
    coarse = np.full(number[::2, ::2].shape, -1)
    inner = number[::2, ::2] >= 0
    coarse[inner] = np.arange(np.count_nonzero(inner))

    def a(i, j, di, dj):
        k, m = number[i, j], number[i + di, j + dj]
        return entry.get((k, m), 0.0) if m >= 0 else 0.0

    weight = {}   # (i, j, coarse i, coarse j) -> weight
    for (i, j), k in np.ndenumerate(number):
        if k < 0 or (i % 2, j % 2) == (1, 1):
            continue
        if (i % 2, j % 2) == (0, 0):
            weight[i, j, i, j] = 1.0
            continue
        along = (0, 1) if i % 2 == 0 else (1, 0)
        across = (along[1], along[0])
        den = -(a(i, j, -across[0], -across[1]) + a(i, j, 0, 0)
                + a(i, j, *across))
        for side in (-1, 1):
            d = (side * along[0], side * along[1])
            total = (a(i, j, d[0] - across[0], d[1] - across[1])
                     + a(i, j, *d) + a(i, j, d[0] + across[0],
                                       d[1] + across[1]))
            weight[i, j, i + d[0], j + d[1]] = total / den
    for (i, j), k in np.ndenumerate(number):
        if k < 0 or (i % 2, j % 2) != (1, 1):
            continue
        for di in (-1, 1):
            for dj in (-1, 1):
                ci, cj = i + di, j + dj
                total = (a(i, j, di, 0) * weight.get((i + di, j, ci, cj), 0.0)
                         + a(i, j, 0, dj) * weight.get((i, j + dj, ci, cj),
                                                       0.0)
                         + a(i, j, di, dj))
                weight[i, j, ci, cj] = total / -a(i, j, 0, 0)
    return {(int(coarse[ci // 2, cj // 2]), int(number[i, j])): w
            for (i, j, ci, cj), w in weight.items()
            if w != 0.0 and coarse[ci // 2, cj // 2] >= 0}


def entries_of(R: sparse.csr_matrix) -> dict:
    rows = np.repeat(np.arange(R.shape[0]), np.diff(R.indptr))
    return dict(zip(zip(rows.tolist(), R.indices.tolist()), R.data.tolist()))


@pytest.mark.parametrize("domain", [
    MIXED,
    PETALS,
    build_family_domain(FamilySpec(kind="ellipse"), 0.2),
    build_family_domain(FamilySpec(kind="cosine_perturbation"), 0.1),
], ids=["mixed", "petals", "ladder_ellipse", "ladder_cosine"])
def test_interpolation_weights_follow_the_operator(domain):
    # the fine level's P: bilinear to the bit wherever no edge of the 3 x 3
    # neighbourhood is cut, every weight in (0, 1] and every row summing to
    # at most 1; on every level, each weight is the formula's to the bit
    grid = Grid.build(domain, 1.0 / 64.0)
    A = torsion._assemble(grid)
    cycle = torsion._VCycle(A, grid.index, grid.n_red)
    P = cycle.R.T.tocsr()
    sums = np.asarray(P.sum(axis=1)).ravel()
    assert np.all(P.data > 0.0) and np.all(P.data <= 1.0)
    assert np.max(sums) <= 1.0
    uncut = grid.inside & np.logical_and.reduce(
        [grid.fractions(d) == 1.0 for d in grid.cuts])
    clear = np.zeros_like(uncut)
    clear[1:-1, 1:-1] = np.logical_and.reduce(
        [uncut[1 + di:uncut.shape[0] - 1 + di, 1 + dj:uncut.shape[1] - 1 + dj]
         for di in (-1, 0, 1) for dj in (-1, 0, 1)])
    rows = grid.index[clear]
    assert 0 < rows.size < grid.n_unknowns
    got, want = P[rows], bilinear_restriction(grid.index).T.tocsr()[rows]
    got.sort_indices()
    want.sort_indices()
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    cut_rows = np.setdiff1d(np.arange(grid.n_unknowns), rows)
    assert np.any(sums[cut_rows] < 1.0)

    number, levels = grid.index, [(A, cycle.R)]
    levels += [(level_A, R) for level_A, _, R in cycle.levels]
    for level_A, R in levels:
        assert entries_of(R) == reference_restriction(level_A, number)
        inner = number[::2, ::2] >= 0
        number = np.full(inner.shape, -1)
        number[inner] = np.arange(np.count_nonzero(inner))


def test_interpolation_rejects_a_row_out_of_column_order():
    # a cell-centre row with all five entries, listed backwards, is the
    # same operator, but the walk over the steps leaves its entries behind:
    # that must raise, not read its diagonal as its north neighbour's entry
    grid = Grid.build(MIXED, 1.0 / 64.0)
    A = torsion._assemble(grid)
    centre = grid.index[1::2, 1::2]
    rows = centre[centre >= 0]
    row = rows[np.diff(A.indptr)[rows] == 5][0]
    at = slice(A.indptr[row], A.indptr[row + 1])
    A.indices[at], A.data[at] = A.indices[at][::-1], A.data[at][::-1]
    with pytest.raises(RuntimeError, match="out of the order"):
        torsion._interpolation(A, grid.index, True)


@pytest.mark.parametrize("h", [1.0 / 64.0, 1.0 / 128.0], ids=["64", "128"])
@pytest.mark.parametrize("domain", [
    StarDomain2D.ellipse(1.2, 1.0 / 1.2),
    StarDomain2D.cosine(0.1, 2),
    MIXED,
], ids=["ellipse", "cosine", "mixed"])
def test_vcycle_reduces_the_residual_fivefold_a_cycle(domain, h):
    # as a stationary iteration x <- x + M (b - A x), the geometric mean of
    # the residual's reduction over cycles 6-12; bilinear interpolation
    # gave 0.35-0.50 here
    grid = Grid.build(domain, h)
    A = torsion._assemble(grid)
    cycle = torsion._VCycle(A, grid.index, grid.n_red)
    b = np.full(grid.n_unknowns, 2.0)
    x = np.zeros_like(b)
    norms = []
    for _ in range(12):
        r = b - A @ x
        norms.append(np.sqrt(np.sum(r * r)))
        x += cycle(r)
    r = b - A @ x
    factor = (np.sqrt(np.sum(r * r)) / norms[5]) ** (1.0 / 7.0)
    assert factor <= 0.2


def test_true_residual_does_not_depend_on_the_chunk_size(monkeypatch):
    grid = Grid.build(MIXED, 1.0 / 64.0)
    A = torsion._assemble(grid)
    b, x = np.random.default_rng(3).standard_normal((2, grid.n_unknowns))
    # each row's terms summed in A's order in one pass over all rows
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    terms = (x[A.indices] - x[rows]) * A.data
    want = b - (np.bincount(rows, terms, b.size)
                + np.bincount(rows, A.data, b.size) * x)
    for size in (torsion._RESIDUAL_ROWS, 1000, 7, A.shape[0] + 1):
        monkeypatch.setattr(torsion, "_RESIDUAL_ROWS", size)
        got = torsion._true_residual(A)(b, x, np.empty_like(b))
        assert got.tobytes() == want.tobytes()


# traced peak of solve_torsion on the ladder ellipse at h = 1/128, per
# unknown: 336-345 bytes measured with the cut fractions kept at the cut
# edges only and an int32 index; 403-413 with four full-grid fraction
# arrays and an int64 index (398-407 with the bilinear interpolation), 737
# while the solve kept its assembly lists and copies of A's blocks
SOLVE_BYTES_PER_UNKNOWN = 400


def test_solve_working_memory_stays_within_its_budget():
    domain = StarDomain2D.ellipse(1.2, 1.0 / 1.2)
    solve_torsion(domain, 1.0 / 32.0)  # the domain's kept tables come first
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, report = solve_torsion(domain, 1.0 / 128.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak / report.n_unknowns <= SOLVE_BYTES_PER_UNKNOWN


@pytest.mark.parametrize("h", [1.0 / 64.0, 1.0 / 128.0], ids=["64", "128"])
def test_solve_torsion_is_deterministic(h):
    domain = StarDomain2D.cosine(0.1, 2)
    first, _ = solve_torsion(domain, h)
    solve_torsion(PETALS, 1.0 / 64.0)   # other allocations in between
    again, _ = solve_torsion(domain, h)
    assert first.values.tobytes() == again.values.tobytes()


def test_solve_report_rejects_large_residual():
    with pytest.raises(GeometryError):
        SolveReport(residual=1e-6, n_unknowns=10)


def test_discrete_field_rejects_nonfinite_inside_values(disk_solve):
    _, u, _ = disk_solve
    bad = u.values.copy()
    i, j = np.argwhere(u.grid.inside)[0]
    bad[i, j] = np.nan
    with pytest.raises(DomainError):
        DiscreteField(u.grid, bad)


# --------------------------------------------------------------------------
# convergence on a non-quadratic solution
# --------------------------------------------------------------------------

def shared_node_gap(u_coarse: DiscreteField, u_fine: DiscreteField) -> float:
    """Max difference on coarse nodes (grids are origin-aligned multiples)."""
    gc, gf = u_coarse.grid, u_fine.grid
    jx = np.round((gc.xs - gf.xs[0]) / gf.h).astype(int)
    iy = np.round((gc.ys - gf.ys[0]) / gf.h).astype(int)
    okx = (jx >= 0) & (jx < gf.xs.size)
    oky = (iy >= 0) & (iy < gf.ys.size)
    fine_vals = np.full(u_coarse.values.shape, np.nan)
    fine_vals[np.ix_(oky, okx)] = u_fine.values[np.ix_(iy[oky], jx[okx])]
    both = gc.inside & np.isfinite(fine_vals)
    assert both.sum() > 100
    return float(np.max(np.abs(u_coarse.values - fine_vals)[both]))


def test_solver_converges_at_second_order(cosine_solves):
    _, sols = cosine_solves
    gap_coarse = shared_node_gap(sols[16], sols[32])
    gap_fine = shared_node_gap(sols[32], sols[64])
    order = estimate_order(gap_coarse, gap_fine)
    assert order > 1.8


def test_estimate_order_basics():
    assert abs(estimate_order(4e-2, 1e-2) - 2.0) < 1e-12
    assert abs(estimate_order(9e-3, 1e-3, ratio=3.0) - 2.0) < 1e-12
    with pytest.raises(DomainError):
        estimate_order(0.0, 1e-3)


# --------------------------------------------------------------------------
# deepest point and the auxiliary field
# --------------------------------------------------------------------------

def test_locate_min_finds_the_center(disk_solve, ellipse_solve):
    for _, u, _ in (disk_solve, ellipse_solve):
        z = locate_min(u)
        assert float(np.hypot(*z)) < 1e-9


def test_locate_min_rejects_boundary_ring_minimum(disk_solve):
    _, u, _ = disk_solve
    ramp = nodal(u.grid, lambda X, Y: X)  # argmin on the leftmost inside node
    with pytest.raises(GeometryError):
        locate_min(ramp)


def test_h_field_is_constant_on_the_disk(disk_solve):
    _, u, _ = disk_solve
    h = h_field(u, (0.0, 0.0))
    vals = h.values[u.grid.inside]
    assert float(np.max(np.abs(vals - 0.5))) < 1e-12


def test_h_field_minimum_depth_on_the_ellipse(ellipse_solve):
    # h(z) = -u(z) at the deepest point: a^2 b^2 / (a^2 + b^2) = 4/5
    _, u, _ = ellipse_solve
    h = h_field(u, locate_min(u))
    got = bilinear(h, np.zeros((1, 2)))[0][0]
    assert abs(got - 0.8) < 1e-10


# --------------------------------------------------------------------------
# derivatives
# --------------------------------------------------------------------------

def test_gradient_matches_analytic_derivatives(disk_solve):
    _, u, _ = disk_solve
    grid = u.grid
    fld = nodal(grid, lambda X, Y: np.sin(1.3 * X) * np.cos(0.7 * Y))
    g = gradient(fld)
    fx, fy, m = _gradient_parts(fld)
    X, Y = np.meshgrid(grid.xs, grid.ys)
    gx = 1.3 * np.cos(1.3 * X) * np.cos(0.7 * Y)
    gy = -0.7 * np.sin(1.3 * X) * np.sin(0.7 * Y)
    assert np.array_equal(g.valid, m)
    assert g.excluded_fraction == 0.0
    assert float(np.max(np.abs(fx - gx)[m])) < 2e-3
    assert float(np.max(np.abs(fy - gy)[m])) < 2e-3
    interior = m & (grid.delta > 3.0 * grid.h)
    assert float(np.max(np.abs(fx - gx)[interior])) < 1e-3
    # the magnitude is the components' Euclidean norm, to the bit
    assert g.magnitude.tobytes() == np.sqrt(fx ** 2 + fy ** 2).tobytes()


def test_hessian_torsion_mixed_derivative_matches_analytic_derivatives(
        disk_solve):
    # a field that is not a torsion function, so the composed mixed
    # derivative has a nonzero oracle
    _, u, _ = disk_solve
    grid = u.grid
    fld = nodal(grid, lambda X, Y: np.sin(1.3 * X) * np.cos(0.7 * Y))
    _, uxy, _, valid = _hessian_parts(fld)
    X, Y = np.meshgrid(grid.xs, grid.ys)
    want = -0.91 * np.cos(1.3 * X) * np.sin(0.7 * Y)
    interior = valid & (grid.delta > 4.0 * grid.h)
    assert float(np.max(np.abs(uxy - want)[valid])) < 0.08
    assert float(np.max(np.abs(uxy - want)[interior])) < 3e-3


def test_hessian_torsion_is_exact_for_the_ellipse(ellipse_solve):
    _, u, _ = ellipse_solve
    uxx, uxy, uyy, m = _hessian_parts(u)
    # constant Hessian diag(2 b^2, 2 a^2)/(a^2 + b^2) = diag(0.4, 1.6)
    assert float(np.max(np.abs(uxx - 0.4)[m])) < 1e-9
    assert float(np.max(np.abs(uxy)[m])) < 1e-9
    assert float(np.max(np.abs(uyy - 1.6)[m])) < 1e-9
    H = hessian_torsion(u)
    assert np.array_equal(H.valid, m)
    assert H.excluded_fraction < 0.05


def test_hessian_of_h_has_one_magnitude_on_the_ellipse(ellipse_solve):
    # hess h = I - hess u = diag(0.6, -0.6) at every node, so |hess h| is
    # sqrt(0.72) = 3 sqrt(2) / 5 at every valid node and NaN elsewhere
    _, u, _ = ellipse_solve
    H = hessian_torsion(u)
    want = 3.0 * math.sqrt(2.0) / 5.0
    assert H.valid.sum() > 0.9 * u.grid.inside.sum()
    assert float(np.max(np.abs(H.magnitude - want)[H.valid])) < 1e-9
    assert np.isnan(H.magnitude[~H.valid]).all()


def test_hessian_torsion_trace_reproduces_the_right_hand_side(cosine_solves):
    # the cut-aware diagonal stencils are the solver's own rows, so their sum
    # returns the right-hand side at every inside node, not just smooth ones
    _, sols = cosine_solves
    u = sols[32]
    uxx, _, uyy, valid = _hessian_parts(u)
    trace = uxx + uyy
    assert float(np.max(np.abs(trace - 2.0)[u.grid.inside & valid])) < 1e-9


def test_tensor_field_magnitude_rejects_unknown_shape(disk_solve):
    _, u, _ = disk_solve
    grid = u.grid
    # one magnitude per node: a stack of components is not one
    comps = np.zeros(grid.inside.shape + (2,))
    with pytest.raises(DomainError, match="magnitude of shape"):
        TensorField(grid=grid, magnitude=comps, valid=grid.inside.copy())


# --------------------------------------------------------------------------
# interior norms
# --------------------------------------------------------------------------

def test_lp_norm_of_constants_is_exact(disk_solve):
    _, u, _ = disk_solve
    one = unit_vectors(u.grid)
    for p in (1.0, 2.0, 3.5, math.inf):
        assert abs(lp_norm_domain(one, p) - 1.0) < 1e-13


def test_lp_norm_distance_weights_match_disk_moments(disk_solve):
    # with delta = 1 - r on the unit disk: mean delta = 1/3 and
    # mean delta^2 = 1/6, so the weighted norms are 1/3 and sqrt(1/6)
    _, u, _ = disk_solve
    one = unit_vectors(u.grid)
    assert abs(lp_norm_domain(one, 1.0, alpha=1.0) - 1.0 / 3.0) < 2e-3
    assert abs(lp_norm_domain(one, 2.0, alpha=1.0) - math.sqrt(1.0 / 6.0)) < 5e-4


def test_lp_norm_frobenius_of_harmonic_residue(ellipse_solve):
    # || I - hess u ||_{2, Omega} for the ellipse: constant sqrt(2)(a^2-b^2)
    # / (a^2+b^2) = 3 sqrt(2) / 5
    _, u, _ = ellipse_solve
    res = hessian_torsion(u)
    want = 3.0 * math.sqrt(2.0) / 5.0
    assert abs(lp_norm_domain(res, 2.0) - want) < 1e-9
    assert abs(lp_norm_domain(res, math.inf) - want) < 1e-9


def test_lp_norm_rejects_bad_exponent(disk_solve):
    _, u, _ = disk_solve
    with pytest.raises(DomainError):
        lp_norm_domain(unit_vectors(u.grid), 0.5)


# --------------------------------------------------------------------------
# interpolation and boundary traces
# --------------------------------------------------------------------------

def test_bilinear_reproduces_bilinear_functions(disk_solve):
    _, u, _ = disk_solve
    fld = nodal(u.grid, lambda X, Y: 2.0 + 3.0 * X - Y + 0.5 * X * Y)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.6, 0.6, size=(200, 2))
    vals, ok = bilinear(fld, pts)
    assert ok.all()
    want = 2.0 + 3.0 * pts[:, 0] - pts[:, 1] + 0.5 * pts[:, 0] * pts[:, 1]
    assert float(np.max(np.abs(vals - want))) < 1e-12


def test_bilinear_flags_points_without_full_cells(disk_solve):
    _, u, _ = disk_solve
    vals, ok = bilinear(u, np.array([[0.999, 0.0], [5.0, 5.0], [0.0, 0.2]]))
    assert not ok[0] and not ok[1] and ok[2]
    assert np.isnan(vals[0]) and np.isnan(vals[1]) and np.isfinite(vals[2])


def test_normal_derivative_on_the_disk_is_the_radius(disk_solve):
    domain, u, _ = disk_solve
    trace = normal_derivative(u)
    assert trace.table is domain.coarse_table
    assert trace.excluded_fraction == 0.0
    assert float(np.max(np.abs(trace.values[trace.valid] - 1.0))) < 8e-3


def test_normal_derivative_on_the_ellipse(ellipse_solve):
    domain, u, _ = ellipse_solve
    trace = normal_derivative(u)
    gamma = trace.table.gamma
    want = 0.8 * np.sqrt(gamma[:, 0] ** 2 / 4.0 + 4.0 * gamma[:, 1] ** 2)
    ok = trace.valid
    rel = np.abs(trace.values[ok] - want[ok]) / want[ok]
    assert float(rel.max()) < 5e-3
    # the minimum slope sits on the flat ends: 2 b^2 a/(a^2+b^2) = 0.8, and it
    # stays above the rolling-ball radius b^2/a = 0.5
    assert float(np.min(trace.values[ok])) > 0.5
    assert abs(float(np.min(trace.values[ok])) - 0.8) < 5e-3


def test_normal_derivative_flags_stencils_that_leave_the_domain():
    # within 9 degrees of the tips of a thin ellipse (semi-axes 1 and 0.12)
    # at h = 1/32, a stencil point 3 h or 6 h inward along the normal falls
    # in a cell that is cut or has a node outside: those 100 of the 1024
    # samples, 40% of the arclength, are excluded and NaN
    domain = StarDomain2D.ellipse(1.0, 0.12)
    u, _ = solve_torsion(domain, 1.0 / 32.0)
    trace = normal_derivative(u)
    weight = trace.table.weight
    assert int(np.sum(~trace.valid)) == 100
    assert trace.excluded_fraction == float(
        np.sum(weight[~trace.valid]) / np.sum(weight))
    assert abs(trace.excluded_fraction - 0.404) < 1e-3
    assert np.isnan(trace.values[~trace.valid]).all()
    assert np.isfinite(trace.values[trace.valid]).all()


def test_gauss_map_deviation_vanishes_exactly_on_the_disk():
    disk = StarDomain2D(c0=1.0)
    assert gauss_map_deviation(disk, (0.0, 0.0), 1.0) == 0.0


def test_gauss_map_deviation_is_rotation_invariant():
    ell = StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)
    base = gauss_map_deviation(ell, (0.0, 0.0), 0.8)
    turned = gauss_map_deviation(rotated(ell, 0.7), (0.0, 0.0), 0.8)
    assert base > 0.5
    assert abs(turned - base) < 1e-8 * base
