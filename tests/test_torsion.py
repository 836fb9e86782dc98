"""Tests for the finite-difference torsion solver.

Oracles: the closed-form torsion function of disks and ellipses (quadratic,
so the Shortley-Weller scheme reproduces it to rounding), analytic crossing
points of grid edges with a circle, hand-integrated boundary-distance
moments on the disk, closed-form disk-square intersection areas, polar
quadrature of cut cells, the strict radial inclusion test, a direct LU
factorization of the whole system for the multigrid-preconditioned solve,
and Richardson self-comparison on a cosine domain where the solution is
genuinely non-quadratic.
"""
from __future__ import annotations

import math
import threading
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy import sparse
from scipy.optimize import brentq
from scipy.sparse.linalg import splu

from oscbound import torsion
from oscbound.errors import DomainError, GeometryError
from oscbound.stability import FamilySpec, build_family_domain
from oscbound.stardomain import (
    StarDomain2D,
    _sample_boundary,
    area,
    delta_gamma,
    rotated,
)
from oscbound.torsion import (
    BoundaryTrace,
    DiscreteField,
    Grid,
    SolveReport,
    TensorField,
    bilinear,
    boundary_lp_norm,
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
from oscbound.torsion import _cell_areas, _crossings

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
    cut = grid.cuts["E"] < 1.0
    x, y, t_num = X[cut], Y[cut], grid.cuts["E"][cut]
    # edge from (x, y) heading +x crosses the unit circle at sqrt(1 - y^2)
    t_exact = (np.sqrt(1.0 - y**2) - x) / h
    generic = t_exact > 1e-6  # skip near-tangent edges snapped to the floor
    assert generic.sum() > 50
    assert float(np.max(np.abs(t_num[generic] - t_exact[generic]))) < 1e-10
    for name in ("E", "W", "N", "S"):
        vals = grid.cuts[name]
        assert np.all((vals > 0.0) & (vals <= 1.0))


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
        t = grid.cuts[name][ii, jj]
        assert leaves.sum() == 4
        assert np.array_equal(t < 1.0, leaves)
        assert np.array_equal(grid.cuts[back][ii + di, jj + dj] < 1.0, leaves)
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
    H = hessian_torsion(u)
    assert (H.valid & ends).sum() == 16
    trace = H.components[..., 0] + H.components[..., 2]
    assert float(np.max(np.abs(trace - 2.0)[ends])) < 1e-9


@pytest.mark.parametrize("h", [1.0 / 64.0, 1.0 / 128.0])
def test_stencils_do_not_reach_across_cut_edges(h):
    # a value at the far end of an edge that leaves the domain between two
    # inside nodes must not move any derivative at the near end
    grid = Grid.build(StarDomain2D.cosine(0.9, 8), h)
    base = nodal(grid, lambda X, Y: np.sin(1.3 * X) * np.cos(0.7 * Y))
    g0, H0 = gradient(base).components, hessian_torsion(base).components
    pairs = 0
    for name, di, dj in (("E", 0, 1), ("W", 0, -1), ("N", 1, 0), ("S", -1, 0)):
        far = np.roll(grid.inside, (-di, -dj), (0, 1))
        for i, j in zip(*np.nonzero(grid.inside & far
                                    & (grid.cuts[name] < 1.0))):
            values = base.values.copy()
            values[i + di, j + dj] += 1e3
            field = DiscreteField(grid, values)
            assert np.array_equal(gradient(field).components[i, j], g0[i, j],
                                  equal_nan=True)
            assert np.array_equal(hessian_torsion(field).components[i, j],
                                  H0[i, j], equal_nan=True)
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
    for i, j in np.argwhere(~inside):
        x = np.array([grid.xs[j], grid.ys[i]])
        assert abs(delta_gamma(domain, x) - exact[i, j]) < 1e-12


@pytest.mark.parametrize("domain", [
    # no mirror symmetry: r = 1 + 0.2 (cos 2 phi + sin 3 phi / 2)
    StarDomain2D(c0=1.0, cos_coeffs=(0.0, 0.2), sin_coeffs=(0.0, 0.0, 0.1)),
    # eight deep nonconvex petals, off-axis
    rotated(StarDomain2D(c0=0.5, cos_coeffs=(0, 0, 0, 0, 0, 0, 0, 0.45)),
            math.pi / 8.0),
], ids=["mixed", "petals"])
def test_boundary_distance_matches_delta_gamma(domain):
    grid = Grid.build(domain, 1.0 / 64.0)
    rng = np.random.default_rng(7)
    ii, jj = np.nonzero(grid.inside)
    pick = rng.choice(ii.size, 500, replace=False)
    for i, j in zip(ii[pick], jj[pick]):
        want = delta_gamma(domain, np.array([grid.xs[j], grid.ys[i]]))
        assert abs(grid.delta[i, j] - want) < 1e-12
    # delta is computed at the inside nodes only
    assert np.isnan(grid.delta[~grid.inside]).all()


def test_grid_rejects_nonpositive_spacing():
    with pytest.raises(DomainError):
        Grid.build(StarDomain2D(c0=1.0), 0.0)


def test_grid_rejects_disconnected_inside_region():
    # eight deep petals rotated off-axis: at h = 0.3 the neck nodes all fall
    # outside and the inside mask breaks into one island per petal
    flower = StarDomain2D(c0=0.5, cos_coeffs=(0, 0, 0, 0, 0, 0, 0, 0.45))
    with pytest.raises(GeometryError):
        Grid.build(rotated(flower, math.pi / 8.0), 0.3)


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


@pytest.mark.parametrize("domain", [
    StarDomain2D(c0=1.0),
    StarDomain2D.ellipse(1.2, 1.0 / 1.2),
], ids=["disk", "ellipse"])
def test_solve_residual_matches_blas_norm(domain, monkeypatch):
    # the residual is summed pairwise without BLAS; the reference is the
    # np.linalg.norm expression it replaces, on the same A, rhs and solution
    seen = []
    real_spsolve = torsion.spsolve

    def recording_spsolve(A, rhs, index):
        sol = real_spsolve(A, rhs, index)
        seen.append((A, rhs, sol))
        return sol

    monkeypatch.setattr(torsion, "spsolve", recording_spsolve)
    _, report = solve_torsion(domain, 1.0 / 64.0)
    (A, rhs, sol), = seen
    reference = float(np.linalg.norm(A @ sol - rhs) / np.linalg.norm(rhs))
    assert abs(report.residual - reference) <= 1e-15


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

    def recording_spsolve(A, rhs, index):
        sol = real_spsolve(A, rhs, index)
        seen.append((A, rhs, index, sol))
        return sol

    monkeypatch.setattr(torsion, "spsolve", recording_spsolve)
    u, report = solve_torsion(domain, h)
    (A, rhs, index, sol), = seen
    grid = u.grid
    assert index is grid.index
    assert report.residual <= torsion._RTOL
    # the grid numbers every red (i + j even) inside node before every black
    ii, jj = np.nonzero(grid.inside)
    red = np.empty(grid.n_unknowns, dtype=bool)
    red[index[ii, jj]] = (ii + jj) % 2 == 0
    n_red = int(np.count_nonzero(red))
    assert 0 < n_red < grid.n_unknowns
    assert red[:n_red].all() and not red[n_red:].any()
    # the stencil couples only nodes of opposite colour, which makes each
    # half-sweep of the fine-level smoother exact
    coo = A.tocoo()
    off = coo.row != coo.col
    assert off.any()
    assert not np.any(red[coo.row[off]] == red[coo.col[off]])
    cuts = np.concatenate([c[grid.inside] for c in grid.cuts.values()])
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

    def failing(A, rhs, index):
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


def test_bicgstab_breakdown_returns_the_solution():
    # A M = I and b along a unit vector: the first step leaves the residual
    # exactly zero, which must end the solve before t = A M r = 0 divides
    A = sparse.diags(np.full(50, 2.0), format="csr")
    b = np.zeros(50)
    b[7] = 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = torsion._bicgstab(A, b, lambda v: 0.5 * v)
    assert np.array_equal(x, 0.5 * b)


def test_bicgstab_zero_denominator_is_a_geometry_error():
    # the rotation A = [[0, 1], [-1, 0]] from b = e1 gives r^ . v = 0 at the
    # first step; a family member must fail with an error row, not end the run
    A = sparse.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(GeometryError, match="broke down after 1 iterations"):
        torsion._bicgstab(A, np.array([1.0, 0.0]), lambda v: v)


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
    X, Y = np.meshgrid(grid.xs, grid.ys)
    gx = 1.3 * np.cos(1.3 * X) * np.cos(0.7 * Y)
    gy = -0.7 * np.sin(1.3 * X) * np.sin(0.7 * Y)
    m = g.valid
    assert g.excluded_fraction == 0.0
    assert float(np.max(np.abs(g.components[..., 0] - gx)[m])) < 2e-3
    assert float(np.max(np.abs(g.components[..., 1] - gy)[m])) < 2e-3
    interior = m & (grid.delta > 3.0 * grid.h)
    assert float(np.max(np.abs(g.components[..., 0] - gx)[interior])) < 1e-3


def test_hessian_torsion_mixed_derivative_matches_analytic_derivatives(
        disk_solve):
    # a field that is not a torsion function, so the composed mixed
    # derivative has a nonzero oracle
    _, u, _ = disk_solve
    grid = u.grid
    fld = nodal(grid, lambda X, Y: np.sin(1.3 * X) * np.cos(0.7 * Y))
    H = hessian_torsion(fld)
    X, Y = np.meshgrid(grid.xs, grid.ys)
    want = -0.91 * np.cos(1.3 * X) * np.sin(0.7 * Y)
    interior = H.valid & (grid.delta > 4.0 * grid.h)
    assert float(np.max(np.abs(H.components[..., 1] - want)[H.valid])) < 0.08
    assert float(np.max(np.abs(H.components[..., 1] - want)[interior])) < 3e-3


def test_hessian_torsion_is_exact_for_the_ellipse(ellipse_solve):
    _, u, _ = ellipse_solve
    H = hessian_torsion(u)
    m = H.valid
    # constant Hessian diag(2 b^2, 2 a^2)/(a^2 + b^2) = diag(0.4, 1.6)
    assert float(np.max(np.abs(H.components[..., 0] - 0.4)[m])) < 1e-9
    assert float(np.max(np.abs(H.components[..., 1])[m])) < 1e-9
    assert float(np.max(np.abs(H.components[..., 2] - 1.6)[m])) < 1e-9
    assert H.excluded_fraction < 0.05


def test_hessian_torsion_trace_reproduces_the_right_hand_side(cosine_solves):
    # the cut-aware diagonal stencils are the solver's own rows, so their sum
    # returns the right-hand side at every inside node, not just smooth ones
    _, sols = cosine_solves
    u = sols[32]
    H = hessian_torsion(u)
    trace = H.components[..., 0] + H.components[..., 2]
    assert float(np.max(np.abs(trace - 2.0)[u.grid.inside & H.valid])) < 1e-9


def test_tensor_field_magnitude_rejects_unknown_shape(disk_solve):
    _, u, _ = disk_solve
    grid = u.grid
    comps = np.zeros(grid.inside.shape + (4,))
    bad = TensorField(grid=grid, components=comps, valid=grid.inside.copy())
    with pytest.raises(DomainError):
        bad.magnitude


# --------------------------------------------------------------------------
# interior norms
# --------------------------------------------------------------------------

def test_lp_norm_of_constants_is_exact(disk_solve):
    _, u, _ = disk_solve
    one = nodal(u.grid, lambda X, Y: np.full_like(X, 1.0))
    for p in (1.0, 2.0, 3.5, math.inf):
        assert abs(lp_norm_domain(one, p) - 1.0) < 1e-13


def test_lp_norm_distance_weights_match_disk_moments(disk_solve):
    # with delta = 1 - r on the unit disk: mean delta = 1/3 and
    # mean delta^2 = 1/6, so the weighted norms are 1/3 and sqrt(1/6)
    _, u, _ = disk_solve
    one = nodal(u.grid, lambda X, Y: np.full_like(X, 1.0))
    assert abs(lp_norm_domain(one, 1.0, alpha=1.0) - 1.0 / 3.0) < 2e-3
    assert abs(lp_norm_domain(one, 2.0, alpha=1.0) - math.sqrt(1.0 / 6.0)) < 5e-4


def test_lp_norm_frobenius_of_harmonic_residue(ellipse_solve):
    # || I - hess u ||_{2, Omega} for the ellipse: constant sqrt(2)(a^2-b^2)
    # / (a^2+b^2) = 3 sqrt(2) / 5
    _, u, _ = ellipse_solve
    H = hessian_torsion(u)
    comps = np.stack([1.0 - H.components[..., 0],
                      -H.components[..., 1],
                      1.0 - H.components[..., 2]], axis=-1)
    res = TensorField(grid=u.grid, components=comps, valid=H.valid)
    want = 3.0 * math.sqrt(2.0) / 5.0
    assert abs(lp_norm_domain(res, 2.0) - want) < 1e-9
    assert abs(lp_norm_domain(res, math.inf) - want) < 1e-9


def test_lp_norm_rejects_bad_exponent(disk_solve):
    _, u, _ = disk_solve
    with pytest.raises(DomainError):
        lp_norm_domain(u, 0.5)


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
    trace = normal_derivative(u, _sample_boundary(domain, 256))
    assert trace.excluded_fraction == 0.0
    assert float(np.max(np.abs(trace.values[trace.valid] - 1.0))) < 8e-3


def test_normal_derivative_on_the_ellipse(ellipse_solve):
    domain, u, _ = ellipse_solve
    trace = normal_derivative(u, _sample_boundary(domain, 512))
    gamma = domain.boundary(trace.phi)
    want = 0.8 * np.sqrt(gamma[:, 0] ** 2 / 4.0 + 4.0 * gamma[:, 1] ** 2)
    ok = trace.valid
    rel = np.abs(trace.values[ok] - want[ok]) / want[ok]
    assert float(rel.max()) < 5e-3
    # the minimum slope sits on the flat ends: 2 b^2 a/(a^2+b^2) = 0.8, and it
    # stays above the rolling-ball radius b^2/a = 0.5
    assert float(np.min(trace.values[ok])) > 0.5
    assert abs(float(np.min(trace.values[ok])) - 0.8) < 5e-3


def test_normal_derivative_flags_stencils_that_leave_the_domain(disk_solve):
    # with the normals flipped, both stencil samples lie outside the disk
    domain, u, _ = disk_solve
    phi, pos, normal, kappa, weight = _sample_boundary(domain, 64)[:5]
    trace = normal_derivative(u, (phi, pos, -normal, kappa, weight))
    assert trace.excluded_fraction == 1.0
    with pytest.raises(GeometryError):
        boundary_lp_norm(trace, 2.0)


def test_boundary_lp_norm_of_constants(disk_solve):
    domain, u, _ = disk_solve
    trace = normal_derivative(u, _sample_boundary(domain, 256))
    flat = BoundaryTrace(phi=trace.phi, values=np.full_like(trace.values, 2.5),
                         weights=trace.weights, valid=trace.valid)
    for p in (1.0, 2.0, math.inf):
        assert abs(boundary_lp_norm(flat, p) - 2.5) < 1e-13
    with pytest.raises(DomainError):
        boundary_lp_norm(flat, 0.3)


def test_gauss_map_deviation_vanishes_exactly_on_the_disk():
    disk = StarDomain2D(c0=1.0)
    assert gauss_map_deviation(disk, (0.0, 0.0), 1.0) == 0.0


def test_gauss_map_deviation_is_rotation_invariant():
    ell = StarDomain2D.ellipse(ELLIPSE_A, ELLIPSE_B)
    base = gauss_map_deviation(ell, (0.0, 0.0), 0.8)
    turned = gauss_map_deviation(rotated(ell, 0.7), (0.0, 0.0), 0.8)
    assert base > 0.5
    assert abs(turned - base) < 1e-8 * base
