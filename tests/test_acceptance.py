"""Acceptance battery: one test per contract criterion, one ✓/✗ line each.

Every test prints a single summary line (visible with ``pytest -s``) of the
form ``✓ criterion N: ...`` with the measured numbers, and fails loudly if
the gate is missed.  Oracles are computed independently here — adaptive
quadrature, closed forms from first principles — never read back from the
package under test.
"""
from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest
from scipy import integrate

from oscbound.cli import main
from oscbound.cones import catalog_cones, catalog_fields, riesz_potential, run_cone_sweep
from oscbound.constants import (
    INF,
    ExponentPair,
    cap_measure,
    cone_measure,
    euler_beta,
    holder_conjugate,
    morrey_cone_constant,
    morrey_domain_constant,
    oscillation_bound,
    psi_profile,
    serrin_profile_exponent,
)
from oscbound.errors import DomainError
from oscbound.identities import (
    build_pipeline_data,
    check_divergence_identity,
    check_fundamental_identity,
    check_identity_mp,
)
from oscbound.stability import FamilySpec, check_sbt_profile, check_serrin_profile, run_family
from oscbound.stardomain import StarDomain2D, diameter, star_radius
from oscbound.torsion import (
    DiscreteField,
    estimate_order,
    exact_ellipse_torsion,
    normal_derivative,
    solve_torsion,
)


def accept(n: int, passed: bool, text: str) -> None:
    mark = "✓" if passed else "✗"
    print(f"\n{mark} criterion {n:2d}: {text}", flush=True)
    assert passed, f"criterion {n} failed: {text}"


def rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# --------------------------------------------------------------------------
# 1. constants against independent oracles
# --------------------------------------------------------------------------

def quad_beta(x: float, y: float) -> float:
    """B(x, y) by adaptive quadrature with the algebraic endpoint weight."""
    val, _ = integrate.quad(lambda t: 1.0, 0.0, 1.0, weight="alg",
                            wvar=(x - 1.0, y - 1.0), epsabs=1e-14, epsrel=1e-13)
    return val


def cap_oracle(theta: float, N: int) -> float:
    """|S^{N-2}| * int_0^theta sin^{N-2} t dt with gamma-function area."""
    if N == 2:
        return 2.0 * theta
    if N == 3:
        return 2.0 * math.pi * (1.0 - math.cos(theta))
    area = 2.0 * math.pi ** ((N - 1) / 2.0) / math.gamma((N - 1) / 2.0)
    val, _ = integrate.quad(lambda t: math.sin(t) ** (N - 2), 0.0, theta,
                            epsabs=1e-14, epsrel=1e-13)
    return area * val


def test_criterion_01_constants_oracles():
    t0 = time.perf_counter()
    worst = 0.0
    for x, y in [(0.5, 0.5), (1.0, 1.0), (1.5, 2.5), (2.0, 3.0),
                 (3.5, 0.5), (5.0, 2.0)]:
        worst = max(worst, rel(euler_beta(x, y), quad_beta(x, y)))
    worst = max(worst, rel(euler_beta(0.5, 0.5), math.pi))
    for N in (2, 3, 4, 5):
        for theta in (math.pi / 8, math.pi / 4, math.pi / 2):
            worst = max(worst, rel(cap_measure(theta, N), cap_oracle(theta, N)))
    for dim in (2, 3):
        for cone in catalog_cones(dim):
            a, th = cone.height, cone.theta
            want = th * a * a if dim == 2 else \
                2.0 * math.pi * (1.0 - math.cos(th)) * a ** 3 / 3.0
            worst = max(worst, rel(cone_measure(cone), want))
    for N in (2, 3):
        for p in (float(N) + 1.0, 4.0, 8.0):
            pp, nn = holder_conjugate(p), holder_conjugate(N)
            want = (1.3 / N) * quad_beta(1.0 - pp / nn, pp + 1.0) ** (1.0 / pp)
            worst = max(worst, rel(morrey_cone_constant(p, N, 1.3), want))
        # p -> inf limit formulas: mean distance to the vertex, and the
        # theta-independent domain normalization N / (N + 1)
        worst = max(worst, rel(morrey_cone_constant(INF, N, 1.7),
                               1.7 * N / (N + 1.0)))
        worst = max(worst, rel(morrey_domain_constant(INF, N, math.pi / 4),
                               N / (N + 1.0)))
    elapsed = time.perf_counter() - t0
    accept(1, worst <= 1e-10 and elapsed < 1.0,
           f"constants vs quadrature/closed-form oracles: worst rel err "
           f"{worst:.2e} (gate 1e-10), {elapsed:.2f}s (gate 1s)")


# --------------------------------------------------------------------------
# 2. Riesz kernel integrals against their closed forms
# --------------------------------------------------------------------------

def test_criterion_02_riesz_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    for dim in (2, 3):
        field = next(f for f in catalog_fields(dim) if f.label == "affine_mix")
        m = float(np.linalg.norm(field.gradient(np.zeros((1, dim)))[0]))
        for cone in catalog_cones(dim):
            a, N = cone.height, dim
            worst = max(worst, rel(riesz_potential(cone, field, weighted=False),
                                   m * N / a ** (N - 1)))
            worst = max(worst, rel(riesz_potential(cone, field, weighted=True),
                                   m * a * N / (N + 1.0)))
    elapsed = time.perf_counter() - t0
    accept(2, worst <= 1e-8 and elapsed < 1.0,
           f"plain kernel = mN/a^(N-1), weighted = maN/(N+1) on 18 cones: "
           f"worst rel err {worst:.2e} (gate 1e-8), {elapsed:.2f}s (gate 1s)")


# --------------------------------------------------------------------------
# 3. full cone inequality sweep
# --------------------------------------------------------------------------

def test_criterion_03_cone_sweep():
    t0 = time.perf_counter()
    fields = catalog_fields(2)
    cones = catalog_cones(2)
    checks = run_cone_sweep(dim=2)
    bad = [c for c in checks if not c.ok()]
    elapsed = time.perf_counter() - t0
    accept(3, len(fields) >= 20 and len(cones) == 9 and not bad
           and elapsed < 30.0,
           f"{len(fields)} fields x {len(cones)} cones -> {len(checks)} "
           f"inequality checks, {len(bad)} violations beyond 1e-9 slack, "
           f"{elapsed:.1f}s (gate 30s)")


# --------------------------------------------------------------------------
# 4. oscillation bounds on star domains
# --------------------------------------------------------------------------

def polar_nodes(domain: StarDomain2D, n_t: int = 48, n_phi: int = 256):
    """Interior quadrature nodes/weights plus a boundary ring for sup/osc."""
    t, wt = np.polynomial.legendre.leggauss(n_t)
    t = 0.5 * (t + 1.0)
    wt = 0.5 * wt
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    r = domain.radial(phi)
    e = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    pts = (t[:, None, None] * (r[None, :, None] * e[None, :, :])).reshape(-1, 2)
    w = (wt[:, None] * t[:, None] * r[None, :] ** 2
         * (2.0 * math.pi / n_phi)).reshape(-1)
    ring = r[:, None] * e
    return pts, w, ring


def test_criterion_04_domain_oscillation_bounds():
    t0 = time.perf_counter()
    domains = [
        StarDomain2D.circle(1.0),
        StarDomain2D.ellipse(2.0, 1.0),
        StarDomain2D.ellipse(1.2, 1.0 / 1.2),
        StarDomain2D.cosine(0.1, 3),
        StarDomain2D.cosine(0.2, 2),
        StarDomain2D.cosine(0.15, 5),
    ]
    pairs = [ExponentPair(p, INF, 2) for p in (3.0, 4.0, 6.0, 12.0)]   # p > N
    pairs += [ExponentPair(1.0, INF, 2), ExponentPair(1.0, 4.0, 2),    # p < N
              ExponentPair(1.5, 3.0, 2),
              ExponentPair(2.0, INF, 2), ExponentPair(2.0, 6.0, 2)]    # p = N
    fields = catalog_fields(2)
    n_checks, violations = 0, 0
    for domain in domains:
        diam = diameter(domain)
        rho = star_radius(domain)
        pts, w, ring = polar_nodes(domain)
        volume = float(np.sum(w))
        for field in fields:
            vals = np.concatenate([field.value(pts), field.value(ring)])
            osc = float(np.max(vals) - np.min(vals))
            mag = field.gradient_magnitude(pts)
            mag_all = np.concatenate([mag, field.gradient_magnitude(ring)])

            def norm(p: float) -> float:
                if p == INF:
                    return float(np.max(mag_all))
                return float((np.sum(w * mag ** p) / volume) ** (1.0 / p))

            for pair in pairs:
                est = oscillation_bound(norm(pair.p), norm(pair.q), pair,
                                        diameter=diam,
                                        star_radius=rho, volume=volume)
                n_checks += 1
                if osc > est.value + 1e-9:
                    violations += 1
    elapsed = time.perf_counter() - t0
    accept(4, violations == 0 and elapsed < 30.0,
           f"oscillation bounds on {len(domains)} domains x {len(fields)} "
           f"fields x {len(pairs)} exponent pairs = {n_checks} checks, "
           f"{violations} violations, {elapsed:.1f}s (gate 30s)")


# --------------------------------------------------------------------------
# 5. solver accuracy against the exact ellipse torsion
# --------------------------------------------------------------------------

def max_node_error(u: DiscreteField, exact) -> float:
    pts = np.stack(np.meshgrid(u.grid.xs, u.grid.ys), axis=-1).reshape(-1, 2)
    vals = exact.value(pts).reshape(u.grid.inside.shape)
    return float(np.nanmax(np.abs(
        np.where(u.grid.inside, u.values - vals, np.nan))))


def shared_node_gap(u_coarse: DiscreteField, u_fine: DiscreteField) -> float:
    gc, gf = u_coarse.grid, u_fine.grid
    jx = np.round((gc.xs - gf.xs[0]) / gf.h).astype(int)
    iy = np.round((gc.ys - gf.ys[0]) / gf.h).astype(int)
    okx = (jx >= 0) & (jx < gf.xs.size)
    oky = (iy >= 0) & (iy < gf.ys.size)
    fine = np.full(u_coarse.values.shape, np.nan)
    fine[np.ix_(oky, okx)] = u_fine.values[np.ix_(iy[oky], jx[okx])]
    both = gc.inside & np.isfinite(fine)
    return float(np.max(np.abs(u_coarse.values - fine)[both]))


def test_criterion_05_solver_order_and_trace():
    t0 = time.perf_counter()
    ellipse = StarDomain2D.ellipse(2.0, 1.0)
    exact = exact_ellipse_torsion(2.0, 1.0)
    errors = {}
    traces = {}
    for k in (5, 6, 7):                     # h, h/2, h/4 = 1/32 ... 1/128
        h = 1.0 / 2 ** k
        u, _ = solve_torsion(ellipse, h)
        errors[k] = max_node_error(u, exact)
        if k == 7:
            traces[k] = normal_derivative(u, ellipse, m=1024)
    # The exact ellipse torsion is a quadratic, which the cut-cell stencil
    # reproduces exactly: node errors sit at the roundoff floor, which
    # trumps any finite convergence order.  If the floor is ever missed,
    # fall back to the measured order gate.
    floor = max(errors.values())
    if floor <= 1e-10:
        order_txt = f"machine-exact on the quadratic (max err {floor:.1e})"
        order_ok = True
    else:
        o1 = estimate_order(errors[5], errors[6])
        o2 = estimate_order(errors[6], errors[7])
        order_txt = f"orders {o1:.2f}, {o2:.2f}"
        order_ok = min(o1, o2) >= 1.8
    # independent second-order evidence on a non-quadratic solution
    cosine = StarDomain2D.cosine(0.1, 3)
    sols = {k: solve_torsion(cosine, 1.0 / 2 ** k)[0] for k in (4, 5, 6)}
    rich = estimate_order(shared_node_gap(sols[4], sols[5]),
                          shared_node_gap(sols[5], sols[6]))
    # normal-derivative trace accuracy at h = 1/128
    tr = traces[7]
    gamma = ellipse.boundary(tr.phi)
    exact_un = 0.4 * np.sqrt(gamma[:, 0] ** 2 + 16.0 * gamma[:, 1] ** 2)
    trace_err = float(np.max(np.abs(tr.values - exact_un)[tr.valid]))
    elapsed = time.perf_counter() - t0
    accept(5, order_ok and rich >= 1.8 and trace_err <= 5e-3
           and tr.excluded_fraction <= 0.01 and elapsed < 120.0,
           f"ellipse solve {order_txt}; Richardson order {rich:.2f} "
           f"(gate 1.8) on a perturbed domain; sup trace error "
           f"{trace_err:.2e} at h=1/128 (gate 5e-3); {elapsed:.1f}s "
           f"(gate 120s)")


# --------------------------------------------------------------------------
# 6. integral identity residuals at h = 1/128
# --------------------------------------------------------------------------

def test_criterion_06_identity_residuals():
    t0 = time.perf_counter()
    a = 1.2
    domain = StarDomain2D.ellipse(a, 1.0 / a)       # the eps = 0.2 member
    res = {}
    for k in (5, 6, 7):
        data = build_pipeline_data(domain, 1.0 / 2 ** k)
        res[k] = {
            "div": check_divergence_identity(data).residual,
            "fund": check_fundamental_identity(data).residual,
            "mp": check_identity_mp(data).residual,
        }
    fine = res[7]
    order_fund = math.log2(res[5]["fund"] / res[7]["fund"]) / 2.0
    order_mp = math.log2(res[5]["mp"] / res[7]["mp"]) / 2.0
    elapsed = time.perf_counter() - t0
    accept(6, fine["fund"] <= 0.02 and fine["mp"] <= 0.02
           and fine["div"] <= 0.01 and order_fund >= 1.0 and order_mp >= 1.0
           and elapsed < 120.0,
           f"residuals at h=1/128: fundamental {fine['fund']:.2e} (gate 2e-2)"
           f", weighted-Hessian {fine['mp']:.2e} (gate 2e-2), divergence "
           f"{fine['div']:.2e} (gate 1e-2); ladder orders {order_fund:.2f}/"
           f"{order_mp:.2f} (gate 1.0); {elapsed:.1f}s (gate 120s)")


# --------------------------------------------------------------------------
# 7./8. planar linear stability profiles
# --------------------------------------------------------------------------

def test_criterion_07_sbt_profile():
    t0 = time.perf_counter()
    spec = FamilySpec(kind="ellipse", spacing=1.0 / 64.0)
    verdict = check_sbt_profile(run_family(spec))
    elapsed = time.perf_counter() - t0
    accept(7, verdict.passed and elapsed < 300.0,
           f"ellipse family slope {verdict.primary.slope:.4f} in [0.9,1.1], "
           f"R^2 {verdict.primary.r_squared:.5f} >= 0.98, Gauss slope "
           f"{verdict.gauss.slope:.4f} >= 0.9; {elapsed:.1f}s (gate 300s)")


def test_criterion_08_serrin_profile():
    t0 = time.perf_counter()
    spec = FamilySpec(kind="cosine_perturbation", k=2, spacing=1.0 / 64.0)
    verdict = check_serrin_profile(run_family(spec))
    elapsed = time.perf_counter() - t0
    accept(8, verdict.passed and elapsed < 300.0,
           f"cosine-mode-2 family slope {verdict.primary.slope:.4f} in "
           f"[0.9,1.1], R^2 {verdict.primary.r_squared:.5f}, Gauss slope "
           f"{verdict.gauss.slope:.4f}; {elapsed:.1f}s (gate 300s)")


# --------------------------------------------------------------------------
# 9. high-dimension profiles: closed forms only
# --------------------------------------------------------------------------

def test_criterion_09_profile_closed_forms():
    worst = 0.0
    # q -> inf limits: 4/(N+1) for the overdetermined profile, 4/N for psi
    for N in (4, 5, 6, 8):
        worst = max(worst, rel(serrin_profile_exponent(N, INF), 4.0 / (N + 1)))
        worst = max(worst, rel(serrin_profile_exponent(N, 1e12), 4.0 / (N + 1)))
        for q in (2.0 * N, 3.0 * N):
            want = (4.0 - 2.0 * N / q) / (N + 1.0 - 2.0 * N / q)
            worst = max(worst, rel(serrin_profile_exponent(N, q), want))
    for N in (5, 6, 9):
        sigma = 0.37
        worst = max(worst, rel(psi_profile(sigma, N), sigma ** (4.0 / N)))
        q = 2.5 * N
        tau = 4.0 / N - 2.0 * (N - 4.0) / (N * (q - 2.0))
        worst = max(worst, rel(psi_profile(sigma, N, "C2", q), sigma ** tau))
    # N = 4 logarithmic profile and the low-dimension linear profile
    worst = max(worst, rel(psi_profile(0.01, 4), 0.01 * math.log(100.0)))
    worst = max(worst, rel(psi_profile(0.8, 4), 0.8))       # log clamp at 1
    for N in (2, 3):
        worst = max(worst, rel(psi_profile(0.37, N), 0.37))
        with pytest.raises(DomainError):
            serrin_profile_exponent(N, INF)                 # excluded low dim
    with pytest.raises(DomainError):
        psi_profile(0.5, 5, "C2", 4.0)                      # needs q > N
    accept(9, worst <= 1e-10,
           f"psi/overdetermined profile closed forms incl. q->inf limits "
           f"4/N and 4/(N+1): worst rel err {worst:.2e}; N<=3 exponents "
           f"correctly refused")


# --------------------------------------------------------------------------
# 10. byte-identical reruns
# --------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=ellipse\neps=0.1,0.2\ngrid.h=0.03125\n"
                   "dump_fields=true\n", encoding="utf-8")
    fam = tmp_path / "fam.cfg"
    fam.write_text("family=cosine\nk=2\neps=0.05,0.1,0.15,0.2\n"
                   "grid.h=0.03125\n", encoding="utf-8")
    outs = (str(tmp_path / "a"), str(tmp_path / "b"))
    for out in outs:
        assert main(["constants", "--N", "2", "--out", out]) == 0
        assert main(["cone-verify", "--out", out]) == 0
        assert main(["domain-verify", "--config", str(cfg), "--out", out]) == 0
        assert main(["serrin-run", "--config", str(fam), "--out", out]) == 0
        assert main(["report", "--out", out]) == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    diffs = []
    for name in names:
        with open(os.path.join(outs[0], name), "rb") as fa, \
                open(os.path.join(outs[1], name), "rb") as fb:
            if fa.read() != fb.read():
                diffs.append(name)
    elapsed = time.perf_counter() - t0
    accept(10, not diffs,
           f"two full CLI runs wrote {len(names)} CSVs each, byte-identical "
           f"({elapsed:.1f}s)")
