"""Oracle-backed tests for the closed-form constants layer.

Expected values fall into three classes: direct assertions of trivial
algebra, values frozen from independent numerical oracles (quadrature, grid
search) computed inside this file, and hand-derived closed forms.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from oscbound.constants import (
    INF,
    ConeSpec,
    ConstantReport,
    ExponentPair,
    cap_measure,
    cone_measure,
    euler_beta,
    gradient_bound_M,
    min_depth_bound,
    morrey_cone_constant,
    morrey_domain_constant,
    oscillation_bound,
    oscillation_regime,
    psi_profile,
    serrin_profile_exponent,
    two_term_minimize,
    unit_ball_volume,
)
from oscbound.constants import far_field_coefficient, near_field_coefficient
from oscbound.constants import PowerTable, normalized_norm
from oscbound.errors import DomainError


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# --------------------------------------------------------------------------
# euler_beta
# --------------------------------------------------------------------------

def test_beta_trivial_and_closed_forms():
    assert euler_beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert rel_err(euler_beta(0.5, 0.5), math.pi) < 1e-12
    assert rel_err(euler_beta(0.5, 2.0), 4.0 / 3.0) < 1e-12


def test_beta_against_quadrature_oracle():
    # B(1/2, 2) = int_0^1 t^{-1/2} (1 - t) dt; substitute t = u^2 to remove
    # the endpoint singularity before applying Gauss quadrature.
    oracle, _ = integrate.quad(lambda u: 2.0 * (1.0 - u * u), 0.0, 1.0)
    assert rel_err(euler_beta(0.5, 2.0), oracle) < 1e-10

    # A non-symmetric pair with mild singularity, same substitution trick.
    x, y = 0.7, 3.2
    oracle, _ = integrate.quad(
        lambda u: (1.0 / x) * (1.0 - u ** (1.0 / x)) ** (y - 1.0), 0.0, 1.0
    )
    assert rel_err(euler_beta(x, y), oracle) < 1e-10


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(min_value=0.05, max_value=50.0),
    y=st.floats(min_value=0.05, max_value=50.0),
)
def test_beta_symmetry(x, y):
    assert euler_beta(x, y) == euler_beta(y, x)


@pytest.mark.parametrize("bad", [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0)],
                         ids=["x=0", "x<0", "y=0"])
def test_beta_rejects_nonpositive(bad):
    with pytest.raises(DomainError):
        euler_beta(*bad)


# --------------------------------------------------------------------------
# cap and cone measures
# --------------------------------------------------------------------------

def test_cap_measure_closed_forms():
    assert rel_err(cap_measure(math.pi / 2, 2), math.pi) < 1e-12
    assert rel_err(cap_measure(math.pi / 4, 2), math.pi / 2) < 1e-12
    assert rel_err(cap_measure(math.pi / 2, 3), 2 * math.pi) < 1e-12
    assert rel_err(cap_measure(math.pi / 3, 3), 2 * math.pi * 0.5) < 1e-12


@pytest.mark.parametrize("N", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("theta", [0.3, math.pi / 4, 1.2, math.pi / 2])
def test_cap_measure_against_sine_quadrature(N, theta):
    # |S_theta| = |S^{N-2}| int_0^theta sin^{N-2} t dt, computed directly.
    ring = 2.0 if N == 2 else (N - 1) * unit_ball_volume(N - 1)
    oracle, _ = integrate.quad(lambda t: math.sin(t) ** (N - 2), 0.0, theta)
    assert rel_err(cap_measure(theta, N), ring * oracle) < 1e-12


def test_cap_measure_rejects_bad_angle():
    for theta in (0.0, -0.1, math.pi / 2 + 1e-9):
        with pytest.raises(DomainError):
            cap_measure(theta, 2)


def cone(theta: float, a: float, dim: int = 2) -> ConeSpec:
    vertex = np.zeros(dim)
    axis = np.zeros(dim)
    axis[0] = 1.0
    return ConeSpec(vertex=vertex, axis=axis, theta=theta, height=a)


def test_cone_measure_examples():
    assert rel_err(cone_measure(cone(math.pi / 4, 1.0)), math.pi / 4) < 1e-12
    assert rel_err(cone_measure(cone(math.pi / 2, 1.0)), math.pi / 2) < 1e-12
    assert cone_measure(cone(math.pi / 4, 1e-12)) < 1e-20
    # 3-D: |C| = 2 pi (1 - cos theta) a^3 / 3
    got = cone_measure(cone(0.8, 1.7, dim=3))
    want = 2 * math.pi * (1 - math.cos(0.8)) * 1.7**3 / 3.0
    assert rel_err(got, want) < 1e-12


def test_cone_spec_validation():
    with pytest.raises(DomainError):
        cone(math.pi / 2 + 0.01, 1.0)
    with pytest.raises(DomainError):
        cone(math.pi / 4, 0.0)
    with pytest.raises(DomainError):
        ConeSpec(vertex=np.zeros(2), axis=np.zeros(2), theta=0.5, height=1.0)
    spec = ConeSpec(vertex=np.zeros(2), axis=np.array([3.0, 4.0]), theta=0.5, height=1.0)
    assert np.allclose(spec.axis, [0.6, 0.8])


def test_cone_spec_copies_caller_arrays():
    # float64 unit vectors are exactly what np.asarray would alias
    vertex = np.array([0.3, -0.2])
    axis = np.array([1.0, 0.0])
    spec = ConeSpec(vertex=vertex, axis=axis, theta=0.5, height=1.0)
    assert vertex.flags.writeable and axis.flags.writeable
    vertex[0] = 9.0
    axis[:] = [0.0, 1.0]
    assert spec.vertex.tolist() == [0.3, -0.2]
    assert spec.axis.tolist() == [1.0, 0.0]
    for arr in (spec.vertex, spec.axis):
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("vertex, axis, height", [
    ([0.0, math.nan], [1.0, 0.0], 1.0),
    ([-math.inf, 0.0], [1.0, 0.0], 1.0),
    ([0.0, 0.0], [math.inf, 0.0], 1.0),
    ([0.0, 0.0], [math.nan, 1.0], 1.0),
    ([0.0, 0.0], [1e308, 1e308], 1.0),     # the norm overflows
    ([0.0, 0.0], [1.0, 0.0], math.inf),
    ([0.0, 0.0], [1.0, 0.0], math.nan),
])
def test_cone_spec_rejects_non_finite(vertex, axis, height):
    with pytest.raises(DomainError):
        ConeSpec(vertex=np.array(vertex), axis=np.array(axis), theta=0.5,
                 height=height)


# --------------------------------------------------------------------------
# exponent pairs
# --------------------------------------------------------------------------

def test_exponent_pair_validation():
    with pytest.raises(DomainError):
        ExponentPair(3.0, 2.0, 2)
    with pytest.raises(DomainError):
        ExponentPair(0.5, 2.0, 2)
    with pytest.raises(DomainError):
        ExponentPair(1.0, 2.0, 1)


# --------------------------------------------------------------------------
# cone-average (Morrey) constants
# --------------------------------------------------------------------------

def test_morrey_cone_constant_infinity_limits():
    assert rel_err(morrey_cone_constant(INF, 2, 1.0), 2.0 / 3.0) < 1e-12
    assert rel_err(morrey_cone_constant(INF, 3, 1.0), 3.0 / 4.0) < 1e-12
    # p = inf equals the exact average of the weighted kernel:
    # (N/a^N) int_0^a (a^N - s^N)/N ds = a N/(N+1)
    for N, a in ((2, 0.5), (3, 2.0), (4, 1.3)):
        assert rel_err(morrey_cone_constant(INF, N, a), a * N / (N + 1.0)) < 1e-12


@pytest.mark.parametrize("N,p,a", [(2, 4.0, 1.0), (2, 3.0, 0.7), (3, 5.0, 1.9), (4, 6.5, 1.0)])
def test_morrey_cone_constant_against_kernel_quadrature(N, p, a):
    # The constant is the L^{p'} norm of the weighted kernel over the cone:
    # ((N/a^N) int_0^a [s^{1-N} (a^N - s^N)/N]^{p'} s^{N-1} ds)^{1/p'}.
    pp = p / (p - 1.0)

    def integrand(s: float) -> float:
        return (s ** (1.0 - N) * (a**N - s**N) / N) ** pp * s ** (N - 1)

    oracle, _ = integrate.quad(integrand, 0.0, a, points=[0.0], limit=200)
    oracle = (oracle * N / a**N) ** (1.0 / pp)
    assert rel_err(morrey_cone_constant(p, N, a), oracle) < 1e-8


def test_morrey_cone_constant_rejects_small_p():
    with pytest.raises(DomainError):
        morrey_cone_constant(2.0, 2, 1.0)
    with pytest.raises(DomainError):
        morrey_cone_constant(3.0, 3, 1.0)  # p = N hits the beta pole


def test_morrey_domain_constant_examples():
    assert rel_err(morrey_domain_constant(INF, 2, math.pi / 4), 2.0 / 3.0) < 1e-12
    assert rel_err(morrey_domain_constant(INF, 3, math.pi / 4), 3.0 / 4.0) < 1e-12
    # value independent of the cap angle at p = inf
    assert morrey_domain_constant(INF, 2, 0.3) == morrey_domain_constant(INF, 2, 1.2)


@pytest.mark.parametrize("N,p,theta", [(2, 4.0, math.pi / 4), (3, 4.5, 0.6), (2, 8.0, 1.0)])
def test_morrey_domain_constant_norm_inflation_identity(N, p, theta):
    # Defining relation: k a^{1-N/p} V^{1/p} equals the cone constant times
    # the norm-inflation factor (N V / (|S_theta| a^N))^{1/p}.
    a, volume = 0.83, 3.7
    lhs = morrey_domain_constant(p, N, theta) * a ** (1.0 - N / p) * volume ** (1.0 / p)
    inflation = (N * volume / (cap_measure(theta, N) * a**N)) ** (1.0 / p)
    rhs = morrey_cone_constant(p, N, a) * inflation
    assert rel_err(lhs, rhs) < 1e-12


# --------------------------------------------------------------------------
# two-term minimization vs grid oracle
# --------------------------------------------------------------------------

def grid_minimum(A, B, expA, expB, a, log_variant=False, n=1_000_000):
    x = np.logspace(-6, 0, n)
    if log_variant:
        x = x / math.e  # grid over (0, a/e]
        vals = A * x**expA + B * np.log(1.0 / x)
    else:
        vals = A * x**expA + B * x**expB
    i = int(np.argmin(vals))
    return a * x[i], float(vals[i])


def test_two_term_fixed_examples():
    sigma, bound = two_term_minimize(1.0, 1.0, 0.5, -0.5, 1.0)
    assert sigma == pytest.approx(1.0, abs=1e-9)
    assert bound == pytest.approx(2.0, rel=1e-12)

    assert two_term_minimize(3.0, 0.0, 0.5, -0.5, 2.0) == (0.0, 0.0)
    assert two_term_minimize(0.0, 0.0, 0.5, -0.5, 2.0) == (2.0, 0.0)
    assert two_term_minimize(0.0, 1.5, 0.5, -0.5, 2.0) == (2.0, 1.5)

    # log mode with A = e B and unit exponent: minimizer at the right
    # endpoint sigma = a/e, objective value 2B there.
    sigma, bound = two_term_minimize(math.e, 1.0, 1.0, 0.0, 1.0, log_variant=True)
    assert sigma == pytest.approx(1.0 / math.e, rel=1e-9)
    assert bound == pytest.approx(2.0, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    A=st.floats(min_value=1e-3, max_value=1e3),
    B=st.floats(min_value=1e-3, max_value=1e3),
    expA=st.floats(min_value=0.05, max_value=1.0),
    expB=st.floats(min_value=-3.0, max_value=-0.05),
    a=st.floats(min_value=0.1, max_value=10.0),
)
def test_two_term_power_never_exceeds_grid(A, B, expA, expB, a):
    _, bound = two_term_minimize(A, B, expA, expB, a)
    x = np.logspace(-6, 0, 10_000)
    vals = A * x**expA + B * x**expB
    assert bound <= vals.min() * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    A=st.floats(min_value=1e-3, max_value=1e3),
    B=st.floats(min_value=1e-3, max_value=1e3),
    expA=st.floats(min_value=0.05, max_value=1.0),
    a=st.floats(min_value=0.1, max_value=10.0),
)
def test_two_term_log_never_exceeds_grid(A, B, expA, a):
    _, bound = two_term_minimize(A, B, expA, 0.0, a, log_variant=True)
    x = np.logspace(-6, 0, 10_000) / math.e
    vals = A * x**expA + B * np.log(1.0 / x)
    assert bound <= vals.min() * (1.0 + 1e-12)


def test_two_term_million_point_grid_oracle():
    cases = [
        (2.0, 5.0, 0.75, -1.0, 1.0, False),
        (10.0, 0.01, 0.5, -2.0, 3.0, False),
        (1.0, 1.0, 1.0, 0.0, 1.0, True),
        (5.0, 0.2, 0.25, 0.0, 2.0, True),
    ]
    for A, B, expA, expB, a, log_variant in cases:
        sigma, bound = two_term_minimize(A, B, expA, expB, a, log_variant=log_variant)
        g_sigma, g_bound = grid_minimum(A, B, expA, expB, a, log_variant=log_variant)
        assert bound <= g_bound * (1.0 + 1e-12)
        assert rel_err(bound, g_bound) < 1e-6  # grid resolves the same minimum
        assert 0.0 < sigma <= a


def test_two_term_rejects_bad_exponents():
    with pytest.raises(DomainError):
        two_term_minimize(1.0, 1.0, -0.5, -0.5, 1.0)
    with pytest.raises(DomainError):
        two_term_minimize(1.0, 1.0, 0.5, 0.5, 1.0)
    with pytest.raises(DomainError):
        two_term_minimize(1.0, 1.0, 0.5, -0.5, 0.0)


# --------------------------------------------------------------------------
# oscillation bound
# --------------------------------------------------------------------------

DISK = dict(diameter=2.0, star_radius=1.0, volume=math.pi)


def sweep_oracle(grad_p, grad_q, pair, diameter, star_radius, volume, n=200_000):
    """Direct sigma-sweep of the same objective oscillation_bound minimizes."""
    N, p, q = pair.N, pair.p, pair.q
    ball = unit_ball_volume(N)
    pre = 2.0 * diameter**N / (N * ball * star_radius**N)
    raw_q = grad_q if q == INF else grad_q * volume ** (1.0 / q)
    raw_p = grad_p * volume ** (1.0 / p)
    eA = 1.0 - (0.0 if q == INF else N / q)
    A = near_field_coefficient(q, N) * raw_q * diameter**eA
    x = np.logspace(-8, 0, n)
    if p == N:
        shell = raw_p * (N * ball * math.log(2.0)) ** (1.0 - 1.0 / N)
        x = x / math.e
        vals = shell + A * x**eA + (shell / math.log(2.0)) * np.log(1.0 / x)
    else:
        B = far_field_coefficient(p, N) * raw_p * diameter ** (1.0 - N / p)
        vals = A * x**eA + B * x ** (1.0 - N / p)
    return pre * float(vals.min())


def test_oscillation_bound_zero_norms():
    est = oscillation_bound(0.0, 0.0, ExponentPair(1.0, INF, 2), **DISK)
    assert est == 0.0


def test_oscillation_bound_respects_known_oscillation():
    # f = x_1 on the unit disk: osc = 2, |grad f| = 1 everywhere.  The p = inf
    # estimate is 2 d^{N+1}/rho^N ||grad f||_inf = 16 here; any valid
    # constructive bound must weakly exceed the true oscillation.
    pair = ExponentPair(INF, INF, 2)
    est = oscillation_bound(1.0, 1.0, pair, **DISK)
    assert oscillation_regime(pair) == "morrey"
    assert rel_err(est, 16.0) < 1e-12
    assert est >= 2.0


def test_oscillation_bound_matches_sigma_sweep():
    for pair, gp, gq in [
        (ExponentPair(1.0, INF, 2), 0.9, 1.0),
        (ExponentPair(1.5, 4.0, 2), 1.1, 2.3),
        (ExponentPair(2.0, 6.0, 2), 0.7, 1.9),  # p = N log regime
        (ExponentPair(2.0, INF, 3), 1.0, 3.0),
    ]:
        est = oscillation_bound(gp, gq, pair, **DISK)
        oracle = sweep_oracle(gp, gq, pair, **DISK)
        assert est <= oracle * (1.0 + 1e-10)
        assert rel_err(est, oracle) < 1e-5


def test_oscillation_bound_homogeneity():
    lam = 37.5
    for pair in (ExponentPair(4.0, 4.0, 2), ExponentPair(1.5, 5.0, 2), ExponentPair(2.0, 8.0, 2)):
        base = oscillation_bound(0.8, 1.7, pair, **DISK)
        scaled = oscillation_bound(0.8 * lam, 1.7 * lam, pair, **DISK)
        assert rel_err(scaled, lam * base) < 1e-10


def test_oscillation_bound_regime_errors():
    with pytest.raises(DomainError):
        oscillation_bound(1.0, 1.0, ExponentPair(2.0, 2.0, 2), **DISK)  # p = N, q = N
    with pytest.raises(DomainError):
        oscillation_bound(1.0, 1.0, ExponentPair(1.0, 1.5, 2), **DISK)  # q < N
    with pytest.raises(DomainError):
        oscillation_bound(1.0, 1.0, ExponentPair(1.0, INF, 2), diameter=2.0,
                          star_radius=3.0, volume=math.pi)


def test_oscillation_bound_log_regime_explicit_value():
    # p = N = 2, q = inf, equal norms: inner objective is
    # A x + B log(1/x) with A = N|B_1| g d, B = shell/log 2.
    est = oscillation_bound(1.0, 1.0, ExponentPair(2.0, INF, 2), **DISK)
    ball = math.pi
    raw2 = math.sqrt(math.pi)
    shell = raw2 * (2 * ball * math.log(2.0)) ** 0.5
    A = 2 * ball * 1.0 * 2.0
    B = shell / math.log(2.0)
    x = min(B / A, 1.0 / math.e)
    inner = A * x + B * math.log(1.0 / x)
    want = (2.0 * 4.0 / (2.0 * ball)) * (shell + inner)
    assert rel_err(est, want) < 1e-10


# The limits q = inf and p = inf are the finite formulas evaluated there: a
# norm with exponent inf is its own raw norm, and an exponent N/inf is 0.0.
# Each closed form below repeats the bound's arithmetic with exponent 1 and
# the raw inf-norms, so the two agree to the last bit.
LIMIT_SHAPE = dict(diameter=2.3, star_radius=0.4, volume=1.7)


def _limit_prefactor(N):
    d, r = LIMIT_SHAPE["diameter"], LIMIT_SHAPE["star_radius"]
    return 2.0 * d**N / (N * unit_ball_volume(N) * r**N)


@pytest.mark.parametrize("N", [2, 3, 5, 7])
@pytest.mark.parametrize("g", [0.0, 0.7])
def test_oscillation_bound_morrey_at_p_inf_is_exact(N, g):
    d = LIMIT_SHAPE["diameter"]
    est = oscillation_bound(g, 5.0, ExponentPair(INF, INF, N), **LIMIT_SHAPE)
    nb = N * unit_ball_volume(N)
    assert est == _limit_prefactor(N) * nb * g * d


@pytest.mark.parametrize("N", [2, 3, 5, 7])
@pytest.mark.parametrize("gp, gq", [(0.0, 0.0), (0.0, 1.3), (0.7, 0.0),
                                    (0.7, 2.9)])
def test_oscillation_bound_at_q_inf_is_exact(N, gp, gq):
    d, vol = LIMIT_SHAPE["diameter"], LIMIT_SHAPE["volume"]
    nb = N * unit_ball_volume(N)
    A = nb * gq * d
    # log regime, p = N
    shell = gp * vol ** (1.0 / N) * (nb * math.log(2.0)) ** (1.0 - 1.0 / N)
    _, inner = two_term_minimize(A, shell / math.log(2.0), 1.0, 0.0, d,
                                 log_variant=True)
    est = oscillation_bound(gp, gq, ExponentPair(float(N), INF, N),
                            **LIMIT_SHAPE)
    assert est == _limit_prefactor(N) * (shell + inner)
    # interpolation regime, p = 1 (far-field coefficient 1) and 1 < p < N
    for p in (1.0, (1.0 + N) / 2.0):
        B = (far_field_coefficient(p, N) * (gp * vol ** (1.0 / p))
             * d ** (1.0 - N / p))
        _, inner = two_term_minimize(A, B, 1.0, 1.0 - N / p, d)
        est = oscillation_bound(gp, gq, ExponentPair(p, INF, N),
                                **LIMIT_SHAPE)
        assert est == _limit_prefactor(N) * inner


@pytest.mark.parametrize("N", [2, 3, 5])
def test_far_field_coefficient_at_p_one_is_exactly_one(N):
    assert far_field_coefficient(1.0, N) == 1.0


# --------------------------------------------------------------------------
# stability profiles
# --------------------------------------------------------------------------

def test_psi_profile_examples():
    assert psi_profile(0.1, 2) == pytest.approx(0.1)
    assert psi_profile(0.35, 3) == pytest.approx(0.35)
    assert psi_profile(1.0, 4) == pytest.approx(1.0)
    assert psi_profile(0.01, 5, q=INF) == pytest.approx(0.01**0.8, rel=1e-12)
    assert psi_profile(0.0, 4) == 0.0
    # C2 with finite q: tau = 4/N - 2(N-4)/(N(q-2))
    tau = 4.0 / 5.0 - 2.0 / (5.0 * 8.0)
    assert psi_profile(0.2, 5, q=10.0) == pytest.approx(0.2**tau, rel=1e-12)


@pytest.mark.parametrize("N", [5, 7])
def test_psi_profile_at_q_inf_is_exact(N):
    for sigma in (0.0, 1e-3, 0.37, 2.5):
        assert psi_profile(sigma, N, q=INF) == sigma ** (4.0 / N)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 7])
def test_psi_profile_nondecreasing(N):
    grid = np.linspace(0.0, 1.0, 400)
    for q in (INF, float(2 * N)):
        vals = [psi_profile(float(s), N, q=q) for s in grid]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_psi_profile_errors():
    with pytest.raises(DomainError):
        psi_profile(-0.1, 2)
    with pytest.raises(DomainError):
        psi_profile(0.1, 1)
    with pytest.raises(DomainError):
        psi_profile(0.1, 5, q=4.0)  # q <= N


def test_serrin_profile_exponent_examples():
    assert serrin_profile_exponent(4, INF) == pytest.approx(0.8)
    assert serrin_profile_exponent(4) == pytest.approx(4.0 / 5.0)
    assert serrin_profile_exponent(5, 10.0) == pytest.approx(0.6)


@pytest.mark.parametrize("N", [4, 5, 6, 7])
def test_serrin_profile_exponent_at_q_inf_is_exact(N):
    assert serrin_profile_exponent(N, INF) == 4.0 / (N + 1.0)


def test_serrin_profile_exponent_monotone_in_q():
    for N in (4, 5, 8):
        qs = np.linspace(N + 0.5, 200.0, 50)
        vals = [serrin_profile_exponent(N, float(q)) for q in qs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 4.0 / (N + 1.0) + 1e-3


def test_serrin_profile_exponent_errors():
    for N in (2, 3):
        with pytest.raises(DomainError):
            serrin_profile_exponent(N, 10.0)
    with pytest.raises(DomainError):
        serrin_profile_exponent(5, 4.0)


# --------------------------------------------------------------------------
# structural constants
# --------------------------------------------------------------------------

def test_gradient_bound_M():
    assert gradient_bound_M(2, 2.0, 1.0) == pytest.approx(9.0)
    assert gradient_bound_M(3, 2.0, 1.0) == pytest.approx(12.0)
    assert gradient_bound_M(2, 2.0, 1e12) == pytest.approx(3.0, rel=1e-9)


def test_min_depth_bound():
    assert min_depth_bound(4, 1.0, mean_convex=True) == pytest.approx(0.5)
    want = (1.0 / math.sqrt(2.0)) / math.sqrt(5.5)
    assert min_depth_bound(2, 1.0, d=2.0, r_e=1.0) == pytest.approx(want, rel=1e-12)
    for N, r, d, r_e in ((2, 0.7, 2.0, 1.1), (3, 1.0, 3.0, 1.5)):
        general = min_depth_bound(N, r, d=d, r_e=r_e)
        convex = min_depth_bound(N, r, mean_convex=True)
        assert general <= convex


# --------------------------------------------------------------------------
# record types
# --------------------------------------------------------------------------

def test_constant_report_validation():
    ConstantReport("cap", math.pi, {"theta": math.pi / 2, "N": 2}, "closed form")
    with pytest.raises(DomainError):
        ConstantReport("bad", -1.0)


# --------------------------------------------------------------------------
# normalized_norm
# --------------------------------------------------------------------------

def test_normalized_norm_examples():
    values = np.array([3.0, -4.0])
    weights = np.array([1.0, 3.0])
    assert normalized_norm(values, weights, 1.0, 4.0) == (3.0 + 12.0) / 4.0
    assert normalized_norm(values, weights, 2.0, 4.0) == math.sqrt(57.0 / 4.0)
    # the max of |values|: the weights and the measure are not read
    assert normalized_norm(values, None, INF, None) == 4.0


def test_normalized_norm_of_a_constant_is_the_constant():
    # the measure is the total weight, as for a normalized norm over D
    weights = np.array([0.25, 0.5, 1.25])
    for p in (1.0, 2.0, 7.5, INF):
        got = normalized_norm(np.full(3, -2.5), weights, p, 2.0)
        assert rel_err(got, 2.5) < 1e-15, p


@pytest.mark.parametrize("p", [0.5, 0.0, -INF, math.nan])
def test_normalized_norm_rejects_bad_exponent(p):
    with pytest.raises(DomainError, match=r"exponent must be in \[1, inf\]"):
        normalized_norm(np.ones(2), np.ones(2), p, 2.0)


_RULE_EXPONENTS = [k / 2.0 for k in range(2, 33)]   # 1, 1.5, ..., 16
_OFF_RULE = [1.25, 2.7, 16.5, 20.0]


def _power_samples() -> np.ndarray:
    # zero, one, moderate values and magnitudes from 1e-15 to 1e19, whose
    # 16th powers reach both ends of the normal range
    rng = np.random.default_rng(7)
    return np.concatenate([[0.0, 1.0, 0.5, 2.0], 4.0 * rng.random(2000),
                           10.0 ** rng.uniform(-15.0, 19.0, 4000)])


@pytest.mark.parametrize("p", _RULE_EXPONENTS + _OFF_RULE)
def test_power_rule_is_within_p_ulps_of_np_power(p):
    v = _power_samples()
    with np.errstate(over="ignore", under="ignore"):
        got = PowerTable(v).weighted(np.ones_like(v), p)
        want = np.power(v, p)
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    normal = (want == 0.0) | ((want >= tiny) & (want <= huge))
    assert normal.sum() > 5000
    assert got[v == 0.0] == 0.0
    err = np.abs(got[normal] - want[normal])
    assert np.all(err <= p * 2.0**-52 * want[normal]), p
    if p in (1.0, 2.0, *_OFF_RULE):
        # |v| and |v| * |v| are np.power's bits; off the rule is np.power
        assert np.array_equal(got, want)


def test_power_table_is_a_fixed_function_of_p():
    # each power has the same bits whichever exponents the table built
    # before it, and the kept magnitudes are never written
    v = _power_samples()
    ones = np.ones_like(v)
    with np.errstate(over="ignore", under="ignore"):
        fresh = {p: PowerTable(v.copy()).weighted(ones, p)
                 for p in _RULE_EXPONENTS + _OFF_RULE}
        for order in (_RULE_EXPONENTS, _RULE_EXPONENTS[::-1], [12.0, 3.0, 1.5]):
            kept = v.copy()
            table = PowerTable(kept)
            for p in order:
                assert np.array_equal(table.weighted(ones, p), fresh[p]), p
            assert np.array_equal(kept, v)
