"""A 40-digit oracle for the Morrey constants and the kernel coefficients.

Each reference value is computed with mpmath at 40 significant digits from
the constant's definition, not from the package's formula:

* the Morrey constants from ``mpmath.beta`` at ``(1 - p'/N', p' + 1)``, and
  the domain constant's cap measure as ``|S^{N-2}| int_0^theta sin^{N-2} t
  dt``;
* the kernel coefficients as the power-law integrals of ``|z|^{(1-N) q'}``
  over the unit ball and over its complement.  In polar coordinates the
  radial integral of ``r^s`` is taken in closed form, so no quadrature
  crosses the singularity at r = 0.

An error is counted in units in the last place (ulp) of the reference.  The
budget is 8 ulp at the exponents the package uses.  Next to p = N the beta
function's first argument is small and its pole near, and the budget is 16
ulp.
"""
from __future__ import annotations

import functools
import math

import mpmath
import pytest

from oscbound.constants import (
    INF,
    far_field_coefficient,
    morrey_cone_constant,
    morrey_domain_constant,
    near_field_coefficient,
)

DIMS = range(2, 8)
THETAS = (0.1, math.pi / 8, math.pi / 4, math.pi / 2)
HEIGHTS = (1.0, 0.7)
BUDGET = 8
NEAR_N_BUDGET = 16


def morrey_exponents(N: int) -> list[float]:
    """The sweep's p = N + 1, 2N, 4N and inf, with N + 0.5, 16 and 100."""
    return sorted({N + 1.0, 2.0 * N, 4.0 * N, N + 0.5, 16.0, 100.0, INF})


def near_n_exponents(N: int) -> list[float]:
    return [N + 0.01, N + 0.001]


def near_field_exponents(N: int) -> list[float]:
    return sorted(q for q in {N + 0.5, N + 1.0, 2.0 * N, 4.0 * N, 8.0, 16.0,
                              100.0, INF} if q > N)


def far_field_exponents(N: int) -> list[float]:
    return sorted({1.0, 1.5, (1.0 + N) / 2.0, N - 0.5} - {float(N)})


def ulps(got: float, want: mpmath.mpf) -> float:
    """``|got - want|`` in units in the last place of ``want``."""
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(got) - want)) / math.ulp(float(want))


def assert_within(got: float, want: mpmath.mpf, budget: float) -> None:
    err = ulps(got, want)
    assert err <= budget, f"{got!r} is {err:.1f} ulp from {want}"


# --------------------------------------------------------------------------
# references at 40 digits
# --------------------------------------------------------------------------

@mpmath.workdps(40)
def sphere_area(n: int) -> mpmath.mpf:
    """``|S^{n-1}|``, the surface measure of the unit sphere of R^n."""
    return 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)


def conjugate(p: float) -> mpmath.mpf:
    """``p' = p / (p - 1)`` for p > 1, with inf' = 1."""
    if p == INF:
        return mpmath.mpf(1)
    return mpmath.mpf(p) / (mpmath.mpf(p) - 1)


@functools.lru_cache(maxsize=None)
@mpmath.workdps(40)
def ref_cap(theta: float, N: int) -> mpmath.mpf:
    return sphere_area(N - 1) * mpmath.quad(lambda t: mpmath.sin(t) ** (N - 2),
                                            [0, mpmath.mpf(theta)])


@mpmath.workdps(40)
def ref_beta_factor(p: float, N: int) -> mpmath.mpf:
    """``B(1 - p'/N', p' + 1)^{1/p'}``."""
    pp, nn = conjugate(p), conjugate(N)
    return mpmath.beta(1 - pp / nn, pp + 1) ** (1 / pp)


@mpmath.workdps(40)
def ref_cone(p: float, N: int, a: float) -> mpmath.mpf:
    return mpmath.mpf(a) / N * ref_beta_factor(p, N)


@mpmath.workdps(40)
def ref_domain(p: float, N: int, theta: float) -> mpmath.mpf:
    inv_p = 0 if p == INF else 1 / mpmath.mpf(p)
    pp = conjugate(p)
    return ref_beta_factor(p, N) / (mpmath.mpf(N) ** (1 / pp)
                                    * ref_cap(theta, N) ** inv_p)


@mpmath.workdps(40)
def ref_near(q: float, N: int) -> mpmath.mpf:
    """``(int_{B_1} |z|^{(1-N) q'} dz)^{1/q'}``: the radial integrand is
    ``r^s`` with ``s = (1 - N) q' + N - 1 > -1``, and int_0^1 r^s dr =
    1 / (s + 1)."""
    qq = conjugate(q)
    s = (1 - N) * qq + N - 1
    return (sphere_area(N) / (s + 1)) ** (1 / qq)


@mpmath.workdps(40)
def ref_far(p: float, N: int) -> mpmath.mpf:
    """``(int_{|z| > 1} |z|^{(1-N) p'} dz)^{1/p'}``: int_1^inf r^s dr =
    -1 / (s + 1) for ``s < -1``; at p = 1 (p' = inf) the kernel's sup over
    ``|z| >= 1``, which is 1."""
    if p == 1.0:
        return mpmath.mpf(1)
    pp = conjugate(p)
    s = (1 - N) * pp + N - 1
    return (sphere_area(N) / -(s + 1)) ** (1 / pp)


# --------------------------------------------------------------------------
# the package against the references
# --------------------------------------------------------------------------

@pytest.mark.parametrize("N", DIMS)
def test_morrey_cone_constant_within_budget(N):
    for p in morrey_exponents(N):
        for a in HEIGHTS:
            assert_within(morrey_cone_constant(p, N, a), ref_cone(p, N, a), BUDGET)


@pytest.mark.parametrize("N", DIMS)
def test_morrey_domain_constant_within_budget(N):
    for p in morrey_exponents(N):
        for theta in THETAS:
            assert_within(morrey_domain_constant(p, N, theta),
                          ref_domain(p, N, theta), BUDGET)


@pytest.mark.parametrize("N", DIMS)
def test_morrey_constants_near_p_equal_n_within_budget(N):
    # 1 - p'/N' cancels to about (p - N)/N^2 here; written as
    # (p - N)/(N (p - 1)) it keeps its relative precision
    for p in near_n_exponents(N):
        assert_within(morrey_cone_constant(p, N, 1.0), ref_cone(p, N, 1.0),
                      NEAR_N_BUDGET)
        for theta in THETAS:
            assert_within(morrey_domain_constant(p, N, theta),
                          ref_domain(p, N, theta), NEAR_N_BUDGET)


@pytest.mark.parametrize("N", DIMS)
def test_near_field_coefficient_within_budget(N):
    for q in near_field_exponents(N):
        assert_within(near_field_coefficient(q, N), ref_near(q, N), BUDGET)


@pytest.mark.parametrize("N", DIMS)
def test_far_field_coefficient_within_budget(N):
    for p in far_field_exponents(N):
        assert_within(far_field_coefficient(p, N), ref_far(p, N), BUDGET)


@pytest.mark.parametrize("N", DIMS)
def test_scaled_morrey_constants_fail_the_oracle(N):
    # a relative error of 1e-12 is thousands of ulp, far over any budget
    scale = 1.0 + 1e-12
    for p in morrey_exponents(N) + near_n_exponents(N):
        with pytest.raises(AssertionError):
            assert_within(morrey_cone_constant(p, N, 1.0) * scale,
                          ref_cone(p, N, 1.0), NEAR_N_BUDGET)
        with pytest.raises(AssertionError):
            assert_within(morrey_domain_constant(p, N, math.pi / 4) * scale,
                          ref_domain(p, N, math.pi / 4), NEAR_N_BUDGET)
