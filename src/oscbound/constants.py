"""Closed-form constants and reduced one-dimensional minimizations.

Everything in this module is exact arithmetic on top of gamma/beta special
functions: measures of spherical caps and cones, sharp cone-average (Morrey)
constants, Hoelder conjugate exponents, the two-term Hoelder-split minimization
that the power-law oscillation estimates reduce to, and the explicit structural
constants used by the torsion stability pipeline (gradient bound, minimum
depth).  No discretization happens here.

Conventions
-----------
* Lebesgue-type norms are normalized: ``||g||_p`` means
  ``( (1/|D|) \\int_D |g|^p )^{1/p}`` over whichever region D applies,
  and ``||g||_inf`` is the max of ``|g|``.  :meth:`PowerTable.norm` is the
  one reduction that every norm of the package goes through, by
  :func:`normalized_norm` or, in ``cones``, by a table kept per field.
* ``p = inf`` is represented by ``math.inf`` and handled as the exact limit
  of the finite-exponent formulas.  The stability profiles take the
  exponent q > N of their C^2 form; the C^{2,gamma} profiles are its limit
  ``q = inf``.
* Powers ``|v|^p`` follow one rule, :class:`PowerTable`.  For integer and
  half-integer p in [1, 16] they are products, by binary powering, of
  ``|v|``, ``|v|^2``, ``|v|^4``, ``|v|^8`` and ``|v|^16`` (each the square
  of the one before), in that order and times ``sqrt(|v|)`` last for the
  half; any other p goes through ``np.power``.  A power is so a fixed
  function of p, whichever exponents were taken before it.  ``|v|^(2^k)``
  carries at most ``2^k - 1`` roundings and each product one more, so
  ``|v|^p`` is within ``(p + 1) 2^-53`` relative of the exact power
  wherever it is a normal number (its factors then are too); with
  ``np.power``'s own rounding the two agree to within ``p 2^-52``.  At p = 1 and
  p = 2 the rule gives ``|v|`` and ``|v| * |v|``, the bits of
  ``np.power``.
* A function evaluates its finite formula at ``inf`` (and at p = 1), since
  IEEE arithmetic already gives the limit there: ``x / inf == 0.0``,
  ``x ** 0.0 == 1.0`` and ``0.0 ** 0.0 == 1.0``.  A separate branch is kept
  only where the formula gives NaN, raises, or rounds differently:
  :func:`holder_conjugate` (``1 / 0`` raises, ``inf / inf`` is NaN);
  :func:`near_field_coefficient` and, in ``cones``, the interpolation
  coefficient and the log factor, whose ``(q - 1) / (q - N)`` is
  ``inf / inf``; :func:`morrey_cone_constant` and
  :func:`morrey_domain_constant` at p = inf, whose beta argument
  ``(p - N) / (N (p - 1))`` is ``inf / inf``; and the max of
  :meth:`PowerTable.norm` (and ``ConeField.norm``) at p = inf, which no
  power sum reaches.
* :func:`oscillation_bound` returns the bound alone; its regime is
  :func:`oscillation_regime` of the same exponent pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import DomainError

INF = math.inf

__all__ = [
    "INF",
    "ExponentPair",
    "ConeSpec",
    "ConstantReport",
    "unit_ball_volume",
    "unit_sphere_area",
    "euler_beta",
    "cap_measure",
    "cone_measure",
    "morrey_cone_constant",
    "morrey_domain_constant",
    "two_term_minimize",
    "oscillation_regime",
    "oscillation_bound",
    "psi_profile",
    "serrin_profile_exponent",
    "gradient_bound_M",
    "min_depth_bound",
    "holder_conjugate",
    "PowerTable",
    "normalized_norm",
    "near_field_coefficient",
    "far_field_coefficient",
]


def _check_dim(N: int) -> None:
    """Raise DomainError unless N is an integer >= 2."""
    if int(N) != N or N < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {N}")


_RULE_MAX = 16  # the largest exponent that the power rule builds by products


class PowerTable:
    """The powers ``|v|^p`` of one array ``|v|`` of magnitudes, by the rule.

    For an integer or half-integer ``p`` in [1, 16], ``|v|^p`` is the product
    of the squares ``|v|^(2^k)`` for the set bits k of ``floor(p)``, taken in
    increasing k, times ``sqrt(|v|)`` for the half; any other ``p`` is
    ``np.power(|v|, p)``.  The table keeps each square and the root once it
    has been built, so a further exponent of the rule costs about one
    product.  It never writes into ``magnitudes`` or into what it keeps.
    """

    def __init__(self, magnitudes: np.ndarray):
        self._squares = [magnitudes]      # |v|^(2^k) at index k
        self._sqrt: np.ndarray | None = None

    def _square(self, k: int) -> np.ndarray:
        while len(self._squares) <= k:
            last = self._squares[-1]
            self._squares.append(last * last)
        return self._squares[k]

    def _factors(self, p: float) -> list[np.ndarray] | None:
        """The arrays whose product, left to right, is ``|v|^p``, or None
        when ``p`` is off the rule."""
        if not (1.0 <= p <= _RULE_MAX and (2.0 * p).is_integer()):
            return None
        n = int(p)
        factors = [self._square(k) for k in range(n.bit_length()) if n >> k & 1]
        if p != n:
            if self._sqrt is None:
                self._sqrt = np.sqrt(self._squares[0])
            factors.append(self._sqrt)
        return factors

    def weighted(self, weights: np.ndarray, p: float) -> np.ndarray:
        """A new array ``weights * |v|^p``, for a finite ``p`` >= 1."""
        factors = self._factors(p)
        if factors is None:
            out = np.power(self._squares[0], p)
        elif len(factors) == 1:
            return weights * factors[0]
        else:
            out = factors[0] * factors[1]
            for factor in factors[2:]:
                out *= factor
        out *= weights
        return out

    def norm(self, weights: np.ndarray, p: float, measure: float) -> float:
        """``( sum(weights |v|^p) / measure )^{1/p}`` for ``p`` in [1, inf),
        the max of ``|v|`` for ``p = inf`` (the weights are then unread)."""
        if not (p == INF or p >= 1.0):
            raise DomainError(f"exponent must be in [1, inf], got {p}")
        if p == INF:
            return float(np.max(self._squares[0]))
        return float(np.sum(self.weighted(weights, p)) / measure) ** (1.0 / p)


def normalized_norm(values: np.ndarray, weights: np.ndarray, p: float,
                    measure: float) -> float:
    """``( sum(weights |values|^p) / measure )^{1/p}`` for ``p`` in [1, inf),
    the max of ``|values|`` for ``p = inf`` (the weights are then unread).

    The powers follow the rule of :class:`PowerTable`, and the weights
    multiply them in place.  Tolerance: next to ``np.power`` the products
    add up to about p roundings to ``|v|^p``, and the p-th root divides that
    relative error by p, so a norm moves by about one unit in its last
    place.  That stays well under the roundings of the weighted sum itself,
    about log2 of the node count (15 for the 27,648 nodes of a 3-D cone
    rule), so the rule is taken for its speed.  At p = 1 and p = 2 it gives
    the bits of ``np.power``.
    """
    return PowerTable(np.abs(values, dtype=float)).norm(weights, p, measure)


# --------------------------------------------------------------------------
# record types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentPair:
    """A pair of integrability exponents ``1 <= p <= q <= inf`` in dimension N."""

    p: float
    q: float
    N: int

    def __post_init__(self) -> None:
        _check_dim(self.N)
        if not (1.0 <= self.p <= self.q):
            raise DomainError(f"need 1 <= p <= q, got p={self.p}, q={self.q}")


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """A finite circular cone: vertex, unit axis, half-opening angle, height.

    The cone is ``{y : 0 < |y - vertex| <= height,
    <(y - vertex)/|y - vertex|, axis> > cos(theta)}``.  The vertex and axis
    are copied into read-only arrays on construction, so the caller's arrays
    stay writable and later changes to them do not reach the cone; the axis
    is normalized.  Vertex and axis must be finite, ``theta`` must lie in
    (0, pi/2] and the height must be positive and finite.
    """

    vertex: np.ndarray
    axis: np.ndarray
    theta: float
    height: float

    def __post_init__(self) -> None:
        vertex = np.array(self.vertex, dtype=float)
        axis = np.array(self.axis, dtype=float)
        if vertex.shape != axis.shape or vertex.ndim != 1:
            raise DomainError("vertex and axis must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(vertex)) and np.all(np.isfinite(axis))):
            raise DomainError(f"vertex and axis must be finite, got {vertex} and {axis}")
        with np.errstate(over="ignore"):    # an overflowing norm is rejected next
            norm = float(np.linalg.norm(axis))
        if not 0.0 < norm < math.inf:
            raise DomainError(f"cone axis must be nonzero with a finite norm, got {axis}")
        if not (0.0 < self.theta <= math.pi / 2.0):
            raise DomainError(f"half-opening angle must lie in (0, pi/2], got {self.theta}")
        if not (0.0 < self.height < math.inf):
            raise DomainError(f"cone height must be positive and finite, got {self.height}")
        axis = axis / norm
        vertex.setflags(write=False)
        axis.setflags(write=False)
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "axis", axis)

    @property
    def dim(self) -> int:
        return self.vertex.size


@dataclass(frozen=True)
class ConstantReport:
    """A named constant, the inputs it was evaluated at, and how it was obtained."""

    name: str
    value: float
    inputs: dict[str, float] = field(default_factory=dict)
    provenance: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value < 0.0:
            raise DomainError(f"constant {self.name!r} must be finite and >= 0, got {self.value}")


# --------------------------------------------------------------------------
# measures on spheres and cones
# --------------------------------------------------------------------------

def unit_ball_volume(N: int) -> float:
    """Volume of the unit ball in R^N (in floating point up to N = 341)."""
    try:
        return math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)
    except OverflowError:
        raise DomainError(f"Gamma(N/2 + 1) overflows at N = {N}") from None


def unit_sphere_area(N: int) -> float:
    """Surface measure of the unit sphere S^{N-1} in R^N."""
    return N * unit_ball_volume(N)


def euler_beta(x: float, y: float) -> float:
    """Euler beta function B(x, y) for positive arguments, via log-gamma."""
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"beta function needs positive arguments, got ({x}, {y})")
    return math.exp(special.gammaln(x) + special.gammaln(y) - special.gammaln(x + y))


def cap_measure(theta: float, N: int) -> float:
    """Surface measure of the polar cap of half-angle theta on S^{N-1}.

    The cap is ``{omega in S^{N-1} : <omega, e> > cos(theta)}`` for any fixed
    unit vector e.  Valid for ``0 < theta <= pi/2``; the measure is computed
    from the regularized incomplete beta function, which reduces to arc
    length ``2 theta`` for N = 2 and to ``2 pi (1 - cos theta)`` for N = 3.
    """
    _check_dim(N)
    if not (0.0 < theta <= math.pi / 2.0):
        raise DomainError(f"cap half-angle must lie in (0, pi/2], got {theta}")
    if N == 2:
        return 2.0 * theta
    # |S^{N-2}| * int_0^theta sin^{N-2} t dt, with the sine integral expressed
    # through I_x(a, b) at x = sin^2(theta).
    sine_sq = math.sin(theta) ** 2
    a, b = (N - 1) / 2.0, 0.5
    partial = 0.5 * special.betainc(a, b, sine_sq) * euler_beta(a, b)
    return unit_sphere_area(N - 1) * partial


def cone_measure(spec: ConeSpec) -> float:
    """Lebesgue measure of a finite cone: cap measure times a^N / N."""
    dim = spec.dim
    return cap_measure(spec.theta, dim) * spec.height**dim / dim


# --------------------------------------------------------------------------
# exponents and sharp cone constants
# --------------------------------------------------------------------------

def holder_conjugate(p: float) -> float:
    """Conjugate exponent p' = p/(p-1), with the conventions 1' = inf, inf' = 1."""
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    if p < 1.0:
        raise DomainError(f"exponent must be >= 1, got {p}")
    return p / (p - 1.0)


def _morrey_beta_factor(p: float, N: int) -> float:
    """``B(1 - p'/N', p' + 1)^{1/p'}`` for finite p > N, the beta factor of
    both Morrey constants.  The first argument is written as
    ``(p - N) / (N (p - 1))``, so it keeps its relative precision for p near
    N, where ``1 - p'/N'`` cancels."""
    pp = holder_conjugate(p)
    return euler_beta((p - N) / (N * (p - 1.0)), pp + 1.0) ** (1.0 / pp)


def morrey_cone_constant(p: float, N: int, a: float) -> float:
    """Sharp constant of the cone-average gradient bound for p > N.

    For a cone C of height ``a`` in R^N the weighted kernel estimate gives
    ``|f(x) - f_C| <= c(p, N, a) ||grad f||_{p, C}`` with
    ``c = (a/N) B(1 - p'/N', p' + 1)^{1/p'}`` and the normalized norm on C.
    At p = inf the constant degenerates to ``a N / (N + 1)``, the exact
    average distance to the vertex.
    """
    _check_dim(N)
    if not a > 0.0:
        raise DomainError(f"cone height must be positive, got {a}")
    if not p > N:
        raise DomainError(f"cone-average constant needs p > N, got p={p}, N={N}")
    if p == INF:
        return a * N / (N + 1.0)
    return (a / N) * _morrey_beta_factor(p, N)


def morrey_domain_constant(p: float, N: int, theta: float) -> float:
    """Geometry-normalized version of the cone constant for cones inside a domain.

    Returns ``k(N, p, theta) = B(1 - p'/N', p' + 1)^{1/p'} / (N^{1/p'}
    |S_theta|^{1/p})``; for a cone of height a sitting inside a domain of
    volume V this packages the norm inflation so that
    ``|f(x) - f_{C_x}| <= k a^{1 - N/p} V^{1/p} ||grad f||_{p}`` with the
    norm normalized over the whole domain.  At p = inf (p' = 1, cap exponent
    0) it is ``N / (N + 1)``, the cone constant at a = 1.
    """
    _check_dim(N)
    if not p > N:
        raise DomainError(f"domain constant needs p > N, got p={p}, N={N}")
    cap = cap_measure(theta, N)
    if p == INF:
        return N / (N + 1.0)
    pp = holder_conjugate(p)
    return _morrey_beta_factor(p, N) / (N ** (1.0 / pp) * cap ** (1.0 / p))


# --------------------------------------------------------------------------
# two-term minimization
# --------------------------------------------------------------------------

def two_term_minimize(A: float, B: float, expA: float, expB: float,
                      a: float) -> float:
    """Minimum of ``A (sigma/a)^{expA} + B (sigma/a)^{expB}`` over sigma in (0, a].

    Needs ``expA > 0 > expB``.  In ``t = log(sigma/a)`` the objective is
    convex with a single critical point ``t_crit``, so the minimizer is
    ``min(t_crit, 0)``, and boundary exponents such as p = 1 need no
    special-casing.  Degenerate coefficients follow fixed conventions:
    ``B = 0`` gives the infimum 0, approached as sigma -> 0, and ``A = 0``
    gives ``B``, at sigma = a.
    """
    if A < 0.0 or B < 0.0:
        raise DomainError(f"coefficients must be >= 0, got A={A}, B={B}")
    if not a > 0.0:
        raise DomainError(f"range bound must be positive, got {a}")
    if B == 0.0:
        if A > 0.0 and not expA > 0.0:
            raise DomainError(f"need expA > 0, got {expA}")
        return 0.0
    if not (expA > 0.0 and expB < 0.0):
        raise DomainError(f"need expA > 0 > expB, got expA={expA}, expB={expB}")
    if A == 0.0:
        return B  # decreasing objective, boundary minimum at sigma = a
    t = min(math.log(B * (-expB) / (A * expA)) / (expA - expB), 0.0)
    return A * math.exp(expA * t) + B * math.exp(expB * t)


# --------------------------------------------------------------------------
# oscillation bound on star-shaped domains
# --------------------------------------------------------------------------

def near_field_coefficient(q: float, N: int) -> float:
    """Hoelder constant of the kernel |z|^{1-N} over a ball, exponent q > N.

    ``( int_{B_sigma} |z|^{(1-N) q'} dz )^{1/q'} = C sigma^{1 - N/q}`` with
    ``C = [N |B_1| (q-1)/(q-N)]^{1 - 1/q}``; the limit q = inf gives N |B_1|.
    """
    if not q > N:
        raise DomainError(f"near-field coefficient needs q > N, got q={q}, N={N}")
    nb = unit_sphere_area(N)
    if q == INF:
        return nb
    return (nb * (q - 1.0) / (q - N)) ** (1.0 - 1.0 / q)


def far_field_coefficient(p: float, N: int) -> float:
    """Hoelder constant of |z|^{1-N} outside a ball, exponent 1 <= p < N.

    ``( int_{R^N \\ B_sigma} |z|^{(1-N) p'} dz )^{1/p'} = C sigma^{1 - N/p}``
    with ``C = [N |B_1| (p-1)/(N-p)]^{1 - 1/p}``; the limit p = 1 gives 1
    (the kernel supremum).
    """
    if not (1.0 <= p < N):
        raise DomainError(f"far-field coefficient needs 1 <= p < N, got p={p}, N={N}")
    nb = unit_sphere_area(N)
    return (nb * (p - 1.0) / (N - p)) ** (1.0 - 1.0 / p)


def oscillation_regime(pair: ExponentPair) -> str:
    """The regime of :func:`oscillation_bound`; p <= N needs q > N."""
    if pair.p > pair.N:
        return "morrey"
    if pair.q <= pair.N:
        raise DomainError(
            f"regimes with p <= N need q > N, got q={pair.q}, N={pair.N}")
    return "log" if pair.p == pair.N else "interpolation"


def oscillation_bound(
    grad_p: float,
    grad_q: float,
    pair: ExponentPair,
    diameter: float,
    star_radius: float,
    volume: float,
) -> float:
    """Constructive oscillation bound for a domain star-shaped about a ball.

    For a domain of volume V and diameter d that is star-shaped with respect
    to a ball of radius ``star_radius``, averaging over that ball along
    segments gives ``|f(x) - f_B| <= (d^N / (N |B_rho|)) int_Omega
    |grad f| |x-y|^{1-N} dy`` for every interior point, hence an oscillation
    bound after the kernel integral is split at radius sigma and each part is
    estimated by Hoelder's inequality.  The split radius is minimized in
    closed form.  Norms are normalized by the domain volume.

    Regimes: ``p > N`` uses the single near-field estimate at sigma = d
    (``grad_q`` is ignored); ``p = N`` pairs the q-norm near field with a
    dyadic-shell N-norm far field, linear in log(d/sigma), and minimizes
    over sigma <= d/e here; ``p < N < q`` interpolates between the q-norm
    near field and the p-norm far field through :func:`two_term_minimize`,
    reproducing the ``||grad f||_p^alpha ||grad f||_q^{1-alpha}`` shape when
    the optimal sigma is interior.  The regime is
    :func:`oscillation_regime` of ``pair``.
    """
    if grad_p < 0.0 or grad_q < 0.0:
        raise DomainError("gradient norms must be >= 0")
    if not (diameter > 0.0 and star_radius > 0.0 and volume > 0.0):
        raise DomainError("diameter, star_radius, volume must be positive")
    if star_radius > diameter:
        raise DomainError("star_radius cannot exceed the diameter")
    regime = oscillation_regime(pair)
    p, q, N = pair.p, pair.q, pair.N
    ball = unit_ball_volume(N)
    d = diameter
    prefactor = 2.0 * d**N / (N * ball * star_radius**N)

    def raw(norm: float, expo: float) -> float:
        # normalized norm -> plain Lebesgue norm over the domain
        return norm * volume ** (1.0 / expo)

    if regime == "morrey":
        coeff = near_field_coefficient(p, N)
        return prefactor * coeff * raw(grad_p, p) * d ** (1.0 - N / p)

    eA = 1.0 - N / q
    A = near_field_coefficient(q, N) * raw(grad_q, q) * d**eA

    if regime == "log":
        # dyadic shells: each shell of ratio 2 contributes at most
        # ||grad f||_N (N |B_1| log 2)^{1 - 1/N}, and there are at most
        # 1 + log2(d/sigma) shells outside B_sigma.
        # The split then minimizes A (sigma/d)^eA + B log(d/sigma) over
        # sigma <= d/e, convex in t = log(sigma/d) <= -1, so the minimizer
        # is min(t_crit, -1).  A = 0 gives B (at sigma = d/e) and B = 0 the
        # infimum 0 (as sigma -> 0).
        shell = raw(grad_p, N) * (N * ball * math.log(2.0)) ** (1.0 - 1.0 / N)
        B = shell / math.log(2.0)
        if A == 0.0 or B == 0.0:
            return prefactor * (shell + B)
        t = min(math.log(B / (A * eA)) / eA, -1.0)
        return prefactor * (shell + (A * math.exp(eA * t) - B * t))

    eB = 1.0 - N / p
    B = far_field_coefficient(p, N) * raw(grad_p, p) * d**eB
    return prefactor * two_term_minimize(A, B, eA, eB, d)


# --------------------------------------------------------------------------
# stability profiles and structural constants
# --------------------------------------------------------------------------

def psi_profile(sigma: float, N: int, q: float = INF) -> float:
    """Dimension-dependent stability profile evaluated at deviation sigma >= 0.

    ``sigma`` itself for N in {2, 3}; ``sigma * max(log(1/sigma), 1)`` for
    N = 4; ``sigma^tau`` for N >= 5 with ``tau = 4/N - 2(N-4)/(N(q-2))`` for
    C^2 boundaries with finite q > N, and its q = inf limit ``tau = 4/N``,
    which is also the C^{2,gamma} exponent.
    """
    if sigma < 0.0:
        raise DomainError(f"deviation must be >= 0, got {sigma}")
    _check_dim(N)
    if N in (2, 3):
        return float(sigma)
    if N == 4:
        if sigma == 0.0:
            return 0.0
        return sigma * max(math.log(1.0 / sigma), 1.0)
    if not q > N:
        raise DomainError(f"C2 profile needs q > N, got q={q}, N={N}")
    tau = 4.0 / N - 2.0 * (N - 4.0) / (N * (q - 2.0))
    return float(sigma) ** tau


def serrin_profile_exponent(N: int, q: float = INF) -> float:
    """Stability exponent for the overdetermined (constant normal derivative) problem.

    Defined for N >= 4: ``(4 - 2N/q) / (N + 1 - 2N/q)`` for C^2 boundaries
    with finite q > N, and its q = inf limit ``4/(N+1)``, which is also the
    C^{2,gamma} exponent.  Dimensions N <= 3 do not use this exponent and
    raise a domain error.
    """
    _check_dim(N)
    if N <= 3:
        raise DomainError(f"profile exponent is only used for N >= 4, got N={N}")
    if not q > N:
        raise DomainError(f"need q > N, got q={q}, N={N}")
    return (4.0 - 2.0 * N / q) / (N + 1.0 - 2.0 * N / q)


def gradient_bound_M(N: int, d: float, r_e: float) -> float:
    """Explicit global gradient bound M = (N+1) d (d + r_e) / (2 r_e)."""
    _check_dim(N)
    if not (d > 0.0 and r_e > 0.0):
        raise DomainError("diameter and exterior radius must be positive")
    return (N + 1.0) * d * (d + r_e) / (2.0 * r_e)


def min_depth_bound(
    N: int,
    r_Omega: float,
    d: float | None = None,
    r_e: float | None = None,
    mean_convex: bool = False,
) -> float:
    """Lower bound on the boundary distance of the torsion minimum point.

    ``r_Omega / sqrt(N)`` for mean-convex domains; in general the same value
    damped by ``[1 + ((N^2-1)/(2N)) (d/r_e)(1 + d/r_e)]^{-1/2}``.
    """
    _check_dim(N)
    if not r_Omega > 0.0:
        raise DomainError("inradius must be positive")
    base = r_Omega / math.sqrt(N)
    if mean_convex:
        return base
    if d is None or r_e is None or not (d > 0.0 and r_e > 0.0):
        raise DomainError("general bound needs positive diameter and exterior radius")
    bracket = 1.0 + ((N * N - 1.0) / (2.0 * N)) * (d / r_e) * (1.0 + d / r_e)
    return base / math.sqrt(bracket)
