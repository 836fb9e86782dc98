"""Pointwise cone inequalities verified by product Gauss quadrature.

Every estimate of the analytic layer reduces to integrals of
``|grad f(y)| |y - x|^{1-N}`` over a finite cone with vertex x.  Working in
vertex-polar coordinates cancels the kernel singularity against the
``s^{N-1}`` Jacobian exactly, so plain product Gauss quadrature converges at
spectral rate for fields that are smooth at the vertex, and the inequalities
can be checked to tight slack on a fixed catalog of closed-form fields.  A
field that is not smooth at the vertex loses that rate: the extremal field
of the cone-average bound, radial about the vertex, has a gradient whose
p-th power is singular there, and the radial Gauss rule then converges
only algebraically.

One evaluator, :class:`ConeField`, is the only path from a
:class:`QuadratureRule` and an :class:`AnalyticField` to the quantities the
checks read: the vertex oscillation, the two kernel integrals and the
normalized gradient norms, each computed once per instance (cached
properties, and a dict of norms keyed by exponent).  The norms share one
:class:`~oscbound.constants.PowerTable` of the gradient magnitudes, so a
further exponent costs about one product over the nodes.  The check
functions :func:`verify_pointwise_cone`, :func:`verify_morrey_cone` and
:func:`verify_interpolation_cone` take a ``ConeField``, and the sweep builds
one per (cone, field) pair.

Work that does not depend on the field is done once per rule: the rule
carries the cone measure and both kernel weight vectors, and the Halton fill
and the Gauss-Legendre nodes are computed once per size.  The rule's nodes
and its quasi-random sup-norm fill take their directions from one map of cap
angles to unit vectors, ``_cap_directions``.  All of these
arrays are read-only because rules, their fields and the caches share them.
Row norms and row sums of squares go through :func:`_row_sum_sq`, which adds
columns in order; that gives numpy's short-axis reduction bit for bit at a
fifth of its cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .constants import (
    INF,
    ConeSpec,
    ExponentPair,
    PowerTable,
    cone_measure,
    holder_conjugate,
    morrey_cone_constant,
    two_term_minimize,
)
from .errors import DomainError

Array = np.ndarray

__all__ = [
    "AnalyticField",
    "QuadratureRule",
    "ConeField",
    "ConeCheck",
    "cone_samples",
    "check_dimension",
    "verify_pointwise_cone",
    "verify_morrey_cone",
    "verify_interpolation_cone",
    "catalog_fields",
    "catalog_cones",
    "default_exponent_grid",
    "run_cone_sweep",
]


# --------------------------------------------------------------------------
# analytic fields
# --------------------------------------------------------------------------

def _row_sum_sq(x: Array, scale: Array | None = None) -> Array:
    """Row sums of ``x * x`` (of ``scale * x * x`` with per-column ``scale``).

    The columns of the (M, dim) array are added in order, which is the order
    numpy's ``np.sum(..., axis=1)`` uses on a short last axis, so the result
    is the same bit for bit; it is about 5x faster, because each column pass
    is one elementwise operation where the reduction steps row by row.
    ``np.sqrt`` of it is ``np.linalg.norm(x, axis=-1)``.
    """
    def term(j: int) -> Array:
        col = x[:, j]
        return col * col if scale is None else scale[j] * col * col

    total = term(0)
    for j in range(1, x.shape[1]):
        total += term(j)
    return total


@dataclass(frozen=True, eq=False)
class AnalyticField:
    """A closed-form scalar field with its exact gradient.

    ``value`` maps an (M, dim) array of points to (M,) values; ``gradient``
    maps it to (M, dim).
    """

    label: str
    value: Callable[[Array], Array]
    gradient: Callable[[Array], Array]

    def gradient_magnitude(self, points: Array) -> Array:
        return np.sqrt(_row_sum_sq(np.asarray(self.gradient(points), dtype=float)))


# --------------------------------------------------------------------------
# quadrature on cones
# --------------------------------------------------------------------------

def _read_only(*arrays: Array) -> None:
    for arr in arrays:
        arr.setflags(write=False)


@lru_cache(maxsize=16)
def _leggauss(n: int) -> tuple[Array, Array]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and shared."""
    xi, w = np.polynomial.legendre.leggauss(n)
    _read_only(xi, w)
    return xi, w


def _gauss_on(a: float, b: float, n: int) -> tuple[Array, Array]:
    xi, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * xi, half * w


def _cap_directions(cone: ConeSpec, *angles: Array) -> Array:
    """Unit vectors through the cone's cap, one per entry of the paired
    angle arrays: the polar angle phi in 2-D, and cos(beta) from the axis
    with the azimuth gamma about it in 3-D."""
    if cone.dim == 2:
        phi, = angles
        return np.stack([np.cos(phi), np.sin(phi)], axis=1)
    c, gamma = angles
    e = np.zeros(3)
    e[int(np.argmin(np.abs(cone.axis)))] = 1.0
    u = np.cross(cone.axis, e)
    u /= np.linalg.norm(u)
    v = np.cross(cone.axis, u)
    sin_b = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    return (c[:, None] * cone.axis[None, :]
            + sin_b[:, None] * (np.cos(gamma)[:, None] * u
                                + np.sin(gamma)[:, None] * v))


def check_dimension(dim: int) -> None:
    """Raise DomainError unless the cone quadrature supports ``dim``."""
    if dim not in (2, 3):
        raise DomainError(f"cone quadrature supports dimensions 2 and 3, got {dim}")


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Product rule on a cone: Gauss radially, Gauss/uniform over the cap.

    ``weights`` are plain Lebesgue weights (they include the ``s^{N-1}``
    Jacobian) and sum to the cone measure; ``radii`` caches the distance of
    each node to the vertex so kernel powers never touch the singularity.
    For dimension 3 the polar angle is handled through cos(beta), keeping the
    cap factor polynomially exact, and the azimuth uses uniform points
    (trapezoidal rule, exact for trigonometric degree < n_angular).
    ``sup_points`` are where sup norms look besides the nodes: the
    quasi-random fill of :func:`cone_samples`, and the closed-cone extremes
    the open rule misses, the outer shell at the angular nodes and the vertex.

    The field-independent factors of every :class:`ConeField` on this rule
    are computed once here: ``measure`` is ``cone_measure(cone)``,
    ``kernel_weights`` are ``weights / radii**(N-1)`` (the Jacobian cancelled
    against the Riesz kernel) and ``weighted_kernel_weights`` are those times
    ``(a^N - radii^N)/N``.  :meth:`build` returns every array read-only,
    since the rule's fields share them.
    """

    cone: ConeSpec
    points: Array              # (n_radial * K, dim)
    radii: Array               # (n_radial * K,)
    weights: Array             # Lebesgue weights, sum = |C|
    sup_points: Array          # (_SUP_SAMPLES + K + 1, dim)
    measure: float             # |C|
    kernel_weights: Array      # weights / radii**(N-1)
    weighted_kernel_weights: Array   # kernel_weights * (a^N - radii^N) / N

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @staticmethod
    def build(cone: ConeSpec, n_radial: int = 48, n_angular: int = 48) -> "QuadratureRule":
        dim = cone.dim
        check_dimension(dim)
        s, ws = _gauss_on(0.0, cone.height, n_radial)

        if dim == 2:
            psi0 = math.atan2(cone.axis[1], cone.axis[0])
            phi, dw = _gauss_on(psi0 - cone.theta, psi0 + cone.theta, n_angular)
            dirs = _cap_directions(cone, phi)
        else:
            n_c = max(6, n_angular // 4)
            c, wc = _gauss_on(math.cos(cone.theta), 1.0, n_c)
            gamma = 2.0 * math.pi * np.arange(n_angular) / n_angular
            dirs = _cap_directions(cone, np.repeat(c, n_angular),
                                   np.tile(gamma, n_c))
            dw = np.repeat(wc * (2.0 * math.pi / n_angular), n_angular)

        pts = (cone.vertex[None, None, :] + s[:, None, None] * dirs[None, :, :])
        radii = np.repeat(s, dirs.shape[0])
        w = ((ws * s ** (dim - 1))[:, None] * dw[None, :]).reshape(-1)
        kernel_w = w / radii ** (dim - 1)
        shell = cone.vertex[None, :] + cone.height * dirs
        rule = QuadratureRule(
            cone=cone,
            points=pts.reshape(-1, dim),
            radii=radii,
            weights=w,
            sup_points=np.vstack([cone_samples(cone), shell, cone.vertex[None, :]]),
            measure=cone_measure(cone),
            kernel_weights=kernel_w,
            weighted_kernel_weights=kernel_w * (cone.height**dim - radii**dim) / dim,
        )
        _read_only(rule.points, rule.radii, rule.weights, rule.sup_points,
                   rule.kernel_weights, rule.weighted_kernel_weights)
        return rule


_HALTON_BASES = (2, 3, 5)  # cones live in dimension 2 or 3
_SUP_SAMPLES = 10_000  # quasi-random points of a rule's sup_points


@lru_cache(maxsize=16)
def _halton(count: int, dim: int) -> Array:
    """First ``count`` points of the unscrambled Halton sequence in [0, 1)^dim.

    Column d is the radical inverse of 0, 1, 2, ... in the d-th prime base.
    Computed once per ``(count, dim)``; the shared result is read-only.
    """
    out = np.zeros((count, dim))
    for col, base in enumerate(_HALTON_BASES[:dim]):
        n = np.arange(count)
        scale = 1.0 / base
        while n.any():
            n, digit = np.divmod(n, base)
            out[:, col] += digit * scale
            scale /= base
    _read_only(out)
    return out


def cone_samples(cone: ConeSpec) -> Array:
    """``_SUP_SAMPLES`` deterministic quasi-random points filling the cone
    (for sup norms)."""
    dim = cone.dim
    u = _halton(_SUP_SAMPLES, dim)
    s = cone.height * u[:, 0] ** (1.0 / dim)
    if dim == 2:
        psi0 = math.atan2(cone.axis[1], cone.axis[0])
        dirs = _cap_directions(cone, psi0 + cone.theta * (2.0 * u[:, 1] - 1.0))
    else:
        dirs = _cap_directions(cone, 1.0 - u[:, 1] * (1.0 - math.cos(cone.theta)),
                               2.0 * math.pi * u[:, 2])
    return cone.vertex[None, :] + s[:, None] * dirs


# --------------------------------------------------------------------------
# the evaluator: one field on one cone
# --------------------------------------------------------------------------

class ConeField:
    """Kernel integrals, norms and the cone average of one field on one cone.

    The cone is ``rule.cone``.  Every check reads these quantities, and each
    is computed on first use and kept on the instance, in cached properties
    and the ``_norms`` dict keyed by exponent (a cache keyed by the field at
    module level would keep every field of a sweep alive).
    Measures are normalized: ``dmu = dy / |C|``.
    """

    def __init__(self, rule: QuadratureRule, field: AnalyticField):
        self.rule = rule
        self.cone = rule.cone
        self.field = field
        self._norms: dict[float, float] = {}

    @cached_property
    def _grad_on_rule(self) -> Array:
        return self.field.gradient_magnitude(self.rule.points)

    @cached_property
    def _powers(self) -> PowerTable:
        return PowerTable(self._grad_on_rule)

    @cached_property
    def _average(self) -> float:
        vals = np.asarray(self.field.value(self.rule.points), dtype=float)
        return float(np.sum(self.rule.weights * vals)) / self.rule.measure

    @cached_property
    def _riesz(self) -> tuple[float, float]:
        # the plain and the weighted kernel integral, indexed by ``weighted``
        rule = self.rule
        return tuple(float(np.sum(kernel_w * self._grad_on_rule)) / rule.measure
                     for kernel_w in (rule.kernel_weights,
                                      rule.weighted_kernel_weights))

    def average(self) -> float:
        """Mean f_C of the field over the cone."""
        return self._average

    @cached_property
    def _vertex_oscillation(self) -> float:
        vertex = float(self.field.value(self.cone.vertex[None, :])[0])
        return abs(vertex - self.average())

    def pointwise_lhs(self) -> float:
        """``|f(x) - f_C|`` at the vertex x."""
        return self._vertex_oscillation

    def riesz(self, weighted: bool) -> float:
        """Kernel integral ``int_C |grad f(y)| |y-x|^{1-N} w(y) dmu_y``.

        ``w = (a^N - |y-x|^N)/N`` in the weighted variant and ``w = 1`` in the
        plain variant.  Computed in vertex-polar coordinates, where the kernel
        is cancelled by the Jacobian analytically.
        """
        return self._riesz[weighted]

    def norm(self, p: float) -> float:
        """Normalized L^p norm of ``|grad f|`` over the cone, ``p`` in [1, inf].

        ``p = inf`` is an essential sup estimated as the larger of the max
        over the quadrature nodes and the max over the rule's
        ``sup_points``.
        """
        if p not in self._norms:
            norm = self._powers.norm(self.rule.weights, p, self.rule.measure)
            if p == INF:
                sup = self.field.gradient_magnitude(self.rule.sup_points)
                norm = float(np.maximum(norm, np.max(sup)))
            self._norms[p] = norm
        return self._norms[p]


# --------------------------------------------------------------------------
# margin checks
# --------------------------------------------------------------------------

_SLACK = 1e-9  # quadrature rounding a margin may show


@dataclass(frozen=True)
class ConeCheck:
    """One verified inequality instance: lhs <= rhs with margin = rhs - lhs."""

    field: str
    theta: float
    a: float
    check: str
    lhs: float
    rhs: float
    p: float | None = None
    q: float | None = None

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def ok(self) -> bool:
        """Whether the margin stays above ``-_SLACK``."""
        return self.margin >= -_SLACK


def verify_pointwise_cone(cf: ConeField) -> list[ConeCheck]:
    """Margins of the two pointwise vertex bounds (weighted and plain kernel).

    The weighted bound is ``|f(x) - f_C| <= int_C |grad f| |y-x|^{1-N}
    (a^N - |y-x|^N)/N dmu``; the plain variant replaces the weight by its
    supremum ``a^N/N``.
    """
    cone = cf.cone
    lhs = cf.pointwise_lhs()
    rhs_weighted = cf.riesz(weighted=True)
    rhs_plain = (cone.height**cone.dim / cone.dim) * cf.riesz(weighted=False)
    common = dict(field=cf.field.label, theta=cone.theta, a=cone.height, lhs=lhs)
    return [
        ConeCheck(check="pointwise_weighted", rhs=rhs_weighted, **common),
        ConeCheck(check="pointwise_plain", rhs=rhs_plain, **common),
    ]


def verify_morrey_cone(cf: ConeField, p: float) -> ConeCheck:
    """Margin of ``|f(x) - f_C| <= c(p, N, a) ||grad f||_{p,C}`` for p > N."""
    cone = cf.cone
    N = cone.dim
    if not p > N:
        raise DomainError(f"cone-average bound needs p > N, got p={p}, N={N}")
    rhs = morrey_cone_constant(p, N, cone.height) * cf.norm(p)
    return ConeCheck(field=cf.field.label, theta=cone.theta, a=cone.height,
                     check="morrey", lhs=cf.pointwise_lhs(), rhs=rhs, p=p)


def verify_interpolation_cone(cf: ConeField, pair: ExponentPair) -> ConeCheck:
    """Margin of the interpolated kernel bound for ``1 <= p <= N < q``.

    The left side is ``a^{N-1}`` times the plain kernel integral.  For
    ``p < N`` the right side replays the two-term split: the q-norm controls
    the cone up to radius sigma, the p-norm the rest, and the split radius is
    the closed-form minimizer of :func:`two_term_minimize`.  For ``p = N``
    the right side is the explicit log-interpolation bound ``N (q/(q-N))
    ||grad f||_N log(e ||grad f||_q / (q' ||grad f||_N))`` (its q -> inf
    limit when q = inf).
    """
    cone = cf.cone
    N = cone.dim
    p, q = pair.p, pair.q
    if pair.N != N:
        raise DomainError(f"exponent pair is for N={pair.N}, cone has N={N}")
    if p > N or q <= N:
        raise DomainError(f"interpolation needs 1 <= p <= N < q, got p={p}, q={q}")
    a = cone.height
    lhs = a ** (N - 1) * cf.riesz(weighted=False)
    norm_q = cf.norm(q)

    if p < N:
        norm_p = cf.norm(p)
        coef_a = N if q == INF else (N * (q - 1.0) / (q - N)) ** (1.0 - 1.0 / q)
        coef_b = (N * (p - 1.0) / (N - p)) ** (1.0 - 1.0 / p)
        _, rhs = two_term_minimize(coef_a * norm_q, coef_b * norm_p,
                                   1.0 - N / q, 1.0 - N / p, a)
        return ConeCheck(field=cf.field.label, theta=cone.theta, a=a,
                         check="interp_power", lhs=lhs, rhs=rhs, p=p, q=q)

    norm_n = cf.norm(float(N))
    if norm_n == 0.0 or norm_q == 0.0:
        rhs = 0.0
    else:
        qq = holder_conjugate(q)
        factor = 1.0 if q == INF else q / (q - N)
        rhs = N * factor * norm_n * math.log(math.e * norm_q / (qq * norm_n))
    return ConeCheck(field=cf.field.label, theta=cone.theta, a=a,
                     check="interp_log", lhs=lhs, rhs=rhs, p=p, q=q)


# --------------------------------------------------------------------------
# catalogs and the sweep
# --------------------------------------------------------------------------

def _coef(dim: int, values: Sequence[float]) -> Array:
    out = np.zeros(dim)
    take = min(dim, len(values))
    out[:take] = values[:take]
    return out


def catalog_fields(dim: int = 2) -> list[AnalyticField]:
    """The fixed, versioned test-field catalog (24 fields, any dim >= 2)."""
    c_mix = _coef(dim, [0.6, -0.8, 0.2])
    c_wave = _coef(dim, [3.0, -2.0, 1.0])
    c_exp = _coef(dim, [0.3, -0.4, 0.25])
    c_shift = _coef(dim, [0.5, 0.4, -0.3])
    e0 = _coef(dim, [1.0])
    e01 = _coef(dim, [1.0, 1.0])
    e12 = _coef(dim, [1.0, 2.0])
    scales = 1.0 + np.arange(dim)

    def radial2(pts):
        return _row_sum_sq(pts)

    def pad(cols: list[Array], m: int) -> Array:
        out = np.zeros((m, dim))
        for j, col in enumerate(cols):
            out[:, j] = col
        return out

    return [
        AnalyticField("const_one",
                      lambda y: np.ones(y.shape[0]),
                      lambda y: np.zeros_like(y)),
        AnalyticField("affine_axis",
                      lambda y: y[:, 0].copy(),
                      lambda y: np.tile(e0, (y.shape[0], 1))),
        AnalyticField("affine_mix",
                      lambda y: y @ c_mix,
                      lambda y: np.tile(c_mix, (y.shape[0], 1))),
        AnalyticField("quad_radial",
                      radial2,
                      lambda y: 2.0 * y),
        AnalyticField("quad_aniso",
                      lambda y: _row_sum_sq(y, scales),
                      lambda y: 2.0 * scales * y),
        AnalyticField("cross_xy",
                      lambda y: y[:, 0] * y[:, 1],
                      lambda y: pad([y[:, 1], y[:, 0]], y.shape[0])),
        AnalyticField("harmonic_cubic",
                      lambda y: y[:, 0] ** 3 - 3.0 * y[:, 0] * y[:, 1] ** 2,
                      lambda y: pad([3.0 * (y[:, 0] ** 2 - y[:, 1] ** 2),
                                     -6.0 * y[:, 0] * y[:, 1]], y.shape[0])),
        AnalyticField("quartic_radial",
                      lambda y: radial2(y) ** 2,
                      lambda y: 4.0 * radial2(y)[:, None] * y),
        AnalyticField("gauss_origin",
                      lambda y: np.exp(-radial2(y)),
                      lambda y: -2.0 * np.exp(-radial2(y))[:, None] * y),
        AnalyticField("gauss_sharp",
                      lambda y: np.exp(-4.0 * radial2(y)),
                      lambda y: -8.0 * np.exp(-4.0 * radial2(y))[:, None] * y),
        AnalyticField("gauss_shift",
                      lambda y: np.exp(-_row_sum_sq(y - c_shift) / 2.25),
                      lambda y: (-2.0 / 2.25) * np.exp(
                          -_row_sum_sq(y - c_shift) / 2.25)[:, None] * (y - c_shift)),
        AnalyticField("exp_axis",
                      lambda y: np.exp(0.5 * y[:, 0]),
                      lambda y: 0.5 * np.exp(0.5 * y[:, 0])[:, None] * e0),
        AnalyticField("exp_inner",
                      lambda y: np.exp(y @ c_exp),
                      lambda y: np.exp(y @ c_exp)[:, None] * c_exp),
        AnalyticField("sin_axis",
                      lambda y: np.sin(2.0 * y[:, 0]),
                      lambda y: 2.0 * np.cos(2.0 * y[:, 0])[:, None] * e0),
        AnalyticField("cos_mix",
                      lambda y: np.cos(y @ e12),
                      lambda y: -np.sin(y @ e12)[:, None] * e12),
        AnalyticField("sincos_prod",
                      lambda y: np.sin(y[:, 0]) * np.cos(y[:, 1]),
                      lambda y: pad([np.cos(y[:, 0]) * np.cos(y[:, 1]),
                                     -np.sin(y[:, 0]) * np.sin(y[:, 1])], y.shape[0])),
        AnalyticField("plane_wave",
                      lambda y: np.sin(y @ c_wave),
                      lambda y: np.cos(y @ c_wave)[:, None] * c_wave),
        AnalyticField("runge",
                      lambda y: 1.0 / (1.0 + radial2(y)),
                      lambda y: -2.0 * y / (1.0 + radial2(y))[:, None] ** 2),
        AnalyticField("sqrt_reg",
                      lambda y: np.sqrt(1.0 + radial2(y)),
                      lambda y: y / np.sqrt(1.0 + radial2(y))[:, None]),
        AnalyticField("log_reg",
                      lambda y: np.log1p(radial2(y)),
                      lambda y: 2.0 * y / (1.0 + radial2(y))[:, None]),
        AnalyticField("atan_mix",
                      lambda y: np.arctan(y @ e01),
                      lambda y: (1.0 / (1.0 + (y @ e01) ** 2))[:, None] * e01),
        AnalyticField("dist_origin",
                      lambda y: np.sqrt(_row_sum_sq(y)),
                      lambda y: y / np.maximum(
                          np.sqrt(_row_sum_sq(y)), 1e-300)[:, None]),
        AnalyticField("cos_sq",
                      lambda y: np.cos(y[:, 0]) ** 2,
                      lambda y: (-2.0 * np.cos(y[:, 0]) * np.sin(y[:, 0]))[:, None] * e0),
        AnalyticField("ratio",
                      lambda y: y[:, 0] / (1.0 + y[:, 1] ** 2),
                      lambda y: pad([1.0 / (1.0 + y[:, 1] ** 2),
                                     -2.0 * y[:, 0] * y[:, 1] / (1.0 + y[:, 1] ** 2) ** 2],
                                    y.shape[0])),
    ]


THETA_GRID = (math.pi / 8, math.pi / 4, math.pi / 2)
HEIGHT_GRID = (0.5, 1.0, 2.0)


def catalog_cones(dim: int = 2) -> list[ConeSpec]:
    """Nine cones: (theta, a) grid at a fixed off-axis vertex and tilted axis."""
    vertex = _coef(dim, [0.3, -0.2, 0.1])
    axis = _coef(dim, [1.0, 2.0, -1.0])
    return [
        ConeSpec(vertex=vertex, axis=axis, theta=theta, height=a)
        for theta in THETA_GRID
        for a in HEIGHT_GRID
    ]


def default_exponent_grid(N: int) -> tuple[list[float], list[ExponentPair]]:
    """Morrey exponents and interpolation pairs exercised by the sweep."""
    morrey_ps = [N + 1.0, 2.0 * N, 4.0 * N, INF]
    qs = [N + 1.0, 2.0 * N, 4.0 * N, INF]
    ps = [1.0, (1.0 + N) / 2.0, float(N)]
    pairs = [ExponentPair(p, q, N) for p in ps for q in qs]
    return morrey_ps, pairs


def _field_checks(cf: ConeField, morrey_ps: list[float],
                  pairs: list[ExponentPair]) -> list[ConeCheck]:
    """Every check of the sweep on one (cone, field) pair, in row order."""
    return [*verify_pointwise_cone(cf),
            *(verify_morrey_cone(cf, p) for p in morrey_ps),
            *(verify_interpolation_cone(cf, pair) for pair in pairs)]


def run_cone_sweep(dim: int = 2) -> list[ConeCheck]:
    """All cone checks over the catalog, one :class:`ConeField` per (cone,
    field); each is dropped once its checks are taken, so the last one of
    a cone does not hold its power table while the next rule is built."""
    fields = catalog_fields(dim)
    morrey_ps, pairs = default_exponent_grid(dim)
    checks: list[ConeCheck] = []
    for cone in catalog_cones(dim):
        rule = QuadratureRule.build(cone)
        for field in fields:
            checks += _field_checks(ConeField(rule, field), morrey_ps, pairs)
    return checks
