"""Per-layer tracing of oscbound: which calls are wrapped and what they yield.

``install`` replaces each traced name at the binding its caller uses (the
``from .x import y`` copies in ``identities``, ``stability`` and ``cli``, the
``spsolve``/``cKDTree`` globals of ``torsion``, and three class attributes)
with a wrapper that records a span and returns the original result
unchanged.  A binding that a later version of the package no longer has is
skipped and reported, so its metrics read 0 instead of the run failing.

``PER_LAYER`` is the metric table; ``per_layer_metrics`` evaluates it on the
spans and counters of one traced pass.
"""
from __future__ import annotations

from collections import defaultdict

from spans import Recorder, self_times

GEOMETRY = ("rho_bounds", "diameter", "star_radius", "inradius", "perimeter",
            "area")
DERIVATIVES = ("locate_min", "h_field", "gradient", "hessian_torsion",
               "normal_derivative")
RECORD_CHECKS = ("check_divergence_identity", "check_fundamental_identity",
                 "check_identity_mp")
FITS = ("check_sbt_profile", "check_serrin_profile",
        "verify_monotone_deviations")


def _solve_counts(rec: Recorder):
    def after(result, *args, **kwargs):
        report = result[1]
        rec.count("torsion.unknowns", report.n_unknowns)
        rec.count("torsion.solve_residual.max", report.residual)
    return after


def _check_counts(rec: Recorder):
    def after(result, *args, **kwargs):
        reports = result if isinstance(result, list) else [result]
        rec.count("identities.checks", len(reports))
        rec.count("identities.checks_failed",
                  sum(r.status == "fail" for r in reports))
    return after


def _cone_counts(rec: Recorder):
    def after(checks, *args, **kwargs):
        rec.count("cones.checks", len(checks))
        rec.count("cones.violations", sum(not c.ok() for c in checks))
    return after


def _quad_counts(rec: Recorder):
    def after(rule, *args, **kwargs):
        rec.count("cones.quad_nodes", rule.count)
    return after


def _contains_counts(rec: Recorder):
    def after(inside, *args, **kwargs):
        rec.count("stardomain.contains.calls")
        rec.count("stardomain.contains.points", inside.size)
    return after


def _family_jobs(result, spec, jobs=1):
    return {"jobs": jobs}


def install(rec: Recorder):
    """Wrap every traced binding; returns ``(undo, missing_bindings)``."""
    from oscbound import cli, cones, identities, stability, stardomain, torsion

    saved: list[tuple[object, str, object]] = []
    missing: list[str] = []

    def patch(owner, attr: str, make) -> None:
        if attr not in vars(owner):
            missing.append(f"{owner.__name__}.{attr}")
            return
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        if isinstance(original, staticmethod):
            setattr(owner, attr, staticmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def span(owner, attr: str, name: str, after=None) -> None:
        patch(owner, attr, lambda fn: rec.wrap(name, fn, after))

    span(identities, "ball_radii", "stardomain.ball_radii")
    for attr in GEOMETRY:
        span(identities, attr, "stardomain.geometry")
    patch(stardomain.StarDomain2D, "contains",
          lambda fn: rec.counted(fn, _contains_counts(rec)))

    span(identities, "solve_torsion", "torsion.solve_torsion",
         _solve_counts(rec))
    span(torsion.Grid, "build", "torsion.grid_build")
    span(torsion, "spsolve", "torsion.sparse_solve")
    def traced_tree(tree_class):
        class TracedTree(tree_class):
            def query(self, *args, **kwargs):
                with rec.span("torsion.delta_query"):
                    return super().query(*args, **kwargs)
        return TracedTree

    patch(torsion, "cKDTree", traced_tree)
    for attr in DERIVATIVES:
        span(identities, attr, "torsion.derivatives")

    for owner in (identities, stability, cli):
        span(owner, "build_pipeline_data", "identities.build_pipeline_data")
    for owner in (identities, cli):
        span(owner, "run_domain_checks", "identities.run_domain_checks",
             _check_counts(rec))
    for attr in RECORD_CHECKS:
        span(stability, attr, "identities.record_checks", _check_counts(rec))

    span(cli, "run_family", "stability.run_family", _family_jobs)
    for attr in FITS:
        span(cli, attr, "stability.fit")

    span(cli, "run_cone_sweep", "cones.run_cone_sweep", _cone_counts(rec))
    span(cones.QuadratureRule, "build", "cones.quadrature_build",
         _quad_counts(rec))
    span(cli, "constants_table", "constants.constants_table")

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo, missing


# (metric, unit, better, how it is read from one traced pass)
#   ("total", span)   summed duration of the spans named span
#   ("self", span)    summed self time of those spans
#   ("calls", span)   number of those spans
#   ("counter", name) counter value
#   ("bytes",)        bytes of output files the pass wrote
#   ("pool",)         member seconds / (jobs x run_family seconds)
#   ("overhead",)     traced run_s - untraced run_s
PER_LAYER = [
    ("stardomain.ball_radii.s", "s", "lower", ("total", "stardomain.ball_radii")),
    ("stardomain.ball_radii.calls", "count", "lower", ("calls", "stardomain.ball_radii")),
    ("stardomain.geometry.s", "s", "lower", ("total", "stardomain.geometry")),
    ("stardomain.contains.calls", "count", "lower", ("counter", "stardomain.contains.calls")),
    ("stardomain.contains.points", "count", "lower", ("counter", "stardomain.contains.points")),
    ("torsion.delta_query.s", "s", "lower", ("total", "torsion.delta_query")),
    ("torsion.sparse_solve.s", "s", "lower", ("total", "torsion.sparse_solve")),
    ("torsion.grid_build.self_s", "s", "lower", ("self", "torsion.grid_build")),
    ("torsion.assembly.self_s", "s", "lower", ("self", "torsion.solve_torsion")),
    ("torsion.derivatives.s", "s", "lower", ("total", "torsion.derivatives")),
    ("torsion.unknowns", "count", "lower", ("counter", "torsion.unknowns")),
    ("torsion.solve_residual.max", "ratio", "lower", ("counter", "torsion.solve_residual.max")),
    ("identities.build_pipeline_data.calls", "count", "lower", ("calls", "identities.build_pipeline_data")),
    ("identities.build_pipeline_data.self_s", "s", "lower", ("self", "identities.build_pipeline_data")),
    ("identities.run_domain_checks.s", "s", "lower", ("total", "identities.run_domain_checks")),
    ("identities.checks", "count", "higher", ("counter", "identities.checks")),
    ("identities.checks_failed", "count", "lower", ("counter", "identities.checks_failed")),
    ("stability.run_family.s", "s", "lower", ("total", "stability.run_family")),
    ("stability.fit.s", "s", "lower", ("total", "stability.fit")),
    ("stability.pool_efficiency", "ratio", "higher", ("pool",)),
    ("cones.quadrature_build.s", "s", "lower", ("total", "cones.quadrature_build")),
    ("cones.run_cone_sweep.self_s", "s", "lower", ("self", "cones.run_cone_sweep")),
    ("cones.checks", "count", "higher", ("counter", "cones.checks")),
    ("cones.violations", "count", "lower", ("counter", "cones.violations")),
    ("cones.quad_nodes", "count", "lower", ("counter", "cones.quad_nodes")),
    ("constants.constants_table.s", "s", "lower", ("total", "constants.constants_table")),
    ("cli.main.self_s", "s", "lower", ("self", "cli.main")),
    ("cli.bytes_written", "bytes", "lower", ("bytes",)),
    ("trace.overhead_s", "s", "lower", ("overhead",)),
]


def pool_efficiency(spans: list[dict]) -> float:
    """Member seconds over ``jobs x run_family`` seconds (0 without a pool)."""
    families = {s["id"]: s for s in spans if s["name"] == "stability.run_family"}
    busy = sum(s["end"] - s["start"] for s in spans if s["parent"] in families)
    capacity = sum(s.get("jobs", 1) * (s["end"] - s["start"])
                   for s in families.values())
    return busy / capacity if capacity > 0 else 0.0


def per_layer_metrics(spans: list[dict], counters: dict[str, float],
                      bytes_written: int, overhead_s: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced pass (0 where nothing ran)."""
    selfs = self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    for span in spans:
        total[span["name"]] += span["end"] - span["start"]
        self_total[span["name"]] += selfs[span["id"]]
        calls[span["name"]] += 1
    out = {}
    for name, _, _, source in PER_LAYER:
        kind = source[0]
        if kind == "total":
            out[name] = total[source[1]]
        elif kind == "self":
            out[name] = self_total[source[1]]
        elif kind == "calls":
            out[name] = calls[source[1]]
        elif kind == "counter":
            out[name] = counters.get(source[1], 0)
        elif kind == "bytes":
            out[name] = bytes_written
        elif kind == "pool":
            out[name] = pool_efficiency(spans)
        else:
            out[name] = overhead_s
    return out
