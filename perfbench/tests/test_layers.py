import json
import time
from pathlib import Path

import numpy as np
import pytest

import layers
import run
from spans import Recorder, load

BENCH = Path(__file__).resolve().parents[1]


def _layer_calls():
    """One call through each kind of wrapped binding, on small inputs."""
    from oscbound import cli, cones, identities, stardomain
    from oscbound.constants import ConeSpec
    domain = stardomain.StarDomain2D.cosine(0.1, 3)
    pts = np.random.default_rng(0).uniform(-1.2, 1.2, (500, 2))
    u, report = identities.solve_torsion(domain, 1 / 32)
    cone = ConeSpec(np.zeros(2), np.array([1.0, 0.0]), 0.5, 1.0)
    return {
        "ball_radii": identities.ball_radii(domain),
        "diameter": identities.diameter(domain),
        "contains": domain.contains(pts).tolist(),
        "u": u.values.tobytes(),
        "report": report,
        "z": identities.locate_min(u).tolist(),
        "rule": cones.QuadratureRule.build(cone, 8, 8).points.tobytes(),
        "table": [(r.name, r.value) for r in cli.constants_table(2)],
    }


def test_wrappers_return_identical_values(tmp_path):
    reference = _layer_calls()
    rec = Recorder(tmp_path)
    undo, missing = layers.install(rec)
    try:
        assert missing == []
        assert _layer_calls() == reference
    finally:
        undo()
    rec.flush()
    spans, counters = load(tmp_path)
    assert {"stardomain.ball_radii", "stardomain.geometry",
            "torsion.solve_torsion", "torsion.grid_build",
            "torsion.delta_query", "torsion.sparse_solve",
            "torsion.derivatives", "cones.quadrature_build",
            "constants.constants_table"} <= {s["name"] for s in spans}
    assert counters["torsion.unknowns"] == reference["report"].n_unknowns
    assert counters["cones.quad_nodes"] == 64
    assert counters["stardomain.contains.points"] >= 500


def test_undo_restores_every_binding(tmp_path):
    from oscbound import identities, stardomain, torsion
    before = (identities.ball_radii, vars(torsion.Grid)["build"],
              torsion.cKDTree, vars(stardomain.StarDomain2D)["contains"])
    undo, _ = layers.install(Recorder(tmp_path))
    undo()
    after = (identities.ball_radii, vars(torsion.Grid)["build"],
             torsion.cKDTree, vars(stardomain.StarDomain2D)["contains"])
    assert before == after


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in layers.PER_LAYER]


def test_traced_family_pool_pass_writes_identical_csvs(tmp_path):
    deadline = time.monotonic() + 600
    plain = run.family_pool_pass(0, tmp_path / "plain", None, deadline)
    traced = run.family_pool_pass(0, tmp_path / "traced", tmp_path / "trace",
                                  deadline)
    for a, b in zip(plain.ops, traced.ops):
        assert a.ok and b.ok, (a, b)
        assert a.digest == b.digest, a.name
    for name in ("sbt_records.csv",):
        assert (tmp_path / "plain/sbt-run/out" / name).read_bytes() == \
            (tmp_path / "traced/sbt-run/out" / name).read_bytes()
    spans, _ = load(tmp_path / "trace")
    assert {s["pid"] for s in spans if s["name"] ==
            "identities.build_pipeline_data"} - {s["pid"] for s in spans
                                                 if s["name"] == "cli.main"}
