"""Process that runs one benchmark operation, traced or not.

    child.py cli TRACE_DIR ARGS...                 one traced CLI command
    child.py batch TRACE_DIR COMMANDS_JSON OUT_JSON  CLI commands in one process
    child.py ladder TRACE_DIR SEED OUT_JSON        one ladder-serial pass

``TRACE_DIR`` is ``-`` for an untraced run.  Otherwise the layer wrappers
are installed before any oscbound call and spans land under ``TRACE_DIR``.
``batch`` calls ``oscbound.cli.main`` once per argument list in
``COMMANDS_JSON``; ``batch`` and ``ladder`` write one JSON record per
operation to ``OUT_JSON``, with times that cover the package calls only, not
interpreter start or the checks this script makes on the results.
"""
from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from contextlib import nullcontext

import inputs
from spans import Recorder


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _member_domain(family: str, eps: float, alpha: float):
    from oscbound.stability import FamilySpec, build_family_domain
    from oscbound.stardomain import rotated
    kind = "ellipse" if family == "ellipse" else "cosine_perturbation"
    domain = build_family_domain(FamilySpec(kind=kind, k=inputs.COSINE_K),
                                 eps)
    return rotated(domain, alpha) if alpha else domain


def _ellipse_node_error(u, eps: float, alpha: float) -> float:
    """Max node error against the closed form, in the member's own frame."""
    import numpy as np
    from oscbound.torsion import exact_ellipse_torsion
    a = 1.0 + eps
    grid = u.grid
    ii, jj = np.nonzero(grid.inside)
    x, y = grid.xs[jj], grid.ys[ii]
    c, s = math.cos(alpha), math.sin(alpha)
    frame = np.stack([c * x + s * y, -s * x + c * y], axis=-1)
    exact = exact_ellipse_torsion(a, 1.0 / a).value(frame)
    return float(np.max(np.abs(u.values[ii, jj] - exact)))


def _digest(data, reports) -> str:
    h = hashlib.sha256(data.u.values.tobytes())
    h.update(repr([(r.name, r.lhs, r.rhs, r.status) for r in reports]).encode())
    return h.hexdigest()


def ladder(seed: int) -> list[dict]:
    from oscbound import identities
    rungs = []
    for h in inputs.LADDER_SPACINGS:
        for family, eps, alpha in inputs.ladder_members(seed):
            rung = {"family": family, "eps": eps, "alpha": alpha, "h": h,
                    "error": None}
            domain = _member_domain(family, eps, alpha)
            wall, cpu = time.perf_counter(), _cpu_seconds()
            try:
                data = identities.build_pipeline_data(domain, h)
                reports = identities.run_domain_checks(data)
            except Exception as exc:  # one failed rung must not stop the pass
                rung["error"] = f"{type(exc).__name__}: {exc}"
            rung["wall"] = time.perf_counter() - wall
            rung["cpu"] = _cpu_seconds() - cpu
            if rung["error"] is None:
                rung.update(
                    n_unknowns=data.report.n_unknowns,
                    residual=data.report.residual,
                    node_error=(_ellipse_node_error(data.u, eps, alpha)
                                if family == "ellipse" else None),
                    checks=len(reports),
                    checks_failed=sum(r.status == "fail" for r in reports),
                    digest=_digest(data, reports))
            rungs.append(rung)
    return rungs


def batch(commands: list[list[str]], recorder: Recorder | None) -> list[dict]:
    from oscbound import cli
    results = []
    for argv in commands:
        result = {"code": None, "error": None}
        wall, cpu = time.perf_counter(), _cpu_seconds()
        try:
            with recorder.span("cli.main") if recorder else nullcontext():
                result["code"] = cli.main(argv)
        except Exception as exc:  # one failed command must not stop the pass
            result["error"] = f"{type(exc).__name__}: {exc}"
        result["wall"] = time.perf_counter() - wall
        result["cpu"] = _cpu_seconds() - cpu
        results.append(result)
    return results


def main(argv: list[str]) -> int:
    mode, trace_dir, *rest = argv
    recorder = None
    if trace_dir != "-":
        import layers
        recorder = Recorder(trace_dir)
        _, missing = layers.install(recorder)
        with open(f"{trace_dir}/missing.json", "w", encoding="utf-8") as fh:
            json.dump(missing, fh)
    if mode == "cli":
        from oscbound import cli
        scope = recorder.span("cli.main") if recorder else nullcontext()
        with scope:
            return cli.main(rest)
    if mode == "batch":
        with open(rest[0], encoding="utf-8") as fh:
            records = batch(json.load(fh), recorder)
    elif mode == "ladder":
        records = ladder(int(rest[0]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    if recorder:
        recorder.flush()
    with open(rest[1], "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
