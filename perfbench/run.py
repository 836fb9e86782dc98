#!/usr/bin/env python3
"""Benchmark of the oscbound command line and pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (``src/`` must hold the package).  ``NAME`` is
``family-pool``, ``ladder-serial``, ``cone-sweep`` or ``all``.  A run
repeats workload passes until the next one would end after ``S`` seconds
(at least one pass), checks every output, prints a report and, as its last
line, ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` each round is an
untraced pass followed by a traced pass and the metrics are the per-layer
ones, including the tracing overhead.  Nothing here sets thread variables
or ``jobs``: the package runs as users run it.  See README.md.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import layers
import spans
import summary

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
WORKLOADS = ("family-pool", "ladder-serial", "cone-sweep")
RUN_LIMIT_S = 165.0        # a run must end within 180 s
SETUP_SAMPLES = 3
CONE_ROWS = 3888           # cone-verify rows per dimension
NODE_TOL = 1e-10           # ellipse node error and solve residual gates
TEXT_COLUMNS = {"family", "status", "detail", "name", "inputs", "provenance",
                "field", "check"}
OPTIONAL_COLUMNS = {"p", "q"}      # cone checks leave p/q empty when unused

END_TO_END = (("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("ok_frac", "ratio"))


@dataclass
class Op:
    """One operation: a CLI command or a ladder rung, and what its checks found."""

    name: str
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    bytes_written: int = 0
    digest: str = ""
    failed: list[str] = field(default_factory=list)   # no usable output
    wrong: list[str] = field(default_factory=list)    # output contradicts its check

    @property
    def ok(self) -> bool:
        return not (self.failed or self.wrong)


@dataclass
class Pass:
    ops: list[Op]
    trace_dir: Path | None = None

    @property
    def wall(self) -> float:
        return sum(op.wall for op in self.ops)

    @property
    def cpu(self) -> float:
        return sum(op.cpu for op in self.ops)

    @property
    def rss_mb(self) -> float:
        return max(op.rss_mb for op in self.ops)

    @property
    def bytes_written(self) -> int:
        return sum(op.bytes_written for op in self.ops)


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stderr: str


def run_child(cmd: list[str], workdir: Path, deadline: float) -> Child:
    """Run ``cmd`` in its own session; wall, CPU and peak RSS of its tree.

    ``wait4`` reports the child plus every descendant it waited for (pool
    workers), so CPU covers the whole tree and the RSS is the largest peak
    of any one process in it.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    with open(workdir / "stdout.txt", "w") as out, \
            open(workdir / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=out,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)   # stragglers of a crashed child
    return Child(code=proc.returncode, wall=wall,
                 cpu=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0,
                 stderr=(workdir / "stderr.txt").read_text(errors="replace"))


def _cli_cmd(args: list[str], trace_dir: Path | None) -> list[str]:
    if trace_dir is None:
        return [sys.executable, "-m", "oscbound.cli", *args]
    return [sys.executable, str(BENCH / "child.py"), "cli", str(trace_dir),
            *args]


def _tail(text: str) -> str:
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return lines[-1][:200] if lines else ""


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

def _files_digest(out_dir: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            size += len(data)
            h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), size


def read_numeric_csv(op: Op, path: Path) -> list[dict[str, str]]:
    """Rows of ``path``; every numeric cell must parse as a float."""
    if not path.is_file():
        op.failed.append(f"missing output {path.name}")
        return []
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    bad = []
    for number, row in enumerate(rows, start=2):
        for column, cell in row.items():
            if column in TEXT_COLUMNS or (column in OPTIONAL_COLUMNS
                                          and cell == ""):
                continue
            try:
                float(cell)
            except (TypeError, ValueError):
                bad.append(f"{path.name}:{number} {column}={cell!r}")
    if bad:
        op.failed.append(f"{len(bad)} numeric cells do not parse, first "
                         f"{bad[0]}")
    return rows


def _record_exit(op: Op, code: int, detail: str) -> None:
    """Exit 1 is the CLI's "a check failed"; any other non-zero code is a crash."""
    if code == 1 and "Traceback" not in detail:
        op.wrong.append(f"exit 1 (a check failed): {_tail(detail)}")
    elif code != 0:
        op.failed.append(f"exit {code}: {_tail(detail)}")


def _record_outputs(op: Op, out_dir: Path) -> None:
    if out_dir.is_dir():
        op.digest, op.bytes_written = _files_digest(out_dir)


def _check_records(op: Op, path: Path, profile: str) -> None:
    from types import SimpleNamespace

    from oscbound.stability import check_sbt_profile, check_serrin_profile
    rows = read_numeric_csv(op, path)
    if len(rows) != len(inputs.DEFAULT_EPS):
        op.wrong.append(f"{path.name} has {len(rows)} records, expected "
                        f"{len(inputs.DEFAULT_EPS)}")
    errors = [row for row in rows if row.get("status") != "ok"]
    if errors:
        op.failed.append(f"{len(errors)} error records in {path.name}")
    if op.failed or op.wrong:
        return
    records = [SimpleNamespace(status=row["status"], **{
        k: float(v) for k, v in row.items() if k not in TEXT_COLUMNS})
        for row in rows]
    checker = check_sbt_profile if profile == "sbt" else check_serrin_profile
    if not checker(records).passed:
        op.wrong.append(f"{profile} verdict recomputed from {path.name} fails")


def _check_cones(op: Op, path: Path) -> None:
    rows = read_numeric_csv(op, path)
    if len(rows) != CONE_ROWS:
        op.wrong.append(f"{path.name} has {len(rows)} rows, expected "
                        f"{CONE_ROWS}")
    violations = 0
    for row in rows:
        try:
            violations += float(row["margin"]) < -1e-9
        except (KeyError, ValueError):
            pass    # already reported by read_numeric_csv
    if violations:
        op.wrong.append(f"{violations} cone violations")


# --------------------------------------------------------------------------
# workload passes
# --------------------------------------------------------------------------

def family_pool_pass(seed: int, pass_dir: Path, trace_dir: Path | None,
                     deadline: float) -> Pass:
    ops = []
    for command, family, profile in (("sbt-run", "ellipse", "sbt"),
                                     ("serrin-run", "cosine", "serrin")):
        op = Op(command)
        op_dir = pass_dir / command
        op_dir.mkdir(parents=True)
        config = op_dir / "run.cfg"
        config.write_text(inputs.family_config(seed, family))
        out_dir = op_dir / "out"
        child = run_child(_cli_cmd([command, "--config", str(config),
                                    "--out", str(out_dir)], trace_dir),
                          op_dir, deadline)
        op.wall, op.cpu, op.rss_mb = child.wall, child.cpu, child.rss_mb
        _record_exit(op, child.code, child.stderr)
        _record_outputs(op, out_dir)
        _check_records(op, out_dir / f"{profile}_records.csv", profile)
        ops.append(op)
    return Pass(ops, trace_dir)


def _child_records(child: Child, out_json: Path, ops: list[Op]) -> list[dict]:
    """Per-operation records a batch or ladder child wrote, [] if it crashed."""
    records = json.loads(out_json.read_text()) if out_json.is_file() else []
    for op in ops:
        op.rss_mb = child.rss_mb
    if child.code != 0 or len(records) != len(ops):
        for op in ops:
            op.failed.append(f"child process exit {child.code}: "
                             f"{_tail(child.stderr)}")
        return []
    for op, record in zip(ops, records):
        op.wall, op.cpu = record["wall"], record["cpu"]
        if record["error"] is not None:
            op.failed.append(record["error"])
    return records


CONE_OPS = (("constants N=2", 2, "constants"), ("constants N=3", 3, "constants"),
            ("cone-verify N=2", 2, "cone-verify"),
            ("cone-verify N=3", 3, "cone-verify"))


def cone_sweep_pass(seed: int, pass_dir: Path, trace_dir: Path | None,
                    deadline: float) -> Pass:
    """The four commands through ``cli.main`` in one fresh process.

    Interpreter start would be two thirds of the pass and is measured by
    ``setup_s`` anyway; leaving it out makes the quadrature the bulk of
    ``run_s``.
    """
    del seed    # the analytic catalog has no random input
    ops, commands, out_dirs = [], [], []
    for name, dim, command in CONE_OPS:
        op_dir = pass_dir / name.replace(" ", "_").replace("=", "")
        op_dir.mkdir(parents=True)
        if command == "constants":
            args = ["constants", "--N", str(dim)]
        elif dim == 2:
            args = ["cone-verify"]      # N = 2 is the default
        else:
            config = op_dir / "run.cfg"   # cone-verify has no --N flag
            config.write_text(f"N = {dim}\n")
            args = ["cone-verify", "--config", str(config)]
        ops.append(Op(name))
        out_dirs.append(op_dir / "out")
        commands.append(args + ["--out", str(out_dirs[-1])])
    (pass_dir / "commands.json").write_text(json.dumps(commands))
    out_json = pass_dir / "results.json"
    child = run_child([sys.executable, str(BENCH / "child.py"), "batch",
                       str(trace_dir) if trace_dir else "-",
                       str(pass_dir / "commands.json"), str(out_json)],
                      pass_dir, deadline)
    records = _child_records(child, out_json, ops)
    for op, record, out_dir, (_, _, command) in zip(ops, records, out_dirs,
                                                    CONE_OPS):
        if record["error"] is not None:
            continue
        _record_exit(op, record["code"], child.stderr)
        _record_outputs(op, out_dir)
        if command == "constants":
            if not read_numeric_csv(op, out_dir / "constants.csv"):
                op.failed.append("constants.csv has no rows")
        else:
            _check_cones(op, out_dir / "cone_checks.csv")
    return Pass(ops, trace_dir)


def ladder_pass(seed: int, pass_dir: Path, trace_dir: Path | None,
                deadline: float) -> Pass:
    pass_dir.mkdir(parents=True)
    out_json = pass_dir / "rungs.json"
    child = run_child([sys.executable, str(BENCH / "child.py"), "ladder",
                       str(trace_dir) if trace_dir else "-", str(seed),
                       str(out_json)], pass_dir, deadline)
    ops = [Op(f"h=1/{round(1 / h)} {family}")
           for h in inputs.LADDER_SPACINGS
           for family, _, _ in inputs.ladder_members(seed)]
    for op, rung in zip(ops, _child_records(child, out_json, ops)):
        if rung["error"] is not None:
            continue
        op.digest = rung["digest"]
        if not rung["residual"] <= NODE_TOL:
            op.wrong.append(f"solve residual {rung['residual']:.3e}")
        if rung["node_error"] is not None and not rung["node_error"] <= NODE_TOL:
            op.wrong.append(f"ellipse node error {rung['node_error']:.3e}")
    return Pass(ops, trace_dir)


PASSES = {"family-pool": family_pool_pass, "ladder-serial": ladder_pass,
          "cone-sweep": cone_sweep_pass}


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------

def setup_samples(run_dir: Path, deadline: float) -> list[float]:
    """Fresh interpreter to ``import oscbound`` and argument parsing.

    ``oscbound.cli --help`` imports the package, builds the parser and parses
    the arguments.  In a fresh checkout the first sample also writes the
    bytecode caches; the median leaves that one out.
    """
    samples = []
    for i in range(SETUP_SAMPLES):
        child = run_child([sys.executable, "-m", "oscbound.cli", "--help"],
                          run_dir / f"setup-{i}", deadline)
        if child.code != 0:
            raise RuntimeError(f"oscbound.cli --help exited {child.code}: "
                               f"{_tail(child.stderr)}")
        samples.append(child.wall)
    return samples


def _versions() -> dict[str, object]:
    import numpy
    import scipy

    def blas(config) -> str | None:
        try:
            return config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return None

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_openblas": blas(numpy.show_config),
            "scipy_openblas": blas(scipy.show_config)}


def _commit() -> dict[str, str | None]:
    commit = None
    if (ROOT / ".git").exists():    # not the HEAD of an enclosing repository
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = head.stdout.strip() if head.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": h.hexdigest()}


def manifest(workload: str, seed: int) -> dict[str, object]:
    jobs = {"family-pool": os.cpu_count(), "ladder-serial": 1}.get(workload)
    return {
        "workload": workload,
        "seed": seed,
        "seeded_inputs": workload != "cone-sweep",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **_versions(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "effective_jobs": jobs,
        **_commit(),
    }


def _consistency(passes: list[Pass], label: str) -> list[str]:
    """Same inputs must give the same outputs in every pass."""
    problems = []
    first = {op.name: op.digest for op in passes[0].ops if op.ok}
    for other in passes[1:]:
        for op in other.ops:
            if op.ok and op.name in first and op.digest != first[op.name]:
                problems.append(f"{op.name}: outputs differ between {label}")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_pass = PASSES[workload]
    try:
        setup = [] if trace else setup_samples(run_dir, deadline)
        plain: list[Pass] = []
        traced: list[Pass] = []
        begin = time.monotonic()
        while True:
            plain.append(run_pass(seed, run_dir / f"pass-{len(plain)}",
                                  None, deadline))
            if trace:
                trace_dir = run_dir / f"trace-{len(traced)}"
                traced.append(run_pass(seed, run_dir / f"tpass-{len(traced)}",
                                       trace_dir, deadline))
            now = time.monotonic()
            per_round = (now - begin) / len(plain)
            if now - begin + per_round > seconds or now + per_round > deadline:
                break
        result = _result(workload, seed, plain, traced, setup)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["manifest"]["run_wall_s"] = time.monotonic() - started
    return result


def _result(workload: str, seed: int, plain: list[Pass], traced: list[Pass],
            setup: list[float]) -> dict:
    every = plain + traced
    ops = [op for p in every for op in p.ops]
    failed = sum(not op.ok for op in ops)
    problems = _consistency(plain, "untraced passes")
    if traced:
        problems += _consistency([plain[0]] + traced,
                                 "traced and untraced passes")
    correct = not problems and not any(op.wrong for op in ops)
    samples = {"run_s": [p.wall for p in plain], "cpu_s": [p.cpu for p in plain],
               "peak_rss_mb": [p.rss_mb for p in plain], "setup_s": setup}
    out = {"correct": correct, "attempted": len(ops), "failed": failed}
    if traced:
        metrics, missing = _layer_metrics(plain, traced)
    else:
        metrics = {name: {"value": statistics.median(samples[name]),
                          "unit": unit}
                   for name, unit in END_TO_END if name != "ok_frac"}
        metrics["ok_frac"] = {"value": (len(ops) - failed) / len(ops),
                              "unit": "ratio"}
        missing = []
    out["metrics"] = metrics
    out["manifest"] = manifest(workload, seed)
    out["manifest"]["untraced_bindings"] = missing
    out["samples"] = samples
    out["problems"] = problems
    out["ops"] = [{"name": op.name, "wall": op.wall, "cpu": op.cpu,
                   "rss_mb": op.rss_mb, "failed": op.failed,
                   "wrong": op.wrong} for op in ops]
    return out


def _layer_metrics(plain: list[Pass], traced: list[Pass]):
    per_pass = []
    missing: set[str] = set()
    for base, tp in zip(plain, traced):
        records, counters = spans.load(tp.trace_dir)
        missing_file = tp.trace_dir / "missing.json"
        if missing_file.is_file():
            missing.update(json.loads(missing_file.read_text()))
        per_pass.append(layers.per_layer_metrics(
            records, counters, tp.bytes_written, tp.wall - base.wall))
    metrics = {name: {"value": statistics.median(p[name] for p in per_pass),
                      "unit": unit}
               for name, unit, _, _ in layers.PER_LAYER}
    return metrics, sorted(missing)


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

def report(result: dict, trace: bool) -> None:
    info = result["manifest"]
    print(f"== {info['workload']} seed {info['seed']} "
          f"({'traced' if trace else 'untraced'}) ==")
    print("manifest: " + json.dumps(info, sort_keys=True))
    for op in result["ops"]:
        for problem in op["failed"]:
            print(f"  FAILED {op['name']}: {problem}")
        for problem in op["wrong"]:
            print(f"  WRONG  {op['name']}: {problem}")
    for problem in result["problems"]:
        print(f"  WRONG  {problem}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4g}); "
          f"correct: {result['correct']}")
    for name, metric in result["metrics"].items():
        line = f"  {name:40s} {metric['value']:.6g} {metric['unit']}"
        if name in result["samples"] and result["samples"][name]:
            line += f"  ({summary.describe(result['samples'][name])})"
        print(line)


def save(result: dict, trace: bool) -> None:
    info = result["manifest"]
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = (f"{info['workload']}-seed{info['seed']}-trace{int(trace)}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    (out / name).write_text(json.dumps(result, indent=1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oscbound" / "__init__.py").is_file():
        print(f"error: no oscbound package under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))    # the output checks reuse the verdicts
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, trace)
        save(result, trace)
        report(result, trace)
        results[name] = {key: result[key] for key in
                         ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
