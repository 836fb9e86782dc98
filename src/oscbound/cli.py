"""Configuration-driven command line for the verification pipelines.

Subcommands map one-to-one onto the package layers: ``constants`` prints the
closed-form constant table, ``cone-verify`` sweeps the analytic cone
inequalities, ``domain-verify`` runs the identity battery on one domain
family, ``sbt-run`` / ``serrin-run`` measure the stability profiles, and
``report`` re-fits slopes from previously written record CSVs.

Configuration is a plain ``key=value`` file (one pair per line, ``#``
comments); command-line flags override file values.  Exit codes are a
contract: 0 all asserted checks passed, 1 an asserted check failed, 2 the
configuration was rejected, 3 an infrastructure error (solver failure,
unreadable input, grid too coarse) stopped the run.  Identical
configurations produce byte-identical CSV outputs.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import dataclass, fields
from functools import partial
from operator import attrgetter

import numpy as np

from .constants import (
    INF,
    ConstantReport,
    cap_measure,
    euler_beta,
    far_field_coefficient,
    gradient_bound_M,
    min_depth_bound,
    morrey_cone_constant,
    morrey_domain_constant,
    near_field_coefficient,
    psi_profile,
    serrin_profile_exponent,
    unit_ball_volume,
    unit_sphere_area,
)
from .cones import _check_dimension, run_cone_sweep
from .errors import ConfigError, OscboundError
from .identities import (
    build_pipeline_data,
    check_battery_exponents,
    run_domain_checks,
)
from .stability import (
    _DEFAULT_EPS,
    FamilySpec,
    ProfileVerdict,
    StabilityRecord,
    build_family_domain,
    check_sbt_profile,
    check_serrin_profile,
    run_family,
    verify_monotone_deviations,
    verify_refinement,
)

__all__ = ["RunConfig", "parse_config", "execute", "main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INFRA = 3

_CONFIG_HELP = """\
config file keys (key=value, one per line, # comments):
  family            ellipse | cosine            (default ellipse)
  eps               comma-separated positive ascending list (default
                    0.02,0.04,0.07,0.1,0.14,0.2)
  k                 cosine mode number >= 1     (default 2)
  normalize_area    true | false: rescale cosine members to area pi
  grid.h            solver grid spacing > 0     (default 0.015625 = 1/64)
  grid.refinements  grid halvings checked by the refinement ladder >= 0
  p, q, alpha       exponents for the oscillation chain and the weighted
                    Poincare ratio (defaults 6, inf, 0.5)
  N                 dimension for the constants table / cone sweep >= 2
  jobs              worker processes; 0 = available parallelism (read
                    by sbt-run and serrin-run only)
  out               output directory            (default .)
  dump_fields       true | false: dump solved u as x,y,value CSV (read
                    by domain-verify only)
"""


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description; one instance drives one command."""

    command: str = ""
    family: str = "ellipse"
    eps: tuple[float, ...] = _DEFAULT_EPS
    k: int = 2
    normalize_area: bool = False
    grid_h: float = 1.0 / 64.0
    grid_refinements: int = 0
    p: float = 6.0
    q: float = INF
    alpha: float = 0.5
    N: int = 2
    jobs: int = 0
    out: str = "."
    dump_fields: bool = False

    @property
    def effective_jobs(self) -> int:
        """``jobs``, or for 0 the CPUs this process may run on (its affinity
        mask under taskset or a cgroup CPU set, not every host CPU)."""
        if self.jobs >= 1:
            return self.jobs
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if math.isnan(value):
        raise ConfigError("NaN is not a valid config value")
    return value


def _parse_eps(text: str) -> tuple[float, ...]:
    parts = [part.strip() for part in text.split(",")]
    if not any(parts):
        raise ConfigError("eps list is empty")
    if not all(parts):
        raise ConfigError(f"eps list has an empty entry: {text.strip()!r}")
    return tuple(_parse_float(part) for part in parts)


def _parse_family(text: str) -> str:
    low = text.strip().lower()
    if low not in ("ellipse", "cosine"):
        raise ConfigError(f"family must be ellipse or cosine, got {text!r}")
    return low


_KEYS = {
    "family": ("family", _parse_family),
    "eps": ("eps", _parse_eps),
    "k": ("k", _parse_int),
    "normalize_area": ("normalize_area", _parse_bool),
    "grid.h": ("grid_h", _parse_float),
    "grid.refinements": ("grid_refinements", _parse_int),
    "p": ("p", _parse_float),
    "q": ("q", _parse_float),
    "alpha": ("alpha", _parse_float),
    "N": ("N", _parse_int),
    "jobs": ("jobs", _parse_int),
    "out": ("out", str),
    "dump_fields": ("dump_fields", _parse_bool),
}

_FAMILY_COMMANDS = ("domain-verify", "sbt-run", "serrin-run")


def _read_config_file(path: str) -> dict[str, object]:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, object] = {}
    for number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{number}: expected key=value, got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{number}: unknown config key {key!r}")
        attr, parse = _KEYS[key]
        try:
            values[attr] = parse(text.strip())
        except ConfigError as exc:
            raise ConfigError(f"{path}:{number}: key {key}: {exc}") from None
    return values


def _family_spec(config: RunConfig) -> FamilySpec:
    kind = "ellipse" if config.family == "ellipse" else "cosine_perturbation"
    return FamilySpec(kind=kind, eps=config.eps, k=config.k,
                      normalize_area=config.normalize_area,
                      spacing=config.grid_h,
                      refinements=config.grid_refinements)


def _validate(config: RunConfig) -> RunConfig:
    # eps, grid.h and grid.refinements are checked by FamilySpec below, for
    # the commands that build a family, and N by the library for the
    # commands that use it; FamilySpec checks k only for cosines
    if config.k < 1:
        raise ConfigError(f"k must be >= 1, got {config.k}")
    if config.p < 1.0:
        raise ConfigError(f"p must be >= 1, got {config.p}")
    if not config.q > 0.0:
        raise ConfigError(f"q must be positive, got {config.q}")
    if not 0.0 <= config.alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {config.alpha}")
    if config.N < 2:
        raise ConfigError(f"N must be >= 2, got {config.N}")
    if config.jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {config.jobs}")
    try:
        if config.command in _FAMILY_COMMANDS:
            _family_spec(config)
            if config.command == "domain-verify":
                check_battery_exponents(config.p, config.q, config.alpha)
        elif config.command == "constants":
            unit_ball_volume(config.N)
        elif config.command == "cone-verify":
            _check_dimension(config.N)
    except OscboundError as exc:
        raise ConfigError(str(exc)) from None
    return config


def parse_config(command: str, config_path: str | None = None,
                 **flag_overrides) -> RunConfig:
    """Assemble and validate one :class:`RunConfig`.

    Precedence: built-in defaults, then the config file, then the non-None
    ``flag_overrides``.  Any unknown key, type mismatch, or invariant
    violation raises :class:`ConfigError` before any computation starts.
    """
    values: dict[str, object] = {}
    if config_path is not None:
        values.update(_read_config_file(config_path))
    for attr, value in flag_overrides.items():
        if value is None:
            continue
        if attr not in {f.name for f in fields(RunConfig)}:
            raise ConfigError(f"unknown override {attr!r}")
        values[attr] = value
    return _validate(RunConfig(command=command, **values))


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------

def _same(*names: str) -> dict[str, str]:
    return {name: name for name in names}


# one schema per CSV: the context columns that lead each row, then the columns
# read off the row's object, as CSV header -> attribute path
_CONSTANTS = ((), _same(*(f.name for f in fields(ConstantReport))))
_CONES = ((), _same("field", "theta", "a", "p", "q", "check", "lhs", "rhs",
                    "margin"))
_DOMAIN_CHECKS = (("domain", "eps"), {
    "check": "name", **_same("lhs", "rhs", "ratio", "residual", "status")})
_RECORDS = (("family", "k"),
            _same(*(f.name for f in fields(StabilityRecord))))
_REPORT = (("source",), {
    "profile": "name", "primary_slope": "primary.slope",
    "primary_intercept": "primary.intercept",
    "primary_r2": "primary.r_squared", "gauss_slope": "gauss.slope",
    "gauss_r2": "gauss.r_squared", "n_points": "primary.n_points",
    "c_emp": "c_emp", "passed": "passed"})
_FIELD_DUMP = (("x", "y", "value"), {})  # grid nodes: no object


def _fmt(value: object) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, dict):  # the inputs of a constant
        return ";".join(f"{key}={cell:g}" for key, cell in sorted(value.items()))
    return str(value)


def _write_csv(path: str, schema: tuple[tuple[str, ...], dict[str, str]],
               rows: list[tuple[tuple, object]]) -> str:
    """Write ``(context cells, object)`` rows under ``schema``; returns the
    text written."""
    context_columns, columns = schema
    getters = [attrgetter(attr) for attr in columns.values()]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([*context_columns, *columns])
    writer.writerows([*map(_fmt, context), *[_fmt(get(obj)) for get in getters]]
                     for context, obj in rows)
    text = buffer.getvalue()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return text


def _out_path(config: RunConfig, name: str) -> str:
    os.makedirs(config.out, exist_ok=True)
    return os.path.join(config.out, name)


def _dump_field(config: RunConfig, tag: str, data) -> str:
    grid = data.u.grid
    ii, jj = np.nonzero(grid.inside)
    nodes = zip(grid.xs[jj].tolist(), grid.ys[ii].tolist(),
                data.u.values[ii, jj].tolist())
    path = _out_path(config, f"u_{tag}.csv")
    _write_csv(path, _FIELD_DUMP, [(node, None) for node in nodes])
    return path


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def constants_table(N: int) -> list[ConstantReport]:
    """The closed-form constants at dimension ``N``, one report per row
    (name, function, inputs, provenance) valued ``function(**inputs)``."""
    theta = math.pi / 4.0
    rows = [
        ("unit_ball_volume", unit_ball_volume, {"N": N}, "closed-form"),
        ("unit_sphere_area", unit_sphere_area, {"N": N}, "closed-form"),
        ("euler_beta", euler_beta, {"x": N / 2.0, "y": 0.5}, "gamma-ratio"),
        ("cap_measure", cap_measure, {"theta": theta, "N": N}, "closed-form"),
        ("morrey_cone_constant", morrey_cone_constant,
         {"p": N + 1.0, "N": N, "a": 1.0}, "closed-form"),
        ("morrey_cone_constant", morrey_cone_constant,
         {"p": 2.0 * N, "N": N, "a": 1.0}, "closed-form"),
        ("morrey_cone_constant", morrey_cone_constant,
         {"p": INF, "N": N, "a": 1.0}, "p->inf limit"),
        ("morrey_domain_constant", morrey_domain_constant,
         {"p": INF, "N": N, "theta": theta}, "p->inf limit"),
        ("near_field_coefficient", near_field_coefficient,
         {"q": 2.0 * N, "N": N}, "closed-form"),
        ("far_field_coefficient", far_field_coefficient,
         {"p": 0.5 * (N + 1.0), "N": N}, "closed-form"),
        ("gradient_bound_M", gradient_bound_M,
         {"N": N, "d": 2.0, "r_e": 1.0}, "closed-form"),
        ("min_depth_bound", partial(min_depth_bound, mean_convex=True),
         {"N": N, "r_Omega": 1.0}, "mean-convex branch"),
    ]
    if N >= 4:  # the decay profiles are defined only in high dimensions
        rows += [
            ("serrin_profile_exponent", serrin_profile_exponent,
             {"N": N, "q": INF}, "q->inf limit"),
            ("serrin_profile_exponent", serrin_profile_exponent,
             {"N": N, "q": 2.0 * N}, "closed-form"),
            ("psi_profile", psi_profile,
             {"sigma": 0.5, "N": N, "q": INF}, "profile value"),
        ]
    return [ConstantReport(name, function(**inputs), inputs, provenance)
            for name, function, inputs, provenance in rows]


def _cmd_constants(config: RunConfig) -> int:
    reports = constants_table(config.N)
    path = _out_path(config, "constants.csv")
    print(_write_csv(path, _CONSTANTS, [((), r) for r in reports]), end="")
    print(f"wrote {len(reports)} rows -> {path}")
    return EXIT_PASS


def _cmd_cone_verify(config: RunConfig) -> int:
    checks = run_cone_sweep(dim=config.N)
    path = _out_path(config, "cone_checks.csv")
    _write_csv(path, _CONES, [((), c) for c in checks])
    violations = [c for c in checks if not c.ok()]
    print(f"wrote {len(checks)} rows -> {path}")
    print(f"violations beyond slack: {len(violations)}")
    for check in violations[:10]:
        print(f"  FAIL {check.field} theta={check.theta:g} a={check.a:g} "
              f"{check.check}: margin {check.margin:.3e}")
    return EXIT_PASS if not violations else EXIT_FAIL


def _cmd_domain_verify(config: RunConfig) -> int:
    spec = _family_spec(config)
    rows: list[tuple[tuple, object]] = []
    failed = 0
    for eps in config.eps:
        domain = build_family_domain(spec, eps)
        data = build_pipeline_data(domain, config.grid_h)
        reports = run_domain_checks(data, p=config.p, q=config.q,
                                    alpha=config.alpha)
        for report in reports:
            rows.append(((config.family, eps), report))
            if report.status == "fail":
                failed += 1
                print(f"  FAIL {config.family} eps={eps:g} {report.name}: "
                      f"lhs={report.lhs:.6g} rhs={report.rhs:.6g}")
        if config.dump_fields:
            dump = _dump_field(config, f"{config.family}_eps{eps:g}", data)
            print(f"dumped field -> {dump}")
    path = _out_path(config, "domain_checks.csv")
    _write_csv(path, _DOMAIN_CHECKS, rows)
    print(f"wrote {len(rows)} rows -> {path}")
    print(f"failed checks: {failed}")
    return EXIT_PASS if failed == 0 else EXIT_FAIL


def _print_verdict(verdict: ProfileVerdict) -> None:
    mark = "PASS" if verdict.passed else "FAIL"
    print(f"[{mark}] {verdict.name}: slope {verdict.primary.slope:.4f} "
          f"(R^2 {verdict.primary.r_squared:.5f}, "
          f"n {verdict.primary.n_points}), gauss slope "
          f"{verdict.gauss.slope:.4f}, c_emp {verdict.c_emp:.4f}")


def _cmd_stability(config: RunConfig, profile: str) -> int:
    spec = _family_spec(config)
    records = run_family(spec, jobs=config.effective_jobs)
    path = _out_path(config, f"{profile}_records.csv")
    _write_csv(path, _RECORDS,
               [((config.family, config.k), r) for r in records])
    print(f"wrote {len(records)} rows -> {path}")
    broken = [r for r in records if r.status != "ok"]
    if broken:
        for record in broken:
            print(f"  ERROR eps={record.eps:g}: {record.detail}",
                  file=sys.stderr)
        return EXIT_INFRA
    checker = check_sbt_profile if profile == "sbt" else check_serrin_profile
    verdict = checker(records)
    _print_verdict(verdict)
    monotone = verify_monotone_deviations(records)
    bad_monotone = [m for m in monotone if m.status != "pass"]
    for report in bad_monotone:
        print(f"  FAIL {report.name}: worst step {report.lhs:.3e}")
    if config.grid_refinements >= 1:
        ladder = verify_refinement(spec, records,
                                   jobs=config.effective_jobs)
        bad_ladder = [l for l in ladder if l.status != "pass"]
        for report in bad_ladder:
            print(f"  FAIL {report.name}: change {report.lhs:.3e} "
                  f"exceeds {report.rhs:.3e}")
        if bad_ladder:
            return EXIT_FAIL
    if not verdict.passed or bad_monotone:
        return EXIT_FAIL
    return EXIT_PASS


def _read_records_csv(path: str) -> list[StabilityRecord]:
    """Parse a records CSV; a malformed row raises naming its file and line,
    and a file that is not UTF-8 raises naming the file."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        records = []
        try:
            for row in reader:
                try:
                    records.append(_parse_record(row))
                except KeyError as exc:
                    raise OscboundError(
                        f"{path}, line {reader.line_num}: missing column {exc}"
                    ) from exc
                except (TypeError, ValueError) as exc:
                    raise OscboundError(
                        f"{path}, line {reader.line_num}: bad record ({exc})"
                    ) from exc
        except UnicodeDecodeError as exc:
            raise OscboundError(f"{path}: not UTF-8 text: {exc}") from exc
    return records


_FLOAT_FIELDS = {f.name for f in fields(StabilityRecord) if f.type == "float"}


def _parse_record(row: dict[str, str]) -> StabilityRecord:
    _, columns = _RECORDS
    return StabilityRecord(**{
        attr: float(row[column]) if attr in _FLOAT_FIELDS else row[column]
        for column, attr in columns.items()})


def _cmd_report(config: RunConfig) -> int:
    sources = [("sbt_records.csv", check_sbt_profile),
               ("serrin_records.csv", check_serrin_profile)]
    rows: list[tuple[tuple, object]] = []
    all_passed = True
    for filename, checker in sources:
        path = os.path.join(config.out, filename)
        if not os.path.exists(path):
            continue
        verdict = checker(_read_records_csv(path))
        rows.append(((filename,), verdict))
        _print_verdict(verdict)
        all_passed = all_passed and verdict.passed
    if not rows:
        raise ConfigError(
            f"no record CSVs found under {config.out!r}; run sbt-run or "
            f"serrin-run first")
    path = _out_path(config, "report.csv")
    _write_csv(path, _REPORT, rows)
    print(f"wrote {len(rows)} rows -> {path}")
    return EXIT_PASS if all_passed else EXIT_FAIL


def execute(config: RunConfig) -> int:
    """Dispatch one validated config; returns the process exit code."""
    if config.command == "constants":
        return _cmd_constants(config)
    if config.command == "cone-verify":
        return _cmd_cone_verify(config)
    if config.command == "domain-verify":
        return _cmd_domain_verify(config)
    if config.command == "sbt-run":
        return _cmd_stability(config, "sbt")
    if config.command == "serrin-run":
        return _cmd_stability(config, "serrin")
    if config.command == "report":
        return _cmd_report(config)
    raise ConfigError(f"unknown command {config.command!r}")


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscbound",
        description="constructive oscillation bounds and torsion-function "
                    "stability experiments",
        epilog=_CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = {
        "constants": "print the closed-form constant table as CSV",
        "cone-verify": "sweep the analytic cone inequalities",
        "domain-verify": "run the integral-identity battery on a family",
        "sbt-run": "measure the planar soap-bubble stability profile",
        "serrin-run": "measure the planar overdetermined-torsion profile",
        "report": "re-fit slopes from previously written record CSVs",
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text, epilog=_CONFIG_HELP,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
        cmd.add_argument("--config", metavar="PATH",
                         help="key=value config file")
        cmd.add_argument("--out", metavar="DIR",
                         help="output directory (default .)")
        # each flag only where it is read; the config keys stay shared
        if name == "constants":
            cmd.add_argument("--N", type=int, dest="N", metavar="DIM",
                             help="dimension of the constant table")
        elif name == "domain-verify":
            cmd.add_argument("--dump-fields", action="store_true",
                             default=None,
                             help="dump solved u as x,y,value CSV")
        elif name in ("sbt-run", "serrin-run"):
            cmd.add_argument("--jobs", type=int, metavar="K",
                             help="worker processes; 0 = available "
                                  "parallelism")
    return parser


def main(argv: list[str] | None = None) -> int:
    flags = vars(_build_parser().parse_args(argv))
    command, config_path = flags.pop("command"), flags.pop("config")
    try:
        config = parse_config(command, config_path=config_path, **flags)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return execute(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OscboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFRA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INFRA
    except Exception as exc:  # the exit-code contract covers every failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INFRA


if __name__ == "__main__":
    sys.exit(main())
