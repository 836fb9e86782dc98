"""Configuration-driven command line for the verification pipelines.

Subcommands map one-to-one onto the package layers: the constant table, the
analytic cone sweep, the identity battery on one domain family, the two
stability profiles, and a re-fit of previously written record CSVs.  Each
command-line concept is declared once, in one table that the rest of the
module reads:

* ``_COMMANDS``: each subcommand's handler, the config key of its one flag
  besides ``--config`` and ``--out``, the check of its config that runs
  before any computation, and its help line.  The parser, the dispatch of
  :func:`execute` and the config checks loop over it.
* ``_KEYS``: each config key's parser, meaning and range.  The key sets the
  :class:`RunConfig` field of its name with ``.`` read as ``_``, whose
  default is the key's default.  Every value is config text read by its
  key's parser, whether it comes from a file line, a flag or a
  :func:`parse_config` keyword; every subcommand checks every range, and
  ``--help`` lists each key with its range and default.
* ``_FAMILIES``: each config family name's :class:`FamilySpec` kind.

Configuration is a plain ``key=value`` file (one pair per line, ``#``
comments); command-line flags override file values.  Exit codes are a
contract: 0 all asserted checks passed, 1 an asserted check failed, 2 the
configuration was rejected, 3 an infrastructure error (solver failure,
unreadable input, grid too coarse) stopped the run.  Identical
configurations produce byte-identical CSV outputs.

A process that the command line starts (``python -m oscbound.cli``, the
``oscbound`` script and their pool workers) runs BLAS on one thread: this
module sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads.  Nothing is lost,
because the parallelism is the ``jobs`` process pool and no oscbound path
makes a BLAS call large enough to thread, while each idle OpenBLAS pool
(numpy's and scipy's) would otherwise spin a helper thread at start-up.  A
caller who sets ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` keeps that setting, and a program that loaded numpy
before importing this module keeps its environment as it is.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple

# before numpy loads, or OpenBLAS has already sized its thread pools
if "numpy" not in sys.modules and not any(
        name in os.environ
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
from .cones import check_dimension, run_cone_sweep
from .errors import ConfigError, OscboundError
from .identities import (
    BATTERY_ALPHA,
    BATTERY_P,
    BATTERY_Q,
    build_pipeline_data,
    check_battery_exponents,
    run_domain_checks,
)
from .stability import (
    FLOAT_FIELDS,
    MIN_FIT_POINTS,
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

# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description; one instance drives one command."""

    command: str = ""
    family: str = "ellipse"
    eps: tuple[float, ...] = FamilySpec.eps
    k: int = FamilySpec.k
    normalize_area: bool = FamilySpec.normalize_area
    grid_h: float = FamilySpec.spacing
    grid_refinements: int = 0
    p: float = BATTERY_P
    q: float = BATTERY_Q
    alpha: float = BATTERY_ALPHA
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


# the config name of each family -> its FamilySpec kind
_FAMILIES = {"ellipse": "ellipse", "cosine": "cosine_perturbation"}


def _parse_family(text: str) -> str:
    low = text.strip().lower()
    if low not in _FAMILIES:
        raise ConfigError(
            f"family must be {' or '.join(_FAMILIES)}, got {text!r}")
    return low


def _within(value: float, interval: str) -> bool:
    """Whether ``value`` lies in ``interval``, written ``[low, high]`` with
    ``(`` for an open lower end and ``)`` for an open upper end."""
    low, high = map(float, interval[1:-1].split(","))
    above = low < value if interval[0] == "(" else low <= value
    return above and (value < high if interval[-1] == ")" else value <= high)


class _Key(NamedTuple):
    """One config key, which sets the RunConfig attribute of its name with
    "." read as "_": the parser of its text, what it sets (the help of the
    key and of its flag), and the interval that every command checks its
    value against ("" for none)."""

    parse: Callable[[str], object]
    help: str
    range: str = ""


_KEYS = {
    "family": _Key(_parse_family, " | ".join(_FAMILIES)),
    "eps": _Key(_parse_eps, "comma-separated positive ascending list; a "
                f"family fit needs at least {MIN_FIT_POINTS} values"),
    "k": _Key(_parse_int, "cosine mode number", "[1, inf]"),
    "normalize_area": _Key(_parse_bool, "rescale cosine members to area pi"),
    "grid.h": _Key(_parse_float, "solver grid spacing", "(0, inf)"),
    "grid.refinements": _Key(_parse_int, "grid halvings of the refinement "
                             "ladder", "[0, inf]"),
    "p": _Key(_parse_float, "lower exponent of the oscillation chain",
              "[1, inf]"),
    "q": _Key(_parse_float, "upper exponent of the oscillation chain",
              "(0, inf]"),
    "alpha": _Key(_parse_float, "weight exponent of the weighted Poincare "
                  "ratio", "[0, 1]"),
    "N": _Key(_parse_int, "dimension of the constants and the cone sweep",
              "[2, inf]"),
    "jobs": _Key(_parse_int, "worker processes; 0 = the CPUs this process "
                 "may run on", "[0, inf]"),
    "out": _Key(str, "output directory"),
    "dump_fields": _Key(_parse_bool, "dump each solved u as x,y,value CSV"),
}


def _read_config_file(path: str) -> Iterator[tuple[str, str, str]]:
    """Each ``key=value`` line of ``path`` as ``(path:line, key, text)``,
    one at a time, so an error names the first bad line."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{number}: expected key=value, got {line!r}")
        key, _, text = (part.strip() for part in line.partition("="))
        yield f"{path}:{number}", key, text


def _family_spec(config: RunConfig) -> FamilySpec:
    return FamilySpec(kind=_FAMILIES[config.family],
                      eps=config.eps, k=config.k, spacing=config.grid_h,
                      normalize_area=config.normalize_area)


def _validate(config: RunConfig) -> RunConfig:
    # every command checks each key's range; the command's own check (its
    # family, or N for the library) follows.  FamilySpec checks eps; a list
    # it takes may still be too short for the family fit.
    for name, key in _KEYS.items():
        value = getattr(config, name.replace(".", "_"))
        if key.range and not _within(value, key.range):
            raise ConfigError(f"{name} must be in {key.range}, got {value!r}")
    try:
        _command(config.command).check(config)
    except OscboundError as exc:
        raise ConfigError(str(exc)) from None
    return config


def parse_config(command: str, config_path: str | None = None,
                 **flag_overrides) -> RunConfig:
    """Assemble and validate one :class:`RunConfig`.

    Precedence: built-in defaults, then the config file, then the non-None
    ``flag_overrides``, each named by its :class:`RunConfig` field.  An
    override is written as config text (``True`` as ``true``, a tuple as a
    comma-separated list) and read by its key's parser, as a file line is,
    so a call accepts only what a config file would.  Any unknown key,
    malformed value, or invariant violation raises :class:`ConfigError`
    before any computation starts.
    """
    keys = {name.replace(".", "_"): name for name in _KEYS}
    overrides = [("override", keys.get(attr, attr), _config_text(value))
                 for attr, value in flag_overrides.items() if value is not None]
    files = _read_config_file(config_path) if config_path is not None else ()
    values: dict[str, object] = {}
    for where, key, text in chain(files, overrides):
        if key not in _KEYS:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        try:
            values[key.replace(".", "_")] = _KEYS[key].parse(text)
        except ConfigError as exc:
            raise ConfigError(f"{where}: key {key}: {exc}") from None
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
            dump = _dump_field(config, f"{config.family}_eps{eps!r}", data)
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
    levels = []
    for level in range(config.grid_refinements + 1):
        records = run_family(replace(spec, spacing=spec.spacing / 2.0**level),
                             jobs=config.effective_jobs)
        if not level:
            path = _out_path(config, f"{profile}_records.csv")
            _write_csv(path, _RECORDS,
                       [((config.family, config.k), r) for r in records])
            print(f"wrote {len(records)} rows -> {path}")
        broken = [r for r in records if r.status != "ok"]
        for record in broken:
            print(f"  ERROR eps={record.eps:g} h={record.h:g}: "
                  f"{record.detail}", file=sys.stderr)
        if broken:
            return EXIT_INFRA
        levels.append(records)
    checker = check_sbt_profile if profile == "sbt" else check_serrin_profile
    verdict = checker(levels[0])
    _print_verdict(verdict)
    monotone = verify_monotone_deviations(levels[0])
    bad_monotone = [m for m in monotone if m.status != "pass"]
    for report in bad_monotone:
        print(f"  FAIL {report.name}: worst step {report.lhs:.3e}")
    ladder = verify_refinement(levels) if config.grid_refinements else []
    bad_ladder = [l for l in ladder if l.status != "pass"]
    for report in bad_ladder:
        print(f"  FAIL {report.name}: change {report.lhs:.3e} "
              f"exceeds {report.rhs:.3e}")
    failed = not verdict.passed or bad_monotone or bad_ladder
    return EXIT_FAIL if failed else EXIT_PASS


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


def _parse_record(row: dict[str, str]) -> StabilityRecord:
    _, columns = _RECORDS
    return StabilityRecord(**{
        attr: float(row[column]) if attr in FLOAT_FIELDS else row[column]
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
        fits = [name for name, command in _COMMANDS.items()
                if command.check is _check_fit]
        raise ConfigError(f"no record CSVs found under {config.out!r}; run "
                          f"{' or '.join(fits)} first")
    path = _out_path(config, "report.csv")
    _write_csv(path, _REPORT, rows)
    print(f"wrote {len(rows)} rows -> {path}")
    return EXIT_PASS if all_passed else EXIT_FAIL


def _check_battery(config: RunConfig) -> None:
    _family_spec(config)
    check_battery_exponents(config.p, config.q, config.alpha)


def _check_fit(config: RunConfig) -> None:
    _family_spec(config)
    if len(config.eps) < MIN_FIT_POINTS:
        raise ConfigError(
            f"{config.command} fits across the family and needs at least "
            f"{MIN_FIT_POINTS} eps values, got {len(config.eps)}")


class _Command(NamedTuple):
    """One subcommand: its handler, the config key of the one flag it takes
    besides --config and --out ("" for none), the check of its config that
    runs before any computation, and its help line."""

    run: Callable[[RunConfig], int]
    flag: str
    check: Callable[[RunConfig], object]
    help: str


_COMMANDS = {
    "constants": _Command(_cmd_constants, "N", lambda c: unit_ball_volume(c.N),
                          "print the closed-form constant table as CSV"),
    "cone-verify": _Command(_cmd_cone_verify, "",
                            lambda c: check_dimension(c.N),
                            "sweep the analytic cone inequalities"),
    "domain-verify": _Command(_cmd_domain_verify, "dump_fields", _check_battery,
                              "run the integral-identity battery on a family"),
    "sbt-run": _Command(partial(_cmd_stability, profile="sbt"), "jobs",
                        _check_fit, "measure the planar soap-bubble stability "
                        "profile"),
    "serrin-run": _Command(partial(_cmd_stability, profile="serrin"), "jobs",
                           _check_fit, "measure the planar "
                           "overdetermined-torsion profile"),
    "report": _Command(_cmd_report, "", lambda c: None,
                       "re-fit slopes from previously written record CSVs"),
}


def _command(name: str) -> _Command:
    if name not in _COMMANDS:
        raise ConfigError(f"unknown command {name!r}")
    return _COMMANDS[name]


def execute(config: RunConfig) -> int:
    """Dispatch one validated config; returns the process exit code."""
    return _command(config.command).run(config)


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _config_text(value: object) -> str:
    """A value as a config file writes it."""
    if isinstance(value, tuple):
        return ",".join(map(_config_text, value))
    if isinstance(value, bool):
        return str(value).lower()
    return _fmt(value) if isinstance(value, float) else str(value)


def _config_help() -> str:
    """Each config key with what it sets, its range and its default."""
    lines = ["config file keys (key=value, one per line, # comments):"]
    for name, key in _KEYS.items():
        limits = f"in {key.range}; " if key.range else ""
        default = _config_text(getattr(RunConfig, name.replace(".", "_")))
        lines += [f"  {name:<18}{key.help}", f"{'':20}{limits}default {default}"]
    return "\n".join(lines) + "\n"


_CONFIG_HELP = _config_help()


def _build_parser() -> argparse.ArgumentParser:
    layout = {"epilog": _CONFIG_HELP,
              "formatter_class": argparse.RawDescriptionHelpFormatter}
    parser = argparse.ArgumentParser(
        prog="oscbound",
        description="constructive oscillation bounds and torsion-function "
                    "stability experiments", **layout)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help, **layout)
        cmd.add_argument("--config", metavar="PATH",
                         help="key=value config file")
        # --out everywhere, each other flag only where it is read
        for key in filter(None, ("out", command.flag)):
            # every flag value is config text for parse_config to read
            kind = ({"action": "store_true", "default": None}
                    if isinstance(getattr(RunConfig, key), bool) else {})
            cmd.add_argument("--" + key.replace("_", "-"), dest=key,
                             help=_KEYS[key].help, **kind)
    return parser


def main(argv: list[str] | None = None) -> int:
    flags = vars(_build_parser().parse_args(argv))
    command, config_path = flags.pop("command"), flags.pop("config")
    try:
        return execute(parse_config(command, config_path=config_path, **flags))
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
