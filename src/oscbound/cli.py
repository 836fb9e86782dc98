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
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .constants import (
    INF,
    ConstantReport,
    ExponentPair,
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
from .cones import run_cone_sweep
from .errors import ConfigError, OscboundError
from .identities import build_pipeline_data, run_domain_checks
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
  jobs              worker processes; 0 = available parallelism
  out               output directory            (default .)
  dump_fields       true | false: dump solved u as x,y,value CSV
  calibration_k     positive multiplier for the monitored weighted ratio
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
    calibration_k: float = 1.0

    @property
    def effective_jobs(self) -> int:
        return self.jobs if self.jobs >= 1 else (os.cpu_count() or 1)


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
    return tuple(_parse_float(part) for part in parts if part)


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
    "calibration_k": ("calibration_k", _parse_float),
}

_FAMILY_COMMANDS = ("domain-verify", "sbt-run", "serrin-run")


def _read_config_file(path: str) -> dict[str, object]:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
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
    if any(e <= 0.0 for e in config.eps):
        raise ConfigError("eps values must be positive")
    if any(b <= a for a, b in zip(config.eps, config.eps[1:])):
        raise ConfigError("eps values must be strictly ascending")
    if config.k < 1:
        raise ConfigError(f"k must be >= 1, got {config.k}")
    if not config.grid_h > 0.0:
        raise ConfigError(f"grid.h must be positive, got {config.grid_h}")
    if config.grid_refinements < 0:
        raise ConfigError("grid.refinements must be >= 0")
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
    if not config.calibration_k > 0.0:
        raise ConfigError("calibration_k must be positive")
    if config.command in _FAMILY_COMMANDS:
        try:
            _family_spec(config)
            if config.command == "domain-verify":
                ExponentPair(p=config.p, q=config.q, N=2)
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

def _fmt(value: object) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list[object]]) -> None:
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(_fmt(cell) for cell in row) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _out_path(config: RunConfig, name: str) -> str:
    os.makedirs(config.out, exist_ok=True)
    return os.path.join(config.out, name)


def _dump_field(config: RunConfig, tag: str, data) -> str:
    grid = data.u.grid
    ii, jj = np.nonzero(grid.inside)
    rows = [[float(grid.xs[j]), float(grid.ys[i]), float(data.u.values[i, j])]
            for i, j in zip(ii.tolist(), jj.tolist())]
    path = _out_path(config, f"u_{tag}.csv")
    _write_csv(path, ["x", "y", "value"], rows)
    return path


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def constants_table(N: int) -> list[ConstantReport]:
    """The closed-form constants at dimension ``N``, one report per row."""
    theta = math.pi / 4.0
    rows = [
        ConstantReport("unit_ball_volume", unit_ball_volume(N),
                       {"N": N}, "closed-form"),
        ConstantReport("unit_sphere_area", unit_sphere_area(N),
                       {"N": N}, "closed-form"),
        ConstantReport("euler_beta", euler_beta(N / 2.0, 0.5),
                       {"x": N / 2.0, "y": 0.5}, "gamma-ratio"),
        ConstantReport("cap_measure", cap_measure(theta, N),
                       {"theta": theta, "N": N}, "closed-form"),
        ConstantReport("morrey_cone_constant", morrey_cone_constant(N + 1.0, N, 1.0),
                       {"p": N + 1.0, "N": N, "a": 1.0}, "closed-form"),
        ConstantReport("morrey_cone_constant", morrey_cone_constant(2.0 * N, N, 1.0),
                       {"p": 2.0 * N, "N": N, "a": 1.0}, "closed-form"),
        ConstantReport("morrey_cone_constant", morrey_cone_constant(INF, N, 1.0),
                       {"p": INF, "N": N, "a": 1.0}, "p->inf limit"),
        ConstantReport("morrey_domain_constant", morrey_domain_constant(INF, N, theta),
                       {"p": INF, "N": N, "theta": theta}, "p->inf limit"),
        ConstantReport("near_field_coefficient", near_field_coefficient(2.0 * N, N),
                       {"q": 2.0 * N, "N": N}, "closed-form"),
        ConstantReport("far_field_coefficient",
                       far_field_coefficient(0.5 * (N + 1.0), N),
                       {"p": 0.5 * (N + 1.0), "N": N}, "closed-form"),
        ConstantReport("gradient_bound_M", gradient_bound_M(N, 2.0, 1.0),
                       {"N": N, "d": 2.0, "r_e": 1.0}, "closed-form"),
        ConstantReport("min_depth_bound",
                       min_depth_bound(N, 1.0, d=2.0, r_e=1.0, mean_convex=True),
                       {"N": N, "r_i": 1.0, "d": 2.0, "r_e": 1.0},
                       "mean-convex branch"),
    ]
    if N >= 4:  # the decay profiles are defined only in high dimensions
        rows.extend([
            ConstantReport("serrin_profile_exponent",
                           serrin_profile_exponent(N, INF),
                           {"N": N, "q": INF}, "q->inf limit"),
            ConstantReport("serrin_profile_exponent",
                           serrin_profile_exponent(N, 2.0 * N),
                           {"N": N, "q": 2.0 * N}, "closed-form"),
            ConstantReport("psi_profile", psi_profile(0.5, N),
                           {"sigma": 0.5, "N": N, "q": INF}, "profile value"),
        ])
    return rows


def _inputs_cell(inputs: dict[str, float]) -> str:
    return ";".join(f"{key}={value:g}" for key, value in sorted(inputs.items()))


def _cmd_constants(config: RunConfig) -> int:
    reports = constants_table(config.N)
    header = ["name", "value", "inputs", "provenance"]
    rows = [[r.name, r.value, _inputs_cell(r.inputs), r.provenance]
            for r in reports]
    path = _out_path(config, "constants.csv")
    _write_csv(path, header, rows)
    print(",".join(header))
    for row in rows:
        print(",".join(_fmt(cell) for cell in row))
    print(f"wrote {len(rows)} rows -> {path}")
    return EXIT_PASS


def _cmd_cone_verify(config: RunConfig) -> int:
    checks = run_cone_sweep(dim=config.N)
    header = ["field", "theta", "a", "p", "q", "check", "lhs", "rhs", "margin"]
    rows = [[c.field, c.theta, c.a,
             "" if c.p is None else c.p, "" if c.q is None else c.q,
             c.check, c.lhs, c.rhs, c.margin] for c in checks]
    path = _out_path(config, "cone_checks.csv")
    _write_csv(path, header, rows)
    violations = [c for c in checks if not c.ok()]
    print(f"wrote {len(rows)} rows -> {path}")
    print(f"violations beyond slack: {len(violations)}")
    for check in violations[:10]:
        print(f"  FAIL {check.field} theta={check.theta:g} a={check.a:g} "
              f"{check.check}: margin {check.margin:.3e}")
    return EXIT_PASS if not violations else EXIT_FAIL


def _cmd_domain_verify(config: RunConfig) -> int:
    spec = _family_spec(config)
    header = ["domain", "eps", "check", "lhs", "rhs", "ratio", "residual",
              "status"]
    rows: list[list[object]] = []
    failed = 0
    for eps in config.eps:
        domain = build_family_domain(spec, eps)
        data = build_pipeline_data(domain, config.grid_h)
        reports = run_domain_checks(data, p=config.p, q=config.q,
                                    alpha=config.alpha,
                                    calibration_k=config.calibration_k)
        for report in reports:
            rows.append([config.family, eps, report.name, report.lhs,
                         report.rhs, report.ratio, report.residual,
                         report.status])
            if report.status == "fail":
                failed += 1
                print(f"  FAIL {config.family} eps={eps:g} {report.name}: "
                      f"lhs={report.lhs:.6g} rhs={report.rhs:.6g}")
        if config.dump_fields:
            dump = _dump_field(config, f"{config.family}_eps{eps:g}", data)
            print(f"dumped field -> {dump}")
    path = _out_path(config, "domain_checks.csv")
    _write_csv(path, header, rows)
    print(f"wrote {len(rows)} rows -> {path}")
    print(f"failed checks: {failed}")
    return EXIT_PASS if failed == 0 else EXIT_FAIL


_RECORD_FIELDS = fields(StabilityRecord)
_RECORD_HEADER = ["family", "k"] + [f.name for f in _RECORD_FIELDS]


def _record_rows(config: RunConfig,
                 records: list[StabilityRecord]) -> list[list[object]]:
    return [[config.family, config.k]
            + [getattr(r, f.name) for f in _RECORD_FIELDS] for r in records]


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
    _write_csv(path, _RECORD_HEADER, _record_rows(config, records))
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
    """Parse a records CSV; a malformed row raises naming its file and line."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        records = []
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
    return records


def _parse_record(row: dict[str, str]) -> StabilityRecord:
    return StabilityRecord(**{
        f.name: float(row[f.name]) if f.type == "float" else row[f.name]
        for f in _RECORD_FIELDS})


def _cmd_report(config: RunConfig) -> int:
    sources = [("sbt", "sbt_records.csv", check_sbt_profile),
               ("serrin", "serrin_records.csv", check_serrin_profile)]
    header = ["source", "profile", "primary_slope", "primary_intercept",
              "primary_r2", "gauss_slope", "gauss_r2", "n_points", "c_emp",
              "passed"]
    rows: list[list[object]] = []
    all_passed = True
    for profile, filename, checker in sources:
        path = os.path.join(config.out, filename)
        if not os.path.exists(path):
            continue
        verdict = checker(_read_records_csv(path))
        rows.append([filename, profile, verdict.primary.slope,
                     verdict.primary.intercept, verdict.primary.r_squared,
                     verdict.gauss.slope, verdict.gauss.r_squared,
                     verdict.primary.n_points, verdict.c_emp,
                     verdict.passed])
        _print_verdict(verdict)
        all_passed = all_passed and verdict.passed
    if not rows:
        raise ConfigError(
            f"no record CSVs found under {config.out!r}; run sbt-run or "
            f"serrin-run first")
    path = _out_path(config, "report.csv")
    _write_csv(path, header, rows)
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
        cmd.add_argument("--jobs", type=int, metavar="K",
                         help="worker processes; 0 = available parallelism")
        cmd.add_argument("--dump-fields", action="store_true", default=None,
                         help="dump solved fields as x,y,value CSV")
        if name == "constants":
            cmd.add_argument("--N", type=int, dest="N", metavar="DIM",
                             help="dimension of the constant table")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(
            args.command,
            config_path=args.config,
            out=args.out,
            jobs=args.jobs,
            dump_fields=args.dump_fields,
            N=getattr(args, "N", None),
        )
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


if __name__ == "__main__":
    sys.exit(main())
