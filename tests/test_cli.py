"""Command-line contract tests: config grammar, CSV schemas, exit codes.

The heavy numerical paths run on deliberately coarse grids; the physics is
covered elsewhere.  What is pinned here is the *interface*: key=value
parsing, flag precedence, column layouts, the 0/1/2/3 exit-code mapping,
and byte-identical reruns.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import inspect
import io
import os
import subprocess
import sys
import tempfile
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oscbound
from oscbound import cli, constants, stability
from oscbound.cli import RunConfig, constants_table, main, parse_config
from oscbound.cones import ConeCheck
from oscbound.constants import INF, ConstantReport
from oscbound.errors import GeometryError
from oscbound.identities import IdentityReport
from oscbound.stability import FitResult, ProfileVerdict, StabilityRecord
from oscbound.errors import ConfigError

RECORD_HEADER = ("family,k,eps,curvature_flatness,radius_gap,gauss_deviation,"
                 "trace_flatness,hess_norm,weighted_hess_norm,"
                 "residual_divergence,residual_fundamental,residual_mp,"
                 "h,status,detail")

# a records CSV whose second line is not UTF-8
NON_UTF8_RECORDS = b"family,k,eps\n\xff\xfe,2,0.1\n"

TEST_EPS = "0.05,0.1,0.15,0.2"
# the ellipse family of the shared stability run, with one ladder halving
LADDER_CFG = f"family=ellipse\neps={TEST_EPS}\ngrid.h=0.03125\n" \
             "grid.refinements=1\n"


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_lines(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


def _die(spec, eps):
    """Stands in for a family member whose worker process dies outright."""
    os._exit(1)


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------

class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("constants")
        assert cfg.command == "constants"
        assert cfg.family == "ellipse"
        assert cfg.eps == (0.02, 0.04, 0.07, 0.1, 0.14, 0.2)
        assert cfg.k == 2
        assert cfg.normalize_area is False
        assert cfg.grid_h == pytest.approx(1.0 / 64.0)
        assert cfg.grid_refinements == 0
        assert cfg.N == 2 and cfg.jobs == 0 and cfg.out == "."
        assert cfg.dump_fields is False

    def test_every_key_round_trips(self, tmp_path):
        cfg_path = write_cfg(tmp_path, """
            # full configuration exercise
            family = cosine
            eps = 0.1, 0.2, 0.3, 0.4   # trailing comment
            k = 3
            normalize_area = true
            grid.h = 0.03125
            grid.refinements = 1
            N = 3
            jobs = 2
            out = somewhere
            dump_fields = yes
        """)
        cfg = parse_config("sbt-run", cfg_path)
        assert cfg.family == "cosine"
        assert cfg.eps == (0.1, 0.2, 0.3, 0.4)
        assert cfg.k == 3
        assert cfg.normalize_area is True
        assert cfg.grid_h == 0.03125
        assert cfg.grid_refinements == 1
        assert cfg.N == 3 and cfg.jobs == 2
        assert cfg.out == "somewhere" and cfg.dump_fields is True

    def test_flags_override_file(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "out = from_file\njobs = 7\n")
        cfg = parse_config("constants", cfg_path, out="from_flag", jobs=None)
        assert cfg.out == "from_flag"          # flag wins
        assert cfg.jobs == 7                   # None flag defers to file

    def test_effective_jobs(self):
        assert parse_config("constants").effective_jobs >= 1
        assert RunConfig(command="x", jobs=3).effective_jobs == 3

    def test_effective_jobs_counts_the_cpus_this_process_may_use(
            self, monkeypatch):
        # pinned to one CPU (taskset, cgroup CPU set): one worker, whatever
        # the host has
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert RunConfig(command="x").effective_jobs == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert RunConfig(command="x").effective_jobs == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert RunConfig(command="x").effective_jobs == 1

    @pytest.mark.parametrize("line", [
        "familyy = ellipse",          # unknown key
        "family = square",            # unknown family
        "eps = ",                     # empty list
        "eps = abc",                  # not a number
        "eps = 0.2, 0.1",             # not ascending
        "eps = -0.1, 0.2",            # not positive
        "eps = nan",                  # NaN rejected
        "eps = 0.1,,0.2",             # empty entry inside
        "eps = 0.1, 0.2,",            # trailing empty entry
        "k = 0",                      # below 1
        "k = 2.5",                    # not an integer
        "normalize_area = maybe",     # not a boolean
        "grid.h = 0",                 # not positive
        "grid.refinements = -1",      # negative
        "p = 0.5",                    # removed key
        "q = -3",                     # removed key
        "alpha = 1.5",                # removed key
        "N = 1",                      # below 2
        "jobs = -2",                  # negative
        "calibration_k = 1",          # removed key
        "just a line",                # no key=value shape
        "grid.h = inf",               # not finite
        "eps = inf",                  # not finite
        "eps = 0.1, inf",             # not finite
        "grid.refinements = 0.5",     # not an integer
    ])
    def test_rejects_bad_lines(self, tmp_path, line):
        # domain-verify does no fit, so a short list is no fault there: each
        # line must be rejected for its own fault
        cfg_path = write_cfg(tmp_path, line + "\n")
        for command in ("sbt-run", "domain-verify"):
            with pytest.raises(ConfigError):
                parse_config(command, cfg_path)

    def test_eps_lists_too_short_to_fit(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "eps = 0.1, 0.2, 0.3\n")
        for command in ("sbt-run", "serrin-run"):
            with pytest.raises(ConfigError, match="needs at least 4 eps "
                                                  "values, got 3"):
                parse_config(command, cfg_path)
        assert parse_config("domain-verify", cfg_path).eps == (0.1, 0.2, 0.3)
        # a list that is both bad and short fails for its own fault
        cfg_path = write_cfg(tmp_path, "eps = 0.2, 0.1\n")
        with pytest.raises(ConfigError, match="strictly ascending"):
            parse_config("sbt-run", cfg_path)

    def test_family_invariants_checked_for_family_commands(self, tmp_path):
        # a cosine amplitude this large pinches the boundary through zero
        cfg_path = write_cfg(tmp_path, "family = cosine\neps = 0.5, 1.5\n")
        with pytest.raises(ConfigError):
            parse_config("domain-verify", cfg_path)
        # ... but the constants table never builds domains, so it is fine
        assert parse_config("constants", cfg_path).eps == (0.5, 1.5)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config("constants", str(tmp_path / "absent.cfg"))

    def test_unknown_flag_override(self):
        with pytest.raises(ConfigError):
            parse_config("constants", None, not_a_field=3)

    # keywords are read as config text by the key's parser, as file lines are
    def test_keyword_boolean_is_parsed(self):
        assert parse_config("domain-verify", dump_fields="no").dump_fields \
            is False

    def test_keyword_fractional_jobs_rejected(self):
        with pytest.raises(ConfigError, match="key jobs: expected an integer"):
            parse_config("sbt-run", jobs=1.5)

    def test_keyword_integer_text_is_parsed(self):
        assert parse_config("constants", N="3").N == 3

    def test_keyword_values_round_trip(self):
        values = dict(family="cosine", eps=(0.1, 0.2, 0.3, 0.4), k=3,
                      normalize_area=True, grid_h=1 / 3, grid_refinements=1,
                      N=3, jobs=2, out="somewhere", dump_fields=True)
        assert parse_config("sbt-run", **values) == RunConfig(
            command="sbt-run", **values)

    @pytest.mark.parametrize("override", [
        {"dump_fields": "maybe"}, {"N": 2.0}, {"k": True}, {"eps": ()},
        {"eps": {"a": "b"}}, {"p": "nan"}, {"family": 3}, {"grid_h": 0}],
        ids=["bad bool", "float N", "bool k", "empty eps", "dict eps", "nan p",
             "int family", "zero grid_h"])
    def test_bad_keywords_raise_config_error(self, override):
        # a keyword takes only what a config file would take
        with pytest.raises(ConfigError):
            parse_config("domain-verify", **override)


# --------------------------------------------------------------------------
# constants subcommand
# --------------------------------------------------------------------------

class TestConstantsCommand:
    def test_table_and_csv(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main(["constants", "--N", "2", "--out", out]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "name,value,inputs,provenance"
        lines = read_lines(os.path.join(out, "constants.csv"))
        assert lines[0] == "name,value,inputs,provenance"
        assert len(lines) - 1 >= 10
        # printed table mirrors the file
        assert printed[1:len(lines)] == lines[1:]
        import math
        ball = next(l for l in lines if l.startswith("unit_ball_volume,"))
        assert float(ball.split(",")[1]) == pytest.approx(math.pi, rel=1e-14)

    def test_profile_rows_only_in_high_dimension(self):
        names2 = [r.name for r in constants_table(2)]
        names5 = [r.name for r in constants_table(5)]
        assert "serrin_profile_exponent" not in names2
        assert "psi_profile" not in names2
        assert names5.count("serrin_profile_exponent") == 2
        assert "psi_profile" in names5

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_row_inputs_are_parameters_of_the_named_function(self, N):
        for report in constants_table(N):
            params = inspect.signature(getattr(constants, report.name)).parameters
            assert set(report.inputs) <= set(params), report.name


# --------------------------------------------------------------------------
# cone-verify subcommand
# --------------------------------------------------------------------------

class TestConeVerifyCommand:
    def test_sweep_csv_and_exit(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main(["cone-verify", "--out", out]) == 0
        lines = read_lines(os.path.join(out, "cone_checks.csv"))
        assert lines[0] == "field,theta,a,p,q,check,lhs,rhs,margin"
        assert len(lines) > 1000
        cells = [line.split(",") for line in lines[1:]]
        assert all(len(c) == 9 for c in cells)
        # pointwise rows leave p/q empty; exponent rows fill them
        assert any(c[3] == "" and c[4] == "" for c in cells)
        assert any(c[3] != "" for c in cells)
        assert "violations beyond slack: 0" in capsys.readouterr().out


class TestNumericCells:
    """Every numeric cell is a plain float literal, numpy scalars included."""

    def test_constants_n3(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["constants", "--N", "3", "--out", out]) == 0
        lines = read_lines(os.path.join(out, "constants.csv"))
        for line in lines[1:]:
            float(line.split(",")[1])

    def test_cone_verify_n3(self, tmp_path):
        cfg = write_cfg(tmp_path, "N = 3\n")
        out = str(tmp_path / "o")
        assert main(["cone-verify", "--config", cfg, "--out", out]) == 0
        lines = read_lines(os.path.join(out, "cone_checks.csv"))
        assert len(lines) > 1000
        for line in lines[1:]:
            cells = line.split(",")
            for column in (1, 2, 3, 4, 6, 7, 8):
                if column in (3, 4) and cells[column] == "":
                    continue  # pointwise rows leave p/q empty
                float(cells[column])


# --------------------------------------------------------------------------
# CSV schemas
# --------------------------------------------------------------------------

FIT = FitResult(slope=1.0, intercept=0.5, r_squared=0.99, n_points=6)


@pytest.mark.parametrize("schema, context, obj", [
    (cli._CONSTANTS, (), ConstantReport("euler_beta", 1.5, {"x": 1.0},
                                        "gamma-ratio")),
    (cli._CONES, (), ConeCheck("f", 0.5, 1.0, "pointwise", 0.1, 0.2)),
    (cli._DOMAIN_CHECKS, ("ellipse", 0.2),
     IdentityReport.monitored("hopf", 1.0, 2.0)),
    (cli._RECORDS, ("ellipse", 2),
     StabilityRecord(0.1, *[0.5] * 9, h=0.03125)),
    (cli._REPORT, ("sbt_records.csv",),
     ProfileVerdict("sbt", FIT, FIT, c_emp=2.0, passed=True)),
], ids=["constants", "cones", "domain_checks", "records", "report"])
def test_writer_header_is_its_schema(tmp_path, schema, context, obj):
    # a renamed field fails here, not in a run
    context_columns, columns = schema
    assert len(context) == len(context_columns)
    cells = [cli._fmt(attrgetter(attr)(obj)) for attr in columns.values()]
    text = cli._write_csv(str(tmp_path / "t.csv"), schema, [(context, obj)])
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == text
    header, row = text.splitlines()
    assert header == ",".join([*context_columns, *columns])
    assert row == ",".join([*map(cli._fmt, context), *cells])


def _fmt_reference(value):
    """The cell formatter as an isinstance chain, the golden reference."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, dict):
        return ";".join(f"{key}={cell:g}" for key, cell in sorted(value.items()))
    return str(value)


class _Half(float):
    def __repr__(self):
        return "half"


# id -> cell; each id is written out, so deleting a case renames no other
_CELLS = {
    "0.1_0": 0.1, "1e-300": 1e-300, "-2.5e+17": -2.5e17, "-0.0_0": -0.0,
    "0.0": 0.0, "nan0": float("nan"), "inf": INF, "-inf0": -INF,
    "0.1_1": np.float64(0.1), "-0.0_1": np.float64(-0.0),
    "nan1": np.float64("nan"), "-inf1": np.float64(-INF),
    "value12": np.float32(0.1), "value13": np.float16(1.5),
    "half": _Half(0.5), "0": 0, "7": 7, "-3": -3,
    "100000000000000000000": 10**20, "value19": np.int64(5), "True": True,
    "False": False, "None": None, "": "", "pointwise": "pointwise",
    'a "b", c': 'a "b", c', "value26": {"x": 1.0, "N": 3}, "value27": {},
    "value28": (1, 2),
}


@pytest.mark.parametrize("value", list(_CELLS.values()), ids=list(_CELLS))
def test_cell_formatting_matches_the_isinstance_chain(value):
    assert cli._fmt(value) == _fmt_reference(value)


def test_record_detail_with_comma_and_quote_round_trips(tmp_path):
    # the writer quotes such a cell, so report reads the whole message back
    nan = float("nan")
    record = StabilityRecord(0.1, *[nan] * 9, h=1.5, status="error",
                             detail='grid too coarse: h=1.5, need "h < 0.2"')
    path = str(tmp_path / "sbt_records.csv")
    text = cli._write_csv(path, cli._RECORDS, [(("ellipse", 2), record)])
    assert text.splitlines()[1].endswith(
        ',error,"grid too coarse: h=1.5, need ""h < 0.2"""')
    back, = cli._read_records_csv(path)
    assert back.detail == record.detail
    assert (back.eps, back.h, back.status) == (0.1, 1.5, "error")


# --------------------------------------------------------------------------
# domain-verify subcommand
# --------------------------------------------------------------------------

class TestDomainVerifyCommand:
    def test_checks_csv_dump_and_exit(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path,
                        "family=ellipse\neps=0.2\ngrid.h=0.0625\n"
                        "dump_fields=true\n")
        out = str(tmp_path / "o")
        assert main(["domain-verify", "--config", cfg, "--out", out]) == 0
        lines = read_lines(os.path.join(out, "domain_checks.csv"))
        assert lines[0] == "domain,eps,check,lhs,rhs,ratio,residual,status"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 14                      # one battery, one eps
        assert {r[0] for r in rows} == {"ellipse"}
        assert {r[1] for r in rows} == {"0.2"}
        assert rows[0][2] == "divergence"
        assert all(r[7] in ("pass", "monitored") for r in rows)
        # the dumped field: header + interior nodes, u negative inside
        dump = read_lines(os.path.join(out, "u_ellipse_eps0.2.csv"))
        assert dump[0] == "x,y,value"
        values = [float(line.split(",")[2]) for line in dump[1:]]
        assert len(values) > 100
        assert max(values) < 0.0 and min(values) > -1.0

    @pytest.mark.parametrize("text, message", [
        # the battery takes no exponent: each of these keys is unknown
        ("alpha = 0.6\n", "unknown config key 'alpha'"),
        ("alpha = 0\n", "unknown config key 'alpha'"),
        ("p = 2\nq = 2\n", "unknown config key 'p'"),
        ("p = 1.5\nq = 1.8\n", "unknown config key 'p'"),
    ], ids=["alpha-0.6", "alpha-0", "p2-q2", "p1.5-q1.8"])
    def test_exponents_the_battery_cannot_use_exit_2_before_solving(
            self, tmp_path, capsys, monkeypatch, text, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("a member was solved")

        monkeypatch.setattr(cli, "build_pipeline_data", forbidden)
        cfg = write_cfg(tmp_path, "family=cosine\neps=0.1\n" + text)
        out = tmp_path / "o"
        assert main(["domain-verify", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (out / "domain_checks.csv").exists()

    def test_grid_too_coarse_is_infrastructure_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "family=ellipse\neps=0.1\ngrid.h=1.5\n")
        assert main(["domain-verify", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path,
                        "family=cosine\nk=2\neps=0.1\ngrid.h=0.0625\n"
                        "dump_fields=true\n")
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(["domain-verify", "--config", cfg, "--out", out1]) == 0
        assert main(["domain-verify", "--config", cfg, "--out", out2]) == 0
        for name in ("domain_checks.csv", "u_cosine_eps0.1.csv"):
            with open(os.path.join(out1, name), "rb") as f1, \
                    open(os.path.join(out2, name), "rb") as f2:
                assert f1.read() == f2.read()

    def test_members_alike_to_six_digits_dump_two_files(self, tmp_path,
                                                        capsys):
        # both eps print as 0.1 under :g; each still gets its own file
        cfg = write_cfg(tmp_path,
                        "family=ellipse\neps=0.1000001, 0.1000002\n"
                        "grid.h=0.0625\ndump_fields=true\n")
        out = tmp_path / "o"
        assert main(["domain-verify", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(path.name for path in out.glob("u_*.csv")) == [
            "u_ellipse_eps0.1000001.csv", "u_ellipse_eps0.1000002.csv"]
        assert capsys.readouterr().out.count("dumped field -> ") == 2


# --------------------------------------------------------------------------
# stability subcommands and report
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stability_out(tmp_path_factory):
    """One shared sbt-run + serrin-run output directory (the slow part)."""
    tmp = tmp_path_factory.mktemp("stab")
    sbt_cfg = tmp / "sbt.cfg"
    sbt_cfg.write_text(f"family=ellipse\neps={TEST_EPS}\ngrid.h=0.03125\n",
                       encoding="utf-8")
    ser_cfg = tmp / "ser.cfg"
    ser_cfg.write_text(f"family=cosine\nk=2\neps={TEST_EPS}\n"
                       f"grid.h=0.03125\n", encoding="utf-8")
    out = str(tmp / "out")
    codes = (main(["sbt-run", "--config", str(sbt_cfg), "--out", out]),
             main(["serrin-run", "--config", str(ser_cfg), "--out", out]))
    return out, codes


class TestStabilityCommands:
    def test_exit_codes(self, stability_out):
        _, codes = stability_out
        assert codes == (0, 0)

    def test_records_csv_schema(self, stability_out):
        out, _ = stability_out
        for name, family in (("sbt_records.csv", "ellipse"),
                             ("serrin_records.csv", "cosine")):
            lines = read_lines(os.path.join(out, name))
            assert lines[0] == RECORD_HEADER
            rows = [line.split(",") for line in lines[1:]]
            assert len(rows) == 4
            assert {r[0] for r in rows} == {family}
            assert [float(r[2]) for r in rows] == [0.05, 0.1, 0.15, 0.2]
            assert {r[13] for r in rows} == {"ok"}

    def test_report_aggregates(self, stability_out, capsys):
        out, _ = stability_out
        assert main(["report", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "[PASS] sbt:" in printed and "[PASS] serrin:" in printed
        lines = read_lines(os.path.join(out, "report.csv"))
        assert lines[0] == ("source,profile,primary_slope,primary_intercept,"
                            "primary_r2,gauss_slope,gauss_r2,n_points,"
                            "c_emp,passed")
        rows = [line.split(",") for line in lines[1:]]
        assert [r[1] for r in rows] == ["sbt", "serrin"]
        for row in rows:
            assert 0.9 <= float(row[2]) <= 1.1
            assert float(row[4]) >= 0.98
            assert row[9] == "True"

    def test_report_without_inputs_is_config_error(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "nothing")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_report_flags_bad_slope(self, tmp_path, capsys):
        # synthetic records where the gap scales like deviation^2: the
        # fitted slope lands far outside the linear-response window
        out = tmp_path / "bad"
        out.mkdir()
        rows = [RECORD_HEADER]
        for eps in (0.05, 0.1, 0.15, 0.2):
            rows.append(f"ellipse,2,{eps!r},{eps!r},{eps * eps!r},"
                        f"{eps!r},{eps!r},{eps!r},{eps!r},"
                        "0.001,0.0001,1e-05,0.03125,ok,")
        (out / "sbt_records.csv").write_text("\n".join(rows) + "\n",
                                             encoding="utf-8")
        assert main(["report", "--out", str(out)]) == 1
        assert "[FAIL] sbt:" in capsys.readouterr().out

    def test_eps_list_too_short_to_fit_exits_2_before_solving(
            self, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a member was solved")

        monkeypatch.setattr(cli, "run_family", forbidden)
        cfg = write_cfg(tmp_path, "family=ellipse\neps=0.02,0.04,0.07\n"
                                  "grid.h=0.0625\n")
        out = tmp_path / "o"
        assert main(["sbt-run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: sbt-run fits across the family and needs at "
            "least 4 eps values, got 3"]
        assert not (out / "sbt_records.csv").exists()

    def test_crashed_worker_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(stability, "_run_one", _die)
        cfg = write_cfg(tmp_path, "family=cosine\neps=0.1,0.2,0.3,0.4\n")
        assert main(["serrin-run", "--config", cfg, "--jobs", "2",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: a worker process died while running "
                                 "the cosine_perturbation family")

    def test_unexpected_exception_exits_3(self, tmp_path, capsys,
                                          monkeypatch):
        # an exception of no oscbound type still maps to one error line
        def broken_pipeline(*args, **kwargs):
            raise ValueError("pipeline broke")

        monkeypatch.setattr(cli, "run_family", broken_pipeline)
        cfg = write_cfg(tmp_path, "family=cosine\neps=0.1,0.2,0.3,0.4\n")
        assert main(["serrin-run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: ValueError: pipeline broke"]

    @staticmethod
    def _spacings_run(monkeypatch):
        """Wrap ``cli.run_family``; returns the list of spacings it ran."""
        run_family = cli.run_family
        spacings = []

        def spy(spec, jobs):
            spacings.append(spec.spacing)
            return run_family(spec, jobs)

        monkeypatch.setattr(cli, "run_family", spy)
        return spacings

    @staticmethod
    def _fail_member(monkeypatch, eps, below):
        """Make the ellipse member at ``eps`` fail on grids finer than
        ``below``."""
        build = stability.build_pipeline_data
        member = stability.build_family_domain(stability.FamilySpec(), eps)

        def flaky(domain, h):
            if h < below and domain == member:
                raise GeometryError("member lost on this grid")
            return build(domain, h)

        monkeypatch.setattr(stability, "build_pipeline_data", flaky)

    def test_refinement_ladder_runs_every_level_through_run_family(
            self, stability_out, tmp_path, capsys, monkeypatch):
        spacings = self._spacings_run(monkeypatch)
        out = tmp_path / "o"
        assert main(["sbt-run", "--config", write_cfg(tmp_path, LADDER_CFG),
                     "--jobs", "1", "--out", str(out)]) == 0
        assert spacings == [1.0 / 32.0, 1.0 / 64.0]
        printed = capsys.readouterr()
        assert "[PASS] sbt:" in printed.out and "FAIL" not in printed.out
        assert printed.err == ""
        # the records CSV holds the family's own spacing, as without a ladder
        shared, _ = stability_out
        assert (out / "sbt_records.csv").read_bytes() == \
            open(os.path.join(shared, "sbt_records.csv"), "rb").read()

    def test_member_failing_on_a_finer_level_exits_3(self, tmp_path, capsys,
                                                     monkeypatch):
        spacings = self._spacings_run(monkeypatch)
        self._fail_member(monkeypatch, 0.2, below=1.0 / 32.0)
        out = tmp_path / "o"
        assert main(["sbt-run", "--config", write_cfg(tmp_path, LADDER_CFG),
                     "--jobs", "1", "--out", str(out)]) == 3
        assert spacings == [1.0 / 32.0, 1.0 / 64.0]
        assert capsys.readouterr().err.splitlines() == [
            "  ERROR eps=0.2 h=0.015625: GeometryError: member lost on this "
            "grid"]
        rows = read_lines(out / "sbt_records.csv")[1:]
        assert len(rows) == 4 and {r.split(",")[13] for r in rows} == {"ok"}

    def test_member_failing_at_the_family_spacing_exits_3(
            self, tmp_path, capsys, monkeypatch):
        spacings = self._spacings_run(monkeypatch)
        self._fail_member(monkeypatch, 0.1, below=1.0)
        out = tmp_path / "o"
        assert main(["sbt-run", "--config", write_cfg(tmp_path, LADDER_CFG),
                     "--jobs", "1", "--out", str(out)]) == 3
        assert spacings == [1.0 / 32.0]
        assert capsys.readouterr().err.splitlines() == [
            "  ERROR eps=0.1 h=0.03125: GeometryError: member lost on this "
            "grid"]
        rows = [r.split(",") for r in read_lines(out / "sbt_records.csv")[1:]]
        assert [r[13] for r in rows] == ["ok", "error", "ok", "ok"]
        assert rows[1][2] == "0.1" and rows[1][14].startswith("GeometryError")

    @pytest.mark.parametrize("header, cell, message", [
        (RECORD_HEADER.replace(",hess_norm,", ",hess_nrm,"), "0.1",
         "missing column 'hess_norm'"),
        (RECORD_HEADER, "0.1x", "could not convert string to float"),
    ])
    def test_report_malformed_csv_exits_3(self, tmp_path, capsys, header,
                                          cell, message):
        # a renamed column or a corrupted float names the file and line
        out = tmp_path / "corrupt"
        out.mkdir()
        rows = [header]
        for eps in ("0.05", cell):
            rows.append(f"ellipse,2,{eps},{eps},{eps},{eps},{eps},{eps},"
                        f"{eps},0.001,0.0001,1e-05,0.03125,ok,")
        path = out / "sbt_records.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["report", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        line = 2 if "missing" in message else 3
        assert err.startswith(f"error: {path}, line {line}: ")
        assert message in err

    def test_report_non_utf8_csv_names_the_file(self, tmp_path, capsys):
        # an unreadable input is an infrastructure error, and says which
        path = tmp_path / "sbt_records.csv"
        path.write_bytes(NON_UTF8_RECORDS)
        assert main(["report", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text: ")


# --------------------------------------------------------------------------
# argparse surface
# --------------------------------------------------------------------------

class TestArgparseSurface:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_help_documents_config_keys(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["constants", "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        for key in cli._KEYS:
            assert key in text

    def test_help_and_readme_name_only_known_keys(self):
        # a removed key must not linger in --help or the README example
        named = [part for line in cli._CONFIG_HELP.splitlines()
                 if line.startswith("  ") and not line.startswith("   ")
                 for part in line.split("  ")[1].split(", ")]
        assert "family" in named and "dump_fields" in named
        assert set(named) <= set(cli._KEYS)
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as handle:
            example = handle.read().split("```ini\n", 1)[1].split("```", 1)[0]
        keys = [line.split("=")[0].strip() for line in example.splitlines()]
        assert "family" in keys and set(keys) <= set(cli._KEYS)

    @pytest.mark.parametrize("argv", [
        [command, "--dump-fields"]
        for command in ("sbt-run", "serrin-run", "constants", "cone-verify",
                        "report")] + [
        [command, "--jobs", "2"]
        for command in ("constants", "cone-verify", "domain-verify",
                        "report")], ids=" ".join)
    def test_flags_only_on_the_commands_that_read_them(self, tmp_path,
                                                       capsys, argv):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(out)])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_config_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "calibration_k = 1\n")
        out = tmp_path / "o"
        assert main(["domain-verify", "--config", cfg,
                     "--out", str(out)]) == 2
        assert "unknown config key 'calibration_k'" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_exponent_keys_exit_2(self, tmp_path, capsys):
        # the battery runs the chain in every regime, so a file that still
        # sets p, q or alpha, even to its old default, is rejected
        cfg = write_cfg(tmp_path, "p = 6\nq = inf\nalpha = 0.5\n")
        out = tmp_path / "o"
        assert main(["domain-verify", "--config", cfg,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {cfg}:1: unknown config key 'p'"]
        assert not out.exists()
        for key in ("p", "q", "alpha"):
            with pytest.raises(ConfigError, match=f"override: unknown config "
                                                  f"key '{key}'"):
                parse_config("domain-verify", **{key: 1.0})

    @pytest.mark.parametrize("argv, message", [
        (["constants", "--N", "2.5"], "key N: expected an integer, got '2.5'"),
        (["sbt-run", "--jobs", "x"], "key jobs: expected an integer, got 'x'"),
    ], ids=["N", "jobs"])
    def test_malformed_flag_value_is_config_error(self, tmp_path, capsys,
                                                  argv, message):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: override: {message}"]
        assert not out.exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "nonsense = 1\n")
        assert main(["constants", "--config", cfg]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_module_run_writes_nothing_to_stderr(self):
        # the package root must not import cli, or runpy warns on every run
        src = os.path.dirname(os.path.dirname(oscbound.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "oscbound.cli", "--help"],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0
        assert done.stderr == ""


# --------------------------------------------------------------------------
# the library surface
# --------------------------------------------------------------------------

def test_package_import_loads_no_submodule_and_no_scipy():
    # names are imported from their modules, so the package root imports
    # nothing of its own
    src = os.path.dirname(os.path.dirname(oscbound.__file__))
    code = ("import sys, oscbound; print(sorted(m for m in sys.modules "
            "if m.startswith('oscbound.') or m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["cli", "cones", "constants", "identities",
                                    "stability", "stardomain", "torsion"])
def test_every_public_name_resolves(module):
    mod = importlib.import_module(f"oscbound.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


# --------------------------------------------------------------------------
# the BLAS thread default of a command-line process
# --------------------------------------------------------------------------

def fresh_python(code, env):
    """The last line that ``code`` prints in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs the thread list from /proc")
def test_cli_import_starts_no_blas_helper_thread(fresh_env):
    # without the default, numpy's and scipy's OpenBLAS each start a helper
    # thread at import, which spins for about 0.06 s of CPU
    code = ("import os, oscbound.cli; print(len(os.listdir('/proc/self/task')),"
            " os.environ['OPENBLAS_NUM_THREADS'])")
    assert fresh_python(code, fresh_env) == "1 1"


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                  "OMP_NUM_THREADS"])
def test_cli_import_keeps_the_callers_blas_threads(fresh_env, name):
    code = ("import os, oscbound.cli; print(os.environ.get("
            f"'{name}'), os.environ.get('OPENBLAS_NUM_THREADS'))")
    expect = "2 2" if name == "OPENBLAS_NUM_THREADS" else "2 None"
    assert fresh_python(code, dict(fresh_env, **{name: "2"})) == expect


def test_cli_import_after_numpy_leaves_the_environment(fresh_env):
    # numpy has sized its pools already; the host program owns the process
    code = ("import os, numpy, oscbound.cli; "
            "print('OPENBLAS_NUM_THREADS' in os.environ)")
    assert fresh_python(code, fresh_env) == "False"


# --------------------------------------------------------------------------
# exit-code contract under random inputs
# --------------------------------------------------------------------------

def run_main(argv):
    """``main(argv)`` with its output captured: (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


CONFIG_VALUES = st.one_of(
    st.integers(-10, 10**6).map(str),
    st.integers(10**300, 10**400).map(str),
    st.floats().map(repr),
    st.sampled_from(["ellipse", "cosine", "true", "no", "1e400", "-inf",
                     "0.1, 0.05", "2,", ""]),
    st.text(max_size=12),
)
CONFIG_FILES = st.one_of(
    st.lists(st.one_of(
        st.builds("{} = {}".format, st.sampled_from(sorted(cli._KEYS)),
                  CONFIG_VALUES),
        st.text(max_size=30)), max_size=6)
    .map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.binary(max_size=60),
)



def records_file(header, rows, min_size=0):
    return st.tuples(header, st.lists(rows, min_size=min_size, max_size=6)).map(
        lambda f: "\n".join([f[0], *f[1]]).encode("utf-8"))


RECORDS_FILES = st.one_of(
    # plausible measurements, which reach the fits
    records_file(st.just(RECORD_HEADER),
                 st.lists(st.floats(1e-4, 1.0).map(repr), min_size=11,
                          max_size=11).map(
                     lambda c: ",".join(["ellipse", "2", *c, "ok", ""])),
                 min_size=4),
    # the record layout with arbitrary cells, or no layout at all
    records_file(
        st.one_of(st.just(RECORD_HEADER), st.text(max_size=40)),
        st.one_of(
            st.tuples(st.sampled_from(["ellipse", "cosine", ""]),
                      st.lists(st.one_of(st.floats().map(repr),
                                         st.text(max_size=6)),
                               min_size=12, max_size=12),
                      st.sampled_from(["ok", "error", "bad"]),
                      st.text(max_size=6))
            .map(lambda r: ",".join([r[0], *r[1], r[2], r[3]])),
            st.lists(st.text(max_size=8), max_size=16).map(",".join))),
    st.binary(max_size=200),
)


class TestExitCodeContract:
    @pytest.mark.parametrize("argv, text, message", [
        (["cone-verify"], "N = 4\n",
         "cone quadrature supports dimensions 2 and 3, got 4"),
        (["constants", "--N", "400"], "", "Gamma(N/2 + 1) overflows"),
    ], ids=["cone-verify-N4", "constants-N400"])
    def test_unsupported_dimension_is_config_error(self, tmp_path, argv,
                                                   text, message):
        cfg = write_cfg(tmp_path, text)
        code, err = run_main(argv + ["--config", cfg,
                                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert err.startswith("config error: ") and message in err

    @settings(max_examples=150, deadline=None)
    @given(command=st.just("constants"), text=CONFIG_FILES)
    @example(command="cone-verify", text=b"N = 4\n")
    @example(command="constants", text=b"N = 400\n")
    @example(command="constants", text=b"\xff\n")
    def test_config_files(self, command, text):
        # neither command can fail a check, and a config file is never an
        # infrastructure error: every input runs or is rejected
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "run.cfg")
            with open(cfg, "wb") as handle:
                handle.write(text)
            code, err = run_main([command, "--config", cfg,
                                  "--out", os.path.join(tmp, "o")])
        assert code in (0, 2)
        assert "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(sbt=RECORDS_FILES, serrin=st.none() | RECORDS_FILES)
    @example(sbt=NON_UTF8_RECORDS, serrin=None)
    def test_records_csvs(self, sbt, serrin):
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in (("sbt", sbt), ("serrin", serrin)):
                if text is not None:
                    with open(os.path.join(tmp, f"{name}_records.csv"),
                              "wb") as handle:
                        handle.write(text)
            code, err = run_main(["report", "--out", tmp])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err


# --------------------------------------------------------------------------
# the command, key and family tables
# --------------------------------------------------------------------------

def _config_text(value):
    """A default as a config file writes it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(cell) for cell in value)
    return repr(value) if isinstance(value, float) else str(value)


def _help_entries(text):
    """The config-key entries of a --help text: key -> its lines, joined."""
    entries, key = {}, None
    for line in text.split("config file keys", 1)[1].splitlines()[1:]:
        if line.startswith("  ") and not line.startswith("   "):
            key = line.split()[0]
            entries[key] = line
        elif line.startswith("   ") and key is not None:
            entries[key] += " " + line.strip()
    return entries


class TestTables:
    @pytest.mark.parametrize("argv", [["--help"], ["constants", "--help"]],
                             ids=" ".join)
    def test_help_shows_each_key_with_its_range_and_default(self, capsys,
                                                            argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0
        entries = _help_entries(capsys.readouterr().out)
        assert list(entries) == list(cli._KEYS)
        defaults = RunConfig()
        for key, spec in cli._KEYS.items():
            default = getattr(defaults, key.replace(".", "_"))
            text = _config_text(default)
            assert f"default {text}" in entries[key], key
            assert spec.parse(text) == default, key   # config syntax
            if spec.range:
                assert f"in {spec.range}" in entries[key], key

    def test_every_key_sets_one_config_field(self):
        attrs = [key.replace(".", "_") for key in cli._KEYS]
        assert sorted(attrs) == sorted(
            f.name for f in dataclasses.fields(RunConfig) if f.name != "command")

    def test_families_name_family_spec_kinds(self):
        for name, kind in cli._FAMILIES.items():
            spec = cli._family_spec(RunConfig(family=name))
            assert spec.kind == kind
            stability.build_family_domain(spec, 0.1)
        assert " | ".join(cli._FAMILIES) in cli._CONFIG_HELP
        # a keyword family name is read by the family parser, as a file's is
        with pytest.raises(ConfigError, match="family must be ellipse or "
                                              "cosine, got 'square'"):
            parse_config("domain-verify", family="square")

    def test_subcommands_are_the_command_table(self):
        parser = cli._build_parser()
        sub, = [action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)]
        assert list(sub.choices) == list(cli._COMMANDS)
        for name, command in cli._COMMANDS.items():
            flags = {option for action in sub.choices[name]._actions
                     for option in action.option_strings}
            want = {"-h", "--help", "--config", "--out"}
            if command.flag:
                want.add("--" + command.flag.replace("_", "-"))
                assert command.flag in cli._KEYS
            assert flags == want, name

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_each_command_dispatches_to_its_handler(self, tmp_path,
                                                    monkeypatch, name):
        seen = []

        def handler(config):
            seen.append(config)
            return 7

        entry = cli._COMMANDS[name]
        monkeypatch.setitem(cli._COMMANDS, name, entry._replace(run=handler))
        assert main([name, "--out", str(tmp_path)]) == 7
        assert [config.command for config in seen] == [name]
        assert seen[0].out == str(tmp_path)

    def test_execute_rejects_an_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command 'nope'"):
            cli.execute(RunConfig(command="nope"))
        with pytest.raises(ConfigError, match="unknown command 'nope'"):
            parse_config("nope")

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @pytest.mark.parametrize("line, message", [
        ("k = 0", "k must be in [1, inf], got 0"),
        ("grid.refinements = -1", "grid.refinements must be in [0, inf], "
                                  "got -1"),
        # removed keys are unknown to every command, whatever their value
        ("p = 6", "{cfg}:1: unknown config key 'p'"),
        ("q = inf", "{cfg}:1: unknown config key 'q'"),
        ("alpha = 0.5", "{cfg}:1: unknown config key 'alpha'"),
        ("N = 1", "N must be in [2, inf], got 1"),
        ("jobs = -1", "jobs must be in [0, inf], got -1"),
        ("grid.h = 0", "grid.h must be in (0, inf), got 0.0"),
    ], ids=["k", "grid.refinements", "p", "q", "alpha", "N", "jobs", "grid.h"])
    def test_every_command_checks_every_range(self, tmp_path, capsys,
                                              command, line, message):
        cfg = write_cfg(tmp_path, line + "\n")
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {message.format(cfg=cfg)}"]
        assert not out.exists()

    @pytest.mark.parametrize("spelling, value", [
        ("false", False), ("0", False), ("no", False), ("OFF", False),
        ("true", True), ("1", True), ("Yes", True), ("on", True)])
    def test_boolean_spellings(self, tmp_path, spelling, value):
        cfg = write_cfg(tmp_path, f"dump_fields = {spelling}\n"
                                  f"normalize_area = {spelling}\n")
        config = parse_config("domain-verify", cfg)
        assert config.dump_fields is value and config.normalize_area is value


# --------------------------------------------------------------------------
# exit 1 and exit 3 paths of the commands
# --------------------------------------------------------------------------

class TestFailurePaths:
    def test_cone_violation_exits_1(self, tmp_path, capsys, monkeypatch):
        bad = ConeCheck("quad", 0.5, 1.0, "pointwise", lhs=2.0, rhs=1.5)
        good = ConeCheck("quad", 0.5, 1.0, "pointwise", lhs=1.0, rhs=1.5)
        monkeypatch.setattr(cli, "run_cone_sweep", lambda dim: [good, bad])
        assert main(["cone-verify", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().out.splitlines()[1:] == [
            "violations beyond slack: 1",
            "  FAIL quad theta=0.5 a=1 pointwise: margin -5.000e-01"]
        assert len(read_lines(tmp_path / "cone_checks.csv")) == 3

    def test_failed_domain_check_exits_1(self, tmp_path, capsys,
                                         monkeypatch):
        reports = [IdentityReport.inequality("hopf", 2.5, 1.25),
                   IdentityReport.monitored("ratio", 1.0, 2.0)]
        monkeypatch.setattr(cli, "build_pipeline_data", lambda domain, h: None)
        monkeypatch.setattr(cli, "run_domain_checks",
                            lambda data: reports)
        cfg = write_cfg(tmp_path, "family = cosine\neps = 0.1, 0.2\n")
        out = tmp_path / "o"
        assert main(["domain-verify", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "  FAIL cosine eps=0.1 hopf: lhs=2.5 rhs=1.25",
            "  FAIL cosine eps=0.2 hopf: lhs=2.5 rhs=1.25",
            f"wrote 4 rows -> {out / 'domain_checks.csv'}",
            "failed checks: 2"]

    @pytest.mark.parametrize("binding, line", [
        ("verify_monotone_deviations",
         "  FAIL monotone_radius_gap: worst step 1.000e-03"),
        ("verify_refinement",
         "  FAIL refinement_radius_gap: change 5.000e-01 exceeds 1.000e-01"),
    ])
    def test_failed_family_check_exits_1(self, tmp_path, capsys, monkeypatch,
                                         binding, line):
        records = [StabilityRecord(eps, *[eps] * 9, h=0.03125)
                   for eps in (0.05, 0.1, 0.15, 0.2)]
        failing = {
            "verify_monotone_deviations":
                IdentityReport.inequality("monotone_radius_gap", 1e-3, 1e-8),
            "verify_refinement":
                IdentityReport.inequality("refinement_radius_gap", 0.5, 0.1)}
        monkeypatch.setattr(cli, "run_family", lambda spec, jobs: records)
        monkeypatch.setattr(cli, "check_sbt_profile", lambda records:
                            ProfileVerdict("sbt", FIT, FIT, 1.0, True))
        for name, report in failing.items():
            passing = IdentityReport.inequality(report.name, 0.0, 1.0)
            result = report if name == binding else passing
            monkeypatch.setattr(cli, name,
                                lambda *args, result=result: [result])
        cfg = write_cfg(tmp_path, LADDER_CFG)
        out = tmp_path / "o"
        assert main(["sbt-run", "--config", cfg, "--out", str(out)]) == 1
        printed = capsys.readouterr()
        assert printed.out.splitlines()[2:] == [line]
        assert printed.err == ""

    def test_output_path_that_is_a_file_exits_3(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n", encoding="utf-8")
        assert main(["constants", "--out", str(taken)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error: ")
        assert taken.read_text(encoding="utf-8") == "not a directory\n"
