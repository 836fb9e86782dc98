"""Command-line contract tests: config grammar, CSV schemas, exit codes.

The heavy numerical paths run on deliberately coarse grids; the physics is
covered elsewhere.  What is pinned here is the *interface*: key=value
parsing, flag precedence, column layouts, the 0/1/2/3 exit-code mapping,
and byte-identical reruns.
"""
from __future__ import annotations

import os
import subprocess
import sys

import pytest

import oscbound
from oscbound import stability
from oscbound.cli import RunConfig, constants_table, main, parse_config
from oscbound.constants import INF
from oscbound.errors import ConfigError

RECORD_HEADER = ("family,k,eps,curvature_flatness,radius_gap,gauss_deviation,"
                 "trace_flatness,hess_norm,weighted_hess_norm,"
                 "residual_divergence,residual_fundamental,residual_mp,"
                 "h,status,detail")

TEST_EPS = "0.05,0.1,0.15,0.2"


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
        assert cfg.p == 6.0 and cfg.q == INF and cfg.alpha == 0.5
        assert cfg.N == 2 and cfg.jobs == 0 and cfg.out == "."
        assert cfg.dump_fields is False
        assert cfg.calibration_k == 1.0

    def test_every_key_round_trips(self, tmp_path):
        cfg_path = write_cfg(tmp_path, """
            # full configuration exercise
            family = cosine
            eps = 0.1, 0.2   # trailing comment
            k = 3
            normalize_area = true
            grid.h = 0.03125
            grid.refinements = 1
            p = 4
            q = inf
            alpha = 0.25
            N = 3
            jobs = 2
            out = somewhere
            dump_fields = yes
            calibration_k = 2.5
        """)
        cfg = parse_config("sbt-run", cfg_path)
        assert cfg.family == "cosine"
        assert cfg.eps == (0.1, 0.2)
        assert cfg.k == 3
        assert cfg.normalize_area is True
        assert cfg.grid_h == 0.03125
        assert cfg.grid_refinements == 1
        assert cfg.p == 4.0 and cfg.q == INF and cfg.alpha == 0.25
        assert cfg.N == 3 and cfg.jobs == 2
        assert cfg.out == "somewhere" and cfg.dump_fields is True
        assert cfg.calibration_k == 2.5

    def test_flags_override_file(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "out = from_file\njobs = 7\n")
        cfg = parse_config("constants", cfg_path, out="from_flag", jobs=None)
        assert cfg.out == "from_flag"          # flag wins
        assert cfg.jobs == 7                   # None flag defers to file

    def test_effective_jobs(self):
        assert parse_config("constants").effective_jobs >= 1
        assert RunConfig(command="x", jobs=3).effective_jobs == 3

    @pytest.mark.parametrize("line", [
        "familyy = ellipse",          # unknown key
        "family = square",            # unknown family
        "eps = ",                     # empty list
        "eps = abc",                  # not a number
        "eps = 0.2, 0.1",             # not ascending
        "eps = -0.1, 0.2",            # not positive
        "eps = nan",                  # NaN rejected
        "k = 0",                      # below 1
        "k = 2.5",                    # not an integer
        "normalize_area = maybe",     # not a boolean
        "grid.h = 0",                 # not positive
        "grid.refinements = -1",      # negative
        "p = 0.5",                    # below 1
        "q = -3",                     # not positive
        "alpha = 1.5",                # outside [0, 1]
        "N = 1",                      # below 2
        "jobs = -2",                  # negative
        "calibration_k = 0",          # not positive
        "just a line",                # no key=value shape
    ])
    def test_rejects_bad_lines(self, tmp_path, line):
        cfg_path = write_cfg(tmp_path, line + "\n")
        with pytest.raises(ConfigError):
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

    def test_crashed_worker_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(stability, "_run_one", _die)
        cfg = write_cfg(tmp_path, "family=cosine\neps=0.1,0.2\n")
        assert main(["serrin-run", "--config", cfg, "--jobs", "2",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: a worker process died while running "
                                 "the cosine_perturbation family")

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
        for key in ("family", "eps", "grid.h", "grid.refinements", "jobs",
                    "out", "dump_fields", "calibration_k"):
            assert key in text

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
