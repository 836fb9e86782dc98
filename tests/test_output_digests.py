"""Smoke tests of ``tools/output_digests.py`` on its fast entries, the
constant tables, whose digests must be those of the files ``main`` writes,
and on its usage error, and of ``tools/output_moves.py`` on two small
hand-made output trees, in process and on the command line."""
from __future__ import annotations

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from oscbound.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_constants_digests_are_those_of_the_written_files(tool, tmp_path):
    runs = [run for run in tool.RUNS if run.argv[0] == "constants"]
    assert [run.name for run in runs] == [
        "constants-N2", "constants-N3", "constants-N5"]
    lines = tool.digest_lines(runs)
    want = []
    for run in runs:
        out = tmp_path / run.name
        assert main([*run.argv, "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "constants.csv").read_bytes())
        want += [f"{run.name} exit 0", f"{run.name} constants.csv "
                                       f"{digest.hexdigest()}"]
    assert [line.split(" stdout ")[0] for line in lines] == want
    # the temporary directory is masked, so a second pass prints the same
    assert tool.digest_lines(runs) == lines


def test_keep_into_an_existing_directory_is_a_usage_error(tmp_path):
    # one error line and exit 2 before any run, not a traceback
    done = subprocess.run([sys.executable, str(TOOL), "--keep", str(tmp_path)],
                          capture_output=True, text=True, check=False)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines()[-1].endswith(
        f"error: --keep: {tmp_path} already exists")
    assert list(tmp_path.iterdir()) == []


def test_kept_directory_holds_each_run_and_its_printed_lines(tool, tmp_path):
    # --keep runs in the directory and leaves exit codes, printed text and
    # outputs there; the digest lines are those of a temporary directory
    runs = [run for run in tool.RUNS if run.argv[0] == "constants"][:2]
    lines = tool.run_in(tmp_path, runs)
    assert lines == tool.digest_lines(runs)
    for k, run in enumerate(runs):
        stdout = (tmp_path / f"{run.name}.stdout").read_bytes()
        assert lines[2 * k].startswith(
            f"{run.name} exit 0 stdout {hashlib.sha256(stdout).hexdigest()} ")
        assert (tmp_path / f"{run.name}.exit").read_text() == "0\n"
        assert (tmp_path / run.name / "constants.csv").is_file()


@pytest.fixture(scope="module")
def moves():
    path = TOOL.with_name("output_moves.py")
    spec = importlib.util.spec_from_file_location("output_moves", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_moves_name_each_moved_cell_and_printed_line(moves, tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for root, code, printed, rows in (
            (old, "0", "ok\nsame\n", ["1.0,0.5,pass", "2.0,nan,pass",
                                      "0.0,1.0,pass"]),
            (new, "1", "ok\nsame\nmore\n", ["1.0,0.25,pass", "2.0,nan,fail",
                                             "1e-3,1.5,pass"])):
        (root / "out").mkdir(parents=True)
        (root / "run.exit").write_text(f"{code}\n")
        (root / "run.stdout").write_text(printed)
        (root / "run.stderr").write_text("")
        (root / "run.cfg").write_text(code)
        (root / "out" / "t.csv").write_text("\n".join(["x,y,status", *rows]))
        (root / "out" / "same.csv").write_text("a\n1\n")
    (new / "out" / "extra.txt").write_text("")
    assert moves.compare(old, new) == [
        "run: exit 0 -> 1",
        "run stdout: +more",
        f"out/extra.txt: only in {new}",
        "out/t.csv x: largest move 0.001 on row 3 (0.0 -> 1e-3), "
        "largest relative move inf on row 3; 1 of 3 cells moved",
        "out/t.csv y: largest move 0.5 on row 3 (1.0 -> 1.5), "
        "largest relative move 0.5 on row 1; 2 of 3 cells moved",
        "out/t.csv row 2 status: 'pass' -> 'fail'",
    ]
    assert moves.compare(old, old) == []


def test_moves_prints_nothing_on_identical_trees(tmp_path):
    # the command line: empty stdout and exit 0 when nothing differs, the
    # differing lines and exit 1 when something does
    moves_tool = TOOL.with_name("output_moves.py")
    old, new = tmp_path / "old", tmp_path / "new"
    for root, cell in ((old, "1.0"), (new, "2.0")):
        root.mkdir()
        (root / "t.csv").write_text(f"x\n{cell}\n")

    def run(a, b):
        return subprocess.run([sys.executable, str(moves_tool), str(a), str(b)],
                              capture_output=True, text=True, check=False)

    same = run(old, old)
    assert (same.returncode, same.stdout, same.stderr) == (0, "", "")
    differ = run(old, new)
    assert differ.returncode == 1
    assert differ.stdout.startswith("t.csv x: largest move 1 on row 1 ")
