"""Smoke test of ``tools/output_digests.py`` on its fast entries: the
constant tables, whose digests must be those of the files ``main`` writes."""
from __future__ import annotations

import hashlib
import importlib.util
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

