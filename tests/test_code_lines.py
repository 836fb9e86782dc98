"""Tests of ``tools/code_lines.py`` on a small hand-made module and on the
package it counts by default."""
from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""
import math  # a comment after code

# a comment line


class Shape:
    """Class docstring."""

    sides = 4


def area(r):
    """Function docstring,

    with a blank line inside."""
    text = """a string that is not a docstring
spans two lines"""
    return (math.pi
            * r * r)
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_leave_out_blanks_comments_and_docstrings(tool):
    # import, class, sides, def, the two lines of text and the two of return
    assert tool.code_lines(SOURCE) == 8
    assert tool.code_lines("") == 0
    assert tool.code_lines('"""Only a docstring."""\n') == 0


def test_prints_each_module_and_the_total():
    done = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                          text=True, check=True)
    lines = [line.split() for line in done.stdout.splitlines()]
    names = [name for name, _ in lines[:-1]]
    assert names == sorted(p.name for p in (TOOL.parents[1] / "src" / "oscbound")
                           .glob("*.py"))
    assert lines[-1][0] == "total"
    assert int(lines[-1][1]) == sum(int(count) for _, count in lines[:-1])
