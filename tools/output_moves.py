"""Name every output cell that moved between two checkouts.

    python3 tools/output_digests.py --keep OLD    # at the parent commit
    python3 tools/output_digests.py --keep NEW    # with the change
    python3 tools/output_moves.py OLD NEW

``OLD`` and ``NEW`` are the directories that the runs of
``output_digests.RUNS`` wrote with ``--keep``.  For each run the script
prints a line if the exit code differs and every stdout or stderr line that
differs.  For each CSV it prints a line if the header or the row count
differs, every text cell that differs, and for each numeric column that
moved one line with the largest absolute and the largest relative move,
the rows they are on, and how many of the column's cells moved; a column
is numeric when every cell in both files reads as a float.
Other files are compared byte for byte.  When the two directories hold
the same outputs it prints nothing and exits 0; when anything differs it
exits 1.
"""
from __future__ import annotations

import argparse
import csv
import difflib
import math
import sys
from pathlib import Path


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _runs(old: Path, new: Path) -> list[str]:
    """Exit codes and printed lines that differ, run by run."""
    lines = []
    names = sorted({p.stem for d in (old, new) for p in d.glob("*.exit")})
    for name in names:
        for stream in ("exit", "stdout", "stderr"):
            a, b = ((d / f"{name}.{stream}") for d in (old, new))
            if not (a.is_file() and b.is_file()):
                lines.append(f"{name}: only one side has {stream}")
                continue
            before = a.read_text(encoding="utf-8").splitlines()
            after = b.read_text(encoding="utf-8").splitlines()
            if stream == "exit" and before != after:
                lines.append(f"{name}: exit {before[0]} -> {after[0]}")
            elif before != after:
                lines += [f"{name} {stream}: {line}" for line in
                          difflib.unified_diff(before, after, n=0, lineterm="")
                          if line[:1] in "-+" and line[:3] not in ("---",
                                                                   "+++")]
    return lines


def _moves(rows_a: list[list[str]], rows_b: list[list[str]],
           column: int) -> tuple[float, int, float, int, int]:
    """Largest absolute and relative move of a numeric column, the (data)
    rows they are on, and the number of cells that moved; a value that
    appears or vanishes (NaN or inf on one side only) and a move from zero
    count as infinite."""
    worst_abs, at_abs, worst_rel, at_rel, moved = 0.0, -1, 0.0, -1, 0
    for row, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        a, b = float(ra[column]), float(rb[column])
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        moved += 1
        move = abs(b - a) if math.isfinite(a - b) else math.inf
        rel = move / abs(a) if a != 0.0 else math.inf
        if not move <= worst_abs:
            worst_abs, at_abs = move, row
        if not rel <= worst_rel:
            worst_rel, at_rel = rel, row
    return worst_abs, at_abs, worst_rel, at_rel, moved


def _csv(name: str, old: Path, new: Path) -> list[str]:
    """Header, row count, text cells and numeric moves of one CSV."""
    with old.open(newline="", encoding="utf-8") as fa, \
            new.open(newline="", encoding="utf-8") as fb:
        table_a, table_b = list(csv.reader(fa)), list(csv.reader(fb))
    head_a, rows_a = (table_a[0], table_a[1:]) if table_a else ([], [])
    head_b, rows_b = (table_b[0], table_b[1:]) if table_b else ([], [])
    lines = []
    if head_a != head_b:
        return [f"{name}: header {head_a} -> {head_b}"]
    if len(rows_a) != len(rows_b):
        lines.append(f"{name}: {len(rows_a)} -> {len(rows_b)} rows; "
                     f"the first {min(len(rows_a), len(rows_b))} compared")
    rows_a, rows_b = rows_a[:len(rows_b)], rows_b[:len(rows_a)]
    if any(len(r) != len(head_a) for r in rows_a + rows_b):
        return lines + [f"{name}: a row's length differs from the header's"]
    still = []
    for column, title in enumerate(head_a):
        cells = [r[column] for r in rows_a + rows_b]
        if all(_number(c) is not None for c in cells):
            move, row, rel, row_rel, moved = _moves(rows_a, rows_b, column)
            if move == 0.0:
                still.append(title)
                continue
            lines.append(
                f"{name} {title}: largest move {move:.3g} on row {row + 1} "
                f"({rows_a[row][column]} -> {rows_b[row][column]}), "
                f"largest relative move {rel:.3g} on row {row_rel + 1}; "
                f"{moved} of {len(rows_a)} cells moved")
        else:
            lines += [f"{name} row {row + 1} {title}: "
                      f"{ra[column]!r} -> {rb[column]!r}"
                      for row, (ra, rb) in enumerate(zip(rows_a, rows_b))
                      if ra[column] != rb[column]]
    if not lines:
        return [f"{name}: the bytes differ, but no cell does as a number "
                f"or as text"]
    if still:
        lines.append(f"{name}: {len(still)} numeric columns unmoved")
    return lines


def compare(old: Path, new: Path) -> list[str]:
    """Every difference between the output directories ``old`` and
    ``new``, one line each."""
    lines = _runs(old, new)
    kept = {".exit", ".stdout", ".stderr", ".cfg"}
    files = sorted({p.relative_to(d) for d in (old, new)
                    for p in d.rglob("*")
                    if p.is_file() and not (p.parent == d
                                            and p.suffix in kept)})
    for rel in files:
        a, b = old / rel, new / rel
        if not (a.is_file() and b.is_file()):
            lines.append(f"{rel}: only in {old if a.is_file() else new}")
        elif a.read_bytes() == b.read_bytes():
            continue
        elif rel.suffix == ".csv":
            lines += _csv(str(rel), a, b)
        else:
            lines.append(f"{rel}: differs")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    for d in (args.old, args.new):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    found = compare(args.old, args.new)
    if found:
        print(*found, sep="\n")
    sys.exit(1 if found else 0)
