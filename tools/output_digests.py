"""Digest every output of a fixed set of command-line runs.

Runs each command of :data:`RUNS` through ``oscbound.cli.main`` in one
temporary directory and prints, per run, one line with its exit code and the
sha256 of its stdout and stderr (the temporary directory masked as
``<tmp>``), then one line per file that the run wrote or changed, with the
file's sha256.  Two checkouts print the same lines exactly when every exit
code, every printed line and every byte of every CSV agree, so a change
that claims to keep the outputs is checked by running

    python3 tools/output_digests.py > before.txt    # at the parent commit
    python3 tools/output_digests.py > after.txt     # with the change
    diff before.txt after.txt

With ``--keep DIR`` the runs write into ``DIR`` in place of a temporary
directory and leave there, besides what they write, each run's exit code,
stdout and stderr as ``<run>.exit``, ``<run>.stdout`` and ``<run>.stderr``
(``DIR`` masked as ``<tmp>``); ``tools/output_moves.py`` compares two such
directories cell by cell.

The package is imported from the ``src`` tree next to this script, so each
checkout digests its own code.  The runs solve three families at h = 1/64
and two at h = 1/128 with two workers each.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from oscbound import cli  # noqa: E402  (after the path is set)


class Run(NamedTuple):
    """One command: its name, its arguments besides ``--config`` and
    ``--out``, its config file text, and its output directory's name."""

    name: str
    argv: tuple[str, ...]
    config: str = ""
    out: str = ""


RUNS = (
    Run("constants-N2", ("constants", "--N", "2")),
    Run("constants-N3", ("constants", "--N", "3")),
    Run("constants-N5", ("constants", "--N", "5")),
    Run("cone-verify-N2", ("cone-verify",)),
    Run("cone-verify-N3", ("cone-verify",), "N = 3\n"),
    Run("domain-verify-ellipse-dump", ("domain-verify", "--dump-fields"),
        "family = ellipse\n"),
    Run("domain-verify-cosine", ("domain-verify",), "family = cosine\n"),
    Run("domain-verify-interpolation", ("domain-verify",),
        "p = 2\nq = 6\nalpha = 0.25\n"),
    # report re-fits the records that the two runs before it wrote
    Run("sbt-run", ("sbt-run", "--jobs", "2"), "grid.refinements = 1\n",
        "stability"),
    Run("serrin-run", ("serrin-run", "--jobs", "2"),
        "family = cosine\ngrid.refinements = 1\n", "stability"),
    Run("report", ("report",), "", "stability"),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(directory: Path) -> dict[str, str]:
    """The sha256 of each file under ``directory``, by relative path."""
    if not directory.is_dir():
        return {}
    return {str(path.relative_to(directory)): _sha(path.read_bytes())
            for path in sorted(directory.rglob("*")) if path.is_file()}


def run_in(root: Path, runs=RUNS) -> list[str]:
    """Run ``runs`` in order in the directory ``root``, keep what they write
    and each one's exit code, stdout and stderr, and return the digest
    lines."""
    lines = []
    for run in runs:
        out = root / (run.out or run.name)
        config = root / f"{run.name}.cfg"
        config.write_text(run.config, encoding="utf-8")
        before = _files(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main([*run.argv, "--config", str(config),
                             "--out", str(out)])
        printed = [stream.getvalue().replace(str(root), "<tmp>").encode()
                   for stream in (stdout, stderr)]
        (root / f"{run.name}.exit").write_text(f"{code}\n", encoding="utf-8")
        for stream, text in zip(("stdout", "stderr"), printed):
            (root / f"{run.name}.{stream}").write_bytes(text)
        lines.append(f"{run.name} exit {code} stdout {_sha(printed[0])} "
                     f"stderr {_sha(printed[1])}")
        lines += [f"{run.name} {name} {digest}"
                  for name, digest in _files(out).items()
                  if before.get(name) != digest]
    return lines


def digest_lines(runs=RUNS) -> list[str]:
    """The digest lines of ``runs``, run in order in one temporary
    directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return run_in(Path(tmp), runs)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="run in DIR, which must not exist, and keep "
                             "every output there")
    keep = parser.parse_args().keep
    if keep is None:
        print(*digest_lines(), sep="\n")
    else:
        try:
            keep.mkdir(parents=True)
        except FileExistsError:
            parser.error(f"--keep: {keep} already exists")
        print(*run_in(keep.resolve()), sep="\n")
