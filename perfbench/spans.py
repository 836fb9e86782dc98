"""In-memory span recorder for traced benchmark runs.

A span is one call into a layer: its name, start and end (``perf_counter``,
which is CLOCK_MONOTONIC and so comparable across processes), the span that
was open when it started, and the process that ran it.  Counters are plain
numbers recorded at the same boundaries; a name ending in ``.max`` keeps the
largest value, every other counter is summed.

Spans and counters stay in memory and are appended to
``<out_dir>/spans-<pid>.jsonl`` whenever an outermost span of the process
ends.  A process forked inside a span (a ``ProcessPoolExecutor`` worker)
keeps the open stack, so its spans point at the span that started the pool,
and its own outermost spans are the member calls: each one flushes, so the
spans reach the trace even though forked workers leave through ``os._exit``
without running ``atexit`` handlers.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    """Collects spans and counters for one traced process tree."""

    def __init__(self, out_dir: str | os.PathLike):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self.stack: list[str] = []
        self.base_depth = 0
        self._serial = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # the parent flushes its own records; the child starts empty and
        # treats the inherited open spans as its base
        self.pid = os.getpid()
        self.spans = []
        self.counters = {}
        self.base_depth = len(self.stack)

    @contextmanager
    def span(self, name: str):
        """Time the block as span ``name``; yields a dict of extra fields."""
        self._serial += 1
        sid = f"{self.pid}:{self._serial}"
        parent = self.stack[-1] if self.stack else None
        extra: dict = {}
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield extra
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append({"id": sid, "parent": parent, "name": name,
                               "start": start, "end": end, "pid": self.pid,
                               **extra})
            if len(self.stack) <= self.base_depth:
                self.flush()

    def count(self, name: str, value: float = 1) -> None:
        if name.endswith(".max"):
            self.counters[name] = max(self.counters.get(name, value), value)
        else:
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; returns exactly what ``fn`` returns.

        ``after(result, *args, **kwargs)`` runs inside the span and may
        return a dict of fields to store on it.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as extra:
                result = fn(*args, **kwargs)
                if after is not None:
                    extra.update(after(result, *args, **kwargs) or {})
            return result
        return traced

    def counted(self, fn, after):
        """``fn`` with ``after(result, *args, **kwargs)`` run on each call."""
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, *args, **kwargs)
            return result
        return counting

    def flush(self) -> None:
        """Append the records held in memory to this process's file."""
        if not self.spans and not self.counters:
            return
        lines = [json.dumps(span) for span in self.spans]
        if self.counters:
            lines.append(json.dumps({"counters": self.counters}))
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a",
                  encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        self.spans = []
        self.counters = {}


def load(out_dir: str | os.PathLike) -> tuple[list[dict], dict[str, float]]:
    """All spans and merged counters written under ``out_dir``."""
    spans: list[dict] = []
    counters: dict[str, float] = {}
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if "counters" not in record:
                spans.append(record)
                continue
            for name, value in record["counters"].items():
                if name.endswith(".max"):
                    counters[name] = max(counters.get(name, value), value)
                else:
                    counters[name] = counters.get(name, 0) + value
    return spans, counters


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children may run in parallel (pool workers), so the covered part is the
    length of the union of the child intervals, clipped to the parent.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        covered = 0.0
        reach = lo
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out[span["id"]] = (hi - lo) - covered
    return out
