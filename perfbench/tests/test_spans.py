import os

import pytest

from spans import Recorder, load, self_times


def _span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "pid": 1}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("a", "root", 1.0, 4.0),
        _span("b", "root", 3.0, 6.0),        # overlaps a: parallel workers
        _span("a1", "a", 2.0, 3.0),
        _span("c", "root", 9.0, 12.0),       # clipped to the parent's end
    ]
    got = self_times(spans)
    assert got == pytest.approx(
        {"root": 4.0, "a": 2.0, "b": 3.0, "a1": 1.0, "c": 3.0})


def test_nested_spans_keep_their_parent_and_flush_at_the_outermost(tmp_path):
    rec = Recorder(tmp_path)
    with rec.span("outer"):
        with rec.span("inner") as extra:
            extra["jobs"] = 2
        rec.count("n", 3)
        rec.count("r.max", 1e-12)
        rec.count("r.max", 1e-13)
        assert not list(tmp_path.glob("spans-*"))   # nothing written yet
    spans, counters = load(tmp_path)
    by_name = {s["name"]: s for s in spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["inner"]["jobs"] == 2
    assert counters == {"n": 3, "r.max": 1e-12}


def test_forked_worker_spans_reach_the_trace(tmp_path):
    rec = Recorder(tmp_path)
    with rec.span("pool"):
        pid = os.fork()
        if pid == 0:                 # a pool worker leaves through os._exit
            try:
                with rec.span("member"):
                    rec.count("members")
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
    spans, counters = load(tmp_path)
    by_name = {s["name"]: s for s in spans}
    assert set(by_name) == {"pool", "member"}
    assert by_name["member"]["parent"] == by_name["pool"]["id"]
    assert by_name["member"]["pid"] == pid
    assert counters == {"members": 1}


def test_wrap_returns_exactly_what_the_function_returns(tmp_path):
    rec = Recorder(tmp_path)
    marker = object()
    wrapped = rec.wrap("w", lambda x, y=0: (marker, x + y),
                       after=lambda result, x, y=0: {"x": x})
    assert wrapped(1, y=2) == (marker, 3)
    spans, _ = load(tmp_path)
    assert [(s["name"], s["x"]) for s in spans] == [("w", 1)]
