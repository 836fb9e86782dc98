#!/usr/bin/env python3
"""Summarize saved benchmark runs across seeds.

    python3 perfbench/report.py [RESULTS_DIR]

Reads every ``*.json`` that ``run.py`` saved (default
``perfbench/.work/results``) and prints, per workload and metric, the median
of the run values, their quartile spread ``(Q3 - Q1) / median`` next to the
bound in ``BENCHMARK.json``, and the median and tail percentile of the pooled
per-pass samples with their count.  Traced runs are summarized the same way
for the per-layer metrics.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import summary

BENCH = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    results_dir = Path(argv[0]) if argv else BENCH / ".work" / "results"
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = defaultdict(list)
    for path in sorted(results_dir.glob("*.json")):
        result = json.loads(path.read_text())
        traced = result["metrics"].keys().isdisjoint(bounds)
        runs[(result["manifest"]["workload"], traced)].append(result)
    for (workload, traced), results in sorted(runs.items()):
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"== {workload} ({'traced' if traced else 'untraced'}): "
              f"{len(results)} runs, seeds "
              f"{sorted({r['manifest']['seed'] for r in results})}, "
              f"{failed}/{attempted} operations failed, correct in "
              f"{sum(r['correct'] for r in results)} ==")
        for name, metric in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            line = (f"  {name:40s} median {statistics.median(values):.6g} "
                    f"{metric['unit']}")
            if len(values) >= 2 and statistics.median(values):
                line += f", spread {summary.quartile_spread(values):.4f}"
                if name in bounds:
                    line += f" (bound {bounds[name]})"
            pooled = [v for r in results for v in r["samples"].get(name, [])]
            if pooled:
                line += f"; samples {summary.describe(pooled)}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
