"""Order statistics used by the benchmark reports."""
from __future__ import annotations

import math
import statistics

# candidate tail percentiles in per mille, highest first (integers keep the
# rank arithmetic exact)
PER_MILLE = (999, 990, 950, 900, 750, 500)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Nearest rank: percentile p is the k-th smallest value, k = ceil(p n / 100),
    and n - k samples lie beyond it.  Returns ``(p, value)``, or None when
    fewer than 20 samples leave no candidate with ten beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pm in PER_MILLE:
        k = -(-pm * n // 1000)
        if n - k >= 10:
            return pm / 10.0, ordered[k - 1]
    return None


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def describe(values: list[float]) -> str:
    """``median m, pP t, n N`` for a report line."""
    text = f"median {statistics.median(values):.6g}"
    tail = tail_percentile(values)
    if tail is not None:
        text += f", p{tail[0]:g} {tail[1]:.6g}"
    return text + f", n {len(values)}"
