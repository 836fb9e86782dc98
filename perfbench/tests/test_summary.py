import pytest

from summary import quartile_spread, tail_percentile


@pytest.mark.parametrize("n, percentile, rank", [
    (20, 50.0, 10), (39, 50.0, 20), (40, 75.0, 30), (100, 90.0, 90),
    (199, 90.0, 180), (200, 95.0, 190), (1000, 99.0, 990),
    (10000, 99.9, 9990)])
def test_tail_percentile_leaves_ten_samples_beyond(n, percentile, rank):
    values = [float(v) for v in range(n, 0, -1)]      # order must not matter
    p, value = tail_percentile(values)
    assert (p, value) == (percentile, float(rank))
    assert sum(v > value for v in values) >= 10


@pytest.mark.parametrize("n", [1, 5, 19])
def test_tail_percentile_needs_twenty_samples(n):
    assert tail_percentile([1.0] * n) is None


def test_quartile_spread_uses_statistics_quantiles():
    assert quartile_spread([float(v) for v in range(1, 11)]) == pytest.approx(1.0)
    assert quartile_spread([2.0] * 10) == 0.0
