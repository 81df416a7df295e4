import numpy as np
import pytest

from perfbench.stats import highest_percentile, percentile, quartile_spread, reportable


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected
    if expected is not None:
        assert round(n * (100 - expected) / 100, 9) >= 10


def test_median_is_always_reportable():
    assert reportable(1, 50.0)
    assert not reportable(99, 90.0)


@pytest.mark.parametrize("q", [0.0, 13.0, 50.0, 90.0, 100.0])
def test_percentile_matches_numpy(q):
    values = list(np.random.default_rng(3).exponential(size=57))
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0] * 4) == 0.0
    # statistics.quantiles (exclusive) on 1..9: q1 = 2.5, median 5, q3 = 7.5.
    assert quartile_spread(list(range(1, 10))) == pytest.approx(1.0)
