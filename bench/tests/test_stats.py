import pytest

from nocbench.stats import highest_percentile, percentile, spread, summarize


def test_ten_samples_beyond_rule():
    # p needs n * (1 - p/100) >= 10 samples beyond it.
    assert highest_percentile(19) is None
    assert highest_percentile(20) == 50
    assert highest_percentile(60) == 50      # p90 would leave only 6 beyond
    assert highest_percentile(100) == 90
    assert highest_percentile(200) == 95
    assert highest_percentile(1000) == 99


def test_summarize_reports_only_allowed_percentiles():
    few = summarize([3.0, 1.0, 2.0])
    assert few == {"median": 2.0, "min": 1.0, "max": 3.0, "n": 3}
    many = summarize([float(i) for i in range(1, 101)])
    assert many["n"] == 100 and many["median"] == 50.5
    assert many["p50"] == 50.0 and many["p90"] == 90.0
    assert "p95" not in many and "p99" not in many


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 3], 50) == 3
    assert percentile([5, 1, 3], 100) == 5
    assert percentile([5, 1, 3], 1) == 1


def test_spread_is_iqr_over_median():
    import statistics

    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert spread([1.0]) == 0.0
