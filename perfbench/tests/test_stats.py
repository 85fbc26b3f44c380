import pytest

from stats import nearest_rank, spread, summarize


def test_p90_needs_ten_samples_beyond_it():
    assert "p90" not in summarize([float(i) for i in range(99)])
    s = summarize([float(i) for i in range(1, 101)])
    assert s["n"] == 100
    assert s["p90"] == 90.0  # values 91..100 lie beyond it
    assert s["p50"] == 50.5


def test_order_of_samples_does_not_matter():
    assert summarize([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0}


def test_nearest_rank():
    values = [10.0, 20.0, 30.0, 40.0]
    assert nearest_rank(values, 0.5) == 20.0
    assert nearest_rank(values, 0.9) == 40.0
    assert nearest_rank(values, 0.01) == 10.0


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        summarize([])


def test_spread_is_quartile_distance_over_median():
    # statistics.quantiles(n=4), exclusive method: q1=1.5, median=3, q3=4.5
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
    assert spread([7.0] * 10) == 0.0
