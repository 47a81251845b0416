import pytest

from stats import percentile, tail_percentile


def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 90) == pytest.approx(3.7)


def test_percentile_of_edge_inputs():
    assert percentile([], 50) == 0.0
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),  # even the median has only 9.5 samples beyond it
        (20, 50.0),
        (99, 75.0),
        (100, 90.0),
        (200, 95.0),
        (999, 95.0),  # p99 would leave 9.99 beyond it
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
