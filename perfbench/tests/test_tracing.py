import pytest

from tracing import covered, self_times


def span(name, start, end, span_id, parent=None):
    return [name, start, end, span_id, parent, 1]


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(1.0, 2.0), (5.0, 6.0)], 0.0, 10.0) == pytest.approx(2.0)
    # A child that outlives its parent only counts inside the parent.
    assert covered([(8.0, 15.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([(11.0, 15.0)], 0.0, 10.0) == 0.0


def test_self_time_of_nested_spans_subtracts_direct_children_only():
    spans = [
        span("gateway", 0.0, 10.0, 1),
        span("send", 1.0, 9.0, 2, parent=1),
        span("proxy", 2.0, 8.0, 3, parent=2),
        span("send", 3.0, 7.0, 4, parent=3),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(4.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("service", 0.0, 10.0, 1),
        span("mongo", 1.0, 4.0, 2, parent=1),
        span("auth", 3.0, 6.0, 3, parent=1),  # concurrent with mongo
        span("search", 8.0, 12.0, 4, parent=1),  # outlives the parent
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
