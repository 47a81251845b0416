"""Tests for the streaming sliding-window aggregates."""

import math

from repro.metrics import MetricStore, SeriesKey, TimeSeries, evaluate_scalar
from repro.metrics import aggregate_cache_info
from repro.metrics.aggregate import (
    RANGE_REFERENCE,
    WindowState,
    range_value,
    rescan_value,
    state_for,
)
from tests.oracles import rescan

FUNCTIONS = sorted(RANGE_REFERENCE)


def _series(samples):
    series = TimeSeries(SeriesKey.make("m"))
    for timestamp, value in samples:
        series.append(timestamp, value)
    return series


def _assert_matches_rescan(series, window, at, exact=True):
    for function in FUNCTIONS:
        expected = rescan_value(series, function, window, at)
        got = range_value(series, function, window, at)
        if expected is None or got is None:
            assert got == expected, (function, got, expected)
        elif exact:
            assert got == expected, (function, got, expected)
        else:
            assert math.isclose(got, expected, rel_tol=1e-9), (function, got, expected)


def test_incremental_matches_rescan_on_growing_series():
    series = _series([(float(t), float(t * 3 % 17)) for t in range(50)])
    for at in (10.0, 25.0, 49.0):
        _assert_matches_rescan(series, 12.0, at)


def test_incremental_follows_appends_through_listener():
    series = _series([(0.0, 1.0)])
    state = state_for(series, 10.0)
    series.append(1.0, 4.0)
    series.append(2.0, 9.0)
    assert len(state.samples) == 3
    ok, value = state.value("sum_over_time", 2.0)
    assert ok and value == 14.0


def test_window_advance_evicts_and_stays_correct():
    series = _series([(float(t), float(t)) for t in range(20)])
    # First read seeds + advances the floor; subsequent reads slide it.
    _assert_matches_rescan(series, 5.0, 10.0)
    _assert_matches_rescan(series, 5.0, 15.0)
    _assert_matches_rescan(series, 5.0, 19.0)


def test_counter_reset_contribution():
    series = _series([(0.0, 10.0), (1.0, 20.0), (2.0, 3.0), (3.0, 8.0)])
    _assert_matches_rescan(series, 10.0, 3.0)


def test_backwards_query_falls_back_to_rescan():
    series = _series([(float(t), float(t)) for t in range(10)])
    before = aggregate_cache_info()["fallbacks"]
    _assert_matches_rescan(series, 4.0, 9.0)  # fast path
    _assert_matches_rescan(series, 4.0, 5.0)  # behind the newest sample
    assert aggregate_cache_info()["fallbacks"] > before


def test_widening_window_behind_floor_falls_back():
    series = _series([(float(t), float(t)) for t in range(20)])
    state = state_for(series, 5.0)
    assert state.value("sum_over_time", 19.0)[0]  # floor advances to 14
    # Now ask the same state-free API for an earlier instant: the 5s
    # window starting before the floor cannot be answered incrementally.
    assert state.value("sum_over_time", 15.0) == (False, None)
    _assert_matches_rescan(series, 5.0, 15.0)


def test_truncate_mirrors_drop_before():
    store = MetricStore(retention=10.0)
    for t in range(8):
        store.record("m", float(t), float(t))
    series = store.select("m")[0]
    state = state_for(series, 30.0)
    assert len(state.samples) == 8
    # Ingest far enough ahead that retention trims the old prefix.
    store.record("m", 99.0, 25.0)
    assert series.oldest_timestamp == 25.0
    assert len(state.samples) == 1
    ok, value = state.value("sum_over_time", 25.0)
    assert ok and value == 99.0


def test_eviction_dominating_pass_resums_exactly():
    series = _series([(float(t), float(t) * 0.1) for t in range(100)])
    state = state_for(series, 3.0)
    resums_before = state.resums
    # Advancing so only a handful of samples survive evicts >= remaining,
    # which forces a re-sum: the answer equals the reference bit-for-bit.
    _assert_matches_rescan(series, 3.0, 99.0)
    assert state.resums > resums_before


def test_resum_interval_one_is_always_exact():
    series = _series([(float(t), math.sin(t) * 1e6) for t in range(64)])
    state_for(series, 13.0).resum_interval = 1
    for at in (20.0, 33.0, 47.0, 63.0):
        _assert_matches_rescan(series, 13.0, at)


def test_default_interval_is_close_after_many_slides():
    series = _series([(float(t), math.cos(t) * 1e3) for t in range(256)])
    for at in range(20, 256, 7):
        _assert_matches_rescan(series, 16.0, float(at), exact=False)


def test_state_is_shared_per_series_window_pair():
    series = _series([(0.0, 1.0)])
    assert state_for(series, 10.0) is state_for(series, 10.0)
    assert state_for(series, 10.0) is not state_for(series, 20.0)


def test_query_results_identical_with_aggregates_disabled():
    """The rescanning oracle, which never reads window states, agrees."""
    store = MetricStore()
    for t in range(40):
        store.record("hits_total", float(t * 2), float(t), {"instance": "a"})
    query = "rate(hits_total[15s])"
    incremental = evaluate_scalar(store, query, 39.0)
    reference = rescan.evaluate_scalar(store, query, 39.0)
    assert incremental == reference


def test_empty_window_reports_none():
    series = _series([(0.0, 1.0), (1.0, 2.0)])
    state = WindowState(series, 5.0)
    ok, value = state.value("sum_over_time", 100.0)
    assert ok and value is None
    ok, value = state.value("rate", 101.0)
    assert ok and value is None
