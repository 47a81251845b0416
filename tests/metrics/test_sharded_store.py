"""Tests for the sharded metric store and its integration points."""

import pytest

from repro.clock import VirtualClock
from repro.httpcore import HttpClient
from repro.metrics import (
    LocalPrometheusProvider,
    MetricsServer,
    MetricStore,
    Registry,
    ShardedMetricStore,
    evaluate,
    shard_index_for,
)
from repro.metrics.scraper import Scraper


def test_shard_index_is_stable_and_bounded():
    for count in (1, 2, 4, 8):
        for name in ("http_requests_total", "errors", "latency_bucket"):
            index = shard_index_for(name, count)
            assert 0 <= index < count
            assert index == shard_index_for(name, count)  # deterministic


def test_shard_count_validation():
    with pytest.raises(ValueError):
        ShardedMetricStore(shard_count=0)


def test_series_of_one_name_land_in_one_shard():
    store = ShardedMetricStore(shard_count=4)
    for instance in range(8):
        store.record("api_hits", float(instance), 1.0, {"instance": f"i{instance}"})
    owner = store.shard_for("api_hits")
    assert owner is store.shards[store.shard_index("api_hits")]
    assert len(owner) == 8
    assert sum(len(shard) for shard in store.shards if shard is not owner) == 0


def test_facade_matches_metric_store_api():
    store = ShardedMetricStore(shard_count=4)
    store.record("a_metric", 1.0, 1.0, {"instance": "x"})
    store.record("b_metric", 2.0, 1.0, {"instance": "y"})
    assert store.names() == {"a_metric", "b_metric"}
    assert len(store) == 2
    assert len(store.select("a_metric")) == 1
    vector = evaluate(store, 'a_metric{instance="x"}', at=2.0)
    assert [sample.value for sample in vector] == [1.0]
    store.clear()
    assert len(store) == 0
    assert store.names() == set()


def test_generation_sums_are_monotonic():
    store = ShardedMetricStore(shard_count=4)
    before = store.generation
    store.record("m_one", 1.0, 1.0)
    after_one = store.generation
    assert after_one > before
    store.record("m_two", 1.0, 1.0)
    assert store.generation > after_one


async def test_provider_memo_survives_other_shard_ingest():
    """The payoff: ingest into shard A leaves shard B's memo entries live."""
    clock = VirtualClock(start=100.0)
    sharded = ShardedMetricStore(shard_count=4)
    # Two names guaranteed to live in different shards.
    name_a = "alpha_total"
    name_b = next(
        f"beta_total_{i}"
        for i in range(64)
        if shard_index_for(f"beta_total_{i}", 4) != shard_index_for(name_a, 4)
    )
    sharded.record(name_a, 1.0, 99.0)
    sharded.record(name_b, 2.0, 99.0)

    provider = LocalPrometheusProvider(sharded, clock=clock)
    assert await provider.query(name_b) == 2.0
    sharded.record(name_a, 3.0, 100.5)  # churn in the *other* shard
    assert await provider.query(name_b) == 2.0
    assert provider.planner.root_hits == 1

    # Against a monolithic store the same interleaving evaluates twice.
    mono = MetricStore()
    mono.record(name_a, 1.0, 99.0)
    mono.record(name_b, 2.0, 99.0)
    mono_provider = LocalPrometheusProvider(mono, clock=clock)
    assert await mono_provider.query(name_b) == 2.0
    mono.record(name_a, 3.0, 100.5)
    assert await mono_provider.query(name_b) == 2.0
    assert mono_provider.planner.root_hits == 0
    assert mono_provider.planner.root_misses == 2


async def test_sharded_ingest_is_atomic_across_shards():
    server = MetricsServer(clock=VirtualClock(start=10.0), shards=4)
    await server.start(scrape=False)
    try:
        generations_before = [shard.generation for shard in server.store.shards]
        batch = [
            {"name": "good_metric_one", "value": 1.0, "timestamp": 9.0},
            {"name": "good_metric_two", "value": 2.0, "timestamp": 9.0},
            {"name": "bad_metric", "value": "not-a-number", "timestamp": 9.0},
            {"name": "good_metric_three", "value": 3.0, "timestamp": 9.0},
        ]
        async with HttpClient() as client:
            response = await client.post(
                f"http://{server.address}/api/v1/ingest", json_body=batch
            )
            assert response.status == 400
            # No shard recorded anything: the batch failed as a unit.
            assert [
                shard.generation for shard in server.store.shards
            ] == generations_before
            assert len(server.store) == 0

            good = [sample for sample in batch if sample["name"] != "bad_metric"]
            response = await client.post(
                f"http://{server.address}/api/v1/ingest", json_body=good
            )
            assert response.status == 200
            assert response.json()["ingested"] == 3
            assert len(server.store) == 3
    finally:
        await server.stop()


async def test_healthz_reports_per_shard_view():
    server = MetricsServer(clock=VirtualClock(start=10.0), shards=4)
    server.store.record("m_a", 1.0, 9.0)
    server.store.record("m_b", 2.0, 9.0)
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            response = await client.get(f"http://{server.address}/healthz")
            payload = response.json()
            shards = payload["shards"]
            assert shards["count"] == 4
            assert len(shards["per_shard"]) == 4
            assert sum(entry["series"] for entry in shards["per_shard"]) == 2
            assert payload["series"] == 2
    finally:
        await server.stop()


async def test_unsharded_healthz_reports_single_shard():
    server = MetricsServer(clock=VirtualClock(start=10.0))
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            response = await client.get(f"http://{server.address}/healthz")
            assert response.json()["shards"] == {"count": 1}
    finally:
        await server.stop()


def test_scraper_partitions_are_a_disjoint_cover():
    store = MetricStore()
    scraper = Scraper(store, loops=3)
    registries = [Registry() for _ in range(7)]
    for index, registry in enumerate(registries):
        scraper.add_local(f"svc-{index}", registry)
    for index in range(5):
        scraper.add_target(f"http-{index}", f"http://127.0.0.1:1/{index}")

    seen_local, seen_http = [], []
    for partition in range(scraper.loops):
        locals_, https = scraper.partition_targets(partition)
        seen_local.extend(instance for instance, _ in locals_)
        seen_http.extend(target.instance for target in https)
    assert sorted(seen_local) == sorted(f"svc-{i}" for i in range(7))
    assert sorted(seen_http) == sorted(f"http-{i}" for i in range(5))
    assert len(seen_local) == len(set(seen_local))
    assert len(seen_http) == len(set(seen_http))


def test_scraper_rejects_zero_loops():
    with pytest.raises(ValueError):
        Scraper(MetricStore(), loops=0)


async def test_scraper_runs_one_task_per_loop():
    clock = VirtualClock(start=0.0)
    store = ShardedMetricStore(shard_count=2)
    scraper = Scraper(store, interval=1.0, clock=clock, loops=2)
    registry_a, registry_b = Registry(), Registry()
    registry_a.counter("loop_a_total").inc()
    registry_b.counter("loop_b_total").inc()
    scraper.add_local("svc-a", registry_a)
    scraper.add_local("svc-b", registry_b)
    scraper.start()
    try:
        assert len(scraper._tasks) == 2
        await clock.advance(0.0)  # let both loops run their first scrape
        assert store.names() == {"loop_a_total", "loop_b_total"}
    finally:
        await scraper.stop()
    assert scraper._tasks == []
