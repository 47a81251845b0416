"""Scale-out benchmark: sharded metric stores + proxy worker pools.

Two architectural effects, both measurable deterministically on a single
core (the container has one CPU, so neither number depends on true
parallel execution):

**Proxy pool capacity.**  Upstream round-trips are modelled by a stub
client with latency L and a bounded connection pool of C concurrent
requests — the shape of a real ``HttpClient`` against a real upstream.
One worker can therefore sustain at most ``C/L`` requests per second no
matter how fast its event loop is.  A shared-nothing pool of W workers
owns W independent connection pools, so the same I/O-bound workload
drains through ``W*C`` concurrent slots.  Dispatch overhead is the only
thing the pool adds; the benchmark shows throughput scaling with W.

**Sharded store invalidation scoping.**  Under the paper's scalability
workload (many strategies re-evaluating per-tick instant queries while
scrapes keep landing), the monolithic store's single generation counter
invalidates the evaluation plan's per-(tick, generation) memo on *every*
ingest — one hot metric poisons the memo for all queries.  A sharded
store bumps only the owning shard's counter, and each plan node is
stamped with the generations of only the shards it reads, so ingest into
shard k leaves memoized results for the other shards' metrics live within
the tick.  Everything runs on one thread, so sharding adds no
parallelism: the headline is the plan's root **memo hit rate** per shard
count, and the wall-time ratio over the monolith (``wall_ratio``) follows
from it.  Results stay bit-identical to the monolithic store.

Artifacts: ``benchmarks/output/scaleout.json``, a run record in
``benchmarks/output/history.jsonl``, plus the tracked repo-root
``BENCH_scaleout.json``.

Environment knobs: ``BIFROST_BENCH_SCALEOUT_REQUESTS`` (proxy requests
per run), ``BIFROST_BENCH_SCALEOUT_ROUNDS`` (store workload ticks) — CI
smoke reduces both.
"""

import asyncio
import json
import os
import time
from pathlib import Path

from repro.clock import VirtualClock
from repro.core import canary_split
from repro.httpcore import Headers, Request, Response
from repro.metrics import MetricStore, ShardedMetricStore, evaluate_scalar
from repro.metrics.provider import LocalPrometheusProvider
from repro.proxy import CLIENT_COOKIE, ProxyWorkerPool, worker_index

REPO_ROOT = Path(__file__).resolve().parent.parent

# -- proxy pool workload -------------------------------------------------------

REQUESTS = int(os.environ.get("BIFROST_BENCH_SCALEOUT_REQUESTS", "320"))
WORKER_COUNTS = (1, 2, 4)
UPSTREAM_CAPACITY = 8  # concurrent requests one worker's client sustains
UPSTREAM_LATENCY = 0.025  # seconds per upstream round-trip
ENDPOINTS = {"stable": "upstream-a:8001", "canary": "upstream-b:8002"}
RESPONSE_BODY = b'{"version": "stable", "ok": true}'


def _balanced_clients(per_class: int = 16) -> list[str]:
    """Client ids spread evenly over worker classes mod 4 (hence mod 2/1).

    ``n mod 2 == (n mod 4) mod 2``, so ids balanced across the four
    4-worker classes are also balanced for 2 workers and (trivially) 1 —
    the sweep compares capacity, not hash luck.
    """
    buckets: dict[int, list[str]] = {0: [], 1: [], 2: [], 3: []}
    index = 0
    while any(len(bucket) < per_class for bucket in buckets.values()):
        client = f"22222222-3333-4444-5555-{index:012d}"
        bucket = buckets[worker_index(client, 4)]
        if len(bucket) < per_class:
            bucket.append(client)
        index += 1
    interleaved = []
    for position in range(per_class):
        for cls in range(4):
            interleaved.append(buckets[cls][position])
    return interleaved


CLIENTS = _balanced_clients()


class CapacityStubClient:
    """Upstream stub: latency ``UPSTREAM_LATENCY``, at most
    ``UPSTREAM_CAPACITY`` requests in flight — a connection pool in
    miniature.  One instance per worker, like the real owned client."""

    def __init__(self):
        self._slots = asyncio.Semaphore(UPSTREAM_CAPACITY)
        self.sent = 0

    async def send(self, request, host, port, timeout=None, stream=False):
        async with self._slots:
            await asyncio.sleep(UPSTREAM_LATENCY)
        self.sent += 1
        return Response(
            status=200,
            headers=Headers.from_raw([("Content-Type", "application/json")]),
            body=RESPONSE_BODY,
        )

    async def close(self):
        pass


def _incoming(index: int) -> Request:
    client = CLIENTS[index % len(CLIENTS)]
    return Request(
        "GET",
        "/items?page=1",
        Headers.from_raw(
            [
                ("Host", "shop.example"),
                ("Accept", "application/json"),
                ("Cookie", f"session=abc123; {CLIENT_COOKIE}={client}"),
                ("X-Request-Id", f"req-{index}"),
            ]
        ),
        body=b"",
    )


async def _drive_pool(workers: int) -> dict:
    pool = ProxyWorkerPool("bench", "upstream-default:8000", workers=workers)
    stubs = []
    for member in pool.workers:
        stub = CapacityStubClient()
        member._client = stub
        member._owns_client = False
        stubs.append(stub)
    pool.apply_config(canary_split("stable", "canary", 20.0), ENDPOINTS)

    requests = [_incoming(i) for i in range(REQUESTS)]
    start = time.perf_counter()
    responses = await asyncio.gather(
        *(pool._handle_proxy(request) for request in requests)
    )
    wall = time.perf_counter() - start

    assert sum(stub.sent for stub in stubs) == REQUESTS
    workers_seen = {
        response.headers.get("X-Bifrost-Worker") for response in responses
    }
    assert len(workers_seen) == workers
    for response in responses:
        assert response.headers.get("X-Bifrost-Version") in ("stable", "canary")
    await pool.stop()
    return {
        "workers": workers,
        "requests": REQUESTS,
        "wall_s": round(wall, 4),
        "rps": round(REQUESTS / wall),
    }


# -- sharded store workload ----------------------------------------------------

ROUNDS = int(os.environ.get("BIFROST_BENCH_SCALEOUT_ROUNDS", "24"))
SHARD_COUNTS = (1, 2, 4)
METRIC_NAMES = [f"service_requests_total_{index}" for index in range(64)]
INSTANCES = [f"inst-{index}" for index in range(8)]
PRELOAD_SAMPLES = 60
INGESTS_PER_TICK = 8

# The range window spans the whole preload for every round, so each cache
# miss re-reads a full-size window — the workload stays evaluation-bound
# across the sweep instead of thinning out as the clock advances.
QUERIES = [
    f'sum(rate({name}{{instance=~"inst-.*"}}[120s]))' for name in METRIC_NAMES
]


def _make_store(shards: int) -> MetricStore | ShardedMetricStore:
    if shards > 1:
        return ShardedMetricStore(shard_count=shards)
    return MetricStore()


def _preload(store) -> None:
    for name in METRIC_NAMES:
        for instance in INSTANCES:
            labels = {"instance": instance}
            for t in range(PRELOAD_SAMPLES):
                store.record(name, float(t * 3), float(t), labels)


async def _drive_store(store) -> dict:
    clock = VirtualClock()
    # Jump past the preload window so range queries see the same data on
    # every shard count.
    await clock.advance(float(PRELOAD_SAMPLES))
    provider = LocalPrometheusProvider(store, clock=clock)
    planner = provider.planner
    hits_before, misses_before = planner.root_hits, planner.root_misses
    queries_issued = 0
    start = time.perf_counter()
    for round_index in range(ROUNDS):
        await clock.advance(1.0)
        now = clock.now()
        for rep in range(INGESTS_PER_TICK):
            hot = METRIC_NAMES[
                (round_index * INGESTS_PER_TICK + rep) % len(METRIC_NAMES)
            ]
            store.record(hot, float(queries_issued), now, {"instance": "inst-0"})
            for query in QUERIES:
                await provider.query(query)
                queries_issued += 1
    wall = time.perf_counter() - start
    memo_hits = planner.root_hits - hits_before
    return {
        "queries_issued": queries_issued,
        "wall_s": round(wall, 4),
        "qps": round(queries_issued / wall),
        "evaluations": planner.root_misses - misses_before,
        "memo_hits": memo_hits,
        "memo_hit_rate": round(memo_hits / queries_issued, 3),
    }


def test_scaleout(artifact_writer, history_appender):
    # -- proxy pool sweep --------------------------------------------------
    pool_points = {}
    for workers in WORKER_COUNTS:
        asyncio.run(_drive_pool(workers))  # warm-up
        pool_points[workers] = asyncio.run(_drive_pool(workers))
    pool_speedup = {
        workers: round(
            pool_points[1]["wall_s"] / pool_points[workers]["wall_s"], 2
        )
        for workers in WORKER_COUNTS
    }

    # -- sharded store sweep ----------------------------------------------
    stores = {shards: _make_store(shards) for shards in SHARD_COUNTS}
    for store in stores.values():
        _preload(store)

    store_points = {}
    for shards, store in stores.items():
        store_points[shards] = asyncio.run(_drive_store(store))
    store_wall_ratio = {
        shards: round(
            store_points[1]["wall_s"] / store_points[shards]["wall_s"], 2
        )
        for shards in SHARD_COUNTS
    }

    # Equivalence: after identical preload + identical ingest interleaving,
    # every query answers bit-identically on every shard count.
    at = float(PRELOAD_SAMPLES + ROUNDS)
    for query in QUERIES[:16]:
        reference = evaluate_scalar(stores[1], query, at)
        for shards in SHARD_COUNTS[1:]:
            assert evaluate_scalar(stores[shards], query, at) == reference

    results = {
        "benchmark": "scaleout",
        "proxy_pool": {
            "workload": {
                "requests_per_run": REQUESTS,
                "distinct_clients": len(CLIENTS),
                "upstream_capacity_per_worker": UPSTREAM_CAPACITY,
                "upstream_latency_s": UPSTREAM_LATENCY,
            },
            "points": {str(w): p for w, p in pool_points.items()},
            "speedup": {str(w): s for w, s in pool_speedup.items()},
        },
        "sharded_store": {
            "workload": {
                "metric_names": len(METRIC_NAMES),
                "instances_per_name": len(INSTANCES),
                "preload_samples": PRELOAD_SAMPLES,
                "rounds": ROUNDS,
                "ingests_per_tick": INGESTS_PER_TICK,
                "queries_per_ingest": len(QUERIES),
            },
            "points": {str(s): p for s, p in store_points.items()},
            "memo_hit_rate": {
                str(s): p["memo_hit_rate"] for s, p in store_points.items()
            },
            "wall_ratio": {str(s): r for s, r in store_wall_ratio.items()},
        },
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    rendered = json.dumps(results, indent=2)
    artifact_writer("scaleout.json", rendered)
    (REPO_ROOT / "BENCH_scaleout.json").write_text(rendered + "\n", encoding="utf-8")
    history_appender(
        "scaleout",
        {
            "proxy_rps": {str(w): p["rps"] for w, p in pool_points.items()},
            "proxy_speedup": {str(w): s for w, s in pool_speedup.items()},
            "store_qps": {str(s): p["qps"] for s, p in store_points.items()},
            "store_memo_hit_rate": {
                str(s): p["memo_hit_rate"] for s, p in store_points.items()
            },
            "store_wall_ratio": {str(s): v for s, v in store_wall_ratio.items()},
        },
    )

    # Shard scoping shows up structurally, not just in wall time: the
    # monolith re-evaluates every query after every ingest, while four
    # shards keep most per-tick memo entries live.
    assert store_points[4]["evaluations"] < store_points[1]["evaluations"] / 2

    assert pool_speedup[4] >= 2.5, (
        f"4-worker pool only {pool_speedup[4]:.2f}x over one worker "
        f"(need >= 2.5x): {pool_points}"
    )
    assert pool_speedup[2] >= 1.5, pool_points
    assert store_wall_ratio[4] >= 2.0, (
        f"4-shard store only {store_wall_ratio[4]:.2f}x over the monolith "
        f"(need >= 2x): {store_points}"
    )
    assert store_wall_ratio[2] >= 1.2, store_points
