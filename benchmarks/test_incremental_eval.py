"""Incremental query engine vs the rescanning baseline (before vs after).

The workload models the paper's check-sweep under sustained ingest: 512
checks (64 metric names x 8 query shapes, several sharing a ``rate``
subexpression) evaluated every tick over 60 s windows, while every tick a
scrape lands one new sample per series.  The baseline replays the seed
engine with the rescanning reference evaluator (``tests/oracles/rescan.py``):
every check evaluated independently, a full window rescan per range
function, samples recorded one at a time.
The incremental engine uses the shared evaluation plan
(:class:`repro.metrics.plan.EvaluationPlan`), streaming window aggregates,
and ``record_batch`` ingest.

A second microbench isolates ingest throughput: points/sec for per-point
``record`` vs grouped ``record_batch``.

Artifacts: ``benchmarks/output/incremental_eval.json`` plus the tracked
repo-root ``BENCH_incremental.json``.
"""

import json
import math
import os
import time
from pathlib import Path

from repro.metrics import EvaluationPlan, MetricStore
from repro.metrics import aggregate
from tests.oracles.rescan import evaluate_scalar

REPO_ROOT = Path(__file__).resolve().parent.parent

# Smoke-scale knobs for CI; defaults reproduce the tracked artifact.
NAME_COUNT = int(os.environ.get("BIFROST_BENCH_INCR_NAMES", "64"))
INSTANCES_PER_NAME = 4
WINDOW_S = 60.0
SCRAPE_SPACING_S = 0.1  # 600 samples inside every 60s window
TICKS = int(os.environ.get("BIFROST_BENCH_INCR_TICKS", "12"))
SPEEDUP_FLOOR = float(os.environ.get("BIFROST_BENCH_INCR_SPEEDUP_FLOOR", "5.0"))

SHAPES = [
    "rate({name}[60s])",
    "rate({name}[60s]) * 100",
    "sum(rate({name}[60s]))",
    "avg_over_time({name}[60s])",
    "max_over_time({name}[60s])",
    "sum_over_time({name}[60s]) / 60",
    "min_over_time({name}[60s]) + 1",
    "count_over_time({name}[60s])",
]


def _names():
    return [f"svc_{index}_requests_total" for index in range(NAME_COUNT)]


def _queries():
    return [
        shape.format(name=name) for name in _names() for shape in SHAPES
    ]


def _seed(store, batched: bool) -> float:
    """Fill every series with one window's worth of history; returns now."""
    steps = int(WINDOW_S / SCRAPE_SPACING_S)
    for step in range(steps):
        at = step * SCRAPE_SPACING_S
        batch = [
            (
                name,
                float(step + name_index),
                at,
                {"instance": f"inst-{instance}"},
            )
            for name_index, name in enumerate(_names())
            for instance in range(INSTANCES_PER_NAME)
        ]
        if batched:
            store.record_batch(batch)
        else:
            for name, value, timestamp, labels in batch:
                store.record(name, value, timestamp, labels)
    return (steps - 1) * SCRAPE_SPACING_S


def _tick_batch(step: int, at: float):
    return [
        (
            name,
            float(step + name_index),
            at,
            {"instance": f"inst-{instance}"},
        )
        for name_index, name in enumerate(_names())
        for instance in range(INSTANCES_PER_NAME)
    ]


def _run_baseline(queries) -> tuple[float, dict[str, float | None]]:
    """Seed path: per-point ingest, independent full-rescan evaluation."""
    store = MetricStore(retention=3600.0)
    now = _seed(store, batched=False)
    # Mirror the incremental run's warm tick so both engines see the
    # exact same samples when their answers are compared.
    now += SCRAPE_SPACING_S
    for name, value, timestamp, labels in _tick_batch(999, now):
        store.record(name, value, timestamp, labels)
    results: dict[str, float | None] = {}
    start = time.perf_counter()
    for tick in range(TICKS):
        now += SCRAPE_SPACING_S
        for name, value, timestamp, labels in _tick_batch(1000 + tick, now):
            store.record(name, value, timestamp, labels)
        for query in queries:
            results[query] = evaluate_scalar(store, query, now)
    elapsed = time.perf_counter() - start
    return elapsed / TICKS, results


def _run_incremental(queries) -> tuple[float, dict[str, float | None], dict]:
    """Shipped path: batched ingest + shared plan + streaming aggregates."""
    store = MetricStore(retention=3600.0)
    now = _seed(store, batched=True)
    plan = EvaluationPlan(store, {query: query for query in queries})
    # Warm tick: creates the window states (the one-time seed scans).
    now += SCRAPE_SPACING_S
    store.record_batch(_tick_batch(999, now))
    plan.evaluate_all(now)
    results: dict[str, float | None] = {}
    start = time.perf_counter()
    for tick in range(TICKS):
        now += SCRAPE_SPACING_S
        store.record_batch(_tick_batch(1000 + tick, now))
        results = plan.evaluate_all(now)
    elapsed = time.perf_counter() - start
    stats = {
        "plan_shared_nodes": plan.shared_nodes,
        "plan_evaluations_saved": plan.evaluations_saved,
        "aggregate": aggregate.cache_info(),
    }
    return elapsed / TICKS, results, stats


def _run_ingest_bench() -> dict:
    """Points/sec: per-point record vs grouped record_batch."""
    group = 16  # consecutive samples per series per batch
    series_count = 128
    batches = 30
    per_point = MetricStore(retention=3600.0)
    batched = MetricStore(retention=3600.0)
    total = batches * series_count * group

    start = time.perf_counter()
    at = 0.0
    for batch_index in range(batches):
        for offset in range(group):
            timestamp = at + offset * 0.1
            for series_index in range(series_count):
                per_point.record(
                    f"metric_{series_index}_total",
                    1.0,
                    timestamp,
                    {"instance": "a"},
                )
        at += group * 0.1
    per_point_s = time.perf_counter() - start

    start = time.perf_counter()
    at = 0.0
    for batch_index in range(batches):
        batch = [
            (
                f"metric_{series_index}_total",
                1.0,
                at + offset * 0.1,
                {"instance": "a"},
            )
            for series_index in range(series_count)
            for offset in range(group)
        ]
        batched.record_batch(batch)
        at += group * 0.1
    batched_s = time.perf_counter() - start

    assert len(per_point) == len(batched) == series_count
    return {
        "points": total,
        "per_point_pps": round(total / per_point_s),
        "batched_pps": round(total / batched_s),
        "batch_speedup": round(per_point_s / batched_s, 2),
    }


def test_incremental_engine_speedup(artifact_writer, history_appender):
    queries = _queries()
    assert len(queries) == NAME_COUNT * len(SHAPES)

    incremental_s, incremental_results, stats = _run_incremental(queries)
    baseline_s, baseline_results, = _run_baseline(queries)

    # Equivalence first: the incremental engine must compute the same
    # answers (within float re-summation noise) as the rescan reference.
    for query in queries:
        expected = baseline_results[query]
        got = incremental_results[query]
        if expected is None or got is None:
            assert got == expected, query
        else:
            assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-6), (
                query,
                got,
                expected,
            )

    speedup = baseline_s / incremental_s
    ingest = _run_ingest_bench()

    results = {
        "benchmark": "incremental_eval",
        "workload": {
            "checks": len(queries),
            "metric_names": NAME_COUNT,
            "instances_per_name": INSTANCES_PER_NAME,
            "window_s": WINDOW_S,
            "samples_in_window": int(WINDOW_S / SCRAPE_SPACING_S),
            "ticks": TICKS,
        },
        "check_sweep": {
            "baseline_ms_per_tick": round(baseline_s * 1e3, 2),
            "incremental_ms_per_tick": round(incremental_s * 1e3, 2),
            "speedup": round(speedup, 1),
        },
        "plan": {
            "shared_nodes": stats["plan_shared_nodes"],
            "evaluations_saved": stats["plan_evaluations_saved"],
        },
        "aggregates": stats["aggregate"],
        "ingest": ingest,
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    rendered = json.dumps(results, indent=2)
    artifact_writer("incremental_eval.json", rendered)
    (REPO_ROOT / "BENCH_incremental.json").write_text(
        rendered + "\n", encoding="utf-8"
    )
    history_appender(
        "incremental_eval",
        {
            "speedup": results["check_sweep"]["speedup"],
            "incremental_ms_per_tick": results["check_sweep"][
                "incremental_ms_per_tick"
            ],
            "batched_pps": ingest["batched_pps"],
            "per_point_pps": ingest["per_point_pps"],
        },
    )

    assert stats["plan_shared_nodes"] >= NAME_COUNT  # the shared rate nodes
    assert ingest["batched_pps"] >= 1.2 * ingest["per_point_pps"], ingest
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental engine only {speedup:.1f}x faster "
        f"(need >= {SPEEDUP_FLOOR}x)"
    )
