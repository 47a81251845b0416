"""Tests for cross-check evaluation plans (interning + per-tick memo)."""

from repro.clock import VirtualClock
from repro.metrics import (
    EvaluationPlan,
    LocalPrometheusProvider,
    MetricStore,
    ShardedMetricStore,
    evaluate_scalar,
    planner_for,
)
from repro.metrics.query import compile_query
from repro.metrics import plan
from repro.metrics.plan import Planner, subscribe


def _populated(store=None):
    if store is None:
        store = MetricStore()
    for t in range(30):
        store.record("hits_total", float(t * 2), float(t), {"instance": "a"})
        store.record("errs_total", float(t), float(t), {"instance": "a"})
    return store


def test_structurally_equal_subtrees_intern_once():
    planner = Planner()
    planner.subscribe(compile_query("rate(hits_total[10s]) * 100"))
    planner.subscribe(compile_query("rate(hits_total[10s]) + 1"))
    shared = compile_query("rate(hits_total[10s])")
    node = planner._nodes[shared]
    assert node.uses == 2
    assert planner.shared_nodes >= 1


def test_subscribe_is_idempotent_per_root():
    planner = Planner()
    expression = compile_query("sum(rate(hits_total[10s]))")
    first = planner.subscribe(expression)
    again = planner.subscribe(compile_query("sum(rate(hits_total[10s]))"))
    assert first is again
    assert first.uses == 1


def test_shared_node_evaluates_once_per_tick():
    store = _populated()
    planner = Planner()
    queries = ["rate(hits_total[10s]) * 100", "rate(hits_total[10s]) - 1"]
    for query in queries:
        planner.subscribe(compile_query(query))
    misses_before = planner.node_misses
    results = [planner.evaluate_scalar(store, query, 29.0) for query in queries]
    # 5 distinct nodes exist (2 roots, 1 shared rate, 2 scalars); the
    # second root reuses the shared rate node from the memo.
    assert planner.node_hits >= 1
    assert planner.node_misses - misses_before <= 5
    for query, got in zip(queries, results):
        assert got == evaluate_scalar(store, query, 29.0)


def test_memo_invalidated_by_ingest():
    store = _populated()
    planner = planner_for(store)
    query = "rate(hits_total[10s])"
    first = planner.evaluate_scalar(store, query, 29.0)
    store.record("hits_total", 1000.0, 29.0, {"instance": "a"})
    second = planner.evaluate_scalar(store, query, 29.0)
    assert second != first
    assert second == evaluate_scalar(store, query, 29.0)


def test_sharded_memo_survives_unrelated_shard_ingest():
    store = _populated(ShardedMetricStore(shard_count=4))
    # Pick a name living in a different shard than hits_total.
    other = next(
        f"pad_total_{i}"
        for i in range(64)
        if store.shard_index(f"pad_total_{i}") != store.shard_index("hits_total")
    )
    planner = planner_for(store)
    query = "rate(hits_total[10s])"
    planner.evaluate_scalar(store, query, 29.0)
    hits_before = planner.node_hits
    store.record(other, 1.0, 29.0)
    planner.evaluate_scalar(store, query, 29.0)
    # The ingest touched a shard the expression never reads: pure memo hit.
    assert planner.node_hits > hits_before


def test_evaluation_plan_fans_out_shared_subexpressions():
    store = _populated()
    plan = EvaluationPlan(
        store,
        {
            "scaled": "rate(hits_total[10s]) * 100",
            "shifted": "rate(hits_total[10s]) + 1",
            "errors": "rate(errs_total[10s])",
        },
    )
    assert len(plan) == 3
    assert plan.shared_nodes >= 1
    results = plan.evaluate_all(29.0)
    assert set(results) == {"scaled", "shifted", "errors"}
    for name, query in (
        ("scaled", "rate(hits_total[10s]) * 100"),
        ("shifted", "rate(hits_total[10s]) + 1"),
        ("errors", "rate(errs_total[10s])"),
    ):
        assert results[name] == evaluate_scalar(store, query, 29.0)
    assert plan.evaluations_saved >= 1


def test_planner_for_is_one_per_store():
    store_a, store_b = MetricStore(), MetricStore()
    assert planner_for(store_a) is planner_for(store_a)
    assert planner_for(store_a) is not planner_for(store_b)


def test_subscribe_warms_window_aggregates():
    store = _populated()
    subscribe(store, "sum(rate(hits_total[10s]))")
    series = store.select("hits_total")[0]
    assert series.aggregates is not None
    assert 10.0 in series.aggregates


def test_provider_routes_through_shared_plan():
    clock = VirtualClock(start=29.0)
    store = _populated()
    provider = LocalPrometheusProvider(store, clock=clock)
    provider.subscribe("rate(hits_total[10s]) * 100")
    planner = planner_for(store)
    roots_before = planner.cache_info()["roots"]
    assert roots_before >= 1


def test_malformed_subscription_is_ignored():
    store = MetricStore()
    provider = LocalPrometheusProvider(store, clock=VirtualClock())
    provider.subscribe("not a ((( query")  # must not raise


def test_string_and_compiled_query_share_one_root():
    store = _populated()
    planner = Planner()
    query = "sum(rate(hits_total[10s])) * 2"
    from_string = planner.subscribe(query)
    assert planner.subscribe(compile_query(query)) is from_string
    assert planner.subscribe(query) is from_string
    assert from_string.uses == 1
    assert planner.cache_info()["roots"] == 1
    # Evaluating either form is answered by the same root memo.
    first = planner.evaluate_scalar(store, query, 29.0)
    hits = planner.root_hits
    assert planner.evaluate_scalar(store, compile_query(query), 29.0) == first
    assert planner.root_hits == hits + 1


def test_string_queries_answer_after_root_limit_reset(monkeypatch):
    monkeypatch.setattr(plan, "_ROOT_LIMIT", 2)
    store = _populated()
    planner = Planner()
    queries = [
        "rate(hits_total[10s])",
        "rate(errs_total[10s])",
        "sum(rate(hits_total[10s]))",
    ]
    expected = {query: evaluate_scalar(store, query, 29.0) for query in queries}
    for query in queries[:2]:
        assert planner.evaluate_scalar(store, query, 29.0) == expected[query]
    assert set(planner._by_query) == set(queries[:2])
    # The third distinct string overflows the limit: the index, the roots
    # and the interned nodes start over, keeping only the new query.
    assert planner.evaluate_scalar(store, queries[2], 29.0) == expected[queries[2]]
    assert set(planner._by_query) == {queries[2]}
    assert planner.cache_info()["roots"] == 1
    planner._reset()
    assert planner._by_query == {} and planner.interned_nodes == 0
    # Queries dropped by a reset re-compile and still answer correctly.
    for query in queries:
        assert planner.evaluate_scalar(store, query, 29.0) == expected[query]
