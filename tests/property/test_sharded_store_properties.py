"""Property-based equivalence: ShardedMetricStore ≡ MetricStore.

A sharded store is an implementation detail, not a semantic change: for
any interleaving of records and clears, at any shard count, every query
must answer exactly what the monolithic store answers, and the facade's
invalidation signal (generation movement) must fire under exactly the
same operations.
"""

from hypothesis import given, settings, strategies as st

from repro.metrics import (
    MetricStore,
    ShardedMetricStore,
    evaluate,
    shard_index_for,
)
from repro.metrics.plan import scoped_generation
from repro.metrics.query import compile_query, expression_names

NAME_POOL = [f"metric_{index}_total" for index in range(12)]
INSTANCE_POOL = ["inst-0", "inst-1", "inst-2"]

# An operation stream: records (name, instance, value) with monotonically
# increasing timestamps assigned by position, with occasional clears.
operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"),
            st.sampled_from(NAME_POOL),
            st.sampled_from(INSTANCE_POOL),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ),
        st.just(("clear",)),
    ),
    max_size=60,
)

shard_counts = st.integers(min_value=1, max_value=8)


def _apply(store, ops):
    for timestamp, op in enumerate(ops):
        if op[0] == "clear":
            store.clear()
        else:
            _, name, instance, value = op
            store.record(name, value, float(timestamp), {"instance": instance})


def _vector(store, query, at):
    return sorted(
        ((tuple(sorted(sample.labels.items())), sample.value)
         for sample in evaluate(store, query, at)),
    )


@settings(max_examples=60, deadline=None)
@given(operations, shard_counts)
def test_queries_answer_identically(ops, shards):
    mono = MetricStore()
    sharded = ShardedMetricStore(shard_count=shards)
    _apply(mono, ops)
    _apply(sharded, ops)

    at = float(len(ops) + 1)
    assert len(sharded) == len(mono)
    assert sharded.names() == mono.names()
    for name in NAME_POOL:
        assert _vector(sharded, name, at) == _vector(mono, name, at)
        assert _vector(sharded, f"sum({name})", at) == _vector(
            mono, f"sum({name})", at
        )
        assert _vector(
            sharded, f'rate({name}{{instance="inst-0"}}[30s])', at
        ) == _vector(mono, f'rate({name}{{instance="inst-0"}}[30s])', at)


@settings(max_examples=60, deadline=None)
@given(operations, shard_counts)
def test_retention_prunes_identically(ops, shards):
    mono = MetricStore(retention=10.0)
    sharded = ShardedMetricStore(shard_count=shards, retention=10.0)
    _apply(mono, ops)
    _apply(sharded, ops)
    at = float(len(ops) + 1)
    assert len(sharded) == len(mono)
    for name in NAME_POOL:
        assert _vector(sharded, name, at) == _vector(mono, name, at)


@settings(max_examples=60, deadline=None)
@given(operations, shard_counts)
def test_generation_moves_under_the_same_operations(ops, shards):
    """Invalidation equivalence, as deltas: after every operation the
    sharded facade's generation moved iff the monolithic store's did.
    (Absolute values differ — ``clear()`` bumps every shard's counter —
    but cache keys only care about *movement*.)"""
    mono = MetricStore()
    sharded = ShardedMetricStore(shard_count=shards)
    for timestamp, op in enumerate(ops):
        mono_before, sharded_before = mono.generation, sharded.generation
        if op[0] == "clear":
            mono.clear()
            sharded.clear()
        else:
            _, name, instance, value = op
            mono.record(name, value, float(timestamp), {"instance": instance})
            sharded.record(name, value, float(timestamp), {"instance": instance})
        assert (mono.generation != mono_before) == (
            sharded.generation != sharded_before
        )
        assert sharded.generation >= sharded_before  # monotonic facade


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(NAME_POOL),
    st.sampled_from(NAME_POOL),
    shard_counts,
)
def test_expression_generation_scopes_to_owning_shard(queried, recorded, shards):
    """Recording into a shard moves the stamps of exactly the expressions
    whose metric names live in that shard."""
    store = ShardedMetricStore(shard_count=shards)
    store.record(queried, 1.0, 0.0)
    names = expression_names(compile_query(f"sum({queried})"))
    before = scoped_generation(store, names)
    store.record(recorded, 2.0, 1.0)
    moved = scoped_generation(store, names) != before
    same_shard = shard_index_for(queried, shards) == shard_index_for(
        recorded, shards
    )
    assert moved == same_shard
    if queried == recorded:
        assert moved  # a query always sees writes to its own metric
