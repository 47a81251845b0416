"""Cross-check evaluation plans: intern subexpressions, evaluate once.

Many checks active in the same phase share query structure — twenty
canary checks might all contain ``rate(http_requests_total{...}[30s])``
somewhere in their expressions, wrapped in different arithmetic or
aggregations.  A per-query-string memo would never share work between two
*different* strings.

:class:`Planner` shares it structurally.  Compiled ASTs are frozen
dataclasses, so structurally identical subtrees compare (and hash) equal;
the planner interns every subexpression into a DAG of :class:`PlanNode`\\ s
where each distinct subtree exists once, no matter how many checks
reference it.  Evaluation walks the DAG with a per-node memo stamped
``(at, generation-of-the-node's-shards)`` (:func:`scoped_generation`):
within one tick every distinct node evaluates exactly once and the result
fans out to every subscribing expression — and a node reading only quiet
shards stays memoized across ingest into other shards too.

This memo is the only per-instant result cache on the query path.  A
repeated query at the same instant is answered by its root node's memo:
a query string maps to its root through one str-keyed dict, so the repeat
costs a dict hit and a stamp comparison.  Root-level hits and misses are
the metrics server's ``query_memo`` tallies.

One planner exists per store (:func:`planner_for`, weakly keyed);
:class:`~repro.metrics.provider.LocalPrometheusProvider` and the metrics
server both route through it, so checks sharing a store share one plan
regardless of which facade they query through.  The shared
:class:`~repro.core.scheduler.CheckScheduler` completes the picture: it
subscribes every scheduled check's queries up front
(:meth:`~repro.core.checks.MetricCondition.subscribe`) and dispatches
same-deadline ticks as one wave, so an aligned tick of N checks evaluates
each distinct node once.

Observability: ``plan_shared_nodes`` (distinct nodes referenced more than
once) and ``plan_evaluations_saved`` (memo hits, i.e. evaluations that
never ran) surface on the metrics server's ``/healthz``.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

from . import aggregate
from .query import (
    Aggregation,
    BinaryOp,
    Expression,
    FunctionCall,
    VectorSample,
    _combine,
    _eval,
    _reduce,
    compile_query,
    expression_names,
    resolve_shard,
)
from .store import MetricStore

#: Distinct subscribed roots (or indexed query strings) a planner keeps
#: before starting over.
_ROOT_LIMIT = 4096


def scoped_generation(store: MetricStore, names: frozenset[str]) -> int:
    """Generation stamp over only the shards that metric *names* live in.

    Memo entries stamped with it survive ingest into unrelated shards:
    with N shards, a scrape landing in one shard invalidates roughly 1/N
    of the memoized nodes instead of all of them.  An unsharded store
    answers its store-wide generation; no names (pure scalar arithmetic)
    means no store reads, so the stamp never moves.
    """
    shard_for = getattr(store, "shard_for", None)
    if shard_for is None:
        return store.generation
    if not names:
        return 0
    return sum(shard_for(name).generation for name in names)


class PlanNode:
    """One distinct subexpression in the interned DAG."""

    __slots__ = (
        "expression",
        "children",
        "names",
        "uses",
        "memo_stamp",
        "memo_value",
        "__weakref__",
    )

    def __init__(
        self, expression: Expression, children: tuple["PlanNode", ...]
    ):
        self.expression = expression
        self.children = children
        self.names = expression_names(expression)
        #: How many distinct parents/roots reference this node; > 1 means
        #: the node is shared across expressions.
        self.uses = 0
        self.memo_stamp: tuple[float, int] | None = None
        self.memo_value: list[VectorSample] = []

    def __repr__(self) -> str:
        return f"PlanNode({self.expression!r}, uses={self.uses})"


def _child_expressions(expression: Expression) -> tuple[Expression, ...]:
    """Independently-evaluable subexpressions of *expression*.

    Function calls and histogram quantiles are leaves: their range/bucket
    selectors cannot evaluate on their own, so the call itself is the
    smallest shareable unit.
    """
    if isinstance(expression, BinaryOp):
        return (expression.left, expression.right)
    if isinstance(expression, Aggregation):
        return (expression.argument,)
    return ()


class Planner:
    """Interned plan nodes plus the per-instant memo for one store."""

    def __init__(self) -> None:
        self._nodes: dict[Expression, PlanNode] = {}
        self._roots: dict[Expression, PlanNode] = {}
        #: Query string -> root node: a string query costs one str-keyed
        #: dict hit instead of hashing its frozen AST.
        self._by_query: dict[str, PlanNode] = {}
        self.node_hits = 0
        self.node_misses = 0
        #: Whole queries answered by their root's memo vs evaluated.
        self.root_hits = 0
        self.root_misses = 0

    # -- interning ---------------------------------------------------------

    def intern(self, expression: Expression) -> PlanNode:
        """The canonical node for *expression*, creating the DAG lazily."""
        node = self._nodes.get(expression)
        if node is not None:
            return node
        children = tuple(
            self.intern(child) for child in _child_expressions(expression)
        )
        node = PlanNode(expression, children)
        self._nodes[expression] = node
        return node

    def subscribe(self, expression: Expression | str) -> PlanNode:
        """Register *expression* as a root (a check query, a server query).

        The first subscription of a root walks its tree bumping each
        node's use count — that is what makes sharing visible: a node with
        ``uses > 1`` serves more than one subscriber.  Re-subscribing the
        same root is free and idempotent.  A query string is compiled once
        and indexed, so a string and its compiled AST share one root.
        """
        if isinstance(expression, str):
            node = self._by_query.get(expression)
            if node is None:
                if len(self._by_query) >= _ROOT_LIMIT:
                    self._reset()
                node = self.subscribe(compile_query(expression))
                self._by_query[expression] = node
            return node
        node = self._roots.get(expression)
        if node is not None:
            return node
        if len(self._roots) >= _ROOT_LIMIT:
            self._reset()
        node = self._roots[expression] = self.intern(expression)
        stack = [node]
        while stack:
            current = stack.pop()
            current.uses += 1
            stack.extend(current.children)
        return node

    def _reset(self) -> None:
        # Unbounded distinct roots would leak nodes: start over.
        self._nodes.clear()
        self._roots.clear()
        self._by_query.clear()

    # -- evaluation --------------------------------------------------------

    def evaluate(
        self, store: MetricStore, expression: Expression | str, at: float
    ) -> list[VectorSample]:
        """Evaluate through the shared plan; every distinct node runs once.

        Returns the memoized vector itself — callers must treat it as
        immutable (every in-tree caller only reads it).
        """
        return self._eval_root(store, self.subscribe(expression), at)

    def evaluate_scalar(
        self, store: MetricStore, expression: Expression | str, at: float
    ) -> float | None:
        vector = self.evaluate(store, expression, at)
        if not vector:
            return None
        return sum(sample.value for sample in vector)

    def _eval_root(
        self, store: MetricStore, node: PlanNode, at: float
    ) -> list[VectorSample]:
        misses = self.node_misses
        vector = self._eval_node(store, node, at)
        if self.node_misses == misses:
            self.root_hits += 1
        else:
            self.root_misses += 1
        return vector

    def _eval_node(
        self, store: MetricStore, node: PlanNode, at: float
    ) -> list[VectorSample]:
        stamp = (at, scoped_generation(store, node.names))
        if node.memo_stamp == stamp:
            self.node_hits += 1
            return node.memo_value
        self.node_misses += 1
        expression = node.expression
        if isinstance(expression, BinaryOp):
            value = _combine(
                expression.op,
                self._eval_node(store, node.children[0], at),
                self._eval_node(store, node.children[1], at),
            )
        elif isinstance(expression, Aggregation):
            value = _reduce(
                expression.op, self._eval_node(store, node.children[0], at)
            )
        else:
            value = _eval(store, expression, at)
        node.memo_stamp = stamp
        node.memo_value = value
        return value

    # -- observability -----------------------------------------------------

    @property
    def interned_nodes(self) -> int:
        return len(self._nodes)

    @property
    def shared_nodes(self) -> int:
        """Distinct nodes serving more than one subscriber."""
        return sum(1 for node in self._nodes.values() if node.uses > 1)

    @property
    def evaluations_saved(self) -> int:
        """Node evaluations answered from the memo instead of running."""
        return self.node_hits

    def cache_info(self) -> dict[str, int]:
        return {
            "roots": len(self._roots),
            "interned_nodes": self.interned_nodes,
            "plan_shared_nodes": self.shared_nodes,
            "plan_evaluations_saved": self.evaluations_saved,
            "node_hits": self.node_hits,
            "node_misses": self.node_misses,
        }


_PLANNERS: "WeakKeyDictionary[MetricStore, Planner]" = WeakKeyDictionary()


def planner_for(store: MetricStore) -> Planner:
    """The shared planner of *store* (one per store, created on demand)."""
    planner = _PLANNERS.get(store)
    if planner is None:
        planner = Planner()
        _PLANNERS[store] = planner
    return planner


def subscribe(store: MetricStore, expression: Expression | str) -> None:
    """Pre-register a root with the store's planner (check scheduling).

    Also warms streaming window aggregates for every range function the
    expression contains over the series it currently matches, so the
    subscription's first tick already evaluates incrementally.
    """
    stack = [planner_for(store).subscribe(expression)]
    while stack:
        current = stack.pop()
        stack.extend(current.children)
        inner = current.expression
        if isinstance(inner, FunctionCall) and inner.argument.window:
            selector = inner.argument
            owner = resolve_shard(store, selector.name)
            for series in owner.select(selector.name, selector.matchers):
                aggregate.state_for(series, selector.window)


class EvaluationPlan:
    """A named batch of subscribed queries evaluated as one per-tick wave.

    Build it from every check query active in a phase, call
    :meth:`evaluate_all` once per tick, and each distinct subexpression
    across the whole batch evaluates exactly once — the scalar results fan
    out per subscriber.
    """

    def __init__(self, store: MetricStore, queries: dict[str, Expression | str]):
        self.store = store
        self.planner = planner_for(store)
        self._roots: dict[str, PlanNode] = {
            name: self.planner.subscribe(expression)
            for name, expression in queries.items()
        }

    def evaluate_all(self, at: float) -> dict[str, float | None]:
        """One tick: every subscriber's scalar, shared nodes computed once."""
        results: dict[str, float | None] = {}
        for name, node in self._roots.items():
            vector = self.planner._eval_root(self.store, node, at)
            results[name] = (
                sum(sample.value for sample in vector) if vector else None
            )
        return results

    @property
    def shared_nodes(self) -> int:
        return self.planner.shared_nodes

    @property
    def evaluations_saved(self) -> int:
        return self.planner.evaluations_saved

    def __len__(self) -> int:
        return len(self._roots)


__all__ = [
    "EvaluationPlan",
    "PlanNode",
    "Planner",
    "planner_for",
    "scoped_generation",
    "subscribe",
]
