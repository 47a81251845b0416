"""Rescanning query evaluation: every range function reduces its window anew.

The shipped evaluator answers range functions from streaming window
aggregates (:func:`repro.metrics.aggregate.range_value`).  This oracle
walks the same AST but reduces each series' window from scratch with
:func:`repro.metrics.aggregate.rescan_value` — the seed engine's cost
model, used as the baseline and reference by the incremental-evaluation
benchmark and tests.  Leaves without a range window (selectors, scalars,
histogram quantiles) evaluate exactly as the shipped evaluator does.
"""

from repro.metrics.aggregate import rescan_value
from repro.metrics.query import (
    Aggregation,
    BinaryOp,
    Expression,
    FunctionCall,
    VectorSample,
    _combine,
    _eval,
    _reduce,
    compile_query,
    resolve_shard,
)
from repro.metrics.store import MetricStore


def evaluate(
    store: MetricStore, expression: Expression | str, at: float
) -> list[VectorSample]:
    """The instant vector of *expression* at *at*, rescanning every window."""
    if isinstance(expression, str):
        expression = compile_query(expression)
    if isinstance(expression, FunctionCall):
        selector = expression.argument
        result = []
        for series in resolve_shard(store, selector.name).select(
            selector.name, selector.matchers
        ):
            value = rescan_value(series, expression.function, selector.window, at)
            if value is not None:
                result.append(VectorSample(series.key.label_dict(), value))
        return result
    if isinstance(expression, Aggregation):
        return _reduce(expression.op, evaluate(store, expression.argument, at))
    if isinstance(expression, BinaryOp):
        return _combine(
            expression.op,
            evaluate(store, expression.left, at),
            evaluate(store, expression.right, at),
        )
    return _eval(store, expression, at)


def evaluate_scalar(
    store: MetricStore, expression: Expression | str, at: float
) -> float | None:
    """:func:`evaluate` summed to one number; ``None`` for an empty vector."""
    vector = evaluate(store, expression, at)
    if not vector:
        return None
    return sum(sample.value for sample in vector)
