"""Property tests for the query fast path.

Two equivalences back the optimizations:

* the compiled-query cache is invisible — a cached parse yields the exact
  same AST (frozen dataclasses compare structurally) and the same
  ``evaluate_scalar`` result as a fresh parse;
* the name-indexed, selector-cached ``MetricStore.select`` returns the same
  series set as the seed's reference linear scan over *all* series, for
  randomized label sets and every matcher operator.
"""

from hypothesis import given, settings, strategies as st

from repro.metrics import LabelMatcher, MetricStore, evaluate_scalar, parse
from repro.metrics.query import compile_query

metric_names = st.sampled_from(["requests", "errors", "latency", "m_a", "m_b"])
label_names = st.sampled_from(["instance", "zone", "code", "v"])
# Values double as =~/!~ patterns, so keep them valid (if boring) regexes.
label_values = st.from_regex(r"[a-z][a-z0-9]{0,6}", fullmatch=True)
matcher_ops = st.sampled_from(["=", "!=", "=~", "!~"])

series_defs = st.lists(
    st.tuples(metric_names, st.dictionaries(label_names, label_values, max_size=3)),
    min_size=1,
    max_size=30,
)
matcher_defs = st.lists(
    st.tuples(label_names, matcher_ops, label_values), max_size=3
)


def _build_store(definitions):
    store = MetricStore()
    recorded = []
    for index, (name, labels) in enumerate(definitions):
        store.record(name, float(index), float(index), labels)
        recorded.append((name, labels))
    return store, recorded


def _reference_select(recorded, store, name, matchers):
    """The seed implementation: linear scan over every series in the store."""
    found = []
    seen = set()
    for series_name, labels in recorded:
        key = (series_name, tuple(sorted(labels.items())))
        if key in seen:
            continue
        seen.add(key)
        if series_name != name:
            continue
        if all(matcher.matches(labels) for matcher in matchers):
            found.append(key)
    return found


@settings(max_examples=200)
@given(series_defs, metric_names, matcher_defs)
def test_indexed_select_matches_linear_scan(definitions, name, raw_matchers):
    store, recorded = _build_store(definitions)
    matchers = [LabelMatcher(label, op, value) for label, op, value in raw_matchers]
    expected = sorted(_reference_select(recorded, store, name, matchers))
    for _ in range(2):  # second call exercises the selector cache
        selected = sorted(
            (series.key.name, series.key.labels) for series in store.select(name, matchers)
        )
        assert selected == expected


@settings(max_examples=100)
@given(series_defs, metric_names, matcher_defs, st.dictionaries(label_names, label_values, max_size=2))
def test_selector_cache_invalidation_keeps_equivalence(definitions, name, raw_matchers, extra_labels):
    store, recorded = _build_store(definitions)
    matchers = [LabelMatcher(label, op, value) for label, op, value in raw_matchers]
    store.select(name, matchers)  # populate the cache
    store.record(name, 1.0, float(len(recorded)), extra_labels)  # maybe a new series
    recorded.append((name, extra_labels))
    expected = sorted(_reference_select(recorded, store, name, matchers))
    selected = sorted(
        (series.key.name, series.key.labels) for series in store.select(name, matchers)
    )
    assert selected == expected


# -- cached parse vs fresh parse ----------------------------------------------------

range_functions = st.sampled_from(
    ["rate", "increase", "avg_over_time", "max_over_time", "count_over_time"]
)
aggregations = st.sampled_from(["sum", "avg", "min", "max", "count"])


@st.composite
def query_strings(draw):
    name = draw(metric_names)
    matchers = draw(matcher_defs)
    rendered = ""
    if matchers:
        rendered = "{" + ", ".join(
            f'{label}{op}"{value}"' for label, op, value in matchers
        ) + "}"
    shape = draw(st.sampled_from(["selector", "range", "aggregated", "arith"]))
    if shape == "selector":
        return f"{name}{rendered}"
    if shape == "range":
        function = draw(range_functions)
        window = draw(st.sampled_from(["30s", "2m", "1h"]))
        return f"{function}({name}{rendered}[{window}])"
    if shape == "aggregated":
        aggregation = draw(aggregations)
        return f"{aggregation}({name}{rendered})"
    scalar = draw(st.integers(min_value=1, max_value=100))
    return f"{name}{rendered} * {scalar}"


@settings(max_examples=200)
@given(query_strings())
def test_cached_parse_equals_fresh_parse(query):
    assert compile_query(query) == parse(query)


@settings(max_examples=100)
@given(series_defs, query_strings())
def test_cached_and_fresh_parse_evaluate_identically(definitions, query):
    store, recorded = _build_store(definitions)
    at = float(len(recorded))
    fresh = evaluate_scalar(store, parse(query), at)
    cached = evaluate_scalar(store, compile_query(query), at)
    via_string = evaluate_scalar(store, query, at)
    assert fresh == cached == via_string
