"""Incremental window aggregates vs the rescanning reference.

Random interleavings of appends, retention trims, and reads at assorted
instants and windows are driven through :func:`aggregate.range_value` and
cross-checked against :func:`aggregate.rescan_value` (the reference
reduction over ``window_arrays``).  With ``resum_interval=1`` the
incremental path must be *bitwise* equal — every eviction re-sums in the
reference's left-to-right order — and in the default mode drift stays
within float-noise tolerance while ``min``/``max``/``count`` remain exact
in every mode.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.metrics import SeriesKey, TimeSeries
from repro.metrics import aggregate

FUNCTIONS = sorted(aggregate.RANGE_REFERENCE)
EXACT_ALWAYS = {"min_over_time", "max_over_time", "count_over_time"}

deltas = st.floats(min_value=0.0, max_value=7.0, allow_nan=False)
values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
windows = st.sampled_from([3.0, 10.0, 25.0])

ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), deltas, values),
        st.tuples(st.just("trim"), st.floats(min_value=0.0, max_value=40.0)),
        # Read offset relative to the current write head; negative offsets
        # exercise the behind-the-newest-sample fallback path.
        st.tuples(st.just("read"), st.floats(min_value=-10.0, max_value=10.0)),
    ),
    min_size=1,
    max_size=50,
)


def _run(ops_list, window, check, resum_interval=None):
    series = TimeSeries(SeriesKey.make("m"))
    if resum_interval is not None:
        aggregate.state_for(series, window).resum_interval = resum_interval
    now = 0.0
    for op in ops_list:
        if op[0] == "append":
            now += op[1]
            series.append(now, op[2])
        elif op[0] == "trim":
            series.drop_before(now - op[1])
        else:
            at = now + op[1]
            for function in FUNCTIONS:
                expected = aggregate.rescan_value(series, function, window, at)
                got = aggregate.range_value(series, function, window, at)
                check(function, got, expected)
    # Always finish with a read so every interleaving checks something.
    for function in FUNCTIONS:
        expected = aggregate.rescan_value(series, function, window, now)
        got = aggregate.range_value(series, function, window, now)
        check(function, got, expected)


@settings(max_examples=200, deadline=None)
@given(ops_list=ops, window=windows)
def test_incremental_is_bitwise_exact_with_resum_interval_one(ops_list, window):
    def check(function, got, expected):
        assert got == expected, (function, got, expected)

    _run(ops_list, window, check, resum_interval=1)


@settings(max_examples=200, deadline=None)
@given(ops_list=ops, window=windows)
def test_incremental_is_close_with_default_interval(ops_list, window):
    def check(function, got, expected):
        if got is None or expected is None:
            assert got == expected, (function, got, expected)
        elif function in EXACT_ALWAYS:
            assert got == expected, (function, got, expected)
        else:
            assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-6), (
                function,
                got,
                expected,
            )

    _run(ops_list, window, check)


@settings(max_examples=100, deadline=None)
@given(
    values_list=st.lists(values, min_size=2, max_size=40),
    window=windows,
)
def test_monotonic_reads_are_exact_even_without_forced_resums(values_list, window):
    """Time-ordered reads after every append: the scheduler's access pattern."""
    series = TimeSeries(SeriesKey.make("m"))
    for index, value in enumerate(values_list):
        at = float(index)
        series.append(at, value)
        for function in ("min_over_time", "max_over_time", "count_over_time"):
            expected = aggregate.rescan_value(series, function, window, at)
            got = aggregate.range_value(series, function, window, at)
            assert got == expected, (function, got, expected)
