"""Shared scheduler vs per-task runner: observational equivalence.

The engine now runs every check through one :class:`CheckScheduler` heap
instead of one asyncio task per check.  These properties generate random
check populations — mixed basic/exception checks, random intervals and
repetition counts, random pass/fail/no-data value sequences, and random
``onProviderError`` policies — and run the same population through both
enactment paths under a :class:`VirtualClock`.  Execution timestamps,
observer streams, aggregation, and trigger instants must be identical.

A second family gives every query a virtual-time cost, so evaluations
can overrun their interval: ticks must then stay on the fixed-rate grid
``start + k·interval``, skip (never replay) the deadlines an evaluation
overran, and both paths must still agree.
"""

import asyncio

from hypothesis import given, settings, strategies as st

from repro.clock import VirtualClock
from repro.core import (
    CheckResult,
    CheckRunner,
    CheckScheduler,
    ExceptionCheck,
    ExceptionTriggered,
    MetricCondition,
    ProviderErrorPolicy,
    Timer,
    simple_basic_check,
)
from repro.metrics import StaticProvider
from tests.core.test_scheduler import TimedProvider

# Value sequences: 1.0 passes "<5", 99.0 fails it, None is "no data".
tick_values = st.lists(
    st.sampled_from([1.0, 99.0, None]), min_size=1, max_size=6
)

policies = st.one_of(
    st.just(ProviderErrorPolicy(mode="trigger")),
    st.just(ProviderErrorPolicy(mode="hold")),
    st.builds(
        ProviderErrorPolicy,
        mode=st.just("tolerate"),
        tolerance=st.integers(min_value=1, max_value=3),
    ),
)

check_specs = st.lists(
    st.tuples(
        st.booleans(),  # exception check?
        st.sampled_from([1.0, 2.0, 3.0, 5.0]),  # interval
        st.integers(min_value=1, max_value=6),  # repetitions
        tick_values,
        policies,
    ),
    min_size=1,
    max_size=5,
)


def build_checks(specs):
    """One check per spec, each reading its own provider key so the two
    runs consume identical value sequences regardless of interleaving."""
    checks, data = [], {}
    for index, (exceptional, interval, repetitions, values, policy) in enumerate(specs):
        query = f"q{index}"
        data[query] = list(values)
        if exceptional:
            checks.append(
                ExceptionCheck(
                    name=f"check{index}",
                    condition=MetricCondition.simple(query, "<5", provider="static"),
                    timer=Timer(interval, repetitions),
                    fallback_state="rollback",
                    on_provider_error=policy,
                )
            )
        else:
            checks.append(
                simple_basic_check(
                    f"check{index}", query, "<5", interval, repetitions,
                    threshold=1, provider="static",
                )
            )
    return checks, data


def normalize(outcome):
    if isinstance(outcome, ExceptionTriggered):
        return ("triggered", outcome.check.name, outcome.at)
    assert isinstance(outcome, CheckResult)
    return (
        "completed",
        outcome.aggregated,
        outcome.mapped,
        [(e.at, e.result) for e in outcome.executions],
    )


def observer_into(stream):
    def observer(check, execution):
        stream.setdefault(check.name, []).append((execution.at, execution.result))
    return observer


async def run_sequential_population(checks, data, horizon):
    clock = VirtualClock()
    providers = {"static": StaticProvider(dict(data))}
    observed: dict[str, list] = {}
    tasks = [
        asyncio.ensure_future(
            CheckRunner(check, providers, clock, observer_into(observed)).run_sequential()
        )
        for check in checks
    ]
    await asyncio.sleep(0)
    await clock.advance(horizon)
    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
    return [normalize(outcome) for outcome in outcomes], observed


async def run_scheduled_population(checks, data, horizon):
    clock = VirtualClock()
    providers = {"static": StaticProvider(dict(data))}
    observed: dict[str, list] = {}
    scheduler = CheckScheduler(clock)
    try:
        futures = [
            scheduler.schedule(check, providers, observer=observer_into(observed))
            for check in checks
        ]
        await asyncio.sleep(0)
        await clock.advance(horizon)
        outcomes = await asyncio.gather(*futures, return_exceptions=True)
    finally:
        await scheduler.close()
    return [normalize(outcome) for outcome in outcomes], observed


@settings(max_examples=60, deadline=None)
@given(check_specs)
def test_scheduler_equivalent_to_per_task_runner(specs):
    checks, data = build_checks(specs)
    horizon = max(check.timer.duration for check in checks) + 1.0

    async def scenario():
        sequential = await run_sequential_population(checks, data, horizon)
        scheduled = await run_scheduled_population(checks, data, horizon)
        assert scheduled == sequential

    asyncio.run(scenario())


@settings(max_examples=30, deadline=None)
@given(check_specs)
def test_scheduler_single_check_matches_runner_run(specs):
    """CheckRunner.run (scheduler path) ≡ run_sequential, check by check."""
    checks, data = build_checks(specs[:1])
    check = checks[0]
    horizon = check.timer.duration + 1.0

    async def one(method_name):
        clock = VirtualClock()
        providers = {"static": StaticProvider(dict(data))}
        observed: dict[str, list] = {}
        runner = CheckRunner(check, providers, clock, observer_into(observed))
        task = asyncio.ensure_future(getattr(runner, method_name)())
        await asyncio.sleep(0)
        await clock.advance(horizon)
        outcomes = await asyncio.gather(task, return_exceptions=True)
        return normalize(outcomes[0]), observed

    async def scenario():
        assert await one("run") == await one("run_sequential")

    asyncio.run(scenario())


# Dyadic intervals and costs keep every instant exact in binary floats.
timed_specs = st.lists(
    st.tuples(
        st.booleans(),  # exception check?
        st.sampled_from([0.5, 1.0, 2.0]),  # interval
        st.integers(min_value=1, max_value=5),  # repetitions
        tick_values,
        policies,
        st.integers(min_value=0, max_value=10),  # cost, in quarter seconds
    ),
    min_size=1,
    max_size=4,
)


def build_timed(specs):
    checks, data = build_checks([spec[:5] for spec in specs])
    costs = {f"q{index}": spec[5] * 0.25 for index, spec in enumerate(specs)}
    horizon = max(
        check.timer.repetitions * (check.timer.interval + costs[f"q{index}"])
        + costs[f"q{index}"]
        for index, check in enumerate(checks)
    ) + 1.0
    return checks, data, costs, horizon


async def run_timed_population(checks, data, costs, horizon, sequential):
    clock = VirtualClock()
    provider = TimedProvider(dict(data), clock, costs)
    providers = {"static": provider}
    observed: dict[str, list] = {}
    scheduler = CheckScheduler(clock)
    if sequential:
        waiters = [
            asyncio.ensure_future(
                CheckRunner(check, providers, clock, observer_into(observed)).run_sequential()
            )
            for check in checks
        ]
    else:
        waiters = [
            scheduler.schedule(check, providers, observer=observer_into(observed))
            for check in checks
        ]
    try:
        await asyncio.sleep(0)
        await clock.advance(horizon)
        outcomes = await asyncio.gather(*waiters, return_exceptions=True)
    finally:
        await scheduler.close()
    normalized = [normalize(outcome) for outcome in outcomes]
    return normalized, observed, provider.starts, scheduler.ticks_skipped


@settings(max_examples=60, deadline=None)
@given(timed_specs)
def test_ticks_stay_on_the_fixed_rate_grid_and_never_burst(specs):
    checks, data, costs, horizon = build_timed(specs)

    async def scenario():
        _, _, starts, skipped = await run_timed_population(
            checks, data, costs, horizon, sequential=False
        )
        expected_skips = 0
        for index, check in enumerate(checks):
            interval = check.timer.interval
            cost = costs[f"q{index}"]
            ticks = [at / interval for at in starts.get(f"q{index}", [])]
            assert ticks, "every check evaluates at least once"
            # Every evaluation starts on the grid start + k·interval.
            assert all(tick == int(tick) and tick >= 1 for tick in ticks)
            assert ticks[0] == 1
            for previous, following in zip(ticks, ticks[1:]):
                # The next tick is the first grid point after the previous
                # one that the evaluation did not overrun: no replays.
                first_free = int(previous) + 1
                while first_free * interval < previous * interval + cost:
                    first_free += 1
                assert following == first_free
                expected_skips += int(following - previous) - 1
        assert skipped == expected_skips

    asyncio.run(scenario())


@settings(max_examples=60, deadline=None)
@given(timed_specs)
def test_scheduler_equivalent_to_runner_when_evaluations_take_time(specs):
    checks, data, costs, horizon = build_timed(specs)

    async def scenario():
        sequential = await run_timed_population(
            checks, data, costs, horizon, sequential=True
        )
        scheduled = await run_timed_population(
            checks, data, costs, horizon, sequential=False
        )
        assert scheduled[:3] == sequential[:3]

    asyncio.run(scenario())
