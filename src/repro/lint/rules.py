"""The rule catalogue.

Each rule is a generator over a :class:`~repro.lint.model.LintModel`
registered with :func:`~repro.lint.registry.rule`.  Rules never raise on
malformed input — anything they cannot interpret they skip; reporting the
malformation is the job of a more specific rule (or of BF002, the
compile-failure diagnostic).

The catalogue (see ``docs/lint.md`` for the full reference):

=====  ======================  ========  =========================================
code   name                    severity  finding
=====  ======================  ========  =========================================
BF101  unreachable-state       error     state can never be entered
BF102  no-path-to-final        error     state cannot reach any final state
BF103  possible-live-lock      warning   cycle with no escape toward a final state
BF104  no-rollback             error     checks run but no rollback is reachable
BF105  bad-thresholds          error     threshold list has gaps/overlaps/NaN
BF106  ineffective-duration    warning   duration shorter than one check interval
BF107  unknown-state           error     transition targets an undeclared state
BF201  split-overflow          error     live splits exceed 100% of traffic
BF202  unknown-version         error     routed version missing from deployment
BF203  unroutable-version      warning   deployed version never routed or shadowed
BF204  sticky-discontinuity    info      sticky state followed by non-sticky one
BF205  shadow-live-target      warning   shadow duplicates onto a live version
BF301  bad-metric-query        error     metric query does not compile
BF302  zero-weight-check       warning   basic check with weight 0
BF303  dead-outcome            warning   output mapping range that can never fire
BF304  unguarded-exposure      warning   trigger-on-error check at high exposure
BF305  unmonitored-exposure    warning   live exposure without any checks
BF401  bad-safe-routing        error     safe_routing names unknown service/version
BF402  final-with-checks       warning   final state declares checks
BF403  shared-proxy            warning   two services behind one proxy endpoint
BF501  unknown-fault-target    error     chaos fault targets nothing that exists
BF502  fault-outside-phase     error     fault schedule not scoped to a known phase
BF503  missing-steady-state    error     faults declared without any hypothesis
=====  ======================  ========  =========================================

The BF6xx semantic rules (abstract interpretation of check conditions,
symbolic exposure exploration, chaos × steady-state contradictions) live
in :mod:`repro.lint.semantic`.
"""

from __future__ import annotations

import math
from typing import Iterator

from ..metrics.query import QueryError
from .diagnostics import Diagnostic, LintConfig, Severity
from .model import LintModel, StateInfo
from .registry import declare, rule

# BF0xx rules are raised by the engine itself, not by a model pass.
PARSE_ERROR = declare(
    "BF001", "parse-error", Severity.ERROR,
    "the document is not in the supported YAML subset", blocking=True,
)
COMPILE_ERROR = declare(
    "BF002", "compile-error", Severity.ERROR,
    "the document does not compile into the release model", blocking=True,
)
BAD_LINT_CONFIG = declare(
    "BF003", "bad-lint-config", Severity.WARNING,
    "the document's lint: section is malformed",
)


# -- shared graph helpers ---------------------------------------------------


def _reached(model: LintModel) -> set[str]:
    if model.start is None or model.start not in model.states:
        return set(model.states)
    return {model.start} | model.reachable_from(model.start)


def _can_reach_final(model: LintModel) -> set[str]:
    """States from which at least one final state is reachable."""
    reverse: dict[str, list[str]] = {name: [] for name in model.states}
    for name in model.states:
        for successor in model.successors(name):
            reverse[successor].append(name)
    seen = set(model.final_states())
    queue = list(seen)
    while queue:
        for predecessor in reverse[queue.pop()]:
            if predecessor not in seen:
                seen.add(predecessor)
                queue.append(predecessor)
    return seen


def _doomed_components(model: LintModel, can_finish: set[str]) -> list[list[str]]:
    """Strongly connected components that cannot reach a final state.

    Only *cyclic* components count (size > 1, or a self-loop): these are
    the live-lock shapes — enactment enters and never leaves.
    """
    index = 0
    indices: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []

    def strongconnect(root: str) -> None:
        nonlocal index
        work = [(root, iter(model.successors(root)))]
        indices[root] = lowlink[root] = index
        index += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in indices:
                    indices[successor] = lowlink[successor] = index
                    index += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(model.successors(successor))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], indices[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)

    for name in model.states:
        if name not in indices:
            strongconnect(name)

    doomed = []
    for component in components:
        if any(member in can_finish for member in component):
            continue
        cyclic = len(component) > 1 or component[0] in model.successors(component[0])
        if cyclic:
            doomed.append(sorted(component))
    doomed.sort()
    return doomed


# -- BF1xx: automaton structure ---------------------------------------------


@rule(
    "BF101", "unreachable-state", Severity.ERROR,
    "a declared state can never be entered from the start state",
    blocking=True,
)
def unreachable_state(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    reached = _reached(model)
    entry = model.states.get(model.start or "")
    for name, state in model.states.items():
        if name not in reached:
            yield unreachable_state.rule.diagnostic(
                f"state {name!r} is unreachable from the start state"
                + (f" {model.start!r}" if entry is not None else ""),
                span=state.span,
                state=name,
                fix="add a transition leading to it, or remove the state",
            )


@rule(
    "BF102", "no-path-to-final", Severity.ERROR,
    "a state cannot reach any final state; enactment can never finish",
    blocking=True,
)
def no_path_to_final(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    if not model.states:
        return
    if not model.final_states():
        yield no_path_to_final.rule.diagnostic(
            "the strategy declares no final state; enactment cannot terminate",
            span=model.states[next(iter(model.states))].span,
        )
        return
    can_finish = _can_reach_final(model)
    reached = _reached(model)
    in_doomed_cycle = {
        member
        for component in _doomed_components(model, can_finish)
        for member in component
    }
    for name, state in model.states.items():
        if name in can_finish or name not in reached or name in in_doomed_cycle:
            continue
        yield no_path_to_final.rule.diagnostic(
            f"no final state is reachable from {name!r}; every path from "
            "here dead-ends or loops forever",
            span=state.span,
            state=name,
        )


@rule(
    "BF103", "possible-live-lock", Severity.WARNING,
    "a cycle of states has no exit toward a final state",
)
def possible_live_lock(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    if not model.final_states():
        return  # BF102 already reports the strategy-level problem
    can_finish = _can_reach_final(model)
    for component in _doomed_components(model, can_finish):
        anchor = component[0]
        yield possible_live_lock.rule.diagnostic(
            f"cycle {component} has no exit toward a final state",
            span=model.states[anchor].span,
            state=anchor,
        )


@rule(
    "BF104", "no-rollback", Severity.ERROR,
    "a state runs checks but no rollback-flagged final state is reachable",
)
def no_rollback(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    rollback_states = model.rollback_states()
    checked = [
        (name, state)
        for name, state in model.states.items()
        if not state.final and state.checks
    ]
    if not rollback_states:
        if checked:
            yield no_rollback.rule.diagnostic(
                "the strategy runs checks but declares no rollback state; "
                "a failing release has no safe exit",
                span=checked[0][1].span,
                fix="mark a final state with rollback: true",
            )
        return
    for name, state in checked:
        if not (model.reachable_from(name) & rollback_states):
            yield no_rollback.rule.diagnostic(
                "checks run here but no rollback state is reachable; "
                "a bad outcome cannot be reverted",
                span=state.span,
                state=name,
            )


def _threshold_problems(values: list) -> Iterator[str]:
    numbers = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            yield f"threshold {value!r} is not a number"
            return
        numbers.append(float(value))
    for value in numbers:
        if not math.isfinite(value):
            yield f"threshold {value!r} is not finite; range membership is undefined"
            return
    for left, right in zip(numbers, numbers[1:]):
        if left == right:
            yield (
                f"duplicate threshold {left:g} makes adjacent ranges overlap; "
                "the transition taken is ambiguous"
            )
            return
        if left > right:
            yield (
                f"thresholds are not sorted ({left:g} before {right:g}); "
                "the ranges gap and overlap instead of partitioning outcomes"
            )
            return


@rule(
    "BF105", "bad-thresholds", Severity.ERROR,
    "a threshold list has gaps, overlaps, duplicates, or non-finite values",
    blocking=True,
)
def bad_thresholds(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        if state.raw_thresholds is not None:
            for problem in _threshold_problems(state.raw_thresholds):
                yield bad_thresholds.rule.diagnostic(
                    f"transitions of state {name!r}: {problem}",
                    span=state.thresholds_span or state.span,
                    state=name,
                )
            if (
                state.raw_target_count is not None
                and not any(_threshold_problems(state.raw_thresholds))
                and state.raw_target_count != len(state.raw_thresholds) + 1
            ):
                yield bad_thresholds.rule.diagnostic(
                    f"transitions of state {name!r}: {len(state.raw_thresholds)} "
                    f"thresholds form {len(state.raw_thresholds) + 1} outcome "
                    f"ranges but {state.raw_target_count} targets are given; "
                    "the automaton would be stuck or ambiguous",
                    span=state.thresholds_span or state.span,
                    state=name,
                )
        for check in state.checks:
            if check.raw_output_thresholds is None:
                continue
            for problem in _threshold_problems(check.raw_output_thresholds):
                yield bad_thresholds.rule.diagnostic(
                    f"output mapping of check {check.name!r}: {problem}",
                    span=check.span or state.span,
                    state=name,
                )


@rule(
    "BF106", "ineffective-duration", Severity.WARNING,
    "a state's declared duration is shorter than one check interval",
)
def ineffective_duration(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        if state.final or state.duration is None or not state.checks:
            continue
        slowest = None
        for check in state.checks:
            if check.interval is None:
                continue
            if slowest is None or check.interval > slowest.interval:
                slowest = check
        if slowest is not None and state.duration < slowest.interval:
            yield ineffective_duration.rule.diagnostic(
                f"declared duration {state.duration:g}s is shorter than one "
                f"interval of check {slowest.name!r} ({slowest.interval:g}s); "
                "check timers dominate and the duration never takes effect",
                span=state.span,
                state=name,
            )


@rule(
    "BF107", "unknown-state", Severity.ERROR,
    "a transition or fallback targets a state that does not exist",
    blocking=True,
)
def unknown_state(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        seen: set[str] = set()
        for target in [*state.targets, *state.fallbacks]:
            if target in model.states or target in seen:
                continue
            seen.add(target)
            yield unknown_state.rule.diagnostic(
                f"state {name!r} references unknown state {target!r}",
                span=state.span,
                state=name,
            )


# -- BF2xx: routing ---------------------------------------------------------


@rule(
    "BF201", "split-overflow", Severity.ERROR,
    "a state's live traffic splits exceed 100% or are otherwise invalid",
    blocking=True,
)
def split_overflow(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        for service, route in state.routes.items():
            if route.config is not None:
                try:
                    route.config.validate()
                except Exception as exc:
                    yield split_overflow.rule.diagnostic(
                        f"routing of service {service!r}: {exc}",
                        span=route.span or state.span,
                        state=name,
                    )
                continue
            if any(percent < 0 for _, percent in route.splits):
                yield split_overflow.rule.diagnostic(
                    f"service {service!r} has a negative traffic percentage",
                    span=route.span or state.span,
                    state=name,
                )
            elif route.explicit_total > 100.0 + 1e-9:
                yield split_overflow.rule.diagnostic(
                    f"service {service!r} routes {route.explicit_total:g}% of "
                    "live traffic (more than 100%)",
                    span=route.span or state.span,
                    state=name,
                )


@rule(
    "BF202", "unknown-version", Severity.ERROR,
    "a routed version (or service) is absent from the deployment part",
    blocking=True,
)
def unknown_version(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    if not model.services:
        return  # nothing to check against
    for name, state in model.states.items():
        for service, route in state.routes.items():
            declared = model.services.get(service)
            if declared is None:
                yield unknown_version.rule.diagnostic(
                    f"service {service!r} is routed but not declared in the "
                    "deployment part",
                    span=route.span or state.span,
                    state=name,
                )
                continue
            referenced = [version for version, _ in route.splits]
            referenced.extend(target for _, target, _ in route.shadows)
            referenced.extend(
                source for source, _, _ in route.shadows if source is not None
            )
            seen: set[str] = set()
            for version in referenced:
                if version in declared or version in seen:
                    continue
                seen.add(version)
                yield unknown_version.rule.diagnostic(
                    f"service {service!r} has no version {version!r} in the "
                    f"deployment part (known: {sorted(declared)})",
                    span=route.span or state.span,
                    state=name,
                )


@rule(
    "BF203", "unroutable-version", Severity.WARNING,
    "a deployed version is never routed or shadowed by any state",
)
def unroutable_version(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    routed: dict[str, set[str]] = {service: set() for service in model.services}
    for state in model.states.values():
        for service, route in state.routes.items():
            bucket = routed.setdefault(service, set())
            bucket.update(version for version, _ in route.splits)
            bucket.update(target for _, target, _ in route.shadows)
            bucket.update(
                source for source, _, _ in route.shadows if source is not None
            )
            if model.has_source and service in model.stable:
                # The stable version absorbs the unrouted remainder of every
                # explicit split, so routing a service at all routes stable.
                bucket.add(model.stable[service])
    for service, declared in model.services.items():
        for version in sorted(set(declared) - routed.get(service, set())):
            yield unroutable_version.rule.diagnostic(
                f"version {version!r} of service {service!r} is declared "
                "but never routed or shadowed",
                fix="route it in some state, or drop it from the deployment",
            )


@rule(
    "BF204", "sticky-discontinuity", Severity.INFO,
    "a sticky state is followed by a non-sticky state for the same service",
)
def sticky_discontinuity(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        for service, route in state.routes.items():
            if not route.sticky:
                continue
            for target in dict.fromkeys(state.targets):
                successor = model.states.get(target)
                if successor is None or target == name or successor.final:
                    continue
                follow = successor.routes.get(service)
                if follow is not None and not follow.sticky:
                    yield sticky_discontinuity.rule.diagnostic(
                        f"sticky routing of {service!r} is followed by "
                        f"non-sticky state {target!r}; assignments may churn",
                        span=route.span or state.span,
                        state=name,
                    )


@rule(
    "BF205", "shadow-live-target", Severity.WARNING,
    "a shadow route duplicates traffic onto a version already serving live traffic",
)
def shadow_live_target(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        for service, route in state.routes.items():
            live = {
                version: percent
                for version, percent in route.splits
                if percent > 0
            }
            stable = model.stable_version(route)
            for source, target, _ in route.shadows:
                resolved_source = source if source is not None else stable
                if resolved_source is not None and target == resolved_source:
                    yield shadow_live_target.rule.diagnostic(
                        f"shadow route of service {service!r} duplicates "
                        f"{resolved_source!r} onto itself",
                        span=route.span or state.span,
                        state=name,
                    )
                elif target in live or (
                    target == stable and model.has_source
                ):
                    yield shadow_live_target.rule.diagnostic(
                        f"shadow route of service {service!r} targets "
                        f"{target!r}, which already serves live traffic in "
                        "this state; it would process duplicated load",
                        span=route.span or state.span,
                        state=name,
                    )


# -- BF3xx: checks and metric queries ---------------------------------------


@rule(
    "BF301", "bad-metric-query", Severity.ERROR,
    "a metric query does not compile and can never return data",
    blocking=True,
)
def bad_metric_query(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    from ..metrics.query import compile_query

    # chaos steady-state hypotheses are ordinary checks; their queries
    # must compile just like phase checks' queries do.
    groups = [
        (name, state.span, state.checks) for name, state in model.states.items()
    ]
    if model.chaos_steady:
        groups.append(("<chaos.steadyState>", None, model.chaos_steady))
    for name, state_span, checks in groups:
        seen: set[str] = set()
        for check in checks:
            for query in check.queries:
                # metrics/query.py speaks the PromQL subset; queries
                # bound to other providers use whatever syntax that
                # provider accepts and cannot be checked statically.
                if query.provider != "prometheus" or query.query in seen:
                    continue
                seen.add(query.query)
                try:
                    compile_query(query.query)
                except QueryError as exc:
                    yield bad_metric_query.rule.diagnostic(
                        f"metric query {query.query!r} of check "
                        f"{check.name!r} does not compile: {exc}",
                        span=query.span or check.span or state_span,
                        state=name,
                    )
                except Exception as exc:  # defensive: lint must not crash
                    yield bad_metric_query.rule.diagnostic(
                        f"metric query {query.query!r} of check "
                        f"{check.name!r} does not compile: {exc}",
                        span=query.span or check.span or state_span,
                        state=name,
                    )


@rule(
    "BF302", "zero-weight-check", Severity.WARNING,
    "a basic check has weight 0 and never influences the state outcome",
)
def zero_weight_check(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        for check in state.checks:
            if check.kind == "basic" and check.weight == 0:
                yield zero_weight_check.rule.diagnostic(
                    f"basic check {check.name!r} has weight 0; its result "
                    "never influences the state outcome",
                    span=check.span or state.span,
                    state=name,
                    fix="give it a positive weight, or remove the check",
                )


def _describe_range(thresholds: tuple[float, ...], index: int) -> str:
    if index == 0:
        return f"(-inf, {thresholds[0]:g}]"
    if index == len(thresholds):
        return f"({thresholds[-1]:g}, +inf)"
    return f"({thresholds[index - 1]:g}, {thresholds[index]:g}]"


@rule(
    "BF303", "dead-outcome", Severity.WARNING,
    "an output mapping range can never fire given the check's repetitions",
)
def dead_outcome(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        for check in state.checks:
            if (
                check.kind != "basic"
                or check.output_thresholds is None
                or check.output_results is None
                or check.repetitions is None
                or check.repetitions < 1
            ):
                continue
            thresholds = check.output_thresholds
            if any(not math.isfinite(t) for t in thresholds) or any(
                left >= right for left, right in zip(thresholds, thresholds[1:])
            ):
                continue  # BF105 reports malformed threshold lists
            if len(check.output_results) != len(thresholds) + 1:
                continue
            for index, result in enumerate(check.output_results):
                low = -math.inf if index == 0 else thresholds[index - 1]
                high = math.inf if index == len(thresholds) else thresholds[index]
                smallest = 0 if low == -math.inf else math.floor(low) + 1
                largest = (
                    check.repetitions if high == math.inf else math.floor(high)
                )
                if max(smallest, 0) > min(largest, check.repetitions):
                    yield dead_outcome.rule.diagnostic(
                        f"check {check.name!r}: outcome {result} for range "
                        f"{_describe_range(thresholds, index)} can never fire "
                        f"— the aggregated result is always within "
                        f"[0, {check.repetitions}]",
                        span=check.span or state.span,
                        state=name,
                    )


@rule(
    "BF304", "unguarded-exposure", Severity.WARNING,
    "an exception check uses the default trigger-on-provider-error policy "
    "while most traffic is exposed",
)
def unguarded_exposure(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        if state.final:
            continue
        exposed = model.exposure(state)
        if exposed <= config.max_unguarded_exposure:
            continue
        for check in state.checks:
            if check.kind == "exception" and check.provider_error_policy is None:
                yield unguarded_exposure.rule.diagnostic(
                    f"exception check {check.name!r} treats provider errors "
                    f"as failures (default onProviderError: trigger) while "
                    f"{exposed:g}% of traffic is exposed; a monitoring blip "
                    "would abort a mostly-promoted release",
                    span=check.span or state.span,
                    state=name,
                    fix="set onProviderError: tolerate(n) or hold",
                )


@rule(
    "BF305", "unmonitored-exposure", Severity.WARNING,
    "a state exposes a non-stable version to live traffic without any checks",
)
def unmonitored_exposure(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        if state.final or state.checks:
            continue
        for service, route in state.routes.items():
            stable = model.stable_version(route)
            start = 0 if model.has_source else 1  # legacy first-split convention
            exposed = [
                version
                for version, percent in route.splits[start:]
                if percent > 0 and version != stable
            ]
            if exposed:
                yield unmonitored_exposure.rule.diagnostic(
                    f"routes {exposed} of service {service!r} to live "
                    "traffic without any checks",
                    span=route.span or state.span,
                    state=name,
                )


# -- BF4xx: deployment and resilience ---------------------------------------


@rule(
    "BF401", "bad-safe-routing", Severity.ERROR,
    "a safe-routing override names an unknown service or version",
    blocking=True,
)
def bad_safe_routing(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    if not model.safe_routing or not model.services:
        return
    for service, routing in model.safe_routing.items():
        declared = model.services.get(service)
        if declared is None:
            yield bad_safe_routing.rule.diagnostic(
                f"safe_routing names service {service!r}, which the strategy "
                "does not declare",
            )
            continue
        versions = [split.version for split in getattr(routing, "splits", ())]
        versions.extend(
            shadow.target_version for shadow in getattr(routing, "shadows", ())
        )
        for version in dict.fromkeys(versions):
            if version not in declared:
                yield bad_safe_routing.rule.diagnostic(
                    f"safe_routing for service {service!r} names unknown "
                    f"version {version!r} (known: {sorted(declared)})",
                )


@rule(
    "BF402", "final-with-checks", Severity.WARNING,
    "a final state declares checks that will never run",
)
def final_with_checks(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for name, state in model.states.items():
        if state.final and state.checks:
            yield final_with_checks.rule.diagnostic(
                f"final state {name!r} declares {len(state.checks)} check(s); "
                "final states end enactment and never run checks",
                span=state.span,
                state=name,
                fix="move the checks into the preceding phase",
            )


@rule(
    "BF403", "shared-proxy", Severity.WARNING,
    "two services are deployed behind the same proxy endpoint",
)
def shared_proxy(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    by_address: dict[str, list[str]] = {}
    for service, address in model.proxies.items():
        by_address.setdefault(address, []).append(service)
    for address in sorted(by_address):
        services = by_address[address]
        if len(services) > 1:
            yield shared_proxy.rule.diagnostic(
                f"services {sorted(services)} share proxy endpoint "
                f"{address!r}; reconfiguring one clobbers the other",
                span=model.proxy_spans.get(services[0]),
            )


# -- BF5xx: chaos campaigns -------------------------------------------------


@rule(
    "BF501", "unknown-fault-target", Severity.ERROR,
    "a chaos fault targets nothing that exists",
    blocking=True,
)
def unknown_fault_target(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    from ..resilience.chaos import ChaosError, parse_target

    referenced_providers = {
        query.provider
        for state in model.states.values()
        for check in state.checks
        for query in check.queries
    } | {query.provider for check in model.chaos_steady for query in check.queries}
    for fault in model.chaos_faults:
        try:
            kind, target_name = parse_target(fault.target)
        except ChaosError as exc:
            yield unknown_fault_target.rule.diagnostic(
                f"fault {fault.name!r}: {exc}",
                span=fault.span,
            )
            continue
        if kind in ("upstream", "endpoint") and model.services:
            service = target_name.split("/", 1)[0]
            if service not in model.services:
                yield unknown_fault_target.rule.diagnostic(
                    f"fault {fault.name!r} targets unknown service "
                    f"{service!r}; declared: {sorted(model.services)}",
                    span=fault.span,
                )
            elif kind == "endpoint":
                version = target_name.split("/", 1)[1]
                if version not in model.services[service]:
                    yield unknown_fault_target.rule.diagnostic(
                        f"fault {fault.name!r} targets unknown version "
                        f"{version!r} of service {service!r}; declared: "
                        f"{sorted(model.services[service])}",
                        span=fault.span,
                    )
        elif kind == "provider" and referenced_providers:
            if target_name not in referenced_providers:
                yield unknown_fault_target.rule.diagnostic(
                    f"fault {fault.name!r} targets provider {target_name!r}, "
                    "which no check in the document queries; the fault would "
                    "never be observed",
                    span=fault.span,
                    fix="target a provider a check uses, or drop the fault",
                )


@rule(
    "BF502", "fault-outside-phase", Severity.ERROR,
    "a fault schedule is not scoped to any declared phase",
    blocking=True,
)
def fault_outside_phase(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    for fault in model.chaos_faults:
        if not fault.phases:
            yield fault_outside_phase.rule.diagnostic(
                f"fault {fault.name!r} has no 'during' phases; it would "
                "never arm",
                span=fault.span,
                fix="add during: [<phase>, ...] naming automaton phases",
            )
            continue
        if not model.states:
            continue
        for phase in fault.phases:
            if phase not in model.states:
                yield fault_outside_phase.rule.diagnostic(
                    f"fault {fault.name!r} is scheduled during unknown "
                    f"phase {phase!r}",
                    span=fault.span,
                )


@rule(
    "BF503", "missing-steady-state", Severity.ERROR,
    "chaos faults are declared without any steady-state hypothesis",
    blocking=True,
)
def missing_steady_state(model: LintModel, config: LintConfig) -> Iterator[Diagnostic]:
    if model.has_chaos and model.chaos_faults and not model.chaos_steady:
        yield missing_steady_state.rule.diagnostic(
            "the campaign declares faults but no steadyState checks; a game "
            "day without a hypothesis is just an outage",
            fix="add steadyState: checks the system must keep passing",
        )
