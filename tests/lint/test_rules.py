"""Per-rule golden tests: every rule fires on a minimal fixture.

Each test lints a minimal document (or strategy) constructed to trip
exactly the rule under test, and asserts the stable code — and, for
document fixtures, the YAML line the diagnostic points at.
"""

from repro.core import (
    RoutingConfig,
    StrategyBuilder,
    TrafficSplit,
    canary_split,
    simple_basic_check,
    single_version,
)
from repro.lint import lint_strategy, lint_text

DEPLOYMENT = """\
deployment:
  services:
    svc:
      proxy: 127.0.0.1:7001
      stable: v1
      versions:
        v1: 127.0.0.1:9001
        v2: 127.0.0.1:9002
"""


def lint(document):
    return lint_text(document, file="test.yaml")


def codes(result):
    return {d.code for d in result.diagnostics}


def line_of(document, needle, occurrence=1):
    """1-based line number of the *occurrence*-th line containing needle."""
    seen = 0
    for number, line in enumerate(document.splitlines(), start=1):
        if needle in line:
            seen += 1
            if seen == occurrence:
                return number
    raise AssertionError(f"{needle!r} not found {occurrence} time(s)")


def by_code(result, code):
    found = [d for d in result.diagnostics if d.code == code]
    assert found, f"{code} not in {[d.code for d in result.diagnostics]}"
    return found


# -- BF1xx structural --------------------------------------------------------


def test_bf101_unreachable_state():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: start
        next: done
    - phase:
        name: orphan
        next: done
    - final:
        name: done
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF101")
    assert diagnostic.state == "orphan"
    assert diagnostic.span.line == line_of(document, "name: orphan")


def test_bf102_no_path_to_final():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: stuck
        next: stuck
    - final:
        name: done
"""
        + DEPLOYMENT
    )
    result = lint(document)
    # A pure self-loop is reported as the live-lock shape, not BF102...
    assert "BF103" in codes(result)
    # ...while a dead-end chain (no cycle, no final) is BF102.
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: a
        next: b
    - phase:
        name: b
        next: ghost
    - final:
        name: done
"""
        + DEPLOYMENT
    )
    result = lint(document)
    bf102 = by_code(result, "BF102")
    assert {d.state for d in bf102} == {"a", "b"}


def test_bf102_strategy_without_final_state():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: only
        next: only
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF102")
    assert "no final state" in diagnostic.message


def test_bf103_live_lock_cycle():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: start
        next: ping
    - phase:
        name: ping
        next: pong
    - phase:
        name: pong
        next: ping
    - final:
        name: done
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF103")
    assert diagnostic.state == "ping"
    assert "['ping', 'pong']" in diagnostic.message
    assert diagnostic.span.line == line_of(document, "name: ping")


def test_bf104_no_rollback_golden():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: canary
        routes:
          - route:
              from: svc
              to: v2
              filters:
                - traffic:
                    percentage: 10
        checks:
          - metric:
              name: m
              query: up
              validator: "<5"
              intervalTime: 1
              intervalLimit: 2
        next: done
        onFailure: done
    - final:
        name: done
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF104")
    assert diagnostic.severity.value == "error"
    assert diagnostic.span.line == line_of(document, "name: canary")
    assert "no rollback state" in diagnostic.message


def test_bf105_unsorted_thresholds_and_target_count():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: a
        checks:
          - metric:
              name: m
              query: up
              validator: "<5"
              intervalTime: 1
              intervalLimit: 2
        transitions:
          thresholds: [5, 3]
          targets: [done, a, done]
    - final:
        name: done
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF105")
    assert "not sorted" in diagnostic.message
    assert diagnostic.span.line == line_of(document, "thresholds: [5, 3]")

    mismatched = document.replace(
        "thresholds: [5, 3]", "thresholds: [3]"
    )
    result = lint(mismatched)
    [diagnostic] = by_code(result, "BF105")
    assert "ranges but 3 targets" in diagnostic.message


def test_bf105_duplicate_output_thresholds():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: a
        checks:
          - metric:
              name: m
              query: up
              validator: "<5"
              intervalTime: 1
              intervalLimit: 4
              thresholds: [2, 2]
              outcomes: [-1, 0, 1]
        transitions:
          thresholds: [0]
          targets: [rollback, done]
    - final:
        name: done
    - final:
        name: rollback
        rollback: true
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF105")
    assert "duplicate threshold" in diagnostic.message
    assert "output mapping" in diagnostic.message


def test_bf106_duration_shorter_than_interval():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: a
        duration: 10
        checks:
          - metric:
              name: slow
              query: up
              validator: "<5"
              intervalTime: 30
              intervalLimit: 2
        next: done
        onFailure: rollback
    - final:
        name: done
    - final:
        name: rollback
        rollback: true
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF106")
    assert "'slow'" in diagnostic.message
    assert diagnostic.state == "a"


def test_bf107_unknown_state_reference():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: a
        next: ghost
    - final:
        name: done
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF107")
    assert "'ghost'" in diagnostic.message


# -- BF2xx routing -----------------------------------------------------------


def test_bf201_split_overflow():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: a
        routes:
          - route:
              from: svc
              to: v2
              filters:
                - traffic:
                    percentage: 80
                - traffic:
                    percentage: 30
        next: done
    - final:
        name: done
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF201")
    assert "110" in diagnostic.message
    assert diagnostic.span.line == line_of(document, "from: svc")


def test_bf202_unknown_version_and_service():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: a
        routes:
          - route:
              from: svc
              to: v9
              filters:
                - traffic:
                    percentage: 10
          - route:
              from: ghost-svc
              to: v1
              filters:
                - traffic:
                    percentage: 10
        next: done
    - final:
        name: done
"""
        + DEPLOYMENT
    )
    result = lint(document)
    messages = [d.message for d in by_code(result, "BF202")]
    assert any("no version 'v9'" in m for m in messages)
    assert any("'ghost-svc'" in m for m in messages)


def test_bf203_unroutable_version():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: a
        duration: 1
        next: done
    - final:
        name: done
"""
        + DEPLOYMENT
    )
    result = lint(document)
    messages = [d.message for d in by_code(result, "BF203")]
    # Nothing is ever routed, so both declared versions are unroutable.
    assert any("'v1'" in m for m in messages)
    assert any("'v2'" in m for m in messages)


def test_bf204_sticky_discontinuity():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: ab
        routes:
          - route:
              from: svc
              to: v2
              filters:
                - traffic:
                    percentage: 50
                    sticky: true
        next: shuffle
    - phase:
        name: shuffle
        routes:
          - route:
              from: svc
              to: v2
              filters:
                - traffic:
                    percentage: 30
        next: done
    - final:
        name: done
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF204")
    assert diagnostic.state == "ab"
    assert diagnostic.severity.value == "info"
    assert diagnostic.span.line == line_of(document, "from: svc")


def test_bf205_shadow_targets_live_version():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: a
        routes:
          - route:
              from: svc
              to: v2
              filters:
                - traffic:
                    percentage: 30
          - route:
              from: svc
              to: v2
              filters:
                - traffic:
                    percentage: 50
                    shadow: true
        next: done
    - final:
        name: done
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF205")
    assert "duplicated load" in diagnostic.message


# -- BF3xx checks and metrics -------------------------------------------------


def test_bf301_malformed_query_golden():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: a
        checks:
          - metric:
              name: m
              query: "rate(http_requests_total"
              validator: "<5"
              intervalTime: 1
              intervalLimit: 2
        next: done
        onFailure: rollback
    - final:
        name: done
    - final:
        name: rollback
        rollback: true
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF301")
    assert diagnostic.span.line == line_of(document, "query:")
    assert "does not compile" in diagnostic.message


def test_bf301_invalid_regex_matcher():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: a
        checks:
          - metric:
              name: m
              query: 'up{v=~"["}'
              validator: "<5"
              intervalTime: 1
              intervalLimit: 2
        next: done
        onFailure: rollback
    - final:
        name: done
    - final:
        name: rollback
        rollback: true
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF301")
    assert diagnostic.span.line == line_of(document, "query:")
    assert "invalid regex" in diagnostic.message
    # The semantic rules skip a query that does not compile rather than
    # reason about its value range.
    assert "BF602" not in codes(result)


def test_bf301_skips_non_prometheus_providers():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: a
        checks:
          - metric:
              name: m
              provider: health
              query: "127.0.0.1:9001"
              validator: ">0.5"
              intervalTime: 1
              intervalLimit: 2
        next: done
        onFailure: rollback
    - final:
        name: done
    - final:
        name: rollback
        rollback: true
"""
        + DEPLOYMENT
    )
    assert "BF301" not in codes(lint(document))


def test_bf302_zero_weight_check():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: a
        checks:
          - metric:
              name: useless
              query: up
              validator: "<5"
              intervalTime: 1
              intervalLimit: 2
              weight: 0
          - metric:
              name: carries
              query: up
              validator: "<5"
              intervalTime: 1
              intervalLimit: 2
        next: done
        onFailure: rollback
    - final:
        name: done
    - final:
        name: rollback
        rollback: true
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF302")
    assert "'useless'" in diagnostic.message


def test_bf303_dead_outcome_range():
    # intervalLimit 4 bounds the aggregated result to [0, 4]; the range
    # (10, +inf) can never fire.
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: a
        checks:
          - metric:
              name: m
              query: up
              validator: "<5"
              intervalTime: 1
              intervalLimit: 4
              thresholds: [10]
              outcomes: [0, 1]
        next: done
        onFailure: rollback
    - final:
        name: done
    - final:
        name: rollback
        rollback: true
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF303")
    assert "can never fire" in diagnostic.message


def test_bf304_unguarded_exposure_on_exception_check():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: promoted
        routes:
          - route:
              from: svc
              to: v2
              filters:
                - traffic:
                    percentage: 80
        checks:
          - metric:
              name: guard
              type: exception
              fallback: rollback
              query: up
              validator: "<5"
              intervalTime: 1
              intervalLimit: 2
        next: done
    - final:
        name: done
    - final:
        name: rollback
        rollback: true
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF304")
    assert "80%" in diagnostic.message
    assert diagnostic.fix is not None
    # Declaring a policy silences the rule.
    guarded = document.replace(
        "fallback: rollback", "fallback: rollback\n              onProviderError: tolerate(2)"
    )
    assert "BF304" not in codes(lint(guarded))


def test_bf305_unmonitored_exposure_golden():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: blind
        duration: 5
        routes:
          - route:
              from: svc
              to: v2
              filters:
                - traffic:
                    percentage: 25
        next: done
    - final:
        name: done
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF305")
    assert diagnostic.state == "blind"
    assert "['v2']" in diagnostic.message
    assert diagnostic.span.line == line_of(document, "from: svc")


# -- BF4xx deployment and resilience ------------------------------------------


def test_bf401_safe_routing_unknown_version():
    builder = StrategyBuilder("t")
    builder.service("svc", {"v1": "h:1", "v2": "h:2"})
    builder.state("a").route("svc", canary_split("v1", "v2", 10.0)).dwell(1).goto(
        "done"
    )
    builder.state("done").route("svc", single_version("v2")).final()
    strategy = builder.build()
    bad_safe = {"svc": RoutingConfig(splits=[TrafficSplit("ghost", 100.0)])}
    result = lint_strategy(strategy, safe_routing=bad_safe)
    [diagnostic] = by_code(result, "BF401")
    assert "'ghost'" in diagnostic.message

    unknown_service = {"mystery": RoutingConfig(splits=[TrafficSplit("v1", 100.0)])}
    result = lint_strategy(strategy, safe_routing=unknown_service)
    [diagnostic] = by_code(result, "BF401")
    assert "'mystery'" in diagnostic.message


def test_bf402_final_state_with_checks():
    document = (
        """\
strategy:
  name: t
  phases:
    - phase:
        name: a
        next: done
    - final:
        name: done
        checks:
          - metric:
              name: dead
              query: up
              validator: "<5"
              intervalTime: 1
              intervalLimit: 2
"""
        + DEPLOYMENT
    )
    result = lint(document)
    [diagnostic] = by_code(result, "BF402")
    assert diagnostic.state == "done"
    # The compiler rejects checks on final phases, so BF002 fires too —
    # the document is both smelly and uncompilable.
    assert "BF002" in codes(result)


def test_bf403_shared_proxy_endpoint():
    document = """\
strategy:
  name: t
  phases:
    - phase:
        name: a
        duration: 1
        next: done
    - final:
        name: done
deployment:
  services:
    svc:
      proxy: 127.0.0.1:7001
      stable: v1
      versions:
        v1: 127.0.0.1:9001
    other:
      proxy: 127.0.0.1:7001
      stable: w1
      versions:
        w1: 127.0.0.1:9101
"""
    result = lint(document)
    [diagnostic] = by_code(result, "BF403")
    assert "share proxy endpoint" in diagnostic.message
    assert "'127.0.0.1:7001'" in diagnostic.message
