"""The metric store: an in-process stand-in for Prometheus' TSDB.

Holds many :class:`~repro.metrics.series.TimeSeries` and answers selector
queries (metric name + label matchers).  The Bifrost engine never touches
this directly; it goes through the query language
(:mod:`repro.metrics.query`) or over HTTP (:mod:`repro.metrics.server`),
matching the paper's engine→Prometheus integration.

Selectors are the hot path — every check tick of every parallel strategy
lands here — so the store keeps a per-metric-name index (``select`` touches
only series of that name, not all series), memoizes compiled anchored
regexes for ``=~``/``!~`` matchers, and caches resolved ``(name, matchers)``
selector results until a new series appears under that name.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .series import SeriesKey, TimeSeries


@lru_cache(maxsize=1024)
def _compile_anchored(pattern: str) -> re.Pattern[str]:
    """Compiled ``^(?:pattern)$`` — shared by every ``=~``/``!~`` matcher."""
    return re.compile(f"^(?:{pattern})$")


@dataclass(frozen=True)
class LabelMatcher:
    """One label matcher: ``name op value`` with op in ``= != =~ !~``."""

    label: str
    op: str
    value: str

    def __post_init__(self) -> None:
        if self.op not in ("=", "!=", "=~", "!~"):
            raise ValueError(f"unknown label matcher op: {self.op!r}")

    def matches(self, labels: dict[str, str]) -> bool:
        actual = labels.get(self.label, "")
        if self.op == "=":
            return actual == self.value
        if self.op == "!=":
            return actual != self.value
        anchored = _compile_anchored(self.value)
        if self.op == "=~":
            return bool(anchored.match(actual))
        return not anchored.match(actual)


class MetricStore:
    """All series known to one metrics provider instance."""

    def __init__(self, retention: float | None = None):
        #: Samples older than ``now - retention`` are dropped on ingest.
        self.retention = retention
        self._series: dict[SeriesKey, TimeSeries] = {}
        #: Name index: every series bucketed by metric name.
        self._by_name: dict[str, list[TimeSeries]] = {}
        #: Resolved selector cache, invalidated per name on series creation.
        self._selector_cache: dict[str, dict[tuple[LabelMatcher, ...], list[TimeSeries]]] = {}
        #: Bumped on every mutation; lets callers detect "store changed".
        self.generation = 0
        #: Bumped only when the *shape* of the store changes (a series is
        #: created or the store is cleared) — sample appends leave it
        #: untouched.  Structural caches (histogram bucket layouts,
        #: resolved selectors) key on this instead of :attr:`generation`,
        #: which advances on every single sample.
        self.series_generation = 0

    def record(
        self,
        name: str,
        value: float,
        timestamp: float,
        labels: dict[str, str] | None = None,
    ) -> None:
        """Append one sample, creating the series on first sight."""
        key = SeriesKey.make(name, labels)
        series = self._series.get(key)
        if series is None:
            series = TimeSeries(key)
            self._series[key] = series
            self._by_name.setdefault(name, []).append(series)
            # A new series can change what any cached selector for this
            # name matches, so resolved selectors start over.
            self._selector_cache.pop(name, None)
            self.series_generation += 1
        series.append(timestamp, value)
        if self.retention is not None:
            # O(1) guard: only pay the bisect + list surgery when the
            # oldest retained sample has actually expired.
            oldest = series.oldest_timestamp
            if oldest is not None and oldest < timestamp - self.retention:
                series.drop_before(timestamp - self.retention)
        self.generation += 1

    def record_batch(
        self,
        samples: Sequence[tuple[str, float, float, dict[str, str] | None]],
    ) -> int:
        """Append many ``(name, value, timestamp, labels)`` samples at once.

        The batch is atomic: every sample is validated against the store's
        current floors *and* earlier samples in the batch before anything
        is recorded, so an out-of-order sample mid-list raises
        :class:`ValueError` and leaves the store untouched.

        The win over per-point :meth:`record` is amortization: series/name
        lookup and selector-cache invalidation happen once per distinct
        series, the retention guard runs once per touched series, and
        :attr:`generation` bumps once for the whole batch — a scrape of M
        points costs one cache invalidation wave instead of M.
        """
        plan = self._plan_batch(samples)
        if not plan:
            return 0
        return self._apply_batch(plan)

    def _plan_batch(
        self,
        samples: Sequence[tuple[str, float, float, dict[str, str] | None]],
    ) -> dict[SeriesKey, list]:
        """Validate *samples* and group them by series; mutates nothing.

        Each plan entry is ``[key, last_timestamp, points]`` — one flat
        record per series so the per-sample hot loop pays at most one
        :class:`SeriesKey` hash, and none at all for runs of consecutive
        samples hitting the same series (the shape scrape batches have).
        """
        plan: dict[SeriesKey, list] = {}
        last_name: str | None = None
        last_labels: dict[str, str] | None = None
        entry: list | None = None
        for name, value, timestamp, labels in samples:
            if entry is None or name != last_name or labels != last_labels:
                key = SeriesKey.make(name, labels)
                entry = plan.get(key)
                if entry is None:
                    floor = None
                    series = self._series.get(key)
                    if series is not None:
                        latest = series.latest()
                        if latest is not None:
                            floor = latest.timestamp
                    entry = plan[key] = [key, floor, []]
                last_name = name
                last_labels = labels
            floor = entry[1]
            if floor is not None and timestamp < floor:
                raise ValueError(
                    f"out-of-order sample for {entry[0]}: {timestamp} < {floor}"
                )
            entry[1] = timestamp
            entry[2].append((timestamp, value))
        return plan

    def _apply_batch(self, plan: dict[SeriesKey, list]) -> int:
        """Apply a validated :meth:`_plan_batch` result; cannot fail."""
        ingested = 0
        retention = self.retention
        for key, _, points in plan.values():
            series = self._series.get(key)
            if series is None:
                series = TimeSeries(key)
                self._series[key] = series
                self._by_name.setdefault(key.name, []).append(series)
                self._selector_cache.pop(key.name, None)
                self.series_generation += 1
            for timestamp, value in points:
                series.append(timestamp, value)
            ingested += len(points)
            if retention is not None:
                newest = points[-1][0]
                oldest = series.oldest_timestamp
                if oldest is not None and oldest < newest - retention:
                    series.drop_before(newest - retention)
        if ingested:
            self.generation += 1
        return ingested

    def series(self, key: SeriesKey) -> TimeSeries | None:
        return self._series.get(key)

    def select(
        self, name: str, matchers: Sequence[LabelMatcher] | None = None
    ) -> list[TimeSeries]:
        """All series with metric *name* whose labels satisfy *matchers*."""
        bucket = self._by_name.get(name)
        if bucket is None:
            return []
        if not matchers:
            return list(bucket)
        cache_key = tuple(matchers)
        by_matchers = self._selector_cache.setdefault(name, {})
        cached = by_matchers.get(cache_key)
        if cached is not None:
            return list(cached)
        found = []
        for series in bucket:
            labels = series.key.label_dict()
            if all(matcher.matches(labels) for matcher in matchers):
                found.append(series)
        by_matchers[cache_key] = found
        return list(found)

    def names(self) -> set[str]:
        """All metric names with at least one series."""
        return set(self._by_name)

    def __len__(self) -> int:
        return len(self._series)

    def clear(self) -> None:
        self._series.clear()
        self._by_name.clear()
        self._selector_cache.clear()
        self.generation += 1
        self.series_generation += 1


def shard_index_for(name: str, shard_count: int) -> int:
    """Stable shard assignment: CRC-32 of the metric name, mod the count.

    CRC-32 is deterministic across processes and Python versions (unlike
    ``hash()``), so a metric name owns the same shard in every scrape
    worker, query evaluator, and benchmark run.
    """
    return zlib.crc32(name.encode("utf-8")) % shard_count


class ShardedMetricStore:
    """N :class:`MetricStore` partitions behind the ``MetricStore`` API.

    Series are hash-partitioned by **metric name** (every series of one
    name lives in exactly one shard), which makes the partitioning
    invisible to the query language: an instant selector, a range
    function, and a ``histogram_quantile`` bucket group each read a
    single metric name, so :mod:`repro.metrics.query` resolves the owning
    shard once per selector and evaluates there — cross-shard merging
    happens only where queries already reduce (aggregations, binary
    operators over different names).

    Each shard keeps its *own* generation counters, selector caches, and
    histogram bucket layouts.  That per-shard isolation scopes
    invalidation: ingest into one shard invalidates only that shard's
    cached query state, so under continuous scrape churn the evaluation
    plan's memoized results for the other shards' metrics stay live (see
    ``scoped_generation`` in :mod:`repro.metrics.plan`).
    """

    def __init__(self, shard_count: int = 4, retention: float | None = None):
        if shard_count < 1:
            raise ValueError("shard_count must be at least 1")
        self.retention = retention
        self.shard_count = shard_count
        self.shards: tuple[MetricStore, ...] = tuple(
            MetricStore(retention=retention) for _ in range(shard_count)
        )

    # -- partitioning -----------------------------------------------------

    def shard_index(self, name: str) -> int:
        """The index of the shard owning metric *name*."""
        return shard_index_for(name, self.shard_count)

    def shard_for(self, name: str) -> MetricStore:
        """The shard owning every series of metric *name*."""
        return self.shards[shard_index_for(name, self.shard_count)]

    # -- aggregate generation counters ------------------------------------

    @property
    def generation(self) -> int:
        """Sum of shard generations — monotonic, bumps on any mutation.

        Callers needing finer invalidation (only the shards a query can
        read) should use ``plan.scoped_generation`` instead.
        """
        return sum(shard.generation for shard in self.shards)

    @property
    def series_generation(self) -> int:
        """Sum of shard series generations (shape changes only)."""
        return sum(shard.series_generation for shard in self.shards)

    # -- MetricStore API ---------------------------------------------------

    def record(
        self,
        name: str,
        value: float,
        timestamp: float,
        labels: dict[str, str] | None = None,
    ) -> None:
        """Append one sample into the owning shard."""
        self.shards[shard_index_for(name, self.shard_count)].record(
            name, value, timestamp, labels
        )

    def record_batch(
        self,
        samples: Sequence[tuple[str, float, float, dict[str, str] | None]],
    ) -> int:
        """Batched ingest with the same atomicity as the monolithic store.

        Samples are routed by metric name, then *every* owning shard
        validates its slice of the batch before *any* shard applies one —
        a bad sample raises :class:`ValueError` with all shards' series
        and generation counters untouched.  No await separates planning
        from application, so under asyncio's single thread the cross-shard
        batch is atomic.
        """
        shard_count = self.shard_count
        by_shard: dict[int, list[tuple[str, float, float, dict[str, str] | None]]] = {}
        for sample in samples:
            by_shard.setdefault(
                shard_index_for(sample[0], shard_count), []
            ).append(sample)
        plans = [
            (self.shards[index], self.shards[index]._plan_batch(routed))
            for index, routed in by_shard.items()
        ]
        ingested = 0
        for shard, plan in plans:
            if plan:
                ingested += shard._apply_batch(plan)
        return ingested

    def series(self, key: SeriesKey) -> TimeSeries | None:
        return self.shard_for(key.name).series(key)

    def select(
        self, name: str, matchers: Sequence[LabelMatcher] | None = None
    ) -> list[TimeSeries]:
        return self.shard_for(name).select(name, matchers)

    def names(self) -> set[str]:
        names: set[str] = set()
        for shard in self.shards:
            names |= shard.names()
        return names

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def clear(self) -> None:
        for shard in self.shards:
            shard.clear()
