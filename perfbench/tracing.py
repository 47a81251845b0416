"""Span recording around each layer's public boundary, for traced runs.

Imported only by the SUT process and only with ``--trace 1``.  Nothing in
``src/`` changes: :class:`Tracer` wraps public functions and methods at
class or module level, adds a middleware to every server through
``HttpServer.add_middleware``, and subscribes to the engine's
``EventBus``.  Spans stay in memory and are written out when the run
ends.

A span is ``[name, start, end, id, parent, request_id]``.  Inside the SUT
process the parent travels in a context variable; across an HTTP hop the
traced ``HttpClient.send`` puts its span id and the request id in two
headers, which the callee's middleware reads.  A layer's *self time* is
its span minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path

from stats import percentile

PARENT_HEADER = "X-Bench-Parent"
REQUEST_HEADER = "X-Bench-Request"

#: (span id, request id) of the innermost open tree span in this context.
_current: contextvars.ContextVar[tuple[int, int] | None] = contextvars.ContextVar(
    "bench_span", default=None
)


def covered(intervals, low: float, high: float) -> float:
    """Length of the union of *intervals*, each clipped to [low, high]."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if end > low and start < high
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the union of its children's intervals.

    Children may overlap each other (concurrent calls) or outlive their
    parent (a task it started); only the part inside the parent counts,
    and only once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, _, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered(children.get(span_id, ()), start, end)
        for _, start, end, span_id, _, _ in spans
    }


class Recorder:
    """Tree spans plus plain duration samples and counters, in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.spans: list[list] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)

    def open(self, name: str, parent: int | None, request: int | None) -> list:
        span_id = next(self._ids)
        return [name, self.clock(), 0.0, span_id, parent,
                span_id if request is None else request]

    def close(self, span: list) -> None:
        span[2] = self.clock()
        if self.enabled:
            self.spans.append(span)

    def sample(self, name: str, seconds: float) -> None:
        if self.enabled:
            self.samples[name].append(seconds)

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] += amount


def _traced_async(recorder: Recorder, name: str, function):
    """Wrap an async function in a tree span that children attach to."""

    async def traced(*args, **kwargs):
        current = _current.get()
        parent, request = current if current is not None else (None, None)
        span = recorder.open(name, parent, request)
        token = _current.set((span[3], span[5]))
        try:
            return await function(*args, **kwargs)
        finally:
            _current.reset(token)
            recorder.close(span)

    traced.__wrapped__ = function
    return traced


def _timed_sync(recorder: Recorder, name: str, function):
    def timed(*args, **kwargs):
        started = recorder.clock()
        try:
            return function(*args, **kwargs)
        finally:
            recorder.sample(name, recorder.clock() - started)

    timed.__wrapped__ = function
    return timed


def _timed_read(recorder: Recorder, name: str, function):
    """Time a message read from the moment its first bytes are buffered.

    Reading a request on a keep-alive connection first waits for the
    peer; that wait is idle time, not parsing, so it is excluded.
    """

    async def timed(reader, *args, **kwargs):
        if not reader._buffer and not reader.at_eof():
            await reader._wait_for_data(name)
        started = recorder.clock()
        message = await function(reader, *args, **kwargs)
        if message is not None:
            recorder.sample(name, recorder.clock() - started)
        return message

    return timed


class Tracer:
    """Installs the wrappers, runs the loop-lag probe, computes layer metrics."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.intervals: dict[str, dict[str, float]] = {}
        self.ticks: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.pending_max = 0
        self.bound_min: int | None = None
        self.providers: list = []
        self._probe: asyncio.Task | None = None

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Class- and module-level wrappers; call before the topology is built."""
        from repro.casestudy.documents import MongoClient
        from repro.core.checks import MetricCondition
        from repro.core.engine import Engine
        from repro.core.events import EventBus
        from repro.httpcore import HttpClient
        from repro.httpcore import client as client_module
        from repro.httpcore import server as server_module
        from repro.metrics import HttpPrometheusProvider
        from repro.metrics.plan import Planner
        from repro.metrics.scraper import Scraper
        from repro.metrics.store import MetricStore, ShardedMetricStore
        from repro.proxy import BifrostProxy, HttpProxyController
        from repro.proxy.filters import FilterChain
        from repro.proxy.shadow import Shadower
        from repro.proxy.sticky import StickyStore

        rec = self.recorder
        tracer = self

        send = HttpClient.send

        async def traced_send(client, request, host, port, timeout=None, stream=False):
            current = _current.get()
            parent, rid = current if current is not None else (None, None)
            if request.headers.get("X-Bifrost-Shadow") is not None:
                # A shadow copy runs on its own; the proxy never waits for it.
                parent, rid = None, None
            span = rec.open("httpcore.send", parent, rid)
            request.headers.set(PARENT_HEADER, str(span[3]))
            request.headers.set(REQUEST_HEADER, str(span[5]))
            token = _current.set((span[3], span[5]))
            try:
                return await send(client, request, host, port, timeout=timeout,
                                  stream=stream)
            finally:
                _current.reset(token)
                rec.close(span)

        HttpClient.send = traced_send

        server_module.read_request = _timed_read(
            rec, "httpcore.parse_request", server_module.read_request)
        client_module.read_response = _timed_read(
            rec, "httpcore.parse_response", client_module.read_response)

        relay = server_module.relay_body

        async def timed_relay(writer, stream):
            started = rec.clock()
            try:
                return await relay(writer, stream)
            finally:
                rec.sample("httpcore.relay", rec.clock() - started)

        server_module.relay_body = timed_relay

        open_connection = client_module.asyncio.open_connection

        async def counted_open_connection(*args, **kwargs):
            rec.count("httpcore.connects")
            return await open_connection(*args, **kwargs)

        # HttpClient is the only caller of asyncio.open_connection in the SUT.
        client_module.asyncio.open_connection = counted_open_connection

        FilterChain.decide = _timed_sync(rec, "proxy.decide", FilterChain.decide)

        sticky_get = StickyStore.get

        def counted_get(store, client_id):
            version = sticky_get(store, client_id)
            rec.count("proxy.sticky.gets")
            if version is not None:
                rec.count("proxy.sticky.hits")
            return version

        StickyStore.get = counted_get

        shadow = Shadower.shadow

        def counted_shadow(shadower, *args, **kwargs):
            accepted = shadow(shadower, *args, **kwargs)
            rec.count("proxy.shadow.offered")
            if accepted:
                rec.count("proxy.shadow.sent")
            if rec.enabled:
                tracer.pending_max = max(tracer.pending_max, shadower.in_flight)
                bound = shadower.effective_pending
                if tracer.bound_min is None or bound < tracer.bound_min:
                    tracer.bound_min = bound
            return accepted

        Shadower.shadow = counted_shadow
        BifrostProxy.install_plan = _timed_sync(
            rec, "proxy.install", BifrostProxy.install_plan)

        for method in ("insert", "find", "find_one", "update", "count"):
            setattr(MongoClient, method,
                    _traced_async(rec, "casestudy.mongo", getattr(MongoClient, method)))

        for store_class in (MetricStore, ShardedMetricStore):
            record_batch = store_class.record_batch

            def timed_batch(store, batch, *args, _original=record_batch, **kwargs):
                started = rec.clock()
                try:
                    return _original(store, batch, *args, **kwargs)
                finally:
                    rec.sample("metrics.ingest", rec.clock() - started)
                    rec.count("metrics.ingest.points", len(batch))

            store_class.record_batch = timed_batch

        scrape_partition = Scraper.scrape_partition

        async def timed_scrape(scraper, *args, **kwargs):
            started = rec.clock()
            try:
                return await scrape_partition(scraper, *args, **kwargs)
            finally:
                rec.sample("metrics.scrape", rec.clock() - started)

        # The scrape loops call scrape_partition; scrape_once is the
        # one-shot entry point built on it.
        Scraper.scrape_partition = timed_scrape

        query = _traced_async(rec, "metrics.query", HttpPrometheusProvider.query)

        async def counted_query(provider, text):
            try:
                return await query(provider, text)
            except Exception:
                rec.count("metrics.query.errors")
                raise

        HttpPrometheusProvider.query = counted_query
        Planner.evaluate = _timed_sync(rec, "metrics.eval", Planner.evaluate)
        MetricCondition.evaluate_detailed = _traced_async(
            rec, "core.check", MetricCondition.evaluate_detailed)
        HttpProxyController.apply = _traced_async(
            rec, "core.controller.apply", HttpProxyController.apply)

        publish = EventBus.publish

        async def timed_publish(bus, event):
            started = rec.clock()
            try:
                return await publish(bus, event)
            finally:
                rec.sample("core.bus.publish", rec.clock() - started)

        EventBus.publish = timed_publish

        enact = Engine.enact

        def recording_enact(engine, strategy, *args, **kwargs):
            tracer.intervals[strategy.name] = {
                check.name: check.timer.interval
                for state in strategy.automaton.states.values()
                for check in state.checks
            }
            return enact(engine, strategy, *args, **kwargs)

        Engine.enact = recording_enact

    def attach(self, sut) -> None:
        """Add the span middleware to every server and find the engine/provider."""
        from repro.casestudy.base import InstrumentedService
        from repro.casestudy.documents import MongoServer
        from repro.cluster import Gateway
        from repro.metrics import MetricsServer
        from repro.proxy import BifrostProxy

        for server in sut.servers():
            if isinstance(server, Gateway):
                layer = "cluster.gateway"
            elif isinstance(server, BifrostProxy):
                layer = "proxy"
            elif isinstance(server, InstrumentedService):
                layer = "casestudy.service"
            elif isinstance(server, MongoServer):
                layer = "casestudy.mongo_server"
            elif isinstance(server, MetricsServer):
                layer = "metrics.server"
            else:
                layer = "upstream"
            server.add_middleware(self._middleware(layer))
        engine = getattr(sut, "engine", None)
        if engine is not None:
            engine.bus.subscribe(self._on_event)
        provider = getattr(sut, "provider", None)
        if provider is not None:
            self.providers.append(provider)
        metrics = getattr(sut, "metrics", None) or getattr(
            getattr(sut, "app", None), "metrics", None)
        self.metrics_address = metrics.address if metrics is not None else None

    def _middleware(self, layer: str):
        rec = self.recorder

        async def middleware(request, handler):
            name = layer
            if layer == "proxy" and request.path.startswith("/bifrost/"):
                name = "proxy.admin"
            parent = request.headers.get(PARENT_HEADER)
            rid = request.headers.get(REQUEST_HEADER)
            span = rec.open(name, int(parent) if parent else None,
                            int(rid) if rid else None)
            token = _current.set((span[3], span[5]))
            try:
                return await handler(request)
            finally:
                _current.reset(token)
                rec.close(span)

        return middleware

    def _on_event(self, event) -> None:
        from repro.core.events import EventKind

        if event.kind is EventKind.CHECK_EXECUTED and self.recorder.enabled:
            self.ticks[(event.strategy, event.data.get("check"))].append(event.at)

    # -- the measured window ----------------------------------------------------

    async def _healthz(self) -> dict:
        if self.metrics_address is None:
            return {}
        from repro.httpcore import HttpClient

        enabled, self.recorder.enabled = self.recorder.enabled, False
        try:
            async with HttpClient() as client:
                response = await client.get(f"http://{self.metrics_address}/healthz")
                return response.json()["caches"]
        finally:
            self.recorder.enabled = enabled

    async def start(self) -> None:
        self.health_before = await self._healthz()
        self.recorder.enabled = True
        self._probe = asyncio.get_running_loop().create_task(self._probe_loop())

    async def _probe_loop(self) -> None:
        clock = self.recorder.clock
        while True:
            started = clock()
            await asyncio.sleep(0.001)
            self.recorder.sample("sut.loop_lag", max(0.0, clock() - started - 0.001))

    async def finish(self, sut, workload: str) -> dict:
        self.recorder.enabled = False
        if self._probe is not None:
            self._probe.cancel()
            try:
                await self._probe
            except asyncio.CancelledError:
                pass
        health_after = await self._healthz()
        self._write(workload)
        return self.layer_metrics(sut, self.health_before, health_after)

    def _write(self, workload: str) -> None:
        out = Path(__file__).resolve().parent / "out"
        out.mkdir(exist_ok=True)
        with open(out / f"trace-{workload}.jsonl", "w", encoding="utf-8") as handle:
            for span in self.recorder.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")

    # -- per-layer metrics --------------------------------------------------------

    def layer_metrics(self, sut, before: dict, after: dict) -> dict:
        rec = self.recorder
        spans = rec.spans
        own = self_times(spans)
        by_name: dict[str, list[float]] = defaultdict(list)
        self_by_name: dict[str, list[float]] = defaultdict(list)
        for span in spans:
            by_name[span[0]].append(span[2] - span[1])
            self_by_name[span[0]].append(own[span[3]])
        samples = rec.samples
        counts = rec.counts

        def p(values, q=50.0, scale=1.0):
            return percentile(values, q) * scale

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        def delta(cache, hit="hits", miss="misses"):
            if not after:
                return 0.0
            hits = after[cache][hit] - before[cache][hit]
            misses = after[cache][miss] - before[cache][miss]
            return ratio(hits, hits + misses)

        lags = []
        for (strategy, check), instants in self.ticks.items():
            interval = self.intervals.get(strategy, {}).get(check)
            if interval is None:
                continue
            lags.extend(b - a - interval for a, b in zip(instants, instants[1:]))
        sends = len(by_name["httpcore.send"])
        queries = len(by_name["metrics.query"])
        coalesced = sum(provider.coalesced for provider in self.providers)
        points = counts["metrics.ingest.points"]
        sticky_entries = sum(
            len(server.sticky_store) for server in sut.servers()
            if hasattr(server, "sticky_store")
        )
        us, ms = 1e6, 1e3
        metrics = {
            "httpcore.parse_request.us_p50": (p(samples["httpcore.parse_request"], scale=us), "us"),
            "httpcore.parse_response.us_p50": (p(samples["httpcore.parse_response"], scale=us), "us"),
            "httpcore.send.calls": (sends, "count"),
            "httpcore.send.self_us_p50": (p(self_by_name["httpcore.send"], scale=us), "us"),
            "httpcore.connects_per_kreq": (ratio(counts["httpcore.connects"] * 1000.0, sends), "count"),
            "httpcore.relay.ms_p50": (p(samples["httpcore.relay"], scale=ms), "ms"),
            "cluster.gateway.calls": (len(by_name["cluster.gateway"]), "count"),
            "cluster.gateway.self_us_p50": (p(self_by_name["cluster.gateway"], scale=us), "us"),
            "proxy.self_us_p50": (p(self_by_name["proxy"], scale=us), "us"),
            "proxy.decide.calls": (len(samples["proxy.decide"]), "count"),
            "proxy.decide.us_p50": (p(samples["proxy.decide"], scale=us), "us"),
            "proxy.sticky.hit_ratio": (ratio(counts["proxy.sticky.hits"], counts["proxy.sticky.gets"]), "1"),
            "proxy.sticky.entries": (sticky_entries, "count"),
            "proxy.shadow.offered": (counts["proxy.shadow.offered"], "count"),
            "proxy.shadow.sent_ratio": (ratio(counts["proxy.shadow.sent"], counts["proxy.shadow.offered"]), "1"),
            "proxy.shadow.pending_max": (self.pending_max, "count"),
            "proxy.shadow.bound_min": (self.bound_min or 0, "count"),
            "proxy.install.calls": (len(samples["proxy.install"]), "count"),
            "proxy.install.us_p50": (p(samples["proxy.install"], scale=us), "us"),
            "casestudy.service.self_ms_p50": (p(self_by_name["casestudy.service"], scale=ms), "ms"),
            "casestudy.mongo.calls": (len(by_name["casestudy.mongo"]), "count"),
            "casestudy.mongo.ms_p50": (p(by_name["casestudy.mongo"], scale=ms), "ms"),
            "metrics.ingest.points": (points, "count"),
            "metrics.ingest.us_per_point": (ratio(sum(samples["metrics.ingest"]) * us, points), "us"),
            "metrics.scrape.calls": (len(samples["metrics.scrape"]), "count"),
            "metrics.scrape.ms_p50": (p(samples["metrics.scrape"], scale=ms), "ms"),
            "metrics.query.calls": (queries, "count"),
            "metrics.query.ms_p50": (p(by_name["metrics.query"], scale=ms), "ms"),
            "metrics.query.errors": (counts["metrics.query.errors"], "count"),
            "metrics.eval.us_p50": (p(samples["metrics.eval"], scale=us), "us"),
            "metrics.memo.hit_ratio": (delta("query_memo"), "1"),
            "metrics.aggregate.hit_ratio": (delta("window_aggregates", miss="fallbacks"), "1"),
            "metrics.coalesced_ratio": (ratio(coalesced, queries), "1"),
            "core.check.evals": (len(by_name["core.check"]), "count"),
            "core.check.ms_p50": (p(by_name["core.check"], scale=ms), "ms"),
            "core.scheduler.tick_lag_ms_p50": (p(lags, scale=ms), "ms"),
            "core.scheduler.tick_lag_ms_p99": (p(lags, 99.0, scale=ms), "ms"),
            "core.controller.apply_ms_p50": (p(by_name["core.controller.apply"], scale=ms), "ms"),
            "core.bus.events": (len(samples["core.bus.publish"]), "count"),
            "core.bus.publish_us_p50": (p(samples["core.bus.publish"], scale=us), "us"),
            "sut.loop_lag_ms_p99": (p(samples["sut.loop_lag"], 99.0, scale=ms), "ms"),
        }
        return {name: [float(value), unit] for name, (value, unit) in metrics.items()}
