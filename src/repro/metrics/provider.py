"""Metric providers: what the engine queries for check evaluation.

The paper's DSL names a provider per metric (Listing 1: ``prometheus``)
and the engine "continuously queries and observes monitoring data collected
by metrics providers or external services".  This module defines that
seam:

* :class:`MetricsProvider` — the interface (async ``query`` returning a
  scalar or ``None`` when no data exists yet),
* :class:`LocalPrometheusProvider` — evaluates against an in-process store,
* :class:`HttpPrometheusProvider` — queries a metrics server over HTTP
  (:mod:`repro.metrics.server`), exercising the same network path as the
  original engine→Prometheus integration,
* :class:`StaticProvider` — canned values for tests and examples.
"""

from __future__ import annotations

import asyncio
from urllib.parse import quote

from ..clock import Clock, RealClock
from ..httpcore import Headers, HttpClient, Request, Response, split_url
from . import plan
from .compile import compile_query
from .query import QueryError, expression_generation
from .store import MetricStore


class ProviderError(Exception):
    """The provider could not answer (unreachable, bad query, ...)."""


class MetricsProvider:
    """Interface between the engine and a monitoring backend."""

    name = "abstract"

    async def query(self, query: str) -> float | None:
        """Evaluate *query* now; ``None`` means "no data"."""
        raise NotImplementedError

    async def close(self) -> None:
        """Release any resources (HTTP connections)."""


#: Distinct query strings memoized per provider before the memo resets.
_INSTANT_CACHE_LIMIT = 4096


class LocalPrometheusProvider(MetricsProvider):
    """Evaluates mini-PromQL against an in-process store.

    Query strings go through the compiled-query cache
    (:mod:`repro.metrics.compile`), and results are memoized per instant:
    when parallel strategies issue the same query at the same clock tick
    against an unchanged store, the expression evaluates once and every
    other caller gets the cached scalar.  The memo is keyed per query on
    ``(tick, expression_generation)`` — for a sharded store that stamp
    covers only the shards the query can read, so scrape churn in one
    shard leaves memoized results for every other shard's metrics live.
    Under a real clock ``now()`` differs between calls, so the cache
    naturally degrades to a no-op; under the virtual clock of the
    scalability experiments it collapses N identical per-tick queries
    into one.
    """

    name = "prometheus"

    def __init__(self, store: MetricStore, clock: Clock | None = None):
        self.store = store
        self.clock = clock or RealClock()
        #: query string -> ((tick, scoped generation), value)
        self._instant_cache: dict[str, tuple[tuple[float, int], float | None]] = {}
        #: Memo tallies, for observability and the scale-out benchmark.
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def planner(self) -> "plan.Planner":
        """The store's shared evaluation planner (one per store)."""
        return plan.planner_for(self.store)

    def subscribe(self, query: str) -> None:
        """Pre-register *query* with the shared evaluation plan.

        Called by the check scheduler when a check is armed
        (:meth:`~repro.core.checks.MetricCondition.subscribe`): the query's
        subexpressions are interned into the store's plan DAG and its range
        windows get streaming aggregates, so the first tick already runs
        incrementally.  A malformed query is ignored here — evaluation
        surfaces the error through the normal no-data path.
        """
        try:
            expression = compile_query(query)
        except QueryError:
            return
        plan.subscribe(self.store, expression)

    async def query(self, query: str) -> float | None:
        now = self.clock.now()
        expression = compile_query(query)
        stamp = (now, expression_generation(self.store, expression))
        entry = self._instant_cache.get(query)
        if entry is not None and entry[0] == stamp:
            self.cache_hits += 1
            return entry[1]
        self.cache_misses += 1
        value = plan.evaluate_shared_scalar(self.store, expression, now)
        if len(self._instant_cache) >= _INSTANT_CACHE_LIMIT:
            self._instant_cache.clear()
        self._instant_cache[query] = (stamp, value)
        return value


class HttpPrometheusProvider(MetricsProvider):
    """Queries a metrics server's ``/api/v1/query`` endpoint.

    Queries are sent in **waves**: ``query`` only queues its query string,
    and the first query of a loop turn starts a wave task that, two loop
    turns later, takes every query queued meanwhile and sends
    them as pipelined ``GET /api/v1/query`` requests over one connection
    (:meth:`~repro.httpcore.HttpClient.send_many`).  A scheduler wave of N
    checks therefore costs one round trip, not N, while the server sees
    plain Prometheus-compatible requests.  Each query resolves as soon as
    its own response is parsed; a failed response fails only its query.

    Identical queries are *single-flighted*: a query already queued or in
    flight is not sent again, every caller awaits the same result — the
    network analogue of :class:`LocalPrometheusProvider`'s per-(tick,
    generation) memo.  Callers are shielded from each other: cancelling
    one never cancels the shared request.
    """

    name = "prometheus"

    def __init__(self, base_url: str, client: HttpClient | None = None):
        self.base_url = base_url.rstrip("/")
        self._client = client or HttpClient(timeout=10.0)
        self._owns_client = client is None
        self._inflight: dict[str, asyncio.Future[float | None]] = {}
        #: Queries waiting for the next wave, in arrival order.
        self._queued: list[str] = []
        self._waves: set[asyncio.Task[None]] = set()
        #: How many calls were answered by piggybacking on an in-flight
        #: request (observability for tests and benchmarks).
        self.coalesced = 0

    async def query(self, query: str) -> float | None:
        future = self._inflight.get(query)
        if future is not None:
            self.coalesced += 1
        else:
            loop = asyncio.get_running_loop()
            future = loop.create_future()
            self._inflight[query] = future
            if not self._queued:
                wave = loop.create_task(self._send_wave())
                self._waves.add(wave)
                wave.add_done_callback(self._waves.discard)
            self._queued.append(query)
        # Shield: a cancelled caller must not cancel the shared request
        # out from under the other callers of this query.
        return await asyncio.shield(future)

    async def _send_wave(self) -> None:
        # One more loop turn: a condition with several queries starts its
        # fetches under asyncio.gather, whose subtasks first run in the
        # turn after the wave task was created — they queue now.
        await asyncio.sleep(0)
        queries, self._queued = self._queued, []
        futures = [self._inflight[query] for query in queries]

        def answer(index: int, response: Response) -> None:
            try:
                value = _query_value(response)
            except Exception as exc:
                self._settle(queries[index], futures[index], error=exc)
            else:
                self._settle(queries[index], futures[index], value=value)

        try:
            # Parsed per wave, so a malformed base URL fails each query
            # (ProviderError, which onProviderError policies handle), not
            # the provider's construction.
            host, port, path = split_url(f"{self.base_url}/api/v1/query")
            authority = f"{host}:{port}"
            requests = [
                Request(
                    method="GET",
                    target=f"{path}?query={quote(query)}",
                    headers=Headers({"Host": authority}),
                )
                for query in queries
            ]
            await self._client.send_many(requests, host, port, on_response=answer)
        except Exception as exc:
            error = ProviderError(f"metrics server unreachable: {exc}")
            for query, future in zip(queries, futures):
                self._settle(query, future, error=error)

    def _settle(
        self,
        query: str,
        future: "asyncio.Future[float | None]",
        value: float | None = None,
        error: BaseException | None = None,
    ) -> None:
        if self._inflight.get(query) is future:
            del self._inflight[query]
        if future.done():
            return
        if error is None:
            future.set_result(value)
        else:
            future.set_exception(error)
            # Callers hold their own shielded reference; mark the exception
            # retrieved so a failure whose callers all left does not warn.
            future.exception()

    async def close(self) -> None:
        for wave in self._waves:
            wave.cancel()
        await asyncio.gather(*self._waves, return_exceptions=True)
        # A wave cancelled before its first step never settled its queries.
        self._queued.clear()
        error = ProviderError("provider closed")
        for query, future in list(self._inflight.items()):
            self._settle(query, future, error=error)
        if self._owns_client:
            await self._client.close()


def _query_value(response: Response) -> float | None:
    """The scalar of one ``/api/v1/query`` answer, or :class:`ProviderError`."""
    if response.status != 200:
        raise ProviderError(
            f"metrics server returned {response.status}: {response.body[:200]!r}"
        )
    payload = response.json()
    if payload.get("status") != "success":
        raise ProviderError(f"query failed: {payload.get('error')}")
    return payload["data"]["value"]


class HealthProvider(MetricsProvider):
    """Availability checks: probes a service's ``/healthz`` endpoint.

    The paper's scalability experiment runs checks that "target the
    availability of the product service" alongside Prometheus queries.
    The query string is the probed ``host:port`` (optionally with a path);
    the result is 1.0 when the service answers 200, else 0.0.
    """

    name = "health"

    def __init__(self, client: HttpClient | None = None):
        self._client = client or HttpClient(timeout=5.0)
        self._owns_client = client is None

    async def query(self, query: str) -> float | None:
        target = query if "/" in query.split(":", 1)[-1] else f"{query}/healthz"
        try:
            response = await self._client.get(f"http://{target}")
        except Exception:
            return 0.0
        return 1.0 if response.status == 200 else 0.0

    async def close(self) -> None:
        if self._owns_client:
            await self._client.close()


class StaticProvider(MetricsProvider):
    """Returns canned values, for unit tests and documentation examples.

    Values may be scalars (returned every time) or lists (consumed one per
    query, repeating the last element when exhausted).
    """

    name = "static"

    def __init__(self, values: dict[str, float | list[float] | None]):
        self._values = dict(values)
        self._cursors: dict[str, int] = {}
        #: Every query string seen, in order — lets tests assert scheduling.
        self.query_log: list[str] = []

    async def query(self, query: str) -> float | None:
        self.query_log.append(query)
        if query not in self._values:
            raise ProviderError(f"no canned value for query {query!r}")
        value = self._values[query]
        if isinstance(value, list):
            if not value:
                return None
            index = self._cursors.get(query, 0)
            self._cursors[query] = index + 1
            return value[min(index, len(value) - 1)]
        return value
