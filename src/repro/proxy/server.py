"""The Bifrost proxy.

One proxy fronts one service ("one-proxy-per-service", section 4.1).  It
intercepts every incoming request, runs the filter chain to pick a
version, optionally duplicates traffic to shadow versions, forwards the
request to the chosen version's endpoint, and relays the response —
issuing the client-identifying cookie when cookie routing demands it.

Admin endpoints (under ``/bifrost/``, configured by the engine):

* ``PUT /bifrost/config`` — apply a routing configuration + endpoints
* ``GET /bifrost/config`` — current configuration
* ``GET /bifrost/stats`` — per-version forward counters, shadow counters
* ``GET /bifrost/healthz`` — liveness

Without an applied configuration the proxy forwards everything to its
*default upstream* — the "Bifrost inactive" deployment mode measured in
the paper's overhead experiment.
"""

from __future__ import annotations

import logging
import random
import time

from ..core.routing import RoutingConfig, RoutingError
from ..httpcore import (
    Headers,
    HttpClient,
    HttpError,
    HttpServer,
    Request,
    Response,
    SetCookie,
)
from ..metrics import Registry, render_exposition_lines
from ..metrics.query import compile_query
from .filters import CLIENT_COOKIE, FilterChain, RoutingDecision
from .plan import EndpointRing, RoutingPlan, normalize_endpoints
from .shadow import Shadower
from .sticky import StickyStore

logger = logging.getLogger(__name__)

#: Hop-by-hop headers never forwarded upstream (RFC 7230 section 6.1).
#: Headers nominated by the ``Connection`` header are stripped as well.
_HOP_BY_HOP = frozenset(
    ("connection", "keep-alive", "te", "transfer-encoding", "upgrade")
)


class BifrostProxy(HttpServer):
    """A reverse proxy enforcing one service's dynamic routing state."""

    def __init__(
        self,
        service: str,
        default_upstream: str,
        host: str = "127.0.0.1",
        port: int = 0,
        client: HttpClient | None = None,
        seed: str = "bifrost",
        rng: random.Random | None = None,
        sticky_capacity: int = 100_000,
        sticky_ttl: float | None = None,
        shadow_max_pending: int = 1024,
        shadow_target_delay: float = 0.25,
        shadow_tee_capacity: int = 16,
        reuse_port: bool = False,
        stream_bodies: bool = True,
        max_body_bytes: int | None = None,
    ):
        super().__init__(
            host=host,
            port=port,
            name=f"proxy-{service}",
            reuse_port=reuse_port,
            stream_bodies=stream_bodies,
            max_body_bytes=max_body_bytes,
        )
        self.service = service
        self.default_upstream = default_upstream
        self.seed = seed
        self.rng = rng or random.Random()
        self._client = client or HttpClient(pool_size=64)
        self._owns_client = client is None
        self.sticky_store = StickyStore(capacity=sticky_capacity, ttl=sticky_ttl)
        self._chain: FilterChain | None = None
        self._endpoints: dict[str, list[str]] = {}
        self._rings: dict[str, EndpointRing] = {}
        self._default_ring = EndpointRing([default_upstream])
        #: Monotonic configuration version.  Every successful install (or
        #: clear) advances it; :meth:`install_plan` rejects stale versions,
        #: which is what makes worker-pool config fan-out idempotent and
        #: safe to retry.
        self.config_version = 0
        #: Forwarded requests per version name (plus "default").
        self.forwarded: dict[str, int] = {}
        self.upstream_errors = 0
        # Bound label children of the forward counter, memoized per version
        # so the hot path skips the label-validation dict dance.
        self._forward_counters: dict[str, object] = {}

        # Self-instrumentation: proxies expose their own metrics like any
        # other service, so the engine (or an operator) can put checks on
        # the middleware itself.
        self.registry = Registry()
        # Built after the registry so the shadower's adaptive-backpressure
        # metrics ride the same /metrics exposition.
        self.shadower = Shadower(
            self._client,
            max_pending=shadow_max_pending,
            target_delay=shadow_target_delay,
            tee_capacity=shadow_tee_capacity,
            registry=self.registry,
        )
        self._m_forwarded = self.registry.counter(
            "proxy_requests_total",
            "Requests forwarded, by version served",
            label_names=("version",),
        )
        self._m_upstream_errors = self.registry.counter(
            "proxy_upstream_errors_total", "Upstream connect/read failures"
        )
        self._m_forward_seconds = self.registry.histogram(
            "proxy_forward_seconds", "Time spent per forwarded request"
        )
        self._m_shadow_sent = self.registry.counter(
            "proxy_shadow_requests_total", "Shadow requests dispatched"
        )
        self._m_sticky = self.registry.gauge(
            "proxy_sticky_sessions", "Sticky assignments currently held"
        )
        self._m_shadow_dropped = self.registry.gauge(
            "proxy_shadow_dropped_total",
            "Shadow requests dropped by queue backpressure",
        )
        self._m_sticky_evicted = self.registry.gauge(
            "proxy_sticky_evictions_total",
            "Sticky assignments evicted (capacity) or expired (TTL)",
        )

        #: Circuit breakers surfaced on ``/bifrost/healthz`` — anything
        #: with a ``snapshot()`` (see ``CircuitBreaker.snapshot``).
        self.breakers: dict[str, object] = {}

        self.router.put("/bifrost/config")(self._handle_put_config)
        self.router.get("/metrics")(self._handle_metrics)
        self.router.get("/bifrost/config")(self._handle_get_config)
        self.router.delete("/bifrost/config")(self._handle_delete_config)
        self.router.get("/bifrost/stats")(self._handle_stats)
        self.router.get("/bifrost/healthz")(self._handle_health)
        self.router.set_fallback(self._handle_proxy)

    # -- configuration ------------------------------------------------------

    def apply_config(
        self, config: RoutingConfig, endpoints: dict[str, str | list[str]]
    ) -> None:
        """Install a routing configuration (validated) and its endpoints.

        An endpoint value may be a single ``host:port`` or a list of them:
        "a service acting behind a proxy may run in multiple instances and
        multiple versions at the same time" (paper section 4.1) — lists
        are balanced round-robin per version.

        This is the standalone-proxy entry point: it compiles the plan and
        installs it at the next version.  A worker pool instead compiles
        once and calls :meth:`install_plan` on every member.
        """
        normalized = normalize_endpoints(config, endpoints)
        plan = RoutingPlan(config, seed=self.seed)  # validates the config
        self.install_plan(plan, normalized, self.config_version + 1)

    def install_plan(
        self,
        plan: RoutingPlan,
        endpoints: dict[str, list[str]],
        version: int,
    ) -> bool:
        """Install a pre-compiled *plan* at configuration *version*.

        The versioned half of the plan-swap protocol: versions at or below
        :attr:`config_version` are rejected (``False``), so concurrent or
        replayed fan-outs can never roll a worker backwards.  The install
        itself is a handful of attribute assignments with no awaits — under
        asyncio's single thread every in-flight request sees either the old
        state or the new, never a mix.

        *endpoints* must already be normalized against ``plan.config``
        (see :func:`~repro.proxy.plan.normalize_endpoints`); the shared
        plan is immutable, while the endpoint rings (mutable round-robin
        cursors) and the filter chain (worker-local sticky store and RNG)
        are built fresh per install.
        """
        if version <= self.config_version:
            return False
        chain = FilterChain.from_plan(
            plan, sticky_store=self.sticky_store, rng=self.rng
        )
        # Endpoint rings are part of the compiled plan: host:port parsed
        # once per configuration, not once per request.
        rings = {
            version_name: EndpointRing(instances)
            for version_name, instances in endpoints.items()
        }
        self._chain = chain
        self._endpoints = endpoints
        self._rings = rings
        self.config_version = version
        return True

    def clear_config(self, version: int | None = None) -> bool:
        """Fall back to default-upstream passthrough (strategy finished).

        Clears participate in the same version sequence as installs: a
        stale clear (fanned out before a newer install landed) is rejected
        rather than wiping fresher state.  Without an explicit *version*
        the clear claims the next one.
        """
        if version is None:
            version = self.config_version + 1
        if version <= self.config_version:
            return False
        self._chain = None
        self._endpoints = {}
        self._rings = {}
        self.config_version = version
        return True

    @property
    def active_config(self) -> RoutingConfig | None:
        return self._chain.config if self._chain else None

    # -- proxying ---------------------------------------------------------

    async def _handle_proxy(self, request: Request) -> Response:
        if self._chain is None:
            return await self._forward(request, self._default_ring.next(), "default")

        decision = self._chain.decide(request)
        if decision.shadows:
            self._dispatch_shadows(request, decision)

        response = await self._forward(
            request,
            self._rings[decision.version].next(),
            decision.version,
            client_id=decision.client_id,
        )
        if decision.set_cookie and decision.client_id:
            response.headers.add(
                "Set-Cookie", SetCookie(CLIENT_COOKIE, decision.client_id).format()
            )
        return response

    def _dispatch_shadows(self, request: Request, decision: RoutingDecision) -> None:
        shadows = decision.shadows
        if request.stream is None:
            for shadow in shadows:
                self._dispatch_shadow(request, shadow, decision.client_id)
            return
        # A streamed body can be teed exactly once without double-buffering:
        # the primary keeps stream ownership (its reads drive the tee), the
        # first shadow rides the bounded branch, and any further shadows for
        # the same request are dropped with accounting rather than buffered.
        tee = self.shadower.tee(request.stream)
        request.stream = tee.primary
        self._dispatch_shadow(
            request, shadows[0], decision.client_id, stream=tee.branch
        )
        for _ in shadows[1:]:
            self.shadower.note_drop()

    def _dispatch_shadow(self, request, shadow, client_id, stream=None) -> None:
        """Duplicate *request* to the shadow target's next instance.

        Builds a dedicated request sharing the (immutable) body bytes with
        the primary — the only allocation is the overlaid header list.  A
        streamed duplicate instead carries a tee *branch* as its body.
        """
        endpoint, host, port = self._rings[shadow.target_version].next()
        items = self._overlay_items(request, client_id)
        items.append(("Host", endpoint))
        items.append(("X-Forwarded-By", self.name))
        items.append(("X-Bifrost-Shadow", "true"))
        shadow_request = Request(
            method=request.method,
            target=request.target,
            headers=Headers.from_raw(items),
            body=request.body,
            stream=stream,
        )
        if self.shadower.shadow(shadow_request, endpoint, host, port):
            self._m_shadow_sent.inc()

    def _overlay_items(self, request: Request, client_id: str | None) -> list:
        """Forward headers as a fresh field list (header-delta overlay).

        One pass over the incoming fields: hop-by-hop headers — the static
        RFC 7230 §6.1 set plus any nominated by the ``Connection`` header —
        ``Host``, and ``X-Forwarded-By`` are skipped; the proxy-issued
        client cookie is spliced into the ``Cookie`` header (or appended)
        when the client does not carry it yet.  The incoming request is
        never mutated and nothing is copied-then-removed.
        """
        headers = request.headers
        drop = _HOP_BY_HOP
        connection = headers.get("Connection")
        if connection is not None:
            nominated = {
                token.strip().lower()
                for token in connection.split(",")
                if token.strip()
            }
            if nominated:
                drop = _HOP_BY_HOP | nominated
        cookie_pair = None
        if client_id is not None and CLIENT_COOKIE not in request.cookies:
            cookie_pair = f"{CLIENT_COOKIE}={client_id}"
        items = []
        for name, value in headers.raw_items():
            lowered = name.lower()
            if lowered in drop or lowered == "host" or lowered == "x-forwarded-by":
                continue
            if cookie_pair is not None and lowered == "cookie":
                items.append((name, f"{value}; {cookie_pair}"))
                cookie_pair = None
                continue
            items.append((name, value))
        if cookie_pair is not None:
            items.append(("Cookie", cookie_pair))
        return items

    async def _forward(
        self,
        request: Request,
        destination: tuple[str, str, int],
        version: str,
        client_id: str | None = None,
    ) -> Response:
        endpoint, host, port = destination
        items = self._overlay_items(request, client_id)
        items.append(("Host", endpoint))
        items.append(("X-Forwarded-By", self.name))
        upstream_request = Request(
            method=request.method,
            target=request.target,
            headers=Headers.from_raw(items),
            body=request.body,
            stream=request.stream,
        )
        started = time.monotonic()
        try:
            if self.stream_bodies:
                # End-to-end relay: the request body streams up as it
                # arrives, and the response returns at head-parse time —
                # its body flows back through ``response.stream`` while the
                # server relays it to the client.  First upstream bytes can
                # reach the client before the last client bytes arrive.
                response = await self._client.send(
                    upstream_request, host, port, stream=True
                )
            else:
                response = await self._client.send(upstream_request, host, port)
        except (HttpError, ConnectionError, OSError) as exc:
            self.upstream_errors += 1
            self._m_upstream_errors.inc()
            logger.warning("upstream %s (%s) failed: %s", endpoint, version, exc)
            return Response.from_json(
                {"error": "bad gateway", "upstream": endpoint}, status=502
            )
        self._m_forward_seconds.observe(time.monotonic() - started)
        self.forwarded[version] = self.forwarded.get(version, 0) + 1
        counter = self._forward_counters.get(version)
        if counter is None:
            counter = self._m_forwarded.labels(version=version)
            self._forward_counters[version] = counter
        counter.inc()
        # Relay in place: the response object is exclusively ours (it was
        # parsed off our upstream connection), so no defensive copy.
        response.headers.set("X-Bifrost-Version", version)
        return response

    # -- admin API ---------------------------------------------------------

    async def _handle_put_config(self, request: Request) -> Response:
        payload = await request.ajson()
        try:
            config = RoutingConfig.from_wire(payload.get("routing", {}))
            endpoints = payload.get("endpoints", {})
            if not isinstance(endpoints, dict):
                raise RoutingError("endpoints must be a mapping")
            cleaned: dict[str, str | list[str]] = {}
            for version, value in endpoints.items():
                if isinstance(value, list):
                    cleaned[version] = [str(item) for item in value]
                else:
                    cleaned[version] = str(value)
            self.apply_config(config, cleaned)
        except (RoutingError, AttributeError) as exc:
            return Response.from_json({"status": "error", "error": str(exc)}, 400)
        return Response.from_json(
            {
                "status": "ok",
                "service": self.service,
                "config_version": self.config_version,
            }
        )

    async def _handle_get_config(self, request: Request) -> Response:
        if self._chain is None:
            return Response.from_json(
                {"service": self.service, "active": False,
                 "config_version": self.config_version,
                 "default_upstream": self.default_upstream}
            )
        return Response.from_json(
            {
                "service": self.service,
                "active": True,
                "config_version": self.config_version,
                "routing": self._chain.config.to_wire(),
                "endpoints": self._endpoints,
            }
        )

    async def _handle_delete_config(self, request: Request) -> Response:
        self.clear_config()
        return Response.from_json(
            {
                "status": "ok",
                "active": False,
                "config_version": self.config_version,
            }
        )

    def stats_snapshot(self) -> dict:
        """The counters behind ``/bifrost/stats``, as plain data.

        Factored out so a worker pool can merge snapshots from every
        member into one view.
        """
        return {
            "service": self.service,
            "config_version": self.config_version,
            "forwarded": dict(self.forwarded),
            "shadow_sent": self.shadower.sent,
            "shadow_failed": self.shadower.failed,
            "shadow_dropped": self.shadower.dropped,
            "shadow_in_flight": self.shadower.in_flight,
            "shadow_effective_pending": self.shadower.effective_pending,
            "upstream_errors": self.upstream_errors,
            "sticky_sessions": len(self.sticky_store),
            "sticky_evictions": self.sticky_store.evictions,
            "sticky_expirations": self.sticky_store.expirations,
        }

    async def _handle_stats(self, request: Request) -> Response:
        return Response.from_json(self.stats_snapshot())

    def register_breaker(self, name: str, breaker) -> None:
        """Expose *breaker*'s state + transition counters on ``/healthz``."""
        self.breakers[name] = breaker

    async def _handle_health(self, request: Request) -> Response:
        compiled = compile_query.cache_info()
        return Response.from_json(
            {
                "status": "up",
                "service": self.service,
                "breakers": {
                    name: breaker.snapshot()
                    for name, breaker in self.breakers.items()
                },
                "caches": {
                    "compiled_query": {
                        "hits": compiled.hits,
                        "misses": compiled.misses,
                        "size": compiled.currsize,
                    },
                    "sticky": {
                        "size": len(self.sticky_store),
                        "capacity": self.sticky_store.capacity,
                        "evictions": self.sticky_store.evictions,
                        "expirations": self.sticky_store.expirations,
                    },
                    "shadow": {
                        "max_pending": self.shadower.max_pending,
                        "effective_pending": self.shadower.effective_pending,
                        "target_delay": self.shadower.target_delay,
                        "latency_ewma": self.shadower.latency_ewma,
                        "queue_delay_ewma": self.shadower.queue_delay_ewma,
                        "in_flight": self.shadower.in_flight,
                        "dropped": self.shadower.dropped,
                    },
                },
            }
        )

    def _refresh_gauges(self) -> None:
        """Refresh the point-in-time gauges before a registry collection."""
        self._m_sticky.set(float(len(self.sticky_store)))
        self._m_shadow_dropped.set(float(self.shadower.dropped))
        self._m_sticky_evicted.set(
            float(self.sticky_store.evictions + self.sticky_store.expirations)
        )

    async def _handle_metrics(self, request: Request) -> Response:
        self._refresh_gauges()
        # Streamed render: large registries never build one giant string.
        body = bytearray()
        for line in render_exposition_lines(self.registry):
            body += line.encode("utf-8")
        response = Response(status=200, body=bytes(body))
        response.headers.set("Content-Type", "text/plain; charset=utf-8")
        return response

    async def stop(self) -> None:
        await self.shadower.close()
        if self._owns_client:
            await self._client.close()
        await super().stop()
