"""Asyncio HTTP/1.1 server with keep-alive.

``HttpServer`` is the base for every service in the reproduction: the
case-study microservices, the Bifrost proxies, the engine's API, and the
dashboard all subclass or embed it.  It plays the role Node.js' ``http``
module plays in the original prototype: an event-driven, single-threaded
server handling concurrent connections cooperatively.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Awaitable, Callable

from .errors import BodyTooLarge, HttpError, ProtocolError
from .message import MAX_BODY_BYTES, Request, Response, read_request
from .router import Handler, Router
from .stream import relay_body
from .transport import start_server

logger = logging.getLogger(__name__)

Middleware = Callable[[Request, Handler], Awaitable[Response]]


class HttpServer:
    """An HTTP server bound to ``host:port`` with a :class:`Router`.

    Handlers receive a :class:`Request` and return a :class:`Response`.
    Middleware wraps every handler call (authentication, metrics, ...) in
    registration order, outermost first.

    With ``stream_bodies=True`` (the proxy data plane) requests are
    dispatched as soon as their head is parsed — the body stays on the
    wire as ``request.stream`` — and responses carrying a body stream are
    relayed chunk-by-chunk with bounded buffers.  Keep-alive then follows
    the **drain rule**: a connection is reusable only once the request
    stream is fully drained, so leftover body bytes are discarded (up to
    ``max_body_bytes``) before the next request is read.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "http",
        reuse_port: bool = False,
        stream_bodies: bool = False,
        max_body_bytes: int | None = MAX_BODY_BYTES,
    ):
        self.host = host
        self.port = port
        self.name = name
        #: Bind with ``SO_REUSEPORT`` so several servers (in different
        #: event loops or processes) can share one port, the kernel
        #: balancing accepted connections between them.
        self.reuse_port = reuse_port
        #: Dispatch on parsed head, body as a chunk stream (proxy mode).
        self.stream_bodies = stream_bodies
        #: Max buffered request body; oversized bodies are answered 413.
        self.max_body_bytes = max_body_bytes
        self.router = Router()
        self._middleware: list[Middleware] = []
        self._server: asyncio.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        #: Count of requests that reached a handler, for tests and metrics.
        self.requests_handled = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections.

        With ``port=0`` the OS picks a free port; :attr:`port` is updated to
        the bound value, which is how the in-process cluster wires service
        endpoints together without a port registry.
        """
        if self._server is not None:
            raise RuntimeError(f"server {self.name!r} already started")
        self._server = await start_server(
            self._handle_connection,
            self.host,
            self.port,
            reuse_port=True if self.reuse_port else None,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.debug("server %s listening on %s:%d", self.name, self.host, self.port)

    async def stop(self) -> None:
        """Stop accepting connections and close existing ones."""
        if self._server is None:
            return
        self._server.close()
        for writer in list(self._connections):
            writer.close()
        await self._server.wait_closed()
        self._server = None

    @property
    def address(self) -> str:
        """The ``host:port`` string used in deployment configurations."""
        return f"{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._server is not None

    async def __aenter__(self) -> "HttpServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- request handling ----------------------------------------------------

    def add_middleware(self, middleware: Middleware) -> None:
        """Wrap all handlers with *middleware* (outermost first)."""
        self._middleware.append(middleware)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader,
                        stream=self.stream_bodies,
                        max_body=self.max_body_bytes,
                    )
                except BodyTooLarge as exc:
                    # The oversized body is still on the wire, so the
                    # connection cannot carry another request: 413, close.
                    response = Response.text(str(exc), status=413)
                    response.headers.set("Connection", "close")
                    writer.write(response.serialize())
                    await writer.drain()
                    break
                except ProtocolError as exc:
                    writer.write(Response.text(str(exc), status=400).serialize())
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                keep_alive = request.headers.get("Connection", "keep-alive")
                if keep_alive.lower() == "close":
                    response.headers.set("Connection", "close")
                if not await self._write_response(writer, response):
                    break
                if (
                    keep_alive.lower() == "close"
                    or response.headers.get("Connection", "").lower() == "close"
                ):
                    break
                if not await self._drain_request(request):
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away; nothing to answer
        except asyncio.CancelledError:
            # Event-loop shutdown (or server stop) cancels connection
            # tasks; close quietly instead of propagating, which would
            # make asyncio log a spurious "exception in callback".
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response
    ) -> bool:
        """Send *response*; ``False`` if the connection must close.

        Buffered responses go out exactly as before (one ``serialize()``
        write).  Streamed responses send the head, then relay chunks with
        ``drain()`` flow control; if the stream breaks mid-relay the
        wire framing is unrecoverable, so the connection is closed.
        """
        if response.stream is None:
            writer.write(response.serialize())
            await writer.drain()
            return True
        writer.write(response.serialize_head())
        try:
            await relay_body(writer, response.stream)
        except (HttpError, ConnectionError, OSError) as exc:
            logger.warning(
                "%s: response stream failed mid-relay: %s", self.name, exc
            )
            return False
        return True

    async def _drain_request(self, request: Request) -> bool:
        """Enforce the keep-alive drain rule; ``False`` closes the connection.

        A handler may answer without consuming the request stream (think
        an early 413 or a shadow-only endpoint); the unread body bytes
        would otherwise be parsed as the next request's head.
        """
        stream = request.stream
        if stream is None or stream.consumed:
            return True
        limit = self.max_body_bytes
        try:
            async for _ in stream:
                if limit is not None and stream.bytes_read > limit:
                    return False  # refuse to shovel unbounded leftovers
        except HttpError:
            return False
        return True

    async def _dispatch(self, request: Request) -> Response:
        self.requests_handled += 1
        try:
            handler = self.router.resolve(request)
        except HttpError:
            # Unrouted requests still flow through middleware so that
            # logging/metrics layers observe 404s.
            handler = self.handle_not_found

        wrapped: Handler = handler
        for middleware in reversed(self._middleware):
            wrapped = self._bind(middleware, wrapped)
        try:
            return await wrapped(request)
        except asyncio.CancelledError:
            raise
        except BodyTooLarge as exc:
            # A handler buffered a streamed body past the limit; the
            # unread rest is still on the wire, so close after answering.
            response = Response.text(str(exc), status=413)
            response.headers.set("Connection", "close")
            return response
        except Exception:
            logger.exception(
                "handler error in %s for %s %s", self.name, request.method, request.path
            )
            return await self.handle_error(request)

    @staticmethod
    def _bind(middleware: Middleware, inner: Handler) -> Handler:
        async def bound(request: Request) -> Response:
            return await middleware(request, inner)

        return bound

    async def handle_not_found(self, request: Request) -> Response:
        """Response for unrouted requests; override for custom behaviour."""
        return Response.from_json({"error": "not found", "path": request.path}, 404)

    async def handle_error(self, request: Request) -> Response:
        """Response for handler exceptions; override for custom behaviour."""
        return Response.from_json({"error": "internal server error"}, 500)
