"""The shared-buffer read path: byte-exact framing, pipelining, isolation."""

import asyncio
import random

import pytest

from repro.httpcore import (
    BodyStream,
    HttpClient,
    HttpServer,
    Request,
    Response,
    read_response,
)
from repro.httpcore.transport import (
    READ_BUFFER_SIZE,
    BufferedStreamProtocol,
    open_connection,
)
from repro.proxy import BifrostProxy

SIZES = [
    0,
    1,
    READ_BUFFER_SIZE - 1,
    READ_BUFFER_SIZE,
    READ_BUFFER_SIZE + 1,
    3 * 1024 * 1024,
]


def payload(size: int, seed: int = 0) -> bytes:
    """Non-repeating bytes, so any misplaced slice changes the result."""
    return random.Random(seed * 1_000_003 + size).randbytes(size)


def pieces(data: bytes, step: int = 100_003):
    """Chunk sizes that never line up with the read buffer."""
    return [data[i : i + step] for i in range(0, len(data), step)]


def make_echo_server() -> HttpServer:
    """Content-Length framing both ways: the body is buffered and echoed."""
    server = HttpServer(name="echo")

    @server.router.post("/echo")
    async def echo(request):
        return Response(body=request.body)

    return server


def make_relay_server() -> HttpServer:
    """Chunked framing both ways: the request stream is the response body."""
    server = HttpServer(name="relay", stream_bodies=True)

    @server.router.post("/echo")
    async def relay(request):
        return Response.streaming(request.iter_body())

    return server


@pytest.mark.parametrize("size", SIZES)
async def test_content_length_round_trip_is_byte_exact(size):
    body = payload(size)
    async with make_echo_server() as server, HttpClient() as client:
        response = await client.post(f"http://{server.address}/echo", body=body)
        assert response.headers.get("Content-Length") == str(size)
        assert response.body == body


@pytest.mark.parametrize("size", SIZES)
async def test_chunked_round_trip_is_byte_exact(size):
    body = payload(size)
    async with make_relay_server() as server, HttpClient() as client:
        request = Request(
            method="POST",
            target="/echo",
            stream=BodyStream.from_iterable(pieces(body)),  # no length: chunked
        )
        request.headers.set("Host", server.address)
        response = await client.send(request, server.host, server.port)
        assert response.headers.get("Transfer-Encoding") == "chunked"
        assert response.body == body


async def test_pipelined_keep_alive_requests():
    """Several requests in one write: each response comes back in order,
    even where one socket read holds the tail of one and the head of the
    next."""
    sizes = [5, READ_BUFFER_SIZE + 7, 0, 1024]
    bodies = [payload(size, seed=i) for i, size in enumerate(sizes)]
    async with make_echo_server() as server:
        reader, writer = await open_connection(server.host, server.port)
        try:
            wire = b""
            for body in bodies:
                request = Request(method="POST", target="/echo", body=body)
                request.headers.set("Host", server.address)
                wire += request.serialize()
            writer.write(wire)
            await writer.drain()
            for body in bodies:
                response = await read_response(reader)
                assert response.status == 200
                assert response.body == body
        finally:
            writer.close()
        assert server.requests_handled == len(bodies)


async def test_concurrent_connections_through_proxy_do_not_mix():
    """Two connections on one loop share the read buffer; each relays its
    own large body through the proxy and gets exactly that body back."""
    bodies = [payload(2 * 1024 * 1024 + 13, seed=seed) for seed in (1, 2)]
    async with make_relay_server() as upstream:
        proxy = BifrostProxy("svc", default_upstream=upstream.address)
        await proxy.start()
        clients = [HttpClient(), HttpClient()]
        try:

            async def relay(client: HttpClient, body: bytes) -> bytes:
                request = Request(
                    method="POST",
                    target="/echo",
                    stream=BodyStream.from_iterable(pieces(body, 65_537)),
                )
                request.headers.set("Host", proxy.address)
                response = await client.send(request, proxy.host, proxy.port)
                assert response.status == 200
                return response.body

            echoed = await asyncio.gather(
                *(relay(client, body) for client, body in zip(clients, bodies))
            )
            assert echoed == bodies
        finally:
            for client in clients:
                await client.close()
            await proxy.stop()


async def test_get_buffer_returns_one_shared_buffer():
    body = payload(3 * READ_BUFFER_SIZE)
    async with make_echo_server() as server:
        connections = [
            await open_connection(server.host, server.port) for _ in range(2)
        ]
        seen = []
        for _, writer in connections:
            protocol = writer.transport.get_protocol()
            assert isinstance(protocol, BufferedStreamProtocol)
            assert isinstance(protocol, asyncio.BufferedProtocol)
            get_buffer = protocol.get_buffer

            def recording(sizehint, _get_buffer=get_buffer):
                buffer = _get_buffer(sizehint)
                seen.append(buffer)
                return buffer

            protocol.get_buffer = recording
        try:
            for reader, writer in connections:
                request = Request(method="POST", target="/echo", body=body)
                request.headers.set("Host", server.address)
                writer.write(request.serialize())
                response = await read_response(reader)
                assert response.body == body
        finally:
            for _, writer in connections:
                writer.close()
        # A response this size takes several reads on each connection.
        assert len(seen) > 2
        assert all(buffer is seen[0] for buffer in seen)
        assert len(seen[0]) == READ_BUFFER_SIZE
