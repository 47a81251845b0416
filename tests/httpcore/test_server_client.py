"""Integration tests: HttpServer and HttpClient talking over localhost."""

import asyncio

import pytest

from repro.httpcore import (
    ConnectionClosed,
    Headers,
    HttpClient,
    HttpServer,
    RequestTimeout,
    Response,
)


def make_server() -> HttpServer:
    server = HttpServer(name="test")

    @server.router.get("/ping")
    async def ping(request):
        return Response.text("pong")

    @server.router.post("/echo")
    async def echo(request):
        return Response(body=request.body)

    @server.router.get("/json")
    async def json_route(request):
        return Response.from_json({"n": 1})

    @server.router.get("/slow")
    async def slow(request):
        await asyncio.sleep(0.5)
        return Response.text("late")

    @server.router.get("/boom")
    async def boom(request):
        raise RuntimeError("kaboom")

    @server.router.get("/items/{id}")
    async def item(request):
        return Response.from_json({"id": request.path_params["id"]})

    return server


async def test_basic_get():
    async with make_server() as server, HttpClient() as client:
        response = await client.get(f"http://{server.address}/ping")
        assert response.status == 200
        assert response.body == b"pong"


async def test_post_echo_body():
    async with make_server() as server, HttpClient() as client:
        response = await client.post(f"http://{server.address}/echo", body=b"hello")
        assert response.body == b"hello"


async def test_json_request_and_response():
    async with make_server() as server, HttpClient() as client:
        response = await client.get(f"http://{server.address}/json")
        assert response.json() == {"n": 1}


async def test_json_body_sets_content_type():
    server = HttpServer()

    @server.router.post("/check")
    async def check(request):
        assert request.headers.get("content-type") == "application/json"
        return Response.from_json(request.json())

    async with server, HttpClient() as client:
        response = await client.post(
            f"http://{server.address}/check", json_body={"a": [1, 2]}
        )
        assert response.json() == {"a": [1, 2]}


async def test_path_params_reach_handler():
    async with make_server() as server, HttpClient() as client:
        response = await client.get(f"http://{server.address}/items/42")
        assert response.json() == {"id": "42"}


async def test_unknown_route_is_404():
    async with make_server() as server, HttpClient() as client:
        response = await client.get(f"http://{server.address}/nope")
        assert response.status == 404


async def test_handler_exception_is_500():
    async with make_server() as server, HttpClient() as client:
        response = await client.get(f"http://{server.address}/boom")
        assert response.status == 500


async def test_keep_alive_reuses_connection():
    async with make_server() as server, HttpClient(pool_size=1) as client:
        for _ in range(5):
            response = await client.get(f"http://{server.address}/ping")
            assert response.status == 200
        # Five sequential requests over a pooled connection: the server saw
        # five requests but only one TCP connection carried them.
        assert server.requests_handled == 5


async def test_concurrent_requests():
    async with make_server() as server, HttpClient() as client:
        responses = await asyncio.gather(
            *[client.get(f"http://{server.address}/ping") for _ in range(20)]
        )
        assert all(r.status == 200 for r in responses)


async def test_request_timeout():
    async with make_server() as server, HttpClient() as client:
        with pytest.raises(RequestTimeout):
            await client.get(f"http://{server.address}/slow", timeout=0.05)


def stall_drains(monkeypatch, seconds: float) -> None:
    """Make new client connections hold written bytes in a stalled drain.

    Like a full send buffer: nothing reaches the server until the drain
    has waited *seconds*.
    """
    from repro.httpcore import client as client_module

    connect = client_module.open_connection

    async def stalling_open_connection(host, port):
        reader, writer = await connect(host, port)
        write, drain = writer.write, writer.drain
        held: list[bytes] = []

        async def slow_drain():
            await asyncio.sleep(seconds)
            for data in held:
                write(data)
            held.clear()
            await drain()

        writer.write, writer.drain = held.append, slow_drain
        return reader, writer

    monkeypatch.setattr(client_module, "open_connection", stalling_open_connection)


async def test_stalled_drain_and_read_share_one_deadline(monkeypatch):
    # The 0.25 s drain and the 0.5 s handler each fit in the 0.6 s
    # deadline; together they do not.
    stall_drains(monkeypatch, 0.25)
    async with make_server() as server, HttpClient() as client:
        with pytest.raises(RequestTimeout):
            await client.get(f"http://{server.address}/slow", timeout=0.6)


async def test_client_close_rejects_further_use():
    async with make_server() as server:
        client = HttpClient()
        await client.close()
        with pytest.raises(ConnectionClosed):
            await client.get(f"http://{server.address}/ping")


async def test_connection_close_header_honored():
    async with make_server() as server, HttpClient() as client:
        response = await client.get(
            f"http://{server.address}/ping", headers={"Connection": "close"}
        )
        assert response.status == 200
        assert response.headers.get("connection") == "close"
        # Next request must open a fresh connection and still work.
        response = await client.get(f"http://{server.address}/ping")
        assert response.status == 200


async def test_retry_on_stale_pooled_connection():
    server = make_server()
    await server.start()
    client = HttpClient()
    try:
        address = server.address
        assert (await client.get(f"http://{address}/ping")).status == 200
        # Restart the server on the same port: the pooled connection is dead.
        await server.stop()
        server2 = HttpServer(host="127.0.0.1", port=int(address.split(":")[1]))

        @server2.router.get("/ping")
        async def ping(request):
            return Response.text("pong2")

        await server2.start()
        try:
            response = await client.get(f"http://{address}/ping")
            assert response.body == b"pong2"
        finally:
            await server2.stop()
    finally:
        await client.close()
        await server.stop()


async def test_malformed_request_gets_400():
    async with make_server() as server:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(b"NOT A REQUEST\r\n\r\n")
        await writer.drain()
        data = await reader.read(100)
        assert b"400" in data.split(b"\r\n")[0]
        writer.close()


async def test_middleware_wraps_handlers_in_order():
    server = make_server()
    order = []

    async def outer(request, handler):
        order.append("outer-in")
        response = await handler(request)
        order.append("outer-out")
        return response

    async def inner(request, handler):
        order.append("inner-in")
        response = await handler(request)
        order.append("inner-out")
        return response

    server.add_middleware(outer)
    server.add_middleware(inner)
    async with server, HttpClient() as client:
        await client.get(f"http://{server.address}/ping")
    assert order == ["outer-in", "inner-in", "inner-out", "outer-out"]


async def test_middleware_can_short_circuit():
    server = make_server()

    async def deny(request, handler):
        return Response.text("denied", status=403)

    server.add_middleware(deny)
    async with server, HttpClient() as client:
        response = await client.get(f"http://{server.address}/ping")
        assert response.status == 403


async def test_server_start_twice_raises():
    server = make_server()
    await server.start()
    try:
        with pytest.raises(RuntimeError):
            await server.start()
    finally:
        await server.stop()


async def test_server_stop_idempotent():
    server = make_server()
    await server.start()
    await server.stop()
    await server.stop()
    assert not server.running


def test_split_url_variants():
    from repro.httpcore.client import split_url

    assert split_url("http://h:81/p?q=1") == ("h", 81, "/p?q=1")
    assert split_url("h:81") == ("h", 81, "/")
    assert split_url("http://h/p") == ("h", 80, "/p")
    with pytest.raises(ValueError):
        split_url("https://secure")
    with pytest.raises(ValueError):
        split_url("http://:80/")


async def test_idle_connections_observability():
    async with make_server() as server, HttpClient() as client:
        key = server.address
        assert client.idle_connections() == 0
        await client.get(f"http://{server.address}/ping")
        assert client.idle_connections() == 1
        assert client.idle_connections(key) == 1
        assert client.idle_connections("other:80") == 0


async def test_stale_idle_connection_evicted_on_acquire():
    async with make_server() as server, HttpClient(idle_timeout=60.0) as client:
        await client.get(f"http://{server.address}/ping")
        pool = client._pools[server.address]
        reader, old_writer, released_at = pool.connections[0]
        # Backdate the idle instant past the keep-alive budget.
        pool.connections[0] = (reader, old_writer, released_at - 120.0)
        response = await client.get(f"http://{server.address}/ping")
        assert response.status == 200
        assert old_writer.is_closing()  # the stale socket was retired
        assert client.idle_connections() == 1  # a fresh one was pooled
        assert pool.connections[0][1] is not old_writer


async def test_stale_acquire_drains_older_stack_entries():
    """Everything below a stale LIFO top is older still — all must go."""
    async with make_server() as server, HttpClient(idle_timeout=60.0) as client:
        await asyncio.gather(
            *[client.get(f"http://{server.address}/ping") for _ in range(3)]
        )
        pool = client._pools[server.address]
        assert len(pool.connections) == 3
        old_writers = [writer for _, writer, _ in pool.connections]
        pool.connections[:] = [
            (reader, writer, released_at - 120.0)
            for reader, writer, released_at in pool.connections
        ]
        await client.get(f"http://{server.address}/ping")
        assert all(writer.is_closing() for writer in old_writers)
        assert client.idle_connections() == 1


async def test_release_ages_out_oldest_idler():
    """A burst then a quiet period must not pin sockets open forever."""
    async with make_server() as server, HttpClient(idle_timeout=60.0) as client:
        await asyncio.gather(
            *[client.get(f"http://{server.address}/ping") for _ in range(3)]
        )
        pool = client._pools[server.address]
        reader, oldest_writer, released_at = pool.connections[0]
        pool.connections[0] = (reader, oldest_writer, released_at - 120.0)
        # The next request reuses the fresh LIFO top; releasing it back
        # sweeps the expired connection off the bottom of the stack.
        await client.get(f"http://{server.address}/ping")
        assert oldest_writer.is_closing()
        assert client.idle_connections() == 2
        assert all(not w.is_closing() for _, w, _ in pool.connections)


async def test_fresh_connections_survive_idle_sweeps():
    async with make_server() as server, HttpClient(idle_timeout=60.0) as client:
        for _ in range(4):
            await client.get(f"http://{server.address}/ping")
        # Sequential keep-alive traffic: one warm connection, never evicted.
        assert client.idle_connections() == 1
        assert server.requests_handled == 4
