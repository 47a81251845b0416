"""HttpClient.send_many: pipelined GETs over one pooled connection."""

import asyncio

import pytest

from repro.httpcore import (
    BodyStream,
    ConnectionClosed,
    Headers,
    HttpClient,
    HttpServer,
    IncompleteMessage,
    Request,
    RequestTimeout,
    Response,
    read_request,
)
from repro.httpcore import client as client_module


def get(target):
    return Request(method="GET", target=target, headers=Headers({"Host": "test"}))


async def send_all(client, requests, port, answered=None):
    """``send_many`` to localhost; the responses in the order delivered.

    Each delivery must carry the next index.  *answered*, when given,
    collects the responses as they arrive, so a caller can inspect them
    after ``send_many`` raises.
    """
    answered = [] if answered is None else answered

    def on_response(index, response):
        assert index == len(answered)
        answered.append(response)

    await client.send_many(requests, "127.0.0.1", port, on_response=on_response)
    return answered


def count_connects(monkeypatch):
    opened = []
    original = client_module.open_connection

    async def counted(host, port):
        opened.append((host, port))
        return await original(host, port)

    monkeypatch.setattr(client_module, "open_connection", counted)
    return opened


class ScriptedServer:
    """A raw TCP server that answers each request with its own target.

    *script(connection_index, request_number)* decides per request:
    ``"answer"``, ``"answer-close"`` (answer with ``Connection: close``,
    then hang up) or ``"hang-up"`` (close without answering).  ``seen``
    lists the targets each connection read.
    """

    def __init__(self, script):
        self.script = script
        self.seen = []
        self.server = None

    async def __aenter__(self):
        self.server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info):
        self.server.close()
        await self.server.wait_closed()

    async def _handle(self, reader, writer):
        connection = len(self.seen)
        self.seen.append([])
        try:
            while True:
                request = await read_request(reader)
                if request is None:
                    return
                self.seen[connection].append(request.target)
                action = self.script(connection, len(self.seen[connection]))
                if action == "hang-up":
                    return
                response = Response.text(request.target)
                if action == "answer-close":
                    response.headers.set("Connection", "close")
                writer.write(response.serialize())
                await writer.drain()
                if action == "answer-close":
                    return
        finally:
            writer.close()


async def test_pipelined_answers_come_back_in_order_with_mixed_statuses(monkeypatch):
    server = HttpServer(name="pipeline")

    @server.router.get("/ok/{n}")
    async def ok(request):
        return Response.from_json({"n": int(request.path_params["n"])})

    @server.router.get("/bad")
    async def bad(request):
        return Response.from_json({"error": "bad query"}, 400)

    opened = count_connects(monkeypatch)
    targets = ["/ok/1", "/bad", "/ok/2", "/missing", "/ok/3"]
    async with server, HttpClient() as client:
        responses = await send_all(
            client, [get(target) for target in targets], server.port
        )
        assert [response.status for response in responses] == [200, 400, 200, 404, 200]
        assert [responses[i].json()["n"] for i in (0, 2, 4)] == [1, 2, 3]
        assert len(opened) == 1
        assert client.idle_connections() == 1  # read to the end: pooled
        # The pooled connection carries the next pipeline too.
        again = await send_all(client, [get("/ok/4")], server.port)
        assert again[0].json() == {"n": 4}
        assert len(opened) == 1


async def test_connection_close_mid_pipeline_replays_exactly_the_suffix_once():
    def script(connection, number):
        return "answer-close" if connection == 0 and number == 2 else "answer"

    async with ScriptedServer(script) as server, HttpClient() as client:
        responses = await send_all(
            client, [get(f"/{name}") for name in "abcd"], server.port
        )
        assert [response.body for response in responses] == [b"/a", b"/b", b"/c", b"/d"]
        assert server.seen == [["/a", "/b"], ["/c", "/d"]]


async def test_second_close_mid_pipeline_fails_after_one_replay():
    def script(connection, number):
        return "answer-close" if number == 1 else "answer"

    answered = []
    async with ScriptedServer(script) as server, HttpClient() as client:
        with pytest.raises(ConnectionClosed):
            await send_all(
                client, [get(f"/{name}") for name in "abc"], server.port, answered
            )
        assert server.seen == [["/a"], ["/b"]]
        assert [response.body for response in answered] == [b"/a", b"/b"]


async def test_stale_pooled_connection_is_retried():
    # Connection 0 answers the first pipeline, then hangs up on the next
    # request without a word: the pooled connection was stale.
    def script(connection, number):
        return "hang-up" if connection == 0 and number == 2 else "answer"

    async with ScriptedServer(script) as server, HttpClient() as client:
        first = await send_all(client, [get("/a")], server.port)
        assert first[0].body == b"/a"
        assert client.idle_connections() == 1
        second = await send_all(client, [get("/b"), get("/c")], server.port)
        assert [response.body for response in second] == [b"/b", b"/c"]
        assert server.seen == [["/a", "/b"], ["/b", "/c"]]


async def test_fresh_connection_failure_is_not_retried():
    async with ScriptedServer(lambda connection, number: "hang-up") as server:
        async with HttpClient() as client:
            with pytest.raises(IncompleteMessage):
                await send_all(client, [get("/a"), get("/b")], server.port)
        assert server.seen == [["/a"]]


async def test_one_deadline_covers_the_whole_pipeline():
    server = HttpServer(name="slow")

    @server.router.get("/slow")
    async def slow(request):
        await asyncio.sleep(0.2)
        return Response.text("late")

    answered = []
    async with server, HttpClient(timeout=0.5) as client:
        # Each answer alone beats the deadline; the pipeline does not.
        with pytest.raises(RequestTimeout):
            await send_all(client, [get("/slow") for _ in range(3)], server.port, answered)
        # How many answers made it in time depends on the host's load;
        # that the last one did not is what the deadline guarantees.
        assert len(answered) < 3
        assert client.idle_connections() == 0  # a cut pipeline is not pooled


async def _chunks():
    yield b"x"


@pytest.mark.parametrize(
    "request_",
    [
        Request(method="POST", target="/x"),
        Request(method="GET", target="/x", body=b"payload"),
        Request(method="GET", target="/x", stream=BodyStream(_chunks(), length=1)),
    ],
    ids=["post", "get-with-body", "get-with-stream"],
)
async def test_send_many_rejects_requests_that_cannot_be_replayed(request_):
    async with HttpClient() as client:
        with pytest.raises(ValueError):
            await send_all(client, [get("/fine"), request_], 9)
