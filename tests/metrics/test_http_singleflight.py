"""Waves and single-flight for the HTTP provider's pipelined queries."""

import asyncio
import json
from urllib.parse import parse_qs, urlsplit

import pytest

from repro.core import Comparison, MetricCondition, MetricQuery
from repro.metrics import HttpPrometheusProvider
from repro.metrics.provider import ProviderError


class FakeResponse:
    def __init__(self, payload, status=200):
        self.status = status
        self.body = json.dumps(payload).encode()

    def json(self):
        return json.loads(self.body)


class CountingClient:
    """Stands in for HttpClient: records pipelines, serves canned payloads.

    ``values`` maps a query to its value, or to an HTTP status to answer
    with instead; unknown queries answer *value*.
    """

    def __init__(self, value=42.0, fail=False, values=None, gate=None):
        self.value = value
        self.fail = fail
        self.values = values or {}
        #: When set, each response waits to acquire this semaphore.
        self.gate = gate
        self.calls = []  # one list of query strings per send_many call

    @property
    def requests(self):
        return [query for call in self.calls for query in call]

    async def send_many(self, requests, host, port, on_response):
        queries = [
            parse_qs(urlsplit(request.target).query)["query"][0]
            for request in requests
        ]
        self.calls.append(queries)
        await asyncio.sleep(0)  # force overlap between concurrent callers
        if self.fail:
            raise ConnectionError("backend down")
        for index, query in enumerate(queries):
            if self.gate is not None:
                await self.gate.acquire()
            answer = self.values.get(query, self.value)
            if isinstance(answer, int):
                response = FakeResponse({"status": "error", "error": "bad"}, answer)
            else:
                response = FakeResponse({"status": "success", "data": {"value": answer}})
            on_response(index, response)

    async def close(self):
        pass


def provider_for(client):
    return HttpPrometheusProvider("http://metrics:9090", client=client)


async def test_concurrent_identical_queries_coalesce_to_one_request():
    client = CountingClient()
    provider = provider_for(client)
    values = await asyncio.gather(*(provider.query("up_metric") for _ in range(10)))
    assert values == [42.0] * 10
    assert len(client.requests) == 1
    assert provider.coalesced == 9


async def test_distinct_queries_do_not_coalesce():
    client = CountingClient()
    provider = provider_for(client)
    await asyncio.gather(provider.query("a"), provider.query("b"))
    assert sorted(client.requests) == ["a", "b"]
    assert provider.coalesced == 0


async def test_sequential_queries_hit_the_backend_each_time():
    """Single-flight shares *in-flight* requests only — no stale caching."""
    client = CountingClient()
    provider = provider_for(client)
    await provider.query("m")
    await provider.query("m")
    assert len(client.requests) == 2


async def test_leader_failure_propagates_to_all_followers():
    client = CountingClient(fail=True)
    provider = provider_for(client)
    results = await asyncio.gather(
        *(provider.query("m") for _ in range(5)), return_exceptions=True
    )
    assert len(client.requests) == 1
    assert all(isinstance(result, ProviderError) for result in results)


async def test_failure_with_no_followers_does_not_warn(recwarn):
    client = CountingClient(fail=True)
    provider = provider_for(client)
    with pytest.raises(ProviderError):
        await provider.query("m")
    import gc

    gc.collect()
    assert not [w for w in recwarn if "never retrieved" in str(w.message)]


async def test_one_wave_of_sixteen_queries_is_one_pipeline():
    client = CountingClient(values={f"q{i}": float(i) for i in range(16)})
    provider = provider_for(client)
    values = await asyncio.gather(*(provider.query(f"q{i}") for i in range(16)))
    assert values == [float(i) for i in range(16)]
    assert len(client.calls) == 1
    assert client.calls[0] == [f"q{i}" for i in range(16)]


async def test_multi_query_condition_joins_the_wave_of_its_siblings():
    # The scheduler dispatches a wave as one task per check, all created
    # in one loop turn; a two-query condition fetches under gather, so
    # its queries arrive a turn after the single-query checks' queries.
    client = CountingClient(values={"sold_a": 3.0, "sold_b": 2.0})
    provider = provider_for(client)
    providers = {"prometheus": provider}
    single_a = MetricCondition(
        queries=(MetricQuery("a", "up_a"),), predicate=lambda values: True
    )
    pair = MetricCondition(
        queries=(MetricQuery("left", "sold_a"), MetricQuery("right", "sold_b")),
        comparison=Comparison("left", ">", "right"),
    )
    single_b = MetricCondition(
        queries=(MetricQuery("b", "up_b"),), predicate=lambda values: True
    )
    loop = asyncio.get_running_loop()
    tasks = [
        loop.create_task(condition.evaluate_detailed(providers))
        for condition in (single_a, pair, single_b)
    ]
    results = await asyncio.gather(*tasks)
    assert [result.result for result in results] == [1, 1, 1]
    assert len(client.calls) == 1
    assert sorted(client.calls[0]) == ["sold_a", "sold_b", "up_a", "up_b"]


async def test_malformed_base_url_fails_each_query_not_construction():
    provider = HttpPrometheusProvider("https://metrics:9090", client=CountingClient())
    with pytest.raises(ProviderError):
        await provider.query("m")


async def test_a_400_fails_only_its_own_query():
    client = CountingClient(values={"bad": 400})
    provider = provider_for(client)
    results = await asyncio.gather(
        provider.query("a"), provider.query("bad"), provider.query("b"),
        return_exceptions=True,
    )
    assert results[0] == 42.0 and results[2] == 42.0
    assert isinstance(results[1], ProviderError)
    assert "400" in str(results[1])
    assert len(client.calls) == 1


async def test_queries_resolve_as_their_own_responses_arrive():
    gate = asyncio.Semaphore(0)
    client = CountingClient(gate=gate)
    provider = provider_for(client)
    first = asyncio.ensure_future(provider.query("a"))
    second = asyncio.ensure_future(provider.query("b"))
    for _ in range(5):
        await asyncio.sleep(0)
    assert not first.done() and not second.done()
    gate.release()  # the first response only
    assert await first == 42.0
    for _ in range(5):
        await asyncio.sleep(0)
    assert not second.done()
    gate.release()
    assert await second == 42.0
    assert len(client.calls) == 1


async def test_cancelled_caller_does_not_cancel_its_siblings():
    gate = asyncio.Semaphore(0)
    client = CountingClient(gate=gate)
    provider = provider_for(client)
    callers = [asyncio.ensure_future(provider.query("m")) for _ in range(3)]
    other = asyncio.ensure_future(provider.query("n"))
    for _ in range(5):
        await asyncio.sleep(0)
    callers[0].cancel()
    gate.release()
    gate.release()
    assert await asyncio.gather(*callers[1:], other) == [42.0, 42.0, 42.0]
    assert callers[0].cancelled()
    assert len(client.requests) == 2


async def test_close_fails_queries_still_waiting():
    client = CountingClient(gate=asyncio.Semaphore(0))
    provider = provider_for(client)
    pending = asyncio.ensure_future(provider.query("m"))
    for _ in range(5):
        await asyncio.sleep(0)
    await provider.close()
    with pytest.raises(ProviderError):
        await pending
