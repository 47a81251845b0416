import asyncio

import pytest

from loadgen import ConnectionPool, Job, open_loop


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.stalls = {}

    def __call__(self):
        return self.now

    async def sleep(self, seconds):
        self.now += seconds
        # An injected stall: the generator wakes up later than asked.
        self.now += self.stalls.pop(round(self.now, 6), 0.0)


async def test_lateness_is_wake_up_delay_against_the_schedule():
    clock = FakeClock()
    clock.stalls = {1.0: 0.25}
    jobs = [Job(i, due, "GET", "/") for i, due in enumerate([0.5, 1.0, 1.1, 2.0])]
    submitted = []

    def submit(job):
        submitted.append((job.index, clock()))

    lateness = await open_loop(jobs, submit, clock=clock, sleep=clock.sleep)
    # Job 1 woke 0.25 s late; job 2 was already overdue by then and goes
    # out at once, 0.15 s late; job 3 is back on schedule.
    assert lateness == pytest.approx([0.0, 0.25, 0.15, 0.0])
    assert [index for index, _ in submitted] == [0, 1, 2, 3]


async def _slow_server(delay):
    async def handle(reader, writer):
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            if not head:
                break
            await asyncio.sleep(delay)
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
            await writer.drain()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


async def test_wait_for_a_busy_connection_is_latency_not_lateness():
    server = await _slow_server(0.05)
    port = server.sockets[0].getsockname()[1]
    pool = ConnectionPool("127.0.0.1", port, 1)
    pool.start()
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.01
    jobs = [Job(i, start, "GET", "/") for i in range(3)]
    lateness = await open_loop(jobs, pool.submit)
    assert await pool.close(timeout=5.0) == 0
    server.close()
    await server.wait_closed()
    assert max(lateness) < 0.02
    latencies = sorted(job.latency for job in pool.finished)
    assert [job.reply.body for job in pool.finished] == [b"ok"] * 3
    # One connection: the third request waited for the first two.
    assert latencies[2] >= 0.15
    assert latencies[0] < latencies[1] < latencies[2]
