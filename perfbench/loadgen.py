"""Open-loop HTTP/1.1 load generator, independent of the system under test.

Raw asyncio streams and nothing from ``repro``: a change to the SUT's own
HTTP code can never speed up the client that measures it.  The generator
keeps a fixed number of keep-alive connections (at most ``nproc``) and a
seeded arrival schedule.  Each request is due at its scheduled instant;
when every connection is busy it waits in one FIFO queue, and that wait
is part of its latency, which runs from the *scheduled* send to the last
response byte.  How late the generator itself ran (the loop woke up after
an arrival was due) is recorded separately, so a stalled generator cannot
pass itself off as a slow system.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

class HttpFailure(Exception):
    """A transport error or malformed response."""


@dataclass
class Reply:
    status: int
    headers: list[tuple[str, str]]
    body: bytes

    def header(self, name: str) -> str | None:
        for key, value in self.headers:
            if key == name:
                return value
        return None

    def headers_named(self, name: str) -> list[str]:
        return [value for key, value in self.headers if key == name]


class Connection:
    """One keep-alive HTTP/1.1 connection that reconnects after a failure."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def request(
        self,
        method: str,
        target: str,
        headers: list[tuple[str, str]] = (),
        body: bytes = b"",
    ) -> Reply:
        lines = [f"{method} {target} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        lines.extend(f"{name}: {value}" for name, value in headers)
        if body or method in ("POST", "PUT"):
            lines.append(f"Content-Length: {len(body)}")
        payload = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        try:
            if self._writer is None or self._writer.is_closing():
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port, limit=1 << 22
                )
            self._writer.write(payload)
            reply, close = await _read_reply(self._reader, method)
        except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                ValueError, HttpFailure) as exc:
            self.close()
            raise HttpFailure(f"{type(exc).__name__}: {exc}") from exc
        if close:
            self.close()
        return reply

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None


async def _read_reply(reader: asyncio.StreamReader, method: str) -> tuple[Reply, bool]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise HttpFailure(f"bad status line {lines[0]!r}")
    status = int(parts[1])
    headers = []
    for line in lines[1:]:
        if line:
            name, _, value = line.partition(":")
            headers.append((name.strip().lower(), value.strip()))
    reply = Reply(status, headers, b"")
    close = (reply.header("connection") or "").lower() == "close"
    if method == "HEAD" or status in (204, 304) or 100 <= status < 200:
        return reply, close
    if (reply.header("transfer-encoding") or "").lower() == "chunked":
        chunks = []
        while True:
            size_line = await reader.readuntil(b"\r\n")
            size = int(size_line.split(b";", 1)[0].strip(), 16)
            if size == 0:
                # Trailer section ends with an empty line.
                while await reader.readuntil(b"\r\n") != b"\r\n":
                    pass
                break
            chunks.append(await reader.readexactly(size))
            await reader.readexactly(2)
        reply.body = b"".join(chunks)
    elif reply.header("content-length") is not None:
        reply.body = await reader.readexactly(int(reply.header("content-length")))
    else:
        reply.body = await reader.read()
        close = True
    return reply, close


@dataclass
class Job:
    """One scheduled request and, once done, its outcome."""

    index: int
    due: float
    method: str
    target: str
    headers: list[tuple[str, str]] = field(default_factory=list)
    body: bytes = b""
    label: str = ""
    user: int = -1
    sent_cookie: str | None = None
    sent: float = 0.0
    done: float = 0.0
    reply: Reply | None = None
    error: str | None = None

    @property
    def latency(self) -> float:
        """Scheduled send to last response byte (the open-loop latency)."""
        return self.done - self.due


class ConnectionPool:
    """A fixed set of connections serving one FIFO queue of jobs."""

    def __init__(self, host: str, port: int, size: int, prepare=None,
                 on_reply=None, clock=time.monotonic):
        if size < 1:
            raise ValueError("a pool needs at least one connection")
        self.connections = [Connection(host, port) for _ in range(size)]
        #: Called with a job just before it goes on the wire (cookie jars
        #: must reflect every reply received up to that moment).
        self.prepare = prepare
        #: Called with each finished job.
        self.on_reply = on_reply
        self.clock = clock
        self.queue: asyncio.Queue[Job | None] = asyncio.Queue()
        self.finished: list[Job] = []
        self._workers: list[asyncio.Task] = []

    def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._workers = [
            loop.create_task(self._work(connection)) for connection in self.connections
        ]

    def submit(self, job: Job) -> None:
        self.queue.put_nowait(job)

    async def _work(self, connection: Connection) -> None:
        clock = self.clock
        while True:
            job = await self.queue.get()
            if job is None:
                return
            if self.prepare is not None:
                self.prepare(job)
            job.sent = clock()
            try:
                job.reply = await connection.request(
                    job.method, job.target, job.headers, job.body
                )
            except HttpFailure as exc:
                job.error = str(exc)
            job.done = clock()
            self.finished.append(job)
            if self.on_reply is not None:
                self.on_reply(job)

    async def close(self, timeout: float) -> int:
        """Finish queued jobs within *timeout*; returns how many were cut off."""
        for _ in self._workers:
            self.queue.put_nowait(None)
        done, pending = await asyncio.wait(self._workers, timeout=timeout)
        for task in pending:
            task.cancel()
        for task in done:
            task.result()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for connection in self.connections:
            connection.close()
        unfinished = 0
        while not self.queue.empty():
            if self.queue.get_nowait() is not None:
                unfinished += 1
        return unfinished + len(pending)


async def open_loop(jobs: list[Job], submit, clock=time.monotonic,
                    sleep=asyncio.sleep) -> list[float]:
    """Hand each job to *submit* at its ``due`` instant; returns lateness (s).

    Lateness is how long after its due instant a job was handed over:
    only the generator's own wake-up delay, never the wait for a free
    connection, which belongs to the measured latency instead.
    """
    lateness = []
    for job in jobs:
        now = clock()
        if job.due > now:
            await sleep(job.due - now)
            now = clock()
        lateness.append(max(0.0, now - job.due))
        submit(job)
    return lateness


def cpu_seconds(pid: int | str = "self") -> float:
    """User + system CPU seconds of a process, from ``/proc/<pid>/stat``."""
    import os

    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def host_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole host, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return fields[7], sum(fields)


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs right now."""
    started = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value % 7
    return (time.perf_counter() - started) * 1000.0


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
