"""Bifrost end-to-end benchmark: one workload, one run, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload release|forward|control \\
        --seed N --seconds T --trace 0|1

The system under test (``sut.py``) runs in its own process, built from
public ``repro`` classes.  This process is the load generator and never
imports ``repro``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the SUT records spans around each
layer and the line carries the per-layer metrics instead.  METRICS.md
defines every metric.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from loadgen import (  # noqa: E402
    Connection,
    ConnectionPool,
    HttpFailure,
    Job,
    calibration_ms,
    cpu_seconds,
    host_ticks,
    open_loop,
    peak_rss_mib,
)
from stats import median, percentile, tail_percentile  # noqa: E402
from validate import Timeline, status_error, sticky_flips, version_error  # noqa: E402
from workloads import GEN_LATE_LIMIT_MS, PARAMS  # noqa: E402

#: SUT start-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Every record carries the latency at p90 and at the highest percentile
#: with ten samples beyond it, but neither is a metric: on a shared 2-vCPU
#: VM they swung by 10-130 % between identical runs (stalls of the VM),
#: wider than any bound the benchmark may set.
TAIL = 90.0
#: Output directory for result records, traces and SUT logs.
OUT = HERE / "out"
CLIENT_COOKIE = "bifrost_client"
GOLDEN = (5 ** 0.5 - 1) / 2


class SutProcess:
    """One SUT child process and its JSON-lines protocol."""

    def __init__(self, workload: str, trace: bool, setup_only: bool):
        self.argv = [sys.executable, str(HERE / "sut.py"), "--workload", workload,
                     "--trace", str(int(trace))]
        if setup_only:
            self.argv.append("--setup-only")
        self.workload = workload
        self.on_event = None
        self.process: asyncio.subprocess.Process | None = None

    async def start(self) -> tuple[dict, float]:
        """Spawn and wait for the ready line; returns (ready, seconds)."""
        loop = asyncio.get_running_loop()
        self._ready = loop.create_future()
        self._report = loop.create_future()
        log = open(OUT / f"sut-{self.workload}.log", "ab")
        started = time.monotonic()
        try:
            self.process = await asyncio.create_subprocess_exec(
                *self.argv, cwd=ROOT, stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE, stderr=log, limit=1 << 26,
            )
        finally:
            log.close()
        self._reader = loop.create_task(self._read())
        ready = await asyncio.wait_for(self._ready, 60.0)
        return ready, time.monotonic() - started

    async def _read(self) -> None:
        async for line in self.process.stdout:
            message = json.loads(line)
            if "ready" in message:
                self._ready.set_result(message["ready"])
            elif "report" in message:
                self._report.set_result(message["report"])
            elif "ev" in message and self.on_event is not None:
                self.on_event(message)
        for future in (self._ready, self._report):
            if not future.done():
                future.set_exception(RuntimeError(
                    f"SUT exited early (see {OUT / f'sut-{self.workload}.log'})"))
                future.exception()  # a setup-only SUT never reports

    def send(self, **command) -> None:
        self.process.stdin.write((json.dumps(command) + "\n").encode())

    async def report(self) -> dict:
        self.send(cmd="finish")
        return await asyncio.wait_for(self._report, 90.0)

    async def stop(self) -> None:
        process = self.process
        if process is None:
            return
        if process.returncode is None:
            try:
                self.send(cmd="exit")
                process.stdin.close()
            except (BrokenPipeError, ConnectionResetError):
                pass
            try:
                await asyncio.wait_for(process.wait(), 15.0)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()
        await self._reader


class Window:
    """The measured window: SUT and generator CPU between go and end."""

    def __init__(self, pid: int, seconds: float):
        self.pid = pid
        self.seconds = seconds

    def open(self) -> None:
        self.start = time.monotonic()
        self.end = self.start + self.seconds
        self.sut_cpu = cpu_seconds(self.pid)
        self.gen_cpu = cpu_seconds()
        self.host = host_ticks()

    async def close(self) -> None:
        await _sleep_until(self.end)
        wall = time.monotonic() - self.start
        self.sut_util = (cpu_seconds(self.pid) - self.sut_cpu) / wall
        self.gen_util = (cpu_seconds() - self.gen_cpu) / wall
        steal, total = host_ticks()
        self.steal_share = (steal - self.host[0]) / max(1, total - self.host[1])


def _address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host, int(port)


async def _sleep_until(instant: float) -> None:
    await asyncio.sleep(max(0.0, instant - time.monotonic()))


# -- workload drivers --------------------------------------------------------------


def _poisson_jobs(rng: random.Random, rate: float, start: float, total: float,
                  make) -> list[Job]:
    jobs, offset = [], 0.0
    while True:
        offset += rng.expovariate(rate)
        if offset >= total:
            return jobs
        jobs.append(make(len(jobs), start + offset))


async def _drive_requests(sut: SutProcess, ready: dict, params: dict, seed: int,
                          seconds: float, make, prepare=None, on_reply=None):
    """Open-loop requests against the entry point.

    Returns ``(measured, window, unfinished)``: the ``(job, lateness)``
    pairs due inside the window, the window, and how many jobs never got
    an answer before the pool closed.
    """
    rng = random.Random(seed)
    host, port = _address(ready["entry"])
    t0 = time.monotonic() + 0.05
    warm = params["warmup"]
    jobs = _poisson_jobs(rng, params["rate"], t0, warm + seconds,
                         lambda index, due: make(rng, index, due))
    pool = ConnectionPool(host, port, params["connections"], prepare, on_reply)
    pool.start()
    window = Window(sut.process.pid, seconds)

    async def go() -> None:
        await _sleep_until(t0 + warm)
        window.open()
        sut.send(cmd="go", seconds=seconds, seed=seed)
        await window.close()

    starter = asyncio.get_running_loop().create_task(go())
    lateness = await open_loop(jobs, pool.submit)
    await starter
    unfinished = await pool.close(timeout=10.0)
    measured = [
        (job, late) for job, late in zip(jobs, lateness)
        if window.start <= job.due < window.end
    ]
    return measured, window, unfinished


async def run_release(sut, ready, params, seed, seconds) -> dict:
    tokens = ready["tokens"]
    skus = ready["skus"]
    queries = ["Laptop", "Tv", "Phone", "Camera"]
    jars: list[dict[str, str]] = [{} for _ in tokens]

    def make(rng, index, due):
        user = rng.randrange(len(tokens))
        kind = rng.randrange(4)
        if kind == 0:
            return Job(index, due, "POST", f"/products/{rng.choice(skus)}/buy",
                       label="buy", user=user)
        if kind == 1:
            return Job(index, due, "GET", f"/products/{rng.choice(skus)}",
                       label="details", user=user)
        if kind == 2:
            return Job(index, due, "GET", "/products", label="products", user=user)
        return Job(index, due, "GET", f"/search?q={rng.choice(queries)}",
                   label="search", user=user)

    def prepare(job: Job) -> None:
        jar = jars[job.user]
        job.headers = [("Authorization", f"Bearer {tokens[job.user]}")]
        if jar:
            job.headers.append(
                ("Cookie", "; ".join(f"{name}={value}" for name, value in jar.items()))
            )
        job.sent_cookie = jar.get(CLIENT_COOKIE)

    def on_reply(job: Job) -> None:
        if job.reply is None:
            return
        for cookie in job.reply.headers_named("set-cookie"):
            pair = cookie.split(";", 1)[0]
            name, _, value = pair.partition("=")
            jars[job.user][name.strip()] = value.strip()

    measured, window, unfinished = await _drive_requests(
        sut, ready, params, seed, seconds, make, prepare, on_reply
    )
    report = await sut.report()
    starts = report["installs"]
    timeline = Timeline([(at, versions) for at, versions, _ in starts])
    sticky_windows = [
        (at, starts[i + 1][0] if i + 1 < len(starts) else float("inf"))
        for i, (at, _, sticky) in enumerate(starts) if sticky
    ]
    ok, failures = _check_requests(measured, timeline, {"buy": 204})
    samples = [(job.sent_cookie, job.sent, job.done, job.reply.header("x-bifrost-version"))
               for job in ok]
    flips = sticky_flips(samples, sticky_windows)
    if flips:
        failures["sticky flip"] = len(flips)
    if report["final_state"] not in ("done-a", "done-b") or report["status"] != "completed":
        failures[f"strategy ended {report['final_state']} ({report['status']})"] = 1
    if unfinished:
        failures["unfinished"] = unfinished
    return {
        "latencies": [job.latency for job in ok],
        "lateness": [late for _, late in measured],
        "attempted": len(measured) + report["attempted"],
        "failures": failures,
        "window": window,
        "report": report,
        "enact_delay_ms": report["enact_delay_s"] * 1000.0,
        "detail": {"final_state": report["final_state"],
                   "installs": len(starts),
                   "sticky_windows": len(sticky_windows)},
    }


def _check_requests(measured, timeline: Timeline, expected: dict,
                    body: bytes | None = None) -> tuple[list[Job], dict[str, int]]:
    """Jobs that passed every check, and failure counts by kind."""
    ok, failures = [], {}
    for job, _ in measured:
        reason = _request_error(job, timeline, expected, body)
        if reason is None:
            ok.append(job)
        else:
            kind = reason.split(":")[0]
            failures[kind] = failures.get(kind, 0) + 1
    return ok, failures


def _request_error(job: Job, timeline: Timeline, expected: dict,
                   body: bytes | None = None) -> str | None:
    if job.reply is None:
        return f"transport: {job.error}"
    if job.reply.status >= 500:
        return f"5xx: {job.reply.status}"
    reason = status_error(job.label, job.reply.status, expected)
    if reason is not None:
        return f"status: {reason}"
    reason = version_error(timeline, job.reply.header("x-bifrost-version"),
                           job.sent, job.done)
    if reason is not None:
        return f"version: {reason}"
    if body is not None and job.reply.body != body:
        return f"body: {job.reply.body[:60]!r}"
    return None


async def run_forward(sut, ready, params, seed, seconds) -> dict:
    expected_body = params["body"].encode("ascii")

    def make(rng, index, due):
        return Job(index, due, "GET", f"/item/{rng.randrange(1000)}", label="get")

    measured, window, unfinished = await _drive_requests(
        sut, ready, params, seed, seconds, make
    )
    report = await sut.report()
    timeline = Timeline([(at, versions) for at, versions, _ in report["installs"]])
    ok, failures = _check_requests(measured, timeline, {}, expected_body)
    if unfinished:
        failures["unfinished"] = unfinished
    return {
        "latencies": [job.latency for job in ok],
        "lateness": [late for _, late in measured],
        "attempted": len(measured),
        "failures": failures,
        "window": window,
        "report": report,
        "enact_delay_ms": 0.0,
        "detail": {},
    }


class Channel:
    """One connection shared, one request at a time, by the trial lanes.

    It follows whichever host the next request needs (the metrics server
    for injections, a lane proxy for its config), so the generator never
    holds more than one connection for the trials.
    """

    def __init__(self) -> None:
        self.lock = asyncio.Lock()
        self.connection: Connection | None = None

    async def request(self, address: str, method: str, target: str,
                      body: bytes = b""):
        host, port = _address(address)
        async with self.lock:
            connection = self.connection
            if connection is None or (connection.host, connection.port) != (host, port):
                if connection is not None:
                    connection.close()
                connection = self.connection = Connection(host, port)
            reply = await connection.request(
                method, target, [("Content-Type", "application/json")], body
            )
            return reply, time.monotonic()

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()


def _lane_sample(lane: int, value: float) -> bytes:
    return json.dumps(
        [{"name": "lane_errors", "labels": {"lane": str(lane)}, "value": value}]
    ).encode()


async def run_control(sut, ready, params, seed, seconds) -> dict:
    rng = random.Random(seed)
    metrics = ready["metrics"]
    lanes = ready["lanes"]
    interval = params["ingest_interval"]
    warm = params["warmup"]
    counters = [0] * params["ingest_series"]
    t0 = time.monotonic() + 0.05
    jobs = []
    count = int((warm + seconds) / interval)
    for index in range(count):
        batch = []
        for series in range(len(counters)):
            counters[series] += rng.randrange(1, 20)
            batch.append({"name": "bg_load_total", "labels": {"series": str(series)},
                          "value": counters[series]})
        jobs.append(Job(index, t0 + index * interval, "POST", "/api/v1/ingest",
                        [("Content-Type", "application/json")],
                        json.dumps(batch).encode(), label="ingest"))
    host, port = _address(metrics)
    pool = ConnectionPool(host, port, 1)
    pool.start()

    channel = Channel()
    failures: dict[str, int] = {}
    events: list[asyncio.Queue] = [asyncio.Queue() for _ in lanes]
    sut.on_event = lambda message: events[message["lane"]].put_nowait(message)
    acks: dict[tuple[int, int], float] = {}
    trial_lateness: list[float] = []
    outcomes: list[tuple[int, int, str]] = []
    low, high = params["inject_delay"]

    def fail(reason: str) -> None:
        failures[reason] = failures.get(reason, 0) + 1

    for lane in range(len(lanes)):
        reply, _ = await channel.request(metrics, "POST", "/api/v1/ingest",
                                         _lane_sample(lane, 0.0))
        if reply.status != 200:
            raise RuntimeError(f"lane series setup failed: {reply.status}")

    window = Window(sut.process.pid, seconds)

    async def lane_loop(lane: int) -> None:
        # Injection delays follow a golden-ratio sequence from a seeded start:
        # spread evenly over [low, high), a whole number of guard-check
        # intervals, so the injection's phase against the check's ticks is
        # evenly spread too, rather than clumped by chance.
        phase = random.Random(f"{seed}/{lane}").random()
        while True:
            message = await events[lane].get()
            trial = message["trial"]
            if message["ev"] == "live":
                phase = (phase + GOLDEN) % 1.0
                delay = low + (high - low) * phase
                due = time.monotonic() + delay
                await _sleep_until(due)
                trial_lateness.append(max(0.0, time.monotonic() - due))
                try:
                    reply, acked = await channel.request(
                        metrics, "POST", "/api/v1/ingest", _lane_sample(lane, 1.0))
                except HttpFailure:
                    fail("inject transport")
                    continue
                if reply.status != 200:
                    fail("inject status")
                acks[(lane, trial)] = acked
                continue
            # The trial ended: reset the lane's series, then check the proxy.
            outcome = message["status"]
            try:
                reply, _ = await channel.request(
                    metrics, "POST", "/api/v1/ingest", _lane_sample(lane, 0.0))
                if reply.status != 200:
                    fail("reset status")
                reply, _ = await channel.request(lanes[lane], "GET", "/bifrost/config")
                config = json.loads(reply.body)
                splits = config.get("routing", {}).get("splits", [])
                if [(s["version"], s["percentage"]) for s in splits] != [("stable", 100.0)]:
                    outcome = f"proxy config {splits}"
            except (HttpFailure, ValueError) as exc:
                outcome = f"config check failed: {exc}"
            outcomes.append((lane, trial, outcome))
            if time.monotonic() >= window.end:
                return
            sut.send(cmd="next", lane=lane)

    loop = asyncio.get_running_loop()

    async def go() -> None:
        await _sleep_until(t0 + warm)
        window.open()
        sut.send(cmd="go", seconds=seconds, seed=seed)
        await window.close()

    starter = loop.create_task(go())
    lane_tasks = [loop.create_task(lane_loop(lane)) for lane in range(len(lanes))]
    lateness = await open_loop(jobs, pool.submit)
    await starter
    await asyncio.wait_for(asyncio.gather(*lane_tasks), 30.0)
    unfinished = await pool.close(timeout=10.0)
    channel.close()
    report = await sut.report()

    measured = [job for job in pool.finished if window.start <= job.due < window.end]
    for job in measured:
        if job.reply is None or job.reply.status != 200:
            fail("ingest")
    if unfinished:
        failures["unfinished"] = unfinished
    trials = {(t["lane"], t["trial"]): t for t in report["trials"]}
    reactions, detects, acts = [], [], []
    for lane, trial, outcome in outcomes:
        if outcome != "rolled_back":
            fail(f"trial {outcome}")
            continue
        acked = acks.get((lane, trial))
        applied = trials[(lane, trial)].get("rolled_back_at")
        detected = trials[(lane, trial)].get("detected_at")
        if acked is None or applied is None or detected is None:
            fail("trial without injection")
            continue
        # The SUT may roll back before the generator has read the ingest
        # acknowledgement; such a reaction is negative, and still counted.
        reactions.append(applied - acked)
        detects.append(detected - acked)
        acts.append(applied - detected)
    if report["provider_errors"]:
        failures["provider error"] = report["provider_errors"]
    incomplete = sum(1 for status in report["background"] if status != "completed")
    if incomplete:
        failures["background strategy incomplete"] = incomplete
    ingest_lateness = [late for job, late in zip(jobs, lateness)
                       if window.start <= job.due < window.end]
    return {
        "latencies": reactions,
        "lateness": ingest_lateness + trial_lateness,
        "attempted": len(measured) + len(outcomes) + report["attempted"],
        "failures": failures,
        "window": window,
        "report": report,
        "enact_delay_ms": median(report["enact_delays_s"]) * 1000.0,
        "reaction_split_ms": (median(detects) * 1000.0, median(acts) * 1000.0),
        "detail": {"trials": len(outcomes),
                   "check_executions": report["check_executions"],
                   "ingest_p50_ms": percentile(
                       [job.latency for job in measured if job.reply], 50) * 1000.0},
    }


DRIVERS = {"release": run_release, "forward": run_forward, "control": run_control}


# -- orchestration -------------------------------------------------------------------


def fingerprint(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """What a result depends on, so only like runs are ever compared."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            if "out" in path.relative_to(base).parts[:1]:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=5,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": workload,
        "params": PARAMS[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setups": SETUPS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "tree_sha256": digest.hexdigest(),
    }


async def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    params = PARAMS[workload]
    OUT.mkdir(exist_ok=True)
    (OUT / f"sut-{workload}.log").write_bytes(b"")
    calibration = median([calibration_ms() for _ in range(3)])
    setup_times = []
    for _ in range(SETUPS - 1):
        probe = SutProcess(workload, trace, setup_only=True)
        try:
            _, elapsed = await probe.start()
        finally:
            await probe.stop()
        setup_times.append(elapsed)
    sut = SutProcess(workload, trace, setup_only=False)
    try:
        ready, elapsed = await sut.start()
        setup_times.append(elapsed)
        outcome = await DRIVERS[workload](sut, ready, params, seed, seconds)
        outcome["rss_peak_mib"] = peak_rss_mib(sut.process.pid)
    finally:
        await sut.stop()
    outcome["setup_times"] = setup_times
    outcome["calibration_ms"] = calibration
    return outcome


def metrics_of(outcome: dict, trace: bool) -> dict:
    latencies = [value * 1000.0 for value in outcome["latencies"]]
    window = outcome["window"]
    end_to_end = {
        "setup_s": (median(outcome["setup_times"]), "s"),
        "op_p50_ms": (percentile(latencies, 50.0), "ms"),
        "cpu_util": (window.sut_util, "1"),
        "rss_peak_mib": (outcome["rss_peak_mib"], "MiB"),
    }
    if not trace:
        return end_to_end
    layers = {name: (value, unit) for name, (value, unit)
              in outcome["report"]["layers"].items()}
    layers["core.enact_delay_ms"] = (outcome["enact_delay_ms"], "ms")
    detect_ms, act_ms = outcome.get("reaction_split_ms", (0.0, 0.0))
    layers["core.reaction.detect_ms_p50"] = (detect_ms, "ms")
    layers["core.reaction.act_ms_p50"] = (act_ms, "ms")
    layers["gen.late_ms_p99"] = (percentile(outcome["lateness"], 99.0) * 1000.0, "ms")
    layers["gen.cpu_util"] = (window.gen_util, "1")
    layers["traced.op_p50_ms"] = end_to_end["op_p50_ms"]
    layers["traced.cpu_util"] = end_to_end["cpu_util"]
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Bifrost end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(PARAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    # The generator allocates little once its schedule is built, and a
    # cyclic-GC pause would stall every request in flight: collect once,
    # then keep the collector off while measuring.
    gc.collect()
    gc.disable()
    try:
        outcome = asyncio.run(run(args.workload, args.seed, args.seconds, trace))
    finally:
        gc.enable()

    failures = outcome["failures"]
    failed = sum(failures.values())
    late_p99_ms = percentile(outcome["lateness"], 99.0) * 1000.0
    latencies = [value * 1000.0 for value in outcome["latencies"]]
    samples = len(latencies)
    allowed = tail_percentile(samples)
    problems = []
    if late_p99_ms > GEN_LATE_LIMIT_MS:
        problems.append(f"generator ran late: p99 {late_p99_ms:.2f} ms "
                        f"> {GEN_LATE_LIMIT_MS} ms")
    if allowed is None or allowed < TAIL:
        problems.append(f"only {samples} samples: p{TAIL:g} has fewer than 10 beyond it")
    metrics = metrics_of(outcome, trace)
    correct = failed == 0 and not problems

    record = {
        "fingerprint": fingerprint(args.workload, args.seed, args.seconds, trace),
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": failed,
        "failures": failures,
        "problems": problems,
        "samples": samples,
        "setup_times_s": outcome["setup_times"],
        "gen_late_ms_p99": late_p99_ms,
        "gen_cpu_util": outcome["window"].gen_util,
        "enact_delay_ms": outcome["enact_delay_ms"],
        "detail": outcome["detail"],
        "tails_ms": {f"p{p:g}": percentile(latencies, p) for p in {TAIL, allowed or TAIL}},
        # The shared host's state: a fixed Python loop's time before the
        # run, and the share of host CPU stolen by other guests during it.
        "host": {"calibration_ms": outcome["calibration_ms"],
                 "steal_share": outcome["window"].steal_share},
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {int(trace)}  samples {samples}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.4f} {unit}")
    tails = "  ".join(f"{name} {value:.4f} ms" for name, value in record["tails_ms"].items())
    print(f"  latency tails (recorded, not gated): {tails}")
    print(f"  attempted {outcome['attempted']}  failed {failed}  {failures or ''}")
    for problem in problems:
        print(f"  REJECTED: {problem}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
