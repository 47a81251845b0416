"""The system under test, run as its own process.

Usage (normally spawned by ``run.py``)::

    python3 perfbench/sut.py --workload release|forward|control [--trace 1]
        [--setup-only]

Builds the workload's topology from public ``repro`` classes, prints one
``{"ready": ...}`` JSON line when the topology is listening, fixtures are
loaded and the initial configuration is installed, and then follows JSON
commands on stdin:

* ``{"cmd": "go", "seconds": T, "seed": n}`` starts the workload's control
  plane (strategies, rollback trials) at the start of the measured window;
* ``{"cmd": "next", "lane": k}`` starts lane *k*'s next rollback trial;
* ``{"cmd": "finish"}`` stops starting work, waits for what runs, and
  prints one ``{"report": ...}`` line;
* ``{"cmd": "exit"}`` tears the topology down and exits.

Events the generator must react to (a trial's canary going live, a trial
ending) are printed as ``{"ev": ...}`` lines.  All instants are
``time.monotonic()``, one system-wide clock on Linux.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import PARAMS  # noqa: E402

from repro.analysis.strategies import nominal_release_duration, release_strategy  # noqa: E402
from repro.casestudy import build_case_study  # noqa: E402
from repro.cluster import Gateway  # noqa: E402
from repro.core.builder import StrategyBuilder  # noqa: E402
from repro.core.checks import (  # noqa: E402
    BasicCheck,
    ExceptionCheck,
    MetricCondition,
    Timer,
)
from repro.core.engine import Engine  # noqa: E402
from repro.core.events import EventKind  # noqa: E402
from repro.core.outcome import OutputMapping  # noqa: E402
from repro.core.routing import canary_split, single_version  # noqa: E402
from repro.httpcore import HttpClient, HttpServer, Response  # noqa: E402
from repro.metrics import HttpPrometheusProvider, MetricsServer  # noqa: E402
from repro.proxy import BifrostProxy, HttpProxyController  # noqa: E402


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    sys.stdout.flush()


class ProviderErrorCounter(logging.Handler):
    """Counts check executions whose provider failed.

    ``MetricCondition.evaluate_detailed`` logs every provider failure at
    WARNING or above and otherwise carries on, so a logging handler sees
    each one without wrapping the evaluation path.
    """

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


class InstallLog:
    """Every routing install on the proxies, for the generator's version check.

    Wraps :meth:`BifrostProxy.install_plan` at class level; the install is
    synchronous, so the instant taken just before it precedes every
    request decided under the new plan.
    """

    def __init__(self) -> None:
        self.installs: list[tuple[str, float, list[str], bool]] = []
        original = BifrostProxy.install_plan
        log = self.installs

        def install_plan(proxy, plan, endpoints, version):
            at = time.monotonic()
            installed = original(proxy, plan, endpoints, version)
            if installed:
                config = plan.config
                log.append(
                    (
                        proxy.service,
                        at,
                        sorted({split.version for split in config.splits}),
                        bool(config.sticky),
                    )
                )
            return installed

        BifrostProxy.install_plan = install_plan

    def for_service(self, service: str) -> list[tuple[float, list[str], bool]]:
        return [(at, versions, sticky) for name, at, versions, sticky in self.installs
                if name == service]


# -- workloads -----------------------------------------------------------------


class ReleaseSut:
    """Case-study topology; the Table 1 release strategy, enacted over HTTP."""

    def __init__(self, params: dict):
        self.params = params

    async def build(self) -> dict:
        p = self.params
        self.app = await build_case_study(
            proxies=True,
            variants=True,
            db_delay=p["db_delay"],
            queue_factor=p["queue_factor"],
            scrape_interval=p["scrape_interval"],
        )
        app = self.app
        tokens = [
            app.auth.issue_token(f"user{i}@example.com") for i in range(p["users"])
        ]
        self.controller = HttpProxyController(
            {"product": app.product_proxy.address, "search": app.search_proxy.address}
        )
        self.engine = Engine(controller=self.controller)
        self.provider = HttpPrometheusProvider(f"http://{app.metrics.address}")
        self.engine.register_provider("prometheus", self.provider)
        self.execution = None
        return {"entry": app.entry_address, "tokens": tokens,
                "skus": [f"SKU-{i:04d}" for i in range(40)]}

    def servers(self):
        app = self.app
        return [app.mongo, app.auth, app.frontend, app.gateway, app.metrics,
                app.product_proxy, app.search_proxy,
                *app.product_versions.values(), *app.search_versions.values()]

    async def go(self, seconds: float, seed: int) -> None:
        scale = self.params["strategy_share"] * seconds / nominal_release_duration(1.0)
        self.scale = scale
        self.strategy = release_strategy(self.app.endpoints("product"), scale=scale)
        self.execution = self.engine.enact(self.strategy)

    async def finish(self, installs: InstallLog) -> dict:
        report = await asyncio.wait_for(self.engine.wait(self.execution), 30.0)
        return {
            "final_state": report.path[-1] if report.path else None,
            "status": report.status.value,
            "error": report.error,
            "enact_delay_s": report.delay(self.strategy),
            "strategy_scale": self.scale,
            "installs": installs.for_service("product"),
            "attempted": 1,
        }

    async def close(self) -> None:
        await self.engine.shutdown()
        await self.controller.close()
        await self.provider.close()
        await self.app.stop()


class ForwardSut:
    """Gateway -> Bifrost proxy without routing config -> no-work upstream."""

    def __init__(self, params: dict):
        self.params = params

    async def build(self) -> dict:
        body = self.params["body"].encode("ascii")
        self.upstream = HttpServer(name="upstream")

        async def answer(request):
            response = Response(status=200, body=body)
            response.headers.set("Content-Type", "text/plain")
            return response

        self.upstream.router.set_fallback(answer)
        await self.upstream.start()
        self.proxy = BifrostProxy("echo", default_upstream=self.upstream.address)
        await self.proxy.start()
        self.gateway = Gateway()
        await self.gateway.start()
        self.gateway.add_route("/", self.proxy.address)
        return {"entry": self.gateway.address}

    def servers(self):
        return [self.upstream, self.proxy, self.gateway]

    async def go(self, seconds: float, seed: int) -> None:
        pass

    async def finish(self, installs: InstallLog) -> dict:
        return {"installs": installs.for_service("echo"), "attempted": 0}

    async def close(self) -> None:
        for server in (self.gateway, self.proxy, self.upstream):
            await server.stop()


def _background_strategy(index: int, params: dict, repetitions: int):
    """One of the always-passing monitoring strategies of ``control``.

    Check *j* of strategy *index* reads series ``(16*index + j) // 4`` through
    query form ``(16*index + j) % 4``: all 256 query strings are distinct,
    so the provider never coalesces two checks (coalescing would depend on
    how ticks happen to line up), while the four forms over one series
    share their selector and ``rate`` nodes in the server's plan.
    """
    builder = StrategyBuilder(f"bg{index}")
    state = builder.state("watch")
    per = params["checks_per_strategy"]
    for j in range(per):
        k = per * index + j
        series = f'bg_load_total{{series="{k // 4}"}}'
        query = (
            series,
            f"rate({series}[5s])",
            f"avg_over_time({series}[5s])",
            f"sum(rate({series}[5s]))",
        )[k % 4]
        state.check(
            BasicCheck(
                f"c{j}",
                MetricCondition.simple(query, ">=0"),
                Timer(params["check_interval"], repetitions),
                OutputMapping.boolean(1.0),
            )
        )
    state.transitions([0.5], ["done", "done"])
    builder.state("done").final()
    return builder.build()


def _trial_strategy(lane: int, trial: int, params: dict, endpoints: dict):
    """A 90/10 canary guarded by an exception check on the lane's error series."""
    builder = StrategyBuilder(f"trial-{lane}-{trial}")
    service = f"lane{lane}"
    builder.service(service, endpoints)
    builder.state("canary").route(service, canary_split("stable", "canary", 10.0)).check(
        ExceptionCheck(
            "guard",
            MetricCondition.simple(f'lane_errors{{lane="{lane}"}}', "<1"),
            Timer(params["trial_interval"], params["trial_repetitions"]),
            fallback_state="rollback",
        )
    ).transitions([0], ["rollback", "done"])
    builder.state("done").route(service, single_version("canary")).final()
    builder.state("rollback").route(service, single_version("stable")).final(
        rollback=True
    )
    return builder.build()


class ControlSut:
    """Metrics server + engine: background checks and rollback-trial lanes."""

    def __init__(self, params: dict):
        self.params = params

    async def build(self) -> dict:
        p = self.params
        self.metrics = MetricsServer()
        await self.metrics.start(scrape=False)
        self.proxies = []
        for lane in range(p["lanes"]):
            proxy = BifrostProxy(f"lane{lane}", default_upstream="127.0.0.1:9")
            await proxy.start()
            self.proxies.append(proxy)
        self.controller = HttpProxyController(
            {proxy.service: proxy.address for proxy in self.proxies}
        )
        self.engine = Engine(controller=self.controller)
        # One pooled connection per concurrently evaluated check: with the
        # default 32-connection pool, colliding check waves churn sockets,
        # and how often waves collide varies from run to run.
        checks = p["strategies"] * p["checks_per_strategy"] + p["lanes"]
        self.provider_client = HttpClient(pool_size=checks, timeout=10.0)
        self.provider = HttpPrometheusProvider(
            f"http://{self.metrics.address}",
            client=self.provider_client,
        )
        self.engine.register_provider("prometheus", self.provider)
        self.engine.bus.subscribe(self._on_event)
        self.endpoints = {"stable": "127.0.0.1:9", "canary": "127.0.0.1:10"}
        self.trials: dict[str, dict] = {}
        self.background: list[tuple] = []  # (strategy, execution id)
        self.lane_tasks: list[asyncio.Task] = []
        self.lane_go = [asyncio.Event() for _ in self.proxies]
        self.stopping = False
        return {
            "metrics": self.metrics.address,
            "lanes": [proxy.address for proxy in self.proxies],
        }

    def servers(self):
        return [self.metrics, *self.proxies]

    def _on_event(self, event) -> None:
        trial = self.trials.get(event.strategy)
        if trial is None:
            return
        if event.kind is EventKind.CHECK_EXECUTED:
            if not event.data.get("result") and "detected_at" not in trial:
                trial["detected_at"] = time.monotonic()
            return
        if event.kind is not EventKind.ROUTING_APPLIED:
            return
        state = event.data.get("state")
        if state == "canary":
            emit({"ev": "live", "lane": trial["lane"], "trial": trial["trial"]})
        elif state == "rollback":
            trial["rolled_back_at"] = time.monotonic()

    async def go(self, seconds: float, seed: int) -> None:
        p = self.params
        repetitions = max(1, round(p["background_share"] * seconds / p["check_interval"]))
        # Staggered starts spread the strategies' evaluation waves evenly over
        # one check interval; started together, all 256 checks would share
        # every deadline and their collisions would vary from run to run.
        stagger = p["check_interval"] / p["strategies"]
        for index in range(p["strategies"]):
            strategy = _background_strategy(index, p, repetitions)
            execution = self.engine.enact(strategy, delay=index * stagger)
            self.background.append((strategy, execution))
        loop = asyncio.get_running_loop()
        self.lane_tasks = [
            loop.create_task(self._lane(lane)) for lane in range(len(self.proxies))
        ]
        for event in self.lane_go:
            event.set()

    def next_trial(self, lane: int) -> None:
        self.lane_go[lane].set()

    async def _lane(self, lane: int) -> None:
        trial = 0
        while True:
            await self.lane_go[lane].wait()
            self.lane_go[lane].clear()
            if self.stopping:
                return
            strategy = _trial_strategy(lane, trial, self.params, self.endpoints)
            record = {"lane": lane, "trial": trial}
            self.trials[strategy.name] = record
            report = await self.engine.wait(self.engine.enact(strategy))
            record["status"] = report.status.value
            emit({"ev": "end", "lane": lane, "trial": trial,
                  "status": record["status"]})
            trial += 1

    async def finish(self, installs: InstallLog) -> dict:
        self.stopping = True
        for event in self.lane_go:
            event.set()
        await asyncio.wait_for(asyncio.gather(*self.lane_tasks), 30.0)
        statuses, delays = [], []
        for strategy, execution_id in self.background:
            report = await asyncio.wait_for(self.engine.wait(execution_id), 30.0)
            statuses.append(report.status.value)
            if report.error is None:
                delays.append(report.delay(strategy))
        executions = len(self.engine.bus.of_kind(EventKind.CHECK_EXECUTED))
        return {
            "trials": list(self.trials.values()),
            "background": statuses,
            "enact_delays_s": delays,
            "check_executions": executions,
            "attempted": executions + len(statuses),
        }

    async def close(self) -> None:
        await self.engine.shutdown()
        await self.controller.close()
        await self.provider_client.close()
        for proxy in self.proxies:
            await proxy.stop()
        await self.metrics.stop()


WORKLOADS = {"release": ReleaseSut, "forward": ForwardSut, "control": ControlSut}


async def _commands():
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    while True:
        line = await reader.readline()
        if not line:
            return
        yield json.loads(line)


async def serve(workload: str, trace: bool, setup_only: bool) -> None:
    errors = ProviderErrorCounter()
    checks_logger = logging.getLogger("repro.core.checks")
    checks_logger.setLevel(logging.WARNING)
    checks_logger.addHandler(errors)
    installs = InstallLog()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    sut = WORKLOADS[workload](PARAMS[workload])
    ready = await sut.build()
    if tracer is not None:
        tracer.attach(sut)
    emit({"ready": ready})
    if setup_only:
        await sut.close()
        return
    try:
        async for command in _commands():
            name = command["cmd"]
            if name == "go":
                if tracer is not None:
                    await tracer.start()
                await sut.go(command["seconds"], command["seed"])
            elif name == "next":
                sut.next_trial(command["lane"])
            elif name == "finish":
                report = await sut.finish(installs)
                report["provider_errors"] = errors.count
                if tracer is not None:
                    report["layers"] = await tracer.finish(sut, workload)
                emit({"report": report})
            elif name == "exit":
                break
    finally:
        await sut.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    logging.basicConfig(level=logging.ERROR, stream=sys.stderr)
    asyncio.run(serve(args.workload, bool(args.trace), args.setup_only))


if __name__ == "__main__":
    main()
