"""Shared check scheduler: one timer heap for every check tick.

The historical engine paid one asyncio task plus one pending ``clock.sleep``
per check — the paper's Figure 9/10 sweep (hundreds to thousands of
parallel checks) therefore meant hundreds to thousands of parked tasks,
each woken individually per tick.  :class:`CheckScheduler` replaces that
with a single heap-driven driver task: every scheduled check contributes
one heap entry, the driver sleeps until the earliest deadline, and a due
tick dispatches the check's condition evaluation as a short-lived task
that re-arms the heap when it completes.

Ticks are **fixed-rate**: a check armed at ``start`` fires at
``start + k·interval`` for k = 1, 2, ..., whatever its evaluations cost,
so query latency never accumulates into the schedule.  An evaluation that
overruns one or more deadlines skips them: the next tick is the first
grid point not already past, and missed ticks are never replayed in a
burst (:attr:`CheckScheduler.ticks_skipped` counts them).  Checks armed
from one clock reading with equal intervals share every deadline and
therefore evaluate as one wave on every tick.

Semantics are inherited from :class:`~repro.core.checks.CheckProgress`
(the same object the per-task reference runner folds ticks through), so
exception-check preemption, ``onProviderError`` hold/tolerate handling,
and observer callbacks behave identically — property tests assert
observational equivalence under a :class:`~repro.clock.VirtualClock`.

Cost model: N checks waiting for their next tick cost one parked timer
(the driver's sleep) and zero dedicated tasks; evaluation tasks exist only
while a condition is actually being evaluated.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import logging

from ..clock import Clock
from ..metrics.provider import MetricsProvider
from .checks import (
    Check,
    CheckProgress,
    CheckResult,
    ExceptionTriggered,
    Execution,
    ExecutionObserver,
)

logger = logging.getLogger(__name__)


class _Entry:
    """One scheduled check: its progress, remaining ticks, and result future."""

    __slots__ = (
        "check",
        "providers",
        "observer",
        "on_complete",
        "progress",
        "remaining",
        "start",
        "tick",
        "future",
        "eval_task",
    )

    def __init__(
        self,
        check: Check,
        providers: dict[str, MetricsProvider],
        observer: ExecutionObserver | None,
        on_complete,
        future: "asyncio.Future[CheckResult]",
        start: float,
    ):
        self.check = check
        self.providers = providers
        self.observer = observer
        self.on_complete = on_complete
        self.progress = CheckProgress(check)
        self.remaining = check.timer.repetitions
        #: The tick grid: deadline k lies at ``start + tick * interval``.
        self.start = start
        self.tick = 1
        self.future = future
        self.eval_task: asyncio.Task | None = None


class CheckScheduler:
    """Runs many checks' timed loops off one heap and one driver task.

    ``schedule`` arms a check and returns a future resolving to its
    :class:`CheckResult` (or raising :class:`ExceptionTriggered` /
    whatever the evaluation raised).  Cancelling the future deschedules
    the check and aborts its in-flight evaluation, which is how the
    engine implements exception-check preemption: the first triggered
    check fails its future, and the state executor cancels the rest.

    The driver starts lazily on the first ``schedule`` and exits on its
    own once no checks remain, so a scheduler needs no explicit lifecycle
    management; ``close`` exists for eager teardown (engine shutdown).
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self._heap: list[tuple[float, int, _Entry]] = []
        self._sequence = itertools.count()
        self._active: set[_Entry] = set()
        self._wake = asyncio.Event()
        self._driver: asyncio.Task[None] | None = None
        #: How many dispatches grouped 2+ same-deadline checks into one
        #: evaluation wave, and the size of the latest wave (observability
        #: for the shared-evaluation-plan path).
        self.tick_waves = 0
        self.last_wave_size = 0
        #: Deadlines passed over because an evaluation overran them.
        self.ticks_skipped = 0

    def schedule(
        self,
        check: Check,
        providers: dict[str, MetricsProvider],
        observer: ExecutionObserver | None = None,
        on_complete=None,
        start: float | None = None,
    ) -> "asyncio.Future[CheckResult]":
        """Arm *check*'s timer loop; returns a future for its final result.

        Ticks fall at ``start + k·interval`` (k ≥ 1); *start* defaults to
        now.  Arming several checks from one *start* puts equal-interval
        checks on one phase, so they tick as one wave.

        *observer* is invoked after every recorded execution, exactly as
        the per-task runner did.  *on_complete*, when given, is awaited
        with the final :class:`CheckResult` right before the future
        resolves successfully (the engine publishes CHECK_COMPLETED there
        without needing a dedicated awaiting task per check).
        """
        future: asyncio.Future[CheckResult] = (
            asyncio.get_running_loop().create_future()
        )
        if start is None:
            start = self.clock.now()
        entry = _Entry(check, providers, observer, on_complete, future, start)
        # Arming a check subscribes its queries to any plan-aware provider:
        # subexpressions shared with other scheduled checks intern into one
        # evaluation-plan node, and their range windows get streaming
        # aggregates before the first tick fires.
        check.condition.subscribe(providers)
        self._active.add(entry)
        future.add_done_callback(
            lambda done, entry=entry: self._on_future_done(entry, done)
        )
        self._arm(entry, start + check.timer.interval)
        self._ensure_driver()
        return future

    # -- internal machinery ------------------------------------------------

    def _arm(self, entry: _Entry, deadline: float) -> None:
        heapq.heappush(self._heap, (deadline, next(self._sequence), entry))
        self._wake.set()

    def _ensure_driver(self) -> None:
        if self._driver is None or self._driver.done():
            self._driver = asyncio.get_running_loop().create_task(self._drive())

    async def _drive(self) -> None:
        while True:
            self._dispatch_due()
            if not self._active:
                return
            # Drop dead entries from the heap top so their stale deadlines
            # cannot stretch the next sleep.
            while self._heap and self._heap[0][2].future.done():
                heapq.heappop(self._heap)
            if not self._heap:
                # Every live check is mid-evaluation; its completion will
                # re-arm the heap (or finish) and set the wake event.
                await self._wait_for_wake(None)
                continue
            deadline = self._heap[0][0]
            now = self.clock.now()
            if deadline > now:
                await self._wait_for_wake(deadline - now)

    def _dispatch_due(self) -> None:
        """Dispatch every due check as one evaluation wave.

        Due entries are drained from the heap *before* any task is
        created, so checks sharing a deadline evaluate at the same clock
        instant — against a shared store their plan nodes carry the same
        ``(tick, generation)`` stamp and each distinct subexpression runs
        once for the whole wave (see :mod:`repro.metrics.plan`).  Ticks
        are fixed-rate, so checks that share a grid re-form the same wave
        on every tick; batching providers (the HTTP provider's pipelined
        round trip) see the whole wave's queries within one loop turn.
        """
        now = self.clock.now()
        heap = self._heap
        due: list[_Entry] = []
        while heap and heap[0][0] <= now:
            _, _, entry = heapq.heappop(heap)
            if entry.future.done() or entry.eval_task is not None:
                continue
            due.append(entry)
        if not due:
            return
        if len(due) > 1:
            self.tick_waves += 1
            self.last_wave_size = len(due)
        loop = asyncio.get_running_loop()
        for entry in due:
            entry.eval_task = loop.create_task(self._evaluate(entry))

    async def _wait_for_wake(self, timeout: float | None) -> None:
        """Park until the next deadline or until new/changed work arrives."""
        if self._wake.is_set():
            self._wake.clear()
            return
        waker = asyncio.ensure_future(self._wake.wait())
        if timeout is None:
            try:
                await waker
            finally:
                waker.cancel()
            self._wake.clear()
            return
        sleeper = asyncio.ensure_future(self.clock.sleep(timeout))
        try:
            await asyncio.wait(
                (waker, sleeper), return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            waker.cancel()
            sleeper.cancel()
        self._wake.clear()

    async def _evaluate(self, entry: _Entry) -> None:
        """One tick: evaluate the condition, fold it in, re-arm or finish."""
        try:
            evaluation = await entry.check.condition.evaluate_detailed(
                entry.providers
            )
            at = self.clock.now()
            outcome = entry.progress.apply(evaluation, at)
            if outcome.execution is not None:
                await self._notify(entry, outcome.execution)
            if outcome.triggered:
                entry.eval_task = None
                self._finish(entry, error=ExceptionTriggered(entry.check, at))
                return
            entry.remaining -= 1
            if entry.remaining <= 0:
                entry.eval_task = None
                await self._finish_result(entry)
                return
            entry.eval_task = None
            self._arm(entry, self._next_deadline(entry))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # defensive: a broken provider/observer
            entry.eval_task = None
            self._finish(entry, error=exc)

    def _next_deadline(self, entry: _Entry) -> float:
        """Advance *entry* to its next grid tick, skipping any already past.

        A deadline equal to now is still due; only strictly past ones are
        skipped, so an evaluation that costs exactly one interval keeps
        every tick.
        """
        interval = entry.check.timer.interval
        now = self.clock.now()
        tick = entry.tick + 1
        while entry.start + tick * interval < now:
            tick += 1
            self.ticks_skipped += 1
        entry.tick = tick
        return entry.start + tick * interval

    async def _notify(self, entry: _Entry, execution: Execution) -> None:
        if entry.observer is None:
            return
        outcome = entry.observer(entry.check, execution)
        if asyncio.iscoroutine(outcome):
            await outcome

    async def _finish_result(self, entry: _Entry) -> None:
        result = entry.progress.result()
        on_complete = entry.on_complete
        if on_complete is not None and not entry.future.done():
            try:
                outcome = on_complete(result)
                if asyncio.iscoroutine(outcome):
                    await outcome
            except asyncio.CancelledError:
                raise
            except Exception:
                logger.exception(
                    "check %r completion callback failed", entry.check.name
                )
        if not entry.future.done():
            entry.future.set_result(result)

    def _finish(self, entry: _Entry, error: BaseException) -> None:
        if not entry.future.done():
            entry.future.set_exception(error)

    def _on_future_done(
        self, entry: _Entry, future: "asyncio.Future[CheckResult]"
    ) -> None:
        self._active.discard(entry)
        if future.cancelled() and entry.eval_task is not None:
            entry.eval_task.cancel()
        # Wake the driver so it can re-plan (or exit when idle).
        self._wake.set()

    @property
    def pending_checks(self) -> int:
        """How many checks are currently scheduled (observability)."""
        return len(self._active)

    async def close(self) -> None:
        """Cancel every scheduled check and stop the driver."""
        for entry in list(self._active):
            entry.future.cancel()
        driver = self._driver
        if driver is not None and not driver.done():
            driver.cancel()
            try:
                await driver
            except asyncio.CancelledError:
                pass
        self._driver = None
        self._heap.clear()
