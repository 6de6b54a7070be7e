"""The in-process checking service: bounded queue, worker pool, health.

:class:`CheckService` is checking-as-a-service without the socket: an
asyncio front door over the plan layer.  ``submit`` places a
:class:`~repro.service.jobs.JobRequest` on a bounded queue (overload is an
explicit :class:`ServiceOverloadedError`, not unbounded memory growth); a
pool of worker slots drains it, each running the engine through
:func:`~repro.engine.registry.run_plan` on an executor thread so the event
loop stays responsive while a search runs.

Verdicts flow through the :class:`~repro.service.cache.ResultCache`:
identical (protocol, property, plan) submissions are served from memory
with a ``job-cache-hit`` event and no engine run.  Budgets truncate
searches instead of killing jobs, so a budget-hit job finishes ``done``
with an honest ``inconclusive`` outcome carrying full statistics and
telemetry.

Jobs are preemptible: :meth:`CheckService.cancel` cancels a queued job
immediately and preempts a running one cooperatively through a
:class:`_CancelGate` observer that raises from the engine's own event
stream, so the search unwinds through its normal teardown and the slot is
reused.  A per-job wall-clock limit (``JobBudgets.max_wall_seconds``)
rides the same gate.  Either way the job ends with an honest
``Inconclusive (cancelled)`` verdict, which the cache refuses to memoize.

Health is derived from the same heartbeat discipline the work-stealing
coordinator uses (PR 7): every event a job emits refreshes its slot's
heartbeat, and :meth:`CheckService.health` runs a
:class:`~repro.parallel.worksteal.StallDetector` over the slots — with an
injectable clock, so stall handling unit-tests without real waiting.
"""

from __future__ import annotations

import asyncio
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from ..checker.result import CheckResult
from ..engine.events import EngineEvent, MultiObserver, Observer, emit
from ..engine.plan import UnsupportedPlanError, strategy_label
from ..engine.registry import check_protocol, resolve, run_plan
from ..obs.telemetry import MetricsRegistry
from ..parallel.worksteal import WORKER_STALL_SECONDS, StallDetector
from .cache import ResultCache
from .jobs import CANCELLED, DONE, FAILED, QUEUED, RUNNING, Job, JobRequest


class ServiceError(RuntimeError):
    """Base class of service-layer failures."""


class ServiceOverloadedError(ServiceError):
    """The bounded job queue is full; resubmit later.

    Carrying the limit keeps the refusal actionable: callers distinguish
    "the service is sized too small" from "I am submitting too fast".
    """

    def __init__(self, queue_limit: int) -> None:
        super().__init__(
            f"job queue is full ({queue_limit} queued jobs); "
            "wait for capacity or raise queue_limit"
        )
        self.queue_limit = queue_limit


class UnknownJobError(ServiceError, KeyError):
    """No job with the requested id."""

    def __init__(self, job_id: str) -> None:
        super().__init__(f"unknown job {job_id!r}")
        self.job_id = job_id


class _SlotHeartbeat(Observer):
    """Refreshes one worker slot's heartbeat on every event it relays."""

    def __init__(self, service: "CheckService", slot: int) -> None:
        self._service = service
        self._slot = slot

    def on_event(self, event: EngineEvent) -> None:
        self._service._beat(self._slot)


class JobCancelled(ServiceError):
    """Raised inside the search thread to preempt a cancelled job.

    Carries the cancellation reason so the job record can distinguish an
    explicit ``cancel`` request from a tripped wall-clock limit; both end
    as ``Inconclusive (cancelled)``.
    """

    def __init__(self, job_id: str, reason: str) -> None:
        super().__init__(f"job {job_id} cancelled ({reason})")
        self.job_id = job_id
        self.reason = reason


class _CancelGate(Observer):
    """Preempts a running engine from inside its own event stream.

    Engines emit events synchronously on the search thread, so raising
    from :meth:`on_event` unwinds the search cooperatively — no signals,
    no thread killing, and the engine's ``finally`` blocks (worker
    teardown, queue closing) still run.  The gate trips on an explicit
    cancellation flag or on the job's wall-clock deadline, whichever
    comes first.  Cancellation latency is therefore one event interval;
    every engine emits at least per level / per walk batch, which keeps
    it well under a second in practice.
    """

    def __init__(
        self,
        job_id: str,
        flag: threading.Event,
        deadline: Optional[float] = None,
        clock=time.monotonic,
    ) -> None:
        self._job_id = job_id
        self._flag = flag
        self._deadline = deadline
        self._clock = clock

    def on_event(self, event: EngineEvent) -> None:
        if self._flag.is_set():
            raise JobCancelled(self._job_id, "cancel requested")
        if self._deadline is not None and self._clock() >= self._deadline:
            raise JobCancelled(self._job_id, "wall-clock limit")


class CheckService:
    """Async job service over :func:`~repro.engine.registry.run_plan`.

    Args:
        workers: Concurrent job slots (each runs one engine at a time on
            an executor thread).
        queue_limit: Bound of the submission queue; full means
            :class:`ServiceOverloadedError`.
        cache: Verdict cache; a fresh default-capacity one when omitted.
        stall_seconds: Heartbeat silence threshold of the health probe.
        clock: Monotonic time source — injectable for tests.
    """

    def __init__(
        self,
        workers: int = 2,
        queue_limit: int = 16,
        cache: Optional[ResultCache] = None,
        stall_seconds: float = WORKER_STALL_SECONDS,
        clock=time.monotonic,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.workers = workers
        self.queue_limit = queue_limit
        self.cache = cache if cache is not None else ResultCache()
        self.stall_seconds = stall_seconds
        self.metrics = MetricsRegistry()
        self._clock = clock
        self._queue: "asyncio.Queue[Optional[Job]]" = asyncio.Queue(
            maxsize=queue_limit
        )
        self._jobs: Dict[str, Job] = {}
        self._done_events: Dict[str, asyncio.Event] = {}
        self._cancel_flags: Dict[str, threading.Event] = {}
        self._running: List[Optional[Job]] = [None] * workers
        self._heartbeats: List[float] = [0.0] * workers
        self._detector = StallDetector(workers, stall_seconds, clock)
        self._stall_episodes = 0
        self._engine_runs = 0
        self._job_counter = 0
        self._worker_tasks: List[asyncio.Task] = []
        self._started = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Spawn the worker slots; idempotent."""
        if self._started:
            return
        self._started = True
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service"
        )
        self._worker_tasks = [
            asyncio.create_task(self._worker_loop(slot), name=f"service-slot-{slot}")
            for slot in range(self.workers)
        ]

    async def stop(self) -> None:
        """Drain the queue, finish running jobs, release the executor."""
        if not self._started:
            return
        for _ in self._worker_tasks:
            await self._queue.put(None)
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        self._executor.shutdown(wait=True)
        self._started = False

    async def __aenter__(self) -> "CheckService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Submission and retrieval
    # ------------------------------------------------------------------ #
    def validate(self, request: JobRequest) -> None:
        """Fail fast on a request that could never run.

        Resolves the workload and the effective plan without executing
        anything, raising the same structured errors the job would die
        with (``KeyError`` for an unknown cell, ``UnsupportedPlanError``
        with a runnable alternative for an unsupported axis combination).
        The TCP front door calls this so wire clients get an immediate
        ``ok: false`` instead of a queued-then-failed job; in-process
        submission stays lenient and records the failure on the job.
        """
        protocol, _ = request.resolve_workload()
        check_protocol(*resolve(request.effective_plan()), protocol)

    async def submit(self, request: JobRequest) -> Job:
        """Enqueue one job; returns immediately with the queued job.

        Raises:
            ServiceOverloadedError: The bounded queue is full.
        """
        if not self._started:
            raise ServiceError("service is not started (use 'async with' or start())")
        self._job_counter += 1
        job = Job(id=f"job-{self._job_counter}", request=request)
        job.submitted_ts = self._clock()
        emit(
            job.events,
            "job-submitted",
            job=job.id,
            cell=request.cell,
            model=request.model,
            plan=request.effective_plan().axes(),
        )
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            raise ServiceOverloadedError(self.queue_limit) from None
        self._jobs[job.id] = job
        self._done_events[job.id] = asyncio.Event()
        self._cancel_flags[job.id] = threading.Event()
        self.metrics.counter("service.jobs_submitted").inc()
        return job

    def job(self, job_id: str) -> Job:
        """Look a job up by id."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(job_id) from None

    def jobs(self) -> List[Job]:
        """Every known job, in submission order."""
        return list(self._jobs.values())

    async def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job finishes (done or failed); returns it."""
        job = self.job(job_id)
        event = self._done_events[job_id]
        if timeout is None:
            await event.wait()
        else:
            await asyncio.wait_for(event.wait(), timeout)
        return job

    async def check(self, request: JobRequest) -> Job:
        """Submit-and-wait convenience: one request to a finished job."""
        job = await self.submit(request)
        return await self.wait(job.id)

    def cancel(self, job_id: str) -> Job:
        """Cancel a job; returns it immediately (without waiting).

        A *queued* job is cancelled on the spot: its status flips to
        ``cancelled``, waiters are released, and the worker loop discards
        it when it eventually drains off the queue — the slot is never
        occupied.  A *running* job is preempted cooperatively: the cancel
        flag trips the job's :class:`_CancelGate` at its next engine
        event, the search unwinds through its normal teardown, and the
        job finishes as ``Inconclusive (cancelled)`` with the slot freed
        for the next job.  Finished jobs (done / failed / already
        cancelled) are left untouched.

        Raises:
            UnknownJobError: No job with this id.
        """
        job = self.job(job_id)
        if job.status == QUEUED:
            job.status = CANCELLED
            job.error = "cancelled while queued"
            job.finished_ts = self._clock()
            emit(job.events, "job-cancelled", job=job.id, reason="cancel requested")
            self.metrics.counter("service.jobs_cancelled").inc()
            self._done_events[job.id].set()
        elif job.status == RUNNING:
            self._cancel_flags[job.id].set()
        return job

    def cancel_active(self) -> int:
        """Cancel every queued and running job; returns how many.

        The graceful-shutdown path: after this, :meth:`stop` returns as
        soon as the running searches hit their next engine event and
        unwind, instead of waiting out arbitrarily long explorations.
        """
        cancelled = 0
        for job in list(self._jobs.values()):
            if job.status in (QUEUED, RUNNING):
                self.cancel(job.id)
                cancelled += 1
        return cancelled

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    async def _worker_loop(self, slot: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            if job is None:
                break
            if job.status == CANCELLED:
                # Cancelled while queued: already finalised by cancel();
                # discard without occupying the slot.
                continue
            self._running[slot] = job
            self._beat(slot)
            try:
                await loop.run_in_executor(
                    self._executor, self._execute, slot, job
                )
            except Exception:
                # _execute fails the job for every expected error; anything
                # escaping it is a service bug — record it on the job rather
                # than letting the slot die with the queue still full.
                if job.status not in (DONE, FAILED, CANCELLED):
                    job.status = FAILED
                    job.error = traceback.format_exc().strip()
                    self.metrics.counter("service.jobs_failed").inc()
            finally:
                self._running[slot] = None
                self._heartbeats[slot] = 0.0
                self._done_events[job.id].set()

    def _execute(self, slot: int, job: Job) -> None:
        """Run one job to completion; runs on an executor thread."""
        job.status = RUNNING
        job.worker = slot
        job.started_ts = self._clock()
        wall_limit = job.request.budgets.max_wall_seconds
        deadline = None if wall_limit is None else job.started_ts + wall_limit
        gate = _CancelGate(
            job.id, self._cancel_flags[job.id], deadline, self._clock
        )
        # The gate sits *after* the job log in the chain so the event that
        # trips it is still recorded before the search unwinds.
        observer = MultiObserver([job.events, _SlotHeartbeat(self, slot), gate])
        try:
            emit(observer, "job-started", job=job.id, worker=slot)
            protocol, prop = job.request.resolve_workload()
            plan = job.request.effective_plan()
            key = self.cache.key_for(protocol, prop.name, plan)
            result = self.cache.get(key)
            if result is not None:
                job.cache_hit = True
                self.metrics.counter("service.cache_hits").inc()
                emit(
                    observer,
                    "job-cache-hit",
                    job=job.id,
                    fingerprint=key[0],
                    property=prop.name,
                )
            else:
                self._engine_runs += 1
                self.metrics.counter("service.engine_runs").inc()
                result = run_plan(protocol, prop, plan, observer=observer)
                self.cache.put(key, result)
            job.result = result
            job.status = DONE
            job.finished_ts = self._clock()
            self.metrics.counter("service.jobs_done").inc()
            self.metrics.counter(
                f"service.outcome.{result.outcome()}"
            ).inc()
            emit(
                observer,
                "job-finished",
                job=job.id,
                outcome=result.outcome(),
                complete=result.complete,
                cache_hit=job.cache_hit,
                states_visited=result.statistics.states_visited,
            )
        except JobCancelled as exc:
            self._cancelled(job, exc)
        except (UnsupportedPlanError, KeyError, ValueError) as exc:
            self._fail(observer, job, exc)
        except Exception as exc:  # engine crash: fail the job, keep the slot
            self._fail(observer, job, exc, include_traceback=True)

    def _cancelled(self, job: Job, exc: JobCancelled) -> None:
        """Finalise a preempted job with an honest partial verdict.

        The search unwound mid-flight, so no statistics survive; the job
        gets an explicitly incomplete, unverified :class:`CheckResult`
        whose ``incomplete_reason`` renders as ``Inconclusive
        (cancelled)``.  Never cached (the cache refuses incomplete
        results), so a resubmission runs the check for real.
        """
        plan = job.request.effective_plan()
        job.result = CheckResult(
            protocol_name=job.request.cell,
            property_name=plan.goal,
            strategy=strategy_label(plan),
            verified=True,
            complete=False,
            plan=plan,
            incomplete_reason="cancelled",
        )
        job.status = CANCELLED
        job.error = str(exc)
        job.finished_ts = self._clock()
        self.metrics.counter("service.jobs_cancelled").inc()
        # Straight to the job log: the gate would re-raise from inside
        # this very emit if it stayed in the chain.
        emit(job.events, "job-cancelled", job=job.id, reason=exc.reason)

    def _fail(
        self,
        observer: Observer,
        job: Job,
        exc: Exception,
        include_traceback: bool = False,
    ) -> None:
        job.status = FAILED
        job.error = str(exc)
        if include_traceback:
            job.error = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ).strip()
        job.finished_ts = self._clock()
        self.metrics.counter("service.jobs_failed").inc()
        emit(
            observer,
            "job-failed",
            job=job.id,
            error=str(exc),
            error_kind=type(exc).__name__,
        )

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #
    def _beat(self, slot: int) -> None:
        self._heartbeats[slot] = self._clock()

    def health(self) -> Dict[str, object]:
        """Liveness snapshot of the service (the ``health`` server op).

        A worker slot is *stalled* when it holds a running job whose event
        stream has been silent past ``stall_seconds`` — the same heartbeat
        rule the parallel coordinator applies to its worker processes, run
        here over service slots.  Stall episodes are also counted through a
        :class:`StallDetector` so repeated probes of one silent slot count
        a single episode, and engine-level ``worker-stalled`` events seen
        by running jobs are surfaced alongside.
        """
        now = self._clock()
        for _slot, _idle in self._detector.check(tuple(self._heartbeats), now=now):
            self._stall_episodes += 1
        stalled = []
        engine_stalls = 0
        for slot, job in enumerate(self._running):
            if job is None:
                continue
            engine_stalls += job.events.stall_events
            beat = self._heartbeats[slot]
            if beat > 0.0 and now - beat >= self.stall_seconds:
                stalled.append(
                    {
                        "worker": slot,
                        "job": job.id,
                        "idle_seconds": now - beat,
                    }
                )
        states = {state: 0 for state in (QUEUED, RUNNING, DONE, FAILED, CANCELLED)}
        for job in self._jobs.values():
            states[job.status] += 1
        return {
            "status": "degraded" if stalled else "ok",
            "workers": self.workers,
            "queued": self._queue.qsize(),
            "queue_limit": self.queue_limit,
            "running": [job.id for job in self._running if job is not None],
            "stalled": stalled,
            "stall_episodes": self._stall_episodes,
            "engine_stall_events": engine_stalls,
            "jobs": states,
            "engine_runs": self._engine_runs,
            "cache": self.cache.stats(),
        }

    @property
    def engine_runs(self) -> int:
        """Number of jobs that actually ran an engine (cache misses)."""
        return self._engine_runs


def run_jobs(
    requests: List[JobRequest],
    **service_kwargs,
) -> List[Job]:
    """Synchronous convenience: run requests through a throwaway service.

    Submits everything up front (so the cache and the worker pool see the
    batch concurrently), waits for all verdicts, returns the finished jobs
    in request order.  This is the in-process "thin client" used by the
    examples and the CLI's non-server fallback.
    """

    async def _run() -> List[Job]:
        async with CheckService(**service_kwargs) as service:
            jobs = []
            for request in requests:
                jobs.append(await service.submit(request))
            return [await service.wait(job.id) for job in jobs]

    return asyncio.run(_run())
