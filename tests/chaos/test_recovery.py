"""Worker crash detection and supervised recovery.

The contract under test, on both supervised pools (frontier BFS, swarm):

* within the restart budget, an injected hard worker death (``os._exit``,
  the same shape as a SIGKILL or the OOM killer) is detected at once, the
  dead worker is restarted, its lost work re-executed deterministically,
  and the run's verdict *and exact counts* equal the uninterrupted serial
  run's;
* past the budget, the crash surfaces as a structured
  :class:`WorkerCrashError` inside the engine and as an honest
  ``Inconclusive (worker crash)`` outcome outside it — never a hang,
  never a bare traceback.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os

import pytest

from repro.checker.search import bfs_search
from repro.engine import CheckPlan
from repro.engine.events import CollectingObserver
from repro.obs.telemetry import RunTelemetry
from repro.parallel import default_mp_context, parallel_bfs_search
from repro.parallel.worker import (
    WorkerCrashError,
    collect_replies,
    shutdown_processes,
)
from repro.protocols.catalog import multicast_entry, storage_entry
from repro.swarm.search import parallel_swarm_search

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="chaos recovery tests require the fork start method",
)


def _reply_then_exit(result_queue, worker_id, replied=None):
    result_queue.put(("expanded", worker_id, [], 0, 0))
    if replied is not None:
        result_queue.close()
        result_queue.join_thread()  # the reply is in the pipe
        replied.release()


def _die_silently(replied, survivors):
    # Crashes are noticed the moment they happen, so die only once the
    # survivors' replies are there to be preserved.
    for _ in range(survivors):
        replied.acquire()
    os._exit(1)


class TestCollectReplies:
    """The collector itself, driven with real processes at 2 and 4 workers."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_crashed_worker_raises_structured_error(self, workers, monkeypatch):
        # The collector blocks on the workers' process sentinels, so the
        # crash surfaces at once — not after a liveness poll (or two, as it
        # used to: one to notice, one "last drain").
        import time

        import repro.parallel.worker as worker_module

        monkeypatch.setattr(worker_module, "_LIVENESS_POLL_SECONDS", 30.0)
        started = time.monotonic()
        context = default_mp_context()
        result_queue = context.Queue()
        replied = context.Semaphore(0)
        processes = []
        # Worker 0 dies without replying; everyone else replies then exits.
        for worker_id in range(workers):
            if worker_id == 0:
                process = context.Process(
                    target=_die_silently, args=(replied, workers - 1)
                )
            else:
                process = context.Process(
                    target=_reply_then_exit,
                    args=(result_queue, worker_id, replied),
                )
            process.start()
            processes.append(process)
        try:
            with pytest.raises(WorkerCrashError) as excinfo:
                collect_replies(
                    result_queue, workers, "expanded",
                    timeout=60.0, processes=processes,
                )
            crash = excinfo.value
            assert crash.phase == "expanded"
            assert crash.workers == (0,)
            # Survivors' replies are preserved for the supervisor.
            assert crash.replies is not None
            assert crash.replies[0] is None
            for worker_id in range(1, workers):
                assert crash.replies[worker_id] is not None
            assert "worker(s) 0" in str(crash)
            assert time.monotonic() - started < 5.0
        finally:
            shutdown_processes(processes, queues=[result_queue])

    def test_prefilled_replies_are_not_reawaited(self):
        context = default_mp_context()
        result_queue = context.Queue()
        process = context.Process(
            target=_reply_then_exit, args=(result_queue, 1)
        )
        process.start()
        # Worker 0's reply is pre-filled (as after a restart); only worker
        # 1's reply is actually collected.
        prefilled = [("expanded", 0, [], 0, 0)[1:], None]
        try:
            replies = collect_replies(
                result_queue, 2, "expanded", timeout=60.0,
                processes=[process, process], replies=prefilled,
            )
            assert replies[0] == (0, [], 0, 0)
            assert replies[1] == (1, [], 0, 0)
        finally:
            shutdown_processes([process], queues=[result_queue])


class TestShutdownLadder:
    def test_exited_workers_need_no_escalation(self):
        context = default_mp_context()
        processes = [context.Process(target=_noop) for _ in range(3)]
        for process in processes:
            process.start()
        assert shutdown_processes(processes) == 0
        assert all(not process.is_alive() for process in processes)

    def test_wedged_worker_is_terminated_and_counted(self):
        context = default_mp_context()
        process = context.Process(target=_sleep_forever)
        process.start()
        telemetry = RunTelemetry()
        # Patch the grace down so the test doesn't wait the full ladder.
        import repro.parallel.worker as worker_module

        original = worker_module._SHUTDOWN_GRACE_SECONDS
        worker_module._SHUTDOWN_GRACE_SECONDS = 0.2
        try:
            escalated = shutdown_processes([process], telemetry=telemetry)
        finally:
            worker_module._SHUTDOWN_GRACE_SECONDS = original
        assert escalated == 1
        assert not process.is_alive()
        assert (
            telemetry.metrics.counter("worker_shutdown_escalations").total() == 1
        )


def _noop():
    pass


def _sleep_forever():
    import time

    while True:
        time.sleep(60)


GRAPHS = ["object", "fast"]

#: Worker commands are ``restore`` then, per level, ``expand`` / ``absorb``
#: — so the first level's two barriers are commands 2 and 3, and level d's
#: are commands 2 * d and 2 * d + 1.
BARRIER_PHASES = [
    pytest.param(2, "expanded", id="expand"),
    pytest.param(3, "absorbed", id="absorb"),
]


def assert_same_statistics(recovered, serial):
    slow = dataclasses.replace(serial.statistics, elapsed_seconds=0.0)
    fast = dataclasses.replace(recovered.statistics, elapsed_seconds=0.0)
    assert dataclasses.astuple(fast) == dataclasses.astuple(slow)


@pytest.mark.parametrize("graph", GRAPHS)
class TestFrontierRecovery:
    """Chaos-injected crashes against the frontier-parallel BFS, over the
    object and the packed graph (whose frontier ignored ``chaos`` before the
    loops were unified)."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_supervised_run_matches_serial_exactly(self, workers, graph):
        entry = storage_entry(3, 1)
        serial = bfs_search(entry.single_model(), entry.invariant)
        observer = CollectingObserver()
        telemetry = RunTelemetry()
        recovered = parallel_bfs_search(
            entry.single_model(), entry.invariant,
            CheckPlan(chaos="crash:1@3", successors=graph, workers=workers),
            observer=observer, telemetry=telemetry,
        )
        assert recovered.verified == serial.verified
        assert recovered.complete
        assert recovered.incomplete_reason is None
        assert_same_statistics(recovered, serial)
        counts = observer.counts()
        assert counts.get("worker-crashed") == 1
        assert counts.get("worker-restarted") == 1
        assert telemetry.metrics.counter("worker_crashes").total() == 1
        assert telemetry.metrics.counter("worker_restarts").total() == 1

    @pytest.mark.parametrize("store", ["full", "fingerprint"])
    @pytest.mark.parametrize("command, phase", BARRIER_PHASES)
    def test_crash_in_each_barrier_phase_recovers(self, command, phase,
                                                  store, graph):
        # At the first level and again four levels deeper in, where the
        # dead worker held a frontier, a shard and children of its own.
        entry = storage_entry(3, 1)
        serial = bfs_search(entry.single_model(), entry.invariant)
        for worker, at in ((0, command), (1, command + 8)):
            observer = CollectingObserver()
            recovered = parallel_bfs_search(
                entry.single_model(), entry.invariant,
                CheckPlan(chaos=f"crash:{worker}@{at}", store=store,
                          successors=graph, workers=2),
                observer=observer,
            )
            assert recovered.complete
            assert_same_statistics(recovered, serial)
            crashes = [event.payload for event in observer.events
                       if event.kind == "worker-crashed"]
            assert crashes == [{"worker": worker, "phase": phase}]
            assert observer.counts().get("worker-restarted") == 1

    def test_plan_level_crash_is_injected_and_recovered(self, graph):
        # The ledger's recover.crashed op in miniature; under
        # successors="fast" the parent never crashed at all.
        from repro.engine import run_plan

        entry = storage_entry(3, 1)
        serial = bfs_search(entry.single_model(), entry.invariant)
        observer = CollectingObserver()
        result = run_plan(
            entry.single_model(), entry.invariant,
            CheckPlan(shape="bfs", backend="frontier", workers=2,
                      successors=graph, chaos="crash:1@3"),
            observer=observer,
        )
        assert result.engine == "frontier-bfs"
        assert result.complete
        assert_same_statistics(result, serial)
        counts = observer.counts()
        assert counts.get("worker-crashed") == 1
        assert counts.get("worker-restarted") == 1

    @pytest.mark.parametrize("phase_offset", [-1, 0], ids=["expand", "absorb"])
    def test_crash_on_the_violating_level(self, phase_offset, graph):
        entry = multicast_entry(2, 1, 2, 1)
        protocol = entry.quorum_model()
        config = CheckPlan(store="fingerprint", successors=graph, workers=2)
        baseline = parallel_bfs_search(protocol, entry.invariant, config)
        assert baseline.verified is False
        # Level d's absorb barrier is command 2 * d + 1 of every worker.
        level = len(baseline.counterexample.steps)
        for worker in (0, 1):
            observer = CollectingObserver()
            recovered = parallel_bfs_search(
                protocol, entry.invariant,
                dataclasses.replace(
                    config, chaos=f"crash:{worker}@{2 * level + 1 + phase_offset}"),
                observer=observer,
            )
            assert observer.counts().get("worker-restarted") == 1
            assert recovered.verified is False
            assert_same_statistics(recovered, baseline)
            assert len(recovered.counterexample.steps) == level
            recovered.counterexample.replay(protocol)

    def test_restart_budget_exhaustion_gives_up(self, graph):
        # One crash per worker at MAX_WORKER_RESTARTS + 1 workers: the
        # supervisor must stop restarting and report honestly.  Each
        # restarted worker runs without the fault plan, so distinct workers
        # must crash to spend the budget.
        from repro.parallel.worker import MAX_WORKER_RESTARTS

        workers = MAX_WORKER_RESTARTS + 1
        entry = storage_entry(3, 1)
        observer = CollectingObserver()
        outcome = parallel_bfs_search(
            entry.single_model(), entry.invariant,
            CheckPlan(chaos=",".join(f"crash:{w}@3" for w in range(workers)),
                      successors=graph, workers=workers),
            observer=observer,
        )
        assert outcome.complete is False
        assert outcome.incomplete_reason == "worker crash"
        assert outcome.verified is True  # no violation seen — inconclusive
        counts = observer.counts()
        assert counts.get("worker-crashed") == workers
        assert counts.get("worker-restarted", 0) < workers

    def test_the_environment_injects_nothing(self, graph, monkeypatch):
        # Fails at the parent: the pool read the spec from this variable,
        # and so did every replacement, which crashed again until the
        # restart budget was spent.
        monkeypatch.setenv("REPRO_CHAOS", "crash:1@3")
        entry = storage_entry(3, 1)
        serial = bfs_search(entry.single_model(), entry.invariant)
        observer = CollectingObserver()
        outcome = parallel_bfs_search(
            entry.single_model(), entry.invariant,
            CheckPlan(successors=graph, workers=2), observer=observer,
        )
        assert outcome.complete
        assert_same_statistics(outcome, serial)
        assert "worker-crashed" not in observer.counts()


class TestSwarmRecovery:
    """Chaos-injected crashes against the swarm walker pool."""

    def test_supervised_swarm_verdict_identical(self):
        entry = storage_entry(3, 1)
        config = CheckPlan(backend="swarm", walks=200, walk_seed=7, workers=4)
        baseline = parallel_swarm_search(entry.single_model(), entry.invariant, config)
        observer = CollectingObserver()
        recovered = parallel_swarm_search(
            entry.single_model(), entry.invariant,
            dataclasses.replace(config, chaos="crash:2@5"), observer=observer,
        )
        assert recovered.verified == baseline.verified
        assert recovered.incomplete_reason is None
        counts = observer.counts()
        assert counts.get("worker-crashed") == 1
        assert counts.get("worker-restarted") == 1

    def test_restart_budget_exhaustion_gives_up(self):
        from repro.parallel.worker import MAX_WORKER_RESTARTS

        workers = MAX_WORKER_RESTARTS + 1
        entry = storage_entry(3, 1)
        observer = CollectingObserver()
        outcome = parallel_swarm_search(
            entry.single_model(), entry.invariant,
            CheckPlan(backend="swarm", walks=200, walk_seed=7, workers=workers,
                      chaos=",".join(f"crash:{w}@5" for w in range(workers))),
            observer=observer,
        )
        assert outcome.incomplete_reason == "worker crash"
        assert outcome.complete is False
        counts = observer.counts()
        assert counts.get("worker-crashed") == workers
        assert counts.get("worker-restarted", 0) < workers
