"""Seeded random-walk search: serial walker and parallel walker pool.

Both entry points share one walk kernel: derive walk ``i``'s RNG from
``(walk_seed, i)``, walk from the initial state picking a uniformly random
enabled execution per step, stop at ``max_depth`` (or a dead end, or a
violation), and record the exec-index path.  Because the per-walk streams
are pure functions of the root seed, the parallel pool is just a walk-index
partition — worker ``w`` of ``W`` runs walks ``w, w+W, w+2W, ...`` — and
finds exactly the violations the serial walker would, on exactly the same
walk indices.

Both take the run's frozen :class:`~repro.engine.plan.CheckPlan`, a
swarm plan: its ``walks``, ``walk_seed``, ``max_depth`` (the per-walk step
bound, defaulted by the plan) and, for the pool, ``workers`` are the
walker's parameters.  The walker runs over the
:class:`~repro.checker.stategraph.StateGraph` seam, so
``successors="object"`` and ``"fast"`` are the same code.
Violations rebuild a first-class
:class:`~repro.checker.counterexample.Counterexample` by replaying the
exec-index path over the same graph (the rebuild currency the parallel
exhaustive engines use), so a swarm counterexample is verified by
construction: the replay recomputes every enabled set and fails loudly if
the path does not reproduce.

Honesty contract: a violation yields ``verified=False, complete=False``
(conclusive "violated"); a clean exhausted budget yields ``verified=True,
complete=False`` — which :func:`repro.checker.result.outcome_of` maps to
*inconclusive*, never "Verified".  Sampling cannot certify what it did not
exhaust.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..checker.result import SearchStatistics
from ..checker.search import SearchOutcome
from ..checker.stategraph import StateGraph, make_graph, replay_path
from ..engine.events import PROGRESS_INTERVAL, Observer, emit, maybe_span
from ..engine.plan import CheckPlan
from ..mp.protocol import Protocol
from ..checker.property import Invariant
from .filter import SwarmFilter
from .seeds import walk_rng

#: Walks per ``walk-batch`` telemetry span in the serial walker.
WALK_BATCH = 256

#: Walks between two batched flushes of a parallel worker's shared
#: walks-completed counter (coordinator progress ticks read it live).
WALK_FLUSH_BATCH = 32


@dataclass
class SwarmOutcomeStats:
    """Aggregate walk counters (merged across workers in parallel runs)."""

    walks_completed: int = 0
    steps: int = 0
    unique_fingerprints: int = 0
    deepest_walk: int = 0
    dead_ends: int = 0
    enabled_computations: int = 0
    violations: int = 0

    def merge(self, other: "SwarmOutcomeStats") -> None:
        self.walks_completed += other.walks_completed
        self.steps += other.steps
        self.unique_fingerprints += other.unique_fingerprints
        self.deepest_walk = max(self.deepest_walk, other.deepest_walk)
        self.dead_ends += other.dead_ends
        self.enabled_computations += other.enabled_computations
        self.violations += other.violations

    def as_dict(self) -> dict:
        return {
            "walks_completed": self.walks_completed,
            "steps": self.steps,
            "unique_fingerprints": self.unique_fingerprints,
            "deepest_walk": self.deepest_walk,
            "dead_ends": self.dead_ends,
            "enabled_computations": self.enabled_computations,
            "violations": self.violations,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SwarmOutcomeStats":
        return cls(**payload)


def _walk_graph(protocol: Protocol, config: CheckPlan,
                telemetry=None) -> StateGraph:
    # Walks revisit states along every interleaving, which is exactly the
    # access pattern the object engine's caches exist for: stateful=False.
    return make_graph(protocol, config, telemetry=telemetry, stateful=False)


def _run_one_walk(
    graph: StateGraph, holds, walk_index: int, walk_seed: int, max_depth: int,
    visited: SwarmFilter, stats: SwarmOutcomeStats,
) -> Optional[Tuple[int, ...]]:
    """Walk ``walk_index``; the violating exec-index path, or ``None``.

    Pure given ``(walk_seed, walk_index)`` and the protocol: the RNG stream,
    and therefore the path, never depends on scheduling or worker count.
    """
    rng = walk_rng(walk_seed, walk_index)
    state = graph.initial
    path: List[int] = []
    while len(path) < max_depth:
        enabled = graph.enabled(state)
        stats.enabled_computations += 1
        if not enabled:
            stats.dead_ends += 1
            break
        choice = rng.choose(len(enabled))
        state = graph.successor(state, enabled[choice])
        path.append(choice)
        stats.steps += 1
        if visited.add(graph.fingerprint(state)):
            stats.unique_fingerprints += 1
        if not holds(state):
            stats.deepest_walk = max(stats.deepest_walk, len(path))
            stats.violations += 1
            return tuple(path)
    stats.deepest_walk = max(stats.deepest_walk, len(path))
    return None


def _statistics_of(stats: SwarmOutcomeStats, elapsed: float) -> SearchStatistics:
    """Map walk counters onto the shared statistics record.

    ``states_visited`` is the *distinct-state estimate* from the shared
    filter (walks revisit freely, so raw step counts would be misleading);
    the revisited remainder lands in ``revisits``.
    """
    return SearchStatistics(
        states_visited=stats.unique_fingerprints,
        transitions_executed=stats.steps,
        revisits=max(0, stats.steps - stats.unique_fingerprints),
        max_depth=stats.deepest_walk,
        elapsed_seconds=elapsed,
        enabled_set_computations=stats.enabled_computations,
    )


def _record_swarm_telemetry(telemetry, graph, stats: SwarmOutcomeStats,
                            elapsed: float) -> None:
    if telemetry is None:
        return
    metrics = telemetry.metrics
    metrics.gauge(
        "swarm_walks_completed", "Random walks completed this run"
    ).set(stats.walks_completed)
    metrics.gauge(
        "swarm_walks_per_second", "Walk throughput", unit="walks/s"
    ).set(stats.walks_completed / elapsed if elapsed > 0 else 0.0)
    metrics.gauge(
        "swarm_unique_fingerprints",
        "Distinct-state estimate from the shared visited filter",
    ).set(stats.unique_fingerprints)
    graph.record(telemetry)


def _budget_exhausted(config: CheckPlan, stats: SwarmOutcomeStats,
                      start_time: float, max_steps: Optional[int]) -> bool:
    if max_steps is not None and stats.steps >= max_steps:
        return True
    if (config.max_seconds is not None
            and time.perf_counter() - start_time >= config.max_seconds):
        return True
    return False


def _emit_walk_progress(observer, stats: SwarmOutcomeStats) -> None:
    emit(
        observer, "progress",
        walks_completed=stats.walks_completed,
        violations=stats.violations,
        unique_fingerprints=stats.unique_fingerprints,
        states_visited=stats.unique_fingerprints,
    )


def _finish(
    invariant, graph, stats, violation, observer, telemetry,
    start_time, incomplete_reason: Optional[str] = None,
) -> SearchOutcome:
    """Shared epilogue: replay, telemetry, honest outcome assembly."""
    counterexample = None
    if violation is not None:
        walk_index, path = violation
        with maybe_span(telemetry, "ce-replay", path_length=len(path),
                        walk_index=walk_index):
            counterexample = replay_path(graph, path, invariant.name)
    elapsed = time.perf_counter() - start_time
    _record_swarm_telemetry(telemetry, graph, stats, elapsed)
    # Never complete: sampling exhausted its budget, not the state space.
    return SearchOutcome(
        verified=counterexample is None,
        complete=False,
        counterexample=counterexample,
        statistics=_statistics_of(stats, elapsed),
        incomplete_reason=incomplete_reason,
    )


def swarm_search(
    protocol: Protocol,
    invariant: Invariant,
    config: CheckPlan,
    observer: Optional[Observer] = None,
    telemetry=None,
) -> SearchOutcome:
    """Serial seeded random-walk search.

    Stops at the first violation (a sampler has nothing conclusive to add
    past one counterexample); otherwise runs the full ``config.walks``
    budget, bounded additionally by ``config.max_states`` (total steps) and
    ``config.max_seconds``.
    """
    walks, walk_seed, max_depth = config.walks, config.walk_seed, config.max_depth
    start_time = time.perf_counter()
    stats = SwarmOutcomeStats()
    graph = _walk_graph(protocol, config, telemetry)
    holds = graph.invariant_checker(invariant)
    visited = SwarmFilter()

    if visited.add(graph.fingerprint(graph.initial)):
        stats.unique_fingerprints += 1
    if not holds(graph.initial):
        stats.violations += 1
        emit(observer, "violation-found", states_visited=1, depth=0,
             walk_index=0)
        return _finish(invariant, graph, stats, (0, ()), observer,
                       telemetry, start_time)

    next_progress = PROGRESS_INTERVAL
    walk_index = 0
    while walk_index < walks:
        batch_end = min(walk_index + WALK_BATCH, walks)
        with maybe_span(telemetry, "walk-batch", batch_start=walk_index,
                        batch_size=batch_end - walk_index):
            while walk_index < batch_end:
                path = _run_one_walk(
                    graph, holds, walk_index, walk_seed, max_depth, visited,
                    stats,
                )
                stats.walks_completed += 1
                if path is not None:
                    emit(observer, "violation-found",
                         states_visited=stats.unique_fingerprints,
                         depth=len(path), walk_index=walk_index)
                    return _finish(invariant, graph, stats,
                                   (walk_index, path), observer, telemetry,
                                   start_time)
                walk_index += 1
                if stats.walks_completed >= next_progress:
                    next_progress += PROGRESS_INTERVAL
                    _emit_walk_progress(observer, stats)
                if _budget_exhausted(config, stats, start_time,
                                     config.max_states):
                    return _finish(invariant, graph, stats, None,
                                   observer, telemetry, start_time)
    return _finish(invariant, graph, stats, None, observer,
                   telemetry, start_time)


# --------------------------------------------------------------------- #
# Parallel walker pool
# --------------------------------------------------------------------- #

def _swarm_worker(
    worker_id: int,
    protocol: Protocol,
    invariant: Invariant,
    config: CheckPlan,
    visited: SwarmFilter,
    stop_event,
    best_violation,
    walks_counter,
    result_queue,
    chaos: Optional[str] = None,
) -> None:
    """One pool worker: walks ``worker_id, worker_id+workers, ...``
    (``workers`` being ``config.workers``).

    The walk-index partition carries the determinism: which worker runs a
    walk never changes what the walk does, so the set of violating walk
    indices is identical to the serial run's.  A first violation does not
    hard-stop the pool — it lowers the shared ``best_violation`` bound, and
    workers keep walking only the indices *below* it.  Every walk below the
    final bound therefore completes, which makes the reported violation the
    globally minimal violating walk index — the same one the serial
    schedule reports — independent of worker count and timing.

    ``config.max_states`` is the pool's total step budget: each worker
    stops starting walks once it has used its own share of it, so the pool
    runs at most ``max_states + workers * max_depth`` steps, the serial
    walker's bound plus one unfinished walk per worker.

    ``chaos`` optionally injects planned faults (one "command" per walk);
    because walks are pure in ``(walk_seed, walk_index)``, a crashed
    worker's residue class can be re-run from scratch by a replacement with
    an identical set of violating walk indices.
    """
    try:
        from ..chaos import chaos_hook_for_worker

        workers, walks, walk_seed = config.workers, config.walks, config.walk_seed
        hook = chaos_hook_for_worker(chaos, worker_id, workers)
        stats = SwarmOutcomeStats()
        graph = _walk_graph(protocol, config)
        holds = graph.invariant_checker(invariant)
        max_depth = config.max_depth
        max_steps = config.max_states
        if max_steps is not None:
            max_steps = max_steps // workers + (worker_id < max_steps % workers)
        start_time = time.perf_counter()
        violations: List[Tuple[int, Tuple[int, ...]]] = []
        truncated = False
        unflushed = 0

        walk_index = worker_id
        while walk_index < walks:
            if stop_event.is_set():
                truncated = True
                break
            if walk_index >= best_violation.value:
                # Someone already violated at a lower index than any walk
                # left in this worker's residue class.
                break
            if _budget_exhausted(config, stats, start_time, max_steps):
                truncated = True
                break
            if hook is not None:
                hook.on_command("walk")
            path = _run_one_walk(
                graph, holds, walk_index, walk_seed, max_depth, visited, stats
            )
            stats.walks_completed += 1
            unflushed += 1
            if unflushed >= WALK_FLUSH_BATCH:
                with walks_counter.get_lock():
                    walks_counter.value += unflushed
                unflushed = 0
            if path is not None:
                violations.append((walk_index, path))
                with best_violation.get_lock():
                    best_violation.value = min(
                        best_violation.value, walk_index
                    )
                # This worker's remaining indices all exceed walk_index.
                break
            walk_index += workers
        if unflushed:
            with walks_counter.get_lock():
                walks_counter.value += unflushed
        result_queue.put(
            ("report", worker_id, stats.as_dict(), violations, truncated)
        )
    except Exception:  # pragma: no cover - ships the traceback home
        import traceback

        result_queue.put(("error", worker_id, traceback.format_exc()))


def parallel_swarm_search(
    protocol: Protocol,
    invariant: Invariant,
    config: CheckPlan,
    observer: Optional[Observer] = None,
    telemetry=None,
) -> SearchOutcome:
    """Parallel walker pool over the fork substrate.

    Walks are embarrassingly parallel: no frontier, no claim table — just a
    walk-index partition, a fork-shared visited filter, a batched shared
    walks-completed counter for live progress, and a shared best-violation
    bound for early abort.  A violation at walk ``v`` cancels only walks
    ``> v``; walks below the bound always complete, so the reported
    violation is the globally minimal violating walk index — identical to
    the serial walker's, at any worker count.

    Fault tolerance: under ``config.supervise`` (the default) a worker
    that dies without reporting is replaced by a fresh process re-running
    its entire residue class — walks are pure in ``(walk_seed,
    walk_index)``, so the verdict is identical to an uncrashed run (the
    shared visited filter keeps the dead worker's additions, so the
    distinct-state *estimate* may dip; the verdict never does).  With
    supervision off or the restart budget exhausted, the run returns an
    honest partial outcome (``incomplete_reason="worker crash"``) built
    from the reports that did arrive.
    """
    from ..parallel.bfs import MAX_WORKER_RESTARTS, default_mp_context
    from ..parallel.worker import (
        WorkerCrashError,
        collect_replies,
        shutdown_processes,
    )

    walks, workers = config.walks, config.workers
    context = default_mp_context()
    start_time = time.perf_counter()
    stats = SwarmOutcomeStats()
    graph = _walk_graph(protocol, config, telemetry)
    holds = graph.invariant_checker(invariant)
    visited = SwarmFilter.shared(context)

    if visited.add(graph.fingerprint(graph.initial)):
        stats.unique_fingerprints += 1
    if not holds(graph.initial):
        stats.violations += 1
        emit(observer, "violation-found", states_visited=1, depth=0,
             walk_index=0)
        return _finish(invariant, graph, stats, (0, ()), observer,
                       telemetry, start_time)

    stop_event = context.Event()
    best_violation = context.Value("l", walks)  # sentinel: no violation yet
    walks_counter = context.Value("l", 0)
    result_queue = context.Queue()
    processes = []
    violation: Optional[Tuple[int, Tuple[int, ...]]] = None
    incomplete_reason: Optional[str] = None

    def spawn(worker_id: int, chaos: Optional[str]):
        process = context.Process(
            target=_swarm_worker,
            args=(worker_id, protocol, invariant, config, visited,
                  stop_event, best_violation, walks_counter, result_queue,
                  chaos),
        )
        process.daemon = True
        process.start()
        return process

    try:
        with maybe_span(telemetry, "walk-batch", batch_start=0,
                        batch_size=walks, workers=workers):
            for worker_id in range(workers):
                processes.append(spawn(worker_id, config.chaos))

            next_progress = PROGRESS_INTERVAL
            replies = None
            restarts_used = 0
            while True:
                while any(process.is_alive() for process in processes):
                    time.sleep(0.05)
                    completed = walks_counter.value
                    if completed >= next_progress:
                        next_progress = (
                            completed - completed % PROGRESS_INTERVAL
                            + PROGRESS_INTERVAL
                        )
                        emit(observer, "progress", walks_completed=completed,
                             violations=0, unique_fingerprints=0,
                             states_visited=0)
                try:
                    replies = collect_replies(
                        result_queue, workers, "report", None,
                        processes, replies,
                    )
                    break
                except WorkerCrashError as crash:
                    for worker_id in crash.workers:
                        emit(observer, "worker-crashed", worker=worker_id,
                             phase="report")
                        if telemetry is not None:
                            telemetry.metrics.counter(
                                "worker_crashes",
                                "worker processes that died without replying",
                            ).inc()
                    if (
                        not config.supervise
                        or restarts_used + len(crash.workers) > MAX_WORKER_RESTARTS
                    ):
                        # Honest partial outcome from the reports that did
                        # arrive; never a hang or a bare traceback.
                        replies = [
                            reply for reply in (crash.replies or [])
                            if reply is not None
                        ]
                        incomplete_reason = "worker crash"
                        break
                    replies = crash.replies
                    for worker_id in crash.workers:
                        restarts_used += 1
                        processes[worker_id].join(timeout=0.1)
                        # Replacements re-run the whole residue class from
                        # scratch (walks are pure), without the fault plan.
                        processes[worker_id] = spawn(worker_id, None)
                        emit(observer, "worker-restarted", worker=worker_id,
                             attempt=restarts_used)
                        if telemetry is not None:
                            telemetry.metrics.counter(
                                "worker_restarts",
                                "crashed workers restarted by the supervisor",
                            ).inc()
        all_violations: List[Tuple[int, Tuple[int, ...]]] = []
        for reply in replies:
            worker_id, worker_stats, worker_violations, _truncated = reply
            merged = SwarmOutcomeStats.from_dict(worker_stats)
            stats.merge(merged)
            all_violations.extend(
                (index, tuple(path)) for index, path in worker_violations
            )
            emit(observer, "worker-report", worker=worker_id,
                 claimed=merged.walks_completed,
                 transitions=merged.steps,
                 revisits=max(0, merged.steps - merged.unique_fingerprints))
            if telemetry is not None:
                telemetry.record_worker(worker_id, {
                    "claimed": merged.walks_completed,
                    "transitions_executed": merged.steps,
                    "revisits": max(
                        0, merged.steps - merged.unique_fingerprints
                    ),
                })
        if all_violations:
            violation = min(all_violations, key=lambda entry: entry[0])
            emit(observer, "violation-found",
                 states_visited=stats.unique_fingerprints,
                 depth=len(violation[1]), walk_index=violation[0])
    finally:
        stop_event.set()
        shutdown_processes(processes, queues=[result_queue],
                           telemetry=telemetry)

    return _finish(invariant, graph, stats, violation, observer,
                   telemetry, start_time, incomplete_reason=incomplete_reason)
