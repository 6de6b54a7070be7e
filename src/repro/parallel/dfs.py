"""Work-stealing parallel depth-first search.

This is the engine that parallelises the *reduced* searches — the unreduced
DFS baseline and the stubborn-set (SPOR / SPOR-NET) configurations that
reproduce Table I.  Level-synchronous frontier parallelism (PR 2's
:func:`~repro.parallel.bfs.parallel_bfs_search`) cannot drive them: the
stubborn-set cycle proviso needs a DFS stack, and a reduced search has no
meaningful levels.  Instead each worker runs an ordinary depth-first
explorer and parallelism comes from *stealing subtrees*:

* every worker owns a private DFS stack and a public deque
  (:class:`~repro.parallel.worksteal.WorkStealingDeques`); when its deque
  runs dry it donates the unexplored executions of its shallowest stack
  frame — the largest subtree it can give away — as one
  :class:`~repro.parallel.worksteal.StolenFrame`;
* idle workers steal from the tail of the busiest victim's deque and resume
  the frame as if they had expanded it themselves: the frame carries the
  enabled-order indices of its pending executions, the execution-index path
  from the initial state (PR 2's counterexample-rebuild currency) and its
  ancestor fingerprints (so the cycle proviso sees the exact serial stack);
* a lock-striped shared claim table
  (:class:`~repro.parallel.worksteal.StripedClaimTable`) arbitrates which
  worker explores a state: the first worker to claim a fingerprint expands
  it, every other reach is a revisit.  Claims are fingerprint-based (the
  standard bit-state trade-off) regardless of ``config.store``.

Equivalence to the serial search:

* **Unreduced DFS** explores the reachability closure, which is independent
  of exploration order, so visited-state, transition and revisit counts are
  *identical* to serial on every run that completes (the conformance matrix
  pins this for 1, 2 and 4 workers).
* **Stubborn sets** choose their reduced sets per state exactly as the
  serial DFS would have for the same access path (same seed heuristic, same
  closure, cycle proviso over the true root-to-state path).  Which access
  path claims a state first is scheduling-dependent, so visited counts may
  vary across runs while verdict soundness is preserved; stubborn sets
  carry no sleep sets or other cross-subtree state, which is what makes
  subtree stealing sound here.  (The per-path proviso is only sound when no
  cycle spans workers: a cyclic protocol whose cycles cross subtree
  boundaries would, like any distributed stubborn-set DFS, need a stronger
  ignoring-prevention condition.  Protocols that declare
  ``cyclic_state_graph=True`` in their metadata — the crash-recovery family
  — are therefore *refused* by the worksteal engines when combined with a
  stubborn-set reduction: the engine raises a structured
  ``UnsupportedPlanError`` pointing at the unreduced alternative instead of
  silently risking ignored transitions.  Acyclic protocols — transitions
  strictly consume trigger messages — are unaffected.)
* **DPOR is excluded by design.**  Its backtrack sets are mutated up the
  *serial* stack as race reversals are discovered; donating a subtree would
  detach frames from the stack their backtrack semantics refer to.  The
  checker rejects ``workers > 1`` for DPOR with a diagnostic instead of
  silently degrading.

The loop is written once, over the
:class:`~repro.checker.stategraph.StateGraph` seam
(``make_graph(protocol, config)``, ``config`` being the run's frozen
:class:`~repro.engine.plan.CheckPlan`, whose ``workers`` sizes the pool):
the invariant check, the reducer
adapter and its fingerprint-based cycle proviso all come from the graph, so
``successors="fast"`` only swaps the representation a worker's private
stack holds.  What crosses a process boundary is the same on either graph
— integers (pending indices, the path, ancestor fingerprints) and the
frame's state in the graph's own representation: ``graph.share()`` before
the fork makes it valid in every worker (packed words are flat int tuples
whose interned ids follow a shared log, object states pickle by value),
and a thief calls ``graph.sync()`` before it resumes a stolen frame.

Workers inherit the graph (and the pre-built reducer) via the ``fork``
start method — transition guards and actions are closures and never pickle.
Plan resolution refuses multi-process plans on platforms without ``fork``.

Not supervised: a worker that dies ends the run as an honest incomplete
outcome (``incomplete_reason="worker crash"``, partial statistics, the
survivors wound down) — restarting a member of a work-stealing pool is
ROADMAP item 6.  ``config.chaos`` is therefore rejected, like
``config.checkpoint_dir`` / ``config.resume_from`` (which every
depth-first engine rejects): a fault plan that injects nothing would be
false confidence.
"""

from __future__ import annotations

import time
import traceback
from typing import List, Optional, Set, Tuple

from ..checker.counterexample import Counterexample
from ..checker.property import Invariant
from ..checker.result import SearchStatistics
from ..checker.search import (
    Reducer,
    SearchOutcome,
    reject_checkpoint_knobs,
    dfs_search,
)
from ..checker.stategraph import StateGraph, make_graph, replay_path
from ..engine.events import PROGRESS_INTERVAL, Observer, emit, maybe_span
from ..engine.plan import CheckPlan
from ..mp.protocol import Protocol
from .bfs import default_mp_context
from .worker import WorkerCrashError, collect_replies, shutdown_processes
from .worksteal import (
    HEARTBEAT_EVERY,
    BatchedCounter,
    StallDetector,
    StolenFrame,
    StripedClaimTable,
    WorkerTelemetryChannel,
    WorkStealingDeques,
    pending_indices,
)

__all__ = ["parallel_dfs_search"]

#: Statistic keys shipped in every worker's final report.
_STAT_KEYS = (
    "transitions_executed",
    "revisits",
    "enabled_set_computations",
    "full_expansions",
    "reduced_expansions",
    "max_depth",
    "claimed",
)

#: How long the survivors of a worker crash get to send their reports.
_WIND_DOWN_SECONDS = 2.0


class _LocalFrame:
    """One entry of a worker's private DFS stack (``state`` is in the
    graph's own representation; ``successors`` is the reducer's memo)."""

    __slots__ = ("state", "fingerprint", "enabled", "pending", "next_index", "path", "successors")

    def __init__(self, state, fingerprint: int, path: Tuple[int, ...]) -> None:
        self.state = state
        self.fingerprint = fingerprint
        self.enabled: Tuple = ()
        self.pending: Tuple[int, ...] = ()
        self.next_index = 0
        self.path = path
        self.successors = None


def _worksteal_worker(
    worker_id: int,
    graph: StateGraph,
    invariant: Invariant,
    reducer: Optional[Reducer],
    config: CheckPlan,
    table: StripedClaimTable,
    deques: WorkStealingDeques,
    result_queue,
    start_time: float,
    claims_counter,
    channel: Optional[WorkerTelemetryChannel] = None,
) -> None:
    """Worker-process body: steal frames, explore subtrees depth-first.

    All heavyweight arguments arrive through ``fork`` (no pickling).  The
    worker reports ``("report", id, stats, violations, truncated)`` on exit,
    or ``("error", id, traceback)`` after setting the stop flag so its
    siblings wind down too.  Claims are additionally flushed (batched, to
    keep lock traffic negligible) into ``claims_counter`` so the
    coordinator can emit *in-flight* progress events instead of waiting for
    the end-of-run worker reports; live per-worker counters and heartbeats
    flow the same batched way through ``channel``.
    """
    try:
        holds = graph.invariant_checker(invariant)
        enabled_of, successor_of = graph.enabled, graph.successor
        fingerprint_of = graph.fingerprint
        # Cycle-proviso input: the running frame's ancestor fingerprints
        # plus this worker's own stack — exactly the serial DFS stack.
        on_stack: Set[int] = set()
        reduce = None if reducer is None else graph.make_reduce(
            reducer, on_stack, by_fingerprint=True
        )
        # Local claim cache: fingerprints this worker has already routed
        # through the shared table (won or lost) are revisits, lock-free.
        seen: Set[int] = set()
        stats = {key: 0 for key in _STAT_KEYS}
        violations: List[Tuple[int, ...]] = []
        truncated = False
        claims = BatchedCounter(claims_counter)
        beats = 0

        def publish_telemetry() -> None:
            if channel is not None:
                channel.publish(
                    worker_id,
                    stats["claimed"],
                    stats["transitions_executed"],
                    stats["revisits"],
                )

        def expand(frame: _LocalFrame) -> None:
            """Compute a fresh frame's (possibly reduced) pending indices."""
            enabled = enabled_of(frame.state)
            stats["enabled_set_computations"] += 1
            frame.enabled = enabled
            if reduce is None or len(enabled) <= 1:
                stats["full_expansions"] += 1
                frame.pending = tuple(range(len(enabled)))
                return
            frame.successors = {}
            reduced = reduce(frame.state, enabled, frame.successors)
            if len(reduced) < len(enabled):
                stats["reduced_expansions"] += 1
            else:
                stats["full_expansions"] += 1
            frame.pending = pending_indices(enabled, reduced)

        def maybe_donate(
            task: StolenFrame, stack: List[_LocalFrame], floor: List[int]
        ) -> None:
            """Publish the shallowest unexplored sibling subtree when the
            public deque is empty.  The top frame only donates when it can
            keep one execution for its owner, avoiding publish/repop churn.

            ``floor[0]`` is a persistent cursor over the stack: a frame's
            pending set only ever shrinks, so once a position is exhausted
            it stays exhausted and is never rescanned — without it a deep
            chain-shaped search would walk the whole stack per transition.
            """
            if deques.size_hint(worker_id) > 0:
                return
            top = len(stack) - 1
            floor[0] = min(floor[0], top)
            for position in range(floor[0], len(stack)):
                frame = stack[position]
                cut = frame.next_index
                if position == top:
                    cut += 1
                donated = frame.pending[cut:]
                if not donated:
                    if frame.next_index >= len(frame.pending):
                        floor[0] = position + 1
                    continue
                frame.pending = frame.pending[:cut]
                ancestors = task.ancestors + tuple(
                    below.fingerprint for below in stack[:position]
                )
                deques.publish(
                    worker_id,
                    StolenFrame(
                        state=frame.state,
                        pending=donated,
                        path=frame.path,
                        ancestors=ancestors,
                    ),
                )
                return

        def run_task(task: StolenFrame) -> None:
            nonlocal truncated, beats
            on_stack.clear()
            on_stack.update(task.ancestors)
            graph.sync()
            root = _LocalFrame(task.state, fingerprint_of(task.state), task.path)
            stack = [root]
            donate_floor = [0]
            if task.pending is None:
                # The seed frame of the whole search: expand like serial.
                expand(root)
            else:
                # A donated frame: resume exactly the victim's pending set.
                root.enabled = enabled_of(root.state)
                stats["enabled_set_computations"] += 1
                root.pending = task.pending
            on_stack.add(root.fingerprint)

            while stack:
                beats += 1
                if not beats & (HEARTBEAT_EVERY - 1):
                    # The stop flag is a semaphore-guarded shared event:
                    # polled on the beat, not on every transition.
                    if deques.stop.is_set():
                        return
                    publish_telemetry()
                if config.max_seconds is not None:
                    if time.perf_counter() - start_time > config.max_seconds:
                        truncated = True
                        deques.stop.set()
                        return
                maybe_donate(task, stack, donate_floor)
                frame = stack[-1]
                if frame.next_index >= len(frame.pending):
                    stack.pop()
                    on_stack.discard(frame.fingerprint)
                    continue
                index = frame.pending[frame.next_index]
                frame.next_index += 1
                execution = frame.enabled[index]
                memo = frame.successors
                successor = memo.get(execution) if memo else None
                if successor is None:
                    successor = successor_of(frame.state, execution)
                stats["transitions_executed"] += 1

                fingerprint = fingerprint_of(successor)
                if fingerprint in seen:
                    stats["revisits"] += 1
                    continue
                seen.add(fingerprint)
                if not table.add_fingerprint(fingerprint):
                    stats["revisits"] += 1
                    continue
                stats["claimed"] += 1
                claims.increment()

                if not holds(successor):
                    violations.append(frame.path + (index,))
                    if config.stop_at_first_violation:
                        deques.stop.set()
                        return
                if config.max_states is not None and len(table) >= config.max_states:
                    truncated = True
                    deques.stop.set()
                    return
                if config.max_depth is not None and len(frame.path) >= config.max_depth:
                    truncated = True
                    continue

                child = _LocalFrame(successor, fingerprint, frame.path + (index,))
                expand(child)
                stack.append(child)
                on_stack.add(fingerprint)
                if len(child.path) > stats["max_depth"]:
                    stats["max_depth"] = len(child.path)

        while not (deques.stop.is_set() or deques.done.is_set()):
            task = deques.next_task(worker_id)
            if task is None:
                claims.flush()
                publish_telemetry()
                # Resigned: spin on steal attempts until work or shutdown.
                while not (deques.stop.is_set() or deques.done.is_set()):
                    task = deques.try_acquire(worker_id)
                    if task is not None:
                        break
                    if channel is not None:
                        channel.beat(worker_id)
                    time.sleep(WorkStealingDeques.IDLE_SLEEP_SECONDS)
                if task is None:
                    break
            run_task(task)
        claims.flush()
        publish_telemetry()
        result_queue.put(("report", worker_id, stats, violations, truncated))
    except BaseException:
        deques.stop.set()
        result_queue.put(("error", worker_id, traceback.format_exc()))


def parallel_dfs_search(
    protocol: Protocol,
    invariant: Invariant,
    config: CheckPlan,
    reducer: Optional[Reducer] = None,
    observer: Optional[Observer] = None,
    telemetry=None,
) -> SearchOutcome:
    """Depth-first search of one cell across ``config.workers`` stealing processes.

    Args:
        protocol: The protocol instance to explore.
        invariant: The invariant to check in every claimed state.
        config: The plan.  ``successors`` picks the state graph, and
            ``workers`` is the worker process count (1 delegates to the
            serial :func:`~repro.checker.search.dfs_search` with the same
            reducer, so worker sweeps include an exact serial baseline).
            The parallel engine is always stateful and deduplicates by
            fingerprint (``store`` is not consulted; the exact-store
            option has no shared-memory analogue).  ``chaos``,
            ``checkpoint_dir`` and ``resume_from`` raise
            :class:`ValueError` (see the module docstring).
        reducer: Optional partial-order reducer (e.g. a pre-built
            :class:`~repro.por.stubborn.StubbornSetProvider`'s ``reduce``),
            inherited by every worker via ``fork``.
        observer: Optional coordinator-side event observer; receives one
            ``worker-report`` event per worker (claimed states, steals-side
            counters) plus ``violation-found`` events.  When attached, the
            coordinator also relays live ``worker-telemetry`` gauges (from
            the workers' shared counter rows) and ``worker-stalled``
            warnings (heartbeat silence beyond the stall threshold).
        telemetry: Optional :class:`~repro.obs.telemetry.RunTelemetry`;
            receives per-worker counters, steal/publish totals, and claim
            table stripe occupancy at the end of the run.

    Returns:
        A :class:`SearchOutcome` shaped exactly like the serial one.  When
        several workers report violations, the counterexample is rebuilt
        from the lexicographically smallest (shortest-first) execution-index
        path, making the reported trace deterministic given the set of
        discovered violations.
    """
    reject_checkpoint_knobs(config, "parallel_dfs_search")
    if config.chaos is not None:
        raise ValueError(
            "parallel_dfs_search does not support chaos: fault plans are "
            "injected at the frontier workers' barrier commands, which a "
            "work-stealing pool does not have (use shape='bfs' with "
            "backend='frontier', or backend='swarm')"
        )
    workers = config.workers
    if workers <= 1:
        return dfs_search(protocol, invariant, config, reducer=reducer,
                          observer=observer, telemetry=telemetry)
    context = default_mp_context()

    statistics = SearchStatistics()
    start_time = time.perf_counter()

    # Built and shared before forking: every worker inherits the graph
    # (and, packed, its compiled tables) instead of building its own, and
    # its states mean the same in all of them.
    graph = make_graph(protocol, config, telemetry=telemetry)
    graph.share()
    initial = graph.initial
    initial_fp = graph.fingerprint(initial)
    statistics.states_visited = 1
    if not graph.invariant_checker(invariant)(initial):
        emit(observer, "violation-found", states_visited=1, depth=0)
        statistics.elapsed_seconds = time.perf_counter() - start_time
        counterexample = Counterexample(
            initial_state=graph.decode(initial), steps=(),
            property_name=invariant.name,
        )
        return SearchOutcome(False, False, counterexample, statistics)

    # 2**20 claim slots, or four per budgeted state when that is more.
    capacity = max(1 << 20, 4 * (config.max_states or 0))
    table = StripedClaimTable(capacity=capacity, stripes=max(16, 4 * workers),
                              mp_context=context)
    table.add_fingerprint(initial_fp)

    verified = True
    complete = True
    truncated = False
    incomplete_reason: Optional[str] = None
    counterexample: Optional[Counterexample] = None
    manager = context.Manager()
    processes = []
    deques = None
    # Shared live-progress counter (1 = the pre-claimed initial state).
    claims_counter = context.Value("l", 1)
    # Live per-worker counters + heartbeats; workers flush them on the
    # same batched cadence as the claim counter, so the cost is amortised.
    channel = WorkerTelemetryChannel(workers, mp_context=context)
    stall_detector = StallDetector(workers)
    try:
        deques = WorkStealingDeques(workers, manager, mp_context=context)
        # Seeding the frame with its own fingerprint as "ancestor" mirrors
        # the serial search, whose stack contains the initial state while
        # the root expansion (and its proviso checks) runs.
        deques.publish(
            0,
            StolenFrame(
                state=initial,
                pending=None,
                path=(),
                ancestors=(initial_fp,),
            ),
        )
        result_queue = context.Queue()
        processes = [
            context.Process(
                target=_worksteal_worker,
                args=(
                    worker_id,
                    graph,
                    invariant,
                    reducer,
                    config,
                    table,
                    deques,
                    result_queue,
                    start_time,
                    claims_counter,
                    channel,
                ),
                daemon=True,
            )
            for worker_id in range(workers)
        ]
        for process in processes:
            process.start()

        last_progress = 1
        last_rows = [None] * workers
        while not (deques.done.is_set() or deques.stop.is_set()):
            if config.max_seconds is not None:
                if time.perf_counter() - start_time > config.max_seconds:
                    truncated = True
                    deques.stop.set()
                    break
            if any(not process.is_alive() for process in processes):
                # A worker died; collect_replies below drains its last
                # words (an error reply) or raises.
                break
            if observer is not None:
                # In-flight progress: the workers' batched claim flushes
                # make this a live (slightly lagging) states-visited count.
                claimed = claims_counter.value
                if claimed - last_progress >= PROGRESS_INTERVAL:
                    last_progress = claimed
                    emit(observer, "progress", states_visited=claimed)
                # Live per-worker gauges: relay a worker's shared counter
                # row only when it changed since the last poll.
                for worker_id, row in enumerate(channel.read_all()):
                    if row != last_rows[worker_id]:
                        last_rows[worker_id] = row
                        emit(observer, "worker-telemetry", worker=worker_id,
                             claimed=row[0], transitions_executed=row[1],
                             revisits=row[2])
                for worker_id, idle in stall_detector.check(channel.heartbeats()):
                    emit(observer, "worker-stalled", worker=worker_id,
                         idle_seconds=idle)
            deques.done.wait(0.05)

        try:
            replies = collect_replies(
                result_queue, workers, "report", None, processes)
        except WorkerCrashError as crash:
            # Unrecovered worker death: an honest partial verdict, never a
            # bare traceback.  The survivors see the stop flag on their
            # next beat and report what they explored; whatever was claimed
            # stays counted.
            deques.stop.set()
            partial = crash.replies
            for worker_id in crash.workers:
                emit(observer, "worker-crashed", worker=worker_id,
                     phase=crash.phase)
                partial[worker_id] = ()
            incomplete_reason = "worker crash"
            complete = False
            try:
                collect_replies(result_queue, workers, "report",
                                _WIND_DOWN_SECONDS, processes, partial)
            except RuntimeError:
                # Another death, or a survivor stuck behind a lock the dead
                # worker held: keep the reports that did arrive.
                pass
            replies = [reply for reply in partial if reply]
        violations: List[Tuple[int, ...]] = []
        for worker_id, stats, worker_violations, worker_truncated in replies:
            emit(observer, "worker-report", worker=worker_id,
                 claimed=stats["claimed"],
                 transitions_executed=stats["transitions_executed"],
                 revisits=stats["revisits"])
            statistics.transitions_executed += stats["transitions_executed"]
            statistics.revisits += stats["revisits"]
            statistics.enabled_set_computations += stats["enabled_set_computations"]
            statistics.full_expansions += stats["full_expansions"]
            statistics.reduced_expansions += stats["reduced_expansions"]
            statistics.max_depth = max(statistics.max_depth, stats["max_depth"])
            violations.extend(tuple(path) for path in worker_violations)
            truncated = truncated or worker_truncated
            if telemetry is not None:
                telemetry.record_worker(worker_id, stats)
        statistics.states_visited = len(table)
        if telemetry is not None:
            telemetry.record_worksteal(
                steals=deques.steal_count(),
                publishes=deques.publish_count(),
                claim_table=table,
            )
            graph.record(telemetry)

        if violations:
            verified = False
            best = min(violations, key=lambda path: (len(path), path))
            emit(observer, "violation-found",
                 states_visited=statistics.states_visited, depth=len(best))
            with maybe_span(telemetry, "ce-replay", path_length=len(best)):
                counterexample = replay_path(graph, best, invariant.name)
        if truncated or (not verified and config.stop_at_first_violation):
            complete = False
    finally:
        if deques is not None:
            deques.stop.set()
        shutdown_processes(processes, queues=[result_queue],
                           telemetry=telemetry)
        manager.shutdown()

    statistics.elapsed_seconds = time.perf_counter() - start_time
    return SearchOutcome(
        verified=verified,
        complete=complete,
        counterexample=counterexample,
        statistics=statistics,
        incomplete_reason=incomplete_reason,
    )
