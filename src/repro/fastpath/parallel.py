"""Parallel fast-path engines: packed work-stealing DFS and frontier BFS.

Both engines reuse the PR-2/PR-3 coordination machinery — the lock-striped
:class:`~repro.parallel.worksteal.StripedClaimTable`, the
:class:`~repro.parallel.worksteal.WorkStealingDeques` termination protocol
and the level-barrier reply collection of :mod:`repro.parallel.worker` —
but change the currency that crosses process boundaries to pure integers:

* **Work-stealing DFS** (:func:`fast_parallel_dfs_search`): a stolen frame
  is ``(pending indices, execution-index path, ancestor fingerprints)`` —
  no state object at all.  The thief replays the path from the initial
  state through its warm memo tables (a handful of dict hits per edge), so
  stolen frames pickle in tens of bytes regardless of protocol size.
* **Frontier BFS** (:func:`fast_parallel_bfs_search`): fingerprint-native
  by construction.  A level delta is a list of ``(source, fingerprint,
  parent fingerprint, execution index, holds)`` int tuples; the packed
  child states never leave the worker that discovered them.  Ownership of
  the fingerprint partition (the splitmix64 ``shard_of`` routing) decides
  *deduplication*; the discovering worker keeps and later expands the
  states the owner accepts, so every state is expanded exactly once and
  visited counts equal the serial fingerprint-store BFS closure.

Fingerprints agree across workers because packed fingerprints equal
``GlobalState.fingerprint()`` and ``fork`` workers share the parent's hash
seed — the same invariant the object-graph parallel engines rely on.

The work-stealing coordinator additionally exposes *live* progress: workers
flush a batched claim counter into shared memory, and the coordinator's
wait loop emits ``progress`` events as the total crosses
:data:`~repro.engine.events.PROGRESS_INTERVAL` boundaries (the object
engine does the same since this PR).
"""

from __future__ import annotations

import time
import traceback
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..checker.counterexample import Counterexample
from ..checker.property import Invariant
from ..checker.result import SearchStatistics
from ..checker.search import Reducer, SearchConfig, SearchOutcome
from ..checker.stategraph import PackedGraph, replay_path
from ..checker.statestore import ShardedFingerprintStore, shard_of
from ..engine.events import PROGRESS_INTERVAL, Observer, emit, maybe_span
from ..mp.protocol import Protocol
from ..parallel.bfs import default_mp_context
from ..parallel.worker import collect_replies, shutdown_processes
from ..parallel.worksteal import (
    HEARTBEAT_EVERY,
    BatchedCounter,
    StallDetector,
    StripedClaimTable,
    WorkerTelemetryChannel,
    WorkStealingDeques,
    pending_indices,
)
from .compiler import FastSuccessorEngine, PackedExecution, PackedState
from .search import (
    fast_bfs_search,
    fast_dfs_search,
    make_invariant_checker,
    make_reduction_bridge,
)

__all__ = ["fast_parallel_bfs_search", "fast_parallel_dfs_search"]

_STAT_KEYS = (
    "transitions_executed",
    "revisits",
    "enabled_set_computations",
    "full_expansions",
    "reduced_expansions",
    "max_depth",
    "deadlock_states",
    "claimed",
)


@dataclass(frozen=True)
class FastStolenFrame:
    """A stealable unit of packed depth-first work — integers only.

    Attributes:
        pending: Enabled-order indices still to explore, or ``None`` for the
            unexpanded seed frame of the whole search.
        path: Execution-index path from the initial state to the frame's
            state; the thief replays it to rebuild the packed state.
        ancestors: Fingerprints of the strict ancestors on the DFS path
            (cycle-proviso input), root-to-parent order.
    """

    pending: Optional[Tuple[int, ...]]
    path: Tuple[int, ...] = ()
    ancestors: Tuple[int, ...] = ()


class _FastLocalFrame:
    """One entry of a fast worker's private DFS stack."""

    __slots__ = ("packed", "fingerprint", "enabled", "pending", "next_index",
                 "path", "successors")

    def __init__(self, packed: PackedState, path: Tuple[int, ...]) -> None:
        self.packed = packed
        self.fingerprint = packed[3]
        self.enabled: Tuple[PackedExecution, ...] = ()
        self.pending: Tuple[int, ...] = ()
        self.next_index = 0
        self.path = path
        self.successors: Dict[PackedExecution, PackedState] = {}


# --------------------------------------------------------------------- #
# Work-stealing DFS
# --------------------------------------------------------------------- #
def _fast_worksteal_worker(
    worker_id: int,
    engine: FastSuccessorEngine,
    invariant: Invariant,
    reducer: Optional[Reducer],
    config: SearchConfig,
    table: StripedClaimTable,
    deques: WorkStealingDeques,
    result_queue,
    start_time: float,
    claims_counter,
    channel: Optional[WorkerTelemetryChannel] = None,
) -> None:
    """Worker body: replay stolen paths, explore subtrees packed.

    Live per-worker counters and heartbeats flow through ``channel`` on the
    same batched cadence as the claim counter.
    """
    try:
        protocol = engine.protocol
        holds = make_invariant_checker(engine, invariant, protocol,
                                       capacity=engine.memo_capacity)
        seen = ShardedFingerprintStore(num_shards=8)
        stats = {key: 0 for key in _STAT_KEYS}
        violations: List[Tuple[int, ...]] = []
        truncated = False
        claims = BatchedCounter(claims_counter)
        beats = 0

        def publish_telemetry() -> None:
            if channel is not None:
                channel.publish(worker_id, stats["claimed"],
                                stats["transitions_executed"],
                                stats["revisits"])

        def expand(frame: _FastLocalFrame, bridge) -> None:
            enabled = engine.enabled_packed(frame.packed)
            stats["enabled_set_computations"] += 1
            frame.enabled = enabled
            if config.check_deadlocks and not enabled:
                stats["deadlock_states"] += 1
            if bridge is None or len(enabled) <= 1:
                stats["full_expansions"] += 1
                frame.pending = tuple(range(len(enabled)))
                return
            reduced = bridge(frame.packed, enabled, frame.successors)
            if len(reduced) < len(enabled):
                stats["reduced_expansions"] += 1
            else:
                stats["full_expansions"] += 1
            frame.pending = pending_indices(enabled, reduced)

        def maybe_donate(
            task: FastStolenFrame, stack: List[_FastLocalFrame], floor: List[int]
        ) -> None:
            """Publish the shallowest unexplored sibling subtree (as ints)."""
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
                    FastStolenFrame(
                        pending=donated,
                        path=frame.path,
                        ancestors=ancestors,
                    ),
                )
                return

        def run_task(task: FastStolenFrame) -> None:
            nonlocal truncated, beats
            ancestor_fps = frozenset(task.ancestors)
            root = _FastLocalFrame(engine.replay_path(task.path), task.path)
            stack = [root]
            stack_fps: Set[int] = set()
            donate_floor = [0]
            bridge = None
            if reducer is not None:
                # Fingerprint-based proviso, mirroring the object-graph
                # work-stealing engine: the thief's local stack plus the
                # frame's ancestor fingerprints reconstruct the serial path.
                def fingerprint_on_stack(_words_of):
                    def on_stack(candidate):
                        fingerprint = candidate.fingerprint()
                        return (fingerprint in stack_fps
                                or fingerprint in ancestor_fps)

                    return on_stack

                bridge = make_reduction_bridge(
                    engine, protocol, reducer, fingerprint_on_stack
                )
            if task.pending is None:
                expand(root, bridge)
            else:
                root.enabled = engine.enabled_packed(root.packed)
                stats["enabled_set_computations"] += 1
                root.pending = task.pending
            stack_fps.add(root.fingerprint)

            while stack:
                if deques.stop.is_set():
                    return
                beats += 1
                if not beats & (HEARTBEAT_EVERY - 1):
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
                    stack_fps.discard(frame.fingerprint)
                    continue
                index = frame.pending[frame.next_index]
                frame.next_index += 1
                execution = frame.enabled[index]
                successor = frame.successors.get(execution)
                if successor is None:
                    successor = engine.successor_packed(frame.packed, execution)
                stats["transitions_executed"] += 1

                fingerprint = successor[3]
                if seen.contains_fingerprint(fingerprint):
                    stats["revisits"] += 1
                    continue
                seen.add_fingerprint(fingerprint)
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

                child = _FastLocalFrame(successor, frame.path + (index,))
                expand(child, bridge)
                stack.append(child)
                stack_fps.add(fingerprint)
                if len(child.path) > stats["max_depth"]:
                    stats["max_depth"] = len(child.path)

        while not (deques.stop.is_set() or deques.done.is_set()):
            task = deques.next_task(worker_id)
            if task is None:
                claims.flush()
                publish_telemetry()
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


def fast_parallel_dfs_search(
    protocol: Protocol,
    invariant: Invariant,
    config: Optional[SearchConfig] = None,
    workers: int = 2,
    reducer: Optional[Reducer] = None,
    mp_context=None,
    worker_timeout: Optional[float] = None,
    claim_capacity: Optional[int] = None,
    claim_stripes: Optional[int] = None,
    observer: Optional[Observer] = None,
    engine: Optional[FastSuccessorEngine] = None,
    telemetry=None,
) -> SearchOutcome:
    """Packed work-stealing DFS; coordination as in
    :func:`repro.parallel.dfs.parallel_dfs_search`, frames as int-tuples.

    ``workers <= 1`` (or a platform without ``fork``) delegates to
    :func:`~repro.fastpath.search.fast_dfs_search`.  Claims are
    fingerprint-based for every store kind, exactly like the object-graph
    work-stealing engine.  With an observer attached the coordinator also
    relays live ``worker-telemetry`` rows and ``worker-stalled`` warnings;
    with ``telemetry`` attached it records per-worker counters, steal
    traffic and the coordinator engine's memo behaviour.
    """
    config = config or SearchConfig()
    if engine is not None and engine.protocol is not protocol:
        raise ValueError("fast successor engine was built for a different protocol")
    if workers <= 1:
        return fast_dfs_search(protocol, invariant, config, reducer=reducer,
                               observer=observer, engine=engine,
                               telemetry=telemetry)
    context = mp_context if mp_context is not None else default_mp_context()
    if context is None:
        warnings.warn(
            "fast_parallel_dfs_search requires a fork-capable platform; "
            "falling back to the serial fast DFS",
            RuntimeWarning,
            stacklevel=2,
        )
        return fast_dfs_search(protocol, invariant, config, reducer=reducer,
                               observer=observer, engine=engine,
                               telemetry=telemetry)

    statistics = SearchStatistics()
    start_time = time.perf_counter()

    # Compile before forking so every worker inherits the warm tables.
    if engine is None:
        with maybe_span(telemetry, "compile", protocol=protocol.name):
            engine = FastSuccessorEngine(
                protocol, memo_capacity=config.fastpath_memo_capacity
            )
    initial = engine.initial_packed()
    statistics.states_visited = 1
    holds = make_invariant_checker(engine, invariant, protocol,
                                   capacity=engine.memo_capacity)
    if not holds(initial):
        emit(observer, "violation-found", states_visited=1, depth=0)
        statistics.elapsed_seconds = time.perf_counter() - start_time
        counterexample = Counterexample(
            initial_state=engine.decode(initial), steps=(),
            property_name=invariant.name,
        )
        return SearchOutcome(False, False, counterexample, statistics)

    capacity = claim_capacity
    if capacity is None:
        capacity = 1 << 20
        if config.max_states is not None:
            capacity = max(capacity, 4 * config.max_states)
    stripes = claim_stripes if claim_stripes is not None else max(16, 4 * workers)
    table = StripedClaimTable(capacity=capacity, stripes=stripes, mp_context=context)
    table.add_fingerprint(initial[3])

    verified = True
    complete = True
    truncated = False
    counterexample: Optional[Counterexample] = None
    deadlock_states = 0
    manager = context.Manager()
    processes = []
    deques = None
    claims_counter = context.Value("l", 1)
    channel = WorkerTelemetryChannel(workers, mp_context=context)
    stall_detector = StallDetector(workers)
    try:
        deques = WorkStealingDeques(workers, manager, mp_context=context)
        deques.publish(
            0,
            FastStolenFrame(pending=None, path=(), ancestors=(initial[3],)),
        )
        result_queue = context.Queue()
        processes = [
            context.Process(
                target=_fast_worksteal_worker,
                args=(
                    worker_id,
                    engine,
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

        deadline = None if worker_timeout is None else start_time + worker_timeout
        last_progress = 1
        last_rows = [None] * workers
        while not (deques.done.is_set() or deques.stop.is_set()):
            if deadline is not None and time.perf_counter() > deadline:
                deques.stop.set()
                raise RuntimeError(
                    "fast_parallel_dfs_search: timed out waiting for the workers"
                )
            if config.max_seconds is not None:
                if time.perf_counter() - start_time > config.max_seconds:
                    truncated = True
                    deques.stop.set()
                    break
            if any(not process.is_alive() for process in processes):
                break
            if observer is not None:
                claimed = claims_counter.value
                if claimed - last_progress >= PROGRESS_INTERVAL:
                    last_progress = claimed
                    emit(observer, "progress", states_visited=claimed)
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

        remaining = None
        if deadline is not None:
            remaining = max(0.1, deadline - time.perf_counter())
        replies = collect_replies(result_queue, workers, "report", remaining, processes)
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
        deadlock_states = sum(reply[1]["deadlock_states"] for reply in replies)
        if telemetry is not None:
            telemetry.record_worksteal(
                steals=deques.steal_count(),
                publishes=deques.publish_count(),
                claim_table=table,
            )
            telemetry.record_fastpath(engine)

        if violations:
            verified = False
            best = min(violations, key=lambda path: (len(path), path))
            emit(observer, "violation-found",
                 states_visited=statistics.states_visited, depth=len(best))
            with maybe_span(telemetry, "ce-replay", path_length=len(best)):
                counterexample = replay_path(
                    PackedGraph(protocol, engine), best, invariant.name
                )
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
        deadlock_states=deadlock_states,
    )


# --------------------------------------------------------------------- #
# Frontier BFS
# --------------------------------------------------------------------- #
def _fast_frontier_worker(
    worker_id: int,
    num_workers: int,
    engine: FastSuccessorEngine,
    invariant: Invariant,
    task_queue,
    result_queue,
) -> None:
    """Fingerprint-native frontier worker.

    Ownership (the ``shard_of`` partition) governs *deduplication* only;
    the worker that discovered a state keeps its packed form and expands it
    once the owner accepts the fingerprint.  The command protocol mirrors
    :func:`repro.parallel.worker.frontier_worker` with one extra ``adopt``
    barrier carrying the accepted fingerprints back to their discoverers.
    """
    try:
        protocol = engine.protocol
        holds = make_invariant_checker(engine, invariant, protocol,
                                       capacity=engine.memo_capacity)
        shard: Set[int] = set()
        frontier: List[PackedState] = []
        pending_children: Dict[int, PackedState] = {}
        while True:
            command, payload = task_queue.get()
            if command == "stop":
                return
            if command == "seed":
                initial = engine.initial_packed()
                if shard_of(initial[3], num_workers) == worker_id:
                    shard.add(initial[3])
                    frontier = [initial]
                else:
                    frontier = []
                result_queue.put(("seeded", worker_id))
            elif command == "expand":
                outgoing: List[List[Tuple[int, int, int, int, bool]]] = [
                    [] for _ in range(num_workers)
                ]
                pending_children = {}
                expansions = 0
                transitions = 0
                for packed in frontier:
                    enabled = engine.enabled_packed(packed)
                    expansions += 1
                    parent_fp = packed[3]
                    for index, execution in enumerate(enabled):
                        successor = engine.successor_packed(packed, execution)
                        transitions += 1
                        fingerprint = successor[3]
                        if fingerprint not in pending_children:
                            pending_children[fingerprint] = successor
                        destination = shard_of(fingerprint, num_workers)
                        outgoing[destination].append(
                            (worker_id, fingerprint, parent_fp, index,
                             holds(successor))
                        )
                result_queue.put(
                    ("expanded", worker_id, outgoing, expansions, transitions)
                )
            elif command == "absorb":
                accepted: List[Tuple[int, int, int, int]] = []
                violations: List[int] = []
                revisits = 0
                for source, fingerprint, parent_fp, exec_index, holds_flag in payload:
                    if fingerprint in shard:
                        revisits += 1
                        continue
                    shard.add(fingerprint)
                    accepted.append((source, fingerprint, parent_fp, exec_index))
                    if not holds_flag:
                        violations.append(fingerprint)
                result_queue.put(
                    ("absorbed", worker_id, len(accepted), revisits,
                     violations, accepted)
                )
            elif command == "adopt":
                frontier = [pending_children[fingerprint] for fingerprint in payload]
                pending_children = {}
                result_queue.put(("adopted", worker_id, len(frontier)))
            else:  # pragma: no cover - protocol error
                raise ValueError(f"unknown worker command: {command!r}")
    except BaseException:
        result_queue.put(("error", worker_id, traceback.format_exc()))


def fast_parallel_bfs_search(
    protocol: Protocol,
    invariant: Invariant,
    config: Optional[SearchConfig] = None,
    workers: int = 2,
    mp_context=None,
    worker_timeout: Optional[float] = None,
    observer: Optional[Observer] = None,
    engine: Optional[FastSuccessorEngine] = None,
    telemetry=None,
) -> SearchOutcome:
    """Level-synchronous packed frontier BFS with int-tuple deltas.

    Visited counts equal the serial fingerprint-store BFS closure at every
    worker count (the delta exchange changes who *stores* a fingerprint,
    never whether a state is expanded).  Deduplication is fingerprint-based
    by construction, which is why the registry only offers this engine for
    the fingerprint store kinds.  ``workers <= 1`` (or no ``fork``)
    delegates to :func:`~repro.fastpath.search.fast_bfs_search`.  With an
    observer attached, every expand barrier additionally relays one
    ``worker-telemetry`` event per worker (cumulative expansions and
    transitions) — no extra IPC, the counts ride the existing replies.
    """
    config = config or SearchConfig()
    if engine is not None and engine.protocol is not protocol:
        raise ValueError("fast successor engine was built for a different protocol")
    if workers <= 1:
        return fast_bfs_search(protocol, invariant, config, observer=observer,
                               engine=engine, telemetry=telemetry)
    context = mp_context if mp_context is not None else default_mp_context()
    if context is None:
        warnings.warn(
            "fast_parallel_bfs_search requires a fork-capable platform; "
            "falling back to the serial fast BFS",
            RuntimeWarning,
            stacklevel=2,
        )
        return fast_bfs_search(protocol, invariant, config, observer=observer,
                               engine=engine, telemetry=telemetry)

    statistics = SearchStatistics()
    start_time = time.perf_counter()

    if engine is None:
        with maybe_span(telemetry, "compile", protocol=protocol.name):
            engine = FastSuccessorEngine(
                protocol, memo_capacity=config.fastpath_memo_capacity
            )
    initial = engine.initial_packed()
    statistics.states_visited = 1
    holds = make_invariant_checker(engine, invariant, protocol,
                                   capacity=engine.memo_capacity)
    if not holds(initial):
        emit(observer, "violation-found", states_visited=1, depth=0)
        statistics.elapsed_seconds = time.perf_counter() - start_time
        counterexample = Counterexample(
            initial_state=engine.decode(initial), steps=(),
            property_name=invariant.name,
        )
        return SearchOutcome(False, False, counterexample, statistics)

    task_queues = [context.Queue() for _ in range(workers)]
    result_queue = context.Queue()
    processes = [
        context.Process(
            target=_fast_frontier_worker,
            args=(
                worker_id,
                workers,
                engine,
                invariant,
                task_queues[worker_id],
                result_queue,
            ),
            daemon=True,
        )
        for worker_id in range(workers)
    ]

    #: fingerprint -> None (initial) or (parent fingerprint, exec index).
    parents: Dict[int, Optional[Tuple[int, int]]] = {initial[3]: None}

    def rebuild(violating_fp: int) -> Counterexample:
        path: List[int] = []
        cursor = violating_fp
        while parents[cursor] is not None:
            parent_fp, exec_index = parents[cursor]
            path.append(exec_index)
            cursor = parent_fp
        path.reverse()
        return replay_path(PackedGraph(protocol, engine), path, invariant.name)

    verified = True
    complete = True
    counterexample: Optional[Counterexample] = None
    peak_frontier = 1
    worker_totals = [[0, 0] for _ in range(workers)]  # expansions, transitions
    try:
        for process in processes:
            process.start()
        for queue in task_queues:
            queue.put(("seed", None))
        collect_replies(result_queue, workers, "seeded", worker_timeout, processes)

        frontier_total = 1
        depth = 0
        while frontier_total:
            if config.max_seconds is not None:
                if time.perf_counter() - start_time > config.max_seconds:
                    complete = False
                    break
            if config.max_depth is not None and depth >= config.max_depth:
                complete = False
                break

            for queue in task_queues:
                queue.put(("expand", None))
            expanded = collect_replies(
                result_queue, workers, "expanded", worker_timeout, processes
            )
            for reply_worker, outgoing, expansions, transitions in expanded:
                statistics.enabled_set_computations += expansions
                statistics.full_expansions += expansions
                statistics.transitions_executed += transitions
                totals = worker_totals[reply_worker]
                totals[0] += expansions
                totals[1] += transitions
                if observer is not None and expansions:
                    emit(observer, "worker-telemetry", worker=reply_worker,
                         expansions=totals[0], transitions_executed=totals[1])

            level_deltas = 0
            for destination in range(workers):
                batch: List[Tuple[int, int, int, int, bool]] = []
                for _worker_id, outgoing, _expansions, _transitions in expanded:
                    batch.extend(outgoing[destination])
                level_deltas += len(batch)
                task_queues[destination].put(("absorb", batch))
            absorbed = collect_replies(
                result_queue, workers, "absorbed", worker_timeout, processes
            )

            level_new = 0
            level_violations: List[int] = []
            adopt_lists: List[List[int]] = [[] for _ in range(workers)]
            for _worker_id, new_count, revisits, violations, accepted in absorbed:
                level_new += new_count
                statistics.revisits += revisits
                level_violations.extend(violations)
                for source, fingerprint, parent_fp, exec_index in accepted:
                    parents[fingerprint] = (parent_fp, exec_index)
                    adopt_lists[source].append(fingerprint)
            statistics.states_visited += level_new

            if level_violations:
                verified = False
                counterexample = rebuild(level_violations[0])
                emit(observer, "violation-found",
                     states_visited=statistics.states_visited, depth=depth + 1)
                if config.stop_at_first_violation:
                    complete = False
                    break
            if (
                config.max_states is not None
                and statistics.states_visited >= config.max_states
            ):
                complete = False
                depth += 1
                statistics.max_depth = max(statistics.max_depth, depth)
                break

            for worker_id in range(workers):
                task_queues[worker_id].put(("adopt", adopt_lists[worker_id]))
            collect_replies(
                result_queue, workers, "adopted", worker_timeout, processes
            )

            if level_new:
                emit(observer, "level-completed", depth=depth + 1,
                     new_states=level_new, deltas=level_deltas,
                     states_visited=statistics.states_visited)
            frontier_total = level_new
            peak_frontier = max(peak_frontier, frontier_total)
            depth += 1
            if frontier_total:
                statistics.max_depth = max(statistics.max_depth, depth)
    finally:
        for queue in task_queues:
            try:
                queue.put(("stop", None))
            except Exception:  # pragma: no cover - queue already broken
                pass
        shutdown_processes(processes, queues=[result_queue] + task_queues,
                           telemetry=telemetry)

    statistics.elapsed_seconds = time.perf_counter() - start_time
    if telemetry is not None:
        telemetry.metrics.gauge(
            "frontier_peak", "widest BFS level explored"
        ).set(peak_frontier)
        telemetry.record_store(parents)
        telemetry.record_fastpath(engine)
        for worker_id, (_expansions, transitions) in enumerate(worker_totals):
            telemetry.record_worker(worker_id,
                                    {"transitions_executed": transitions})
    return SearchOutcome(
        verified=verified,
        complete=complete,
        counterexample=counterexample,
        statistics=statistics,
    )
