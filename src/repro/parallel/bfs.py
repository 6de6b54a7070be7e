"""Frontier-parallel breadth-first search (the coordinator side).

The search is level-synchronous: all workers expand their share of level
*d* before any state of level *d+1* is expanded.  It is written once, over
the :class:`~repro.checker.stategraph.StateGraph` seam
(``make_graph(protocol, config)``, ``config`` being the run's frozen
:class:`~repro.engine.plan.CheckPlan`), so ``successors="fast"`` only
swaps the graph the workers run over, and ``config.workers`` is the pool
size.  Each worker owns one shard of the
fingerprint partition: it deduplicates, invariant-checks and expands
exactly the states routed to it, so the set of states discovered at every
level — and therefore the visited-state count — is identical to the serial
:func:`repro.checker.search.bfs_search` closure, and expansion is balanced
by the partition.  What parallelism changes is only *who* expands a state,
never *whether* it is expanded.

A level is two barriers.  *Expand*: every worker expands the frontier it
owns; a child of its own shard is deduplicated on the spot, a child of
another shard is shipped — once per worker and level, in the graph's own
representation (``graph.share()`` before the fork makes it valid in every
process), as ``(state, parent fingerprint, execution index)`` — in one
pre-pickled blob per destination.  *Absorb*: the coordinator forwards the
blobs to their owners without decoding them; each owner deduplicates what
arrived and replies with ``(fingerprint, parent fingerprint, execution
index, holds)`` for the states its shard accepted this level — which are
its next frontier.  The coordinator's only table is ``fingerprint ->
(parent fingerprint, execution index)``, serial BFS's parent map keyed by
fingerprint whatever the store; counterexamples come from
:func:`~repro.checker.stategraph.replay_parents`.

Guarantees relative to serial BFS:

* identical visited-state counts, transition counts, revisit counts and
  depth on every run that completes a level (i.e. all verified cells);
* identical verdicts everywhere; on violating cells the counterexample has
  the same (minimal) depth, and the bound/violation checks are applied at
  level barriers, so a run stopped mid-search may count the remainder of
  the level the serial search would have abandoned mid-way through.

Fault tolerance, on either graph: a
:class:`~repro.parallel.worker.Supervisor` watches the pool.  A worker
that dies without replying (SIGKILL, the OOM killer, an injected
:mod:`repro.chaos` crash) is detected through its process sentinel; the
coordinator restarts it on a fresh queue and sends it the
same ``restore`` message a checkpoint resume sends — its shard keys from
the coordinator's table, its frontier as object-form states the
coordinator rebuilds by replaying their paths over its own graph —
re-issues the lost barrier command (the forwarded blobs of the open level
are retained for exactly that), and resumes the collection with the
surviving workers' replies intact.  Visited and transition counts are
identical to an uncrashed run because every barrier is a deterministic
function of the restored state.  (Under ``store="full"`` the rebuilt shard
is exact up to a 64-bit fingerprint collision in the coordinator's table.)
Once the restart budget is spent the crash surfaces as a structured
:class:`~repro.parallel.worker.WorkerCrashError` and the search returns an
honest incomplete outcome with partial statistics, never a hang or a bare
traceback.

Checkpointing rides the same barrier: with ``config.checkpoint_dir`` set
— and only then — owners add their new frontier in object form to the
absorb reply, and every ``config.checkpoint_every`` levels the coordinator
writes the graph-neutral :mod:`repro.checker.checkpoint` file (object
states + execution-index edges) with that module's level writer.  A killed
run resumes via ``config.resume_from``, at any worker count and over
either graph, with verdict and visited count identical to an
uninterrupted run.

The workers inherit the graph via the ``fork`` start method (transition
guards and actions are closures and never pickle).  Plan resolution
refuses multi-process plans on platforms without ``fork``; called
directly there, the search raises :class:`ValueError`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..checker.counterexample import Counterexample
from ..checker.property import Invariant
from ..checker.result import SearchStatistics
from ..checker.search import SearchOutcome
from ..checker.stategraph import make_graph, replay_parents
from ..checker.statestore import shard_of
from ..engine.events import Observer, emit
from ..engine.plan import CheckPlan
from ..mp.protocol import Protocol
from ..mp.state import GlobalState
from .worker import (
    Supervisor,
    WorkerCrashError,
    default_mp_context,
    frontier_worker,
    shutdown_processes,
)


def parallel_bfs_search(
    protocol: Protocol,
    invariant: Invariant,
    config: CheckPlan,
    observer: Optional[Observer] = None,
    telemetry=None,
) -> SearchOutcome:
    """Breadth-first search of one cell across ``config.workers`` processes.

    Args:
        protocol: The protocol instance to explore.
        invariant: The invariant to check in every reachable state.
        config: The plan.  ``successors`` picks the state graph, ``store``
            the key the shards deduplicate by
            (:meth:`~repro.checker.stategraph.StateGraph.store_key`), and
            ``workers`` is the worker process count (=
            shard count, at least 2: plan resolution sends one worker to
            the serial BFS).
            The ``chaos`` / ``checkpoint_dir`` / ``checkpoint_every`` /
            ``resume_from`` knobs drive the fault tolerance documented in
            the module docstring.  Workers are forked, and the
            coordinator waits at each level barrier for as long as every
            worker process is alive: an arbitrarily long
            level is progress, not a hang, and a crashed worker is detected
            through its process sentinel.  ``max_seconds`` budgets the
            search as a whole.
        observer: Optional coordinator-side event observer; receives one
            ``level-completed`` event per level barrier (``deltas`` counts
            the states that crossed a process boundary), one
            ``worker-telemetry`` event per
            worker per expand barrier (cumulative expansions/transitions,
            riding the existing replies — no extra IPC),
            ``violation-found`` events, and the fault-tolerance kinds
            ``worker-crashed`` / ``worker-restarted`` /
            ``checkpoint-written``.
        telemetry: Optional :class:`~repro.obs.telemetry.RunTelemetry`;
            receives frontier-peak and per-worker expansion/transition
            counters at the end of the run, plus crash/restart counters.

    Returns:
        A :class:`SearchOutcome`, shaped exactly like the serial one.
    """
    workers = config.workers
    context = default_mp_context()

    # Imported here, not by ``import repro`` — and before the fork, so the
    # workers inherit it.
    from ..chaos import chaos_hook_for_worker

    statistics = SearchStatistics()
    start_time = time.perf_counter()
    checkpointing = config.checkpoint_dir is not None

    # Built and shared before forking: every worker inherits the graph
    # (and, packed, its compiled tables) instead of building its own, and
    # its states mean the same in all of them.
    graph = make_graph(protocol, config, telemetry=telemetry)
    graph.share()
    # The table is keyed by fingerprint: a shard keyed otherwise is
    # restored from states, rebuilt by replay.
    exact = graph.store_key(config.store) is not graph.fingerprint
    enabled_of, successor_of, decode = graph.enabled, graph.successor, graph.decode
    initial = graph.initial
    initial_fp = graph.fingerprint(initial)

    #: fingerprint -> None (initial) or (parent fingerprint, exec index).
    parents: Dict[int, Optional[Tuple[int, int]]] = {initial_fp: None}
    #: Fingerprints of the frontier each worker owns.
    frontier_fps: List[List[int]] = [[] for _ in range(workers)]
    #: Every visited state in discovery order; kept only while checkpointing.
    discovered: List[GlobalState] = []
    #: fingerprint -> object-form state while a loaded checkpoint's states
    #: are in hand (until they have been handed to the workers).
    known: Optional[Dict[int, GlobalState]] = None

    def object_states(fingerprints) -> List[GlobalState]:
        """Object-form states of table entries: a loaded checkpoint's own,
        else rebuilt over the coordinator's graph by replaying their paths
        (a shared prefix is replayed once per call)."""
        if known is not None:
            return [known[fingerprint] for fingerprint in fingerprints]
        states = {initial_fp: initial}
        rebuilt = []
        for cursor in fingerprints:
            missing = []
            while cursor not in states:
                missing.append(cursor)
                cursor = parents[cursor][0]
            state = states[cursor]
            while missing:
                cursor = missing.pop()
                state = states[cursor] = successor_of(
                    state, enabled_of(state)[parents[cursor][1]]
                )
            rebuilt.append(decode(state))
        return rebuilt

    if config.resume_from is not None:
        from ..checker.checkpoint import resume_checkpoint

        resumed = resume_checkpoint(config.resume_from, decode(initial))
        # Fingerprints are recomputed here: they are per-process values, and
        # equal across graphs, so the file fits any graph and worker count.
        fingerprints = [state.fingerprint() for state in resumed.states]
        known = dict(zip(fingerprints, resumed.states))
        for fingerprint, edge in zip(fingerprints, resumed.edges):
            if edge is not None:
                parents[fingerprint] = (fingerprints[edge[0]], edge[1])
        for index in resumed.frontier:
            fingerprint = fingerprints[index]
            frontier_fps[shard_of(fingerprint, workers)].append(fingerprint)
        if checkpointing:
            discovered = list(resumed.states)
        statistics = resumed.statistics
        statistics.states_visited = len(resumed.states)
        depth = resumed.depth
        start_time = time.perf_counter() - statistics.elapsed_seconds
        del resumed
    else:
        statistics.states_visited = 1
        if not graph.invariant_checker(invariant)(initial):
            emit(observer, "violation-found", states_visited=1, depth=0)
            statistics.elapsed_seconds = time.perf_counter() - start_time
            counterexample = Counterexample(
                initial_state=decode(initial), steps=(),
                property_name=invariant.name,
            )
            return SearchOutcome(False, False, counterexample, statistics)
        frontier_fps[shard_of(initial_fp, workers)].append(initial_fp)
        if checkpointing:
            discovered = [decode(initial)]
        depth = 0
    frontier_total = sum(map(len, frontier_fps))

    task_queues = [context.Queue() for _ in range(workers)]
    # No feeder thread on the reply side: a worker writes its reply itself,
    # so a crash injected between two commands can never die holding the
    # queue's write lock and wedge the survivors' replies behind it.
    result_queue = context.SimpleQueue()

    def spawn_worker(worker_id: int, chaos: Optional[str]):
        process = context.Process(
            target=frontier_worker,
            args=(worker_id, workers, graph, invariant, config.store, checkpointing,
                  task_queues[worker_id], result_queue,
                  chaos_hook_for_worker(chaos, worker_id)),
            daemon=True,
        )
        process.start()
        return process

    def restore(worker_id: int, expanded: bool = False) -> None:
        """Send ``worker_id`` its whole state as the table has it: the keys
        of its shard and the frontier it owns, in object form."""
        owned = [fp for fp in parents if shard_of(fp, workers) == worker_id]
        task_queues[worker_id].put((
            "restore",
            (object_states(owned) if exact else owned,
             object_states(frontier_fps[worker_id]), expanded),
        ))

    checkpoint_interval = max(1, config.checkpoint_every or 1)

    def write_level_checkpoint() -> None:
        from ..checker.checkpoint import write_level

        statistics.elapsed_seconds = time.perf_counter() - start_time
        path = write_level(
            config.checkpoint_dir, depth + 1, statistics, discovered,
            [state.fingerprint() for state in discovered], parents.__getitem__,
            (fp for held in frontier_fps for fp in held),
            {"property": invariant.name, "engine": "frontier-bfs",
             "workers": workers},
        )
        emit(observer, "checkpoint-written", depth=depth + 1,
             states_visited=statistics.states_visited, path=path)

    processes = [spawn_worker(worker_id, config.chaos) for worker_id in range(workers)]
    supervisor = Supervisor(result_queue, processes, observer, telemetry)

    def respawn(worker_id: int, command: str, payload):
        """A replacement for ``worker_id`` on a fresh queue (the dead worker
        may have consumed — or left behind — commands on the old one),
        restored to the state the lost command found, with that command
        re-sent."""
        task_queues[worker_id] = context.Queue()
        process = spawn_worker(worker_id, None)
        # An absorb finds the children of its own shard the dead worker kept.
        restore(worker_id, expanded=command == "absorb")
        task_queues[worker_id].put((command, payload))
        return process

    verified = True
    complete = True
    incomplete_reason: Optional[str] = None
    counterexample: Optional[Counterexample] = None
    peak_frontier = max(1, frontier_total)
    worker_totals = [[0, 0] for _ in range(workers)]  # expansions, transitions
    try:
        for worker_id in range(workers):
            restore(worker_id)
        known = None  # handed out; from here on states are rebuilt by replay

        while frontier_total:
            if config.max_seconds is not None:
                if time.perf_counter() - start_time > config.max_seconds:
                    complete = False
                    break
            if config.max_depth is not None and depth >= config.max_depth:
                complete = False
                break

            # Expand: every worker walks the frontier it owns.
            for queue in task_queues:
                queue.put(("expand", None))
            expanded = supervisor.collect(
                "expanded", lambda worker_id: respawn(worker_id, "expand", None))
            level_deltas = 0
            for (reply_worker, _blobs, shipped, expansions, transitions,
                 revisits) in expanded:
                level_deltas += shipped
                statistics.enabled_set_computations += expansions
                statistics.full_expansions += expansions
                statistics.transitions_executed += transitions
                statistics.revisits += revisits
                totals = worker_totals[reply_worker]
                totals[0] += expansions
                totals[1] += transitions
                if observer is not None and expansions:
                    emit(observer, "worker-telemetry", worker=reply_worker,
                         expansions=totals[0], transitions_executed=totals[1])

            # Absorb: each owner gets the blobs shipped to its shard, still
            # pickled and in worker-id order so the absorb order is
            # deterministic.  They are retained for the level, so a worker
            # that crashes mid-absorb is re-fed exactly what it lost.
            shipped_by = [reply[1] for reply in expanded]
            routed: List[List[bytes]] = [
                [blobs[destination] for blobs in shipped_by
                 if blobs[destination] is not None]
                for destination in range(workers)
            ]
            for destination in range(workers):
                task_queues[destination].put(("absorb", routed[destination]))
            absorbed = supervisor.collect(
                "absorbed",
                lambda worker_id: respawn(worker_id, "absorb", routed[worker_id]))

            level_new = 0
            level_violations: List[int] = []
            frontier_fps = [[] for _ in range(workers)]
            for owner, accepted, revisits, states in absorbed:
                level_new += len(accepted)
                statistics.revisits += revisits
                held = frontier_fps[owner]
                for fingerprint, parent_fp, exec_index, holds in accepted:
                    parents[fingerprint] = (parent_fp, exec_index)
                    held.append(fingerprint)
                    if not holds:
                        level_violations.append(fingerprint)
                if checkpointing:
                    discovered.extend(states)
            statistics.states_visited += level_new

            if level_violations:
                verified = False
                # Executions never cross a process boundary: the replay of
                # the parent chain recomputes them.  The first level's
                # counterexample is the shortest; later ones do not replace it.
                if counterexample is None:
                    counterexample = replay_parents(
                        graph, parents, level_violations[0], invariant.name)
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

            if level_new:
                # Mirror the serial engine's stream: only levels the search
                # carries forward are observable — a level that ends the run
                # (violation stop, truncation) or discovers nothing is
                # bookkeeping, and violation-found precedes the level event
                # when both occur.
                emit(observer, "level-completed", depth=depth + 1,
                     new_states=level_new, deltas=level_deltas,
                     states_visited=statistics.states_visited)
                if checkpointing and (depth + 1) % checkpoint_interval == 0:
                    write_level_checkpoint()
            frontier_total = level_new
            peak_frontier = max(peak_frontier, frontier_total)
            depth += 1
            # Mirror the serial engines: ``max_depth`` counts the edges to
            # the deepest *discovered* state, not the final empty level.
            if frontier_total:
                statistics.max_depth = max(statistics.max_depth, depth)
    except WorkerCrashError:
        # Unrecovered worker death: an honest partial verdict, never a hang
        # or a bare traceback.  Partial statistics (everything up to the
        # last completed barrier) stay attached.
        complete = False
        incomplete_reason = "worker crash"
    finally:
        for queue in task_queues:
            try:
                queue.put(("stop", None))
            except Exception:  # pragma: no cover - queue already broken
                pass
        shutdown_processes(processes, queues=task_queues, telemetry=telemetry)
        result_queue.close()

    statistics.elapsed_seconds = time.perf_counter() - start_time
    if telemetry is not None:
        telemetry.metrics.gauge(
            "frontier_peak", "widest BFS level explored"
        ).set(peak_frontier)
        telemetry.record_store(parents)
        graph.record(telemetry)
        for worker_id, (expansions, transitions) in enumerate(worker_totals):
            telemetry.record_worker(worker_id, {
                "expansions": expansions, "transitions_executed": transitions,
            })
    return SearchOutcome(
        verified=verified,
        complete=complete,
        counterexample=counterexample,
        statistics=statistics,
        incomplete_reason=incomplete_reason,
    )
