"""Worker-process side of the frontier-parallel breadth-first search.

One worker owns exactly one shard of the search's fingerprint partition
(:func:`repro.checker.statestore.shard_of`): every key routed to shard *i*
is deduplicated by worker *i* and by nobody else.  Ownership governs
*deduplication* only — the worker that discovered a state keeps it, in its
graph's own representation, and expands it once the owner accepts its key.
Because ownership is a pure function of the fingerprint, no locks are
needed; the only synchronisation is the level barrier.

One rule decides what crosses a process boundary, on either
:class:`~repro.checker.stategraph.StateGraph`: integers (fingerprints,
execution indices) or object-form states (``graph.decode`` out,
``graph.encode`` in) — never a graph-native state.  Packed words hold
lazily interned ids that are private to the process that interned them.

The coordinator drives workers through a tiny command protocol (one command
queue per worker, one shared result queue):

``("restore", (shard_keys, frontier_states, expanded))``
    Set the worker's whole state: the shard becomes ``shard_keys``, the
    frontier the (object-form) ``frontier_states``; with ``expanded`` the
    frontier is expanded again, silently, so the children it discovered
    are held once more.  Starts every run (a fresh search is the restore
    of a one-state table), every resume from a checkpoint, and every
    restarted worker.  No reply — commands are processed in queue order,
    so the next barrier command acknowledges it.
``("expand", None)``
    Expand the frontier: keep every child, evaluate the invariant, and
    reply with one delta ``(source, key, parent fingerprint, execution
    index, holds)`` per transition, routed per owner shard.  ``key`` is
    the child's fingerprint, or its object-form state when the shard
    deduplicates exactly (``store="full"``).
``("absorb", deltas)``
    Deduplicate the deltas routed to this shard.  Replies with ``(position
    in deltas, fingerprint, parent fingerprint)`` per accepted one and the
    revisit count.
``("adopt", keys)``
    The owners accepted ``keys`` among this worker's children: they become
    its next frontier, everything else it discovered is dropped.  Replies
    with the new frontier in object form when the run checkpoints.
``("stop", None)``
    Terminate the worker loop.

All replies carry the worker id so the coordinator can collect one reply
per worker per phase.  Any exception is reported as an ``("error", ...)``
reply instead of silently killing the process.  A *hard* death — SIGKILL,
the OOM killer, or an injected ``os._exit`` from :mod:`repro.chaos` —
never reaches the error path; the coordinator sees the process sentinel
fire and gets a structured :class:`WorkerCrashError`.
"""

from __future__ import annotations

import time
import traceback
from typing import List, Optional, Sequence, Tuple

from ..checker.property import Invariant
from ..checker.stategraph import StateGraph
from ..checker.statestore import shard_of

#: A delta crossing the level barrier: ``(discovering worker, key, parent
#: fingerprint, execution index, invariant holds)``.
Delta = Tuple[int, object, int, int, bool]


class WorkerCrashError(RuntimeError):
    """A worker process died without sending its barrier reply.

    Subclasses :class:`RuntimeError` so pre-supervision call sites keep
    working, but carries structure the supervisor needs to recover instead
    of aborting:

    Attributes:
        phase: The reply phase the collector was waiting for.
        workers: Ids of the dead workers whose replies are outstanding.
        replies: The partial reply list (one slot per worker, ``None``
            where outstanding) so surviving workers' barrier replies are
            not lost across a restart.
        attempts: Restart attempts already spent when a supervisor
            re-raises after giving up (0 when unsupervised).
    """

    def __init__(
        self,
        phase: str,
        workers: Sequence[int] = (),
        replies: Optional[list] = None,
        attempts: int = 0,
    ) -> None:
        names = ", ".join(str(worker) for worker in workers) or "?"
        super().__init__(
            f"parallel search: worker(s) {names} died without sending "
            f"{phase!r} reply"
        )
        self.phase = phase
        self.workers = tuple(workers)
        self.replies = replies
        self.attempts = attempts


def frontier_worker(
    worker_id: int,
    num_workers: int,
    graph: StateGraph,
    invariant: Invariant,
    exact: bool,
    checkpointing: bool,
    task_queue,
    result_queue,
    chaos: Optional[str] = None,
) -> None:
    """Run the worker command loop (the ``multiprocessing.Process`` target).

    Args:
        worker_id: Index of this worker; also the shard it owns.
        num_workers: Total worker count (= shard count of the partition).
        graph: The state graph to explore, built by the coordinator and
            inherited via ``fork`` (transition closures and compiled tables
            never need to pickle).
        invariant: The invariant checked in every discovered state.
        exact: Own the shard as a set of object-form *states* (exact,
            mirrors the serial full store) instead of a set of fingerprints.
        checkpointing: Reply to ``adopt`` with the new frontier in object
            form, for the coordinator's checkpoint.
        task_queue: This worker's command queue.
        result_queue: The shared reply queue.
        chaos: Optional :class:`repro.chaos.FaultPlan` spec; falls back to
            the ``REPRO_CHAOS`` environment variable.  ``None`` (the
            production default) injects nothing and costs nothing.
    """
    try:
        from ..chaos import chaos_hook_for_worker

        hook = chaos_hook_for_worker(chaos, worker_id, num_workers)
        holds = graph.invariant_checker(invariant)
        enabled_of, successor_of = graph.enabled, graph.successor
        fingerprint, decode = graph.fingerprint, graph.decode
        shard: set = set()
        frontier: list = []
        #: key -> child discovered this level, in the graph's representation.
        children: dict = {}

        def expand():
            outgoing: List[List[Delta]] = [[] for _ in range(num_workers)]
            children.clear()
            transitions = 0
            for state in frontier:
                parent_fp = fingerprint(state)
                for index, execution in enumerate(enabled_of(state)):
                    successor = successor_of(state, execution)
                    transitions += 1
                    child_fp = fingerprint(successor)
                    key = decode(successor) if exact else child_fp
                    children.setdefault(key, successor)
                    outgoing[shard_of(child_fp, num_workers)].append(
                        (worker_id, key, parent_fp, index, holds(successor))
                    )
            return outgoing, len(frontier), transitions

        while True:
            command, payload = task_queue.get()
            if hook is not None:
                hook.on_command(command)
            if command == "stop":
                return
            if command == "restore":
                shard_keys, frontier_states, expanded = payload
                shard = set(shard_keys)
                frontier = [graph.encode(state) for state in frontier_states]
                children.clear()
                if expanded:
                    expand()
            elif command == "expand":
                result_queue.put(("expanded", worker_id) + expand())
            elif command == "absorb":
                accepted: List[Tuple[int, int, int]] = []
                for position, (_source, key, parent_fp, _index, _holds) in enumerate(payload):
                    if key not in shard:
                        shard.add(key)
                        accepted.append(
                            (position, key.fingerprint() if exact else key, parent_fp)
                        )
                result_queue.put(
                    ("absorbed", worker_id, accepted, len(payload) - len(accepted))
                )
            elif command == "adopt":
                frontier = [children[key] for key in payload]
                children.clear()
                result_queue.put((
                    "adopted", worker_id,
                    [decode(state) for state in frontier] if checkpointing else None,
                ))
            else:  # pragma: no cover - protocol error, not reachable from bfs.py
                raise ValueError(f"unknown worker command: {command!r}")
    except BaseException:
        result_queue.put(("error", worker_id, traceback.format_exc()))


#: Fallback wake-up of the collector, in seconds.  Crashes do not wait for
#: it: the collector blocks on the workers' process sentinels as well.
_LIVENESS_POLL_SECONDS = 2.0


def collect_replies(
    result_queue,
    num_workers: int,
    phase: str,
    timeout: Optional[float],
    processes: Sequence = (),
    replies: Optional[list] = None,
):
    """Collect exactly one ``phase`` reply per worker, in worker-id order.

    Waits as long as every *outstanding* worker process is alive (a long
    level is progress, not a hang); ``timeout`` is an optional hard cap on
    top.  The wait covers the reply pipe and the outstanding workers'
    process sentinels together, so a crashed worker (e.g. killed by the
    OOM killer, which never reaches the error-reply path) fails the search
    the moment it dies instead of at the next poll.  Workers that already
    replied may exit freely — the work-stealing search winds its workers
    down as each finishes its final report, so only a death *before*
    replying is a crash.

    Args:
        processes: Worker processes, indexed by worker id (so liveness can
            be checked only for workers whose reply is still outstanding).
        replies: Optional partially-filled reply list from a previous,
            crash-interrupted collection (the supervisor passes the
            ``replies`` attribute of the :class:`WorkerCrashError` back in
            after restarting the dead workers, so surviving workers'
            replies are never re-awaited).

    Raises:
        WorkerCrashError: A worker died without replying; carries the dead
            worker ids and the partial replies so a supervisor can restart
            and resume the collection.
        RuntimeError: A worker reported an error, an unexpected phase
            arrived, or the hard timeout elapsed.
    """
    # Imported here: the module is on ``import repro``'s path, the socket
    # and selector machinery behind ``wait`` need not be.
    from multiprocessing.connection import wait

    deadline = None if timeout is None else time.monotonic() + timeout
    if replies is None:
        replies = [None] * num_workers
    collected = sum(1 for reply in replies if reply is not None)
    reader = result_queue._reader

    while collected < num_workers:
        sentinels = {
            process.sentinel: index
            for index, process in enumerate(processes[:num_workers])
            if replies[index] is None
        }
        ready = wait([reader, *sentinels], _LIVENESS_POLL_SECONDS)
        # A sentinel fired and the pipe looked empty: poll once more, a
        # reply the dying worker wrote between the two may have just landed.
        if reader in ready or (ready and reader.poll()):
            reply = result_queue.get()
        elif ready:
            raise WorkerCrashError(
                phase, sorted(sentinels[sentinel] for sentinel in ready), replies
            )
        elif deadline is not None and time.monotonic() > deadline:
            raise RuntimeError(
                f"parallel search: timed out waiting for {phase!r} replies"
            )
        else:
            continue
        if reply[0] == "error":
            raise RuntimeError(
                f"parallel search worker {reply[1]} failed:\n{reply[2]}"
            )
        if reply[0] != phase:
            raise RuntimeError(
                f"parallel search: expected {phase!r} reply, got {reply[0]!r}"
            )
        if replies[reply[1]] is None:
            collected += 1
        replies[reply[1]] = reply[1:]
    return replies


#: Grace given to a worker at each escalation rung of the shutdown ladder.
_SHUTDOWN_GRACE_SECONDS = 5.0


def shutdown_processes(processes: Sequence, queues: Sequence = (),
                       telemetry=None) -> int:
    """Tear a worker pool down without ever leaking a process.

    The ladder: ``join`` with a grace period, then ``terminate`` (SIGTERM)
    the stragglers and join again, then ``kill`` (SIGKILL) whatever
    survived — a worker wedged in uninterruptible state must not outlive
    the search and hold its queues' feeder threads (and their memory)
    forever.  Queues are closed afterwards so their feeder threads exit.

    Returns the number of processes that needed escalation past the plain
    join; when ``telemetry`` is given the count also lands on the
    ``worker_shutdown_escalations`` counter so leaked-process pressure is
    visible in run reports.
    """
    for process in processes:
        process.join(timeout=_SHUTDOWN_GRACE_SECONDS)
    escalated = 0
    for process in processes:
        if process.is_alive():
            escalated += 1
            process.terminate()
    if escalated:
        for process in processes:
            if process.is_alive():
                process.join(timeout=_SHUTDOWN_GRACE_SECONDS)
        for process in processes:
            if process.is_alive():  # pragma: no cover - SIGTERM-proof worker
                kill = getattr(process, "kill", process.terminate)
                kill()
                process.join(timeout=_SHUTDOWN_GRACE_SECONDS)
    for queue in queues:
        try:
            queue.close()
            queue.join_thread()
        except Exception:  # pragma: no cover - queue already broken
            pass
    if telemetry is not None and escalated:
        telemetry.metrics.counter(
            "worker_shutdown_escalations",
            "worker processes that survived join() and had to be signalled",
        ).inc(escalated)
    return escalated
