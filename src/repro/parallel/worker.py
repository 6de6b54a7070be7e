"""Worker-process side of the frontier-parallel breadth-first search.

One worker owns exactly one shard of the search's fingerprint partition
(:func:`repro.checker.statestore.shard_of`): a state routed to shard *i* is
deduplicated, invariant-checked *and expanded* by worker *i* and by nobody
else.  Because ownership is a pure function of the fingerprint, no locks
are needed and expansion is balanced by the partition; the only
synchronisation is the level barrier.

One rule decides what crosses a process boundary, on either
:class:`~repro.checker.stategraph.StateGraph`: a state travels in the
graph's own representation.  ``graph.share()`` (called by the coordinator
before it forks) makes that representation valid in every worker — packed
words are flat int tuples whose interned ids follow a shared log, object
states pickle by value; a batch is pickled as it is and read back after a
``graph.sync()``.  Only restore, supervision and checkpoints speak object
form (``graph.decode`` out, ``graph.encode`` in), their graph-neutral
currency.

The coordinator drives workers through a tiny command protocol (one command
queue per worker, one shared result queue):

``("restore", (shard_keys, frontier_states, expanded))``
    Set the worker's whole state: the shard becomes ``shard_keys``
    (fingerprints, or object-form states when the shard is not keyed by
    fingerprint), the frontier the (object-form) ``frontier_states``; with
    ``expanded`` the frontier is expanded again, silently, so the children
    it kept are held once more.  Starts every run (a fresh search is the
    restore of a one-state table), every resume from a checkpoint, and
    every restarted worker.  No reply — commands are processed in queue
    order, so the next barrier command acknowledges it.
``("expand", None)``
    Expand the frontier.  A child of this worker's own shard is
    deduplicated on the spot and kept; a child of another shard is shipped
    once per level (what was sent is forgotten with the level, so a worker
    holds its shard and nobody else's) as ``(state, parent fingerprint,
    execution index)``.  Replies with one pre-pickled blob per destination
    shard (``None`` when empty), the number of states in them and the
    expansion / transition / revisit counts.
``("absorb", blobs)``
    Deduplicate the states other workers shipped to this shard; what
    survives joins the kept children as the next frontier.  Replies with
    ``(fingerprint, parent fingerprint, execution index, holds)`` per state
    the shard accepted this level (kept children first), the revisit count,
    and the new frontier in object form when the run checkpoints.
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

import multiprocessing
import pickle
import time
import traceback
from typing import Callable, List, Optional, Sequence, Tuple

from ..checker.property import Invariant
from ..checker.stategraph import StateGraph
from ..checker.statestore import shard_of
from ..engine.events import Observer, emit

#: Total worker restarts a :class:`Supervisor` attempts before giving up
#: and surfacing the crash; bounds flapping when the fault is not transient.
MAX_WORKER_RESTARTS = 3


def default_mp_context():
    """The ``fork`` multiprocessing context.

    ``fork`` is required for two reasons: workers inherit the (unpicklable)
    protocol object, and forked children share the parent's hash seed so
    fingerprints — and with them the shard partition — agree across all
    processes.  Plan resolution refuses multi-process plans on platforms
    without it, so on those this raises :class:`ValueError`.
    """
    return multiprocessing.get_context("fork")


#: What an owner reports per state its shard accepted: ``(fingerprint,
#: parent fingerprint, execution index, invariant holds)``.
Accepted = Tuple[int, int, int, bool]


class WorkerCrashError(RuntimeError):
    """A worker process died without sending its barrier reply.

    Subclasses :class:`RuntimeError`, but carries the structure the
    :class:`Supervisor` needs to recover instead of aborting:

    Attributes:
        phase: The reply phase the collector was waiting for.
        workers: Ids of the dead workers whose replies are outstanding.
        replies: The partial reply list (one slot per worker, ``None``
            where outstanding) so surviving workers' barrier replies are
            not lost across a restart.
    """

    def __init__(
        self,
        phase: str,
        workers: Sequence[int] = (),
        replies: Optional[list] = None,
    ) -> None:
        names = ", ".join(str(worker) for worker in workers) or "?"
        super().__init__(
            f"parallel search: worker(s) {names} died without sending "
            f"{phase!r} reply"
        )
        self.phase = phase
        self.workers = tuple(workers)
        self.replies = replies


def frontier_worker(
    worker_id: int,
    num_workers: int,
    graph: StateGraph,
    invariant: Invariant,
    store: str,
    checkpointing: bool,
    task_queue,
    result_queue,
    hook=None,
) -> None:
    """Run the worker command loop (the ``multiprocessing.Process`` target).

    Args:
        worker_id: Index of this worker; also the shard it owns.
        num_workers: Total worker count (= shard count of the partition).
        graph: The state graph to explore, built and ``share()``d by the
            coordinator and inherited via ``fork`` (transition closures and
            compiled tables never need to pickle).
        invariant: The invariant checked in every state the shard accepts.
        store: The plan's store kind; the shard deduplicates by its key
            (:meth:`~repro.checker.stategraph.StateGraph.store_key`), as
            the serial store does.
        checkpointing: Reply to ``absorb`` with the new frontier in object
            form, for the coordinator's checkpoint.
        task_queue: This worker's command queue.
        result_queue: The shared reply queue.
        hook: Optional :class:`repro.chaos.ChaosHook` for this worker, built
            by the coordinator (so no worker pays the import); ``None`` (the
            production default) injects nothing and costs nothing.
    """
    try:
        holds = graph.invariant_checker(invariant)
        enabled_of, successor_of = graph.enabled, graph.successor
        fingerprint, encode = graph.fingerprint, graph.encode
        key_of = graph.store_key(store)
        # A fingerprint-keyed shard is restored from its keys, any other
        # from its states.
        exact = key_of is not fingerprint
        known: set = set()  # keys of the shard
        frontier: list = []
        #: The next frontier and its report, filled by expand then absorb.
        upcoming: list = []
        accepted: List[Accepted] = []

        def accept(state, state_fp: int, parent_fp: int, index: int) -> None:
            upcoming.append(state)
            accepted.append((state_fp, parent_fp, index, holds(state)))

        def expand():
            nonlocal upcoming, accepted
            upcoming, accepted = [], []
            outgoing: List[list] = [[] for _ in range(num_workers)]
            sent: set = set()  # keys of the other shards' children, this level
            transitions = revisits = 0
            for state in frontier:
                parent_fp = fingerprint(state)
                for index, execution in enumerate(enabled_of(state)):
                    child = successor_of(state, execution)
                    transitions += 1
                    key = key_of(child)
                    if key in known or key in sent:
                        revisits += 1
                        continue
                    child_fp = fingerprint(child)
                    owner = shard_of(child_fp, num_workers)
                    if owner == worker_id:
                        known.add(key)
                        accept(child, child_fp, parent_fp, index)
                    else:
                        sent.add(key)
                        outgoing[owner].append((child, parent_fp, index))
            blobs = [pickle.dumps(batch, pickle.HIGHEST_PROTOCOL) if batch else None
                     for batch in outgoing]
            return blobs, sum(map(len, outgoing)), len(frontier), transitions, revisits

        while True:
            command, payload = task_queue.get()
            if hook is not None:
                hook.on_command()
            if command == "stop":
                return
            if command == "restore":
                shard_keys, frontier_states, expanded = payload
                known = set(map(key_of, map(encode, shard_keys)) if exact
                            else shard_keys)
                frontier = [encode(state) for state in frontier_states]
                if expanded:
                    expand()
            elif command == "expand":
                result_queue.put(("expanded", worker_id) + expand())
            elif command == "absorb":
                graph.sync()
                revisits = 0
                for blob in payload:
                    for child, parent_fp, index in pickle.loads(blob):
                        key = key_of(child)
                        if key in known:
                            revisits += 1
                        else:
                            known.add(key)
                            accept(child, fingerprint(child), parent_fp, index)
                frontier = upcoming
                result_queue.put((
                    "absorbed", worker_id, accepted, revisits,
                    [graph.decode(state) for state in frontier]
                    if checkpointing else None,
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
            crash-interrupted collection (the :class:`Supervisor` passes
            the ``replies`` attribute of the :class:`WorkerCrashError` back
            in after restarting the dead workers, so surviving workers'
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


class Supervisor:
    """The one restart loop of the supervised pools (frontier BFS, swarm).

    :meth:`collect` gathers one reply phase like :func:`collect_replies`.
    When workers die without replying it reaps each one and calls the
    caller's ``respawn(worker_id)``, which starts a replacement — without
    the fault plan, which describes the original incarnation (re-arming it
    would crash every replacement too) — re-sends it the command its
    predecessor lost and returns the new process; the collection then
    resumes with the survivors' replies intact.  Each crash emits
    ``worker-crashed`` and counts ``worker_crashes``, each restart emits
    ``worker-restarted`` and counts ``worker_restarts``; once
    :data:`MAX_WORKER_RESTARTS` is spent the :class:`WorkerCrashError` is
    re-raised for the pool to end the run honestly incomplete.

    ``processes`` is the pool's own list, indexed by worker id; restarts
    replace its entries in place.
    """

    def __init__(self, result_queue, processes: list,
                 observer: Optional[Observer] = None, telemetry=None) -> None:
        self.result_queue = result_queue
        self.processes = processes
        self.observer = observer
        self.telemetry = telemetry
        self.restarts = 0

    def _count(self, name: str, description: str) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name, description).inc()

    def collect(self, phase: str, respawn: Callable[[int], object],
                wait: Optional[Callable[[], None]] = None) -> list:
        """One ``phase`` reply per worker, restarting the dead.

        ``wait``, when given, runs before every collection attempt (the
        swarm pool streams progress from it while its walkers run).
        """
        replies = None
        while True:
            if wait is not None:
                wait()
            try:
                return collect_replies(self.result_queue, len(self.processes),
                                       phase, None, self.processes, replies)
            except WorkerCrashError as crash:
                for worker_id in crash.workers:
                    emit(self.observer, "worker-crashed", worker=worker_id,
                         phase=phase)
                    self._count("worker_crashes",
                                "worker processes that died without replying")
                if self.restarts + len(crash.workers) > MAX_WORKER_RESTARTS:
                    raise
                replies = crash.replies
                for worker_id in crash.workers:
                    self.restarts += 1
                    self.processes[worker_id].join(timeout=0.1)  # reap it
                    self.processes[worker_id] = respawn(worker_id)
                    emit(self.observer, "worker-restarted", worker=worker_id,
                         attempt=self.restarts)
                    self._count("worker_restarts",
                                "crashed workers restarted by the supervisor")


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
