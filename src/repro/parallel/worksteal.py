"""Work-stealing primitives for the depth-first parallel search.

Three pieces, shared by :mod:`repro.parallel.dfs`:

* :class:`StolenFrame` — the unit of stealable work: a partially expanded
  DFS frame (state, in its state graph's own representation — valid in
  every worker once the graph is ``share()``d — + the enabled-order
  indices of its still-unexplored executions) plus the
  provenance needed to resume it anywhere (the execution-index path from
  the initial state, for counterexample rebuilds, and the ancestor
  fingerprints, for the cycle proviso).
  Executions themselves never cross a process boundary — transition
  guards and actions are closures and do not pickle — so frames carry
  *indices into the deterministic enabled order* and the thief recomputes
  the executions locally, exactly like the PR-2 counterexample rebuild.

* :class:`StripedClaimTable` — the cross-worker visited set: a fixed-size
  open-addressing hash table over shared memory, striped into independently
  locked regions routed by :func:`repro.checker.statestore.shard_of` (the
  same splitmix64 partition the sharded fingerprint store uses).  A state
  is explored by whichever worker *claims* its fingerprint first; a claim
  is one lock acquisition on one stripe, so workers only contend when two
  fingerprints route to the same stripe at the same moment.

* :class:`WorkStealingDeques` — one public deque per worker plus the
  bookkeeping that makes distributed termination sound.  Owners push and
  pop at the head (LIFO, preserving depth-first locality); idle workers
  steal from the *tail* of the busiest victim, which holds the shallowest
  published frame and therefore the largest expected subtree.  All deque
  mutations and the busy-worker count share one coordination lock, so the
  invariant "work exists => some deque is non-empty or some busy worker
  holds it locally" is checked atomically and the last worker to go idle
  can declare termination without a barrier.

Workers additionally keep a process-local ``set`` as a claim cache: a
fingerprint this worker has already routed through the shared table — won
or lost — is a guaranteed revisit and needs no lock at all.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..checker.statestore import mix_fingerprint, shard_of

__all__ = [
    "BatchedCounter",
    "CLAIM_FLUSH_BATCH",
    "HEARTBEAT_EVERY",
    "StallDetector",
    "StolenFrame",
    "StripedClaimTable",
    "WORKER_STALL_SECONDS",
    "WORKER_TELEMETRY_FIELDS",
    "WorkerTelemetryChannel",
    "WorkStealingDeques",
]

#: Workers flush their shared progress counter every this many increments.
CLAIM_FLUSH_BATCH = 32

#: Workers refresh their telemetry row/heartbeat every this many inner-loop
#: iterations (a power of two so the check is one bitwise AND).
HEARTBEAT_EVERY = 64

#: Seconds of heartbeat silence before a worker counts as stalled.
WORKER_STALL_SECONDS = 5.0

#: Counters each worker publishes through the telemetry channel, in order.
WORKER_TELEMETRY_FIELDS = ("claimed", "transitions_executed", "revisits")


class BatchedCounter:
    """Batches increments to a shared ``multiprocessing.Value`` counter.

    The work-stealing coordinator polls the counter for in-flight
    ``progress`` events; batching keeps the per-claim cost to one local
    integer add, with one lock acquisition per ``batch`` claims.  Callers flush explicitly at idle transitions and before the
    final report so the coordinator's last reading is exact.
    """

    __slots__ = ("_counter", "_pending", "batch")

    def __init__(self, counter, batch: int = CLAIM_FLUSH_BATCH) -> None:
        self._counter = counter
        self._pending = 0
        self.batch = batch

    def increment(self) -> None:
        """Count one claim, flushing when the batch fills."""
        self._pending += 1
        if self._pending >= self.batch:
            self.flush()

    def flush(self) -> None:
        """Publish any pending claims to the shared counter."""
        if self._pending:
            with self._counter.get_lock():
                self._counter.value += self._pending
            self._pending = 0


@dataclass(frozen=True)
class StolenFrame:
    """A stealable unit of depth-first work.

    Attributes:
        state: The already-claimed state whose subtree this frame explores,
            graph-native (the thief ``graph.sync()``s before resuming it).
        pending: Indices (into the deterministic enabled order of ``state``)
            of the executions still to explore, or ``None`` for a frame that
            has not been expanded yet (the seed frame of the whole search):
            the explorer computes the enabled set and applies the reducer
            itself.
        path: Execution indices (again into enabled orders) leading from the
            initial state to ``state``; replaying them rebuilds the access
            path, which is how violations become counterexamples without
            ever pickling an execution.
        ancestors: Fingerprints of the strict ancestors of ``state`` on the
            DFS path, in root-to-parent order.  Together with the thief's
            local stack these reconstruct exactly the serial DFS stack, so
            the stubborn-set cycle (stack) proviso sees the same path a
            serial search would.
    """

    state: object
    pending: Optional[Tuple[int, ...]]
    path: Tuple[int, ...] = ()
    ancestors: Tuple[int, ...] = ()

    @property
    def depth(self) -> int:
        """Edges from the initial state to ``state``."""
        return len(self.path)


#: Mixed key stored for a fingerprint whose splitmix64 image is 0 (slot 0 is
#: the empty marker).  The mixer is a bijection, so exactly one fingerprint
#: aliases this value; the effect is one extra (harmless) revisit report.
_ZERO_SURROGATE = 0x9E3779B97F4A7C15


class StripedClaimTable:
    """Lock-striped shared-memory fingerprint set for cross-worker claims.

    A set of fingerprints (``add_fingerprint`` / ``contains_fingerprint`` /
    ``len``) over ``multiprocessing`` shared memory: stripes are routed by
    the :func:`~repro.checker.statestore.shard_of` partition, each stripe is an
    open-addressing region of 64-bit slots guarded by its own lock, and the
    table is created before forking so every worker addresses the same
    memory.

    The table stores the splitmix64 image of each fingerprint (a bijection,
    so nothing is lost) and uses slot value 0 as the empty marker.  Capacity
    is fixed at construction; :meth:`add_fingerprint` raises once a stripe
    is full rather than silently dropping claims.
    """

    def __init__(
        self,
        capacity: int = 1 << 20,
        stripes: int = 16,
        mp_context=None,
    ) -> None:
        if capacity < stripes:
            raise ValueError("capacity must be at least the stripe count")
        if stripes < 1:
            raise ValueError("stripes must be at least 1")
        context = mp_context if mp_context is not None else multiprocessing
        self.num_stripes = stripes
        self.stripe_capacity = max(2, (capacity + stripes - 1) // stripes)
        self._slots = context.Array(
            "Q", self.num_stripes * self.stripe_capacity, lock=False
        )
        self._counts = context.Array("L", self.num_stripes, lock=False)
        self._locks = [context.Lock() for _ in range(self.num_stripes)]

    # ------------------------------------------------------------------ #
    # Keying
    # ------------------------------------------------------------------ #
    @staticmethod
    def _key(fingerprint: int) -> int:
        key = mix_fingerprint(fingerprint)
        return key if key != 0 else _ZERO_SURROGATE

    def stripe_of(self, fingerprint: int) -> int:
        """Stripe owning ``fingerprint`` (the shared splitmix64 partition)."""
        return shard_of(fingerprint, self.num_stripes)

    def _probe(self, stripe: int, key: int) -> Tuple[int, bool]:
        """Slot index for ``key`` in ``stripe`` and whether it is occupied.

        Must be called with the stripe lock held.  The within-stripe start
        index uses bits independent of the stripe routing (the key divided
        by the stripe count) so stripes stay uniformly filled.
        """
        base = stripe * self.stripe_capacity
        index = (key // self.num_stripes) % self.stripe_capacity
        slots = self._slots
        for _ in range(self.stripe_capacity):
            slot = base + index
            value = slots[slot]
            if value == key:
                return slot, True
            if value == 0:
                return slot, False
            index += 1
            if index == self.stripe_capacity:
                index = 0
        raise RuntimeError(
            f"claim table stripe {stripe} is full "
            f"({self.stripe_capacity} slots); raise the claim table capacity"
        )

    # ------------------------------------------------------------------ #
    # Claims
    # ------------------------------------------------------------------ #
    def add_fingerprint(self, fingerprint: int) -> bool:
        """Claim ``fingerprint``; True if this caller claimed it first.

        Probes before checking capacity: re-claiming an already-present
        fingerprint is a revisit (False) even when the stripe is full —
        only inserting a *new* claim into a full stripe raises.
        """
        key = self._key(fingerprint)
        stripe = self.stripe_of(fingerprint)
        with self._locks[stripe]:
            slot, occupied = self._probe(stripe, key)
            if occupied:
                return False
            if self._counts[stripe] >= self.stripe_capacity - 1:
                raise RuntimeError(
                    f"claim table stripe {stripe} is full "
                    f"({self.stripe_capacity} slots); raise the claim table capacity"
                )
            self._slots[slot] = key
            self._counts[stripe] += 1
            return True

    def contains_fingerprint(self, fingerprint: int) -> bool:
        """True if ``fingerprint`` has been claimed (by any worker)."""
        key = self._key(fingerprint)
        stripe = self.stripe_of(fingerprint)
        with self._locks[stripe]:
            _, occupied = self._probe(stripe, key)
            return occupied

    def __len__(self) -> int:
        """Total claims.  Exact at quiescence; a momentary lower bound while
        other workers are actively claiming (used only for budget checks)."""
        return sum(self._counts)

    def stripe_sizes(self) -> Tuple[int, ...]:
        """Claims per stripe, for balance diagnostics."""
        return tuple(self._counts)


class WorkStealingDeques:
    """Per-worker public deques plus sound distributed termination.

    All mutations — publish, local pop, steal, and the busy-worker count —
    run under one coordination lock, giving the invariant every idle check
    relies on: *if any frame exists that is not on a busy worker's private
    stack, it is in some public deque*.  The last worker to resign while
    every deque is empty therefore proves global exhaustion and sets the
    ``done`` event; no barrier or retry protocol is needed.

    A lock-free ``sizes`` array mirrors the deque lengths as a publish hint:
    workers read their own entry without the lock to decide when to donate
    work, so the common case (deque already stocked) costs one shared-memory
    read per expansion.
    """

    #: Idle workers sleep this long between steal attempts.
    IDLE_SLEEP_SECONDS = 0.002

    def __init__(self, workers: int, manager, mp_context=None) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        context = mp_context if mp_context is not None else multiprocessing
        self.workers = workers
        self._deques = [manager.list() for _ in range(workers)]
        self._lock = context.Lock()
        self._sizes = context.Array("l", workers, lock=False)
        self._busy = context.Value("i", workers, lock=False)
        self._steals = context.Value("l", 0, lock=False)
        self._publishes = context.Value("l", 0, lock=False)
        self.done = context.Event()
        self.stop = context.Event()

    # ------------------------------------------------------------------ #
    # Hints (lock-free reads)
    # ------------------------------------------------------------------ #
    def size_hint(self, worker_id: int) -> int:
        """This worker's public deque length; advisory, read without the lock."""
        return self._sizes[worker_id]

    def steal_count(self) -> int:
        """Frames taken from a victim's deque by another worker."""
        return self._steals.value

    def publish_count(self) -> int:
        """Frames ever published to any deque."""
        return self._publishes.value

    # ------------------------------------------------------------------ #
    # Deque operations
    # ------------------------------------------------------------------ #
    def publish(self, worker_id: int, frame: StolenFrame) -> None:
        """Push ``frame`` onto this worker's public deque (head)."""
        with self._lock:
            self._deques[worker_id].append(frame)
            self._sizes[worker_id] += 1
            self._publishes.value += 1

    def _take(self, worker_id: int) -> Optional[StolenFrame]:
        """Pop own head, else steal the busiest victim's tail.  Lock held."""
        if self._sizes[worker_id] > 0:
            frame = self._deques[worker_id].pop()
            self._sizes[worker_id] -= 1
            return frame
        victim = -1
        victim_size = 0
        for candidate in range(self.workers):
            size = self._sizes[candidate]
            if size > victim_size:
                victim, victim_size = candidate, size
        if victim < 0:
            return None
        frame = self._deques[victim].pop(0)
        self._sizes[victim] -= 1
        self._steals.value += 1
        return frame

    def next_task(self, worker_id: int) -> Optional[StolenFrame]:
        """Next frame for a *busy* worker whose private stack just emptied.

        Returns a frame (the worker stays busy) or ``None`` — in which case
        the worker has atomically resigned and must go through
        :meth:`try_acquire` to become busy again.  The resignation and the
        emptiness check happen under the same lock, so the last resigner's
        termination verdict cannot race a concurrent publish (publishers
        are busy by definition).
        """
        with self._lock:
            frame = self._take(worker_id)
            if frame is not None:
                return frame
            self._busy.value -= 1
            if self._busy.value == 0 and not any(self._sizes):
                self.done.set()
            return None

    def try_acquire(self, worker_id: int) -> Optional[StolenFrame]:
        """Attempt to re-enter the busy set by stealing a frame.

        The steal and the busy increment are atomic, so a frame in flight
        between deque and thief is always accounted as busy work.
        """
        with self._lock:
            frame = self._take(worker_id)
            if frame is None:
                return None
            self._busy.value += 1
            return frame

    def busy_workers(self) -> int:
        """Number of workers currently holding private work."""
        return self._busy.value


class WorkerTelemetryChannel:
    """Live per-worker telemetry over shared memory, without locks.

    One row of absolute counters (:data:`WORKER_TELEMETRY_FIELDS`) and one
    heartbeat timestamp per worker.  Each row is written *only* by its
    owning worker and read by the coordinator's poll loop, so plain
    (lock-free) shared arrays are race-free by ownership; the coordinator
    may read a row mid-update and see counters one beat apart, which is
    fine for gauges.  Heartbeats use ``time.monotonic()`` — under the
    ``fork`` start method all workers share the clock's epoch, so the
    coordinator can subtract.

    This rides the same batched-flush cadence as the claim counter: the
    worker loops call :meth:`publish` every :data:`HEARTBEAT_EVERY`
    iterations (one AND + a few array stores), not per state.
    """

    def __init__(self, workers: int, mp_context=None) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        context = mp_context if mp_context is not None else multiprocessing
        self.workers = workers
        self._fields = len(WORKER_TELEMETRY_FIELDS)
        self._values = context.Array("l", workers * self._fields, lock=False)
        self._heartbeats = context.Array("d", workers, lock=False)

    # Worker side (owner-only writes) ---------------------------------- #
    def publish(
        self, worker_id: int, claimed: int, transitions: int, revisits: int
    ) -> None:
        """Refresh this worker's counter row and heartbeat."""
        base = worker_id * self._fields
        values = self._values
        values[base] = claimed
        values[base + 1] = transitions
        values[base + 2] = revisits
        self._heartbeats[worker_id] = time.monotonic()

    def beat(self, worker_id: int) -> None:
        """Heartbeat only (idle spins: alive, but no new counters)."""
        self._heartbeats[worker_id] = time.monotonic()

    # Coordinator side (reads) ----------------------------------------- #
    def read(self, worker_id: int) -> Tuple[int, ...]:
        """This worker's current counter row, ordered like
        :data:`WORKER_TELEMETRY_FIELDS`."""
        base = worker_id * self._fields
        return tuple(self._values[base:base + self._fields])

    def read_all(self) -> List[Tuple[int, ...]]:
        """All counter rows (index = worker id)."""
        return [self.read(worker) for worker in range(self.workers)]

    def heartbeats(self) -> Tuple[float, ...]:
        """Last heartbeat per worker; 0.0 means never beaten (not started)."""
        return tuple(self._heartbeats)


class StallDetector:
    """Flags workers whose heartbeat went silent past a threshold.

    Pure bookkeeping (no shared state of its own) so it unit-tests with
    injected clocks.  Each stall episode is reported once: a worker that
    resumes beating re-arms its flag, a worker that stays silent does not
    repeat-fire every poll.  Workers that never beat (0.0 heartbeat) are
    skipped — they have not started, which at coordinator startup is
    scheduling latency, not a stall.
    """

    def __init__(
        self,
        workers: int,
        threshold_seconds: float = WORKER_STALL_SECONDS,
        clock=time.monotonic,
    ) -> None:
        if threshold_seconds <= 0:
            raise ValueError("threshold_seconds must be positive")
        self.threshold_seconds = threshold_seconds
        self._clock = clock
        self._flagged = [False] * workers

    def check(
        self, heartbeats: Sequence[float], now: Optional[float] = None
    ) -> List[Tuple[int, float]]:
        """Newly stalled workers as ``(worker, idle_seconds)`` pairs."""
        current = self._clock() if now is None else now
        stalled: List[Tuple[int, float]] = []
        for worker, beat in enumerate(heartbeats):
            if beat <= 0.0:
                continue
            idle = current - beat
            if idle >= self.threshold_seconds:
                if not self._flagged[worker]:
                    self._flagged[worker] = True
                    stalled.append((worker, idle))
            else:
                self._flagged[worker] = False
        return stalled


def pending_indices(
    enabled: Sequence, chosen: Sequence
) -> Tuple[int, ...]:
    """Map the chosen executions back to their indices in ``enabled``.

    The enabled order is deterministic across processes (same protocol,
    same hash seed under ``fork``), so indices are the portable spelling of
    an execution subset.  Raises if a chosen execution is not enabled —
    that would mean the reducer invented work, which must never happen.
    """
    index_of = {execution: index for index, execution in enumerate(enabled)}
    return tuple(index_of[execution] for execution in chosen)
