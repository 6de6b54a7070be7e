"""Visited-state stores for stateful search.

Three real implementations are provided:

* :class:`FullStateStore` keeps the states themselves and is exact;
* :class:`FingerprintStore` keeps only 64-bit hashes, trading a small
  (documented) collision risk for far lower memory usage — the standard
  bit-state/fingerprint trade-off of explicit-state model checkers;
* :class:`ShardedFingerprintStore` partitions the fingerprints across N
  shards by a mixed hash.  The routing function is a pure function of the
  fingerprint, so in the parallel search each worker can own one shard
  outright — membership tests and inserts for a shard never touch another
  worker's data, making per-shard operations lock-free.

The same routing is useful single-process: membership stays O(1) per shard
while shard sizes expose the partition for diagnostics.
"""

from __future__ import annotations

from typing import Set, Tuple

from ..mp.state import GlobalState

_MASK64 = (1 << 64) - 1


def mix_fingerprint(fingerprint: int) -> int:
    """SplitMix64 finaliser over a (possibly negative) Python hash.

    Python's hash routinely leaves structure in the low bits (small ints
    hash to themselves), so routing by ``fingerprint % shards`` alone would
    skew the partition.  The finaliser diffuses every input bit across the
    64-bit output before the modulo.
    """
    z = fingerprint & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def shard_of(fingerprint: int, num_shards: int) -> int:
    """Shard index owning ``fingerprint`` in an ``num_shards``-way partition.

    Total and deterministic: every fingerprint maps to exactly one shard in
    ``range(num_shards)``, in every process that computes the same
    fingerprint (see :meth:`repro.mp.state.GlobalState.__reduce__` for when
    fingerprints agree across processes).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    return mix_fingerprint(fingerprint) % num_shards


class StateStore:
    """Interface of a visited-state store."""

    def add(self, state: GlobalState) -> bool:
        """Record ``state``; return True if it was not seen before."""
        raise NotImplementedError

    def __contains__(self, state: GlobalState) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class FullStateStore(StateStore):
    """Exact store keeping every visited state."""

    def __init__(self) -> None:
        self._states: Set[GlobalState] = set()

    def add(self, state: GlobalState) -> bool:
        if state in self._states:
            return False
        self._states.add(state)
        return True

    def __contains__(self, state: GlobalState) -> bool:
        return state in self._states

    def __len__(self) -> int:
        return len(self._states)


class FingerprintStore(StateStore):
    """Memory-light store keeping only state hashes.

    A hash collision makes the search believe an unvisited state was already
    seen, so verification results obtained with this store are best-effort.
    :class:`FullStateStore` is the default; this one is for larger instances
    where memory is the binding constraint (the ledger's ``exhaustive_fast``
    and ``parallel_2w`` workloads run on it).
    """

    def __init__(self) -> None:
        self._fingerprints: Set[int] = set()

    def add(self, state: GlobalState) -> bool:
        # ``fingerprint()`` returns the hash cached at state-construction
        # time, so membership-then-add costs one set lookup, not two hashes.
        fingerprint = state.fingerprint()
        if fingerprint in self._fingerprints:
            return False
        self._fingerprints.add(fingerprint)
        return True

    def __contains__(self, state: GlobalState) -> bool:
        return state.fingerprint() in self._fingerprints

    def __len__(self) -> int:
        return len(self._fingerprints)


class ShardedFingerprintStore(StateStore):
    """Fingerprint store partitioned across ``num_shards`` hash shards.

    Functionally equivalent to :class:`FingerprintStore` (same collision
    trade-off), but membership is split into disjoint per-shard sets routed
    by :func:`shard_of`.  The partition is what the parallel search builds
    on: worker *i* of an *N*-worker search owns shard *i* and can test/insert
    its share of the fingerprints without synchronisation.  Instances pickle
    cleanly (plain sets of ints), so a shard can cross a process boundary.
    """

    def __init__(self, num_shards: int = 8) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.num_shards = num_shards
        self._shards: Tuple[Set[int], ...] = tuple(set() for _ in range(num_shards))

    def shard_of(self, fingerprint: int) -> int:
        """Index of the shard owning ``fingerprint``."""
        return shard_of(fingerprint, self.num_shards)

    def add(self, state: GlobalState) -> bool:
        return self.add_fingerprint(state.fingerprint())

    def add_fingerprint(self, fingerprint: int) -> bool:
        """Record a raw fingerprint; return True if it was not seen before."""
        shard = self._shards[shard_of(fingerprint, self.num_shards)]
        if fingerprint in shard:
            return False
        shard.add(fingerprint)
        return True

    def __contains__(self, state: GlobalState) -> bool:
        return self.contains_fingerprint(state.fingerprint())

    def contains_fingerprint(self, fingerprint: int) -> bool:
        """True if the raw fingerprint was recorded before."""
        return fingerprint in self._shards[shard_of(fingerprint, self.num_shards)]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def shard_sizes(self) -> Tuple[int, ...]:
        """Number of fingerprints held per shard, for balance diagnostics."""
        return tuple(len(shard) for shard in self._shards)

    def shard_contents(self, index: int) -> Set[int]:
        """The raw fingerprint set of one shard (not a copy)."""
        return self._shards[index]


class NullStateStore(StateStore):
    """Store used by stateless search: never remembers anything."""

    def add(self, state: GlobalState) -> bool:
        return True

    def __contains__(self, state: GlobalState) -> bool:
        return False

    def __len__(self) -> int:
        return 0


#: Store kinds accepted by :func:`make_state_store` (and the CLI's --store).
STORE_KINDS = ("full", "fingerprint", "sharded-fingerprint", "none")


def make_state_store(kind: str) -> StateStore:
    """Factory: one of :data:`STORE_KINDS` (``"full"``, ``"fingerprint"``,
    ``"sharded-fingerprint"`` or ``"none"``)."""
    if kind == "full":
        return FullStateStore()
    if kind == "fingerprint":
        return FingerprintStore()
    if kind == "sharded-fingerprint":
        return ShardedFingerprintStore()
    if kind == "none":
        return NullStateStore()
    raise ValueError(f"unknown state store kind: {kind!r}")
