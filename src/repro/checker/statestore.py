"""The visited-state store of stateful search, and the fingerprint partition.

A stateful search asks its store one question: was this state seen?  The
answer depends only on the key the store deduplicates by, which
:meth:`repro.checker.stategraph.StateGraph.store_key` decides once per
store kind: the exact key for ``"full"``, the 64-bit fingerprint for
``"fingerprint"`` and ``"sharded-fingerprint"`` — the standard
bit-state/fingerprint trade-off, a small (documented) collision risk for
far lower memory.  :class:`StateStore` is that set of keys.

:func:`shard_of` partitions fingerprints by a mixed hash.  The routing is a
pure function of the fingerprint, so the frontier-parallel search gives
each worker one shard of it outright and the work-stealing claim table
stripes its locks by it.
"""

from __future__ import annotations

from typing import Callable, Hashable, Set

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


def identity(state):
    """The key of a state that is its own exact key (the object graph's)."""
    return state


class StateStore:
    """A visited set: the set of ``key(state)`` over the states added.

    ``key`` is what :meth:`~repro.checker.stategraph.StateGraph.store_key`
    answers for the store kind.  A state that is its own key
    (:func:`identity`) is stored as it is, without a call per state.
    """

    __slots__ = ("key", "keys")

    def __init__(self, key: Callable[[object], Hashable]) -> None:
        self.key = key
        self.keys: Set[Hashable] = set()

    def add(self, state) -> bool:
        """Record ``state``; return True if its key was not seen before."""
        key = self.key
        if key is not identity:
            state = key(state)
        keys = self.keys
        if state in keys:
            return False
        keys.add(state)
        return True

    def __len__(self) -> int:
        return len(self.keys)


#: Store kinds accepted by a plan (and the CLI's --store); ``"none"`` is the
#: stateless search's, which keeps no store at all.
STORE_KINDS = ("full", "fingerprint", "sharded-fingerprint", "none")


def make_state_store(kind: str) -> StateStore:
    """The store of ``kind`` over object-graph states (``GlobalState``)."""
    # Imported here: the state graphs build their stores from this module.
    from .stategraph import ObjectGraph

    return ObjectGraph.make_store(kind)
