"""Global states of a message-passing protocol.

A global state (Section II-A) is a vector of the local state of every
process plus the contents of every channel.  Global states are immutable and
hashable, which makes stateful search, fingerprinting and the transition
refinement equivalence checks straightforward.

Because the model checker creates millions of states through functional
updates, construction is engineered around three invariants:

* the ``pid -> position`` index is shared: it is computed once per protocol
  and every derived state reuses the same dictionary object;
* hashing is incremental: the hash over the local-state vector is an XOR of
  position-tagged per-entry hashes, so replacing one local state combines
  the old accumulator with the delta of the changed entry instead of
  rehashing the whole tuple;
* states can be *interned* (:class:`StateInterner`), so identical states
  share one object and equality starts with an identity check.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from .channel import Network
from .errors import MPError


#: ``pid tuple -> shared index`` table used when unpickling states, so all
#: states of one protocol restored in a process share a single index dict
#: (mirroring the shared-index invariant of freshly built states).
_UNPICKLE_INDEX_CACHE: Dict[Tuple[str, ...], Dict[str, int]] = {}


#: Drawn once per interpreter and inherited by ``fork``.  A network's
#: canonical order sorts payloads by ``repr``, which for a set depends on
#: the interpreter's hash seed; two processes that agree on this token
#: share the seed, so an order canonical in one is canonical in the other.
_LINEAGE = os.urandom(8)


def _restore_state(
    pairs: Tuple[Tuple[str, Any], ...], items, lineage: bytes
) -> "GlobalState":
    """Rebuild a pickled :class:`GlobalState`.

    Only the local-state vector, the network's items and the writer's
    lineage cross the boundary; the index is reattached from a per-process
    cache and both hashes are recomputed under the *receiving* interpreter's
    hash seed.  A state written by this process or a ``fork`` sibling (same
    :data:`_LINEAGE`) — what the parallel search ships between its workers
    — is taken in the canonical network order it was written in; any other
    reader (a checkpoint opened by a later run, a ``spawn``-started process)
    re-sorts the network too.  Fingerprints agree between writer and reader
    exactly when their hash seeds (and the identity hashes the states
    contain) do.
    """
    pids = tuple(pid for pid, _ in pairs)
    index = _UNPICKLE_INDEX_CACHE.get(pids)
    if index is None:
        index = {pid: position for position, pid in enumerate(pids)}
        _UNPICKLE_INDEX_CACHE[pids] = index
    if lineage == _LINEAGE:
        network = Network._from_canonical(items)
        return GlobalState._derive(pairs, network, index, _locals_accumulator(pairs))
    return GlobalState(pairs, Network(items), index=index)


_MASK64 = (1 << 64) - 1


def combine_state_hash(locals_hash: int, network_hash: int) -> int:
    """Mix the locals accumulator and the network accumulator into one hash.

    A pure integer function (splitmix64-style finaliser over a weighted sum)
    rather than ``hash((locals_hash, network))``, so the packed fast-path
    engine (:mod:`repro.fastpath`) — which maintains both accumulators
    word-incrementally over interned ids — produces *bit-identical*
    fingerprints without ever materialising a state object.  The result is
    kept inside the signed 64-bit ``Py_hash_t`` range and never -1, so
    ``hash(state) == state.fingerprint()`` exactly.
    """
    z = (
        (locals_hash & _MASK64) * 0x9E3779B97F4A7C15
        + (network_hash & _MASK64) * 0xBF58476D1CE4E5B9
    ) & _MASK64
    z ^= z >> 30
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    if z >= 1 << 63:
        z -= 1 << 64
    return -2 if z == -1 else z


def _entry_hash(position: int, pid: str, local: Any) -> int:
    """Hash of one ``(position, pid, local state)`` entry of the vector.

    Tagging the position makes the XOR accumulator sensitive to entry order,
    so swapping the local states of two processes changes the hash.
    """
    return hash((position, pid, local))


def _locals_accumulator(pairs: Tuple[Tuple[str, Any], ...]) -> int:
    """XOR-combine the entry hashes of a full local-state vector."""
    accumulator = 0
    for position, (pid, local) in enumerate(pairs):
        accumulator ^= _entry_hash(position, pid, local)
    return accumulator


class GlobalState:
    """Immutable snapshot of all local states and the in-flight messages.

    Attributes:
        locals: Tuple of ``(process id, local state)`` pairs, in the fixed
            process order of the protocol.
        network: The multiset of in-flight messages.
    """

    __slots__ = ("_locals", "_network", "_index", "_lhash", "_hash")

    def __init__(
        self,
        locals_: Iterable[Tuple[str, Any]],
        network: Network,
        index: Optional[Mapping[str, int]] = None,
    ) -> None:
        pairs = tuple(locals_)
        if index is None:
            built: Dict[str, int] = {}
            for position, (pid, _) in enumerate(pairs):
                if pid in built:
                    raise MPError(f"duplicate process id in global state: {pid}")
                built[pid] = position
            index = built
        else:
            if len(index) != len(pairs):
                raise MPError(
                    f"process index covers {len(index)} processes, state has {len(pairs)}"
                )
            for position, (pid, _) in enumerate(pairs):
                if index.get(pid) != position:
                    raise MPError(
                        f"process index disagrees with state layout at {pid!r}"
                    )
        self._locals = pairs
        self._network = network
        self._index = index
        self._lhash = _locals_accumulator(pairs)
        self._hash = combine_state_hash(self._lhash, network._hash)

    @classmethod
    def _derive(
        cls,
        locals_: Tuple[Tuple[str, Any], ...],
        network: Network,
        index: Mapping[str, int],
        lhash: int,
    ) -> "GlobalState":
        """Fast construction path for functional updates.

        Trusts the caller's index and incrementally-maintained locals hash;
        only the cheap combination with the (cached) network hash is redone.
        """
        state = object.__new__(cls)
        state._locals = locals_
        state._network = network
        state._index = index
        state._lhash = lhash
        state._hash = combine_state_hash(lhash, network._hash)
        return state

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def locals(self) -> Tuple[Tuple[str, Any], ...]:
        """All ``(process id, local state)`` pairs in protocol order."""
        return self._locals

    @property
    def network(self) -> Network:
        """The multiset of in-flight messages."""
        return self._network

    @property
    def process_ids(self) -> Tuple[str, ...]:
        """Process identifiers in protocol order."""
        return tuple(pid for pid, _ in self._locals)

    def local(self, pid: str) -> Any:
        """Return the local state of process ``pid``.

        Raises:
            KeyError: If the process is unknown.
        """
        try:
            position = self._index[pid]
        except KeyError:
            raise KeyError(f"unknown process: {pid}") from None
        return self._locals[position][1]

    def locals_dict(self) -> Dict[str, Any]:
        """Return a fresh ``{process id: local state}`` dictionary."""
        return dict(self._locals)

    def fingerprint(self) -> int:
        """The cached state hash, exposed for fingerprint stores."""
        return self._hash

    # ------------------------------------------------------------------ #
    # Functional updates
    # ------------------------------------------------------------------ #
    def with_local(self, pid: str, local_state: Any) -> "GlobalState":
        """Return a copy of the state with the local state of ``pid`` replaced."""
        try:
            position = self._index[pid]
        except KeyError:
            raise KeyError(f"unknown process: {pid}") from None
        old_local = self._locals[position][1]
        if old_local == local_state:
            return self
        updated = list(self._locals)
        updated[position] = (pid, local_state)
        lhash = (
            self._lhash
            ^ _entry_hash(position, pid, old_local)
            ^ _entry_hash(position, pid, local_state)
        )
        return GlobalState._derive(tuple(updated), self._network, self._index, lhash)

    def with_network(self, network: Network) -> "GlobalState":
        """Return a copy of the state with the network replaced."""
        if network is self._network or network == self._network:
            return self
        return GlobalState._derive(self._locals, network, self._index, self._lhash)

    def with_updates(self, pid: str, local_state: Any, network: Network) -> "GlobalState":
        """Return a copy with both a new local state for ``pid`` and a new network."""
        try:
            position = self._index[pid]
        except KeyError:
            raise KeyError(f"unknown process: {pid}") from None
        old_local = self._locals[position][1]
        same_network = network is self._network or network == self._network
        if old_local == local_state:
            if same_network:
                return self
            return GlobalState._derive(self._locals, network, self._index, self._lhash)
        updated = list(self._locals)
        updated[position] = (pid, local_state)
        lhash = (
            self._lhash
            ^ _entry_hash(position, pid, old_local)
            ^ _entry_hash(position, pid, local_state)
        )
        target = self._network if same_network else network
        return GlobalState._derive(tuple(updated), target, self._index, lhash)

    # ------------------------------------------------------------------ #
    # Dunder plumbing
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, GlobalState):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return self._locals == other._locals and self._network == other._network

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        """Compact pickling: ship only the locals vector, the network's items
        and this process's lineage; the shared index and both cached hashes
        are process-local and rebuilt by :func:`_restore_state`.
        """
        return (_restore_state, (self._locals, self._network._items, _LINEAGE))

    def __repr__(self) -> str:
        parts = ", ".join(f"{pid}={local!r}" for pid, local in self._locals)
        return f"GlobalState({parts}; {self._network!r})"

    def describe(self) -> str:
        """Return a multi-line human-readable rendering, used in counterexamples."""
        lines = ["state:"]
        for pid, local in self._locals:
            lines.append(f"  {pid}: {local!r}")
        if self._network:
            lines.append("  in flight:")
            for message, count in self._network.items:
                suffix = f" x{count}" if count > 1 else ""
                lines.append(f"    {message.describe()}{suffix}")
        else:
            lines.append("  in flight: (none)")
        return "\n".join(lines)


class StateInterner:
    """Hash-consing table mapping each distinct global state to one object.

    Searches that revisit states along many interleavings (stateless DPOR in
    particular) funnel every successor through :meth:`intern`; afterwards
    equal states are the *same* object, dictionary lookups keyed on states
    hit the ``is`` fast path, and per-state caches never store duplicates.
    """

    __slots__ = ("_table", "hits", "misses")

    def __init__(self) -> None:
        self._table: Dict[GlobalState, GlobalState] = {}
        self.hits = 0
        self.misses = 0

    def intern(self, state: GlobalState) -> GlobalState:
        """Return the canonical object for ``state`` (registering it if new)."""
        canonical = self._table.get(state)
        if canonical is not None:
            self.hits += 1
            return canonical
        self._table[state] = state
        self.misses += 1
        return state

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, state: GlobalState) -> bool:
        return state in self._table
