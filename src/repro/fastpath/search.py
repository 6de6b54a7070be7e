"""The packed side of the ``StateGraph`` seam, and its serial entry points.

No search loop lives here: :func:`fast_dfs_search`, :func:`fast_bfs_search`
and :func:`fast_ndfs_search` build a
:class:`~repro.checker.stategraph.PackedGraph` and run the one loop of
:mod:`repro.checker.search` over it, configured by the same
:class:`~repro.engine.plan.CheckPlan` — same statistics, budget handling,
observer events, counterexamples and checkpoints as over object states, by
construction.  What this module holds is what that graph is made of, the
two places where object-graph states are materialised (a stubborn-set
reduction adds none), both off the hot path:

* **property evaluation misses** (:func:`make_invariant_checker`) —
  verdicts of properties declared ``network_sensitive=False`` (all bundled
  ones) are memoised per local-state word vector, which is tiny compared to
  the state count; a network-sensitive property is evaluated per state via
  ``decode`` and stays correct, just slower;
* **counterexamples** — only the violating path is decoded (by the loop,
  through ``graph.decode``).

Store semantics (:class:`_PackedStore`) match the object engine's:
``"full"`` deduplicates exact packed words (interning is injective, so word
equality is state equality), the fingerprint kinds deduplicate the packed
fingerprint, which is bit-identical to ``GlobalState.fingerprint()``.
"""

from __future__ import annotations

from typing import Callable, Optional, Set, Tuple

from ..checker.property import Invariant
from ..checker.search import SearchOutcome, run_bfs, run_dfs, run_ndfs
from ..checker.stategraph import PackedGraph, Reducer
from ..checker.statestore import ShardedFingerprintStore
from ..engine.events import Observer
from ..engine.plan import CheckPlan
from ..mp.protocol import Protocol
from ..mp.state import GlobalState
from .compiler import FastSuccessorEngine, PackedState


class _PackedStore:
    """Visited-set over packed states with the serial stores' semantics."""

    __slots__ = ("kind", "_words", "_fingerprints", "_sharded")

    def __init__(self, kind: str, shards: int) -> None:
        self.kind = kind
        self._words: Set[Tuple[int, ...]] = set()
        self._fingerprints: Set[int] = set()
        self._sharded: Optional[ShardedFingerprintStore] = None
        if kind == "sharded-fingerprint":
            self._sharded = ShardedFingerprintStore(num_shards=shards)
        elif kind not in ("full", "fingerprint"):
            raise ValueError(f"unknown packed store kind: {kind!r}")

    def add(self, packed: PackedState) -> bool:
        if self.kind == "full":
            words = packed[0]
            if words in self._words:
                return False
            self._words.add(words)
            return True
        if self._sharded is not None:
            return self._sharded.add_fingerprint(packed[3])
        fingerprint = packed[3]
        if fingerprint in self._fingerprints:
            return False
        self._fingerprints.add(fingerprint)
        return True

    def __len__(self) -> int:
        if self.kind == "full":
            return len(self._words)
        if self._sharded is not None:
            return len(self._sharded)
        return len(self._fingerprints)

    def shard_sizes(self):
        """Per-shard occupancy when sharded, else None (duck-typed to match
        :meth:`ShardedFingerprintStore.shard_sizes` for telemetry)."""
        if self._sharded is not None:
            return self._sharded.shard_sizes()
        return None


def _memoised_predicate(
    engine: FastSuccessorEngine,
    evaluate: Callable[[GlobalState], bool],
    network_sensitive: bool,
    capacity: Optional[int] = None,
) -> Callable[[PackedState], bool]:
    """Packed evaluation of a state predicate, memoised per locals vector
    when sound (``network_sensitive=False``), optionally LRU-bounded."""
    if network_sensitive:
        def check_sensitive(packed: PackedState) -> bool:
            return bool(evaluate(engine.decode(packed)))

        return check_sensitive

    if capacity is not None and capacity < 1:
        raise ValueError("memo capacity must be at least 1 (or None)")
    count = engine.num_processes
    from collections import OrderedDict

    memo: "OrderedDict[Tuple[int, ...], bool]" = OrderedDict()

    def check(packed: PackedState) -> bool:
        key = packed[0][:count]
        verdict = memo.get(key)
        if verdict is None:
            verdict = bool(evaluate(engine.decode(packed)))
            memo[key] = verdict
            if capacity is not None and len(memo) > capacity:
                memo.popitem(last=False)
        elif capacity is not None:
            memo.move_to_end(key)
        return verdict

    return check


def make_invariant_checker(
    engine: FastSuccessorEngine, invariant: Invariant, protocol: Protocol,
    capacity: Optional[int] = None,
) -> Callable[[PackedState], bool]:
    """Packed invariant evaluation, memoised per locals vector when sound.

    Invariants declaring ``network_sensitive=False`` read process states
    only, so their verdict is a pure function of the locals word prefix —
    the memo turns per-state evaluation into one dict lookup.  Sensitive
    (or undeclared, the safe default) invariants decode every state.
    ``capacity`` LRU-bounds the memo (``None`` keeps it unbounded).  Works
    for any property exposing ``holds_in``/``network_sensitive`` — liveness
    goals (:class:`~repro.checker.property.Eventually`) reuse it.
    """
    return _memoised_predicate(
        engine,
        lambda state: invariant.holds_in(state, protocol),
        getattr(invariant, "network_sensitive", True),
        capacity,
    )


def fast_dfs_search(
    protocol: Protocol,
    invariant: Invariant,
    config: Optional[CheckPlan] = None,
    reducer: Optional[Reducer] = None,
    observer: Optional[Observer] = None,
    engine: Optional[FastSuccessorEngine] = None,
    telemetry=None,
) -> SearchOutcome:
    """``dfs_search`` over the packed graph, whatever ``config.successors`` says."""
    config = config or CheckPlan()
    graph = PackedGraph(protocol, engine, config.fastpath_memo_capacity, telemetry)
    return run_dfs(graph, invariant, config, reducer, observer, telemetry)


def fast_bfs_search(
    protocol: Protocol,
    invariant: Invariant,
    config: Optional[CheckPlan] = None,
    observer: Optional[Observer] = None,
    engine: Optional[FastSuccessorEngine] = None,
    telemetry=None,
) -> SearchOutcome:
    """``bfs_search`` over the packed graph, whatever ``config.successors`` says."""
    config = config or CheckPlan()
    graph = PackedGraph(protocol, engine, config.fastpath_memo_capacity, telemetry)
    return run_bfs(graph, invariant, config, observer, telemetry)


def fast_ndfs_search(
    protocol: Protocol,
    prop,
    config: Optional[CheckPlan] = None,
    observer: Optional[Observer] = None,
    engine: Optional[FastSuccessorEngine] = None,
    telemetry=None,
) -> SearchOutcome:
    """``ndfs_search`` over the packed graph, whatever ``config.successors`` says."""
    config = config or CheckPlan()
    graph = PackedGraph(protocol, engine, config.fastpath_memo_capacity, telemetry)
    return run_ndfs(graph, prop, config, observer, telemetry)
