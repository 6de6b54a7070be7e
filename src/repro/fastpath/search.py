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

The store is the object graph's too
(:meth:`~repro.checker.stategraph.StateGraph.make_store`): ``"full"`` keys
by the exact packed words (interning is injective, so word equality is
state equality), the fingerprint kinds by the packed fingerprint, which is
bit-identical to ``GlobalState.fingerprint()``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..checker.property import Invariant
from ..checker.search import SearchOutcome, run_bfs, run_dfs, run_ndfs
from ..checker.stategraph import PackedGraph, Reducer
from ..engine.events import Observer
from ..engine.plan import CheckPlan
from ..mp.protocol import Protocol
from ..mp.state import GlobalState
from .compiler import FastSuccessorEngine, PackedState


def _memoised_predicate(
    engine: FastSuccessorEngine,
    evaluate: Callable[[GlobalState], bool],
    network_sensitive: bool,
) -> Callable[[PackedState], bool]:
    """Packed evaluation of a state predicate, memoised per locals vector
    when sound (``network_sensitive=False``)."""
    if network_sensitive:
        def check_sensitive(packed: PackedState) -> bool:
            return bool(evaluate(engine.decode(packed)))

        return check_sensitive

    count = engine.num_processes
    memo: Dict[Tuple[int, ...], bool] = {}

    def check(packed: PackedState) -> bool:
        key = packed[0][:count]
        verdict = memo.get(key)
        if verdict is None:
            verdict = bool(evaluate(engine.decode(packed)))
            memo[key] = verdict
        return verdict

    return check


def make_invariant_checker(
    engine: FastSuccessorEngine, invariant: Invariant, protocol: Protocol,
) -> Callable[[PackedState], bool]:
    """Packed invariant evaluation, memoised per locals vector when sound.

    Invariants declaring ``network_sensitive=False`` read process states
    only, so their verdict is a pure function of the locals word prefix —
    the memo turns per-state evaluation into one dict lookup.  Sensitive
    (or undeclared, the safe default) invariants decode every state.  Works
    for any property exposing ``holds_in``/``network_sensitive`` — liveness
    goals (:class:`~repro.checker.property.Eventually`) reuse it.
    """
    return _memoised_predicate(
        engine,
        lambda state: invariant.holds_in(state, protocol),
        getattr(invariant, "network_sensitive", True),
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
    graph = PackedGraph(protocol, engine, telemetry)
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
    graph = PackedGraph(protocol, engine, telemetry)
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
    graph = PackedGraph(protocol, engine, telemetry)
    return run_ndfs(graph, prop, config, observer, telemetry)
