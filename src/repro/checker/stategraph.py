"""The ``StateGraph`` seam between the search loops and a state representation.

The paper's checker is *one* stateful DFS that stays the same while the
transition semantics and the reduction vary underneath it.  This module is
that boundary: a :class:`StateGraph` answers everything a search loop asks
of a state — what is enabled, where an execution leads, what identifies the
state, whether a property holds in it, how it reads as an object-graph
:class:`~repro.mp.state.GlobalState` — and the loops in
:mod:`repro.checker.search` (and the walker in :mod:`repro.swarm.search`)
are written once over it.

Two graphs ship:

* :class:`ObjectGraph` over the interned-object
  :class:`~repro.mp.semantics.SuccessorEngine` — states *are*
  ``GlobalState`` objects, so ``decode`` / ``encode`` / ``execution_of`` /
  ``exact_key`` are the identity;
* :class:`PackedGraph` over the table-compiled
  :class:`~repro.fastpath.compiler.FastSuccessorEngine` — states are packed
  word tuples, materialised as objects only for property-memo misses and
  counterexamples.

Both produce enabled executions in the same deterministic order, so an
execution-index path (:func:`replay_path`) and a checkpoint mean the same
thing on either.  The hot members (``enabled``, ``successor``, ``exact_key``,
``fingerprint``) are plain attributes holding the engine's own bound methods
or C-level item getters: a loop that binds them to locals pays no extra
Python call per transition for going through the seam.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

from ..engine.events import maybe_span
from ..engine.plan import CheckPlan
from ..mp.protocol import Protocol
from ..mp.semantics import SuccessorEngine
from ..mp.state import GlobalState
from ..mp.transition import Execution
from .counterexample import Counterexample, Step
from .statestore import make_state_store


@dataclass
class ReductionContext:
    """Information a reducer may use when choosing the explored subset.

    States and executions are *graph-native* — objects over an
    :class:`ObjectGraph`, packed tuples over a :class:`PackedGraph` — and
    the reducer returns a subset of ``enabled`` in that same form.  A
    reducer that wants objects pays for them itself:
    ``context.graph.decode(context.state)``,
    ``context.graph.execution_of(execution)``.

    Attributes:
        state: The state being expanded.
        enabled: All enabled executions in ``state``.
        protocol: The protocol under verification.
        successor: Function computing the successor of an execution; the
            results are kept in the expanding frame's memo, so the search
            does not recompute them.
        on_stack: True for states currently on the DFS stack; used for the
            cycle (stack) proviso.
        engine: The successor engine driving the search.
        graph: The graph ``state`` and ``enabled`` belong to; a context
            built without one is an object-state context.
    """

    state: object
    enabled: Tuple
    protocol: Protocol
    successor: Callable
    on_stack: Callable[[object], bool]
    engine: object = None
    graph: Optional["StateGraph"] = None


#: A reducer maps a reduction context to the subset of executions to explore.
Reducer = Callable[[ReductionContext], Tuple]


def _identity(value):
    return value


class StateGraph:
    """What a search loop needs from one state representation.

    Attributes (bind them to locals in a hot loop):
        protocol: The protocol under verification.
        engine: The successor engine underneath.
        initial: The initial state, in this graph's representation.
        enabled: ``state -> tuple of executions``, deterministic order.
        successor: ``(state, execution) -> state``.
        exact_key: ``state -> hashable`` identifying the state exactly
            (stack membership, exact stores, parent maps).
        fingerprint: ``state -> int``; equal across graphs for equal states.
        decode / encode: To and from the object-graph ``GlobalState``.
        execution_of: This graph's execution as an object-graph
            :class:`~repro.mp.transition.Execution`.
        transition_index: ``execution -> int``, the position of its
            transition in ``protocol.transitions``.
        pending_senders: ``(state, transition index) -> int``, the senders
            (a bitmask over ``protocol.sender_index`` positions) of the
            pending messages that transition could consume.
    """

    protocol: Protocol

    def predicate(self, evaluate: Callable[[GlobalState], object],
                  network_sensitive: bool = True) -> Callable[[object], object]:
        """Lift an object-state predicate onto this graph's states.

        ``network_sensitive=False`` promises ``evaluate`` reads process
        states only, which lets a graph memoise verdicts per locals vector.
        """
        raise NotImplementedError

    def invariant_checker(self, prop) -> Callable[[object], object]:
        """``state -> prop.holds_in(state, protocol)`` over this graph."""
        protocol = self.protocol
        return self.predicate(
            lambda state: prop.holds_in(state, protocol),
            getattr(prop, "network_sensitive", True),
        )

    def make_store(self, kind: str):
        """A visited-state store (``add`` / ``len``) over this graph's states."""
        raise NotImplementedError

    def make_reduce(self, reducer: Reducer, on_stack: set,
                    by_fingerprint: bool = False):
        """Adapt a reducer to the loops' ``reduce(state, enabled, memo)``.

        ``on_stack`` is the loop's live set of ``exact_key`` values on the
        DFS stack (the cycle proviso's input) — or, ``by_fingerprint``, of
        fingerprints: the form a work-stealing worker can keep, its stack
        being its own frames plus the stolen frame's ancestor
        fingerprints.  ``memo`` is the expanding frame's execution ->
        successor dict, filled with whatever the reducer computes so the
        loop does not recompute it.
        """
        protocol, engine, successor_of = self.protocol, self.engine, self.successor
        identify = self.fingerprint if by_fingerprint else self.exact_key

        def is_on_stack(state) -> bool:
            return identify(state) in on_stack

        def reduce(state, enabled, memo):
            def successor(execution):
                cached = memo.get(execution)
                if cached is None:
                    cached = memo[execution] = successor_of(state, execution)
                return cached

            return reducer(ReductionContext(
                state=state, enabled=enabled, protocol=protocol,
                successor=successor, on_stack=is_on_stack, engine=engine,
                graph=self,
            ))

        return reduce

    def share(self) -> None:
        """Make graph-native states valid in every process forked from here
        on; a parallel loop calls it before forking.  States that pickle by
        value (the object graph's) need nothing."""

    def sync(self) -> None:
        """Catch up with the sharing processes; a parallel loop calls it
        before touching graph-native states that came from another one."""

    def record(self, telemetry) -> None:
        """Record engine-specific end-of-run metrics (default: none)."""


class ObjectGraph(StateGraph):
    """The graph of interned ``GlobalState`` objects.

    ``stateful`` picks the engine's memory model the way
    :meth:`SuccessorEngine.for_search` does: a stateful search expands each
    state once and gets a pass-through engine, a stateless search (or a
    random walker) revisits constantly and gets the caching one.
    """

    decode = encode = execution_of = exact_key = staticmethod(_identity)
    fingerprint = staticmethod(GlobalState.fingerprint)
    make_store = staticmethod(make_state_store)

    def __init__(self, protocol: Protocol, engine: Optional[SuccessorEngine] = None,
                 stateful: bool = True) -> None:
        if engine is not None and engine.protocol is not protocol:
            raise ValueError("successor engine was built for a different protocol")
        self.protocol = protocol
        self.engine = engine or SuccessorEngine.for_search(protocol, stateful)
        self.initial = self.engine.initial_state()
        self.enabled = self.engine.enabled
        self.successor = self.engine.successor
        self._index_of = {t.name: index for index, t in enumerate(protocol.transitions)}

    def predicate(self, evaluate, network_sensitive=True):
        return evaluate

    def transition_index(self, execution: Execution) -> int:
        return self._index_of[execution.transition.name]

    def pending_senders(self, state: GlobalState, index: int) -> int:
        transition = self.protocol.transitions[index]
        senders = transition.effective_senders()
        sender_index = self.protocol.sender_index
        mask = 0
        for message in state.network.pending_for(
                transition.process_id, mtype=transition.message_type):
            if senders is None or message.sender in senders:
                mask |= 1 << sender_index[message.sender]
        return mask


class PackedGraph(StateGraph):
    """The graph of packed word tuples (:mod:`repro.fastpath`).

    Compiles the protocol under a ``compile`` span unless handed a
    ``FastSuccessorEngine``.
    """

    exact_key = transition_index = itemgetter(0)
    fingerprint = itemgetter(3)

    def __init__(self, protocol: Protocol, engine=None, telemetry=None) -> None:
        # Imported lazily: repro.fastpath builds on the checker package.
        from ..fastpath.compiler import FastSuccessorEngine

        if engine is None:
            with maybe_span(telemetry, "compile", protocol=protocol.name):
                engine = FastSuccessorEngine(protocol)
        elif not isinstance(engine, FastSuccessorEngine):
            raise ValueError(
                "the packed graph runs over a FastSuccessorEngine (or "
                f"compiles its own); got {type(engine).__name__}"
            )
        elif engine.protocol is not protocol:
            raise ValueError("fast successor engine was built for a different protocol")
        self.protocol = protocol
        self.engine = engine
        self.initial = engine.initial_packed()
        self.enabled = engine.enabled_packed
        self.successor = engine.successor_packed
        self.decode = engine.decode
        self.encode = engine.encode
        self.execution_of = engine.execution_of
        self.pending_senders = engine.pending_senders
        self.share = engine.share
        self.sync = engine.sync

    def predicate(self, evaluate, network_sensitive=True):
        from ..fastpath.search import _memoised_predicate

        return _memoised_predicate(self.engine, evaluate, network_sensitive)

    def make_store(self, kind):
        from ..fastpath.search import _PackedStore

        return _PackedStore(kind)

    def record(self, telemetry) -> None:
        telemetry.record_fastpath(self.engine)


def make_graph(protocol: Protocol, config: CheckPlan, engine=None, telemetry=None,
               stateful: bool = True) -> StateGraph:
    """The graph the plan's ``successors`` axis names, over ``engine`` if given."""
    if config.successors == "fast":
        return PackedGraph(protocol, engine, telemetry)
    return ObjectGraph(protocol, engine, stateful)


def replay_path(graph: StateGraph, path: Sequence[int],
                property_name: str) -> Counterexample:
    """Rebuild a counterexample from an execution-index path.

    Every enabled set is recomputed in the graph's deterministic order —
    the rebuild currency of the parallel engines, the random walkers and
    the checkpoints — so nothing unpicklable ever has to be stored or
    shipped, and a path that does not reproduce fails loudly here.
    """
    cursor = graph.initial
    steps: List[Step] = []
    for index in path:
        execution = graph.enabled(cursor)[index]
        cursor = graph.successor(cursor, execution)
        steps.append(Step(execution=graph.execution_of(execution),
                          state=graph.decode(cursor)))
    return Counterexample(initial_state=graph.decode(graph.initial),
                          steps=tuple(steps), property_name=property_name)
