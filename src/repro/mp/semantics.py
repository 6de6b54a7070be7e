"""Operational semantics of MP protocols.

This module implements the two primitives every search strategy builds on:

* :func:`enabled_executions` — compute all pairs ``(t, X)`` such that
  transition ``t`` is enabled in the given state for message set ``X``
  (MP-Basset's "enabled set of messages" computation, Section IV-A);
* :func:`apply_execution` — compute the successor state ``s'`` of
  ``s --t(X)--> s'``.

Enabled-set computation is the price paid for quorum transitions: for an
exact quorum of size ``q`` the candidate message sets are the size-``q``
sender combinations of the pending messages.  The enumeration below prunes
by transition (message type, effective sender set, quorum peers) before
forming combinations, which keeps the cost manageable in practice.

:class:`SuccessorEngine` layers state interning plus enabled-set and
successor caches over these primitives; all search strategies go through it
so that revisiting a state along a different interleaving costs a couple of
dictionary lookups instead of a full semantics recomputation.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Tuple

from .channel import Network
from .errors import TransitionExecutionError
from .message import Message
from .protocol import Protocol
from .state import GlobalState, StateInterner
from .transition import ActionContext, Execution, QuorumKind, TransitionSpec


def _candidate_messages(pending: Iterable[Message], transition: TransitionSpec) -> Tuple[Message, ...]:
    """Those of the messages pending for the transition's ``(process,
    message type)`` it could consume, in deterministic order: ``pending`` is
    a subsequence of the canonical ``Network.items``, which is already in
    ``Message.sort_key`` order, so filtering keeps it sorted."""
    senders = transition.effective_senders()
    if senders is not None:
        return tuple([message for message in pending if message.sender in senders])
    return tuple(pending)


def _single_message_executions(
    state: GlobalState, transition: TransitionSpec, candidates: Tuple[Message, ...]
) -> List[Execution]:
    local = state.local(transition.process_id)
    executions = []
    for message in candidates:
        messages = (message,)
        if transition.guard(local, messages):
            executions.append(Execution(transition, messages))
    return executions


def _exact_quorum_executions(
    state: GlobalState, transition: TransitionSpec, candidates: Tuple[Message, ...]
) -> List[Execution]:
    local = state.local(transition.process_id)
    size = transition.quorum.size
    executions: List[Execution] = []

    if transition.quorum.distinct_senders:
        by_sender: Dict[str, List[Message]] = {}
        for message in candidates:
            by_sender.setdefault(message.sender, []).append(message)
        available = sorted(by_sender)
        if len(available) < size:
            return executions
        if transition.quorum_peers is not None:
            required = sorted(transition.quorum_peers)
            if any(sender not in by_sender for sender in required):
                return executions
            sender_combos: Iterable[Tuple[str, ...]] = [tuple(required)]
        else:
            sender_combos = itertools.combinations(available, size)
        for combo in sender_combos:
            choices_per_sender = [by_sender[sender] for sender in combo]
            for choice in itertools.product(*choices_per_sender):
                messages = tuple(sorted(choice, key=Message.sort_key))
                if transition.guard(local, messages):
                    executions.append(Execution(transition, messages))
    else:
        seen = set()
        for combo in itertools.combinations(range(len(candidates)), size):
            messages = tuple(sorted((candidates[i] for i in combo), key=Message.sort_key))
            if messages in seen:
                continue
            seen.add(messages)
            if transition.guard(local, messages):
                executions.append(Execution(transition, messages))
    return executions


def _enabled_among(
    state: GlobalState, transition: TransitionSpec, pending: Iterable[Message]
) -> List[Execution]:
    """The transition's enabled executions, given the messages pending for
    its ``(process, message type)``."""
    candidates = _candidate_messages(pending, transition)
    if not candidates:
        return []
    if transition.quorum.kind is QuorumKind.SINGLE:
        return _single_message_executions(state, transition, candidates)
    if len(candidates) < transition.quorum.size:
        return []
    return _exact_quorum_executions(state, transition, candidates)


def enabled_executions_for(
    state: GlobalState, transition: TransitionSpec
) -> Tuple[Execution, ...]:
    """Return all enabled executions of a single transition in ``state``."""
    pending = state.network.pending_for(transition.process_id, mtype=transition.message_type)
    return tuple(_enabled_among(state, transition, pending))


def enabled_executions(
    state: GlobalState,
    protocol: Protocol,
    transitions: Optional[Iterable[TransitionSpec]] = None,
) -> Tuple[Execution, ...]:
    """Return all enabled executions in ``state``.

    Args:
        state: The global state to inspect.
        protocol: The protocol (supplies the transition set by default).
        transitions: Optional subset of transitions to restrict to; used by
            the partial-order reduction to expand stubborn sets lazily.
    """
    specs = protocol.transitions if transitions is None else transitions
    # One network scan for all transitions: ``pending_for`` by (recipient, mtype).
    buckets: Dict[Tuple[str, str], List[Message]] = {}
    for message, _count in state.network.items:
        buckets.setdefault((message.recipient, message.mtype), []).append(message)
    result: List[Execution] = []
    for transition in specs:
        pending = buckets.get((transition.process_id, transition.message_type))
        if pending:
            result.extend(_enabled_among(state, transition, pending))
    return tuple(result)


def is_enabled(state: GlobalState, transition: TransitionSpec) -> bool:
    """True if ``transition`` has at least one enabled execution in ``state``."""
    return bool(enabled_executions_for(state, transition))


def apply_execution(state: GlobalState, execution: Execution) -> GlobalState:
    """Compute the successor state of ``state`` under ``execution``.

    The consumed messages are removed from the network, the executing
    process's local state is replaced by the action's return value, and the
    action's queued sends are added to the network (Section II-A, items
    (1)-(3) of the transition relation definition).
    """
    transition = execution.transition
    pid = transition.process_id
    local = state.local(pid)
    context = ActionContext(
        process_id=pid,
        spec_view=state.locals_dict(),
        spec_reads=transition.annotation.spec_reads,
    )
    new_local = transition.action(local, execution.messages, context)
    if new_local is None:
        new_local = local
    try:
        hash(new_local)
    except TypeError as exc:
        raise TransitionExecutionError(
            f"transition {transition.name} produced an unhashable local state"
        ) from exc
    network = state.network.remove_all(execution.messages).add_all(context.outbox)
    return state.with_updates(pid, new_local, network)


class SuccessorEngine:
    """Interned-state successor engine shared by all search strategies.

    The engine wraps the two stateless primitives above with three layers
    that exploit how searches actually use them:

    * every state handed out is *interned* (:class:`StateInterner`), so a
      state reached along two interleavings is one object and all caches
      below are keyed by states whose hash is already computed and whose
      equality check starts with an identity test;
    * enabled-execution sets are cached per interned state — the quorum
      combination enumeration is the single most expensive step of the
      semantics, and stateless searches (DPOR in particular) recompute it
      for the same state along every interleaving that reaches it;
    * successor states are cached per ``(state, execution)`` edge, so
      re-executing a transition out of a revisited state is a lookup.

    The engine is purely an optimisation: it never changes which executions
    are enabled, their order, or the successor states, so search statistics
    (the paper's Table I/II state counts) are identical with and without it.

    The layers retain references to every state they see, which is exactly
    right for stateless search (states are revisited constantly and the
    reachable set bounds the tables) but would defeat the memory model of a
    stateful search over a fingerprint store.  ``caching=False`` turns all
    three layers off at once — a pass-through engine — and :func:`for_search`
    picks it for stateful searches, which keep their per-frame memoisation
    instead.
    """

    __slots__ = (
        "protocol",
        "caching",
        "interner",
        "_enabled_cache",
        "_successor_cache",
        "enabled_hits",
        "enabled_misses",
        "successor_hits",
        "successor_misses",
    )

    def __init__(self, protocol: Protocol, caching: bool = True) -> None:
        self.protocol = protocol
        self.caching = caching
        self.interner = StateInterner() if caching else None
        self._enabled_cache: Dict[GlobalState, Tuple[Execution, ...]] = {}
        self._successor_cache: Dict[GlobalState, Dict[Execution, GlobalState]] = {}
        self.enabled_hits = 0
        self.enabled_misses = 0
        self.successor_hits = 0
        self.successor_misses = 0

    @classmethod
    def for_search(cls, protocol: Protocol, stateful: bool) -> "SuccessorEngine":
        """Engine configured for a search's memory model.

        Stateful searches expand each state exactly once and already retain
        states in their store (or deliberately only fingerprints), so they
        get the pass-through engine; stateless searches revisit states along
        every interleaving and get the caching one.
        """
        return cls(protocol, caching=not stateful)

    def intern(self, state: GlobalState) -> GlobalState:
        """Return the canonical interned object for ``state``."""
        if self.interner is None:
            return state
        return self.interner.intern(state)

    def initial_state(self) -> GlobalState:
        """The protocol's initial state, interned."""
        return self.intern(self.protocol.initial_state())

    def enabled(self, state: GlobalState) -> Tuple[Execution, ...]:
        """All enabled executions in ``state``, cached per interned state."""
        if not self.caching:
            return enabled_executions(state, self.protocol)
        cached = self._enabled_cache.get(state)
        if cached is not None:
            self.enabled_hits += 1
            return cached
        computed = enabled_executions(state, self.protocol)
        self._enabled_cache[state] = computed
        self.enabled_misses += 1
        return computed

    def successor(self, state: GlobalState, execution: Execution) -> GlobalState:
        """The interned successor of ``state`` under ``execution``."""
        if not self.caching:
            return apply_execution(state, execution)
        per_state = self._successor_cache.get(state)
        if per_state is None:
            per_state = {}
            self._successor_cache[state] = per_state
        cached = per_state.get(execution)
        if cached is not None:
            self.successor_hits += 1
            return cached
        computed = self.interner.intern(apply_execution(state, execution))
        per_state[execution] = computed
        self.successor_misses += 1
        return computed

    def cache_sizes(self) -> Dict[str, int]:
        """Sizes of the interner and both caches, for diagnostics and tests."""
        return {
            "interned_states": len(self.interner) if self.interner is not None else 0,
            "enabled_sets": len(self._enabled_cache),
            "successor_edges": sum(len(edges) for edges in self._successor_cache.values()),
        }


def successors(
    state: GlobalState, protocol: Protocol
) -> Tuple[Tuple[Execution, GlobalState], ...]:
    """Return all ``(execution, successor state)`` pairs from ``state``."""
    return tuple(
        (execution, apply_execution(state, execution))
        for execution in enabled_executions(state, protocol)
    )


def state_graph_edges(
    protocol: Protocol,
    max_states: Optional[int] = None,
    engine: Optional[SuccessorEngine] = None,
) -> Tuple[frozenset, frozenset]:
    """Enumerate the full state graph of a protocol.

    Returns a pair ``(states, edges)`` where ``edges`` is a frozenset of
    ``(state, successor state)`` pairs — the relation Δ of the Kripke
    structure.  Used by the refinement validator (Theorem 2) and by tests;
    not intended for large instances.

    Args:
        protocol: The protocol to explore.
        max_states: Safety bound; exploration raises if exceeded.
        engine: Optional successor engine.  A caching engine shared across
            repeated enumerations of the same protocol (the refinement
            validator checks one protocol against several refinements) turns
            every enumeration after the first into cache lookups.

    Raises:
        RuntimeError: If ``max_states`` is exceeded.
    """
    if engine is not None and engine.protocol is not protocol:
        raise ValueError("successor engine was built for a different protocol")
    if engine is None:
        initial = protocol.initial_state()

        def expand(state: GlobalState) -> Iterable[Tuple[Execution, GlobalState]]:
            return successors(state, protocol)

    else:
        initial = engine.initial_state()

        def expand(state: GlobalState) -> Iterable[Tuple[Execution, GlobalState]]:
            return (
                (execution, engine.successor(state, execution))
                for execution in engine.enabled(state)
            )

    visited = {initial}
    edges = set()
    frontier = [initial]
    while frontier:
        state = frontier.pop()
        for _, successor in expand(state):
            edges.add((state, successor))
            if successor not in visited:
                visited.add(successor)
                if max_states is not None and len(visited) > max_states:
                    raise RuntimeError(
                        f"state graph exceeds max_states={max_states} for {protocol.name}"
                    )
                frontier.append(successor)
    return frozenset(visited), frozenset(edges)
