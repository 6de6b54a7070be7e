"""Properties checked by the model checker.

The paper's evaluation checks invariants (state-local predicates that must
hold in every reachable state); MP-Basset expresses them as Java assertions
inside transitions.  We instead express an invariant as a predicate over the
global state, which is both simpler and strictly more general: the predicate
may inspect every process's local state and the in-flight messages.

Partial-order reduction preserves an invariant only if the transitions that
can change its truth value are flagged ``visible`` in their
:class:`~repro.mp.transition.LporAnnotation` (Appendix I, property
preservation of the SPOR algorithm); the bundled protocol models do so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Tuple

from ..mp.protocol import Protocol
from ..mp.state import GlobalState

#: Predicate signature for invariants.
PredicateFn = Callable[[GlobalState, Protocol], bool]


@dataclass(frozen=True)
class Invariant:
    """A state-local predicate that must hold in every reachable state.

    Attributes:
        name: Human-readable property name (e.g. ``"consensus"``).
        predicate: Returns True when the state satisfies the property.
        description: Optional longer explanation, used in reports.
        network_sensitive: Whether the predicate reads ``state.network``.
            The packed fast-path engines (:mod:`repro.fastpath`) memoise
            invariant verdicts per local-state vector, which is only sound
            when the verdict ignores the in-flight messages; declaring
            ``network_sensitive=False`` opts a predicate into that memo.
            The conservative default keeps arbitrary predicates correct
            (every bundled invariant reads locals only and declares False).
    """

    name: str
    predicate: PredicateFn
    description: str = ""
    network_sensitive: bool = True

    def holds_in(self, state: GlobalState, protocol: Protocol) -> bool:
        """Evaluate the invariant in one state."""
        return bool(self.predicate(state, protocol))

    def negated(self, name: str = "") -> "Invariant":
        """Return the negated invariant (useful for reachability queries)."""
        return Invariant(
            name=name or f"not({self.name})",
            predicate=lambda state, protocol: not self.predicate(state, protocol),
            description=f"negation of: {self.description or self.name}",
            network_sensitive=self.network_sensitive,
        )


@dataclass(frozen=True)
class Eventually:
    """A liveness goal: every maximal run must eventually satisfy ``predicate``.

    A counterexample is a *lasso* — a finite stem followed by a cycle (or a
    terminal state, interpreted under stutter-extension semantics as an
    infinite self-loop) along which the goal predicate never holds.  The
    nested DFS (:func:`repro.checker.search.ndfs_search`, over object or
    packed states) searches for exactly those accepting cycles.

    Attributes:
        name: Human-readable property name (e.g. ``"eventually-done"``).
        predicate: The *goal* predicate; a run satisfies the property once it
            reaches a state where this returns True.
        description: Optional longer explanation, used in reports.
        network_sensitive: Whether the predicate reads ``state.network``;
            same memoisation contract as :class:`Invariant`.

    The monitor-automaton view: the negation ``◇p`` is a one-state Büchi
    automaton accepting runs on which ``p`` never holds.  States satisfying
    the goal kill the monitor (their subtrees need no exploration —
    :meth:`prunes`), and every surviving state is accepting
    (:meth:`accepting`).  The two hooks are split so generic acceptance
    predicates (where only *some* non-goal states are accepting) can reuse
    the same nested-DFS machinery.
    """

    name: str
    predicate: PredicateFn
    description: str = ""
    network_sensitive: bool = True

    def holds_in(self, state: GlobalState, protocol: Protocol) -> bool:
        """Whether the goal predicate holds in one state.

        Shares the :class:`Invariant` evaluation signature so the fast-path
        verdict memo (:func:`repro.fastpath.search.make_invariant_checker`)
        works unchanged for liveness goals.
        """
        return bool(self.predicate(state, protocol))

    def prunes(self, state: GlobalState, protocol: Protocol) -> bool:
        """Whether the monitor dies in ``state`` (goal reached; subtree moot)."""
        return self.holds_in(state, protocol)

    def accepting(self, state: GlobalState, protocol: Protocol) -> bool:
        """Whether ``state`` is accepting (goal not yet reached).

        For ``Eventually`` this is simply the complement of :meth:`prunes`;
        duck-typed properties may declare a strict subset of non-pruned
        states accepting, which is what exercises the red phase of the
        nested DFS.
        """
        return not self.holds_in(state, protocol)


def goal_of(prop: object) -> str:
    """Return the :class:`~repro.engine.plan.CheckPlan` goal axis value
    matching a property object: ``"liveness"`` for acceptance-cycle
    properties (anything exposing ``prunes``/``accepting`` hooks, i.e.
    :class:`Eventually` and duck-typed equivalents), ``"invariant"``
    otherwise."""
    if isinstance(prop, Eventually):
        return "liveness"
    if hasattr(prop, "prunes") and hasattr(prop, "accepting"):
        return "liveness"
    return "invariant"


def conjunction(name: str, invariants: Iterable[Invariant]) -> Invariant:
    """Return the conjunction of several invariants as a single invariant."""
    parts: Tuple[Invariant, ...] = tuple(invariants)

    def predicate(state: GlobalState, protocol: Protocol) -> bool:
        return all(part.holds_in(state, protocol) for part in parts)

    return Invariant(
        name=name,
        predicate=predicate,
        description="conjunction of: " + ", ".join(part.name for part in parts),
        network_sensitive=any(part.network_sensitive for part in parts),
    )


def always_true(name: str = "true") -> Invariant:
    """An invariant that holds everywhere; useful for pure state-space measurement."""
    return Invariant(name=name, predicate=lambda _state, _protocol: True,
                     description="trivially true", network_sensitive=False)


def local_state_invariant(
    name: str,
    ptype: str,
    predicate: Callable[[object], bool],
    description: str = "",
) -> Invariant:
    """Build an invariant that must hold of every process of a given type.

    Args:
        name: Property name.
        ptype: Process type whose local states are inspected.
        predicate: Predicate over a single local state.
        description: Optional explanation.
    """

    def check(state: GlobalState, protocol: Protocol) -> bool:
        for process in protocol.processes_of_type(ptype):
            if not predicate(state.local(process.pid)):
                return False
        return True

    return Invariant(name=name, predicate=check, description=description,
                     network_sensitive=False)
