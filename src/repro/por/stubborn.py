"""Static partial-order reduction via stubborn sets (the LPOR analogue).

The provider below computes, for every expanded state, a *stubborn set* of
transitions whose enabled executions are the only ones explored.  Following
MP-LPOR (Section IV), the dependence information is pre-computed and
state-unconditional; the per-state work is a closure over table lookups plus
a cheap inspection of the pending messages.

Representation.  A set of transitions is one int — bit ``i`` stands for
``protocol.transitions[i]``, the index of the mask tables of
:mod:`repro.por.dependence` — and the closure is a worklist over it
(``low = work & -work``; ``closure |= table[i]``).  What depends on the
state is asked of the search's
:class:`~repro.checker.stategraph.StateGraph`, in the graph's own
representation: ``graph.transition_index(execution)`` and
``graph.pending_senders(state, i)``, so a packed search is reduced without
materialising an object state.  Necessary enabling sets are memoised per
``(transition, pending senders)``, the seed per set of enabled transitions:
a :data:`~repro.por.seed.SeedHeuristic` must be a function of the enabled
*transitions* (never of their message sets) and is consulted once per
distinct set, on ``graph.execution_of`` executions.  The closure is a least
fixpoint, so the stubborn set is the same *set* in any worklist order; its
executions are emitted grouped by transition in name order, which fixes the
search order (counterexample lengths, every count on a cyclic graph).

Construction (weak stubborn-set closure, specialised to message passing):

1. Seed the set with one enabled transition chosen by the seed heuristic.
2. For every *enabled* transition in the set, add every transition that
   *interferes* with it — transitions of the same process and spec-read
   conflicts.  In the message-passing computation model transitions of
   different processes otherwise commute and cannot disable each other, so
   nothing else is needed for enabled members, and every enabled member is a
   valid key transition (its enabledness cannot be destroyed from outside).
3. For every *disabled* transition in the set, add a **necessary enabling
   set**: a set of transitions such that the disabled transition cannot
   become enabled before one of them fires.

   * With the NET optimisation (``use_net=True``, the LPOR-NET analogue) the
     set is computed per state: if the transition still lacks messages from
     some senders, only the enabler transitions of the *missing* senders are
     added.  This is exactly where transition refinement pays off — a
     quorum-split transition restricts the missing senders to its quorum
     peers, and a reply-split transition names the single peer that can feed
     it (Sections III-C and III-D).
   * Without NET the handling is coarse: all statically possible enablers
     (ignoring refinement restrictions) plus the interfering transitions are
     added, mirroring the paper's remark that LPOR and LPOR-NET coincide
     when no quorum information is available.
   * If the transition is disabled even though enough messages are pending
     (its guard rejects them), the per-state reasoning does not apply and
     the coarse handling is used for that transition.
4. Apply the visibility condition and the cycle (stack) proviso; if either
   fails, fall back to full expansion for this state, which keeps invariant
   checking sound.

   The proviso implemented here is the *strong* stack proviso: a strictly
   reduced set is only kept when **no** explored execution leads back to a
   state on the current DFS stack.  Ignoring-prevention argument: suppose a
   transition ``t`` enabled somewhere on a cycle were ignored forever.  Every
   state of the cycle would then have been expanded with a strict subset, so
   each one had a successor off the stack at the time it was expanded — but
   the state of the cycle that the DFS *pops first* has, at pop time, all of
   its cycle-successors already on the stack (they are its DFS ancestors),
   which the proviso forbids: that state was fully expanded, contradicting
   the assumption.  Hence along every cycle at least one state is fully
   expanded and every enabled transition is eventually explored.  On acyclic
   state graphs no successor can sit on the stack, so the strong proviso
   degenerates to a no-op and reduction is exactly what the weak proviso
   gave; on cyclic graphs (e.g. the crash-recovery protocols) it is what
   makes serial SPOR sound.

Full expansions by reason.  ``provider.fallbacks`` counts the states that
had a choice (two or more enabled transitions) and were expanded fully
anyway: ``all-enabled`` (the closure covers the enabled set), ``visible``
and ``proviso`` (step 4); ``fallback_states`` is their sum.  The rest of a
search's ``full_expansions`` had at most one enabled transition.  On the
ledger's ``spor_sweep`` (``por.full_expansion_share`` = 0.364: 23,151 of
63,590 expansions) that is 17,393 trivial, 3,139 ``all-enabled``, 2,619
``visible`` (storage, multicast and the two-learner Paxos cell only) and 0
``proviso`` (every cell is acyclic); on ``paxos-2-4-1`` alone, 3,868 of
18,579 (0.208): 3,015 trivial, 853 ``all-enabled``, nothing else.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..checker.search import ReductionContext
from ..checker.stategraph import ObjectGraph, StateGraph
from ..mp.protocol import Protocol
from ..mp.state import GlobalState
from .dependence import DependenceRelation
from .seed import SeedHeuristic, opposite_transaction_seed


class StubbornSetProvider:
    """Computes stubborn sets for the DFS of :mod:`repro.checker.search`."""

    def __init__(
        self,
        protocol: Protocol,
        dependence: Optional[DependenceRelation] = None,
        seed_heuristic: Optional[SeedHeuristic] = None,
        use_net: bool = True,
    ) -> None:
        self.protocol = protocol
        self.dependence = dependence or DependenceRelation.precompute(protocol)
        self.seed_heuristic = seed_heuristic or opposite_transaction_seed
        self.use_net = use_net
        names = protocol.transition_names()
        self._names = names
        #: Transition position -> rank of its name: reduced executions are
        #: emitted grouped by transition in name order.
        self._name_rank = tuple(sorted(names).index(name) for name in names)
        position = protocol.sender_index
        #: Per transition: bitmask of its allowed senders (None = anyone).
        self._allowed = tuple(
            None if senders is None
            else sum(1 << position[s] for s in senders if s in position)
            for senders in (t.effective_senders() for t in protocol.transitions)
        )
        self._quorum_size = tuple(t.quorum.size for t in protocol.transitions)
        #: Answers for contexts built without a graph (object states).
        self._object_graph = ObjectGraph(protocol)
        self._enabling_memo: Dict[Tuple[int, int], int] = {}
        self._seed_memo: Dict[int, int] = {}
        #: How many times the provider returned a strict subset / fell back
        #: to full expansion, the latter by reason.
        self.reduced_states = 0
        self.fallbacks = {"all-enabled": 0, "visible": 0, "proviso": 0}

    @property
    def fallback_states(self) -> int:
        """States expanded fully although more than one transition was enabled."""
        return sum(self.fallbacks.values())

    # ------------------------------------------------------------------ #
    # Necessary enabling sets
    # ------------------------------------------------------------------ #
    def _necessary_enabling_mask(self, index: int, pending: int) -> int:
        """Necessary enabling set of a disabled transition, given the
        senders (a bitmask) of its pending candidate messages.

        While messages from some candidate senders are missing, any path
        enabling it must first deliver one of those, so the enablers of the
        missing senders form a valid necessary enabling set.
        """
        dependence = self.dependence
        if bin(pending).count("1") >= self._quorum_size[index]:
            # Enough distinct senders are pending: the guard rejects them,
            # which the static tables cannot explain — the coarse handling.
            return dependence.coarse_masks[index]
        allowed = self._allowed[index]
        if allowed is None:  # any process might provide the missing message
            return dependence.enabler_masks[index]
        by_sender = dependence.sender_enabler_masks[index]
        missing = allowed & ~pending
        mask = 0
        while missing:
            low = missing & -missing
            missing ^= low
            mask |= by_sender[low.bit_length() - 1]
        return mask

    # ------------------------------------------------------------------ #
    # Closure
    # ------------------------------------------------------------------ #
    def _closure(self, graph: StateGraph, state, seed: int, enabled: int) -> int:
        """The stubborn set from a seed, as a transition bitmask (a least
        fixpoint: the worklist order does not matter)."""
        interference = self.dependence.interference_masks
        coarse = self.dependence.coarse_masks
        memo, use_net = self._enabling_memo, self.use_net
        closure = work = 1 << seed
        while work:
            low = work & -work
            work ^= low
            index = low.bit_length() - 1
            if low & enabled:
                additions = interference[index]
            elif use_net:
                key = (index, graph.pending_senders(state, index))
                additions = memo.get(key)
                if additions is None:
                    additions = memo[key] = self._necessary_enabling_mask(*key)
            else:
                additions = coarse[index]
            additions &= ~closure
            closure |= additions
            work |= additions
        return closure

    def stubborn_names(self, state: GlobalState, seed_name: str,
                       enabled_names: frozenset) -> frozenset:
        """The stubborn set of an object state by transition names, for
        tests and inspection."""
        index_of = self._names.index
        enabled = sum(1 << index_of(name) for name in enabled_names)
        closure = self._closure(self._object_graph, state, index_of(seed_name), enabled)
        return frozenset(
            name for index, name in enumerate(self._names) if closure >> index & 1
        )

    # ------------------------------------------------------------------ #
    # Reducer interface
    # ------------------------------------------------------------------ #
    def reduce(self, context: ReductionContext) -> Tuple:
        """Return the executions to explore from ``context.state``."""
        enabled = context.enabled
        if len(enabled) <= 1:
            return enabled
        graph = context.graph if context.graph is not None else self._object_graph

        indices = list(map(graph.transition_index, enabled))
        enabled_mask = 0
        for index in indices:
            enabled_mask |= 1 << index
        if not enabled_mask & (enabled_mask - 1):
            # A single (possibly non-deterministic) transition: no reduction.
            return enabled

        seed = self._seed_memo.get(enabled_mask)
        if seed is None:
            chosen = self.seed_heuristic(tuple(map(graph.execution_of, enabled)))
            seed = self._seed_memo[enabled_mask] = self._object_graph.transition_index(chosen)
        chosen_mask = self._closure(graph, context.state, seed, enabled_mask) & enabled_mask
        if chosen_mask == enabled_mask:
            self.fallbacks["all-enabled"] += 1
            return enabled

        # Visibility condition (ample-set condition C2): a strictly reduced
        # set must not contain property-visible transitions.
        if chosen_mask & self.dependence.visible_mask:
            self.fallbacks["visible"] += 1
            return enabled

        rank = self._name_rank
        reduced = tuple(enabled[position] for _, position in sorted(
            (rank[index], position) for position, index in enumerate(indices)
            if chosen_mask >> index & 1
        ))

        # Cycle (stack) proviso (condition C3): if any explored execution
        # closes a cycle back onto the current DFS stack, expand the state
        # fully — the strong stack proviso of the module docstring.
        # ``context.successor`` fills the expanding frame's memo, so the
        # states computed here are reused when the DFS expands them.
        on_stack, successor = context.on_stack, context.successor
        if any(on_stack(successor(execution)) for execution in reduced):
            self.fallbacks["proviso"] += 1
            return enabled

        self.reduced_states += 1
        return reduced
