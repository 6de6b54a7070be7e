"""State-unconditional dependence relations for MP protocols.

MP-LPOR (Section IV) pre-computes a notion of independence that is *not* a
function of the system state; it is queried repeatedly during the search.
We reproduce that design: all relations are derived once per protocol from
the static transition annotations and the quorum-peer restrictions of
refined transitions, so the per-state stubborn-set construction performs
only table lookups.

Three relations are exposed:

* **interference** — transitions that do not commute with an *enabled*
  transition: transitions of the same process (they compete for the local
  state and the incoming channels) and transitions involved in a
  specification-read conflict (the footnote-7 ghost snapshots).  In the
  message-passing computation model, transitions of *different* processes
  always commute otherwise: they consume from disjoint channels and only
  add messages.
* **necessary enabling transitions (NET)** — transitions that may enable a
  given (currently disabled) transition by sending a message it consumes.
  This is where transition refinement pays off: a quorum-split transition
  can only be enabled by its quorum peers, and a reply-split transition
  names the single peer it talks to (Sections III-C and III-D).
* **dependence** — the symmetric union of interference and can-enable in
  either direction; this coarser relation drives the dynamic POR's
  backtrack-point insertion.

The relation deliberately errs on the side of dependence whenever an
annotation leaves senders or recipients unknown.

Every table exists twice: keyed by transition *name* (for DPOR, tests and
humans) and as **int bitmasks** (for the stubborn-set closure).  Bit ``i``
of a mask stands for ``protocol.transitions[i]`` and the mask tables are
tuples indexed by that same position, so a closure step is ``closure |=
table[i]``; the per-sender table is further indexed by
``protocol.sender_index`` position, the layout of the pending-sender masks
a :class:`~repro.checker.stategraph.StateGraph` reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from ..mp.protocol import Protocol
from ..mp.transition import SendSpec, TransitionSpec


def _send_recipients(
    transition: TransitionSpec, send: SendSpec
) -> Optional[FrozenSet[str]]:
    """Possible recipients of one declared send, or ``None`` if unknown.

    For reply sends (``to_senders_only``) the recipients are bounded by the
    senders the transition can consume from — the key fact exploited by
    reply-split (Definition 4 / Section III-D).
    """
    if send.recipients is not None:
        return send.recipients
    if send.to_senders_only:
        return transition.effective_senders()
    return None


def can_enable(
    sender_t: TransitionSpec,
    receiver_t: TransitionSpec,
    respect_peers: bool = True,
) -> bool:
    """True if ``sender_t`` may send a message that ``receiver_t`` consumes.

    The check is conservative: unknown recipient or sender sets are treated
    as "any process".

    Args:
        sender_t: The potentially enabling transition.
        receiver_t: The potentially enabled transition.
        respect_peers: If False, the quorum-peer / possible-sender
            restrictions of ``receiver_t`` are ignored; this yields the
            coarser relation used when the NET optimisation is disabled.
    """
    if sender_t.process_id == receiver_t.process_id:
        # Same-process interactions are covered by the interference rule.
        return False
    if respect_peers:
        allowed_senders = receiver_t.effective_senders()
        if allowed_senders is not None and sender_t.process_id not in allowed_senders:
            return False
    for send in sender_t.annotation.sends:
        if send.mtype != receiver_t.message_type:
            continue
        recipients = _send_recipients(sender_t, send)
        if recipients is None or receiver_t.process_id in recipients:
            return True
    return False


def spec_read_conflict(first: TransitionSpec, second: TransitionSpec) -> bool:
    """True if either transition ghost-reads the other's process state."""
    return (
        second.process_id in first.annotation.spec_reads
        or first.process_id in second.annotation.spec_reads
    )


def interferes(first: TransitionSpec, second: TransitionSpec) -> bool:
    """True if the two transitions do not commute when both are executable.

    In the message-passing model this happens only when they belong to the
    same process or when a specification read crosses their processes.
    """
    if first.process_id == second.process_id:
        return True
    return spec_read_conflict(first, second)


def are_dependent(first: TransitionSpec, second: TransitionSpec) -> bool:
    """Coarse symmetric dependence (interference or enabling either way)."""
    if interferes(first, second):
        return True
    return can_enable(first, second) or can_enable(second, first)


@dataclass(frozen=True)
class DependenceRelation:
    """Pre-computed dependence tables for one protocol.

    Attributes:
        interference: For each transition name, the names of transitions
            that do not commute with it (same process or spec-read conflict),
            excluding itself.
        enablers: For each transition name, the names of transitions that
            can enable it, honouring quorum-peer restrictions (the NET set).
        coarse_enablers: Like ``enablers`` but ignoring quorum-peer and
            possible-sender restrictions; used when NET is disabled.
        enables: For each transition name, the names of transitions it can
            enable (the forward direction of ``enablers``).
        enablers_by_sender: For each transition name, its enablers grouped by
            the process that executes them; the per-state necessary enabling
            sets of the stubborn-set construction are assembled from this.
        dependent_pairs: Symmetric set of dependent transition-name pairs
            (interference or enabling in either direction); used by DPOR.
        interference_masks / enabler_masks: ``interference`` / ``enablers``
            as one bitmask per transition position.
        coarse_masks: Per transition position, ``interference`` united with
            ``coarse_enablers`` — what a disabled member drags in when the
            per-state reasoning does not apply.
        sender_enabler_masks: ``enablers_by_sender`` as
            ``[transition position][sender position] -> bitmask``.
        visible_mask: The property-visible transitions.
    """

    interference: Dict[str, Tuple[str, ...]]
    enablers: Dict[str, Tuple[str, ...]]
    coarse_enablers: Dict[str, Tuple[str, ...]]
    enables: Dict[str, Tuple[str, ...]]
    enablers_by_sender: Dict[str, Dict[str, Tuple[str, ...]]]
    dependent_pairs: FrozenSet[Tuple[str, str]]
    interference_masks: Tuple[int, ...]
    enabler_masks: Tuple[int, ...]
    coarse_masks: Tuple[int, ...]
    sender_enabler_masks: Tuple[Tuple[int, ...], ...]
    visible_mask: int

    @classmethod
    def precompute(cls, protocol: Protocol) -> "DependenceRelation":
        """Build all tables from the protocol's transition annotations."""
        transitions = protocol.transitions
        interference: Dict[str, list] = {t.name: [] for t in transitions}
        enablers: Dict[str, list] = {t.name: [] for t in transitions}
        coarse: Dict[str, list] = {t.name: [] for t in transitions}
        enables: Dict[str, list] = {t.name: [] for t in transitions}
        by_sender: Dict[str, Dict[str, list]] = {t.name: {} for t in transitions}
        dependent = set()

        for first in transitions:
            for second in transitions:
                if first.name == second.name:
                    continue
                if interferes(first, second):
                    interference[first.name].append(second.name)
                if can_enable(first, second, respect_peers=True):
                    enables[first.name].append(second.name)
                    enablers[second.name].append(first.name)
                    by_sender[second.name].setdefault(first.process_id, []).append(first.name)
                if can_enable(first, second, respect_peers=False):
                    coarse[second.name].append(first.name)
                if first.name < second.name and are_dependent(first, second):
                    dependent.add((first.name, second.name))

        bit = {t.name: 1 << position for position, t in enumerate(transitions)}
        names = [t.name for t in transitions]

        def mask(members) -> int:
            return sum(bit[name] for name in members)

        return cls(
            interference_masks=tuple(mask(interference[n]) for n in names),
            enabler_masks=tuple(mask(enablers[n]) for n in names),
            coarse_masks=tuple(mask(interference[n] + coarse[n]) for n in names),
            sender_enabler_masks=tuple(
                tuple(mask(by_sender[n].get(sender, ())) for sender in protocol.sender_index)
                for n in names
            ),
            visible_mask=mask(t.name for t in transitions if t.annotation.visible),
            interference={name: tuple(values) for name, values in interference.items()},
            enablers={name: tuple(values) for name, values in enablers.items()},
            coarse_enablers={name: tuple(values) for name, values in coarse.items()},
            enables={name: tuple(values) for name, values in enables.items()},
            enablers_by_sender={
                name: {pid: tuple(values) for pid, values in senders.items()}
                for name, senders in by_sender.items()
            },
            dependent_pairs=frozenset(dependent),
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def interferes_with(self, name: str) -> Tuple[str, ...]:
        """Transitions that do not commute with ``name`` (excluding itself)."""
        return self.interference.get(name, ())

    def necessary_enablers_of(self, name: str) -> Tuple[str, ...]:
        """Transitions that can enable ``name`` (the NET set)."""
        return self.enablers.get(name, ())

    def coarse_enablers_of(self, name: str) -> Tuple[str, ...]:
        """Potential enablers of ``name`` ignoring refinement restrictions."""
        return self.coarse_enablers.get(name, ())

    def enablers_from(self, name: str, senders) -> Tuple[str, ...]:
        """Enablers of ``name`` executed by one of the given sender processes.

        Used to build per-state necessary enabling sets: when a transition is
        disabled because messages from specific processes are missing, only
        transitions of those processes need to enter the stubborn set.
        """
        by_sender = self.enablers_by_sender.get(name, {})
        result: list = []
        for sender in senders:
            result.extend(by_sender.get(sender, ()))
        return tuple(result)

    def enabled_by(self, name: str) -> Tuple[str, ...]:
        """Transitions that ``name`` can enable."""
        return self.enables.get(name, ())

    def dependent(self, first: str, second: str) -> bool:
        """Coarse dependence test (used by the dynamic POR)."""
        if first == second:
            return True
        key = (first, second) if first < second else (second, first)
        return key in self.dependent_pairs

    def independent(self, first: str, second: str) -> bool:
        """True if the two named transitions are independent."""
        return not self.dependent(first, second)

    def dependents_of(self, name: str) -> Tuple[str, ...]:
        """All transition names dependent with ``name`` (excluding itself)."""
        result = []
        for first, second in self.dependent_pairs:
            if first == name:
                result.append(second)
            elif second == name:
                result.append(first)
        return tuple(sorted(result))

    def dependence_degree(self, name: str) -> int:
        """Number of transitions dependent with ``name``; a seed heuristic input."""
        return len(self.dependents_of(name))
