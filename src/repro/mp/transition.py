"""Transitions of the MP modelling language.

A transition (Section II-A) is an atomic, process-local event that consumes
a set of messages, updates the local state of the executing process, and
sends zero or more messages.  A transition whose consumed set may contain
messages from more than one sender is a *quorum transition*; otherwise it is
a *single-message transition*.

Transitions carry an :class:`LporAnnotation`, the Python analogue of
MP-Basset's ``@LPORAnnotation`` (Table IV in the paper).  The annotation
statically describes what the transition may send and receive, and is the
sole input to the state-unconditional dependence relation used by the static
partial-order reduction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, FrozenSet, Optional, Tuple

from .errors import QuorumSpecificationError, TransitionExecutionError
from .message import Message


class QuorumKind(enum.Enum):
    """The kind of message set a transition consumes."""

    #: The transition consumes exactly one message.
    SINGLE = "single"
    #: The transition consumes exactly ``size`` messages from distinct senders.
    EXACT = "exact"


@dataclass(frozen=True)
class QuorumSpec:
    """Describes how many messages a transition consumes.

    Attributes:
        kind: Single-message or exact-quorum.
        size: The quorum threshold ``q_t`` (1 for single-message transitions).
        distinct_senders: Whether the quorum must contain at most one message
            per sender (the common case for threshold-based protocols).
    """

    kind: QuorumKind
    size: int
    distinct_senders: bool = True

    def __post_init__(self) -> None:
        if self.size < 1:
            raise QuorumSpecificationError(f"quorum size must be positive, got {self.size}")
        if self.kind is QuorumKind.SINGLE and self.size != 1:
            raise QuorumSpecificationError("single-message transitions have quorum size 1")

    @property
    def is_quorum(self) -> bool:
        """True if the transition may consume messages from more than one sender."""
        return self.kind is QuorumKind.EXACT and self.size > 1


def single_message() -> QuorumSpec:
    """Quorum specification of an ordinary single-message transition."""
    return QuorumSpec(QuorumKind.SINGLE, 1)


def exact_quorum(size: int) -> QuorumSpec:
    """Quorum specification of an exact quorum transition with threshold ``size``."""
    if size == 1:
        return single_message()
    return QuorumSpec(QuorumKind.EXACT, size)


def majority_of(population: int) -> int:
    """Return the majority threshold ``ceil((population + 1) / 2)`` used by Paxos."""
    return math.ceil((population + 1) / 2)


@dataclass(frozen=True)
class SendSpec:
    """Static description of a send a transition may perform.

    Attributes:
        mtype: Type of the sent message.
        recipients: Known recipient set, or ``None`` if unknown (any process).
        to_senders_only: True for reply transitions (Definition 4): the
            recipients are a subset of the senders of the consumed messages.
    """

    mtype: str
    recipients: Optional[FrozenSet[str]] = None
    to_senders_only: bool = False


@dataclass(frozen=True)
class LporAnnotation:
    """Static metadata guiding the partial-order reduction.

    This mirrors MP-Basset's ``@LPORAnnotation`` (Table IV): it records what
    a transition may send, who may send to it, whether it is a reply
    transition, its seed-selection priority, and whether it is visible with
    respect to the property under verification.

    Attributes:
        sends: The sends the transition may perform.
        possible_senders: Processes that may send messages consumed by this
            transition, or ``None`` when unknown (conservatively: anyone).
        is_reply: Whether this is a reply transition (Definition 4).
        priority: Seed-transition heuristic priority; larger values are
            preferred by the "opposite transaction" heuristic.
        visible: Whether executing the transition can change the truth value
            of the property under verification.
        spec_reads: Processes whose local state the transition reads for
            specification-only (ghost) purposes, cf. footnote 7 of the paper.
            Such reads make the transition dependent on every transition of
            the read process, keeping the reduction sound.
        starts_instance: The transition starts a new protocol instance
            (e.g. Paxos READ); used by the opposite-transaction heuristic.
        finishes_instance: The transition completes an ongoing instance
            (e.g. Paxos ACCEPT); used by the opposite-transaction heuristic.
    """

    sends: Tuple[SendSpec, ...] = ()
    possible_senders: Optional[FrozenSet[str]] = None
    is_reply: bool = False
    priority: int = 0
    visible: bool = False
    spec_reads: FrozenSet[str] = frozenset()
    starts_instance: bool = False
    finishes_instance: bool = False


class ActionContext:
    """Execution context handed to a transition action.

    The action reads the consumed messages and the current local state (both
    passed as arguments), queues outgoing messages via :meth:`send`, and
    returns the new local state.  The ``spec_view`` exposes other processes'
    local states for specification-only snapshots; protocol logic must not
    depend on it (the paper's footnote 7 warns about exactly this), and the
    transition must declare such reads in ``LporAnnotation.spec_reads``.
    """

    __slots__ = ("process_id", "_spec_view", "_outbox", "_spec_reads")

    def __init__(self, process_id: str, spec_view: Optional[dict] = None,
                 spec_reads: FrozenSet[str] = frozenset()) -> None:
        self.process_id = process_id
        self._spec_view = spec_view or {}
        self._outbox: list = []
        self._spec_reads = spec_reads

    def send(self, recipient: str, mtype: str, **fields: Any) -> None:
        """Queue a message from the executing process to ``recipient``."""
        self._outbox.append(Message.make(mtype, self.process_id, recipient, **fields))

    def send_message(self, message: Message) -> None:
        """Queue an already-built message; its sender must be the executing process."""
        if message.sender != self.process_id:
            raise TransitionExecutionError(
                f"process {self.process_id} cannot send on behalf of {message.sender}"
            )
        self._outbox.append(message)

    def spec_read(self, pid: str) -> Any:
        """Return another process's local state for specification purposes only.

        Raises:
            TransitionExecutionError: If ``pid`` was not declared in the
                transition's ``spec_reads`` annotation.
        """
        if pid not in self._spec_reads:
            raise TransitionExecutionError(
                f"spec_read of {pid!r} not declared in the transition annotation"
            )
        try:
            return self._spec_view[pid]
        except KeyError:
            raise TransitionExecutionError(f"unknown process in spec_read: {pid}") from None

    @property
    def outbox(self) -> Tuple[Message, ...]:
        """Messages queued so far, in send order."""
        return tuple(self._outbox)


#: Guard signature: ``guard(local_state, messages) -> bool``.
GuardFn = Callable[[Any, Tuple[Message, ...]], bool]
#: Action signature: ``action(local_state, messages, ctx) -> new_local_state``.
ActionFn = Callable[[Any, Tuple[Message, ...], ActionContext], Any]


def _always_true(_local_state: Any, _messages: Tuple[Message, ...]) -> bool:
    return True


@dataclass(frozen=True)
class TransitionSpec:
    """A guarded transition of one process.

    Attributes:
        name: Unique transition name within the protocol.  By MP convention
            the base name matches the consumed message type; refined
            (split) transitions append a suffix.
        process_id: Identifier of the executing process.
        message_type: Type of the messages the transition consumes.
        quorum: How many messages are consumed.
        guard: Predicate over ``(local state, consumed messages)``; the
            transition is enabled for a message set only if the guard holds.
        action: Function computing the new local state and queueing sends.
        quorum_peers: If set, the consumed messages' senders must be exactly
            this set (quorum-split, Definition 3) or, for single-message
            transitions, the single sender must be in this set (reply-split).
        annotation: Static metadata for partial-order reduction.
        refined_from: Name of the original transition if this spec was
            produced by a refinement strategy, else ``None``.
    """

    name: str
    process_id: str
    message_type: str
    quorum: QuorumSpec = field(default_factory=single_message)
    guard: GuardFn = _always_true
    action: ActionFn = None  # type: ignore[assignment]
    quorum_peers: Optional[FrozenSet[str]] = None
    annotation: LporAnnotation = field(default_factory=LporAnnotation)
    refined_from: Optional[str] = None

    def __post_init__(self) -> None:
        if self.action is None:
            raise TransitionExecutionError(f"transition {self.name} has no action")
        if self.quorum_peers is not None:
            peers = frozenset(self.quorum_peers)
            object.__setattr__(self, "quorum_peers", peers)
            if self.quorum.kind is QuorumKind.EXACT and len(peers) != self.quorum.size:
                raise QuorumSpecificationError(
                    f"transition {self.name}: quorum_peers has {len(peers)} members "
                    f"but the quorum size is {self.quorum.size}"
                )

    # ------------------------------------------------------------------ #
    # Classification helpers
    # ------------------------------------------------------------------ #
    @property
    def is_quorum_transition(self) -> bool:
        """True if the transition may consume messages from multiple senders."""
        return self.quorum.is_quorum

    @property
    def is_single_message(self) -> bool:
        """True if the transition consumes exactly one message."""
        return not self.quorum.is_quorum

    @property
    def is_refined(self) -> bool:
        """True if the transition was produced by a refinement strategy."""
        return self.refined_from is not None

    @property
    def base_name(self) -> str:
        """The unrefined transition name (itself if not refined)."""
        return self.refined_from if self.refined_from is not None else self.name

    def effective_senders(self) -> Optional[FrozenSet[str]]:
        """Return the set of processes that may send messages consumed here.

        ``None`` means unknown (any process).  The quorum-peer restriction of
        refined transitions takes precedence over the static annotation.
        """
        if self.quorum_peers is not None:
            return self.quorum_peers
        return self.annotation.possible_senders

    def with_annotation(self, **changes: Any) -> "TransitionSpec":
        """Return a copy with the annotation fields in ``changes`` replaced."""
        return replace(self, annotation=replace(self.annotation, **changes))

    def __repr__(self) -> str:
        peers = f", peers={sorted(self.quorum_peers)}" if self.quorum_peers else ""
        return (
            f"TransitionSpec({self.name!r}, process={self.process_id!r}, "
            f"consumes={self.message_type!r} x{self.quorum.size}{peers})"
        )

    def __hash__(self) -> int:
        # Specs are dictionary keys on every hot path (successor caches,
        # per-frame memoisation); the generated dataclass hash walks all
        # nine fields each call, so the value is computed once and cached.
        cached = self.__dict__.get("_cached_hash")
        if cached is None:
            cached = hash((
                self.name, self.process_id, self.message_type, self.quorum,
                self.guard, self.action, self.quorum_peers, self.annotation,
                self.refined_from,
            ))
            object.__setattr__(self, "_cached_hash", cached)
        return cached


@dataclass(frozen=True)
class Execution:
    """A concrete enabled execution of a transition: the pair ``(t, X)``.

    The paper writes this as ``s --t(X)--> s'``: transition ``t`` executed
    with message set ``X``.
    """

    transition: TransitionSpec
    messages: Tuple[Message, ...]

    @property
    def senders(self) -> FrozenSet[str]:
        """The set ``senders(X)`` of processes that sent a consumed message."""
        return frozenset(message.sender for message in self.messages)

    @property
    def process_id(self) -> str:
        """The executing process."""
        return self.transition.process_id

    def describe(self) -> str:
        """Return a compact human-readable rendering of the execution."""
        consumed = ", ".join(message.describe() for message in self.messages)
        return f"{self.transition.name}@{self.transition.process_id} consuming [{consumed}]"

    def __hash__(self) -> int:
        cached = self.__dict__.get("_cached_hash")
        if cached is None:
            cached = hash((self.transition, self.messages))
            object.__setattr__(self, "_cached_hash", cached)
        return cached
