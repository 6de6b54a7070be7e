"""Protocol definitions: processes, transitions and driver messages.

A :class:`Protocol` bundles everything the model checker needs: the process
instances with their initial local states, the transition specifications of
every process, and the driver messages that trigger spontaneous transitions
(MP-Basset's "fake" messages, Appendix I).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .channel import Network
from .errors import ProtocolDefinitionError
from .message import DRIVER, Message
from .process import ProcessDecl
from .state import GlobalState
from .transition import TransitionSpec


@dataclass(frozen=True)
class Protocol:
    """An MP protocol instance ready for model checking.

    Attributes:
        name: Human-readable protocol name, e.g. ``"paxos (2,3,1) quorum"``.
        processes: Declared process instances, in a fixed order that also
            fixes the layout of global states.
        transitions: All transition specifications (the set ``T`` of the
            paper, the union of the per-process sets ``T_i``).
        driver_messages: Messages injected into the initial state by the
            driver to trigger spontaneous transitions.
        metadata: Free-form description of the protocol setting (process
            counts, fault configuration, model variant).
        process_index: Shared ``pid -> position`` dictionary (set during
            validation); every global state of this protocol reuses it.
        sender_index: ``sender -> position`` (the bit layout of sender
            bitmasks) of everything that can send: each process at its
            ``process_index``, :data:`DRIVER` one past the last, then any
            other sender of a driver message.
    """

    name: str
    processes: Tuple[ProcessDecl, ...]
    transitions: Tuple[TransitionSpec, ...]
    driver_messages: Tuple[Message, ...] = ()
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        pids = [process.pid for process in self.processes]
        if len(set(pids)) != len(pids):
            raise ProtocolDefinitionError("duplicate process identifiers in protocol")
        pid_set = set(pids)
        # Shared pid -> position index: computed once here, handed to every
        # GlobalState of this protocol so functional updates never rebuild
        # it.  Read-only because every state trusts it without revalidation.
        object.__setattr__(
            self,
            "process_index",
            MappingProxyType({pid: position for position, pid in enumerate(pids)}),
        )
        extra = {message.sender for message in self.driver_messages} - pid_set - {DRIVER}
        senders = pids + [DRIVER] + sorted(extra)
        object.__setattr__(
            self, "sender_index",
            MappingProxyType({sender: position for position, sender in enumerate(senders)}),
        )
        names = [transition.name for transition in self.transitions]
        if len(set(names)) != len(names):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise ProtocolDefinitionError(f"duplicate transition names: {duplicates}")
        for transition in self.transitions:
            if transition.process_id not in pid_set:
                raise ProtocolDefinitionError(
                    f"transition {transition.name} belongs to unknown process "
                    f"{transition.process_id}"
                )
            if transition.quorum_peers is not None:
                unknown = set(transition.quorum_peers) - pid_set - {DRIVER}
                if unknown:
                    raise ProtocolDefinitionError(
                        f"transition {transition.name}: unknown quorum peers {sorted(unknown)}"
                    )
        for message in self.driver_messages:
            if message.recipient not in pid_set:
                raise ProtocolDefinitionError(
                    f"driver message {message.describe()} addressed to unknown process"
                )

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    @property
    def process_ids(self) -> Tuple[str, ...]:
        """All process identifiers in declaration order."""
        return tuple(process.pid for process in self.processes)

    def process(self, pid: str) -> ProcessDecl:
        """Return the declaration of process ``pid``."""
        for process in self.processes:
            if process.pid == pid:
                return process
        raise KeyError(f"unknown process: {pid}")

    def processes_of_type(self, ptype: str) -> Tuple[ProcessDecl, ...]:
        """Return all processes of a given type, in declaration order."""
        return tuple(process for process in self.processes if process.ptype == ptype)

    def transitions_of(self, pid: str) -> Tuple[TransitionSpec, ...]:
        """Return the transition set ``T_i`` of process ``pid``."""
        return tuple(t for t in self.transitions if t.process_id == pid)

    def transition(self, name: str) -> TransitionSpec:
        """Return the transition with the given (unique) name."""
        for transition in self.transitions:
            if transition.name == name:
                return transition
        raise KeyError(f"unknown transition: {name}")

    def transition_names(self) -> Tuple[str, ...]:
        """All transition names, in declaration order."""
        return tuple(transition.name for transition in self.transitions)

    def transitions_by_base_name(self) -> Dict[str, Tuple[TransitionSpec, ...]]:
        """Group transitions by their unrefined base name."""
        grouped: Dict[str, list] = {}
        for transition in self.transitions:
            grouped.setdefault(transition.base_name, []).append(transition)
        return {base: tuple(specs) for base, specs in grouped.items()}

    # ------------------------------------------------------------------ #
    # Semantics entry points
    # ------------------------------------------------------------------ #
    def initial_state(self) -> GlobalState:
        """Build the initial global state: initial locals + driver messages."""
        locals_ = tuple((process.pid, process.initial_state) for process in self.processes)
        return GlobalState(locals_, Network.of(self.driver_messages), index=self.process_index)

    # ------------------------------------------------------------------ #
    # Derivation (used by transition refinement)
    # ------------------------------------------------------------------ #
    def with_transitions(
        self,
        transitions: Iterable[TransitionSpec],
        name: Optional[str] = None,
        metadata_updates: Optional[Mapping[str, object]] = None,
    ) -> "Protocol":
        """Return a copy of the protocol with a different transition set.

        This is the hook used by the refinement strategies: processes,
        driver messages and initial states are untouched, only the
        transition set changes (and the state graph must stay the same,
        Definition 1).
        """
        metadata = dict(self.metadata)
        if metadata_updates:
            metadata.update(metadata_updates)
        return Protocol(
            name=name if name is not None else self.name,
            processes=self.processes,
            transitions=tuple(transitions),
            driver_messages=self.driver_messages,
            metadata=metadata,
        )

    def describe(self) -> str:
        """Return a multi-line summary of the protocol instance."""
        lines = [f"protocol: {self.name}"]
        lines.append(f"  processes ({len(self.processes)}):")
        for process in self.processes:
            lines.append(f"    {process.pid} [{process.ptype}]")
        lines.append(f"  transitions ({len(self.transitions)}):")
        for transition in self.transitions:
            kind = "quorum" if transition.is_quorum_transition else "single"
            lines.append(f"    {transition.name} @ {transition.process_id} ({kind})")
        lines.append(f"  driver messages: {len(self.driver_messages)}")
        return "\n".join(lines)
