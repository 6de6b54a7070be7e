"""The protocol compiler: object-graph models lowered to table-driven form.

The object-graph semantics (:mod:`repro.mp.semantics`) pays, per state, for
attribute walks over :class:`~repro.mp.message.Message` objects, ``repr``
-based sort keys, guard/action closure calls, :class:`ActionContext`
construction and per-object hashing.  All of that work is a pure function
of a small number of *distinct* inputs — a protocol has few local states
and few message values compared to its (combinatorially large) set of
global states — so the compiler interns those inputs to small integers once
and replaces the per-state work with dictionary lookups on int keys:

* **Interning tables.**  Local states and messages are interned to dense
  ids as they are discovered (``id -> object`` lists, ``object -> id``
  dicts).  Per message id the compiler precomputes the sort key and, per
  transition, whether the message is a consumption candidate.
* **Packed states.**  A global state becomes a flat tuple of machine words:
  one local-state id per process, then one ``message id << 32 | count`` word
  per distinct pending message, sorted (hence sorted by id), so applying an
  execution is a list copy plus one ``bisect`` per changed entry.  Alongside
  the words the engine carries the two XOR accumulators of the PR-1
  incremental hash — the locals accumulator and the network accumulator —
  maintained word-incrementally, and the combined fingerprint, which is
  *bit-identical* to :meth:`repro.mp.state.GlobalState.fingerprint` of the
  decoded state.
* **Table-compiled transitions.**  Enabled-set computation is memoised per
  ``(local id, candidate ids)`` and action application per ``(local id,
  consumed ids, spec-read ids)``; a guard or action closure runs at most
  once per distinct input and every revisit is a dict hit.  The action memo
  holds the *effect* — new local id, locals-hash change and the net count
  change per message word — not the outbox, so a hit sorts and nets nothing.

Enabled executions are produced in *exactly* the object engine's
deterministic order (transition declaration order, candidates by message
sort key, the same combination enumeration), so execution indices are
interchangeable between the two engines — execution-index paths and
checkpoints mean the same on either.

**The process-boundary rule.**  Ids are handed out lazily, so an engine on
its own is private to its process.  :meth:`FastSuccessorEngine.share`,
called before forking, attaches an :class:`InternLog`: from then on an
intern *miss* (a few dozen per process — hits never leave it) takes
the log's cross-process lock, replays what other processes appended since
this one last looked, and appends the new content if it is still unknown.
Every process therefore hands out ids in log order, a packed state is a
flat int tuple that pickles as it is and means the same in every forked
process, and a receiver calls :meth:`FastSuccessorEngine.sync` (one
shared-length compare) before it touches a batch of foreign states.
"""

from __future__ import annotations

import itertools
import os
import pickle
import struct
import weakref
from bisect import bisect_left
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

from ..mp.channel import Network, item_hash
from ..mp.errors import MPError, TransitionExecutionError
from ..mp.message import Message
from ..mp.protocol import Protocol
from ..mp.state import GlobalState, _entry_hash, combine_state_hash
from ..mp.transition import ActionContext, Execution, QuorumKind, TransitionSpec

#: A packed global state: ``(words, locals accumulator, network accumulator,
#: fingerprint)``.  ``words`` is the flat word tuple — one local-state id
#: per process, then one ``message id << 32 | count`` word per distinct
#: pending message, sorted — and is the identity of the state (two packed
#: states are equal iff their words are equal).  The fingerprint equals the
#: decoded state's ``GlobalState.fingerprint()`` bit for bit.
PackedState = Tuple[Tuple[int, ...], int, int, int]

#: Largest multiplicity a network word can hold beside its message id.
_COUNT_MASK = (1 << 32) - 1

#: A packed execution: ``(transition index, consumed message ids)`` with the
#: ids in the object engine's message order (sorted by message sort key).
PackedExecution = Tuple[int, Tuple[int, ...]]

#: What one action application does to a packed state: ``(new local id, XOR
#: of the old and new local's entry hashes, sorted ``(message id << 32, net
#: count change)`` pairs with zero changes dropped)``.
ActionEffect = Tuple[int, int, Tuple[Tuple[int, int], ...]]


class CompiledTransition:
    """One transition lowered onto the interning tables."""

    __slots__ = (
        "spec",
        "index",
        "position",
        "pid",
        "message_type",
        "senders",
        "quorum_size",
        "is_single",
        "distinct_senders",
        "peers",
        "spec_positions",
        "spec_pids",
        "spec_key",
        "spec_reads",
        "guard",
        "action",
        "enabled_memo",
        "action_memo",
        "candidate_flags",
    )

    def __init__(self, spec: TransitionSpec, index: int, position: int,
                 spec_positions: Tuple[int, ...], spec_pids: Tuple[str, ...]) -> None:
        self.spec = spec
        self.index = index
        self.position = position
        self.pid = spec.process_id
        self.message_type = spec.message_type
        self.senders = spec.effective_senders()
        self.quorum_size = spec.quorum.size
        self.is_single = spec.quorum.kind is QuorumKind.SINGLE
        self.distinct_senders = spec.quorum.distinct_senders
        self.peers = spec.quorum_peers
        self.spec_positions = spec_positions
        self.spec_pids = spec_pids
        #: ``words -> the spec-read local id(s)``, the action memo's third
        #: key part; ``None`` for the common transition that reads none.
        self.spec_key = itemgetter(*spec_positions) if spec_positions else None
        self.spec_reads = spec.annotation.spec_reads
        self.guard = spec.guard
        self.action = spec.action
        #: ``(local id, candidate ids) -> ready packed executions``.
        self.enabled_memo: Dict[Tuple, Tuple[PackedExecution, ...]] = {}
        #: ``(local id, consumed ids, spec ids) -> effect``.
        self.action_memo: Dict[Tuple, ActionEffect] = {}
        #: Per message id: 0, or — the message being a consumption candidate
        #: — its sender's ``protocol.sender_index`` bit.  Grown lazily in
        #: lockstep with the engine's message table.
        self.candidate_flags: List[int] = []


class _NetContribs(dict):
    """``network word -> item_hash(message, count)``, filled on first use."""

    __slots__ = ("_msgs",)

    def __init__(self, msgs: List[Message]) -> None:
        self._msgs = msgs

    def __missing__(self, word: int) -> int:
        value = self[word] = item_hash(self._msgs[word >> 32], word & _COUNT_MASK)
        return value


class InternLog:
    """Append-only log of interned content, shared by forked processes.

    An unlinked temporary file, so there is no capacity to configure and
    nothing to clean up: bytes 0–7 hold the committed length, the rest is
    ``(length, pickle of (is_message, content))`` records.  A writer puts
    its record past the committed length and only then moves the length, so
    a writer that dies mid-append leaves bytes nobody reads; the lock is a
    POSIX record lock (``with log:``), which dies with its holder.  All I/O
    is positional: forked processes share the descriptor's file offset.

    ``seen`` is this process's replay position — private after a fork, and
    equal, at fork time, to what the inherited tables already contain.
    """

    _LENGTH = struct.Struct("<Q")
    _RECORD = struct.Struct("<I")

    def __init__(self) -> None:
        # Imported here: needed by sharers only, and ``fcntl`` is POSIX-only
        # like the fork every sharer comes from.
        import fcntl
        import tempfile

        self._fcntl = fcntl
        self._file = tempfile.TemporaryFile()
        # Closed with the log, not whenever the collector finds the file.
        weakref.finalize(self, self._file.close)
        self._fd = self._file.fileno()
        self.seen = self._LENGTH.size
        os.pwrite(self._fd, self._LENGTH.pack(self.seen), 0)

    def __enter__(self) -> "InternLog":
        self._fcntl.lockf(self._fd, self._fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc_info) -> None:
        self._fcntl.lockf(self._fd, self._fcntl.LOCK_UN)

    def committed(self) -> int:
        """End of the last committed record (readable without the lock)."""
        return self._LENGTH.unpack(os.pread(self._fd, self._LENGTH.size, 0))[0]

    def unread(self) -> List[Tuple[bool, Any]]:
        """The records committed since this process last looked; lock held."""
        end = self.committed()
        data = os.pread(self._fd, end - self.seen, self.seen)
        self.seen = end
        records = []
        offset = 0
        while offset < len(data):
            (length,) = self._RECORD.unpack_from(data, offset)
            offset += self._RECORD.size
            records.append(pickle.loads(data[offset:offset + length]))
            offset += length
        return records

    def append(self, is_message: bool, content: Any) -> None:
        """Commit one record; lock held and :meth:`unread` drained."""
        payload = pickle.dumps((is_message, content), pickle.HIGHEST_PROTOCOL)
        record = self._RECORD.pack(len(payload)) + payload
        os.pwrite(self._fd, record, self.seen)
        self.seen += len(record)
        os.pwrite(self._fd, self._LENGTH.pack(self.seen), 0)


class FastSuccessorEngine:
    """Table-compiled drop-in for :class:`~repro.mp.semantics.SuccessorEngine`.

    Compiled once per protocol (per check); the interning tables then grow
    monotonically as the search discovers new local states and messages.
    The packed API (``initial_packed`` / ``enabled_packed`` /
    ``successor_packed``) is the hot path; ``encode`` / ``decode`` /
    ``execution_of`` bridge to the object graph for counterexample replay
    and invariants.

    The engine is purely an optimisation: enabled executions, their order
    and the successor states are identical to the object engine's, and
    packed fingerprints equal :meth:`GlobalState.fingerprint` bit for bit
    (so fingerprint stores and cross-process claim tables interoperate).
    """

    __slots__ = (
        "protocol",
        "_pids",
        "_index",
        "_num_processes",
        "_transitions",
        "_local_ids",
        "_locals",
        "_msg_ids",
        "_msgs",
        "_msg_sort",
        "_consumers",
        "_entry_hash_memo",
        "_net_contrib_memo",
        "_exec_memo",
        "_log",
        "memo_hits",
        "memo_misses",
    )

    def __init__(self, protocol: Protocol) -> None:
        #: Guard/action memo lookups served from the tables vs computed.
        self.memo_hits = 0
        self.memo_misses = 0
        self.protocol = protocol
        self._pids: Tuple[str, ...] = protocol.process_ids
        self._index = protocol.process_index
        self._num_processes = len(self._pids)
        position_of = {pid: position for position, pid in enumerate(self._pids)}
        transitions = []
        for index, spec in enumerate(protocol.transitions):
            spec_pids = tuple(sorted(spec.annotation.spec_reads))
            spec_positions = tuple(position_of[pid] for pid in spec_pids)
            transitions.append(
                CompiledTransition(
                    spec, index, position_of[spec.process_id],
                    spec_positions, spec_pids,
                )
            )
        self._transitions: Tuple[CompiledTransition, ...] = tuple(transitions)
        self._local_ids: Dict[Any, int] = {}
        self._locals: List[Any] = []
        self._msg_ids: Dict[Message, int] = {}
        self._msgs: List[Message] = []
        self._msg_sort: List[Tuple] = []
        #: Per message id: the indices of the transitions that may consume it.
        self._consumers: List[Tuple[int, ...]] = []
        #: Per process position: ``local id -> hash((position, pid, local))``.
        self._entry_hash_memo: Tuple[Dict[int, int], ...] = tuple(
            {} for _ in self._pids
        )
        self._net_contrib_memo = _NetContribs(self._msgs)
        #: Packed execution -> object-graph :class:`Execution`.
        self._exec_memo: Dict[PackedExecution, Execution] = {}
        #: The shared intern log once :meth:`share` attached one.
        self._log: Optional[InternLog] = None

    # ------------------------------------------------------------------ #
    # Interning
    # ------------------------------------------------------------------ #
    def _intern_local(self, local: Any) -> int:
        local_id = self._local_ids.get(local)
        if local_id is None:
            local_id = self._intern_miss(False, local)
        return local_id

    def _intern_message(self, message: Message) -> int:
        message_id = self._msg_ids.get(message)
        if message_id is None:
            message_id = self._intern_miss(True, message)
        return message_id

    def _intern_miss(self, is_message: bool, content: Any) -> int:
        """Give unseen content the next id — in log order once shared."""
        log = self._log
        if log is None:
            return self._grow(is_message, content)
        with log:
            self._replay(log)
            ids = self._msg_ids if is_message else self._local_ids
            content_id = ids.get(content)
            if content_id is None:
                log.append(is_message, content)
                content_id = self._grow(is_message, content)
        return content_id

    def _grow(self, is_message: bool, content: Any) -> int:
        """Append ``content`` to the local-state or the message tables."""
        if not is_message:
            local_id = len(self._locals)
            self._local_ids[content] = local_id
            self._locals.append(content)
            return local_id
        message = content
        sender_bit = 1 << self.protocol.sender_index[message.sender]
        message_id = len(self._msgs)
        self._msg_ids[message] = message_id
        self._msgs.append(message)
        self._msg_sort.append(message.sort_key())
        consumers = []
        for transition in self._transitions:
            candidate = (
                message.recipient == transition.pid
                and message.mtype == transition.message_type
                and (
                    transition.senders is None
                    or message.sender in transition.senders
                )
            )
            transition.candidate_flags.append(sender_bit if candidate else 0)
            if candidate:
                consumers.append(transition.index)
        self._consumers.append(tuple(consumers))
        return message_id

    def share(self) -> None:
        """Make this engine's ids valid in every process forked from here on
        (see the module docstring); call before forking."""
        if self._log is None:
            self._log = InternLog()

    def sync(self) -> None:
        """Catch up on what other processes interned; call before touching
        packed states that came from one."""
        log = self._log
        if log is not None and log.committed() != log.seen:
            with log:
                self._replay(log)

    def _replay(self, log: InternLog) -> None:
        for record in log.unread():
            self._grow(*record)

    def _entry_hash(self, position: int, local_id: int) -> int:
        memo = self._entry_hash_memo[position]
        value = memo.get(local_id)
        if value is None:
            value = _entry_hash(position, self._pids[position], self._locals[local_id])
            memo[local_id] = value
        return value

    def table_sizes(self) -> Dict[str, int]:
        """Sizes of the interning and memo tables, for diagnostics/tests."""
        return {
            "locals": len(self._locals),
            "messages": len(self._msgs),
            "enabled_entries": sum(
                len(t.enabled_memo) for t in self._transitions
            ),
            "action_entries": sum(len(t.action_memo) for t in self._transitions),
        }

    def memo_stats(self) -> Dict[str, int]:
        """Guard/action memo behaviour over this engine's lifetime.

        ``hits``/``misses`` count lookups across both the enabled-set and
        action memos; ``entries`` is the current resident total.  Surfaced
        through the metrics registry into every ``--json`` record's
        telemetry block.
        """
        sizes = self.table_sizes()
        return {
            "hits": self.memo_hits,
            "misses": self.memo_misses,
            "entries": sizes["enabled_entries"] + sizes["action_entries"],
        }

    @property
    def num_processes(self) -> int:
        """Number of processes; also the length of the locals word prefix."""
        return self._num_processes

    # ------------------------------------------------------------------ #
    # Encode / decode
    # ------------------------------------------------------------------ #
    def encode(self, state: GlobalState) -> PackedState:
        """Lower an object-graph state into packed form."""
        pairs = state.locals
        if tuple(pid for pid, _ in pairs) != self._pids:
            raise MPError(
                "state layout does not match the compiled protocol's process order"
            )
        lhash = 0
        local_words = []
        for position, (_pid, local) in enumerate(pairs):
            local_id = self._intern_local(local)
            local_words.append(local_id)
            lhash ^= self._entry_hash(position, local_id)
        nethash = 0
        net = []
        for message, count in state.network.items:
            if count > _COUNT_MASK:
                raise MPError(f"{count} copies of a message do not fit a network word")
            word = self._intern_message(message) << 32 | count
            net.append(word)
            nethash ^= self._net_contrib_memo[word]
        words = tuple(local_words + sorted(net))
        return words, lhash, nethash, combine_state_hash(lhash, nethash)

    def decode(self, packed: PackedState) -> GlobalState:
        """Materialise the object-graph state of a packed state.

        Off the hot path by design: used for counterexample replay and
        invariant-memo misses.  The precomputed accumulators are
        reattached, so nothing is rehashed.
        """
        words, lhash, nethash, _fp = packed
        count = self._num_processes
        locals_list = self._locals
        pairs = tuple(
            (pid, locals_list[words[position]])
            for position, pid in enumerate(self._pids)
        )
        msgs = self._msgs
        items = [(msgs[word >> 32], word & _COUNT_MASK) for word in words[count:]]
        items.sort(key=lambda item: item[0].sort_key())
        network = Network._from_canonical(tuple(items), nethash)
        return GlobalState._derive(pairs, network, self._index, lhash)

    def initial_packed(self) -> PackedState:
        """The protocol's initial state in packed form."""
        return self.encode(self.protocol.initial_state())

    def fingerprint(self, packed: PackedState) -> int:
        """The packed fingerprint (equals the decoded state's)."""
        return packed[3]

    # ------------------------------------------------------------------ #
    # Enabled executions
    # ------------------------------------------------------------------ #
    def enabled_packed(self, packed: PackedState) -> Tuple[PackedExecution, ...]:
        """All enabled executions, in the object engine's exact order."""
        words = packed[0]
        consumers = self._consumers
        buckets: Dict[int, List[int]] = {}
        for word in words[self._num_processes:]:
            message_id = word >> 32
            for index in consumers[message_id]:
                bucket = buckets.get(index)
                if bucket is None:
                    buckets[index] = [message_id]
                else:
                    bucket.append(message_id)
        if not buckets:
            return ()
        transitions = self._transitions
        result: List[PackedExecution] = []
        for index in sorted(buckets):
            transition = transitions[index]
            key = (words[transition.position], tuple(buckets[index]))
            executions = transition.enabled_memo.get(key)
            if executions is None:
                self.memo_misses += 1
                executions = tuple(
                    (index, consumed)
                    for consumed in self._compute_enabled(transition, key[0], key[1])
                )
                transition.enabled_memo[key] = executions
            else:
                self.memo_hits += 1
            result += executions
        return tuple(result)

    def pending_senders(self, packed: PackedState, index: int) -> int:
        """Sender bitmask (``protocol.sender_index`` positions) of the pending
        messages transition ``index`` could consume — the packed answer to
        :attr:`repro.checker.stategraph.StateGraph.pending_senders`."""
        flags = self._transitions[index].candidate_flags
        mask = 0
        for word in packed[0][self._num_processes:]:
            mask |= flags[word >> 32]
        return mask

    def _sorted_by_message(self, ids) -> List[int]:
        sort_keys = self._msg_sort
        return sorted(ids, key=lambda message_id: (sort_keys[message_id], message_id))

    def _compute_enabled(
        self, transition: CompiledTransition, local_id: int,
        candidate_ids: Tuple[int, ...],
    ) -> Tuple[Tuple[int, ...], ...]:
        """Memo-miss path: replicate :mod:`repro.mp.semantics` exactly."""
        order = self._sorted_by_message(candidate_ids)
        local = self._locals[local_id]
        msgs = self._msgs
        guard = transition.guard
        out: List[Tuple[int, ...]] = []
        if transition.is_single:
            for message_id in order:
                if guard(local, (msgs[message_id],)):
                    out.append((message_id,))
            return tuple(out)
        size = transition.quorum_size
        if len(order) < size:
            return ()
        if transition.distinct_senders:
            by_sender: Dict[str, List[int]] = {}
            for message_id in order:
                by_sender.setdefault(msgs[message_id].sender, []).append(message_id)
            available = sorted(by_sender)
            if len(available) < size:
                return ()
            if transition.peers is not None:
                required = sorted(transition.peers)
                if any(sender not in by_sender for sender in required):
                    return ()
                sender_combos = [tuple(required)]
            else:
                sender_combos = itertools.combinations(available, size)
            for combo in sender_combos:
                choices_per_sender = [by_sender[sender] for sender in combo]
                for choice in itertools.product(*choices_per_sender):
                    consumed = tuple(self._sorted_by_message(choice))
                    if guard(local, tuple(msgs[mid] for mid in consumed)):
                        out.append(consumed)
            return tuple(out)
        seen = set()
        for combo in itertools.combinations(range(len(order)), size):
            consumed = tuple(self._sorted_by_message(order[i] for i in combo))
            if consumed in seen:
                continue
            seen.add(consumed)
            if guard(local, tuple(msgs[mid] for mid in consumed)):
                out.append(consumed)
        return tuple(out)

    # ------------------------------------------------------------------ #
    # Successor application
    # ------------------------------------------------------------------ #
    def successor_packed(
        self, packed: PackedState, execution: PackedExecution
    ) -> PackedState:
        """Apply a packed execution; pure word/accumulator arithmetic."""
        words, lhash, nethash, _fp = packed
        transition = self._transitions[execution[0]]
        position = transition.position
        spec_key = transition.spec_key
        key = (words[position], execution[1], spec_key(words) if spec_key else ())
        effect = transition.action_memo.get(key)
        if effect is None:
            self.memo_misses += 1
            effect = self._apply_action(transition, words, execution[1])
            transition.action_memo[key] = effect
        else:
            self.memo_hits += 1
        new_local_id, lhash_change, changes = effect

        out = list(words)
        out[position] = new_local_id
        lhash ^= lhash_change
        count = self._num_processes
        contrib = self._net_contrib_memo
        for base, change in changes:
            i = bisect_left(out, base, count)
            word = out[i] if i < len(out) else -1
            if word >> 32 == base >> 32:
                nethash ^= contrib[word]
                word += change
                if word < base:
                    raise TransitionExecutionError(
                        f"transition {transition.spec.name} consumed more copies "
                        "of a message than the network holds"
                    )
                if word - base > _COUNT_MASK:
                    raise MPError(
                        f"transition {transition.spec.name} sent more copies of a "
                        "message than a network word holds"
                    )
                if word == base:
                    del out[i]
                    continue
                out[i] = word
            elif change < 0:
                raise TransitionExecutionError(
                    f"transition {transition.spec.name} consumed a message "
                    "not present in the network"
                )
            else:
                word = base + change
                out.insert(i, word)
            nethash ^= contrib[word]
        return tuple(out), lhash, nethash, combine_state_hash(lhash, nethash)

    def _apply_action(
        self, transition: CompiledTransition, words: Tuple[int, ...],
        consumed: Tuple[int, ...],
    ) -> ActionEffect:
        """Memo-miss path: run the real action once, intern its effect."""
        position = transition.position
        local_id = words[position]
        local = self._locals[local_id]
        messages = tuple(self._msgs[message_id] for message_id in consumed)
        spec_view = {
            pid: self._locals[words[spec]]
            for pid, spec in zip(transition.spec_pids, transition.spec_positions)
        }
        context = ActionContext(
            process_id=transition.pid,
            spec_view=spec_view,
            spec_reads=transition.spec_reads,
        )
        new_local = transition.action(local, messages, context)
        if new_local is None:
            new_local = local
        try:
            hash(new_local)
        except TypeError as exc:
            raise TransitionExecutionError(
                f"transition {transition.spec.name} produced an unhashable local state"
            ) from exc
        delta: Dict[int, int] = {}
        for message_id in consumed:
            delta[message_id] = delta.get(message_id, 0) - 1
        for message in context.outbox:
            message_id = self._intern_message(message)
            delta[message_id] = delta.get(message_id, 0) + 1
        changes = sorted((mid << 32, change) for mid, change in delta.items() if change)
        new_local_id = self._intern_local(new_local)
        lhash_change = self._entry_hash(position, local_id) ^ self._entry_hash(
            position, new_local_id
        )
        return new_local_id, lhash_change, tuple(changes)

    # ------------------------------------------------------------------ #
    # Object-graph bridges
    # ------------------------------------------------------------------ #
    def execution_of(self, execution: PackedExecution) -> Execution:
        """The object-graph :class:`Execution` of a packed execution."""
        cached = self._exec_memo.get(execution)
        if cached is None:
            spec = self._transitions[execution[0]].spec
            cached = Execution(
                spec, tuple(self._msgs[message_id] for message_id in execution[1])
            )
            self._exec_memo[execution] = cached
        return cached

    # Convenience mirrors of the object engine's API (tests, exploration).
    def initial_state(self) -> GlobalState:
        """The protocol's initial state (object form)."""
        return self.protocol.initial_state()

    def enabled(self, state: GlobalState) -> Tuple[Execution, ...]:
        """Object-level enabled set, computed through the tables."""
        return tuple(
            self.execution_of(execution)
            for execution in self.enabled_packed(self.encode(state))
        )

    def successor(self, state: GlobalState, execution: Execution) -> GlobalState:
        """Object-level successor, computed through the tables."""
        packed = self.encode(state)
        target = (
            self.protocol.transitions.index(execution.transition),
            tuple(self._intern_message(message) for message in execution.messages),
        )
        return self.decode(self.successor_packed(packed, target))
