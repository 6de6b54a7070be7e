"""Unit tests for the operational semantics (enabled sets and successors)."""

import random
from dataclasses import dataclass

import pytest

from repro.mp import (
    ActionContext,
    LporAnnotation,
    ProtocolBuilder,
    exact_quorum,
)
from repro.mp.errors import TransitionExecutionError
from repro.mp.process import LocalState
from repro.mp.semantics import (
    apply_execution,
    enabled_executions,
    enabled_executions_for,
    is_enabled,
    state_graph_edges,
    successors,
)

from ..conftest import build_ping_pong, build_vote_collection


@dataclass(frozen=True)
class Sink(LocalState):
    """Local state recording which senders were consumed."""

    seen: frozenset = frozenset()


def build_quorum_sink(senders=3, quorum=2, guard=None, quorum_peers=None,
                      bad_action=False):
    """One sink process with a quorum transition; senders triggered by the driver."""
    builder = ProtocolBuilder("sink")
    builder.add_process("sink", "sink", Sink())
    sender_ids = tuple(f"s{i + 1}" for i in range(senders))

    def forward(local, messages, ctx):
        (message,) = messages
        ctx.send("sink", "DATA", origin=ctx.process_id)
        return local

    for pid in sender_ids:
        builder.add_process(pid, "sender", Sink())
        builder.add_transition(
            name=f"GO@{pid}", process_id=pid, message_type="GO", action=forward,
            annotation=LporAnnotation(sends=()),
        )
        builder.trigger("GO", pid)

    def consume(local, messages, _ctx):
        if bad_action:
            return ["unhashable"]
        return Sink(seen=local.seen | {m["origin"] for m in messages})

    spec = exact_quorum(quorum)
    builder.add_transition(
        name="DATA@sink", process_id="sink", message_type="DATA",
        quorum=spec, guard=guard, action=consume, quorum_peers=quorum_peers,
        annotation=LporAnnotation(possible_senders=frozenset(sender_ids)),
    )
    return builder.build()


class TestSingleMessageEnabledness:
    def test_initially_only_driver_triggered_transitions_enabled(self, ping_pong):
        state = ping_pong.initial_state()
        enabled = enabled_executions(state, ping_pong)
        assert [e.transition.name for e in enabled] == ["START@ping"]

    def test_is_enabled_helper(self, ping_pong):
        state = ping_pong.initial_state()
        assert is_enabled(state, ping_pong.transition("START@ping"))
        assert not is_enabled(state, ping_pong.transition("PING@pong"))
        assert not is_enabled(state, ping_pong.transition("PONG@ping"))

    def test_enabled_executions_for_restricted_transition(self, ping_pong):
        state = ping_pong.initial_state()
        assert enabled_executions_for(state, ping_pong.transition("PONG@ping")) == ()

    def test_two_pending_messages_give_two_executions(self):
        protocol = build_ping_pong(rounds=2)
        state = protocol.initial_state()
        enabled = enabled_executions(state, protocol)
        # Both PING driver messages are identical, so the multiset holds one
        # distinct message with multiplicity two and one execution per
        # distinct message.
        assert len(enabled) == 1

    def test_guard_filters_executions(self):
        protocol = build_quorum_sink(senders=2, quorum=1,
                                     guard=lambda _local, msgs: msgs[0]["origin"] == "s1")
        state = protocol.initial_state()
        # Drive both senders so DATA messages exist.
        for _ in range(2):
            execution = next(
                e for e in enabled_executions(state, protocol)
                if e.transition.name.startswith("GO")
            )
            state = apply_execution(state, execution)
        data_executions = enabled_executions_for(state, protocol.transition("DATA@sink"))
        assert len(data_executions) == 1
        assert data_executions[0].messages[0]["origin"] == "s1"


class TestOneNetworkScanPerState:
    def test_bucketed_enabled_set_equals_the_per_transition_scan(self):
        # ``enabled_executions`` buckets the network once for all
        # transitions; ``enabled_executions_for`` still scans it per
        # transition.  Same executions, same order, along random walks.
        from repro.protocols.paxos import PaxosConfig, build_paxos_quorum

        protocol = build_paxos_quorum(PaxosConfig(2, 3, 1))
        rng = random.Random(7)
        checked = 0
        for _ in range(10):
            state = protocol.initial_state()
            while True:
                whole = enabled_executions(state, protocol)
                assert whole == tuple(
                    execution for transition in protocol.transitions
                    for execution in enabled_executions_for(state, transition))
                checked += 1
                if not whole:
                    break
                state = apply_execution(state, rng.choice(whole))
        assert checked > 100

    @pytest.mark.parametrize("key", [
        "paxos-2-2-1", "storage-3-1", "multicast-2-1-2-1-lossy", "crashrecovery-2-1",
    ])
    def test_candidates_come_out_sorted_without_sorting(self, key):
        # ``_candidate_messages`` filters the canonical network and does not
        # re-sort: on sampled reachable states of one cell per family (one
        # of them lossy) the candidates are their own ``sort_key`` sort.
        from repro.mp.message import Message
        from repro.mp.semantics import _candidate_messages
        from repro.protocols.catalog import entry_by_key

        checked = 0
        for protocol in (entry_by_key(key).quorum_model(), entry_by_key(key).single_model()):
            rng = random.Random(7)
            for _ in range(20):
                state = protocol.initial_state()
                for _ in range(40):
                    for transition in protocol.transitions:
                        pending = state.network.pending_for(
                            transition.process_id, mtype=transition.message_type)
                        candidates = _candidate_messages(pending, transition)
                        assert candidates == tuple(
                            sorted(candidates, key=Message.sort_key))
                        checked += len(candidates) > 1
                    enabled = enabled_executions(state, protocol)
                    if not enabled:
                        break
                    state = apply_execution(state, rng.choice(enabled))
        assert checked > 20

    def test_transition_subset_is_honoured(self, ping_pong):
        state = ping_pong.initial_state()
        start = ping_pong.transition("START@ping")
        assert enabled_executions(state, ping_pong, transitions=[start]) == (
            enabled_executions_for(state, start))
        assert enabled_executions(
            state, ping_pong, transitions=iter([ping_pong.transition("PONG@ping")])) == ()


class TestQuorumEnabledness:
    def drive_all(self, protocol):
        """Execute every driver-triggered GO transition."""
        state = protocol.initial_state()
        while True:
            go = [e for e in enabled_executions(state, protocol)
                  if e.transition.name.startswith("GO")]
            if not go:
                return state
            state = apply_execution(state, go[0])

    def test_no_execution_below_quorum(self):
        protocol = build_quorum_sink(senders=3, quorum=2)
        state = protocol.initial_state()
        go = [e for e in enabled_executions(state, protocol) if e.transition.name.startswith("GO")]
        state = apply_execution(state, go[0])
        assert enabled_executions_for(state, protocol.transition("DATA@sink")) == ()

    def test_all_sender_combinations_enumerated(self):
        protocol = build_quorum_sink(senders=3, quorum=2)
        state = self.drive_all(protocol)
        executions = enabled_executions_for(state, protocol.transition("DATA@sink"))
        sender_sets = {e.senders for e in executions}
        assert sender_sets == {
            frozenset({"s1", "s2"}),
            frozenset({"s1", "s3"}),
            frozenset({"s2", "s3"}),
        }

    def test_quorum_peers_restrict_combinations(self):
        protocol = build_quorum_sink(senders=3, quorum=2,
                                     quorum_peers=frozenset({"s1", "s3"}))
        state = self.drive_all(protocol)
        executions = enabled_executions_for(state, protocol.transition("DATA@sink"))
        assert {e.senders for e in executions} == {frozenset({"s1", "s3"})}

    def test_quorum_peers_missing_sender_disables(self):
        protocol = build_quorum_sink(senders=3, quorum=2,
                                     quorum_peers=frozenset({"s1", "s2"}))
        state = protocol.initial_state()
        # Only drive s3: the peer-restricted quorum must stay disabled.
        go3 = next(e for e in enabled_executions(state, protocol)
                   if e.transition.name == "GO@s3")
        state = apply_execution(state, go3)
        assert enabled_executions_for(state, protocol.transition("DATA@sink")) == ()

    def test_quorum_guard_applies_to_message_set(self):
        protocol = build_quorum_sink(
            senders=3, quorum=2,
            guard=lambda _local, msgs: all(m["origin"] != "s2" for m in msgs),
        )
        state = self.drive_all(protocol)
        executions = enabled_executions_for(state, protocol.transition("DATA@sink"))
        assert {e.senders for e in executions} == {frozenset({"s1", "s3"})}


class TestSuccessors:
    def test_apply_execution_consumes_and_sends(self, ping_pong):
        state = ping_pong.initial_state()
        (start,) = enabled_executions(state, ping_pong)
        after_start = apply_execution(state, start)
        assert len(after_start.network.pending_for("ping", mtype="START")) == 0
        assert len(after_start.network.pending_for("pong", mtype="PING")) == 1
        (ping,) = enabled_executions(after_start, ping_pong)
        after_ping = apply_execution(after_start, ping)
        assert len(after_ping.network.pending_for("pong", mtype="PING")) == 0
        assert len(after_ping.network.pending_for("ping", mtype="PONG")) == 1
        assert after_ping.local("pong").pings == 1

    def test_apply_execution_returns_new_state(self, ping_pong):
        state = ping_pong.initial_state()
        (execution,) = enabled_executions(state, ping_pong)
        successor = apply_execution(state, execution)
        assert successor != state
        assert state.local("ping").sent == 0
        assert successor.local("ping").sent == 1

    def test_action_returning_none_keeps_local_state(self):
        builder = ProtocolBuilder("noop")
        builder.add_process("p", "t", Sink())
        builder.add_transition("T@p", "p", "T", lambda _l, _m, _c: None)
        builder.trigger("T", "p")
        protocol = builder.build()
        state = protocol.initial_state()
        (execution,) = enabled_executions(state, protocol)
        successor = apply_execution(state, execution)
        assert successor.local("p") == Sink()

    def test_unhashable_local_state_rejected(self):
        protocol = build_quorum_sink(senders=2, quorum=1, bad_action=True)
        state = protocol.initial_state()
        go = [e for e in enabled_executions(state, protocol) if e.transition.name.startswith("GO")]
        state = apply_execution(state, go[0])
        (data,) = enabled_executions_for(state, protocol.transition("DATA@sink"))
        with pytest.raises(TransitionExecutionError):
            apply_execution(state, data)

    def test_successors_pairs_executions_with_states(self, ping_pong):
        state = ping_pong.initial_state()
        pairs = successors(state, ping_pong)
        assert len(pairs) == 1
        execution, successor = pairs[0]
        assert execution.transition.name == "START@ping"
        assert successor.local("ping").sent == 1


class TestStateGraphEnumeration:
    def test_ping_pong_state_graph(self):
        protocol = build_ping_pong(rounds=1)
        states, edges = state_graph_edges(protocol)
        # init -> after START -> after PING -> after PONG
        assert len(states) == 4
        assert len(edges) == 3

    def test_vote_collection_counts(self):
        protocol = build_vote_collection(voters=2, quorum=2)
        states, edges = state_graph_edges(protocol)
        assert len(states) >= 4
        assert all(isinstance(edge, tuple) and len(edge) == 2 for edge in edges)

    def test_max_states_bound_enforced(self):
        protocol = build_vote_collection(voters=3, quorum=2)
        with pytest.raises(RuntimeError):
            state_graph_edges(protocol, max_states=2)
