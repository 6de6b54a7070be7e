"""Tests of the Paxos models (quorum, single-message, faulty)."""

import pytest

from repro.engine import CheckPlan, run_plan
from repro.mp.semantics import apply_execution, enabled_executions
from repro.protocols.paxos import (
    PaxosConfig,
    build_faulty_paxos_quorum,
    build_faulty_paxos_single,
    build_paxos_quorum,
    build_paxos_single,
    acceptor_consistency,
    chosen_value_validity,
    consensus_invariant,
)

SPOR_NET = CheckPlan(reduction="spor-net")


class TestConfig:
    def test_setting_label(self):
        assert PaxosConfig(2, 3, 1).setting_label == "(2,3,1)"

    @pytest.mark.parametrize("acceptors, majority", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3)])
    def test_majority(self, acceptors, majority):
        assert PaxosConfig(1, acceptors, 1).majority == majority

    def test_process_ids(self):
        config = PaxosConfig(2, 3, 1)
        assert config.proposer_ids() == ("proposer1", "proposer2")
        assert config.acceptor_ids() == ("acceptor1", "acceptor2", "acceptor3")
        assert config.learner_ids() == ("learner1",)

    def test_distinct_proposals(self):
        config = PaxosConfig(3, 3, 1)
        numbers = {config.proposal_number(i) for i in range(3)}
        values = {config.proposal_value(i) for i in range(3)}
        assert len(numbers) == 3 and len(values) == 3

    def test_invalid_setting_rejected(self):
        with pytest.raises(ValueError):
            PaxosConfig(0, 3, 1)


class TestModelStructure:
    def test_quorum_model_transition_inventory(self):
        protocol = build_paxos_quorum(PaxosConfig(2, 3, 1))
        names = protocol.transition_names()
        assert len(names) == 2 * 2 + 2 * 3 + 1
        assert protocol.transition("READ_REPL@proposer1").is_quorum_transition
        assert protocol.transition("ACCEPT@learner1").is_quorum_transition
        assert protocol.transition("READ@acceptor1").is_single_message

    def test_single_model_has_no_quorum_transitions(self):
        protocol = build_paxos_single(PaxosConfig(2, 3, 1))
        assert all(t.is_single_message for t in protocol.transitions)

    def test_driver_triggers_each_proposer(self):
        protocol = build_paxos_quorum(PaxosConfig(2, 3, 1))
        recipients = [m.recipient for m in protocol.driver_messages]
        assert sorted(recipients) == ["proposer1", "proposer2"]

    def test_read_is_annotated_as_reply(self):
        protocol = build_paxos_quorum(PaxosConfig(1, 3, 1))
        assert protocol.transition("READ@acceptor1").annotation.is_reply

    def test_accept_is_visible(self):
        protocol = build_paxos_quorum(PaxosConfig(1, 3, 1))
        assert protocol.transition("ACCEPT@learner1").annotation.visible

    def test_metadata_describes_variant(self):
        quorum_model = build_paxos_quorum(PaxosConfig(1, 3, 1))
        single_model = build_paxos_single(PaxosConfig(1, 3, 1))
        assert quorum_model.metadata["model"] == "quorum"
        assert single_model.metadata["model"] == "single-message"


class TestBehaviour:
    def run_to_completion(self, protocol):
        state = protocol.initial_state()
        while True:
            enabled = enabled_executions(state, protocol)
            if not enabled:
                return state
            state = apply_execution(state, enabled[0])

    def test_single_proposer_run_learns_its_value(self):
        protocol = build_paxos_quorum(PaxosConfig(1, 3, 1))
        final = self.run_to_completion(protocol)
        assert final.local("learner1").learned == frozenset({"value1"})

    def test_single_message_model_also_learns(self):
        protocol = build_paxos_single(PaxosConfig(1, 3, 1))
        final = self.run_to_completion(protocol)
        assert final.local("learner1").learned == frozenset({"value1"})

    def test_acceptors_promise_monotonically(self):
        protocol = build_paxos_quorum(PaxosConfig(2, 2, 1))
        final = self.run_to_completion(protocol)
        for pid in ("acceptor1", "acceptor2"):
            local = final.local(pid)
            assert local.promised_no >= local.accepted_no


class TestVerification:
    @pytest.mark.parametrize("builder", [build_paxos_quorum, build_paxos_single])
    def test_consensus_holds_in_small_settings(self, builder):
        protocol = builder(PaxosConfig(2, 2, 1))
        result = run_plan(protocol, consensus_invariant(), SPOR_NET)
        assert result.verified

    def test_validity_holds(self):
        protocol = build_paxos_quorum(PaxosConfig(2, 2, 1))
        result = run_plan(protocol, chosen_value_validity(), SPOR_NET)
        assert result.verified

    def test_acceptor_consistency_holds(self):
        protocol = build_paxos_quorum(PaxosConfig(2, 2, 1))
        result = run_plan(protocol, acceptor_consistency(), SPOR_NET)
        assert result.verified

    def test_quorum_model_not_larger_than_single_message_model(self):
        config = PaxosConfig(2, 2, 1)
        invariant = consensus_invariant()
        quorum_result = run_plan(build_paxos_quorum(config), invariant, CheckPlan())
        single_result = run_plan(build_paxos_single(config), invariant, CheckPlan())
        assert (
            quorum_result.statistics.states_visited
            <= single_result.statistics.states_visited
        )


class TestFaultyPaxos:
    @pytest.mark.parametrize(
        "builder", [build_faulty_paxos_quorum, build_faulty_paxos_single]
    )
    def test_consensus_violated_at_paper_setting(self, builder):
        protocol = builder(PaxosConfig(2, 3, 1))
        result = run_plan(protocol, consensus_invariant(), SPOR_NET)
        assert not result.verified
        learned = set()
        for pid, local in result.counterexample.violating_state.locals:
            if pid.startswith("learner"):
                learned |= set(local.learned)
        assert len(learned) > 1

    def test_counterexample_replays_through_semantics(self):
        protocol = build_faulty_paxos_quorum(PaxosConfig(2, 3, 1))
        result = run_plan(protocol, consensus_invariant(), SPOR_NET)
        state = result.counterexample.initial_state
        for step in result.counterexample.steps:
            state = apply_execution(state, step.execution)
            assert state == step.state
        assert not consensus_invariant().holds_in(state, protocol)

    def test_faulty_model_metadata_flag(self):
        protocol = build_faulty_paxos_quorum(PaxosConfig(2, 3, 1))
        assert protocol.metadata["faulty_learners"] is True
        assert "faulty" in protocol.name
