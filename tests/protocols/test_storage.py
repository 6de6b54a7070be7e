"""Tests of the regular storage models."""

import pytest

from repro.engine import CheckPlan, run_plan
from repro.mp.semantics import apply_execution, enabled_executions
from repro.protocols.storage import (
    INITIAL_VALUE,
    WRITTEN_VALUE,
    StorageConfig,
    base_object_monotonicity,
    build_storage_quorum,
    build_storage_single,
    regularity_invariant,
    wrong_regularity_invariant,
)

SPOR_NET = CheckPlan(reduction="spor-net")


class TestConfig:
    def test_setting_label(self):
        assert StorageConfig(3, 2).setting_label == "(3,2)"

    @pytest.mark.parametrize("bases, majority", [(1, 1), (2, 2), (3, 2), (5, 3)])
    def test_majority(self, bases, majority):
        assert StorageConfig(bases, 1).majority == majority

    def test_invalid_setting_rejected(self):
        with pytest.raises(ValueError):
            StorageConfig(0, 1)

    def test_process_ids(self):
        config = StorageConfig(3, 2)
        assert config.writer_id() == "writer"
        assert config.base_ids() == ("base1", "base2", "base3")
        assert config.reader_ids() == ("reader1", "reader2")


class TestModelStructure:
    def test_quorum_model_quorum_transitions(self):
        protocol = build_storage_quorum(StorageConfig(3, 1))
        assert protocol.transition("STORE_ACK@writer").is_quorum_transition
        assert protocol.transition("VAL@reader1").is_quorum_transition
        assert protocol.transition("STORE@base1").annotation.is_reply
        assert protocol.transition("GET@base1").annotation.is_reply

    def test_single_model_is_single_message_only(self):
        protocol = build_storage_single(StorageConfig(3, 2))
        assert all(t.is_single_message for t in protocol.transitions)

    def test_reader_transitions_declare_spec_reads(self):
        protocol = build_storage_quorum(StorageConfig(3, 1))
        assert protocol.transition("READ_START@reader1").annotation.spec_reads == frozenset(
            {"writer"}
        )
        assert protocol.transition("VAL@reader1").annotation.spec_reads == frozenset({"writer"})

    def test_driver_triggers_write_and_reads(self):
        protocol = build_storage_quorum(StorageConfig(3, 2))
        recipients = sorted(m.recipient for m in protocol.driver_messages)
        assert recipients == ["reader1", "reader2", "writer"]


class TestBehaviour:
    def run_to_completion(self, protocol):
        state = protocol.initial_state()
        while True:
            enabled = enabled_executions(state, protocol)
            if not enabled:
                return state
            state = apply_execution(state, enabled[0])

    @pytest.mark.parametrize("builder", [build_storage_quorum, build_storage_single])
    def test_read_returns_a_register_value(self, builder):
        protocol = builder(StorageConfig(3, 1))
        final = self.run_to_completion(protocol)
        reader = final.local("reader1")
        assert reader.phase == "done"
        assert reader.returned in (INITIAL_VALUE, WRITTEN_VALUE)

    def test_write_eventually_completes(self):
        protocol = build_storage_quorum(StorageConfig(3, 1))
        final = self.run_to_completion(protocol)
        assert final.local("writer").phase == "done"
        stored = [final.local(f"base{i}").value for i in (1, 2, 3)]
        assert stored.count(WRITTEN_VALUE) >= 2


class TestVerification:
    @pytest.mark.parametrize("builder", [build_storage_quorum, build_storage_single])
    def test_regularity_holds(self, builder):
        protocol = builder(StorageConfig(3, 1))
        result = run_plan(protocol, regularity_invariant(), SPOR_NET)
        assert result.verified

    def test_base_monotonicity_holds(self):
        protocol = build_storage_quorum(StorageConfig(3, 1))
        result = run_plan(protocol, base_object_monotonicity(), SPOR_NET)
        assert result.verified

    @pytest.mark.parametrize("builder", [build_storage_quorum, build_storage_single])
    def test_wrong_regularity_violated(self, builder):
        protocol = builder(StorageConfig(3, 1))
        result = run_plan(protocol, wrong_regularity_invariant(), SPOR_NET)
        assert not result.verified
        violating_reader = result.counterexample.violating_state.local("reader1")
        assert violating_reader.returned == INITIAL_VALUE
        assert violating_reader.write_done_at_end

    def test_wrong_regularity_found_by_unreduced_search_too(self):
        protocol = build_storage_quorum(StorageConfig(2, 1))
        unreduced = run_plan(protocol, wrong_regularity_invariant(), CheckPlan())
        reduced = run_plan(protocol, wrong_regularity_invariant(), SPOR_NET)
        assert not unreduced.verified and not reduced.verified

    def test_quorum_model_not_larger_than_single_message_model(self):
        config = StorageConfig(3, 1)
        quorum_result = run_plan(
            build_storage_quorum(config), regularity_invariant(), CheckPlan()
        )
        single_result = run_plan(
            build_storage_single(config), regularity_invariant(), CheckPlan()
        )
        assert (
            quorum_result.statistics.states_visited
            <= single_result.statistics.states_visited
        )
