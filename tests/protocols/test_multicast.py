"""Tests of the Echo Multicast models (honest and Byzantine behaviours)."""

import pytest

from repro.engine import CheckPlan, run_plan
from repro.mp.semantics import apply_execution, enabled_executions
from repro.protocols.multicast import (
    MulticastConfig,
    agreement_invariant,
    build_multicast_quorum,
    build_multicast_single,
    echo_uniqueness,
    honest_delivery_integrity,
)

SPOR_NET = CheckPlan(reduction="spor-net")


class TestConfig:
    def test_paper_settings_parameters(self):
        setting = MulticastConfig(3, 0, 1, 1)
        assert setting.receivers_total == 4
        assert setting.assumed_faults == 1
        assert setting.echo_quorum == 3
        assert not setting.exceeds_threshold

    def test_no_byzantine_receiver_setting(self):
        setting = MulticastConfig(2, 1, 0, 1)
        assert setting.assumed_faults == 0
        assert setting.echo_quorum == 2
        assert not setting.exceeds_threshold

    def test_wrong_agreement_setting_exceeds_threshold(self):
        setting = MulticastConfig(2, 1, 2, 1)
        assert setting.assumed_faults == 1
        assert setting.exceeds_threshold

    def test_setting_label(self):
        assert MulticastConfig(3, 1, 1, 1).setting_label == "(3,1,1,1)"

    def test_equivocation_groups_cover_honest_receivers(self):
        setting = MulticastConfig(3, 0, 1, 1)
        group_x, group_y = setting.equivocation_groups()
        assert set(group_x) | set(group_y) == set(setting.honest_receiver_ids())
        assert not set(group_x) & set(group_y)

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError):
            MulticastConfig(0, 1, 0, 1)
        with pytest.raises(ValueError):
            MulticastConfig(2, 0, 0, 0)


class TestModelStructure:
    def test_quorum_model_echo_transitions(self):
        protocol = build_multicast_quorum(MulticastConfig(2, 1, 1, 1))
        assert protocol.transition("ECHO@initiator1").is_quorum_transition
        assert protocol.transition("ECHO_X@byz_initiator1").is_quorum_transition
        assert protocol.transition("ECHO_Y@byz_initiator1").is_quorum_transition
        assert protocol.transition("INIT@receiver1").annotation.is_reply

    def test_single_model_is_single_message_only(self):
        protocol = build_multicast_single(MulticastConfig(2, 1, 1, 1))
        assert all(t.is_single_message for t in protocol.transitions)

    def test_commit_is_visible(self):
        protocol = build_multicast_quorum(MulticastConfig(3, 0, 1, 1))
        assert protocol.transition("COMMIT@receiver1").annotation.visible


class TestBehaviour:
    def run_to_completion(self, protocol):
        state = protocol.initial_state()
        while True:
            enabled = enabled_executions(state, protocol)
            if not enabled:
                return state
            state = apply_execution(state, enabled[0])

    def test_honest_multicast_delivers_to_all(self):
        protocol = build_multicast_quorum(MulticastConfig(3, 1, 0, 0))
        final = self.run_to_completion(protocol)
        for pid in ("receiver1", "receiver2", "receiver3"):
            delivered = final.local(pid).delivered
            assert ("initiator1", "msg[initiator1]") in delivered

    def test_honest_receiver_echoes_once_per_initiator(self):
        protocol = build_multicast_quorum(MulticastConfig(2, 1, 0, 1))
        final = self.run_to_completion(protocol)
        for pid in ("receiver1", "receiver2"):
            echoed_initiators = [initiator for initiator, _ in final.local(pid).echoed]
            assert len(echoed_initiators) == len(set(echoed_initiators))

    def test_byzantine_initiator_cannot_commit_both_within_threshold(self):
        protocol = build_multicast_quorum(MulticastConfig(3, 0, 1, 1))
        final = self.run_to_completion(protocol)
        assert len(final.local("byz_initiator1").committed) <= 1


class TestMessageLoss:
    """The lossy-channel fault model behind ``message_loss=True``."""

    def drop_transitions(self, protocol):
        return [
            spec.name for spec in protocol.transitions
            if spec.name.startswith("DROP_")
        ]

    def test_lossy_models_gain_drop_transitions_per_honest_receiver(self):
        config = MulticastConfig(2, 1, 0, 1, message_loss=True)
        for builder in (build_multicast_quorum, build_multicast_single):
            names = self.drop_transitions(builder(config))
            assert "DROP_INIT@receiver1" in names
            assert "DROP_COMMIT@receiver1" in names
            assert "DROP_INIT@receiver2" in names
            assert "DROP_COMMIT@receiver2" in names

    def test_default_models_have_no_drop_transitions(self):
        protocol = build_multicast_quorum(MulticastConfig(2, 1, 0, 1))
        assert self.drop_transitions(protocol) == []

    def test_metadata_records_the_fault_model(self):
        lossy = build_multicast_quorum(MulticastConfig(2, 1, 0, 1, message_loss=True))
        plain = build_multicast_quorum(MulticastConfig(2, 1, 0, 1))
        assert lossy.metadata["message_loss"] is True
        assert plain.metadata["message_loss"] is False

    def test_drop_transitions_stay_visible_to_reduction(self):
        # Dropping a message changes what can ever be delivered; marking
        # the transitions visible keeps stubborn-set reduction conservative.
        protocol = build_multicast_quorum(MulticastConfig(2, 1, 0, 1, message_loss=True))
        annotation = protocol.transition("DROP_INIT@receiver1").annotation
        assert annotation.visible

    def test_loss_only_removes_deliveries_agreement_still_holds(self):
        config = MulticastConfig(2, 1, 0, 1, message_loss=True)
        result = run_plan(build_multicast_quorum(config), agreement_invariant(), SPOR_NET)
        assert result.verified

    def test_loss_keeps_the_wrong_agreement_violation(self):
        config = MulticastConfig(2, 1, 2, 1, message_loss=True)
        result = run_plan(
            build_multicast_quorum(config), agreement_invariant(), CheckPlan()
        )
        assert not result.verified


class TestVerification:
    @pytest.mark.parametrize(
        "setting",
        [MulticastConfig(3, 0, 1, 1), MulticastConfig(2, 1, 0, 1)],
        ids=["(3,0,1,1)", "(2,1,0,1)"],
    )
    @pytest.mark.parametrize("builder", [build_multicast_quorum, build_multicast_single])
    def test_agreement_holds_within_threshold(self, setting, builder):
        result = run_plan(builder(setting), agreement_invariant(), SPOR_NET)
        assert result.verified

    @pytest.mark.parametrize("builder", [build_multicast_quorum, build_multicast_single])
    def test_agreement_violated_beyond_threshold(self, builder):
        protocol = builder(MulticastConfig(2, 1, 2, 1))
        result = run_plan(protocol, agreement_invariant(), SPOR_NET)
        assert not result.verified
        # The violating state shows two honest receivers delivering the two
        # conflicting messages of the Byzantine initiator.
        delivered = set()
        for pid in ("receiver1", "receiver2"):
            delivered |= {
                value
                for initiator, value in result.counterexample.violating_state.local(pid).delivered
                if initiator == "byz_initiator1"
            }
        assert len(delivered) == 2

    def test_delivery_integrity_holds(self):
        protocol = build_multicast_quorum(MulticastConfig(2, 1, 1, 1))
        result = run_plan(protocol, honest_delivery_integrity(), SPOR_NET)
        assert result.verified

    def test_echo_uniqueness_holds(self):
        protocol = build_multicast_quorum(MulticastConfig(2, 1, 1, 1))
        result = run_plan(protocol, echo_uniqueness(), SPOR_NET)
        assert result.verified

    def test_quorum_model_not_larger_than_single_message_model(self):
        setting = MulticastConfig(3, 0, 1, 1)
        quorum_result = run_plan(
            build_multicast_quorum(setting), agreement_invariant(), CheckPlan()
        )
        single_result = run_plan(
            build_multicast_single(setting), agreement_invariant(), CheckPlan()
        )
        assert (
            quorum_result.statistics.states_visited
            <= single_result.statistics.states_visited
        )
