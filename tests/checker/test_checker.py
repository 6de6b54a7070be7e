"""Unit tests for checking a protocol through ``run_plan``."""

import pytest

from repro.checker.property import Invariant, always_true
from repro.engine import CheckPlan, run_plan

from ..conftest import build_ping_pong, build_vote_collection

REDUCTIONS = ("none", "spor", "spor-net", "dpor")


def pongs_below(limit):
    return Invariant(
        name=f"pongs<{limit}",
        predicate=lambda state, _protocol: state.local("ping").pongs < limit,
    )


class TestStrategies:
    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_all_strategies_verify_trivial_property(self, reduction):
        protocol = build_vote_collection(voters=3, quorum=2)
        result = run_plan(protocol, always_true(), CheckPlan(reduction=reduction))
        assert result.verified
        assert result.strategy == ("unreduced" if reduction == "none" else reduction)

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_all_strategies_find_violation(self, reduction):
        protocol = build_ping_pong(rounds=2)
        result = run_plan(protocol, pongs_below(2), CheckPlan(reduction=reduction))
        assert not result.verified
        assert result.counterexample is not None

    def test_spor_explores_no_more_than_unreduced(self):
        protocol = build_vote_collection(voters=3, quorum=2)
        unreduced = run_plan(protocol, always_true(), CheckPlan())
        reduced = run_plan(protocol, always_true(), CheckPlan(reduction="spor-net"))
        assert (
            reduced.statistics.states_visited
            <= unreduced.statistics.states_visited
        )

    def test_default_plan_is_unreduced(self):
        protocol = build_ping_pong(rounds=1)
        result = run_plan(protocol, always_true(), CheckPlan())
        assert result.strategy == "unreduced"
        assert result.engine == "serial-dfs"
        assert result.stateful

    def test_dpor_is_stateless(self):
        protocol = build_ping_pong(rounds=1)
        result = run_plan(protocol, always_true(), CheckPlan(reduction="dpor"))
        assert not result.stateful


class TestOptions:
    def test_search_config_is_honoured(self):
        protocol = build_vote_collection(voters=3, quorum=2)
        result = run_plan(protocol, always_true(), CheckPlan(max_states=3))
        assert not result.complete

    def test_invalid_seed_heuristic_rejected(self):
        with pytest.raises(ValueError):
            CheckPlan(reduction="spor", seed_heuristic="nonsense")

    def test_named_seed_heuristics_accepted(self):
        protocol = build_vote_collection(voters=3, quorum=2)
        for name in ("opposite-transaction", "transaction", "first"):
            plan = CheckPlan(reduction="spor", seed_heuristic=name)
            assert run_plan(protocol, always_true(), plan).verified


class TestResultContents:
    def test_result_identifies_protocol_and_property(self, ping_pong):
        result = run_plan(ping_pong, always_true(), CheckPlan())
        assert result.protocol_name == ping_pong.name
        assert result.property_name == "true"

    def test_outcome_labels(self, ping_pong_two_rounds):
        verified = run_plan(ping_pong_two_rounds, always_true(), CheckPlan())
        violated = run_plan(ping_pong_two_rounds, pongs_below(1), CheckPlan())
        assert verified.outcome_label() == "Verified"
        assert violated.outcome_label() == "CE"
        assert violated.found_counterexample

    def test_summary_mentions_states(self, ping_pong):
        result = run_plan(ping_pong, always_true(), CheckPlan())
        assert "states" in result.summary()
