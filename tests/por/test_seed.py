"""Unit tests for the seed-transition heuristics."""

import pytest

from repro import CheckPlan, run_plan
from repro.mp.semantics import enabled_executions
from repro.por.dependence import DependenceRelation
from repro.por.seed import (
    SEED_HEURISTICS,
    first_enabled_seed,
    make_fewest_dependents_seed,
    make_seed_heuristic,
    opposite_transaction_seed,
    transaction_seed,
)
from repro.protocols.paxos import PaxosConfig, build_paxos_quorum, consensus_invariant

from ..conftest import build_vote_collection


def paxos_mixed_state():
    """A Paxos state where an instance-starting and another transition are enabled."""
    protocol = build_paxos_quorum(PaxosConfig(2, 3, 1))
    state = protocol.initial_state()
    # Execute proposer1's PROPOSE so acceptors' READ transitions become
    # enabled alongside proposer2's (still pending) PROPOSE.
    enabled = enabled_executions(state, protocol)
    propose1 = next(e for e in enabled if e.transition.name == "PROPOSE@proposer1")
    from repro.mp.semantics import apply_execution

    state = apply_execution(state, propose1)
    return protocol, state


class TestOppositeTransactionHeuristic:
    def test_prefers_instance_starting_transition(self):
        protocol, state = paxos_mixed_state()
        enabled = enabled_executions(state, protocol)
        assert len({e.transition.name for e in enabled}) > 1
        seed = opposite_transaction_seed(enabled)
        assert seed.transition.annotation.starts_instance

    def test_transaction_heuristic_prefers_the_opposite(self):
        protocol, state = paxos_mixed_state()
        enabled = enabled_executions(state, protocol)
        opposite = opposite_transaction_seed(enabled)
        transactional = transaction_seed(enabled)
        # With both a starting and a non-starting transition enabled the two
        # heuristics must not pick a starting transition simultaneously.
        assert not (
            opposite.transition.annotation.starts_instance
            and transactional.transition.annotation.starts_instance
        )

    def test_deterministic_tie_breaking(self, vote_collection):
        enabled = enabled_executions(vote_collection.initial_state(), vote_collection)
        assert opposite_transaction_seed(enabled) == opposite_transaction_seed(tuple(reversed(enabled)))


class TestOtherHeuristics:
    def test_first_enabled_is_alphabetical(self, vote_collection):
        enabled = enabled_executions(vote_collection.initial_state(), vote_collection)
        seed = first_enabled_seed(enabled)
        assert seed.transition.name == min(e.transition.name for e in enabled)

    def test_fewest_dependents_uses_relation(self, vote_collection):
        relation = DependenceRelation.precompute(vote_collection)
        heuristic = make_fewest_dependents_seed(relation)
        enabled = enabled_executions(vote_collection.initial_state(), vote_collection)
        seed = heuristic(enabled)
        degrees = {e.transition.name: relation.dependence_degree(e.transition.name)
                   for e in enabled}
        assert degrees[seed.transition.name] == min(degrees.values())


class TestFactory:
    @pytest.mark.parametrize("name", ["opposite-transaction", "transaction", "first"])
    def test_named_heuristics(self, name, vote_collection):
        heuristic = make_seed_heuristic(name)
        enabled = enabled_executions(vote_collection.initial_state(), vote_collection)
        assert heuristic(enabled) in enabled

    def test_fewest_dependents_requires_relation(self):
        with pytest.raises(ValueError):
            make_seed_heuristic("fewest-dependents")

    def test_fewest_dependents_with_relation(self, vote_collection):
        relation = DependenceRelation.precompute(vote_collection)
        heuristic = make_seed_heuristic("fewest-dependents", dependence=relation)
        enabled = enabled_executions(vote_collection.initial_state(), vote_collection)
        assert heuristic(enabled) in enabled

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ValueError):
            make_seed_heuristic("bogus")


class TestThroughRunPlan:
    """``fewest-dependents`` needs the dependence relation the engine layer
    builds; a plan naming it used to die inside ``make_reducer``."""

    @pytest.mark.parametrize("name", SEED_HEURISTICS)
    def test_every_named_heuristic_runs_alike_on_both_graphs(self, name):
        counts = set()
        for successors in ("object", "fast"):
            protocol = build_paxos_quorum(PaxosConfig(2, 2, 1))
            unreduced = run_plan(protocol, consensus_invariant(),
                                 CheckPlan(successors=successors))
            result = run_plan(
                protocol, consensus_invariant(),
                CheckPlan(reduction="spor-net", seed_heuristic=name, successors=successors),
            )
            assert result.verified and result.complete
            assert result.statistics.reduced_expansions > 0
            assert result.statistics.states_visited < unreduced.statistics.states_visited
            counts.add((result.statistics.states_visited,
                        result.statistics.transitions_executed))
        assert len(counts) == 1
