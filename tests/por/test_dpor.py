"""Unit tests for the stateless dynamic POR search."""

from repro.checker.property import Invariant, always_true
from repro.checker.search import dfs_search
from repro.engine import CheckPlan
from repro.por.dpor import DporSearch
from repro.protocols.paxos import PaxosConfig, build_paxos_single, consensus_invariant

from ..conftest import build_ping_pong, build_vote_collection


class TestVerification:
    def test_verifies_trivial_property(self, vote_collection):
        outcome = DporSearch(vote_collection).run(always_true())
        assert outcome.verified
        assert outcome.complete

    def test_explores_no_more_than_plain_stateless_search(self):
        protocol = build_vote_collection(voters=3, quorum=2)
        dpor = DporSearch(protocol).run(always_true())
        stateless = dfs_search(protocol, always_true(), CheckPlan(stateful=False))
        assert dpor.verified and stateless.verified
        assert (
            dpor.statistics.transitions_executed
            <= stateless.statistics.transitions_executed
        )

    def test_covers_all_reachable_violations(self):
        protocol = build_ping_pong(rounds=2)
        invariant = Invariant("pongs<2", lambda s, _p: s.local("ping").pongs < 2)
        outcome = DporSearch(protocol).run(invariant)
        assert not outcome.verified
        assert outcome.counterexample is not None

    def test_violation_in_initial_state(self, ping_pong):
        outcome = DporSearch(ping_pong).run(Invariant("never", lambda _s, _p: False))
        assert not outcome.verified
        assert outcome.counterexample.length == 0

    def test_small_paxos_consensus_verified(self):
        protocol = build_paxos_single(PaxosConfig(1, 2, 1))
        outcome = DporSearch(protocol).run(consensus_invariant())
        assert outcome.verified

    def test_counterexample_is_replayable(self):
        protocol = build_ping_pong(rounds=2)
        invariant = Invariant("pongs<2", lambda s, _p: s.local("ping").pongs < 2)
        outcome = DporSearch(protocol).run(invariant)
        from repro.mp.semantics import apply_execution

        state = outcome.counterexample.initial_state
        for step in outcome.counterexample.steps:
            state = apply_execution(state, step.execution)
            assert state == step.state
        assert state.local("ping").pongs >= 2


class TestBounds:
    def test_max_states_truncates(self):
        protocol = build_vote_collection(voters=3, quorum=2)
        config = CheckPlan(stateful=False, max_states=10)
        outcome = DporSearch(protocol, config=config).run(always_true())
        assert not outcome.complete

    def test_max_depth_truncates(self):
        protocol = build_vote_collection(voters=3, quorum=2)
        config = CheckPlan(stateful=False, max_depth=1)
        outcome = DporSearch(protocol, config=config).run(always_true())
        assert not outcome.complete

    def test_statistics_exposed(self, vote_collection):
        search = DporSearch(vote_collection)
        search.run(always_true())
        assert search.statistics.transitions_executed > 0
