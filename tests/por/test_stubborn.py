"""Unit tests for the stubborn-set provider (static POR)."""

from repro.engine import CheckPlan, run_plan
from repro.checker.property import always_true
from repro.checker.search import dfs_search
from repro.mp.semantics import apply_execution, enabled_executions
from repro.por.dependence import DependenceRelation
from repro.por.stubborn import StubbornSetProvider
from repro.protocols.catalog import crash_recovery_entry
from repro.protocols.paxos import PaxosConfig, build_paxos_quorum, consensus_invariant

from ..conftest import build_ping_pong, build_vote_collection


class TestClosure:
    def test_independent_voters_closure_stays_local(self, vote_collection):
        provider = StubbornSetProvider(vote_collection)
        state = vote_collection.initial_state()
        enabled = enabled_executions(state, vote_collection)
        enabled_names = frozenset(e.transition.name for e in enabled)
        closure = provider.stubborn_names(state, "CAST@voter1", enabled_names)
        # CAST@voter1 can enable the collector's quorum transition, which is
        # disabled and needs votes; the closure must not drag in the other
        # voters beyond what the collector's enabling requires.
        assert "CAST@voter1" in closure

    def test_closure_contains_seed(self, vote_collection):
        provider = StubbornSetProvider(vote_collection)
        state = vote_collection.initial_state()
        enabled_names = frozenset(
            e.transition.name for e in enabled_executions(state, vote_collection)
        )
        for seed in enabled_names:
            assert seed in provider.stubborn_names(state, seed, enabled_names)

    def test_disabled_member_pulls_in_necessary_enablers(self, ping_pong):
        provider = StubbornSetProvider(ping_pong)
        state = ping_pong.initial_state()
        closure = provider.stubborn_names(state, "PONG@ping", frozenset())
        # PONG@ping is disabled; its only enabler chain is PING@pong, which
        # in turn needs START@ping.
        assert closure == {"PONG@ping", "PING@pong", "START@ping"}

    def test_net_narrows_quorum_enabler_sets(self):
        protocol = build_paxos_quorum(PaxosConfig(1, 3, 1))
        state = protocol.initial_state()
        # Deliver proposer1's READ to acceptor1 and let it reply, so that
        # READ_REPL needs one more reply (from acceptor2 or acceptor3).
        propose = next(e for e in enabled_executions(state, protocol)
                       if e.transition.name == "PROPOSE@proposer1")
        state = apply_execution(state, propose)
        read1 = next(e for e in enabled_executions(state, protocol)
                     if e.transition.name == "READ@acceptor1")
        state = apply_execution(state, read1)

        with_net = StubbornSetProvider(protocol, use_net=True)
        without_net = StubbornSetProvider(protocol, use_net=False)
        enabled_names = frozenset(
            e.transition.name for e in enabled_executions(state, protocol)
        )
        net_closure = with_net.stubborn_names(state, "READ_REPL@proposer1", enabled_names)
        coarse_closure = without_net.stubborn_names(state, "READ_REPL@proposer1", enabled_names)
        assert net_closure <= coarse_closure
        # The per-state necessary enabling set must not contain acceptor1's
        # READ — its reply is already pending — and nothing else drags it
        # in; the coarse handling adds every potential enabler.
        assert "READ@acceptor1" not in net_closure
        assert "READ@acceptor1" in coarse_closure
        assert {"READ@acceptor2", "READ@acceptor3"} <= net_closure


class TestReducer:
    def test_reduction_preserves_verdict_and_shrinks_space(self):
        protocol = build_vote_collection(voters=3, quorum=2)
        provider = StubbornSetProvider(protocol)
        reduced = dfs_search(protocol, always_true(), reducer=provider.reduce)
        full = dfs_search(protocol, always_true())
        assert reduced.verified and full.verified
        assert reduced.statistics.states_visited <= full.statistics.states_visited
        assert provider.reduced_states > 0

    def test_single_enabled_execution_returned_unchanged(self, ping_pong):
        provider = StubbornSetProvider(ping_pong)
        outcome = dfs_search(ping_pong, always_true(), reducer=provider.reduce)
        assert outcome.verified
        assert provider.reduced_states == 0

    def test_visible_transitions_force_fallback(self):
        protocol = build_vote_collection(voters=2, quorum=1)
        # Mark every transition visible: no strict reduction may survive.
        visible = protocol.with_transitions(
            [t.with_annotation(visible=True) for t in protocol.transitions]
        )
        provider = StubbornSetProvider(visible)
        outcome = dfs_search(visible, always_true(), reducer=provider.reduce)
        full = dfs_search(visible, always_true())
        assert outcome.statistics.states_visited == full.statistics.states_visited

    def test_spor_net_no_worse_than_spor(self):
        protocol = build_paxos_quorum(PaxosConfig(2, 2, 1))
        invariant = consensus_invariant()
        spor = run_plan(protocol, invariant, CheckPlan(reduction="spor"))
        net = run_plan(protocol, invariant, CheckPlan(reduction="spor-net"))
        assert spor.verified and net.verified
        assert net.statistics.states_visited <= spor.statistics.states_visited

    def test_statistics_counters_consistent(self):
        protocol = build_vote_collection(voters=3, quorum=2)
        provider = StubbornSetProvider(protocol)
        dfs_search(protocol, always_true(), reducer=provider.reduce)
        assert provider.reduced_states + provider.fallback_states > 0

    def test_fallbacks_are_counted_by_reason(self):
        # paxos-2-3-2's second learner makes LEARN visible; the crash/recover
        # loop closes cycles onto the stack; every cell has states whose
        # closure covers the whole enabled set.
        paxos = build_paxos_quorum(PaxosConfig(2, 2, 2))
        cyclic = crash_recovery_entry(2, 1)
        for protocol, invariant, reason in (
            (paxos, consensus_invariant(), "visible"),
            (cyclic.quorum_model(), cyclic.invariant, "proviso"),
            (paxos, consensus_invariant(), "all-enabled"),
        ):
            provider = StubbornSetProvider(protocol)
            outcome = dfs_search(protocol, invariant, reducer=provider.reduce)
            assert set(provider.fallbacks) == {"all-enabled", "visible", "proviso"}
            assert provider.fallbacks[reason] > 0, reason
            assert provider.fallback_states == sum(provider.fallbacks.values())
            assert provider.reduced_states == outcome.statistics.reduced_expansions
            assert provider.fallback_states <= outcome.statistics.full_expansions


class TestSoundnessCrossChecks:
    def test_paxos_small_setting_same_state_count_verdict(self):
        protocol = build_paxos_quorum(PaxosConfig(1, 3, 1))
        invariant = consensus_invariant()
        unreduced = run_plan(protocol, invariant, CheckPlan())
        reduced = run_plan(protocol, invariant, CheckPlan(reduction="spor-net"))
        assert unreduced.verified == reduced.verified is True
        assert reduced.statistics.states_visited < unreduced.statistics.states_visited

    def test_reduction_does_not_hide_reachable_violation(self):
        protocol = build_ping_pong(rounds=2)
        from repro.checker.property import Invariant

        invariant = Invariant(
            "pongs<2", lambda state, _p: state.local("ping").pongs < 2
        )
        for reduction in ("spor", "spor-net"):
            result = run_plan(protocol, invariant, CheckPlan(reduction=reduction))
            assert not result.verified
