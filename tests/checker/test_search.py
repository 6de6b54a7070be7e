"""Unit tests for the search engines (DFS, BFS, bounds, counterexamples)."""

import pytest

from repro.checker.property import Invariant, always_true
from repro.checker.search import bfs_search, dfs_search
from repro.engine import CheckPlan
from repro.mp.semantics import state_graph_edges

from ..conftest import build_ping_pong, build_vote_collection


def pongs_below(limit):
    """Invariant: the pinger has received fewer than ``limit`` pongs."""
    return Invariant(
        name=f"pongs<{limit}",
        predicate=lambda state, _protocol: state.local("ping").pongs < limit,
    )


class TestExhaustiveDfs:
    def test_counts_match_state_graph_enumeration(self):
        protocol = build_vote_collection(voters=3, quorum=2)
        states, _edges = state_graph_edges(protocol)
        outcome = dfs_search(protocol, always_true())
        assert outcome.verified
        assert outcome.complete
        assert outcome.statistics.states_visited == len(states)

    def test_trivial_protocol_explored_fully(self, ping_pong):
        outcome = dfs_search(ping_pong, always_true())
        assert outcome.statistics.states_visited == 4
        assert outcome.statistics.transitions_executed == 3

    def test_violation_found_with_counterexample(self, ping_pong):
        outcome = dfs_search(ping_pong, pongs_below(1))
        assert not outcome.verified
        assert outcome.counterexample is not None
        assert outcome.counterexample.transition_names()[-1] == "PONG@ping"

    def test_violation_in_initial_state(self, ping_pong):
        never = Invariant("never", lambda _s, _p: False)
        outcome = dfs_search(ping_pong, never)
        assert not outcome.verified
        assert outcome.counterexample.length == 0

    def test_counterexample_path_is_executable(self, ping_pong_two_rounds):
        outcome = dfs_search(ping_pong_two_rounds, pongs_below(2))
        assert not outcome.verified
        counterexample = outcome.counterexample
        # Replay the path through the semantics and check it ends in the
        # reported violating state.
        from repro.mp.semantics import apply_execution

        state = counterexample.initial_state
        for step in counterexample.steps:
            state = apply_execution(state, step.execution)
            assert state == step.state
        assert state.local("ping").pongs >= 2

    def test_continue_after_violation_when_not_stopping(self, ping_pong_two_rounds):
        config = CheckPlan(stop_at_first_violation=False)
        outcome = dfs_search(ping_pong_two_rounds, pongs_below(1), config)
        assert not outcome.verified
        assert outcome.complete
        full = dfs_search(ping_pong_two_rounds, always_true())
        assert outcome.statistics.states_visited == full.statistics.states_visited


class TestBounds:
    def test_max_states_truncates(self):
        protocol = build_vote_collection(voters=3, quorum=2)
        config = CheckPlan(max_states=5)
        outcome = dfs_search(protocol, always_true(), config)
        assert not outcome.complete
        assert outcome.statistics.states_visited <= 6

    def test_max_depth_truncates(self, ping_pong_two_rounds):
        config = CheckPlan(max_depth=1)
        outcome = dfs_search(ping_pong_two_rounds, always_true(), config)
        assert not outcome.complete
        assert outcome.statistics.max_depth <= 1

    def test_max_seconds_zero_truncates(self):
        protocol = build_vote_collection(voters=3, quorum=2)
        config = CheckPlan(max_seconds=0.0)
        outcome = dfs_search(protocol, always_true(), config)
        assert not outcome.complete

    def test_deep_violation_not_found_with_shallow_bound(self, ping_pong_two_rounds):
        config = CheckPlan(max_depth=2)
        outcome = dfs_search(ping_pong_two_rounds, pongs_below(2), config)
        # The violation needs at least four steps, so a depth-2 search
        # cannot find it but must also not claim completeness.
        assert outcome.verified
        assert not outcome.complete


class TestStatelessSearch:
    def test_stateless_visits_at_least_as_many_states(self):
        protocol = build_vote_collection(voters=3, quorum=2)
        stateful = dfs_search(protocol, always_true())
        stateless = dfs_search(protocol, always_true(), CheckPlan(stateful=False))
        assert stateless.verified
        assert (
            stateless.statistics.states_visited
            >= stateful.statistics.states_visited
        )

    def test_stateless_finds_violation(self, ping_pong_two_rounds):
        outcome = dfs_search(ping_pong_two_rounds, pongs_below(2), CheckPlan(stateful=False))
        assert not outcome.verified


class TestReducerIntegration:
    def test_reducer_receives_context_and_limits_exploration(self):
        protocol = build_vote_collection(voters=3, quorum=2)
        seen_states = []

        def first_only(context):
            seen_states.append(context.state)
            return (context.enabled[0],)

        outcome = dfs_search(protocol, always_true(), reducer=first_only)
        full = dfs_search(protocol, always_true())
        assert outcome.verified
        assert outcome.statistics.states_visited < full.statistics.states_visited
        assert seen_states  # the reducer was actually consulted

    def test_reducer_not_called_for_single_enabled_execution(self, ping_pong):
        calls = []

        def reducer(context):
            calls.append(context)
            return context.enabled

        dfs_search(ping_pong, always_true(), reducer=reducer)
        # Ping-pong never has more than one enabled execution.
        assert calls == []

    def test_statistics_track_reduced_expansions(self):
        protocol = build_vote_collection(voters=3, quorum=2)

        def first_only(context):
            return (context.enabled[0],)

        outcome = dfs_search(protocol, always_true(), reducer=first_only)
        assert outcome.statistics.reduced_expansions > 0


class TestBfs:
    def test_bfs_explores_same_states_as_dfs(self):
        protocol = build_vote_collection(voters=2, quorum=2)
        bfs = bfs_search(protocol, always_true())
        dfs = dfs_search(protocol, always_true())
        assert bfs.verified and dfs.verified
        assert bfs.statistics.states_visited == dfs.statistics.states_visited

    def test_bfs_finds_shortest_counterexample(self, ping_pong_two_rounds):
        bfs = bfs_search(ping_pong_two_rounds, pongs_below(1))
        dfs = dfs_search(ping_pong_two_rounds, pongs_below(1))
        assert not bfs.verified and not dfs.verified
        assert bfs.counterexample.length <= dfs.counterexample.length
        # Shortest violating path: START, PING, PONG.
        assert bfs.counterexample.length == 3

    def test_bfs_violation_in_initial_state(self, ping_pong):
        outcome = bfs_search(ping_pong, Invariant("never", lambda _s, _p: False))
        assert not outcome.verified
        assert outcome.counterexample.length == 0

    def test_bfs_max_depth(self, ping_pong_two_rounds):
        outcome = bfs_search(ping_pong_two_rounds, always_true(), CheckPlan(max_depth=1))
        assert not outcome.complete


class TestDepthAccounting:
    """``max_depth`` counts edges, identically in DFS and BFS.

    Regression for the historical off-by-one: BFS used to report one extra
    level (the final level that discovers nothing), so DFS and BFS
    disagreed by one even on linear state graphs.
    """

    def test_chain_graph_reports_its_edge_count(self, ping_pong):
        # Single-round ping-pong is a 4-state chain: START, PING, PONG.
        dfs = dfs_search(ping_pong, always_true())
        bfs = bfs_search(ping_pong, always_true())
        assert dfs.statistics.max_depth == 3
        assert bfs.statistics.max_depth == 3

    def test_dfs_and_bfs_agree_on_graded_graphs(self, ping_pong_two_rounds):
        # Every path to a state of these protocols has the same length
        # (each transition advances exactly one process by one step), so
        # the deepest DFS path and the deepest BFS level must coincide.
        for protocol in (ping_pong_two_rounds, build_vote_collection(3, 2)):
            dfs = dfs_search(protocol, always_true())
            bfs = bfs_search(protocol, always_true())
            assert dfs.statistics.max_depth == bfs.statistics.max_depth
