"""LRU bounding of the successor engine's derived caches.

Stateless searches previously grew the enabled-set and successor caches
without bound; ``max_cache_entries`` turns both into LRU maps.  Eviction
must never change results — only cost — so every test pins correctness
against an unbounded engine.
"""

from __future__ import annotations

import pytest

from repro.checker.search import dfs_search
from repro.engine import CheckPlan
from repro.checker.property import always_true
from repro.mp.semantics import SuccessorEngine
from repro.mp.semantics import state_graph_edges
from repro.por.dpor import DporSearch


def walk_states(protocol, count=12):
    """A deterministic stream of distinct reachable states to probe caches with."""
    states, _ = state_graph_edges(protocol)
    return sorted(states, key=lambda state: state.fingerprint())[:count]


class TestBoundedCaches:
    def test_capacity_is_respected(self, ping_pong_two_rounds):
        engine = SuccessorEngine(ping_pong_two_rounds, max_cache_entries=4)
        for state in walk_states(ping_pong_two_rounds):
            engine.enabled(state)
            for execution in engine.enabled(state):
                engine.successor(state, execution)
        sizes = engine.cache_sizes()
        assert sizes["enabled_sets"] <= 4
        assert len(engine._successor_cache) <= 4
        assert engine.eviction_counts()["enabled_sets"] > 0
        assert engine.eviction_counts()["successor_states"] > 0

    def test_unbounded_engine_never_evicts(self, ping_pong_two_rounds):
        engine = SuccessorEngine(ping_pong_two_rounds)
        for state in walk_states(ping_pong_two_rounds):
            engine.enabled(state)
        assert engine.eviction_counts() == {
            "enabled_sets": 0,
            "successor_states": 0,
        }

    def test_results_identical_to_unbounded(self, vote_collection):
        bounded = SuccessorEngine(vote_collection, max_cache_entries=2)
        unbounded = SuccessorEngine(vote_collection)
        for state in walk_states(vote_collection):
            state_b = bounded.intern(state)
            state_u = unbounded.intern(state)
            enabled_b = bounded.enabled(state_b)
            enabled_u = unbounded.enabled(state_u)
            assert enabled_b == enabled_u
            for execution in enabled_b:
                assert bounded.successor(state_b, execution) == unbounded.successor(
                    state_u, execution
                )

    def test_lru_keeps_recently_used_entries(self, ping_pong_two_rounds):
        states = walk_states(ping_pong_two_rounds, count=3)
        engine = SuccessorEngine(ping_pong_two_rounds, max_cache_entries=2)
        engine.enabled(states[0])
        engine.enabled(states[1])
        engine.enabled(states[0])  # refresh 0, making 1 the LRU victim
        engine.enabled(states[2])
        assert states[0] in engine._enabled_cache
        assert states[1] not in engine._enabled_cache
        assert states[2] in engine._enabled_cache

    def test_invalid_capacity_rejected(self, ping_pong):
        with pytest.raises(ValueError):
            SuccessorEngine(ping_pong, max_cache_entries=0)


class TestSearchPlumbing:
    def test_stateless_dfs_with_capacity_matches_unbounded(self, ping_pong_two_rounds):
        unbounded = dfs_search(
            ping_pong_two_rounds, always_true(), CheckPlan(stateful=False)
        )
        bounded = dfs_search(
            ping_pong_two_rounds,
            always_true(),
            CheckPlan(stateful=False, engine_cache_capacity=3),
        )
        assert bounded.verified == unbounded.verified
        assert (
            bounded.statistics.states_visited == unbounded.statistics.states_visited
        )
        assert (
            bounded.statistics.transitions_executed
            == unbounded.statistics.transitions_executed
        )

    def test_dpor_with_capacity_matches_unbounded(self, ping_pong_two_rounds):
        unbounded = DporSearch(ping_pong_two_rounds).run(always_true())
        bounded_search = DporSearch(
            ping_pong_two_rounds,
            config=CheckPlan(stateful=False, engine_cache_capacity=4),
        )
        assert bounded_search.engine.max_cache_entries == 4
        bounded = bounded_search.run(always_true())
        assert bounded.verified == unbounded.verified
        assert (
            bounded.statistics.states_visited == unbounded.statistics.states_visited
        )
