"""Unit tests for the interned-state successor engine."""

from __future__ import annotations

import pytest

from repro.checker.property import always_true
from repro.checker.search import bfs_search, dfs_search
from repro.engine import CheckPlan
from repro.mp.semantics import SuccessorEngine, apply_execution, enabled_executions
from repro.por.dpor import DporSearch

from ..conftest import build_ping_pong, build_vote_collection


@pytest.fixture(params=["ping-pong", "vote-collection"])
def protocol(request):
    if request.param == "ping-pong":
        return build_ping_pong(rounds=2)
    return build_vote_collection(voters=3, quorum=2)


class TestInterning:
    def test_initial_state_is_interned(self, protocol):
        engine = SuccessorEngine(protocol)
        assert engine.initial_state() is engine.initial_state()

    def test_states_reached_twice_are_one_object(self, protocol):
        engine = SuccessorEngine(protocol)
        initial = engine.initial_state()
        enabled = engine.enabled(initial)
        if len(enabled) < 2:
            pytest.skip("needs two enabled executions")
        # Execute two independent executions in both orders; commuting
        # interleavings must funnel into the same interned object.
        first, second = enabled[0], enabled[1]
        one = engine.successor(engine.successor(initial, first), second)
        other = engine.successor(engine.successor(initial, second), first)
        if one == other:
            assert one is other


class TestCaches:
    def test_enabled_cache_returns_same_tuple(self, protocol):
        engine = SuccessorEngine(protocol)
        state = engine.initial_state()
        assert engine.enabled(state) is engine.enabled(state)
        assert engine.enabled_hits == 1
        assert engine.enabled_misses == 1

    def test_successor_cache_hit_on_repeat(self, protocol):
        engine = SuccessorEngine(protocol)
        state = engine.initial_state()
        execution = engine.enabled(state)[0]
        assert engine.successor(state, execution) is engine.successor(state, execution)
        assert engine.successor_hits == 1
        assert engine.successor_misses == 1

    def test_cache_can_be_disabled(self, protocol):
        engine = SuccessorEngine(protocol, caching=False)
        state = engine.initial_state()
        execution = engine.enabled(state)[0]
        first = engine.successor(state, execution)
        second = engine.successor(state, execution)
        # No interning and no caches: equal states, computed twice.
        assert first == second and first is not second
        assert engine.cache_sizes() == {
            "interned_states": 0, "enabled_sets": 0, "successor_edges": 0}
        assert (engine.enabled_misses, engine.successor_misses) == (0, 0)

    def test_cache_sizes_reporting(self, protocol):
        engine = SuccessorEngine(protocol)
        state = engine.initial_state()
        for execution in engine.enabled(state):
            engine.successor(state, execution)
        sizes = engine.cache_sizes()
        assert sizes["enabled_sets"] == 1
        assert sizes["successor_edges"] == len(engine.enabled(state))
        assert sizes["interned_states"] >= 1


class TestAgreementWithPrimitives:
    def test_engine_matches_raw_semantics_on_walk(self, protocol):
        """A depth-bounded walk agrees with the uncached primitives."""
        engine = SuccessorEngine(protocol)
        frontier = [engine.initial_state()]
        for _ in range(4):
            next_frontier = []
            for state in frontier:
                cached = engine.enabled(state)
                assert cached == enabled_executions(state, protocol)
                for execution in cached:
                    successor = engine.successor(state, execution)
                    assert successor == apply_execution(state, execution)
                    next_frontier.append(successor)
            frontier = next_frontier

    def test_reexpansion_is_served_from_the_caches(self, protocol):
        """Stateless search re-expands the same states along many
        interleavings: a second pass over a frontier (with repeats) runs
        the raw primitives' transition count and misses no cache."""
        engine = SuccessorEngine(protocol)
        states = [engine.initial_state()]
        frontier = list(states)
        for _ in range(3):
            frontier = [
                engine.successor(state, execution)
                for state in frontier
                for execution in engine.enabled(state)
            ]
            states.extend(frontier)

        def expand():
            return [
                engine.successor(state, execution)
                for state in states
                for execution in engine.enabled(state)
            ]

        first = expand()
        misses = (engine.enabled_misses, engine.successor_misses)
        sizes = engine.cache_sizes()
        second = expand()
        raw = [
            apply_execution(state, execution)
            for state in states
            for execution in enabled_executions(state, protocol)
        ]
        assert len(second) == len(raw)
        assert all(again is once for again, once in zip(second, first))
        assert (engine.enabled_misses, engine.successor_misses) == misses
        assert engine.cache_sizes() == sizes


class TestCachingSwitch:
    def test_caching_and_pass_through_engines_agree(self, protocol):
        """The caches change cost, never results: a caching and a
        pass-through engine produce equal enabled sets and successors."""
        caching = SuccessorEngine(protocol)
        plain = SuccessorEngine(protocol, caching=False)
        frontier = [(caching.initial_state(), plain.initial_state())]
        for _ in range(4):
            next_frontier = []
            for cached_state, plain_state in frontier:
                assert cached_state == plain_state
                executions = caching.enabled(cached_state)
                assert executions == plain.enabled(plain_state)
                for execution in executions:
                    next_frontier.append((
                        caching.successor(cached_state, execution),
                        plain.successor(plain_state, execution),
                    ))
            frontier = next_frontier

    def test_for_search_caches_only_for_stateless_search(self, protocol):
        assert SuccessorEngine.for_search(protocol, stateful=False).caching
        stateful = SuccessorEngine.for_search(protocol, stateful=True)
        assert not stateful.caching
        assert stateful.interner is None


def _dfs(protocol, engine, stateful):
    return dfs_search(protocol, always_true(), CheckPlan(stateful=stateful),
                      engine=engine)


def _bfs(protocol, engine, stateful):
    return bfs_search(protocol, always_true(), CheckPlan(), engine=engine)


def _dpor(protocol, engine, stateful):
    search = DporSearch(protocol)
    search.engine = engine
    return search.run(always_true())


SEARCHES = [
    pytest.param(_dfs, False, id="stateless-dfs"),
    pytest.param(_dfs, True, id="stateful-dfs"),
    pytest.param(_bfs, True, id="bfs"),
    pytest.param(_dpor, False, id="dpor"),
]


class TestSearchStatisticsIgnoreCaching:
    """Searches report the same statistics over either engine mode."""

    @pytest.mark.parametrize("search, stateful", SEARCHES)
    def test_counts_match(self, protocol, search, stateful):
        cached = search(protocol, SuccessorEngine(protocol), stateful)
        plain = search(protocol, SuccessorEngine(protocol, caching=False), stateful)
        assert cached.verified == plain.verified
        for name in ("states_visited", "transitions_executed", "revisits",
                     "max_depth"):
            assert (getattr(cached.statistics, name)
                    == getattr(plain.statistics, name)), name
