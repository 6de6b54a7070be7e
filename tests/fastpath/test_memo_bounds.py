"""LRU bounding of the fast path's memo tables.

The packed engine memoises guard/enabled-set and action evaluations per
transition, and the searches memoise property verdicts per locals vector.
Unbounded, those tables grow with the reachable state space; the
``fastpath_memo_capacity`` knob turns each of them into an LRU whose size
never exceeds the configured capacity.  Bounding is a space/time trade
only — verdicts and visit counts must be bit-identical to the unbounded
run.
"""

from __future__ import annotations

import pytest

from repro.checker.stategraph import make_graph
from repro.engine import CheckPlan
from repro.engine.registry import run_plan
from repro.fastpath.compiler import FastSuccessorEngine
from repro.fastpath.search import (
    _memoised_predicate,
    fast_dfs_search,
    fast_ndfs_search,
    make_invariant_checker,
)
from repro.protocols.catalog import crash_recovery_entry, multicast_entry


def explore_packed(engine, max_states=200):
    """Exhaustive packed BFS driving the enabled/action memos."""
    initial = engine.initial_packed()
    seen = {engine.fingerprint(initial)}
    frontier = [initial]
    while frontier and len(seen) < max_states:
        packed = frontier.pop()
        for execution in engine.enabled_packed(packed):
            successor = engine.successor_packed(packed, execution)
            fingerprint = engine.fingerprint(successor)
            if fingerprint not in seen:
                seen.add(fingerprint)
                frontier.append(successor)
    return seen


class TestEngineMemoBounds:
    def test_capacity_must_be_positive(self):
        protocol = multicast_entry(2, 1, 0, 1).quorum_model()
        with pytest.raises(ValueError, match="memo_capacity"):
            FastSuccessorEngine(protocol, memo_capacity=0)
        with pytest.raises(ValueError, match="memo_capacity"):
            FastSuccessorEngine(protocol, memo_capacity=-4)

    def test_bounded_memos_evict_and_stay_within_capacity(self):
        protocol = multicast_entry(2, 1, 0, 1).quorum_model()
        engine = FastSuccessorEngine(protocol, memo_capacity=1)
        explore_packed(engine)
        assert engine.memo_evictions > 0
        for transition in engine._transitions:
            assert len(transition.enabled_memo) <= 1
            assert len(transition.action_memo) <= 1

    def test_unbounded_engine_never_evicts(self):
        protocol = multicast_entry(2, 1, 0, 1).quorum_model()
        engine = FastSuccessorEngine(protocol)
        explore_packed(engine)
        assert engine.memo_evictions == 0

    def test_bounded_exploration_matches_unbounded(self):
        protocol = multicast_entry(2, 1, 0, 1).quorum_model()
        unbounded = explore_packed(FastSuccessorEngine(protocol))
        bounded = explore_packed(FastSuccessorEngine(protocol, memo_capacity=2))
        assert bounded == unbounded


class TestPredicateMemoBounds:
    def test_lru_of_one_re_evaluates_on_alternation(self):
        entry = crash_recovery_entry(2, 1)
        protocol = entry.quorum_model()
        engine = FastSuccessorEngine(protocol)
        initial = engine.initial_packed()
        other = engine.successor_packed(initial, engine.enabled_packed(initial)[0])
        calls = []

        def evaluate(state):
            calls.append(1)
            return True

        check = _memoised_predicate(engine, evaluate, False, capacity=1)
        for packed in (initial, other, initial, other):
            assert check(packed)
        # Every lookup misses: each state evicts the other from the
        # single-slot LRU.  Unbounded, the same sequence costs two calls.
        assert len(calls) == 4
        calls.clear()
        check = _memoised_predicate(engine, evaluate, False)
        for packed in (initial, other, initial, other):
            assert check(packed)
        assert len(calls) == 2

    def test_invalid_capacity_rejected(self):
        entry = crash_recovery_entry(2, 1)
        engine = FastSuccessorEngine(entry.quorum_model())
        with pytest.raises(ValueError, match="capacity"):
            _memoised_predicate(engine, lambda state: True, False, capacity=0)

    def test_invariant_checker_accepts_a_capacity(self):
        entry = crash_recovery_entry(2, 1)
        protocol = entry.quorum_model()
        engine = FastSuccessorEngine(protocol)
        check = make_invariant_checker(engine, entry.invariant, protocol, capacity=4)
        assert check(engine.initial_packed())


class TestConfigThreading:
    def test_bounded_fast_dfs_matches_unbounded(self):
        entry = crash_recovery_entry(2, 1)
        unbounded = fast_dfs_search(entry.quorum_model(), entry.invariant)
        bounded = fast_dfs_search(
            entry.quorum_model(),
            entry.invariant,
            CheckPlan(fastpath_memo_capacity=1),
        )
        assert bounded.verified == unbounded.verified
        assert (
            bounded.statistics.states_visited
            == unbounded.statistics.states_visited
        )

    def test_bounded_fast_ndfs_matches_unbounded(self):
        entry = crash_recovery_entry(2, 1, starved=True)
        unbounded = fast_ndfs_search(entry.quorum_model(), entry.liveness)
        bounded = fast_ndfs_search(
            entry.quorum_model(),
            entry.liveness,
            CheckPlan(fastpath_memo_capacity=1),
        )
        assert bounded.verified == unbounded.verified
        assert (
            bounded.counterexample.cycle_start
            == unbounded.counterexample.cycle_start
        )

    def test_plan_axis_reaches_the_fast_engine(self):
        # End to end: plan knob -> packed graph -> FastSuccessorEngine.
        entry = multicast_entry(2, 1, 0, 1)
        plan = CheckPlan(successors="fast", fastpath_memo_capacity=8)
        assert make_graph(entry.quorum_model(), plan).engine.memo_capacity == 8
        result = run_plan(entry.quorum_model(), entry.invariant, plan)
        assert result.verified == (not entry.expect_violation)
