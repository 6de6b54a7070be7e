"""The ``fast_*_search`` entry points against ``dfs_search``/``bfs_search``.

The exhaustive object-vs-packed statistics grid lives in
``tests/checker/test_stategraph.py`` (one loop, two graphs); this module
keeps what is specific to the entry points: budgets, the observer stream,
the plan's ``successors`` axis and network-sensitive invariants.
"""

from __future__ import annotations

import pytest

from repro.checker.search import bfs_search, dfs_search
from repro.engine import CheckPlan
from repro.engine.events import CollectingObserver
from repro.fastpath.search import fast_bfs_search, fast_dfs_search
from repro.protocols.catalog import multicast_entry, storage_entry


def assert_outcomes_match(a, b, counts=True):
    assert a.verified == b.verified
    assert a.complete == b.complete
    if counts:
        assert a.statistics.states_visited == b.statistics.states_visited
        assert a.statistics.transitions_executed == b.statistics.transitions_executed
        assert a.statistics.revisits == b.statistics.revisits
        assert a.statistics.max_depth == b.statistics.max_depth
        assert (
            a.statistics.enabled_set_computations
            == b.statistics.enabled_set_computations
        )
    if a.counterexample is None:
        assert b.counterexample is None
    else:
        assert b.counterexample is not None
        assert len(a.counterexample.steps) == len(b.counterexample.steps)


class TestSerialDfsTwin:
    def test_budget_truncation_matches(self):
        entry = storage_entry(3, 1)
        config = CheckPlan(max_states=100)
        slow = dfs_search(entry.quorum_model(), entry.invariant, config=config)
        fast = fast_dfs_search(entry.quorum_model(), entry.invariant, config=config)
        assert not fast.complete
        assert_outcomes_match(slow, fast)

    def test_max_depth_matches(self):
        entry = multicast_entry(2, 1, 0, 1)
        config = CheckPlan(max_depth=3)
        slow = dfs_search(entry.quorum_model(), entry.invariant, config=config)
        fast = fast_dfs_search(entry.quorum_model(), entry.invariant, config=config)
        assert_outcomes_match(slow, fast)


class TestSerialBfsTwin:
    def test_counterexamples_have_minimal_depth(self):
        entry = multicast_entry(2, 1, 2, 1)
        slow = bfs_search(entry.quorum_model(), entry.invariant)
        fast = fast_bfs_search(entry.quorum_model(), entry.invariant)
        assert not fast.verified
        assert len(fast.counterexample.steps) == len(slow.counterexample.steps)


class TestObserverStream:
    def test_bfs_level_events_match_serial(self):
        entry = multicast_entry(2, 1, 0, 1)
        slow_events = CollectingObserver()
        fast_events = CollectingObserver()
        bfs_search(entry.quorum_model(), entry.invariant, observer=slow_events)
        fast_bfs_search(entry.quorum_model(), entry.invariant, observer=fast_events)
        assert fast_events.kinds() == slow_events.kinds()
        assert [e.payload for e in fast_events.events] == [
            e.payload for e in slow_events.events
        ]

    def test_dfs_violation_event_fires(self):
        entry = multicast_entry(2, 1, 2, 1)
        events = CollectingObserver()
        outcome = fast_dfs_search(entry.quorum_model(), entry.invariant,
                                  observer=events)
        assert not outcome.verified
        assert "violation-found" in events.kinds()


class TestSuccessorsAxis:
    """``CheckPlan.successors`` is the drop-in spelling."""

    def test_dfs_search_delegates_to_the_fast_path(self):
        entry = multicast_entry(2, 1, 0, 1)
        via_knob = dfs_search(
            entry.quorum_model(), entry.invariant,
            config=CheckPlan(successors="fast"),
        )
        direct = fast_dfs_search(entry.quorum_model(), entry.invariant)
        assert_outcomes_match(via_knob, direct)

    def test_bfs_search_delegates_to_the_fast_path(self):
        entry = multicast_entry(2, 1, 0, 1)
        via_knob = bfs_search(
            entry.quorum_model(), entry.invariant,
            config=CheckPlan(successors="fast"),
        )
        direct = fast_bfs_search(entry.quorum_model(), entry.invariant)
        assert_outcomes_match(via_knob, direct)

    def test_unknown_engine_kind_is_rejected(self):
        with pytest.raises(ValueError, match="successors"):
            CheckPlan(successors="warp")

    def test_explicit_object_engine_conflicts_with_the_knob(self):
        from repro.mp.semantics import SuccessorEngine

        protocol = multicast_entry(2, 1, 0, 1).quorum_model()
        with pytest.raises(ValueError, match="FastSuccessorEngine"):
            dfs_search(
                protocol,
                multicast_entry(2, 1, 0, 1).invariant,
                config=CheckPlan(successors="fast"),
                engine=SuccessorEngine.for_search(protocol, stateful=True),
            )


class TestNetworkSensitiveInvariants:
    """Undeclared invariants stay correct (no locals-vector memo)."""

    def test_network_reading_invariant_is_not_memoised_wrongly(self):
        from repro.checker.property import Invariant

        entry = multicast_entry(2, 1, 0, 1)
        # Deliberately network-dependent: bounded in-flight message count.
        bound = Invariant(
            name="bounded-network",
            predicate=lambda state, _protocol: len(state.network) <= 4,
        )
        assert bound.network_sensitive
        slow = dfs_search(entry.quorum_model(), bound)
        fast = fast_dfs_search(entry.quorum_model(), bound)
        assert_outcomes_match(slow, fast)


class TestPredicateMemo:
    def test_insensitive_predicate_runs_once_per_locals_vector(self):
        from repro.fastpath.compiler import FastSuccessorEngine
        from repro.fastpath.search import _memoised_predicate
        from repro.protocols.catalog import crash_recovery_entry

        engine = FastSuccessorEngine(crash_recovery_entry(2, 1).quorum_model())
        initial = engine.initial_packed()
        other = engine.successor_packed(initial, engine.enabled_packed(initial)[0])
        calls = []

        def evaluate(state):
            calls.append(1)
            return True

        check = _memoised_predicate(engine, evaluate, False)
        for packed in (initial, other, initial, other):
            assert check(packed)
        assert len(calls) == 2

    def test_sensitive_predicate_decodes_every_state(self):
        from repro.fastpath.compiler import FastSuccessorEngine
        from repro.fastpath.search import _memoised_predicate
        from repro.protocols.catalog import crash_recovery_entry

        engine = FastSuccessorEngine(crash_recovery_entry(2, 1).quorum_model())
        initial = engine.initial_packed()
        other = engine.successor_packed(initial, engine.enabled_packed(initial)[0])
        seen = []

        def evaluate(state):
            seen.append(state)
            return True

        check = _memoised_predicate(engine, evaluate, True)
        for packed in (initial, other, initial, other):
            assert check(packed)
        assert seen == [engine.decode(packed)
                        for packed in (initial, other, initial, other)]

    @pytest.mark.parametrize("entry", [
        pytest.param(("crash-recovery", 2, 1, {True}), id="crash-recovery-2-1"),
        pytest.param(("storage-wrong", 3, 1, {True, False}), id="storage-3-1-wrong"),
    ])
    def test_invariant_checker_agrees_with_the_object_invariant(self, entry):
        from repro.fastpath.compiler import FastSuccessorEngine
        from repro.fastpath.search import make_invariant_checker
        from repro.protocols.catalog import crash_recovery_entry

        kind, first, second, expected = entry
        if kind == "crash-recovery":
            cell = crash_recovery_entry(first, second)
        else:
            cell = storage_entry(first, second, wrong_specification=True)
        protocol = cell.quorum_model()
        engine = FastSuccessorEngine(protocol)
        check = make_invariant_checker(engine, cell.invariant, protocol)
        seen = {engine.initial_packed()[0]}
        frontier = [engine.initial_packed()]
        verdicts = set()
        while frontier:
            packed = frontier.pop()
            verdict = check(packed)
            assert verdict == cell.invariant.holds_in(engine.decode(packed), protocol)
            verdicts.add(verdict)
            for execution in engine.enabled_packed(packed):
                successor = engine.successor_packed(packed, execution)
                if successor[0] not in seen:
                    seen.add(successor[0])
                    frontier.append(successor)
        assert verdicts == expected
