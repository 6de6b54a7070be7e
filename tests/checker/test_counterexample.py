"""Unit tests for counterexample objects and rendering."""

from repro.checker.counterexample import Counterexample, Step
from repro.checker.property import Invariant
from repro.checker.result import CheckResult, SearchStatistics
from repro.engine import CheckPlan, run_plan
from repro.protocols.catalog import paxos_entry

from ..conftest import build_ping_pong


def violation_result():
    protocol = build_ping_pong(rounds=1)
    invariant = Invariant("no-pong", lambda state, _p: state.local("ping").pongs == 0)
    return protocol, run_plan(protocol, invariant, CheckPlan())


class TestCounterexample:
    def test_length_and_violating_state(self):
        _, result = violation_result()
        counterexample = result.counterexample
        assert counterexample.length == 3
        assert counterexample.violating_state.local("ping").pongs == 1

    def test_transition_names_in_order(self):
        _, result = violation_result()
        assert result.counterexample.transition_names() == (
            "START@ping",
            "PING@pong",
            "PONG@ping",
        )

    def test_executions_accessor(self):
        _, result = violation_result()
        executions = result.counterexample.executions()
        assert len(executions) == 3
        assert executions[0].transition.name == "START@ping"

    def test_empty_counterexample_violating_state_is_initial(self):
        protocol = build_ping_pong(rounds=1)
        counterexample = Counterexample(
            initial_state=protocol.initial_state(), steps=(), property_name="p"
        )
        assert counterexample.violating_state == protocol.initial_state()
        assert counterexample.length == 0

    def test_replays_on_a_second_build_of_the_cell(self):
        # Each build makes new guard and action closures, so the replay
        # matches executions by transition name and consumed messages.
        entry = paxos_entry(2, 3, 1, faulty=True)
        result = run_plan(entry.quorum_model(), entry.invariant, CheckPlan())
        states = result.counterexample.replay(entry.quorum_model())
        assert len(states) == result.counterexample.length + 1
        assert states[-1] == result.counterexample.violating_state

    def test_format_without_states(self):
        _, result = violation_result()
        text = result.counterexample.format()
        assert "counterexample" in text
        assert "PONG@ping" in text
        assert "violating" in text

    def test_format_with_states_shows_intermediate_states(self):
        _, result = violation_result()
        text = result.counterexample.format(include_states=True)
        assert text.count("state:") >= 3


class TestSearchStatistics:
    def test_merge_adds_counters(self):
        first = SearchStatistics(states_visited=10, transitions_executed=20, max_depth=3,
                                 elapsed_seconds=1.0)
        second = SearchStatistics(states_visited=5, transitions_executed=7, max_depth=9,
                                  elapsed_seconds=0.5)
        merged = first.merge(second)
        assert merged.states_visited == 15
        assert merged.transitions_executed == 27
        assert merged.max_depth == 9
        assert merged.elapsed_seconds == 1.5


class TestCheckResult:
    def test_verified_result_has_no_counterexample(self):
        result = CheckResult(
            protocol_name="p", property_name="q", strategy="unreduced",
            verified=True, complete=True,
        )
        assert not result.found_counterexample
        assert result.outcome_label() == "Verified"

    def test_step_is_hashable_record(self):
        protocol = build_ping_pong(rounds=1)
        _, result = violation_result()
        step = result.counterexample.steps[0]
        assert isinstance(step, Step)
        assert step.execution.transition.name == "START@ping"
        assert step.state != protocol.initial_state()
