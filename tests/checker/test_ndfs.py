"""Unit tests for the nested-DFS liveness engines (object-graph and packed).

The protocols here are deliberately tiny *cyclic* state graphs, built by
re-arming consumed trigger messages (the same device as the crash-recovery
family): a one-process toggle whose TICK re-arms itself (a 2-cycle), and a
branching "mode" machine shaped so that the acceptance cycle is invisible to
the blue phase's early check and only the red (nested) phase can find it.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.checker import (
    Counterexample,
    Eventually,
    goal_of,
    ndfs_search,
)
from repro.checker.property import Invariant
from repro.engine import CheckPlan
from repro.engine.events import CollectingObserver
from repro.fastpath.search import fast_ndfs_search
from repro.mp import ActionContext, LporAnnotation, ProtocolBuilder, SendSpec
from repro.mp.process import LocalState
from repro.obs.telemetry import RunTelemetry

pytestmark = pytest.mark.liveness


# --------------------------------------------------------------------------- #
# Toggle: one process, one self-re-arming transition, a 2-cycle
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ToggleState(LocalState):
    bit: bool = False


def _tick_action(local: ToggleState, _messages, ctx: ActionContext) -> ToggleState:
    ctx.send("clock", "TICK")
    return local.update(bit=not local.bit)


def build_toggle():
    """bit flips forever: two states, one cycle, no terminal state."""
    builder = ProtocolBuilder("toggle")
    builder.add_process("clock", "clock", ToggleState())
    builder.add_transition(
        name="TICK@clock",
        process_id="clock",
        message_type="TICK",
        action=_tick_action,
        annotation=LporAnnotation(
            sends=(SendSpec("TICK", recipients=frozenset({"clock"})),),
            possible_senders=frozenset({"driver", "clock"}),
        ),
    )
    builder.trigger("TICK", "clock")
    return builder.build()


# --------------------------------------------------------------------------- #
# Mode machine: accepting cycle only the red phase can close
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ModeState(LocalState):
    mode: int = 0


def _tx_action(local: ModeState, _messages, ctx: ActionContext) -> ModeState:
    # mode 0 --X--> mode 2;   mode 1 --X--> mode 2 (re-arming Y)
    if local.mode == 1:
        ctx.send("m", "Y")
    return local.update(mode=2)


def _ty_action(local: ModeState, _messages, ctx: ActionContext) -> ModeState:
    # mode 0 --Y--> mode 1;   mode 2 --Y--> mode 0 (re-arming both)
    if local.mode == 2:
        ctx.send("m", "X")
        ctx.send("m", "Y")
        return local.update(mode=0)
    return local.update(mode=1)


def build_mode_machine():
    """Graph: s1 -> s3 -> s1 (no accepting state) and s1 -> s2 -> s3 with
    s2 accepting (mode 1).  The blue DFS explores s1 -> s3 first and pops s3
    as blue; the closing edge of the accepting cycle (s2 -> s3) then points
    at a *blue* state, so the early cyan check never fires and only the red
    search from s2 finds the cycle s2 -> s3 -> s1 -> s2."""
    builder = ProtocolBuilder("mode-machine")
    builder.add_process("m", "machine", ModeState())
    self_set = frozenset({"m"})
    builder.add_transition(
        name="TX@m",
        process_id="m",
        message_type="X",
        action=_tx_action,
        annotation=LporAnnotation(
            sends=(SendSpec("Y", recipients=self_set),),
            possible_senders=frozenset({"driver", "m"}),
        ),
    )
    builder.add_transition(
        name="TY@m",
        process_id="m",
        message_type="Y",
        action=_ty_action,
        annotation=LporAnnotation(
            sends=(SendSpec("X", recipients=self_set), SendSpec("Y", recipients=self_set)),
            possible_senders=frozenset({"driver", "m"}),
        ),
    )
    builder.trigger("X", "m")
    builder.trigger("Y", "m")
    return builder.build()


class OnlyModeOneAccepts:
    """Duck-typed liveness property: no pruning, accepting iff mode == 1.

    Distinct ``prunes``/``accepting`` hooks (unlike ``Eventually``, where
    accepting == not-pruned) are what route the search through the red
    phase.
    """

    name = "mode-one-recurs"
    network_sensitive = False

    def prunes(self, _state, _protocol) -> bool:
        return False

    def accepting(self, state, _protocol) -> bool:
        return state.local("m").mode == 1


def never() -> Eventually:
    return Eventually(name="never", predicate=lambda state, protocol: False)


def eventually_bit() -> Eventually:
    return Eventually(
        name="eventually-bit",
        predicate=lambda state, protocol: state.local("clock").bit,
        network_sensitive=False,
    )


class TestEventuallyProperty:
    def test_goal_of_classifies_properties(self):
        assert goal_of(never()) == "liveness"
        assert goal_of(OnlyModeOneAccepts()) == "liveness"
        assert goal_of(Invariant(name="inv", predicate=lambda s, p: True)) == "invariant"

    def test_eventually_prunes_exactly_where_the_goal_holds(self):
        prop = eventually_bit()
        protocol = build_toggle()
        from repro.mp.semantics import SuccessorEngine

        engine = SuccessorEngine(protocol)
        initial = engine.initial_state()
        assert not prop.prunes(initial, protocol)
        assert prop.accepting(initial, protocol)
        flipped = engine.successor(initial, engine.enabled(initial)[0])
        assert prop.prunes(flipped, protocol)
        assert not prop.accepting(flipped, protocol)


class TestNdfsVerdicts:
    @pytest.mark.parametrize("search", [ndfs_search, fast_ndfs_search])
    def test_unsatisfiable_goal_yields_a_lasso(self, search):
        outcome = search(build_toggle(), never())
        assert not outcome.verified
        cx = outcome.counterexample
        assert cx is not None and cx.is_lasso
        assert len(cx.cycle_steps) >= 1
        assert cx.cycle_start < len(cx.steps)

    @pytest.mark.parametrize("search", [ndfs_search, fast_ndfs_search])
    def test_reachable_goal_on_every_run_verifies(self, search):
        outcome = search(build_toggle(), eventually_bit())
        assert outcome.verified
        assert outcome.complete

    @pytest.mark.parametrize("search", [ndfs_search, fast_ndfs_search])
    def test_goal_holding_initially_short_circuits(self, search):
        prop = Eventually(name="already", predicate=lambda state, protocol: True)
        telemetry = RunTelemetry()
        outcome = search(build_toggle(), prop, telemetry=telemetry)
        assert outcome.verified
        assert outcome.statistics.states_visited == 1
        # Regression: the trivial exit used to return before the end-of-run
        # recorders, leaving this run's snapshot without its gauges.
        metrics = telemetry.snapshot()["metrics"]
        assert metrics["state_store_size"]["values"][0]["value"] == 1
        assert metrics["ndfs_red_states"]["values"][0]["value"] == 0
        assert ("fastpath_memo_misses" in metrics) == (search is fast_ndfs_search)

    @pytest.mark.parametrize("search", [ndfs_search, fast_ndfs_search])
    def test_terminal_accepting_state_is_a_stutter_violation(self, search, ping_pong):
        # Acyclic protocol + unsatisfiable goal: the violation is a run that
        # ends without reaching the goal, encoded as a lasso with an empty
        # cycle (stutter-extension semantics).
        outcome = search(ping_pong, never())
        assert not outcome.verified
        cx = outcome.counterexample
        assert cx.cycle_start == len(cx.steps)
        assert cx.cycle_steps == ()
        assert "terminal state" in cx.format()

    @pytest.mark.parametrize("search", [ndfs_search, fast_ndfs_search])
    def test_red_phase_finds_the_cycle_the_blue_phase_cannot(self, search):
        # Replay needs the protocol instance the search ran on: Execution
        # objects hold that build's TransitionSpecs, which compare by
        # identity (their guards/actions are closures).
        protocol = build_mode_machine()
        outcome = search(protocol, OnlyModeOneAccepts())
        assert not outcome.verified
        cx = outcome.counterexample
        assert cx.is_lasso and len(cx.cycle_steps) >= 1
        # The cycle really passes through the accepting state.
        states = cx.replay(protocol)
        assert any(state.local("m").mode == 1 for state in states[cx.cycle_start:])

    def test_object_and_packed_engines_agree(self):
        for protocol, prop in [
            (build_toggle(), never()),
            (build_toggle(), eventually_bit()),
            (build_mode_machine(), OnlyModeOneAccepts()),
        ]:
            slow = ndfs_search(protocol, prop)
            fast = fast_ndfs_search(protocol, prop)
            assert slow.verified == fast.verified
            assert slow.statistics.states_visited == fast.statistics.states_visited
            if slow.counterexample is not None:
                assert len(slow.counterexample.steps) == len(fast.counterexample.steps)
                assert slow.counterexample.cycle_start == fast.counterexample.cycle_start


class TestNdfsConfigValidation:
    def test_stateless_config_is_rejected(self):
        with pytest.raises(ValueError, match="stateful"):
            ndfs_search(build_toggle(), never(), CheckPlan(stateful=False))

    @pytest.mark.parametrize("search", [ndfs_search, fast_ndfs_search])
    def test_fingerprint_store_is_accepted(self, search):
        outcome = search(build_toggle(), never(),
                         CheckPlan(store="fingerprint"))
        assert not outcome.verified

    def test_fast_config_delegates_to_the_packed_engine(self):
        object_outcome = ndfs_search(build_toggle(), never())
        delegated = ndfs_search(build_toggle(), never(),
                                CheckPlan(successors="fast"))
        assert delegated.verified == object_outcome.verified
        assert (delegated.statistics.states_visited
                == object_outcome.statistics.states_visited)

    @pytest.mark.parametrize("search", [ndfs_search, fast_ndfs_search])
    def test_max_states_truncates_without_a_verdict(self, search):
        outcome = search(build_toggle(), never(), CheckPlan(max_states=1))
        assert outcome.verified
        assert not outcome.complete

    @pytest.mark.parametrize("search", [ndfs_search, fast_ndfs_search])
    def test_violations_emit_observer_events(self, search):
        observer = CollectingObserver()
        search(build_toggle(), never(), observer=observer)
        kinds = [event.kind for event in observer.events]
        assert "violation-found" in kinds


class TestLassoReplay:
    @pytest.mark.parametrize("search", [ndfs_search, fast_ndfs_search])
    def test_replay_is_deterministic_and_closes_the_cycle(self, search):
        protocol = build_toggle()
        cx = search(protocol, never()).counterexample
        first = cx.replay(protocol)
        second = cx.replay(protocol)
        assert first == second
        # The final state re-enters the cycle exactly where it started.
        assert first[-1] == first[cx.cycle_start]

    def test_replay_rejects_a_diverging_trace(self):
        protocol = build_toggle()
        cx = ndfs_search(protocol, never()).counterexample
        tampered = Counterexample(
            initial_state=cx.initial_state,
            steps=cx.steps,
            property_name=cx.property_name,
            cycle_start=0 if cx.cycle_start != 0 else len(cx.steps) - 1,
        )
        if tampered.cycle_start != cx.cycle_start:
            with pytest.raises(ValueError):
                tampered.replay(protocol)

    def test_lasso_format_marks_the_cycle(self):
        cx = ndfs_search(build_toggle(), never()).counterexample
        rendered = cx.format()
        assert "lasso" in rendered
        assert "cycle starts" in rendered
