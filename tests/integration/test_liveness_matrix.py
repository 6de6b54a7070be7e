"""Liveness conformance matrix over the cyclic crash-recovery family.

Extends the cross-strategy matrix with the rows the liveness layer adds:

* the two nested-DFS engines (object-graph and packed) agree on verdicts,
  trace lengths and lasso shape for every cyclic catalog cell;
* stubborn-set reduction on the *cyclic* protocol stays sound — the
  cycle-aware proviso keeps the verdict identical while visiting at most
  the exhaustive state count (pinned);
* every unsupported goal x reduction x backend combination is refused with
  a structured :class:`UnsupportedPlanError` whose suggested alternative is
  itself runnable — no silent unsoundness, no dead-end diagnostics.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.checker import ndfs_search
from repro.engine import CheckPlan, UnsupportedPlanError, resolve, run_plan
from repro.fastpath.search import fast_ndfs_search
from repro.protocols.catalog import crash_recovery_entry

from ..plan_grid import supported_plans

pytestmark = pytest.mark.liveness

#: The cyclic catalog cells: (entry, expected liveness verdict).
CYCLIC_CELLS = [
    pytest.param(crash_recovery_entry(2, 1), id="crashrecovery-2-1"),
    pytest.param(
        crash_recovery_entry(2, 1, starved=True), id="crashrecovery-2-1-starved"
    ),
]

#: Exhaustive reachable-set sizes of the crash-recovery (2,1) cells.
EXPECTED_STATES = {"quorum": 18, "single": 30}

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the parallel engines require the fork start method",
)


class TestEngineParity:
    @pytest.mark.parametrize("entry", CYCLIC_CELLS)
    @pytest.mark.parametrize("model", ["quorum", "single"])
    def test_object_and_packed_ndfs_agree(self, entry, model):
        protocol = (
            entry.quorum_model() if model == "quorum" else entry.single_model()
        )
        slow = ndfs_search(protocol, entry.liveness)
        fast = fast_ndfs_search(protocol, entry.liveness)
        assert slow.verified == fast.verified
        assert slow.verified == (not entry.expect_liveness_violation)
        assert slow.statistics.states_visited == fast.statistics.states_visited
        if entry.expect_liveness_violation:
            assert len(slow.counterexample.steps) == len(fast.counterexample.steps)
            assert slow.counterexample.cycle_start == fast.counterexample.cycle_start
            assert slow.counterexample.is_lasso

    @pytest.mark.parametrize("successors", ["object", "fast"])
    @pytest.mark.parametrize("entry", CYCLIC_CELLS)
    def test_liveness_plans_route_through_the_engine_table(self, entry, successors):
        protocol = entry.quorum_model()
        result = run_plan(protocol, entry.liveness,
                          CheckPlan(goal="liveness", successors=successors))
        assert result.engine == "serial-ndfs"
        assert result.plan.successors == successors
        assert result.verified == (not entry.expect_liveness_violation)


class TestCycleAwareReduction:
    """SPOR on the cyclic state graph: sound, and still a reduction."""

    @pytest.mark.parametrize("model", ["quorum", "single"])
    def test_spor_matches_the_exhaustive_verdict_with_fewer_states(self, model):
        entry = crash_recovery_entry(2, 1)
        build = entry.quorum_model if model == "quorum" else entry.single_model
        exhaustive = run_plan(build(), entry.invariant, CheckPlan())
        reduced = run_plan(build(), entry.invariant, CheckPlan(reduction="spor"))
        assert exhaustive.verified and reduced.verified
        assert exhaustive.statistics.states_visited == EXPECTED_STATES[model]
        # The cycle-aware proviso (full expansion on stack revisit) may cost
        # states relative to a blithely unsound proviso, but never more than
        # the exhaustive closure.
        assert (
            reduced.statistics.states_visited
            <= exhaustive.statistics.states_visited
        )

    @needs_fork
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_unreduced_parallel_runs_agree_on_the_cyclic_cell(self, workers):
        entry = crash_recovery_entry(2, 1)
        result = run_plan(
            entry.quorum_model(), entry.invariant, CheckPlan(workers=workers)
        )
        assert result.verified
        assert result.statistics.states_visited == EXPECTED_STATES["quorum"]

    @needs_fork
    @pytest.mark.parametrize("workers", [2, 4])
    def test_worksteal_spor_on_a_cyclic_protocol_is_refused(self, workers):
        # The work-stealing DFS has no global stack, so the cycle proviso
        # cannot be enforced; the combination is refused, not silently run.
        entry = crash_recovery_entry(2, 1)
        plan = CheckPlan(reduction="spor", workers=workers)
        with pytest.raises(UnsupportedPlanError) as excinfo:
            run_plan(entry.quorum_model(), entry.invariant, plan)
        error = excinfo.value
        assert error.alternative is not None
        # The suggested alternative actually runs, with the right verdict.
        fallback = run_plan(entry.quorum_model(), entry.invariant, error.alternative)
        assert fallback.verified

    @needs_fork
    def test_worksteal_spor_still_runs_on_acyclic_protocols(self):
        # The refusal is keyed on the cyclic_state_graph metadata flag, not
        # on the reduction alone: acyclic families keep their parallel SPOR.
        from repro.protocols.catalog import multicast_entry

        entry = multicast_entry(2, 1, 0, 1)
        result = run_plan(
            entry.quorum_model(),
            entry.invariant,
            CheckPlan(reduction="spor", workers=2),
        )
        assert result.verified == (not entry.expect_violation)


class TestStructuredRefusals:
    def test_goal_mismatch_invariant_under_liveness_plan(self):
        entry = crash_recovery_entry(2, 1)
        with pytest.raises(UnsupportedPlanError) as excinfo:
            run_plan(entry.quorum_model(), entry.invariant, CheckPlan(goal="liveness"))
        error = excinfo.value
        assert error.axis == "goal"
        assert error.alternative.goal == "invariant"
        assert run_plan(
            entry.quorum_model(), entry.invariant, error.alternative
        ).verified

    def test_goal_mismatch_liveness_property_under_invariant_plan(self):
        entry = crash_recovery_entry(2, 1)
        with pytest.raises(UnsupportedPlanError) as excinfo:
            run_plan(entry.quorum_model(), entry.liveness, CheckPlan())
        error = excinfo.value
        assert error.axis == "goal"
        assert error.alternative.goal == "liveness"
        assert run_plan(
            entry.quorum_model(), entry.liveness, error.alternative
        ).verified

    @pytest.mark.parametrize("plan", [
        pytest.param(CheckPlan(goal="liveness", shape="bfs"), id="bfs"),
        pytest.param(CheckPlan(goal="liveness", workers=2), id="parallel"),
        pytest.param(CheckPlan(goal="liveness", reduction="spor"), id="spor"),
        pytest.param(CheckPlan(goal="liveness", reduction="dpor"), id="dpor"),
        pytest.param(CheckPlan(goal="liveness", stateful=False), id="stateless"),
    ])
    def test_unsupported_liveness_combinations_raise_resolvable_errors(self, plan):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            resolve(plan)
        alternative = excinfo.value.alternative
        assert alternative is not None
        engine, _ = resolve(alternative)
        assert engine is not None


class TestSupportedPlansGrid:
    def test_liveness_plans_appear_in_the_extended_grid(self):
        combinations = supported_plans(
            successor_modes=("object", "fast"),
            goals=("invariant", "liveness"),
        )
        liveness = [
            (engine, plan)
            for engine, plan in combinations
            if plan.goal == "liveness"
        ]
        assert liveness
        names = {engine.name for engine, _ in liveness}
        assert names == {"serial-ndfs"}
        assert {plan.successors for _, plan in liveness} == {"object", "fast"}
        for _, plan in liveness:
            assert plan.shape == "dfs"
            assert plan.reduction == "none"
            assert plan.workers == 1

    def test_default_grid_is_invariant_only(self):
        for _, plan in supported_plans():
            assert plan.goal == "invariant"
