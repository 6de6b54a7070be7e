"""Liveness conformance rows over the cyclic crash-recovery family.

The engine harness (``tests/integration/test_engine_harness.py``) runs the
crash-recovery cells through every row; what stays here is what a cyclic
protocol adds to plan resolution:

* liveness plans route to the nested-DFS row over either state graph;
* stubborn-set reduction across work-stealing workers is refused on a
  cyclic protocol (and only there);
* every unsupported goal x reduction x backend combination is refused with
  a structured :class:`UnsupportedPlanError` whose suggested alternative is
  itself runnable — no silent unsoundness, no dead-end diagnostics.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.engine import CheckPlan, UnsupportedPlanError, resolve, run_plan
from repro.protocols.catalog import crash_recovery_entry

pytestmark = pytest.mark.liveness

#: The cyclic catalog cells: (entry, expected liveness verdict).
CYCLIC_CELLS = [
    pytest.param(crash_recovery_entry(2, 1), id="crashrecovery-2-1"),
    pytest.param(
        crash_recovery_entry(2, 1, starved=True), id="crashrecovery-2-1-starved"
    ),
]

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the parallel engines require the fork start method",
)


class TestEngineRouting:
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
    """SPOR on the cyclic state graph: refused where it cannot be sound."""

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
