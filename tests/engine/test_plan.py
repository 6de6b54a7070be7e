"""Unit tests for :class:`repro.engine.plan.CheckPlan` and its validation."""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.engine.plan import (
    BACKENDS,
    GOALS,
    PLAN_AXES,
    REDUCTIONS,
    SEED_HEURISTICS,
    SHAPES,
    STORES,
    CheckPlan,
    UnsupportedPlanError,
    strategy_label,
)


class TestVocabularies:
    def test_axis_vocabularies_are_closed(self):
        assert SHAPES == ("dfs", "bfs")
        assert REDUCTIONS == ("none", "spor", "spor-net", "dpor")
        assert set(STORES) == {"full", "fingerprint", "sharded-fingerprint", "none"}
        assert "auto" in BACKENDS
        assert GOALS == ("invariant", "liveness")

    def test_store_vocabulary_stays_in_lockstep_with_the_store_factory(self):
        # STORES is a literal (importing STORE_KINDS would cycle through
        # repro.checker.__init__ back into plan.py); this pin is what makes
        # the duplication safe.
        from repro.checker.statestore import STORE_KINDS

        assert set(STORES) == set(STORE_KINDS)

    def test_seed_heuristic_vocabulary_stays_in_lockstep_with_the_factory(self):
        from repro.por import seed

        assert set(SEED_HEURISTICS) == set(seed.SEED_HEURISTICS)

    def test_plan_axes_cover_the_capability_surface(self):
        assert set(PLAN_AXES) == {
            "shape", "reduction", "store", "backend", "workers", "stateful",
            "successors", "goal",
        }


class TestSurface:
    def test_the_plan_has_exactly_these_fields(self):
        # Every field is a configuration the tests and the ledger must
        # cover; adding one is meant to need this edit.
        assert [f.name for f in fields(CheckPlan)] == [
            "shape", "reduction", "store", "backend", "workers", "stateful",
            "successors", "seed_heuristic", "max_depth", "max_states",
            "max_seconds", "stop_at_first_violation", "goal", "walks",
            "walk_seed", "chaos", "checkpoint_dir", "checkpoint_every",
            "resume_from",
        ]

    def test_the_wire_format_sets_only_plan_fields(self):
        from repro.service.jobs import PLAN_FIELDS

        assert set(PLAN_FIELDS) <= {f.name for f in fields(CheckPlan)}


class TestConstruction:
    def test_defaults_are_a_serial_exhaustive_stateful_dfs(self):
        plan = CheckPlan()
        assert plan.shape == "dfs"
        assert plan.reduction == "none"
        assert plan.store == "full"
        assert plan.backend == "auto"
        assert plan.workers == 1
        assert plan.stateful

    def test_plans_are_frozen_and_hashable(self):
        plan = CheckPlan()
        with pytest.raises(AttributeError):
            plan.shape = "bfs"
        assert CheckPlan() in {plan}

    @pytest.mark.parametrize("axis,value", [
        ("shape", "zigzag"),
        ("reduction", "magic"),
        ("store", "cloud"),
        ("backend", "gpu"),
        ("goal", "fairness"),
        ("seed_heuristic", "luckiest"),
    ])
    def test_unknown_axis_values_raise_structured_errors(self, axis, value):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            CheckPlan(**{axis: value})
        error = excinfo.value
        assert error.axis == axis
        assert error.value == value
        assert error.alternative is not None
        assert axis in str(error)

    def test_unknown_value_suggests_the_typo_correction(self):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            CheckPlan(reduction="spor-nett")
        assert excinfo.value.alternative == "spor-net"
        with pytest.raises(UnsupportedPlanError) as excinfo:
            CheckPlan(seed_heuristic="fewest-dependants")
        assert excinfo.value.alternative == "fewest-dependents"

    @pytest.mark.parametrize("workers", [0, -3])
    def test_non_positive_workers_rejected(self, workers):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            CheckPlan(workers=workers)
        assert excinfo.value.axis == "workers"
        assert excinfo.value.alternative == 1

    def test_unsupported_plan_error_is_a_value_error(self):
        # Legacy call sites guard the facade with ``except ValueError``.
        assert issubclass(UnsupportedPlanError, ValueError)

    def test_unsupported_plan_error_pickles_round_trip(self):
        # An unpicklable exception deadlocks multiprocessing pools that try
        # to ship it back to the parent (the run_cells sweep path).
        import pickle

        error = UnsupportedPlanError(
            "workers", 2, "no engine", alternative=CheckPlan()
        )
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, UnsupportedPlanError)
        assert clone.axis == "workers"
        assert clone.value == 2
        assert str(clone) == "no engine"
        assert clone.alternative == CheckPlan()


class TestNormalisation:
    def test_dpor_is_stateless_by_definition(self):
        plan = CheckPlan(reduction="dpor")
        assert not plan.stateful
        assert plan.store == "none"

    def test_stateless_plans_store_nothing(self):
        plan = CheckPlan(stateful=False, store="full")
        assert plan.store == "none"

    def test_stateful_with_no_store_is_a_contradiction(self):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            CheckPlan(stateful=True, store="none")
        error = excinfo.value
        assert error.axis == "store"
        assert isinstance(error.alternative, CheckPlan)
        assert error.alternative.store == "full"


class TestDerivedViews:
    def test_search_config_mirrors_the_plan(self):
        # The searches take the plan itself; the alias survives only for
        # the frozen ledger's direct dfs_search calls.
        plan = CheckPlan(store="fingerprint", max_states=10)
        assert plan.search_config() is plan

    def test_describe_is_compact(self):
        plan = CheckPlan(shape="dfs", reduction="spor", backend="worksteal", workers=4)
        assert plan.describe() == "dfs/spor/full/worksteal x4"
        assert CheckPlan().describe() == "dfs/none/full/auto"

    def test_describe_marks_liveness_plans(self):
        # Invariant renderings stay byte-identical; liveness plans carry an
        # explicit marker so logs and diagnostics distinguish the goal.
        assert CheckPlan(goal="liveness").describe() == "dfs/none/full/auto+liveness"

    def test_axes_round_trip(self):
        plan = CheckPlan(shape="bfs", workers=2)
        axes = plan.axes()
        assert axes["shape"] == "bfs"
        assert axes["workers"] == 2
        assert axes["goal"] == "invariant"
        assert replace(plan) == plan


class TestStrategyLabel:
    @pytest.mark.parametrize("plan,label", [
        (CheckPlan(), "unreduced"),
        (CheckPlan(reduction="spor"), "spor"),
        (CheckPlan(reduction="spor-net"), "spor-net"),
        (CheckPlan(reduction="dpor"), "dpor"),
        (CheckPlan(shape="bfs"), "bfs"),
        (CheckPlan(goal="liveness"), "ndfs"),
    ])
    def test_labels_match_the_legacy_strategy_strings(self, plan, label):
        assert strategy_label(plan) == label
