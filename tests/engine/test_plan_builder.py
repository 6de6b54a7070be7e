"""The command line's plan builder and the plans it hands to the runners.

``repro.cli._plan_from_args`` is the one place a command line becomes a
:class:`CheckPlan` (``check``, ``sweep`` and ``engines --plan`` all go
through it).  These tests pin its defaults, the axis each flag lands
on, the ``workers <= 1`` clamp, and that the plan it builds is what runs:
a :class:`CellSpec` carries it across processes as it is, and every result
carries the resolved plan, which reruns to the same result.
"""

from __future__ import annotations

import pickle
from dataclasses import fields

import pytest

from repro.cli import _plan_from_args, build_parser
from repro.engine import CheckPlan, UnsupportedPlanError, run_plan
from repro.engine.plan import REDUCTIONS, SHAPES
from repro.parallel import CellSpec, run_cell
from repro.protocols.catalog import multicast_entry


def plan_for(*argv: str) -> CheckPlan:
    """The plan ``repro check multicast-2-1-0-1 ARGV...`` would run."""
    args = build_parser().parse_args(["check", "multicast-2-1-0-1", *argv])
    return _plan_from_args(args, args.workers)


class TestDefaults:
    def test_invariant_check_defaults_to_spor(self):
        plan = plan_for()
        assert (plan.shape, plan.reduction, plan.store, plan.backend) == (
            "dfs", "spor", "full", "auto",
        )
        assert plan.workers == 1
        assert plan.stateful

    def test_an_explicit_shape_leaves_the_run_unreduced(self):
        assert plan_for("--shape", "dfs").reduction == "none"
        assert plan_for("--shape", "bfs").reduction == "none"

    def test_an_explicit_reduction_keeps_the_dfs_shape(self):
        plan = plan_for("--reduction", "spor-net")
        assert (plan.shape, plan.reduction) == ("dfs", "spor-net")

    def test_liveness_goal_defaults_to_unreduced_dfs(self):
        plan = plan_for("--goal", "liveness")
        assert (plan.goal, plan.shape, plan.reduction) == ("liveness", "dfs", "none")

    def test_swarm_backend_defaults_to_unreduced_dfs(self):
        plan = plan_for("--backend", "swarm")
        assert (plan.backend, plan.shape, plan.reduction) == ("swarm", "dfs", "none")
        assert not plan.stateful
        assert plan.store == "none"

    @pytest.mark.parametrize("command", ["check", "sweep"])
    def test_every_runner_builds_the_same_default(self, command):
        argv = [command] + (["multicast-2-1-0-1"] if command == "check" else [])
        args = build_parser().parse_args(argv)
        assert _plan_from_args(args, 1) == plan_for()

    def test_engines_dry_run_uses_its_own_axis_defaults(self):
        args = build_parser().parse_args(["engines", "--plan"])
        assert _plan_from_args(args, args.workers) == CheckPlan()


class TestFlagsLandOnTheirAxes:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_shape_flag(self, shape):
        assert plan_for("--shape", shape).shape == shape

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_reduction_flag(self, reduction):
        assert plan_for("--reduction", reduction).reduction == reduction

    @pytest.mark.parametrize("store", ["full", "fingerprint", "sharded-fingerprint"])
    def test_store_flag(self, store):
        assert plan_for("--shape", "dfs", "--store", store).store == store

    def test_dpor_is_always_stateless(self):
        plan = plan_for("--reduction", "dpor", "--store", "fingerprint")
        assert not plan.stateful
        assert plan.store == "none"

    def test_bfs_is_always_stateful(self):
        plan = plan_for("--shape", "bfs")
        assert plan.stateful
        assert plan.store == "full"

    def test_successors_flag(self):
        assert plan_for("--successors", "fast").successors == "fast"
        assert plan_for().successors == "object"

    def test_budgets_carry_over(self):
        plan = plan_for("--max-states", "100", "--max-seconds", "2.5",
                        "--max-depth", "4")
        assert (plan.max_states, plan.max_seconds, plan.max_depth) == (100, 2.5, 4)

    def test_swarm_walks_and_seed_carry_over(self):
        plan = plan_for("--backend", "swarm", "--walks", "20", "--seed", "7")
        assert (plan.walks, plan.walk_seed) == (20, 7)

    def test_walks_without_the_swarm_backend_are_refused(self):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            plan_for("--walks", "20")
        assert excinfo.value.axis == "backend"

    def test_fault_knobs_carry_over(self, tmp_path):
        plan = plan_for("--shape", "bfs", "--chaos", "crash:1@3",
                        "--checkpoint-dir", str(tmp_path), "--checkpoint-every", "2",
                        "--resume", str(tmp_path))
        assert plan.chaos == "crash:1@3"
        assert plan.checkpoint_dir == str(tmp_path)
        assert plan.checkpoint_every == 2
        assert plan.resume_from == str(tmp_path)


class TestWorkersClamp:
    @pytest.mark.parametrize("workers", ["-1", "0", "1"])
    def test_workers_at_most_one_is_serial(self, workers):
        assert plan_for("--workers", workers).workers == 1

    def test_workers_above_one_are_kept(self):
        assert plan_for("--workers", "3").workers == 3

    def test_the_clamp_is_the_builders_not_the_plans(self):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            CheckPlan(workers=0)
        assert excinfo.value.axis == "workers"


class TestCellSpecCarriesThePlan:
    def test_a_cell_is_key_model_scale_and_plan(self):
        assert [field.name for field in fields(CellSpec)] == [
            "key", "model", "scale", "plan",
        ]
        assert CellSpec("multicast-2-1-0-1").plan == CheckPlan()

    @pytest.mark.parametrize(
        "plan",
        [
            CheckPlan(),
            CheckPlan(reduction="spor-net", successors="fast"),
            CheckPlan(shape="bfs", workers=2, store="fingerprint"),
            CheckPlan(reduction="dpor"),
            CheckPlan(backend="swarm", walks=20, walk_seed=3),
        ],
        ids=["dfs", "spor-net-fast", "bfs-x2", "dpor", "swarm"],
    )
    def test_a_cell_pickles_as_it_is(self, plan):
        spec = CellSpec("multicast-2-1-0-1", model="single", plan=plan)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestResultsCarryThePlanThatRan:
    ENTRY = multicast_entry(2, 1, 0, 1)

    @pytest.mark.parametrize(
        "plan",
        [
            CheckPlan(),
            CheckPlan(reduction="spor"),
            CheckPlan(reduction="spor-net"),
            CheckPlan(reduction="dpor"),
            CheckPlan(shape="bfs"),
        ],
        ids=["dfs", "spor", "spor-net", "dpor", "bfs"],
    )
    def test_rerunning_the_resolved_plan_reproduces_the_run(self, plan):
        first = run_plan(self.ENTRY.quorum_model(), self.ENTRY.invariant, plan)
        assert first.plan.backend == "serial"
        again = run_plan(self.ENTRY.quorum_model(), self.ENTRY.invariant, first.plan)
        assert again.plan == first.plan
        assert again.engine == first.engine
        assert again.strategy == first.strategy
        assert again.verified == first.verified
        assert again.statistics.states_visited == first.statistics.states_visited

    def test_a_cell_record_matches_the_direct_run(self):
        plan = plan_for("--reduction", "spor-net")
        record = run_cell(CellSpec("multicast-2-1-0-1", plan=plan))
        direct = run_plan(self.ENTRY.quorum_model(), self.ENTRY.invariant, plan)
        assert record["engine"] == direct.engine
        assert record["strategy"] == direct.strategy == "spor-net"
        assert record["verified"] is direct.verified
        assert record["states_visited"] == direct.statistics.states_visited
