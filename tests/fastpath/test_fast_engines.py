"""The ``successors="fast"`` axis behind the plan layer: resolution,
downgrades, CLI.  A fast plan runs the one loop of the un-suffixed engine
over the packed graph — serial, frontier or work-stealing; no engine is
named for its state graph."""

from __future__ import annotations

import io
import multiprocessing
from dataclasses import replace

import pytest

from repro.cli import main
from repro.engine import ENGINES, CheckPlan, UnsupportedPlanError, resolve, run_plan
from repro.engine.plan import SUCCESSOR_MODES
from repro.protocols.catalog import multicast_entry

from ..plan_grid import supported_plans

FORK = "fork" in multiprocessing.get_all_start_methods()

#: Invariant-checking engines that run over either graph / objects only.
EITHER_GRAPH_NAMES = {"serial-dfs", "serial-bfs", "frontier-bfs", "worksteal-dfs"}
OBJECT_ONLY_NAMES = {"dpor"}


class TestResolution:
    def test_vocabulary(self):
        assert SUCCESSOR_MODES == ("object", "fast")

    @pytest.mark.parametrize("plan,expected", [
        (CheckPlan(successors="fast"), "serial-dfs"),
        (CheckPlan(successors="fast", reduction="spor"), "serial-dfs"),
        (CheckPlan(successors="fast", shape="bfs"), "serial-bfs"),
        (CheckPlan(successors="fast", goal="liveness"), "serial-ndfs"),
        (
            CheckPlan(successors="fast", shape="bfs", workers=4,
                      store="fingerprint"),
            "frontier-bfs",
        ),
        (
            CheckPlan(successors="fast", shape="bfs", workers=4, store="full"),
            "frontier-bfs",
        ),
        (CheckPlan(successors="fast", workers=4), "worksteal-dfs"),
        (
            CheckPlan(successors="fast", reduction="spor-net", workers=2),
            "worksteal-dfs",
        ),
    ])
    def test_fast_plans_resolve_to_the_unsuffixed_engines(self, plan, expected):
        engine, resolved = resolve(plan)
        assert engine.name == expected
        assert resolved.backend != "auto"
        assert resolved.successors == "fast"

    def test_no_engine_is_named_for_its_state_graph(self):
        names = {engine.name for engine in ENGINES}
        assert len(names) == 8
        assert not [name for name in names if name.endswith("-fast")]

    def test_fast_plans_never_reach_object_only_engines(self):
        grid = supported_plans(
            stores=("full", "fingerprint"),
            successor_modes=("fast",),
        )
        names = set()
        for engine, plan in grid:
            assert plan.successors == "fast"
            names.add(engine.name)
        assert names == EITHER_GRAPH_NAMES
        assert not names & OBJECT_ONLY_NAMES

    def test_unknown_successor_mode_suggests_the_vocabulary(self):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            CheckPlan(successors="turbo")
        assert excinfo.value.axis == "successors"

    def test_fast_dpor_is_rejected_not_downgraded(self):
        plan = CheckPlan(successors="fast", reduction="dpor")
        with pytest.raises(UnsupportedPlanError) as excinfo:
            resolve(plan)
        error = excinfo.value
        # The structured alternative is runnable and names a real engine.
        assert isinstance(error.alternative, CheckPlan)
        engine, _ = resolve(error.alternative)
        assert engine.name in EITHER_GRAPH_NAMES | {"dpor"}


class TestRunPlan:
    ENTRY = multicast_entry(2, 1, 0, 1)

    def test_fast_serial_plan_runs_with_identical_counts(self):
        slow = run_plan(self.ENTRY.quorum_model(), self.ENTRY.invariant,
                        CheckPlan())
        fast = run_plan(self.ENTRY.quorum_model(), self.ENTRY.invariant,
                        CheckPlan(successors="fast"))
        assert fast.engine == slow.engine == "serial-dfs"
        assert fast.verified == slow.verified
        assert (
            fast.statistics.states_visited == slow.statistics.states_visited
        )
        assert fast.plan.successors == "fast"

    @pytest.mark.skipif(not FORK, reason="parallel engines need fork")
    def test_fast_worksteal_plan_runs_with_identical_counts(self):
        slow = run_plan(self.ENTRY.quorum_model(), self.ENTRY.invariant,
                        CheckPlan(workers=2))
        fast = run_plan(self.ENTRY.quorum_model(), self.ENTRY.invariant,
                        CheckPlan(successors="fast", workers=2))
        assert fast.engine == slow.engine == "worksteal-dfs"
        assert fast.plan.successors == "fast"
        assert (
            fast.statistics.states_visited == slow.statistics.states_visited
        )

    @pytest.mark.skipif(not FORK, reason="parallel engines need fork")
    def test_fast_frontier_full_store_is_accepted_and_count_identical(self):
        plan = CheckPlan(shape="bfs", workers=2, store="full")
        slow = run_plan(self.ENTRY.quorum_model(), self.ENTRY.invariant, plan)
        fast = run_plan(self.ENTRY.quorum_model(), self.ENTRY.invariant,
                        replace(plan, successors="fast"))
        assert fast.engine == slow.engine == "frontier-bfs"
        assert fast.plan.successors == "fast"
        slow_stats = replace(slow.statistics, elapsed_seconds=0.0)
        fast_stats = replace(fast.statistics, elapsed_seconds=0.0)
        assert fast_stats == slow_stats


class TestCli:
    def test_engines_listing_shows_the_successors_axis(self):
        stream = io.StringIO()
        assert main(["engines"], stream=stream) == 0
        output = stream.getvalue()
        assert "-fast" not in output
        rows = {line.split()[0]: line for line in output.splitlines()
                if line and not line.startswith(" ")}
        assert len(rows) == 8
        for name in ("serial-dfs", "serial-bfs", "serial-ndfs",
                     "frontier-bfs", "worksteal-dfs"):
            assert "successors=object|fast" in rows[name]
        assert "successors=object " in rows["dpor"]

    def test_engines_plan_dry_run_resolves(self):
        stream = io.StringIO()
        code = main(
            ["engines", "--plan", "--shape", "dfs", "--reduction", "spor",
             "--workers", "4", "--successors", "fast"],
            stream=stream,
        )
        assert code == 0
        output = stream.getvalue()
        assert "worksteal-dfs" in output
        assert "-fast" not in output
        assert "backend worksteal" in output

    def test_engines_plan_dry_run_reports_unsupported(self):
        stream = io.StringIO()
        code = main(
            ["engines", "--plan", "--shape", "dfs", "--reduction", "dpor",
             "--successors", "fast"],
            stream=stream,
        )
        assert code == 2
        output = stream.getvalue()
        assert "unsupported" in output
        assert "axis: successors" in output
        assert "alternative" in output

    def test_check_accepts_successors_fast(self):
        stream = io.StringIO()
        code = main(
            ["check", "multicast-2-1-0-1", "--shape", "dfs",
             "--reduction", "none", "--successors", "fast"],
            stream=stream,
        )
        assert code == 0
        assert "Verified" in stream.getvalue()
