"""Cross-strategy conformance matrix.

The executable contract of the whole search stack: for every small catalog
cell, every engine — serial DFS, serial BFS, the frontier-parallel BFS, the
work-stealing parallel DFS and the stubborn-set reduction on top of either
DFS engine — must return the *same verdict*, and the exhaustive engines
(everything without a reduction) must visit *exactly* the same number of
states, pinned here as literal counts for 1, 2 and 4 workers.

Reduced (stubborn-set) runs are verdict-checked only: which access path
claims a state first is scheduling-dependent under work stealing, so their
visited counts may legitimately vary across runs, while always staying at
or below the exhaustive count on verified cells.
"""

from __future__ import annotations

import io
import itertools
import json
import multiprocessing
from dataclasses import replace

import pytest

from repro.cli import main as cli_main
from repro.engine import CheckPlan, UnsupportedPlanError, resolve, run_plan
from repro.engine.plan import REDUCTIONS, SHAPES
from repro.protocols.catalog import multicast_entry, paxos_entry, storage_entry

from ..plan_grid import supported_plans

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the parallel engines require the fork start method",
)

#: Worker counts every parallel engine is pinned at.
WORKER_COUNTS = (1, 2, 4)

#: Exhaustive reachable-set sizes of the verified cells (the quorum model).
#: These are the serial DFS/BFS closures; every exhaustive engine at every
#: worker count must reproduce them exactly.
EXPECTED_STATES = {
    "paxos-2-2-1": 168,
    "multicast-3-0-1-1": 65,
    "multicast-2-1-0-1": 45,
    "storage-3-1": 697,
}

VERIFIED_CELLS = [
    pytest.param(paxos_entry(2, 2, 1), id="paxos-2-2-1"),
    pytest.param(multicast_entry(3, 0, 1, 1), id="multicast-3-0-1-1"),
    pytest.param(multicast_entry(2, 1, 0, 1), id="multicast-2-1-0-1"),
    pytest.param(storage_entry(3, 1), id="storage-3-1", marks=pytest.mark.slow),
]

VIOLATING_CELLS = [
    pytest.param(multicast_entry(2, 1, 2, 1), id="multicast-2-1-2-1"),
    pytest.param(
        paxos_entry(2, 3, 1, faulty=True),
        id="faulty-paxos-2-3-1",
        marks=pytest.mark.slow,
    ),
    pytest.param(
        storage_entry(3, 2, wrong_specification=True),
        id="storage-3-2-wrong",
        marks=pytest.mark.slow,
    ),
]

#: Exhaustive (reduction-free) shapes: DFS-shaped runs use the
#: work-stealing engine for workers > 1, BFS the frontier-parallel one.
EXHAUSTIVE_SHAPES = ("dfs", "bfs")


def run_cell(entry, workers: int, **axes):
    plan = CheckPlan(workers=workers, **axes)
    return run_plan(entry.quorum_model(), entry.invariant, plan)


class TestExhaustiveCountsPinned:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("shape", EXHAUSTIVE_SHAPES)
    @pytest.mark.parametrize("entry", VERIFIED_CELLS)
    def test_visited_counts_identical_to_serial(self, entry, shape, workers):
        result = run_cell(entry, workers, shape=shape)
        assert result.verified
        assert result.complete
        assert result.statistics.states_visited == EXPECTED_STATES[entry.key]


class TestVerdictAgreement:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("entry", VERIFIED_CELLS + VIOLATING_CELLS)
    def test_all_strategies_agree(self, entry, workers):
        expected = not entry.expect_violation
        for axes in ({}, {"shape": "bfs"}, {"reduction": "spor"}):
            result = run_cell(entry, workers, **axes)
            assert result.verified == expected, (
                f"{entry.key}: {result.plan.describe()} returned "
                f"{result.verified}, expected {expected}"
            )

    @pytest.mark.parametrize("entry", VIOLATING_CELLS)
    def test_violations_come_with_counterexamples(self, entry):
        result = run_cell(entry, workers=2)
        assert not result.verified
        assert result.counterexample is not None
        assert len(result.counterexample.steps) > 0


class TestReducedRunsStayBelowExhaustive:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("entry", VERIFIED_CELLS)
    def test_stubborn_never_exceeds_exhaustive_count(self, entry, workers):
        reduced = run_cell(entry, workers, reduction="spor")
        assert reduced.verified
        assert reduced.statistics.states_visited <= EXPECTED_STATES[entry.key]


class TestPlanApiConformance:
    """Every plan that resolves, run end to end.

    Every (shape × reduction × backend × workers) combination that resolves
    produces the cell's verdict — and, for the
    exhaustive engines, the pinned visited-state count; unsupported
    combinations raise :class:`UnsupportedPlanError` naming the axis; and
    ``repro check`` with the axis flags runs the same engine to the same
    verdict as ``run_plan`` with the same plan.
    """

    ENTRY = multicast_entry(2, 1, 0, 1)

    def supported(self):
        return supported_plans(worker_counts=WORKER_COUNTS)

    def test_every_supported_combination_runs(self):
        entry = self.ENTRY
        expected_states = EXPECTED_STATES[entry.key]
        combinations = self.supported()
        assert combinations
        for engine, plan in combinations:
            result = run_plan(entry.quorum_model(), entry.invariant, plan)
            assert result.engine == engine.name
            assert result.verified, f"{plan.describe()} via {engine.name}"
            if plan.reduction == "none":
                # Exhaustive engines reproduce the serial closure exactly.
                assert result.statistics.states_visited == expected_states, (
                    f"{plan.describe()} via {engine.name}"
                )
            elif plan.reduction in ("spor", "spor-net"):
                # Reduced runs are scheduling-dependent under work stealing;
                # the invariant is the verdict plus the exhaustive bound.
                assert result.statistics.states_visited <= expected_states

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize(
        "flags, axes",
        [
            (["--shape", "dfs"], {}),
            (["--reduction", "spor"], {"reduction": "spor"}),
            (["--reduction", "spor-net"], {"reduction": "spor-net"}),
            (["--shape", "bfs"], {"shape": "bfs"}),
        ],
        ids=["dfs", "spor", "spor-net", "bfs"],
    )
    def test_cli_and_plan_api_agree(self, tmp_path, flags, axes, workers):
        entry = self.ENTRY
        target = tmp_path / "check.json"
        code = cli_main(
            ["check", entry.key, *flags, "--workers", str(workers),
             "--json", str(target)],
            stream=io.StringIO(),
        )
        assert code == 0
        record = json.loads(target.read_text())["results"][0]
        direct = run_cell(entry, workers, **axes)
        assert record["verified"] is direct.verified
        assert record["strategy"] == direct.strategy
        assert record["engine"] == direct.engine
        assert record["workers"] == direct.plan.workers == workers
        if direct.plan.reduction == "none":
            assert (
                record["states_visited"]
                == direct.statistics.states_visited
                == EXPECTED_STATES[entry.key]
            )

    def test_unsupported_combinations_raise_with_the_axis_named(self):
        supported = {
            (plan.shape, plan.reduction, plan.backend, plan.workers)
            for _, plan in self.supported()
        }
        backends = ("serial", "frontier", "worksteal")
        for shape, reduction, backend, workers in itertools.product(
            SHAPES, REDUCTIONS, backends, WORKER_COUNTS
        ):
            stateful = reduction != "dpor"
            plan = CheckPlan(
                shape=shape,
                reduction=reduction,
                store="full" if stateful else "none",
                backend=backend,
                workers=workers,
                stateful=stateful,
            )
            if (shape, reduction, backend, workers) in supported:
                engine, _ = resolve(plan)
                assert engine.accepts(plan)
            else:
                with pytest.raises(UnsupportedPlanError) as excinfo:
                    resolve(plan)
                assert excinfo.value.axis in plan.axes()


class TestFastpathTwinConformance:
    """Every engine over the packed graph against its run over objects.

    The ISSUE-5 acceptance contract: byte-identical verdicts and
    visited-state counts across the conformance matrix for workers 1, 2
    and 4.  Exhaustive fast runs must reproduce the pinned serial closures
    exactly; reduced fast runs are verdict-checked and bounded, mirroring
    the treatment of their object twins.
    """

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("entry", VERIFIED_CELLS)
    def test_fast_dfs_counts_identical_to_pinned_closure(self, entry, workers):
        # The same un-suffixed engines as the object plan, over the packed
        # graph: serial-dfs at workers=1, worksteal-dfs above.
        result = run_plan(
            entry.quorum_model(), entry.invariant,
            CheckPlan(successors="fast", workers=workers),
        )
        assert result.engine == (
            "serial-dfs" if workers == 1 else "worksteal-dfs"
        )
        assert result.plan.successors == "fast"
        assert result.verified
        assert result.complete
        assert result.statistics.states_visited == EXPECTED_STATES[entry.key]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("entry", VERIFIED_CELLS)
    def test_fast_bfs_counts_identical_to_pinned_closure(self, entry, workers):
        # workers=1 resolves to serial-bfs, above to frontier-bfs — under
        # the exact store too, which the packed frontier used to refuse.
        result = run_plan(
            entry.quorum_model(), entry.invariant,
            CheckPlan(shape="bfs", store="full",
                      successors="fast", workers=workers),
        )
        assert result.engine == (
            "serial-bfs" if workers == 1 else "frontier-bfs"
        )
        assert result.plan.successors == "fast"
        assert result.verified
        assert result.statistics.states_visited == EXPECTED_STATES[entry.key]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("entry", VERIFIED_CELLS)
    def test_fast_spor_verdicts_agree_and_stay_bounded(self, entry, workers):
        result = run_plan(
            entry.quorum_model(), entry.invariant,
            CheckPlan(reduction="spor", successors="fast", workers=workers),
        )
        assert result.verified
        assert result.statistics.states_visited <= EXPECTED_STATES[entry.key]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("entry", VIOLATING_CELLS)
    def test_fast_engines_find_the_violations(self, entry, workers):
        for plan in (
            CheckPlan(successors="fast", workers=workers),
            CheckPlan(shape="bfs", store="fingerprint",
                      successors="fast", workers=workers),
        ):
            result = run_plan(entry.quorum_model(), entry.invariant, plan)
            assert not result.verified, f"{entry.key}: {plan.describe()}"
            assert result.counterexample is not None
            assert len(result.counterexample.steps) > 0

    def test_every_supported_fast_combination_matches_its_object_twin(self):
        """The full fast grid against the object grid, axis for axis."""
        entry = multicast_entry(2, 1, 0, 1)
        fast_grid = supported_plans(
            worker_counts=WORKER_COUNTS,
            stores=("full", "fingerprint"),
            successor_modes=("fast",),
        )
        assert fast_grid
        for engine, plan in fast_grid:
            twin = replace(plan, successors="object", backend="auto")
            fast_result = run_plan(entry.quorum_model(), entry.invariant, plan)
            twin_result = run_plan(entry.quorum_model(), entry.invariant, twin)
            assert fast_result.engine == engine.name
            assert fast_result.verified == twin_result.verified, plan.describe()
            if plan.reduction == "none":
                assert (
                    fast_result.statistics.states_visited
                    == twin_result.statistics.states_visited
                ), plan.describe()


class TestDepthConsistency:
    """All engines count ``max_depth`` in edges (regression for the
    historical off-by-one where BFS counted its final empty level)."""

    @pytest.mark.parametrize("entry", VERIFIED_CELLS)
    def test_dfs_and_bfs_depths_agree(self, entry):
        # The bundled protocols have graded state graphs (every path to a
        # state has the same length), so DFS depth == BFS depth holds and
        # pins the shared edge-counting convention.
        dfs = run_cell(entry, workers=1)
        bfs = run_cell(entry, workers=1, shape="bfs")
        assert dfs.statistics.max_depth == bfs.statistics.max_depth

    @pytest.mark.parametrize("workers", (2, 4))
    def test_parallel_engines_report_the_same_depth(self, workers):
        entry = multicast_entry(2, 1, 0, 1)
        serial = run_cell(entry, workers=1)
        worksteal = run_cell(entry, workers=workers)
        frontier = run_cell(entry, workers=workers, shape="bfs")
        assert (
            worksteal.statistics.max_depth
            == frontier.statistics.max_depth
            == serial.statistics.max_depth
        )
