"""Tests of the cell-parallel experiment runner."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine.plan import CheckPlan
from repro.parallel.cells import CellSpec, run_cell, run_cells, specs_for_sweep
from repro.protocols.catalog import default_catalog

#: Fields that legitimately differ between runs of the same cell: wall
#: clocks, and the telemetry block (throughput, RSS, span timings).
TIMING_FIELDS = ("elapsed_seconds", "wall_seconds", "telemetry")


def stable(record):
    return {key: value for key, value in record.items() if key not in TIMING_FIELDS}


class TestRunCell:
    def test_verified_cell(self):
        record = run_cell(CellSpec(key="multicast-2-1-0-1"))
        assert record["verified"] and record["ok"]
        assert record["cell"] == "multicast-2-1-0-1"
        assert record["states_visited"] > 0
        assert not record["expect_violation"]

    def test_violating_cell_is_expected(self):
        record = run_cell(
            CellSpec(key="storage-3-2-wrong", plan=CheckPlan(reduction="spor"))
        )
        assert not record["verified"]
        assert record["expect_violation"] and record["ok"]
        assert record["counterexample_steps"] > 0

    def test_inner_parallel_bfs_cell(self):
        serial = run_cell(
            CellSpec(key="multicast-2-1-0-1", plan=CheckPlan(shape="bfs"))
        )
        parallel = run_cell(
            CellSpec(key="multicast-2-1-0-1", plan=CheckPlan(shape="bfs", workers=2))
        )
        assert serial["states_visited"] == parallel["states_visited"]
        assert parallel["workers"] == 2

    def test_truncated_search_is_not_ok(self):
        # Seeing 5 states of a verified cell proves nothing: the record must
        # not claim agreement with the paper's expected outcome.
        record = run_cell(CellSpec(key="paxos-2-2-1", plan=CheckPlan(max_states=5)))
        assert record["verified"] and not record["complete"]
        assert not record["ok"]

    def test_truncated_search_that_found_the_expected_ce_is_ok(self):
        # stop-at-first-violation reports complete=False, but a found
        # counterexample is conclusive evidence.
        record = run_cell(CellSpec(key="storage-3-2-wrong"))
        assert not record["verified"] and not record["complete"]
        assert record["ok"]

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            run_cell(CellSpec(key="paxos-99-99-99"))

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            run_cell(CellSpec(key="paxos-2-2-1", model="triple"))

    def test_liveness_goal_checks_the_liveness_property(self):
        record = run_cell(
            CellSpec(key="crashrecovery-2-1-starved", plan=CheckPlan(goal="liveness"))
        )
        assert record["goal"] == "liveness"
        assert record["strategy"] == "ndfs"
        assert not record["verified"]
        assert record["expect_violation"] and record["ok"]

    def test_liveness_goal_on_a_cell_without_one_is_refused(self):
        with pytest.raises(ValueError, match="no liveness property"):
            run_cell(CellSpec(key="paxos-2-2-1", plan=CheckPlan(goal="liveness")))

    @pytest.mark.parametrize(
        "plan, store, stateful",
        [
            (CheckPlan(reduction="dpor", store="fingerprint"), "none", False),
            (CheckPlan(backend="swarm", walks=20), "none", False),
            (CheckPlan(store="fingerprint"), "fingerprint", True),
        ],
        ids=["dpor", "swarm", "fingerprint"],
    )
    def test_record_reports_the_plan_that_ran(self, plan, store, stateful):
        record = run_cell(CellSpec(key="multicast-2-1-2-1", plan=plan))
        assert record["store"] == store
        assert record["stateful"] is stateful
        assert record["workers"] == 1


class TestRunCells:
    SPECS = (
        CellSpec(key="multicast-2-1-0-1"),
        CellSpec(key="multicast-3-0-1-1"),
        CellSpec(key="storage-3-1"),
    )

    def test_serial_and_pool_agree(self):
        serial = run_cells(self.SPECS, workers=1)
        pooled = run_cells(self.SPECS, workers=2)
        assert [stable(record) for record in serial] == [
            stable(record) for record in pooled
        ]
        # Results come back in spec order regardless of completion order.
        assert [record["cell"] for record in pooled] == [
            spec.key for spec in self.SPECS
        ]

    def test_single_spec_stays_in_process(self):
        records = run_cells(self.SPECS[:1], workers=4)
        assert len(records) == 1 and records[0]["ok"]

    def test_every_spec_runs_its_own_plan_across_the_pool(self):
        plans = (
            CheckPlan(),
            CheckPlan(shape="bfs", store="fingerprint"),
            CheckPlan(reduction="spor-net"),
        )
        specs = [replace(spec, plan=plan) for spec, plan in zip(self.SPECS, plans)]
        records = run_cells(specs, workers=2)
        assert [
            (record["shape"], record["reduction"], record["store"])
            for record in records
        ] == [(plan.shape, plan.reduction, plan.store) for plan in plans]
        assert all(record["ok"] for record in records)


class TestSpecsForSweep:
    def test_defaults_cover_catalog(self):
        specs = specs_for_sweep()
        assert [spec.key for spec in specs] == [
            entry.key for entry in default_catalog("small")
        ]
        assert all(spec.model == "quorum" for spec in specs)

    def test_model_grid(self):
        dpor = CheckPlan(reduction="dpor")
        specs = specs_for_sweep(
            keys=["paxos-2-2-1"], models=("quorum", "single"), plan=dpor
        )
        assert [(spec.key, spec.model) for spec in specs] == [
            ("paxos-2-2-1", "quorum"),
            ("paxos-2-2-1", "single"),
        ]
        assert all(spec.plan == dpor for spec in specs)

    def test_unknown_key_rejected_upfront(self):
        with pytest.raises(KeyError):
            specs_for_sweep(keys=["nope"])

    def test_liveness_sweep_covers_the_cells_that_carry_one(self):
        liveness = CheckPlan(goal="liveness")
        specs = specs_for_sweep(plan=liveness)
        assert [spec.key for spec in specs] == [
            entry.key for entry in default_catalog("small")
            if entry.liveness is not None
        ]
        assert all(spec.plan == liveness for spec in specs)


class TestUnsupportedPlansAcrossThePool:
    def test_pool_workers_propagate_the_structured_error(self):
        # Regression: UnsupportedPlanError used not to survive pickling, so
        # a rejection inside a pool worker deadlocked pool.map forever
        # instead of surfacing the diagnostic.
        from repro.engine import UnsupportedPlanError
        worksteal = CheckPlan(backend="worksteal")  # workers=1
        specs = [
            CellSpec(key="multicast-2-1-0-1", plan=worksteal),
            CellSpec(key="multicast-3-0-1-1", plan=worksteal),
        ]
        with pytest.raises(UnsupportedPlanError, match="nearest supported"):
            run_cells(specs, workers=2)
