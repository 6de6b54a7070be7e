"""The frontier-parallel breadth-first search beyond the engine harness.

The harness (``tests/integration/test_engine_harness.py``) holds every
frontier run to the serial closure; these tests cover what it does not
run: depth-bounded runs, the owner-expands partition, counterexample
rebuilds and the plan plumbing.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.checker.search import bfs_search
from repro.engine import CheckPlan, run_plan
from repro.parallel import default_mp_context, parallel_bfs_search
from repro.protocols.catalog import multicast_entry, storage_entry

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="frontier-parallel search requires the fork start method",
)


def assert_exact_parity(serial, parallel):
    assert parallel.verified == serial.verified
    assert parallel.complete == serial.complete
    assert parallel.statistics.states_visited == serial.statistics.states_visited
    assert (
        parallel.statistics.transitions_executed
        == serial.statistics.transitions_executed
    )
    assert parallel.statistics.revisits == serial.statistics.revisits
    assert parallel.statistics.max_depth == serial.statistics.max_depth
    assert (
        parallel.statistics.enabled_set_computations
        == serial.statistics.enabled_set_computations
    )


class TestBoundedRuns:
    def test_depth_bound_parity(self):
        # Depth bounds apply at level barriers in both engines, so bounded
        # runs are count-exact too.
        entry = storage_entry(3, 1)
        config = CheckPlan(max_depth=5, workers=2)
        serial = bfs_search(entry.quorum_model(), entry.invariant, config)
        parallel = parallel_bfs_search(entry.quorum_model(), entry.invariant, config)
        assert not serial.complete and not parallel.complete
        assert_exact_parity(serial, parallel)


class TestOwnerExpands:
    """Every worker dedups, checks and expands exactly its own shard, on
    either graph and under either kind of shard key."""

    @pytest.mark.parametrize("graph", ["object", "fast"])
    def test_expansion_is_balanced_by_the_partition(self, graph):
        # Fails at the parent: the discoverer kept its children, and on this
        # cell one worker expanded everything (a 100 / 0 split).
        from repro.obs.telemetry import RunTelemetry

        entry = storage_entry(3, 1)
        telemetry = RunTelemetry()
        outcome = parallel_bfs_search(
            entry.single_model(), entry.invariant,
            CheckPlan(store="fingerprint", successors=graph, workers=2),
            telemetry=telemetry,
        )
        total = outcome.statistics.enabled_set_computations
        assert total >= 2000
        rows = telemetry.snapshot()["metrics"]["worker_expansions"]["values"]
        shares = {row["labels"]["worker"]: row["value"] / total for row in rows}
        assert set(shares) == {"0", "1"}
        assert all(0.25 <= share <= 0.75 for share in shares.values()), shares


class TestViolatingCellParity:
    def test_counterexample_is_a_real_path(self):
        from repro.mp.semantics import apply_execution

        entry = storage_entry(3, 2, wrong_specification=True)
        protocol = entry.quorum_model()
        outcome = parallel_bfs_search(protocol, entry.invariant, CheckPlan(workers=2))
        counterexample = outcome.counterexample
        assert counterexample is not None
        cursor = counterexample.initial_state
        assert cursor == protocol.initial_state()
        for step in counterexample.steps:
            cursor = apply_execution(cursor, step.execution)
            assert cursor == step.state
        assert not entry.invariant.holds_in(cursor, protocol)

    def test_violated_initial_state_short_circuits(self, ping_pong):
        from repro.checker.property import Invariant

        never = Invariant(name="never", predicate=lambda state, protocol: False)
        outcome = parallel_bfs_search(ping_pong, never, CheckPlan(workers=2))
        assert not outcome.verified and not outcome.complete
        assert outcome.counterexample is not None
        assert outcome.counterexample.steps == ()


class TestCheckerPlumbing:
    def test_strategy_bfs_with_workers(self):
        entry = multicast_entry(2, 1, 0, 1)
        serial = run_plan(entry.quorum_model(), entry.invariant, CheckPlan(shape="bfs"))
        parallel = run_plan(
            entry.quorum_model(), entry.invariant, CheckPlan(shape="bfs", workers=2)
        )
        assert parallel.strategy == "bfs"
        assert parallel.verified == serial.verified
        assert (
            parallel.statistics.states_visited == serial.statistics.states_visited
        )

    def test_workers_rejected_for_dpor_only(self, ping_pong):
        # Since the work-stealing DFS landed, only DPOR remains serial-only
        # (its backtrack sets follow the serial stack and cannot be stolen).
        from repro.checker.property import always_true

        with pytest.raises(ValueError, match="backtrack"):
            run_plan(ping_pong, always_true(), CheckPlan(reduction="dpor", workers=2))
        for reduction in ("none", "spor"):
            plan = CheckPlan(reduction=reduction, workers=2)
            assert run_plan(ping_pong, always_true(), plan).verified

    def test_workers_one_is_plain_serial_bfs(self):
        entry = multicast_entry(2, 1, 0, 1)
        result = run_plan(
            entry.quorum_model(), entry.invariant, CheckPlan(shape="bfs", workers=1)
        )
        assert result.verified
        assert result.stateful


def test_default_mp_context_is_fork_here():
    context = default_mp_context()
    assert context is not None
    assert context.get_start_method() == "fork"
