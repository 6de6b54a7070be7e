"""Serial/parallel parity of the frontier-parallel breadth-first search.

The coordinator promises that on every run that completes its levels the
visited set equals the serial BFS closure exactly — same state counts, same
transition counts, same revisit counts, same depth.  These tests pin that
promise across worker counts on toy protocols and a sample of Table-I
cells, plus the verdict/counterexample-depth parity on violating cells
(where serial BFS stops mid-level, so raw counts are not comparable).
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.checker.search import bfs_search
from repro.engine import CheckPlan, run_plan
from repro.parallel import default_mp_context, parallel_bfs_search
from repro.protocols.catalog import multicast_entry, paxos_entry, storage_entry

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="frontier-parallel search requires the fork start method",
)

#: Verified Table-I cells small enough for exhaustive parity runs.
VERIFIED_ENTRIES = (
    paxos_entry(2, 2, 1),
    multicast_entry(3, 0, 1, 1),
    multicast_entry(2, 1, 0, 1),
    storage_entry(3, 1),
)
ENTRY_IDS = [entry.key for entry in VERIFIED_ENTRIES]


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


class TestVerifiedCellParity:
    @pytest.mark.parametrize("entry", VERIFIED_ENTRIES, ids=ENTRY_IDS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_quorum_cell_counts_identical(self, entry, workers):
        invariant = entry.invariant
        serial = bfs_search(entry.quorum_model(), invariant)
        parallel = parallel_bfs_search(
            entry.quorum_model(), invariant, CheckPlan(workers=workers)
        )
        assert_exact_parity(serial, parallel)

    @pytest.mark.parametrize("store", ["full", "fingerprint", "sharded-fingerprint"])
    def test_store_kinds_agree(self, store):
        entry = multicast_entry(2, 1, 0, 1)
        config = CheckPlan(store=store, workers=2)
        serial = bfs_search(entry.quorum_model(), entry.invariant, config)
        parallel = parallel_bfs_search(entry.quorum_model(), entry.invariant, config)
        assert_exact_parity(serial, parallel)

    def test_toy_protocol_parity(self, ping_pong_two_rounds, vote_collection):
        from repro.checker.property import always_true

        for protocol in (ping_pong_two_rounds, vote_collection):
            serial = bfs_search(protocol, always_true())
            parallel = parallel_bfs_search(protocol, always_true(),
                                           CheckPlan(workers=3))
            assert_exact_parity(serial, parallel)

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
    @pytest.mark.parametrize("store", ["full", "fingerprint"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_grid_matches_serial(self, workers, store, graph):
        entry = storage_entry(3, 1)
        config = CheckPlan(store=store, successors=graph, workers=workers)
        serial = bfs_search(entry.quorum_model(), entry.invariant, config)
        parallel = parallel_bfs_search(entry.quorum_model(), entry.invariant, config)
        assert_exact_parity(serial, parallel)

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
    def test_verdict_and_counterexample_depth(self):
        entry = multicast_entry(2, 1, 2, 1)
        serial = bfs_search(entry.quorum_model(), entry.invariant)
        parallel = parallel_bfs_search(
            entry.quorum_model(), entry.invariant, CheckPlan(workers=2)
        )
        assert not serial.verified and not parallel.verified
        assert serial.counterexample is not None
        assert parallel.counterexample is not None
        # BFS counterexamples are depth-minimal, so both have the same length
        # even though the violating state itself may differ within the level.
        assert len(parallel.counterexample.steps) == len(serial.counterexample.steps)

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
