"""Work-stealing parallel DFS: engine semantics, plumbing and determinism.

The exhaustive count parity across worker counts lives in the conformance
matrix (``tests/integration/test_strategy_matrix.py``); this module covers
the engine's own contract: the deque/termination protocol, counterexample
rebuild determinism, budget handling, the serial fallbacks, and the wiring
through ``run_plan`` / ``CellSpec`` / the CLI.
"""

from __future__ import annotations

import io
import multiprocessing
import os
import random
from dataclasses import dataclass

import pytest

from repro.checker.property import Invariant
from repro.checker.search import dfs_search
from repro.cli import main as cli_main
from repro.engine import CheckPlan, run_plan
from repro.mp import ActionContext, LporAnnotation, ProtocolBuilder, SendSpec, exact_quorum
from repro.mp.process import LocalState
from repro.mp.semantics import apply_execution
from repro.parallel import CellSpec, parallel_dfs_search, run_cell, run_cells
from repro.parallel.worksteal import WorkStealingDeques
from repro.protocols.catalog import multicast_entry, storage_entry

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the work-stealing search requires the fork start method",
)


# --------------------------------------------------------------------------- #
# A seeded violating protocol whose counterexamples all have one length
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Voter(LocalState):
    voted: bool = False


@dataclass(frozen=True)
class _Collector(LocalState):
    decided: bool = False


def _vote(local, _messages, ctx: ActionContext):
    ctx.send("collector", "VOTE", choice="yes")
    return local.update(voted=True)


def _collect(local, messages, _ctx: ActionContext):
    return local.update(decided=True)


def build_seeded_violation(seed: int):
    """A unanimity protocol drawn from ``seed``: N voters, quorum of N.

    The collector can only decide after *every* voter has cast, so each of
    the N! interleavings reaches a violating state after exactly N + 1
    transitions — every counterexample has the same length, whichever
    worker finds it first.
    """
    voters = random.Random(seed).randint(2, 4)
    builder = ProtocolBuilder(f"seeded-violation-{seed}")
    voter_ids = tuple(f"voter{i + 1}" for i in range(voters))
    builder.add_process("collector", "collector", _Collector())
    for pid in voter_ids:
        builder.add_process(pid, "voter", _Voter())
        builder.add_transition(
            name=f"CAST@{pid}",
            process_id=pid,
            message_type="CAST",
            action=_vote,
            annotation=LporAnnotation(
                sends=(SendSpec("VOTE", recipients=frozenset({"collector"})),),
                possible_senders=frozenset({"driver"}),
                starts_instance=True,
            ),
        )
        builder.trigger("CAST", pid)
    builder.add_transition(
        name="VOTE@collector",
        process_id="collector",
        message_type="VOTE",
        quorum=exact_quorum(voters),
        action=_collect,
        annotation=LporAnnotation(
            possible_senders=frozenset(voter_ids),
            visible=True,
            finishes_instance=True,
        ),
    )
    invariant = Invariant(
        name="collector-never-decides",
        predicate=lambda state, _protocol: not state.local("collector").decided,
    )
    return builder.build(), invariant, voters


class TestCounterexampleDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_trace_length_is_identical_at_any_worker_count(self, seed):
        protocol, invariant, voters = build_seeded_violation(seed)
        serial = dfs_search(protocol, invariant)
        assert not serial.verified
        assert len(serial.counterexample.steps) == voters + 1
        for workers in (1, 2, 4):
            protocol, invariant, _ = build_seeded_violation(seed)
            outcome = parallel_dfs_search(protocol, invariant, CheckPlan(workers=workers))
            assert not outcome.verified
            assert outcome.counterexample is not None
            assert len(outcome.counterexample.steps) == len(serial.counterexample.steps)

    def test_rebuilt_counterexample_is_a_real_violating_path(self):
        entry = multicast_entry(2, 1, 2, 1)
        protocol = entry.quorum_model()
        outcome = parallel_dfs_search(protocol, entry.invariant, CheckPlan(workers=2))
        counterexample = outcome.counterexample
        assert counterexample is not None
        cursor = counterexample.initial_state
        assert cursor == protocol.initial_state()
        for step in counterexample.steps:
            cursor = apply_execution(cursor, step.execution)
            assert cursor == step.state
        assert not entry.invariant.holds_in(cursor, protocol)


class TestEngineSemantics:
    def test_workers_one_is_exactly_the_serial_search(self):
        entry = multicast_entry(2, 1, 0, 1)
        serial = dfs_search(entry.quorum_model(), entry.invariant)
        delegated = parallel_dfs_search(entry.quorum_model(), entry.invariant,
                                        CheckPlan(workers=1))
        assert delegated.verified == serial.verified
        assert delegated.statistics.states_visited == serial.statistics.states_visited
        assert delegated.statistics.max_depth == serial.statistics.max_depth

    def test_violated_initial_state_short_circuits(self):
        entry = multicast_entry(2, 1, 0, 1)
        never = Invariant(name="never", predicate=lambda _s, _p: False)
        outcome = parallel_dfs_search(entry.quorum_model(), never, CheckPlan(workers=2))
        assert not outcome.verified and not outcome.complete
        assert outcome.counterexample is not None
        assert outcome.counterexample.steps == ()

    def test_max_states_truncates_without_claiming_completeness(self):
        entry = storage_entry(3, 1)
        outcome = parallel_dfs_search(
            entry.quorum_model(), entry.invariant, CheckPlan(max_states=50, workers=2)
        )
        assert outcome.verified
        assert not outcome.complete
        assert outcome.statistics.states_visited >= 50

    def test_max_depth_truncates_without_claiming_completeness(self):
        entry = multicast_entry(2, 1, 0, 1)
        outcome = parallel_dfs_search(
            entry.quorum_model(), entry.invariant, CheckPlan(max_depth=3, workers=2)
        )
        assert outcome.verified
        assert not outcome.complete
        assert outcome.statistics.states_visited < 45

    def test_exploration_continues_past_violations_when_asked(self):
        protocol, invariant, _voters = build_seeded_violation(0)
        config = CheckPlan(stop_at_first_violation=False, workers=2)
        serial = dfs_search(protocol, invariant, config)
        protocol, invariant, _voters = build_seeded_violation(0)
        outcome = parallel_dfs_search(protocol, invariant, config)
        assert not outcome.verified
        assert outcome.complete
        assert outcome.counterexample is not None
        assert outcome.statistics.states_visited == serial.statistics.states_visited


GRAPHS = ["object", "fast"]


@pytest.mark.parametrize("graph", GRAPHS)
class TestFaults:
    """The pool is not supervised: a death is an honest verdict, and a fault
    plan that could inject nothing is refused."""

    def test_dead_worker_is_a_verdict_not_a_traceback(self, graph, monkeypatch):
        # Fails at the parent: run_plan raised WorkerCrashError.
        import repro.parallel.dfs as dfs_module
        from repro.engine import CheckPlan, run_plan
        from repro.engine.events import CollectingObserver

        worker_body = dfs_module._worksteal_worker

        def dies_at_once(worker_id, *args):
            if worker_id == 1:
                os._exit(1)  # the hard death of a SIGKILL or the OOM killer
            worker_body(worker_id, *args)

        monkeypatch.setattr(dfs_module, "_worksteal_worker", dies_at_once)
        entry = storage_entry(3, 1)
        observer = CollectingObserver()
        result = run_plan(
            entry.single_model(), entry.invariant,
            CheckPlan(shape="dfs", backend="worksteal", workers=2,
                      successors=graph),
            observer=observer,
        )
        assert result.complete is False
        assert result.incomplete_reason == "worker crash"
        assert result.verified is True  # no violation seen — inconclusive
        assert result.outcome_label() == "Inconclusive (worker crash)"
        # The survivor's report is folded in: every state it claimed beyond
        # the initial one was reached by a transition it counted.
        statistics = result.statistics
        assert statistics.transitions_executed >= statistics.states_visited - 1 >= 0
        reports = [event.payload["worker"] for event in observer.events
                   if event.kind == "worker-report"]
        assert reports == [0]
        crashes = [event.payload for event in observer.events
                   if event.kind == "worker-crashed"]
        assert crashes == [{"worker": 1, "phase": "report"}]

    def test_chaos_is_rejected(self, graph):
        # Fails at the parent: the plan ran and "verified" with no fault
        # injected anywhere.
        from repro.engine import CheckPlan, run_plan

        entry = storage_entry(3, 1)
        with pytest.raises(ValueError, match="does not support chaos"):
            run_plan(
                entry.single_model(), entry.invariant,
                CheckPlan(shape="dfs", backend="worksteal", workers=2,
                          successors=graph, chaos="crash:1@3"),
            )


class TestStripedClaimTable:
    def test_full_stripe_still_reports_revisits(self):
        from repro.parallel.worksteal import StripedClaimTable

        # One stripe, four slots, inserts capped at three: re-claiming an
        # existing fingerprint must be a revisit (False), never a
        # capacity error; only a *new* claim overflows.
        table = StripedClaimTable(capacity=4, stripes=1)
        claimed = []
        fingerprint = 0
        while len(claimed) < 3:
            if table.add_fingerprint(fingerprint):
                claimed.append(fingerprint)
            fingerprint += 1
        for seen in claimed:
            assert table.add_fingerprint(seen) is False
        with pytest.raises(RuntimeError, match="full"):
            while True:
                fingerprint += 1
                table.add_fingerprint(fingerprint)


class TestWorkStealingDeques:
    @pytest.fixture()
    def manager(self):
        context = multiprocessing.get_context("fork")
        manager = context.Manager()
        yield manager
        manager.shutdown()

    def test_owner_pops_lifo_thief_steals_oldest(self, manager):
        deques = WorkStealingDeques(3, manager)
        deques.publish(0, "old")
        deques.publish(0, "new")
        deques.publish(1, "other")
        # Worker 2 steals from the busiest victim (worker 0) at the tail:
        # the oldest published frame, i.e. the shallowest subtree.
        assert deques.next_task(2) == "old"
        assert deques.steal_count() == 1
        # The owner pops its own head first (depth-first locality).
        assert deques.next_task(0) == "new"
        assert deques.next_task(1) == "other"
        assert deques.publish_count() == 3

    def test_last_resigner_declares_termination(self, manager):
        deques = WorkStealingDeques(2, manager)
        assert deques.busy_workers() == 2
        assert deques.next_task(0) is None
        assert not deques.done.is_set()
        assert deques.next_task(1) is None
        assert deques.done.is_set()

    def test_acquire_rejoins_the_busy_set_atomically(self, manager):
        deques = WorkStealingDeques(2, manager)
        assert deques.next_task(0) is None
        assert deques.busy_workers() == 1
        deques.publish(1, "frame")
        assert deques.try_acquire(0) == "frame"
        assert deques.busy_workers() == 2
        # Both workers out of work and deques empty: termination.
        assert deques.next_task(0) is None
        assert deques.next_task(1) is None
        assert deques.done.is_set()


class TestCheckerAndCellPlumbing:
    @pytest.mark.parametrize("reduction", ["none", "spor", "spor-net"])
    def test_workers_flow_through_the_checker(self, reduction):
        entry = multicast_entry(2, 1, 0, 1)
        serial = run_plan(entry.quorum_model(), entry.invariant,
                          CheckPlan(reduction=reduction))
        parallel = run_plan(entry.quorum_model(), entry.invariant,
                            CheckPlan(reduction=reduction, workers=2))
        assert parallel.engine == "worksteal-dfs"
        assert parallel.verified == serial.verified
        assert parallel.strategy == serial.strategy

    def test_dpor_rejects_workers_with_a_diagnostic(self):
        entry = multicast_entry(2, 1, 0, 1)
        with pytest.raises(ValueError, match="backtrack sets"):
            run_plan(entry.quorum_model(), entry.invariant,
                     CheckPlan(reduction="dpor", workers=2))

    def test_stateless_search_rejects_workers_with_a_diagnostic(self):
        # The claim table has no stateless mode; refusing loudly beats
        # silently running a stateful search under a stateless label.
        entry = multicast_entry(2, 1, 0, 1)
        with pytest.raises(ValueError, match="stateful"):
            run_plan(entry.quorum_model(), entry.invariant,
                     CheckPlan(stateful=False, workers=2))

    def test_cell_spec_runs_the_worksteal_axis(self):
        record = run_cell(
            CellSpec(key="multicast-2-1-0-1",
                     plan=CheckPlan(reduction="spor", workers=2))
        )
        assert record["verified"] is True
        assert record["ok"] is True
        assert record["workers"] == 2

    def test_inner_parallel_cells_bypass_the_daemonic_pool(self):
        # A pool worker cannot fork the in-cell searches; run_cells must
        # fall back to the in-process loop instead of crashing.
        plan = CheckPlan(workers=2)
        specs = [
            CellSpec(key="multicast-2-1-0-1", plan=plan),
            CellSpec(key="multicast-3-0-1-1", plan=plan),
        ]
        records = run_cells(specs, workers=2)
        assert [record["ok"] for record in records] == [True, True]

    def test_cli_check_worksteal(self):
        stream = io.StringIO()
        code = cli_main(
            ["check", "multicast-2-1-0-1", "--shape", "dfs", "--workers", "2"],
            stream=stream,
        )
        assert code == 0
        assert "Verified" in stream.getvalue()


class TestLiveProgress:
    """In-flight ``progress`` events from the shared claim counter."""

    def test_progress_ticks_arrive_before_the_worker_reports(self):
        from repro.engine.events import CollectingObserver

        entry = storage_entry(3, 2, wrong_specification=True)
        events = CollectingObserver()
        outcome = parallel_dfs_search(
            entry.quorum_model(),
            entry.invariant,
            # Exhaustive (no early stop), so the >10k-state cell is
            # guaranteed to cross several PROGRESS_INTERVAL boundaries
            # while the coordinator is still polling.
            config=CheckPlan(stop_at_first_violation=False, workers=2),
            observer=events,
        )
        assert outcome.statistics.states_visited > 1000
        kinds = events.kinds()
        assert "progress" in kinds, "no in-flight progress tick was emitted"
        # Every progress tick is live: emitted while workers were still
        # running, i.e. strictly before the end-of-run worker reports.
        assert kinds.index("progress") < kinds.index("worker-report")
        ticks = [e.payload["states_visited"] for e in events.events
                 if e.kind == "progress"]
        assert ticks == sorted(ticks)
        assert all(tick <= outcome.statistics.states_visited for tick in ticks)
