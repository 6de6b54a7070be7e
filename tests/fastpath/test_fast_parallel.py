"""The parallel loops over the packed graph: their coordinator-side event
stream (fork platforms only).

Statistics identity against the serial run and the object graph — every
store, 1/2/4 workers, reduced and unreduced — lives in the parallel axis of
``tests/checker/test_stategraph.py``; crash recovery and checkpointing over
either graph in ``tests/chaos``.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.engine import CheckPlan
from repro.engine.events import CollectingObserver
from repro.obs.telemetry import RunTelemetry
from repro.parallel import parallel_bfs_search, parallel_dfs_search
from repro.protocols.catalog import multicast_entry, storage_entry

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the parallel engines require the fork start method",
)

FAST = CheckPlan(store="fingerprint", successors="fast", workers=2)


class TestFastWorksteal:
    def test_worker_reports_arrive_through_the_observer(self):
        entry = storage_entry(3, 1)
        events = CollectingObserver()
        parallel_dfs_search(
            entry.quorum_model(), entry.invariant, FAST, observer=events,
        )
        assert events.counts().get("worker-report") == 2


class TestLiveProgress:
    def test_fast_worksteal_emits_in_flight_progress_ticks(self):
        entry = storage_entry(3, 2, wrong_specification=True)
        events = CollectingObserver()
        outcome = parallel_dfs_search(
            entry.quorum_model(),
            entry.invariant,
            CheckPlan(stop_at_first_violation=False, successors="fast", workers=2),
            observer=events,
        )
        assert outcome.statistics.states_visited > 1000
        kinds = events.kinds()
        assert "progress" in kinds
        assert kinds.index("progress") < kinds.index("worker-report")


class TestFastFrontier:
    def test_level_events_report_int_deltas(self):
        # ``deltas`` counts the states that crossed a process boundary: a
        # worker ships a state of another shard at most once, and never
        # one of its own.
        entry = multicast_entry(2, 1, 0, 1)
        events = CollectingObserver()
        outcome = parallel_bfs_search(
            entry.quorum_model(), entry.invariant, FAST, observer=events,
        )
        levels = [e for e in events.events if e.kind == "level-completed"]
        assert levels
        deltas = [event.payload["deltas"] for event in levels]
        assert all(isinstance(count, int) and count >= 0 for count in deltas)
        assert 0 < sum(deltas) <= outcome.statistics.states_visited

    @pytest.mark.parametrize("graph", ["object", "fast"])
    def test_per_worker_expansions_are_recorded(self, graph):
        # Who expanded what is in the run's artefacts; the split follows the
        # fingerprint partition (tests/parallel pins its balance).
        entry = storage_entry(3, 1)
        telemetry = RunTelemetry()
        outcome = parallel_bfs_search(
            entry.quorum_model(), entry.invariant,
            CheckPlan(successors=graph, workers=2), telemetry=telemetry,
        )
        metrics = telemetry.snapshot()["metrics"]
        expansions = metrics["worker_expansions"]
        assert {row["labels"]["worker"] for row in expansions["values"]} == {"0", "1"}
        assert expansions["total"] == outcome.statistics.enabled_set_computations
        assert (metrics["worker_transitions_executed"]["total"]
                == outcome.statistics.transitions_executed)
