"""End-to-end run telemetry: every engine family fills the run report."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.analysis.aggregate import result_record
from repro.engine import CheckPlan, CollectingObserver, run_plan
from repro.obs.telemetry import RunTelemetry, maybe_span
from repro.protocols.catalog import crash_recovery_entry, multicast_entry

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

VERIFIED = multicast_entry(2, 1, 0, 1)


def check(plan, entry=VERIFIED, observer=None):
    return run_plan(entry.quorum_model(), entry.invariant, plan, observer=observer)


def metric(result, name):
    return result.telemetry["metrics"].get(name)


def span_names(result):
    return [record["span"] for record in result.telemetry["spans"]["finished"]]


class TestRunReports:
    def test_every_plan_run_carries_a_telemetry_snapshot(self):
        result = check(CheckPlan())
        report = result.telemetry
        assert set(report) >= {"metrics", "spans"}
        assert metric(result, "states_visited")["total"] \
            == result.statistics.states_visited
        assert metric(result, "transitions_executed")["total"] \
            == result.statistics.transitions_executed
        assert "search" in span_names(result)
        assert json.loads(json.dumps(report)) == report

    def test_search_span_duration_brackets_the_statistics(self):
        result = check(CheckPlan())
        (search,) = [r for r in result.telemetry["spans"]["finished"]
                     if r["span"] == "search"]
        assert search["elapsed_seconds"] >= result.statistics.elapsed_seconds
        assert search["attrs"]["engine"] == result.engine

    def test_store_occupancy_is_recorded(self):
        result = check(CheckPlan())
        store = metric(result, "state_store_size")
        assert store["values"][0]["value"] == result.statistics.states_visited

    def test_bfs_records_the_frontier_peak(self):
        result = check(CheckPlan(shape="bfs"))
        peak = metric(result, "frontier_peak")["values"][0]["value"]
        assert 1 <= peak <= result.statistics.states_visited

    def test_spor_records_reduction_effectiveness(self):
        result = check(CheckPlan(reduction="spor"))
        ratio = metric(result, "reduction_ratio")
        assert ratio is not None
        assert 0.0 <= ratio["values"][0]["value"] <= 1.0
        assert metric(result, "reduced_expansions")["total"] \
            == result.statistics.reduced_expansions

    def test_dpor_records_reduction_effectiveness(self):
        result = check(CheckPlan(reduction="dpor"))
        assert metric(result, "enabled_set_computations") is not None

    def test_fastpath_records_compile_span_and_memo_counters(self):
        result = check(CheckPlan(store="fingerprint", successors="fast"))
        assert "compile" in span_names(result)
        hits = metric(result, "fastpath_memo_hits")
        misses = metric(result, "fastpath_memo_misses")
        assert hits is not None and misses is not None
        assert misses["total"] >= 1  # first guard evaluation always misses
        assert metric(result, "fastpath_memo_evictions") is not None
        assert metric(result, "fastpath_table_size") is not None

    def test_record_block_carries_memo_counters_and_span_totals(self):
        # What a BENCH record keeps of the snapshot: the memo counters and
        # the per-phase span totals survive the compaction.
        result = check(CheckPlan(store="fingerprint", successors="fast"))
        block = result_record(result)["telemetry"]
        for name in ("fastpath_memo_hits", "fastpath_memo_misses",
                     "fastpath_memo_evictions"):
            assert name in block
        assert "search" in block["span_seconds"]

    def test_ndfs_records_red_phase_spans_and_gauges(self):
        entry = crash_recovery_entry(2, 1)
        result = run_plan(
            entry.quorum_model(), entry.liveness, CheckPlan(goal="liveness")
        )
        assert result.verified
        assert metric(result, "ndfs_red_states") is not None
        assert "red-phase" in span_names(result)

    def test_observer_sees_the_span_events_the_report_records(self):
        observer = CollectingObserver()
        result = check(CheckPlan(store="fingerprint", successors="fast"),
                       observer=observer)
        emitted = [e.payload["span"] for e in observer.events
                   if e.kind == "span-finished"]
        assert emitted == span_names(result)

    def test_throughput_gauge_matches_statistics(self):
        result = check(CheckPlan())
        gauge = metric(result, "states_per_second")
        if result.statistics.elapsed_seconds > 0:
            assert gauge["values"][0]["value"] == pytest.approx(
                result.statistics.states_visited
                / result.statistics.elapsed_seconds
            )


@pytest.mark.skipif(not HAS_FORK, reason="parallel engines require fork")
class TestParallelRunReports:
    def test_worksteal_records_per_worker_counters(self):
        result = check(CheckPlan(workers=2))
        claimed = metric(result, "worker_claimed")
        assert {v["labels"]["worker"] for v in claimed["values"]} == {"0", "1"}
        assert claimed["total"] == result.statistics.states_visited - 1
        assert metric(result, "worksteal_steals") is not None
        assert metric(result, "worksteal_publishes") is not None
        assert metric(result, "claim_table_stripe_size") is not None

    def test_worksteal_streams_live_worker_telemetry(self):
        observer = CollectingObserver()
        result = check(CheckPlan(workers=2), observer=observer)
        live = [e.payload for e in observer.events
                if e.kind == "worker-telemetry"]
        assert live, "coordinator never relayed a worker gauge flush"
        for payload in live:
            assert set(payload) == {
                "worker", "claimed", "transitions_executed", "revisits"
            }
            assert payload["worker"] in (0, 1)
        assert result.statistics.states_visited > 0

    def test_frontier_records_peak_and_worker_totals(self):
        observer = CollectingObserver()
        result = check(CheckPlan(shape="bfs", workers=2), observer=observer)
        assert metric(result, "frontier_peak") is not None
        transitions = metric(result, "worker_transitions_executed")
        assert transitions["total"] == result.statistics.transitions_executed
        live = [e.payload for e in observer.events
                if e.kind == "worker-telemetry"]
        for payload in live:
            assert set(payload) == {"worker", "expansions", "transitions_executed"}
        # Cumulative per-worker counters never decrease.
        by_worker = {}
        for payload in live:
            previous = by_worker.get(payload["worker"], (0, 0))
            current = (payload["expansions"], payload["transitions_executed"])
            assert current >= previous
            by_worker[payload["worker"]] = current

    def test_fast_worksteal_also_records_memo_counters(self):
        result = check(
            CheckPlan(workers=2, store="fingerprint", successors="fast")
        )
        assert metric(result, "fastpath_memo_misses") is not None
        assert metric(result, "worker_claimed") is not None


class TestTelemetryPlumbing:
    def test_run_plan_accepts_a_caller_owned_telemetry(self):
        telemetry = RunTelemetry()
        telemetry.metrics.counter("custom_metric").inc(7)
        result = run_plan(
            VERIFIED.quorum_model(), VERIFIED.invariant, CheckPlan(),
            telemetry=telemetry,
        )
        assert result.telemetry["metrics"]["custom_metric"]["total"] == 7
        assert result.telemetry["metrics"]["states_visited"]["total"] \
            == result.statistics.states_visited

    def test_direct_search_calls_need_no_telemetry(self):
        from repro.checker.search import dfs_search

        from repro.fastpath.search import fast_dfs_search

        outcome = dfs_search(
            VERIFIED.quorum_model(), VERIFIED.invariant, CheckPlan()
        )
        assert outcome.verified
        # Telemetry observes a search and never perturbs it.
        bare = fast_dfs_search(VERIFIED.quorum_model(), VERIFIED.invariant)
        traced = fast_dfs_search(VERIFIED.quorum_model(), VERIFIED.invariant,
                                 telemetry=RunTelemetry())
        assert bare.verified == traced.verified
        assert bare.statistics.states_visited == traced.statistics.states_visited
        assert (bare.statistics.transitions_executed
                == traced.statistics.transitions_executed)

    def test_maybe_span_is_a_noop_without_telemetry(self):
        with maybe_span(None, "compile"):
            pass
        telemetry = RunTelemetry()
        with maybe_span(telemetry, "compile", protocol="p"):
            pass
        assert telemetry.tracer.finished[0]["span"] == "compile"

    def test_peak_rss_is_reported_on_posix(self):
        report = RunTelemetry().snapshot()
        assert report.get("peak_rss_kb", 0) > 0
