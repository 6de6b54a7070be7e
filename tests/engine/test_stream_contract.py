"""Stream ordering and payload-schema contract, across every engine family.

One stream, one grammar: every run starts with ``search-started``, ends
with exactly one ``search-finished``, keeps progress monotonic, balances
its span brackets and only ever emits documented event kinds.  The same
assertions run against the object-graph, fast-path, nested-DFS, frontier
and work-stealing engines so a new engine cannot quietly bend the
contract.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.engine import CheckPlan, CollectingObserver, UnsupportedPlanError, run_plan
from repro.engine.events import EVENT_KINDS
from repro.protocols.catalog import crash_recovery_entry, multicast_entry

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="parallel engines require fork")

VERIFIED = multicast_entry(2, 1, 0, 1)
VIOLATING = multicast_entry(2, 1, 2, 1)
LIVENESS = crash_recovery_entry(2, 1)

ALL_FAMILY_PLANS = [
    pytest.param(CheckPlan(), id="object-dfs"),
    pytest.param(CheckPlan(shape="bfs"), id="object-bfs"),
    pytest.param(CheckPlan(reduction="spor"), id="object-spor"),
    pytest.param(CheckPlan(reduction="dpor"), id="dpor"),
    pytest.param(CheckPlan(store="fingerprint", successors="fast"), id="fast-dfs"),
    pytest.param(CheckPlan(shape="bfs", store="fingerprint", successors="fast"),
                 id="fast-bfs"),
    pytest.param(CheckPlan(workers=2), id="worksteal", marks=needs_fork),
    pytest.param(CheckPlan(shape="bfs", workers=2), id="frontier",
                 marks=needs_fork),
    pytest.param(CheckPlan(workers=2, store="fingerprint", successors="fast"),
                 id="fast-worksteal", marks=needs_fork),
    pytest.param(CheckPlan(shape="bfs", workers=2, store="fingerprint",
                           successors="fast"),
                 id="fast-frontier", marks=needs_fork),
]


def run_with_stream(entry, plan, prop=None):
    observer = CollectingObserver()
    result = run_plan(
        entry.quorum_model(), prop if prop is not None else entry.invariant,
        plan, observer=observer,
    )
    return result, observer


class TestStreamOrdering:
    @pytest.mark.parametrize("plan", ALL_FAMILY_PLANS)
    def test_bracketing_and_kind_hygiene(self, plan):
        result, observer = run_with_stream(VERIFIED, plan)
        kinds = observer.kinds()
        assert kinds[0] == "search-started"
        assert kinds[-1] == "search-finished"
        assert kinds.count("search-started") == 1
        assert kinds.count("search-finished") == 1
        assert set(kinds) <= set(EVENT_KINDS)
        assert result.verified

    @pytest.mark.parametrize("plan", ALL_FAMILY_PLANS)
    def test_violation_precedes_the_finish(self, plan):
        result, observer = run_with_stream(VIOLATING, plan)
        assert not result.verified
        kinds = observer.kinds()
        assert "violation-found" in kinds
        assert kinds.index("violation-found") < kinds.index("search-finished")

    @pytest.mark.parametrize("plan", ALL_FAMILY_PLANS)
    def test_progress_ticks_are_monotonic(self, plan, monkeypatch):
        monkeypatch.setattr("repro.checker.search.PROGRESS_INTERVAL", 8)
        result, observer = run_with_stream(VERIFIED, plan)
        ticks = [e.payload["states_visited"] for e in observer.events
                 if e.kind == "progress"]
        assert ticks == sorted(ticks)
        assert all(tick <= result.statistics.states_visited for tick in ticks)

    @pytest.mark.parametrize("plan", ALL_FAMILY_PLANS)
    def test_span_brackets_balance(self, plan):
        _, observer = run_with_stream(VERIFIED, plan)
        started = [e.payload["span"] for e in observer.events
                   if e.kind == "span-started"]
        finished = [e.payload["span"] for e in observer.events
                    if e.kind == "span-finished"]
        assert sorted(started) == sorted(finished)
        assert "search" in started

    @pytest.mark.parametrize("plan, expect_violation", [
        pytest.param(CheckPlan(goal="liveness"), False, id="ndfs-object"),
        pytest.param(CheckPlan(goal="liveness", store="fingerprint",
                               successors="fast"), False, id="ndfs-fast"),
    ])
    def test_liveness_streams_follow_the_same_grammar(self, plan,
                                                      expect_violation):
        result, observer = run_with_stream(LIVENESS, plan, prop=LIVENESS.liveness)
        kinds = observer.kinds()
        assert kinds[0] == "search-started"
        assert kinds[-1] == "search-finished"
        assert set(kinds) <= set(EVENT_KINDS)
        assert result.verified is not expect_violation


class TestRefusals:
    @needs_fork
    def test_a_plan_refused_for_its_protocol_emits_nothing(self):
        # Work stealing cannot keep the stubborn-set cycle proviso across
        # workers, so a reduced parallel plan on a cyclic protocol is
        # refused before search-started, never between it and the finish.
        observer = CollectingObserver()
        with pytest.raises(UnsupportedPlanError) as excinfo:
            run_plan(LIVENESS.quorum_model(), LIVENESS.invariant,
                     CheckPlan(reduction="spor", workers=2), observer=observer)
        assert excinfo.value.axis == "reduction"
        assert observer.events == []


class TestPayloadSchemas:
    """Each kind's payload carries the keys its consumers rely on."""

    REQUIRED_KEYS = {
        "search-started": {"engine", "plan", "protocol", "invariant"},
        "search-finished": {"engine", "verified", "complete",
                            "states_visited", "elapsed_seconds"},
        "progress": {"states_visited"},
        "level-completed": {"depth", "new_states"},
        "violation-found": {"depth"},
        "worker-report": {"worker", "claimed"},
        "worker-telemetry": {"worker"},
        "worker-stalled": {"worker", "idle_seconds"},
        "span-started": {"span", "ts", "depth"},
        "span-finished": {"span", "start_ts", "elapsed_seconds", "depth"},
    }

    @pytest.mark.parametrize("plan", ALL_FAMILY_PLANS)
    def test_every_emitted_payload_is_complete(self, plan):
        _, observer = run_with_stream(VERIFIED, plan)
        for event in observer.events:
            required = self.REQUIRED_KEYS.get(event.kind, set())
            missing = required - set(event.payload)
            assert not missing, (
                f"{event.kind} payload is missing {sorted(missing)}: "
                f"{event.payload}"
            )

    def test_search_started_plan_axes_are_complete(self):
        _, observer = run_with_stream(VERIFIED, CheckPlan())
        plan_axes = observer.events[0].payload["plan"]
        assert {"shape", "reduction", "store", "backend", "workers",
                "successors", "goal"} <= set(plan_axes)

    @needs_fork
    def test_worksteal_worker_telemetry_is_cumulative(self):
        _, observer = run_with_stream(VERIFIED, CheckPlan(workers=2))
        by_worker = {}
        for event in observer.events:
            if event.kind != "worker-telemetry":
                continue
            payload = event.payload
            previous = by_worker.get(payload["worker"], (0, 0, 0))
            current = (payload["claimed"], payload["transitions_executed"],
                       payload["revisits"])
            assert current >= previous
            by_worker[payload["worker"]] = current
        assert by_worker, "no live worker telemetry reached the coordinator"


class TestJobScopedStreams:
    """The service layer wraps each engine stream in a per-job log; the
    job-lifecycle kinds are part of the event vocabulary and each job's log
    obeys the same grammar as a direct engine stream."""

    def test_job_event_kinds_are_in_the_vocabulary(self):
        from repro.service import JOB_EVENT_KINDS

        assert set(JOB_EVENT_KINDS) <= set(EVENT_KINDS)

    def test_job_stream_wraps_one_engine_stream(self):
        from repro.service import JobRequest, run_jobs

        (job,) = run_jobs([JobRequest(cell="multicast-2-1-0-1")], workers=1)
        kinds = job.events.kinds()
        assert set(kinds) <= set(EVENT_KINDS)
        # Lifecycle brackets around exactly one engine bracket.
        assert kinds[0] == "job-submitted"
        assert kinds[-1] == "job-finished"
        engine_kinds = [k for k in kinds if not k.startswith("job-")]
        assert engine_kinds[0] == "search-started"
        assert engine_kinds[-1] == "search-finished"
        assert kinds.count("search-started") == 1

    def test_cache_hit_stream_has_no_engine_bracket(self):
        from repro.service import JobRequest, ResultCache, run_jobs

        cache = ResultCache()
        request = JobRequest(cell="multicast-2-1-0-1")
        run_jobs([request], workers=1, cache=cache)
        (job,) = run_jobs([request], workers=1, cache=cache)
        kinds = job.events.kinds()
        assert "job-cache-hit" in kinds
        assert "search-started" not in kinds
        assert kinds[-1] == "job-finished"
