"""The swarm backend end to end: plans, resolution, verdicts, telemetry."""

from __future__ import annotations

import io
import multiprocessing

import pytest

from repro.engine.events import CollectingObserver, ProgressPrinter
from repro.engine.plan import (
    DEFAULT_WALK_DEPTH,
    DEFAULT_WALKS,
    CheckPlan,
    UnsupportedPlanError,
    strategy_label,
)
from repro.engine.registry import resolve, run_plan
from repro.protocols.catalog import entry_by_key

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

VIOLATING_KEY = "multicast-2-1-2-1"
CLEAN_KEY = "multicast-2-1-0-1"


def swarm_plan(**overrides):
    axes = dict(shape="dfs", reduction="none", backend="swarm",
                stateful=False, walks=2000, walk_seed=7)
    axes.update(overrides)
    return CheckPlan(**axes)


def run_swarm_on(key, **overrides):
    """Run a swarm plan, returning (result, protocol).

    Replay must use the protocol instance the search ran on: the recorded
    Executions hold that build's TransitionSpecs.
    """
    entry = entry_by_key(key, "small")
    observer = overrides.pop("observer", None)
    telemetry = overrides.pop("telemetry", None)
    protocol = entry.quorum_model()
    result = run_plan(
        protocol, entry.invariant, swarm_plan(**overrides),
        observer=observer, telemetry=telemetry,
    )
    return result, protocol


def run_swarm(key, **overrides):
    return run_swarm_on(key, **overrides)[0]


class TestSwarmPlanAxes:
    def test_swarm_plans_are_stateless_and_storeless(self):
        plan = CheckPlan(backend="swarm")
        assert not plan.stateful
        assert plan.store == "none"

    def test_swarm_defaults_walks_seed_and_depth(self):
        plan = CheckPlan(backend="swarm")
        assert plan.walks == DEFAULT_WALKS
        assert plan.walk_seed == 0
        assert plan.max_depth == DEFAULT_WALK_DEPTH

    def test_explicit_budget_survives(self):
        plan = CheckPlan(backend="swarm", walks=99, walk_seed=5, max_depth=17)
        assert (plan.walks, plan.walk_seed, plan.max_depth) == (99, 5, 17)

    def test_walks_on_exhaustive_backend_rejected(self):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            CheckPlan(walks=100)
        assert excinfo.value.axis == "backend"
        assert excinfo.value.alternative.backend == "swarm"

    def test_walk_seed_on_exhaustive_backend_rejected(self):
        with pytest.raises(UnsupportedPlanError):
            CheckPlan(backend="serial", walk_seed=3)

    def test_invalid_walks_rejected(self):
        with pytest.raises(UnsupportedPlanError):
            CheckPlan(backend="swarm", walks=0)

    def test_describe_names_the_sampling_configuration(self):
        description = swarm_plan().describe()
        assert "swarm" in description
        assert "walks2000" in description
        assert "seed7" in description

    def test_strategy_label(self):
        assert strategy_label(swarm_plan()) == "swarm"


class TestSwarmResolution:
    def test_reduction_refused(self):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            resolve(swarm_plan(reduction="spor"))
        assert excinfo.value.axis in ("reduction", "backend")

    def test_bfs_shape_refused(self):
        with pytest.raises(UnsupportedPlanError):
            resolve(swarm_plan(shape="bfs"))

    def test_liveness_goal_refused(self):
        with pytest.raises(UnsupportedPlanError):
            resolve(swarm_plan(goal="liveness"))

    def test_auto_never_picks_swarm(self):
        engine, resolved = resolve(
            CheckPlan(shape="dfs", reduction="none", backend="auto",
                      stateful=False)
        )
        assert "swarm" not in engine.name
        assert resolved.backend != "swarm"

    def test_serial_and_parallel_engines_resolve(self):
        engine, _ = resolve(swarm_plan())
        assert engine.name == "swarm"
        if HAS_FORK:
            engine, _ = resolve(swarm_plan(workers=4))
            assert engine.name == "swarm-parallel"

    def test_fast_successor_mode_resolves(self):
        engine, _ = resolve(swarm_plan(successors="fast"))
        assert engine.name == "swarm"


class TestSwarmVerdicts:
    def test_violation_is_conclusive_with_replayable_ce(self):
        result, protocol = run_swarm_on(VIOLATING_KEY)
        assert result.outcome() == "violated"
        assert result.conclusive
        assert not result.complete
        ce = result.counterexample
        assert ce is not None
        assert not ce.is_lasso
        ce.replay(protocol)  # raises on divergence

    def test_budget_exhaustion_is_inconclusive_never_verified(self):
        result = run_swarm(CLEAN_KEY, walks=50)
        assert result.outcome() == "inconclusive"
        assert not result.conclusive
        assert not result.complete
        assert result.counterexample is None

    def test_same_seed_reproduces_identical_trace(self):
        first = run_swarm(VIOLATING_KEY)
        second = run_swarm(VIOLATING_KEY)
        assert (first.counterexample.transition_names()
                == second.counterexample.transition_names())

    def test_fast_and_object_walkers_find_identical_trace(self):
        object_result = run_swarm(VIOLATING_KEY)
        fast_result = run_swarm(VIOLATING_KEY, successors="fast")
        assert (object_result.counterexample.transition_names()
                == fast_result.counterexample.transition_names())

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_max_states_caps_total_steps(self, workers):
        # The budget is the run's, not each worker's: a pool overshoots it
        # by at most one unfinished walk per worker.
        if workers > 1 and not HAS_FORK:
            pytest.skip("parallel swarm requires fork")
        result = run_swarm(CLEAN_KEY, walks=100000, max_states=2000,
                           max_depth=20, workers=workers)
        assert result.outcome() == "inconclusive"
        assert result.statistics.transitions_executed <= 2000 + workers * 20

    def test_statistics_report_walk_counters(self):
        result = run_swarm(CLEAN_KEY, walks=100)
        stats = result.statistics
        assert stats.states_visited > 0          # unique-fingerprint estimate
        assert stats.transitions_executed > 0    # total walk steps
        assert stats.max_depth > 0               # deepest walk


class TestSwarmObservability:
    def test_progress_events_carry_walk_payload(self):
        observer = CollectingObserver()
        run_swarm(CLEAN_KEY, walks=2500, observer=observer)
        progress = observer.last("progress")
        assert progress is not None
        assert progress.payload["walks_completed"] >= 1000
        assert "unique_fingerprints" in progress.payload
        assert "violations" in progress.payload

    def test_violation_event_names_the_walk(self):
        observer = CollectingObserver()
        run_swarm(VIOLATING_KEY, observer=observer)
        violation = observer.last("violation-found")
        assert violation is not None
        assert "walk_index" in violation.payload

    def test_progress_printer_renders_walks(self):
        stream = io.StringIO()
        run_swarm(CLEAN_KEY, walks=2500, observer=ProgressPrinter(stream))
        output = stream.getvalue()
        assert "walks" in output
        assert "unique" in output
        assert "Inconclusive (budget hit)" in output
        assert ": Verified" not in output

    def test_telemetry_gauges_and_spans(self):
        result = run_swarm(CLEAN_KEY, walks=600)
        metrics = result.telemetry["metrics"]
        completed = metrics["swarm_walks_completed"]
        assert completed["values"][0]["value"] == 600
        assert metrics["swarm_walks_per_second"]["values"][0]["value"] > 0
        assert metrics["swarm_unique_fingerprints"]["values"][0]["value"] > 0
        finished = result.telemetry["spans"]["finished"]
        assert any(record["span"] == "walk-batch" for record in finished)

    def test_ce_replay_span_on_violation(self):
        result = run_swarm(VIOLATING_KEY)
        assert result.outcome() == "violated"
        finished = result.telemetry["spans"]["finished"]
        assert any(record["span"] == "ce-replay" for record in finished)


@pytest.mark.skipif(not HAS_FORK, reason="parallel swarm requires fork")
class TestParallelSwarm:
    @pytest.mark.parametrize("workers", (2, 4))
    def test_parallel_trace_identical_to_serial(self, workers):
        serial = run_swarm(VIOLATING_KEY)
        parallel, protocol = run_swarm_on(VIOLATING_KEY, workers=workers)
        assert parallel.outcome() == "violated"
        assert parallel.engine == "swarm-parallel"
        assert (parallel.counterexample.transition_names()
                == serial.counterexample.transition_names())
        parallel.counterexample.replay(protocol)

    def test_parallel_clean_run_is_inconclusive(self):
        result = run_swarm(CLEAN_KEY, walks=400, workers=2)
        assert result.outcome() == "inconclusive"
        assert result.counterexample is None
        # All walks ran: no violation means no early abort.
        observer_total = result.statistics.transitions_executed
        assert observer_total > 0

    def test_parallel_emits_worker_reports(self):
        observer = CollectingObserver()
        run_swarm(CLEAN_KEY, walks=400, workers=2, observer=observer)
        assert observer.counts().get("worker-report") == 2
