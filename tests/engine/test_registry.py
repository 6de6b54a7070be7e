"""Unit tests for the engine table and plan resolution."""

from __future__ import annotations

import itertools
import multiprocessing

import pytest

from repro.engine import (
    ENGINES,
    PARALLEL,
    SERIAL,
    CheckPlan,
    Engine,
    UnsupportedPlanError,
    default_registry,
    fork_available,
    resolve,
)
from repro.engine.plan import (
    BACKENDS,
    GOALS,
    PLAN_AXES,
    REDUCTIONS,
    SHAPES,
    STORES,
    SUCCESSOR_MODES,
)
from repro.engine.registry import _nearest_plan

#: The values each row axis may list (workers is a range, checked apart).
AXIS_VOCABULARY = {
    "shape": SHAPES, "reduction": REDUCTIONS, "store": STORES,
    "backend": BACKENDS, "stateful": (True, False),
    "successors": SUCCESSOR_MODES, "goal": GOALS,
}


class TestEngineTable:
    def test_table_holds_every_engine_in_resolution_order(self):
        assert [engine.name for engine in ENGINES] == [
            "serial-dfs", "serial-bfs", "frontier-bfs", "worksteal-dfs", "dpor",
            "serial-ndfs",
            "swarm", "swarm-parallel",
        ]

    def test_names_are_unique(self):
        names = [engine.name for engine in ENGINES]
        assert all(names)
        assert len(set(names)) == len(names)

    def test_stateless_rows_accept_the_none_store(self):
        # Stateless plans always carry store='none'; a row accepting
        # stateful=False without that store could never match one.
        for engine in ENGINES:
            if False in engine.stateful:
                assert "none" in engine.store, engine.name

    def test_every_row_runs_one_worker_range(self):
        for engine in ENGINES:
            assert engine.workers in (SERIAL, PARALLEL), engine.name

    def test_row_values_are_in_the_plan_vocabulary(self):
        # A misspelt value would leave a row silently unable to run it.
        for engine in ENGINES:
            for axis, vocabulary in AXIS_VOCABULARY.items():
                assert set(getattr(engine, axis)) <= set(vocabulary), (
                    engine.name, axis)

    def test_notes_are_keyed_by_plan_axes(self):
        # resolve() quotes notes[axis]; a misspelt key would drop the
        # explanation from every refusal on that axis.
        for engine in ENGINES:
            assert set(engine.notes) <= set(PLAN_AXES), engine.name
            assert all(engine.notes.values()), engine.name

    def test_every_row_resolves_some_plan(self):
        # resolve() takes the first accepting row, so a row whose plans an
        # earlier row already accepts would never run.
        winners = set()
        for shape, reduction, store, backend, workers, stateful, successors, goal in (
            itertools.product(SHAPES, REDUCTIONS, STORES, BACKENDS, (1, 2),
                              (True, False), SUCCESSOR_MODES, GOALS)
        ):
            try:
                engine, _ = resolve(CheckPlan(
                    shape=shape, reduction=reduction, store=store,
                    backend=backend, workers=workers, stateful=stateful,
                    successors=successors, goal=goal))
            except UnsupportedPlanError:
                continue
            winners.add(engine.name)
        assert winners == {engine.name for engine in ENGINES}

    def test_auto_backend_skips_exactly_the_swarm_rows(self):
        # Sampling is opt-in: backend="auto" never lands on a swarm row, and
        # every exhaustive row takes it.
        auto = CheckPlan()
        for engine in ENGINES:
            assert engine.takes(auto, "backend") == ("swarm" not in engine.backend), (
                engine.name)

    def test_a_resolved_plan_resolves_to_itself(self):
        # CheckResult.plan re-runs on the same engine with no further change.
        for plan in (CheckPlan(), CheckPlan(workers=4), CheckPlan(shape="bfs", workers=2),
                     CheckPlan(reduction="dpor"), CheckPlan(goal="liveness")):
            engine, resolved = resolve(plan)
            assert resolve(resolved) == (engine, resolved)

    def test_default_registry_is_a_resolve_alias(self):
        plan = CheckPlan(shape="bfs", workers=2)
        assert default_registry().resolve(plan) == resolve(plan)

    def test_nearest_plan_survives_the_stateless_store_normalisation(self):
        # Fixing the store axis of a stateless plan must also flip
        # statefulness, or CheckPlan.__post_init__ reverts the fix and the
        # "alternative" equals the rejected plan.
        row = Engine(
            name="stateful-store-only",
            description="accepts stateless plans but not the none store",
            run=None,
            shape=("dfs",),
            reduction=("none",),
            backend=("serial",),
            store=("full",),
            stateful=(True, False),
            workers=SERIAL,
            notes={},
        )
        plan = CheckPlan(stateful=False)
        alternative = _nearest_plan(row, plan)
        assert alternative != plan
        assert row.accepts(alternative)
        assert alternative.stateful
        assert alternative.store == "full"


class TestAutoBackendResolution:
    @pytest.mark.parametrize("plan,engine_name,backend", [
        (CheckPlan(), "serial-dfs", "serial"),
        (CheckPlan(reduction="spor"), "serial-dfs", "serial"),
        (CheckPlan(reduction="spor-net", workers=4), "worksteal-dfs", "worksteal"),
        (CheckPlan(workers=2), "worksteal-dfs", "worksteal"),
        (CheckPlan(shape="bfs"), "serial-bfs", "serial"),
        (CheckPlan(shape="bfs", workers=2), "frontier-bfs", "frontier"),
        (CheckPlan(reduction="dpor"), "dpor", "serial"),
        (CheckPlan(stateful=False), "serial-dfs", "serial"),
    ])
    def test_resolution_picks_the_backend_automatically(self, plan, engine_name, backend):
        engine, resolved = resolve(plan)
        assert engine.name == engine_name
        assert resolved.backend == backend
        # Resolution never rewrites any axis the caller pinned.
        for axis, value in plan.axes().items():
            if axis == "backend":
                continue
            assert resolved.axes()[axis] == value

    def test_explicit_backends_are_honoured(self):
        engine, resolved = resolve(CheckPlan(backend="worksteal", workers=2))
        assert engine.name == "worksteal-dfs"
        assert resolved.backend == "worksteal"


class TestStructuredDiagnostics:
    def test_dpor_rejects_workers_declaratively(self):
        with pytest.raises(UnsupportedPlanError, match="backtrack sets") as excinfo:
            resolve(CheckPlan(reduction="dpor", workers=2))
        error = excinfo.value
        assert error.axis == "workers"
        assert error.value == 2
        # The nearest supported alternative is itself runnable.
        engine, _ = resolve(error.alternative)
        assert engine.name == "dpor"

    def test_stateless_parallel_dfs_names_the_stateful_axis(self):
        with pytest.raises(UnsupportedPlanError, match="stateful") as excinfo:
            resolve(CheckPlan(stateful=False, workers=2))
        error = excinfo.value
        assert error.axis == "stateful"
        engine, _ = resolve(error.alternative)
        assert engine.name == "worksteal-dfs"

    def test_reduced_bfs_is_unsupported(self):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            resolve(CheckPlan(shape="bfs", reduction="spor"))
        error = excinfo.value
        assert error.axis in ("shape", "reduction")
        resolve(error.alternative)

    def test_explicit_worksteal_with_one_worker(self):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            resolve(CheckPlan(backend="worksteal", workers=1))
        resolve(excinfo.value.alternative)

    def test_message_names_axis_engine_and_alternative(self):
        with pytest.raises(UnsupportedPlanError) as excinfo:
            resolve(CheckPlan(reduction="dpor", workers=4))
        message = str(excinfo.value)
        assert "workers" in message
        assert "dpor" in message
        assert "nearest supported alternative" in message


class TestForkRule:
    """Multi-process rows (workers PARALLEL) need the 'fork' start method;
    resolution refuses them on spawn-only interpreters with a structured
    error and a runnable serial alternative, and it is the only place that
    decides: no parallel search falls back to serial on its own."""

    def test_the_multi_process_rows_are_the_parallel_ones(self):
        parallel = {engine.name for engine in ENGINES if engine.workers == PARALLEL}
        assert parallel == {"frontier-bfs", "worksteal-dfs", "swarm-parallel"}

    def test_fork_available_reads_the_platform(self):
        assert fork_available() == (
            "fork" in multiprocessing.get_all_start_methods()
        )

    def test_spawn_only_platform_refuses_parallel_plans(self, monkeypatch):
        monkeypatch.setattr("repro.engine.registry.fork_available", lambda: False)
        with pytest.raises(UnsupportedPlanError) as excinfo:
            resolve(CheckPlan(workers=4))
        error = excinfo.value
        assert error.axis == "backend"
        assert "fork" in str(error)
        assert "nearest supported alternative" in str(error)
        # The alternative is runnable on the very platform that refused.
        alternative = error.alternative
        assert alternative.workers == 1
        engine, resolved = resolve(alternative)
        assert resolved.backend == "serial"

    def test_spawn_only_platform_keeps_swarm_plans_on_the_walker(self, monkeypatch):
        monkeypatch.setattr("repro.engine.registry.fork_available", lambda: False)
        with pytest.raises(UnsupportedPlanError) as excinfo:
            resolve(CheckPlan(backend="swarm", workers=2))
        alternative = excinfo.value.alternative
        assert (alternative.backend, alternative.workers) == ("swarm", 1)
        engine, _ = resolve(alternative)
        assert engine.name == "swarm"

    def test_spawn_only_platform_still_resolves_serial_plans(self, monkeypatch):
        monkeypatch.setattr("repro.engine.registry.fork_available", lambda: False)
        engine, resolved = resolve(CheckPlan())
        assert resolved.backend == "serial"

    def test_fork_platform_resolves_parallel_plans(self, monkeypatch):
        monkeypatch.setattr("repro.engine.registry.fork_available", lambda: True)
        engine, resolved = resolve(CheckPlan(workers=4))
        assert resolved.backend == "worksteal"
