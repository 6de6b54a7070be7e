"""Unit tests for the engine registry and plan resolution."""

from __future__ import annotations

import pytest

from repro.engine import (
    Capabilities,
    CheckPlan,
    Engine,
    EngineRegistry,
    UnsupportedPlanError,
    builtin_engines,
    default_registry,
    resolve,
)


class TestRegistryBasics:
    def test_default_registry_holds_every_builtin_engine(self):
        names = [engine.name for engine in default_registry().engines()]
        assert names == [
            "serial-dfs", "serial-bfs", "frontier-bfs", "worksteal-dfs", "dpor",
            "serial-ndfs",
            "swarm", "swarm-parallel",
        ]

    def test_default_registry_is_shared(self):
        assert default_registry() is default_registry()

    def test_duplicate_names_rejected(self):
        registry = EngineRegistry(builtin_engines())
        with pytest.raises(ValueError, match="already registered"):
            registry.register(builtin_engines()[0])

    def test_unnamed_engines_rejected(self):
        with pytest.raises(ValueError, match="name"):
            EngineRegistry().register(Engine())

    def test_incoherent_stateless_capabilities_rejected_at_registration(self):
        # Stateless plans always carry store='none'; an engine claiming
        # stateless support without that store could never match one.
        class IncoherentEngine(Engine):
            name = "incoherent"
            description = "stateless without the none store"
            capabilities = Capabilities(
                shapes=("dfs",),
                reductions=("none",),
                backends=("serial",),
                stores=("full",),
                statefulness=(True, False),
            )

        with pytest.raises(ValueError, match="store='none'"):
            EngineRegistry().register(IncoherentEngine())

    def test_nearest_plan_survives_the_stateless_store_normalisation(self):
        # Fixing the store axis of a stateless plan must also flip
        # statefulness, or CheckPlan.__post_init__ reverts the fix and the
        # "alternative" equals the rejected plan.
        caps = Capabilities(
            shapes=("dfs",),
            reductions=("none",),
            backends=("serial",),
            stores=("full",),
            statefulness=(True, False),
        )
        plan = CheckPlan(stateful=False)
        alternative = caps.nearest_plan(plan)
        assert alternative != plan
        assert caps.supports(alternative)
        assert alternative.stateful
        assert alternative.store == "full"

    def test_get_unknown_engine(self):
        with pytest.raises(KeyError, match="unknown engine"):
            default_registry().get("quantum")

    def test_empty_registry_cannot_resolve(self):
        with pytest.raises(ValueError, match="empty registry"):
            EngineRegistry().resolve(CheckPlan())

    def test_custom_engines_resolve_without_facade_edits(self):
        # The point of the registry: a new axis combination lands as one
        # registration, no if-chain edits anywhere.  Reduced BFS is
        # unsupported by every built-in engine; registering an engine that
        # claims it makes the same plan resolve.
        class ReducedBfsEngine(Engine):
            name = "reduced-bfs"
            description = "pretend reduced breadth-first engine"
            capabilities = Capabilities(
                shapes=("bfs",),
                reductions=("none", "spor"),
                backends=("serial",),
                stores=("full", "fingerprint"),
                statefulness=(True,),
                min_workers=1,
                max_workers=1,
            )

        plan = CheckPlan(shape="bfs", reduction="spor")
        registry = EngineRegistry(builtin_engines())
        with pytest.raises(UnsupportedPlanError):
            registry.resolve(plan)
        registry.register(ReducedBfsEngine())
        engine, resolved = registry.resolve(plan)
        assert engine.name == "reduced-bfs"
        assert resolved.backend == "serial"


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


class TestSupportedPlans:
    def test_every_reported_combination_resolves_to_its_engine(self):
        registry = default_registry()
        combinations = list(registry.supported_plans(worker_counts=(1, 2, 4)))
        assert combinations
        for engine, plan in combinations:
            assert engine.capabilities.supports(plan)
            resolved_engine, _ = registry.resolve(plan)
            assert resolved_engine is engine

    def test_grid_covers_all_shapes_and_reductions(self):
        combinations = list(default_registry().supported_plans())
        shapes = {plan.shape for _, plan in combinations}
        reductions = {plan.reduction for _, plan in combinations}
        backends = {plan.backend for _, plan in combinations}
        assert shapes == {"dfs", "bfs"}
        assert reductions == {"none", "spor", "spor-net", "dpor"}
        assert backends == {"serial", "frontier", "worksteal"}

    def test_dpor_only_appears_serial(self):
        for _, plan in default_registry().supported_plans(worker_counts=(1, 2, 4)):
            if plan.reduction == "dpor":
                assert plan.workers == 1
                assert plan.backend == "serial"

    def test_grid_never_yields_duplicate_plans(self):
        # Stateless plans collapse the store axis, so a naive store loop
        # would yield the same DPOR plan once per store kind.
        plans = [
            plan
            for _, plan in default_registry().supported_plans(
                worker_counts=(1, 2),
                stores=("full", "fingerprint", "sharded-fingerprint"),
            )
        ]
        assert len(plans) == len(set(plans))


class TestPlatformRequirements:
    """Satellite of the honest-verdicts PR: multi-process engines declare a
    'fork' platform requirement, and resolution refuses (structured error,
    runnable serial alternative) instead of raising a raw runtime error or
    silently downgrading on spawn-only interpreters."""

    def test_parallel_engines_declare_the_fork_requirement(self):
        for engine in builtin_engines():
            # Multi-process engines are exactly those that cannot run with a
            # single worker (the parallel backends and the walker pool).
            if engine.capabilities.min_workers > 1:
                assert "fork" in engine.capabilities.requirements, engine.name
            else:
                assert "fork" not in engine.capabilities.requirements, engine.name

    def test_missing_requirements_reads_the_platform(self):
        capabilities = Capabilities(
            shapes=("dfs",), reductions=("none",), backends=("serial",),
            stores=("full",), requirements=("fork",),
        )
        assert capabilities.missing_requirements(frozenset()) == ("fork",)
        assert capabilities.missing_requirements(frozenset({"fork"})) == ()

    def test_spawn_only_platform_refuses_parallel_plans(self, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.registry.platform_requirements", frozenset
        )
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

    def test_spawn_only_platform_still_resolves_serial_plans(self, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.registry.platform_requirements", frozenset
        )
        engine, resolved = resolve(CheckPlan())
        assert resolved.backend == "serial"

    def test_fork_platform_resolves_parallel_plans(self, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.registry.platform_requirements",
            lambda: frozenset({"fork"}),
        )
        engine, resolved = resolve(CheckPlan(workers=4))
        assert resolved.backend == "worksteal"
