"""Engine registry and plan resolution.

The registry is the single place where "which engine runs this plan?" is
answered.  Engines declare the axis combinations they support via
:class:`~repro.engine.capabilities.Capabilities`; :meth:`EngineRegistry.resolve`
matches a :class:`~repro.engine.plan.CheckPlan` against those descriptors,
concretising ``backend="auto"`` (serial for one worker, frontier/worksteal
above) and raising a structured
:class:`~repro.engine.plan.UnsupportedPlanError` — offending axis, engine
explanation, nearest supported alternative — when nothing matches.

New axes land here as registry entries: a C-accelerated successor engine, a
spawn-mode frontier or a new backend registers an engine with its
capabilities and every consumer (cells runner, CLI, service, benchmarks)
picks it up without edits.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..checker.property import Invariant, goal_of
from ..checker.result import CheckResult
from ..mp.protocol import Protocol
from ..obs.telemetry import RunTelemetry
from .capabilities import platform_requirements
from .engines import Engine, builtin_engines
from .events import Observer, emit
from .plan import CheckPlan, UnsupportedPlanError, strategy_label


class EngineRegistry:
    """Ordered collection of engines keyed by name."""

    def __init__(self, engines: Sequence[Engine] = ()) -> None:
        self._engines: Dict[str, Engine] = {}
        for engine in engines:
            self.register(engine)

    def register(self, engine: Engine) -> Engine:
        """Add an engine; names are unique, capabilities must be coherent.

        Coherence check: a stateless plan's store axis is always ``"none"``
        (normalised at plan construction), so an engine declaring stateless
        support without the ``"none"`` store could never match a stateless
        plan — its ``False`` statefulness would be dead and its diagnostics
        misleading.  Rejected here, at registration, not at resolve time.
        """
        if not engine.name:
            raise ValueError("engines must carry a non-empty name")
        if engine.name in self._engines:
            raise ValueError(f"engine {engine.name!r} is already registered")
        capabilities = engine.capabilities
        if False in capabilities.statefulness and "none" not in capabilities.stores:
            raise ValueError(
                f"engine {engine.name!r} declares stateless support "
                "(False in statefulness) but not the 'none' store; stateless "
                "plans always carry store='none', so add it to stores or "
                "drop False from statefulness"
            )
        self._engines[engine.name] = engine
        return engine

    def engines(self) -> Tuple[Engine, ...]:
        """Every registered engine, in registration order."""
        return tuple(self._engines.values())

    def get(self, name: str) -> Engine:
        """Look an engine up by name."""
        try:
            return self._engines[name]
        except KeyError:
            known = ", ".join(self._engines) or "none"
            raise KeyError(f"unknown engine {name!r} (registered: {known})")

    # ------------------------------------------------------------------ #
    # Plan resolution
    # ------------------------------------------------------------------ #
    def resolve(self, plan: CheckPlan) -> Tuple[Engine, CheckPlan]:
        """Pick the engine for ``plan``; never silently downgrades an axis.

        Returns:
            ``(engine, resolved_plan)`` where ``resolved_plan`` equals
            ``plan`` except that ``backend="auto"`` is concretised to the
            chosen engine's backend.

        Raises:
            UnsupportedPlanError: When no registered engine supports the
                combination.  The error names the offending axis, quotes the
                nearest engine's explanation for the constraint, and carries
                a runnable nearest-alternative plan.
        """
        if not self._engines:
            raise ValueError("cannot resolve a plan against an empty registry")
        supporting = [
            engine
            for engine in self._engines.values()
            if engine.capabilities.supports(plan)
        ]
        available = platform_requirements()
        runnable = [
            engine
            for engine in supporting
            if not engine.capabilities.missing_requirements(available)
        ]
        if runnable:
            engine = runnable[0]
            resolved = plan
            if plan.backend == "auto":
                resolved = replace(plan, backend=engine.capabilities.backends[0])
            return engine, resolved
        if supporting:
            # The axes are fine; the platform is not (e.g. a multi-process
            # backend on a spawn-only interpreter).  Refusing here, with a
            # runnable serial alternative, replaces the raw runtime error /
            # silent serial fallback the parallel searches used to produce.
            engine = supporting[0]
            missing = engine.capabilities.missing_requirements(available)
            if plan.backend == "swarm":
                # Dropping to one worker keeps the plan on the serial
                # walker; "auto" would reject the walk-budget axes.
                alternative = replace(plan, workers=1)
            else:
                alternative = replace(plan, workers=1, backend="auto")
            raise UnsupportedPlanError(
                "backend",
                plan.backend,
                f"plan {plan.describe()} resolves to engine {engine.name}, "
                f"which requires platform feature(s) "
                f"{', '.join(map(repr, missing))} that this interpreter "
                "does not provide (the multi-process backends inherit the "
                "protocol and hash seed via the 'fork' start method); "
                f"nearest supported alternative: {alternative.describe()}",
                alternative=alternative,
            )

        nearest = max(
            self._engines.values(), key=lambda e: e.capabilities.match_score(plan)
        )
        capabilities = nearest.capabilities
        axis = capabilities.violations(plan)[0]
        requested = plan.axes()[axis]
        alternative = capabilities.nearest_plan(plan)
        note = capabilities.notes.get(axis)
        detail = f" ({note})" if note else ""
        raise UnsupportedPlanError(
            axis,
            requested,
            f"no registered engine supports plan {plan.describe()}: "
            f"axis {axis}={requested!r} is outside the nearest engine's "
            f"support ({nearest.name}: {capabilities.supported_description(axis)})"
            f"{detail}; nearest supported alternative: {alternative.describe()}",
            alternative=alternative,
        )

    def supported_plans(
        self,
        worker_counts: Sequence[int] = (1, 2, 4),
        stores: Sequence[str] = ("full",),
        successor_modes: Sequence[str] = ("object",),
        goals: Sequence[str] = ("invariant",),
    ) -> Iterator[Tuple[Engine, CheckPlan]]:
        """Enumerate the (goal × shape × reduction × backend × workers ×
        store × successors) grid the registry reports as supported.

        This is what the conformance matrix iterates: every yielded plan is
        guaranteed to resolve to the accompanying engine.  The default
        enumerates the invariant-checking object-graph family only; pass
        ``successor_modes=("object", "fast")`` and/or
        ``goals=("invariant", "liveness")`` for the full grid.
        """
        from .plan import REDUCTIONS, SHAPES

        seen = set()
        for goal in goals:
            for shape in SHAPES:
                for reduction in REDUCTIONS:
                    for store in stores:
                        for workers in worker_counts:
                            for successors in successor_modes:
                                stateful = reduction != "dpor"
                                try:
                                    plan = CheckPlan(
                                        shape=shape,
                                        reduction=reduction,
                                        store=store if stateful else "none",
                                        workers=workers,
                                        stateful=stateful,
                                        successors=successors,
                                        goal=goal,
                                    )
                                    engine, resolved = self.resolve(plan)
                                except UnsupportedPlanError:
                                    continue
                                # Stateless plans collapse the store axis to
                                # "none", so several grid points can
                                # normalise to one plan.
                                if resolved in seen:
                                    continue
                                seen.add(resolved)
                                yield engine, resolved


#: The process-wide default registry, built lazily.
_DEFAULT_REGISTRY: Optional[EngineRegistry] = None


def default_registry() -> EngineRegistry:
    """The shared registry holding every built-in engine."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = EngineRegistry(builtin_engines())
    return _DEFAULT_REGISTRY


def resolve(
    plan: CheckPlan, registry: Optional[EngineRegistry] = None
) -> Tuple[Engine, CheckPlan]:
    """Module-level convenience: resolve against the default registry."""
    return (registry or default_registry()).resolve(plan)


def run_plan(
    protocol: Protocol,
    invariant: Invariant,
    plan: CheckPlan,
    observer: Optional[Observer] = None,
    registry: Optional[EngineRegistry] = None,
    telemetry: Optional[RunTelemetry] = None,
) -> CheckResult:
    """Resolve ``plan``, run it, and wrap the outcome as a CheckResult.

    This is the one entry point every consumer (the cells runner, the CLI,
    the service) funnels through; the ``observer``
    receives the uniform event stream documented in
    :mod:`repro.engine.events`.

    Every run carries a :class:`~repro.obs.telemetry.RunTelemetry` (one is
    created here when the caller does not pass its own): the engine records
    its metrics and phase spans through it, and the resulting snapshot is
    attached as :attr:`CheckResult.telemetry`.  Span events reach the
    ``observer``; with no observer the tracer emits nothing and the
    end-of-run recorders are the only cost (a few dict writes per run).
    """
    required = goal_of(invariant)
    if plan.goal != required:
        raise UnsupportedPlanError(
            "goal",
            plan.goal,
            f"property {invariant.name!r} is a {required} property but the "
            f"plan requests goal={plan.goal!r}; liveness properties need a "
            "cycle-aware engine (and invariants a reachability engine), so "
            "the mismatch is refused rather than silently reinterpreted",
            alternative=replace(plan, goal=required),
        )
    engine, resolved = resolve(plan, registry)
    if telemetry is None:
        telemetry = RunTelemetry(observer=observer)
    emit(
        observer,
        "search-started",
        engine=engine.name,
        plan=resolved.axes(),
        protocol=protocol.name,
        invariant=invariant.name,
    )
    with telemetry.span("search", engine=engine.name):
        outcome = engine.run(
            protocol, invariant, resolved, observer=observer, telemetry=telemetry
        )
    telemetry.record_statistics(outcome.statistics, engine=engine.name)
    emit(
        observer,
        "search-finished",
        engine=engine.name,
        verified=outcome.verified,
        complete=outcome.complete,
        states_visited=outcome.statistics.states_visited,
        elapsed_seconds=outcome.statistics.elapsed_seconds,
        incomplete_reason=getattr(outcome, "incomplete_reason", None),
    )
    return CheckResult(
        protocol_name=protocol.name,
        property_name=invariant.name,
        strategy=strategy_label(resolved),
        verified=outcome.verified,
        complete=outcome.complete,
        counterexample=outcome.counterexample,
        statistics=outcome.statistics,
        stateful=resolved.stateful,
        plan=resolved,
        engine=engine.name,
        telemetry=telemetry.snapshot(),
        incomplete_reason=getattr(outcome, "incomplete_reason", None),
    )
