"""Plan resolution: which row of the engine table runs a plan.

:func:`resolve` matches a :class:`~repro.engine.plan.CheckPlan` against
:data:`~repro.engine.engines.ENGINES`, concretising ``backend="auto"``
(serial for one worker, frontier/worksteal above) and raising a structured
:class:`~repro.engine.plan.UnsupportedPlanError` — offending axis, the
nearest row's explanation, a runnable nearest alternative — when no row
accepts it.  It is also the one place the fault knobs are decided: a plan
may set ``checkpoint_dir`` / ``resume_from`` / ``chaos`` only on a row
listing it in ``Engine.knobs``.  :func:`run_plan` resolves and runs; every
consumer (the cells runner, the CLI, the service) funnels through it.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace
from types import SimpleNamespace
from typing import Dict, Optional, Tuple

from ..checker.property import Invariant, goal_of
from ..checker.result import CheckResult
from ..mp.protocol import Protocol
from ..obs.telemetry import RunTelemetry
from .engines import ENGINES, FAULT_KNOBS, PARALLEL, Engine
from .events import Observer, emit
from .plan import STUBBORN_REDUCTIONS, CheckPlan, UnsupportedPlanError, strategy_label

#: Weight of each axis when ranking "nearest" rows for diagnostics.  The
#: most identity-defining axes dominate: a row matching the requested
#: reduction is closer than one merely matching the store kind, and a
#: mismatch on the explicitly requested worker count outranks statefulness
#: (suggesting ``workers=1`` to someone who asked for parallelism would be
#: the silent downgrade this layer exists to prevent).
_AXIS_WEIGHTS = {
    "goal": 64,
    "reduction": 32,
    "shape": 16,
    "workers": 8,
    "stateful": 4,
    "successors": 3,
    "backend": 2,
    "store": 1,
}


def fork_available() -> bool:
    """Whether this interpreter offers the ``fork`` start method.

    The one place the platform rule lives: the multi-process rows (workers
    :data:`~repro.engine.engines.PARALLEL`) inherit the unpicklable
    protocol and the parent's hash seed through ``fork``, so :func:`resolve`
    refuses them where it is missing.  Tests monkeypatch this to simulate
    spawn-only platforms.
    """
    return "fork" in multiprocessing.get_all_start_methods()


def _match_score(row: Engine, plan: CheckPlan) -> int:
    """Weighted count of the axes ``row`` accepts (for "nearest row").

    A swarm row is pushed behind every other row when ranking an auto
    plan: suggesting "switch to sampling" to someone who asked for an
    exhaustive search would be the semantic downgrade this layer exists to
    prevent.
    """
    score = sum(weight for axis, weight in _AXIS_WEIGHTS.items()
                if row.takes(plan, axis))
    if plan.backend == "auto" and "swarm" in row.backend:
        score -= sum(_AXIS_WEIGHTS.values()) + 1
    return score


def _nearest_plan(row: Engine, plan: CheckPlan) -> CheckPlan:
    """``plan`` with every refused axis replaced by a value ``row`` accepts."""
    changes: Dict[str, object] = {}
    for axis in row.refused(plan):
        if axis == "workers":
            changes["workers"] = min(max(plan.workers, row.workers.start),
                                     row.workers.stop - 1)
        elif axis == "backend":
            changes["backend"] = row.backend[0]
            if plan.backend == "swarm" and changes["backend"] != "swarm":
                # The walk-budget axes only exist on the sampling backend;
                # an exhaustive plan would reject them.
                changes["walks"] = None
                changes["walk_seed"] = None
        elif axis == "store":
            changes["store"] = row.store[0]
            if plan.stateful and changes["store"] == "none":
                # A "none"-only row is stateless; follow it there.
                changes["stateful"] = False
            elif not plan.stateful and changes["store"] != "none":
                # A stateless plan's store is always "none", so a real store
                # can only be reached by turning statefulness back on
                # (CheckPlan.__post_init__ would otherwise revert the store
                # fix and the "alternative" would equal the refused plan).
                changes["stateful"] = True
        elif axis == "stateful":
            changes["stateful"] = row.stateful[0]
            if row.stateful[0] and plan.store == "none":
                # Re-entering statefulness needs a real store again.
                changes["store"] = next(kind for kind in row.store if kind != "none")
        else:
            changes[axis] = getattr(row, axis)[0]
    return replace(plan, **changes)


#: Why a knob is honoured only where it is, quoted in its refusal.
_KNOB_REASONS = {
    "checkpoint_dir": "a checkpoint captures a breadth-first level barrier",
    "resume_from": "a checkpoint captures a breadth-first level barrier",
    "chaos": "only a supervised pool has workers to crash and restart",
}


def _check_fault_knobs(engine: Engine, plan: CheckPlan) -> None:
    """Refuse a fault knob ``engine`` does not honour, or a bad chaos spec.

    The alternative is ``plan`` without the offending knob.
    """
    for knob in FAULT_KNOBS:
        value = getattr(plan, knob)
        if value is None or knob in engine.knobs:
            continue
        honouring = ", ".join(row.name for row in ENGINES if knob in row.knobs)
        raise UnsupportedPlanError(
            knob,
            value,
            f"plan {plan.describe()} resolves to engine {engine.name}, which "
            f"does not honour {knob}={value!r} (only {honouring} do: "
            f"{_KNOB_REASONS[knob]}); nearest supported alternative: the "
            f"same plan without {knob}",
            alternative=replace(plan, **{knob: None}),
        )
    if plan.chaos is None:
        return
    # Imported here: only a chaos plan needs the parser.
    from ..chaos import FaultPlan, FaultPlanError

    try:
        FaultPlan.parse(plan.chaos)
    except FaultPlanError as error:
        raise UnsupportedPlanError(
            "chaos",
            plan.chaos,
            f"{error}; nearest supported alternative: the same plan "
            "without chaos",
            alternative=replace(plan, chaos=None),
        ) from None


def resolve(plan: CheckPlan) -> Tuple[Engine, CheckPlan]:
    """Pick the engine for ``plan``; never silently downgrades an axis.

    Returns:
        ``(engine, resolved_plan)``: the first row of
        :data:`~repro.engine.engines.ENGINES` accepting every axis, and
        ``plan`` with ``backend="auto"`` concretised to that row's backend.

    Raises:
        UnsupportedPlanError: When no row accepts the combination, the
            row does not honour a fault knob the plan sets (or the chaos
            spec does not parse), or the row is multi-process and the
            platform lacks ``fork``.  The error names the offending axis
            or knob, explains the constraint, and carries a runnable
            nearest-alternative plan.
    """
    for engine in ENGINES:
        if engine.accepts(plan):
            break
    else:
        nearest = max(ENGINES, key=lambda row: _match_score(row, plan))
        axis = nearest.refused(plan)[0]
        requested = getattr(plan, axis)
        alternative = _nearest_plan(nearest, plan)
        note = nearest.notes.get(axis)
        detail = f" ({note})" if note else ""
        raise UnsupportedPlanError(
            axis,
            requested,
            f"no registered engine supports plan {plan.describe()}: "
            f"axis {axis}={requested!r} is outside the nearest engine's "
            f"support ({nearest.name}: {nearest.describe(axis)})"
            f"{detail}; nearest supported alternative: {alternative.describe()}",
            alternative=alternative,
        )
    _check_fault_knobs(engine, plan)
    if engine.workers == PARALLEL and not fork_available():
        if plan.backend == "swarm":
            # Dropping to one worker keeps the plan on the serial walker;
            # "auto" would reject the walk-budget axes.
            alternative = replace(plan, workers=1)
        else:
            alternative = replace(plan, workers=1, backend="auto")
        raise UnsupportedPlanError(
            "backend",
            plan.backend,
            f"plan {plan.describe()} resolves to engine {engine.name}, "
            "which requires platform feature(s) 'fork' that this interpreter "
            "does not provide (the multi-process backends inherit the "
            "protocol and hash seed via the 'fork' start method); "
            f"nearest supported alternative: {alternative.describe()}",
            alternative=alternative,
        )
    if plan.backend == "auto":
        return engine, replace(plan, backend=engine.backend[0])
    return engine, plan


def check_protocol(engine: Engine, plan: CheckPlan, protocol: Protocol) -> None:
    """Refuse a resolved plan that ``engine`` cannot run soundly on ``protocol``.

    The stubborn-set cycle proviso (por/stubborn.py) holds on one DFS stack.
    A multi-process row has none: a cycle whose states different workers
    claim is on no worker's path, so a stubborn-set reduction on a protocol
    declaring ``cyclic_state_graph=True`` could silently drop behaviours.
    Unreduced parallel exploration is fine on cycles, which is the
    alternative raised.  The rule reads the row's ``workers`` field and
    :data:`STUBBORN_REDUCTIONS`, never the row's name.  :func:`run_plan`
    calls this before it emits anything, and the service before it queues
    a job.
    """
    if (engine.workers != PARALLEL or plan.reduction not in STUBBORN_REDUCTIONS
            or not protocol.metadata.get("cyclic_state_graph")):
        return
    raise UnsupportedPlanError(
        "reduction",
        plan.reduction,
        f"protocol {protocol.name!r} declares a cyclic state graph "
        f"(metadata cyclic_state_graph=True), and engine {engine.name} "
        "cannot enforce the stubborn-set ignoring-prevention proviso "
        "across workers (a cycle claimed by several workers is on no "
        "worker's stack); run the reduction serially (workers=1) or "
        "explore unreduced in parallel; nearest supported alternative: "
        "reduction='none'",
        alternative=replace(plan, reduction="none"),
    )


def default_registry() -> SimpleNamespace:
    """``default_registry().resolve`` is :func:`resolve`.

    Kept only because the frozen benchmark ledger still calls it; it goes
    when the ledger moves onto :func:`run_plan`.
    """
    return SimpleNamespace(resolve=resolve)


def run_plan(
    protocol: Protocol,
    invariant: Invariant,
    plan: CheckPlan,
    observer: Optional[Observer] = None,
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
    engine, resolved = resolve(plan)
    check_protocol(engine, resolved, protocol)
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
