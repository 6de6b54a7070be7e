"""Composable engine layer: plans, capabilities, registry, observers.

The public checking API decomposes a run into orthogonal axes — search
*shape* (dfs/bfs), partial-order *reduction* (none/spor/spor-net/dpor),
visited-state *store* (full/fingerprint/sharded-fingerprint), execution
*backend* (serial/frontier/worksteal) and a *workers* count — captured by a
:class:`CheckPlan`.  A registry of engines declares, per engine, which axis
combinations it supports (:class:`Capabilities`); :func:`resolve` maps a
plan to the engine implementing it, and :func:`run_plan` executes it while
feeding a uniform :class:`EngineEvent` stream to an optional
:class:`Observer`.  ``run_plan(protocol, property, plan)`` is the one way
to run a check.
"""

from .capabilities import REQUIREMENT_TOKENS, Capabilities, platform_requirements
from .engines import (
    DporEngine,
    Engine,
    FrontierBfsEngine,
    SerialBfsEngine,
    SerialDfsEngine,
    SerialNdfsEngine,
    WorkstealDfsEngine,
    builtin_engines,
    make_reducer,
)
from .events import (
    EVENT_KINDS,
    EVENT_VALIDATION_ENV,
    PROGRESS_INTERVAL,
    CollectingObserver,
    EngineEvent,
    MultiObserver,
    NullObserver,
    Observer,
    ProgressPrinter,
    emit,
    known_event_kinds,
    register_event_kind,
)
from .plan import (
    BACKENDS,
    GOALS,
    PLAN_AXES,
    REDUCTIONS,
    SHAPES,
    STORES,
    SUCCESSOR_MODES,
    CheckPlan,
    UnsupportedPlanError,
    strategy_label,
)
from .registry import EngineRegistry, default_registry, resolve, run_plan

__all__ = [
    "BACKENDS",
    "Capabilities",
    "CheckPlan",
    "CollectingObserver",
    "DporEngine",
    "EVENT_KINDS",
    "EVENT_VALIDATION_ENV",
    "Engine",
    "EngineEvent",
    "EngineRegistry",
    "FrontierBfsEngine",
    "GOALS",
    "MultiObserver",
    "NullObserver",
    "Observer",
    "PLAN_AXES",
    "PROGRESS_INTERVAL",
    "ProgressPrinter",
    "REQUIREMENT_TOKENS",
    "platform_requirements",
    "REDUCTIONS",
    "SHAPES",
    "STORES",
    "SUCCESSOR_MODES",
    "SerialBfsEngine",
    "SerialDfsEngine",
    "SerialNdfsEngine",
    "UnsupportedPlanError",
    "WorkstealDfsEngine",
    "builtin_engines",
    "default_registry",
    "emit",
    "known_event_kinds",
    "make_reducer",
    "register_event_kind",
    "resolve",
    "run_plan",
    "strategy_label",
]
