"""Composable engine layer: plans, the engine table, resolution, observers.

The public checking API decomposes a run into orthogonal axes — search
*shape* (dfs/bfs), partial-order *reduction* (none/spor/spor-net/dpor),
visited-state *store* (full/fingerprint/sharded-fingerprint), execution
*backend* (serial/frontier/worksteal/swarm) and a *workers* count — captured
by a :class:`CheckPlan`.  :data:`ENGINES` lists, one :class:`Engine` row per
search, the axis values each accepts; :func:`resolve` maps a plan to the
first row accepting it, and :func:`run_plan` executes it while feeding a
uniform :class:`EngineEvent` stream to an optional :class:`Observer`.
``run_plan(protocol, property, plan)`` is the one way to run a check.
"""

from .engines import ENGINES, PARALLEL, SERIAL, Engine, make_reducer
from .events import (
    EVENT_KINDS,
    PROGRESS_INTERVAL,
    CollectingObserver,
    EngineEvent,
    MultiObserver,
    Observer,
    ProgressPrinter,
    emit,
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
from .registry import default_registry, fork_available, resolve, run_plan

__all__ = [
    "BACKENDS",
    "CheckPlan",
    "CollectingObserver",
    "ENGINES",
    "EVENT_KINDS",
    "Engine",
    "EngineEvent",
    "GOALS",
    "MultiObserver",
    "Observer",
    "PARALLEL",
    "PLAN_AXES",
    "PROGRESS_INTERVAL",
    "ProgressPrinter",
    "REDUCTIONS",
    "SERIAL",
    "SHAPES",
    "STORES",
    "SUCCESSOR_MODES",
    "UnsupportedPlanError",
    "default_registry",
    "emit",
    "fork_available",
    "make_reducer",
    "resolve",
    "run_plan",
    "strategy_label",
]
