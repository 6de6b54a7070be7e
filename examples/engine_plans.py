#!/usr/bin/env python3
"""The composable engine API: plans, the engine table, and the event stream.

A model-checking run is one point of a cross-product of orthogonal axes —
search shape × reduction × store × backend × workers — named by a
:class:`repro.CheckPlan`.  This example shows the three things the plan
layer gives you:

1. **Declarative engine selection** — plan resolution picks the first row
   of the engine table accepting the plan (serial, frontier-parallel or
   work-stealing) and refuses unsupported combinations with a structured
   diagnostic naming the offending axis, instead of silently downgrading.
2. **One event stream** — every engine feeds the same observer API
   (progress ticks, level barriers, worker reports, violations), so tools
   consume one stream regardless of the backend.
3. **One opt-in for the packed fast path** — ``successors="fast"`` swaps
   the state graph and nothing else: identical closures, smaller constant.

Run with::

    PYTHONPATH=src python examples/engine_plans.py

The same table is available from the shell::

    PYTHONPATH=src python -m repro engines
    PYTHONPATH=src python -m repro check storage-3-1 --shape bfs --workers 4
"""

from __future__ import annotations

from repro import (
    CheckPlan,
    CollectingObserver,
    UnsupportedPlanError,
    run_plan,
)
from repro.engine import ENGINES
from repro.protocols.catalog import multicast_entry


def list_engines() -> None:
    """Walk the table: every row lists the axis values it accepts."""
    print("engines:")
    for engine in ENGINES:
        print(f"  {engine.name:<14} shapes={'/'.join(engine.shape)} "
              f"reductions={'/'.join(engine.reduction)} "
              f"{engine.describe('workers')}")
    print()


def resolve_some_plans() -> None:
    """Plan resolution picks the backend from the shape and worker count."""
    entry = multicast_entry(2, 1, 0, 1)
    for plan in (
        CheckPlan(reduction="spor"),                       # serial stubborn-set DFS
        CheckPlan(reduction="spor", workers=2),            # work-stealing DFS
        CheckPlan(shape="bfs", workers=2),                 # frontier-parallel BFS
        CheckPlan(reduction="dpor"),                       # stateless dynamic POR
    ):
        result = run_plan(entry.quorum_model(), entry.invariant, plan)
        print(f"  {plan.describe():<28} -> {result.engine:<14} "
              f"{result.outcome_label():<9} "
              f"{result.statistics.states_visited:,} states")
    print()


def watch_the_event_stream() -> None:
    """All engines feed one observer API; here we count the events."""
    entry = multicast_entry(2, 1, 0, 1)
    observer = CollectingObserver()
    run_plan(entry.quorum_model(), entry.invariant,
             CheckPlan(shape="bfs"), observer=observer)
    print(f"  serial BFS event stream: {observer.counts()}")
    print()


def unsupported_plans_fail_loudly() -> None:
    """No silent downgrades: resolution names the offending axis."""
    entry = multicast_entry(2, 1, 0, 1)
    try:
        run_plan(entry.quorum_model(), entry.invariant,
                 CheckPlan(reduction="dpor", workers=4))
    except UnsupportedPlanError as error:
        print(f"  rejected axis: {error.axis} = {error.value}")
        print(f"  nearest supported alternative: {error.alternative.describe()}")
    print()


def opt_into_the_fast_path() -> None:
    """The packed fast-path engines: same counts, smaller constant."""
    entry = multicast_entry(2, 1, 0, 1)
    slow = run_plan(entry.quorum_model(), entry.invariant, CheckPlan())
    fast = run_plan(entry.quorum_model(), entry.invariant,
                    CheckPlan(successors="fast"))
    assert fast.statistics.states_visited == slow.statistics.states_visited
    print(f"  {slow.engine}: {slow.statistics.states_visited} states in "
          f"{slow.statistics.elapsed_seconds * 1000:.1f}ms")
    print(f"  {fast.engine}: {fast.statistics.states_visited} states in "
          f"{fast.statistics.elapsed_seconds * 1000:.1f}ms (identical closure)")
    print()


if __name__ == "__main__":
    print("=" * 72)
    print("Composable engine API")
    print("=" * 72)
    list_engines()
    resolve_some_plans()
    watch_the_event_stream()
    unsupported_plans_fail_loudly()
    opt_into_the_fast_path()
