"""The plan grid the conformance tests iterate: every plan that resolves.

Walks goal x shape x reduction x store x workers x successors (DPOR plans
stateless, every other plan stateful, backend left to ``"auto"``) and keeps
the plans :func:`repro.engine.registry.resolve` accepts, each paired with
the engine it resolves to.  The default enumerates the invariant-checking
object-graph family only; pass ``successor_modes=("object", "fast")``
and/or ``goals=("invariant", "liveness")`` for the full grid.
"""

from __future__ import annotations

import itertools

from repro.engine import CheckPlan, UnsupportedPlanError, resolve
from repro.engine.plan import REDUCTIONS, SHAPES


def supported_plans(worker_counts=(1, 2, 4), stores=("full",),
                    successor_modes=("object",), goals=("invariant",)):
    """``[(engine, resolved_plan), ...]`` without duplicates, grid order."""
    seen, grid = set(), []
    for goal, shape, reduction, store, workers, successors in itertools.product(
        goals, SHAPES, REDUCTIONS, stores, worker_counts, successor_modes
    ):
        stateful = reduction != "dpor"
        try:
            engine, resolved = resolve(CheckPlan(
                shape=shape, reduction=reduction,
                store=store if stateful else "none", workers=workers,
                stateful=stateful, successors=successors, goal=goal,
            ))
        except UnsupportedPlanError:
            continue
        # Stateless plans collapse the store axis to "none", so several
        # grid points can normalise to one plan.
        if resolved not in seen:
            seen.add(resolved)
            grid.append((engine, resolved))
    return grid
