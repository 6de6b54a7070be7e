"""Every plan of the full axis product, resolved or refused, pinned by digest.

The grid walks SHAPES x REDUCTIONS x STORES x BACKENDS x workers (1, 2, 4)
x stateful x SUCCESSOR_MODES x GOALS, skips the combinations ``CheckPlan``
refuses at construction, and records for each remaining plan either the
engine and resolved plan, or the refused axis, the full refusal text and
the alternative.  The digest pins all of it at once: which row resolves a
plan, the ``backend="auto"`` concretisation, the nearest-row ranking, the
quoted note and the alternative plan.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter

from repro.engine.plan import (
    BACKENDS,
    GOALS,
    REDUCTIONS,
    SHAPES,
    STORES,
    SUCCESSOR_MODES,
    CheckPlan,
    UnsupportedPlanError,
)
from repro.engine.registry import resolve

GRID_DIGEST = "4be965b9d8c2c1b815e45e75bbadaa32a9297cc2fc637ec2402bf3ab805d00ca"


def grid_rows():
    rows, engines = [], Counter()
    for shape, reduction, store, backend, workers, stateful, successors, goal in (
        itertools.product(SHAPES, REDUCTIONS, STORES, BACKENDS, (1, 2, 4),
                          (True, False), SUCCESSOR_MODES, GOALS)
    ):
        try:
            plan = CheckPlan(shape=shape, reduction=reduction, store=store,
                             backend=backend, workers=workers, stateful=stateful,
                             successors=successors, goal=goal)
        except UnsupportedPlanError:
            continue
        try:
            engine, resolved = resolve(plan)
        except UnsupportedPlanError as error:
            rows.append((plan.describe(), error.axis, str(error),
                         error.alternative.describe()))
            continue
        engines[engine.name] += 1
        rows.append((plan.describe(), engine.name, resolved.describe()))
    return rows, engines


def test_resolution_grid_is_pinned():
    rows, engines = grid_rows()
    assert len(rows) == 3480
    assert sum(engines.values()) == 262
    assert len(rows) - sum(engines.values()) == 3218
    assert engines == {
        "serial-dfs": 84, "serial-bfs": 12, "frontier-bfs": 24,
        "worksteal-dfs": 72, "dpor": 16, "serial-ndfs": 12,
        "swarm": 14, "swarm-parallel": 28,
    }
    digest = hashlib.sha256(json.dumps(sorted(rows)).encode()).hexdigest()
    assert digest == GRID_DIGEST
