"""The engine table decides the fault knobs.

``checkpoint_dir`` / ``resume_from`` / ``chaos`` are honoured by exactly
the rows that list them — the checkpoint knobs by the two breadth-first
rows, ``chaos`` by the two supervised pools — and plan resolution refuses
them everywhere else, before any search starts, with ``axis`` naming the
knob and the same plan without it as the alternative.  A chaos spec that
does not parse is refused there too.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine import ENGINES, CheckPlan, UnsupportedPlanError, resolve, run_plan
from repro.engine.events import CollectingObserver
from repro.protocols.catalog import storage_entry

#: One plan each row accepts.
ROW_PLANS = {
    "serial-dfs": CheckPlan(),
    "serial-bfs": CheckPlan(shape="bfs"),
    "frontier-bfs": CheckPlan(shape="bfs", workers=2),
    "worksteal-dfs": CheckPlan(workers=2),
    "dpor": CheckPlan(reduction="dpor"),
    "serial-ndfs": CheckPlan(goal="liveness"),
    "swarm": CheckPlan(backend="swarm"),
    "swarm-parallel": CheckPlan(backend="swarm", workers=2),
}

#: The knobs each row honours; every row not named honours none.
HONOURED = {
    "serial-bfs": {"checkpoint_dir", "resume_from"},
    "frontier-bfs": {"checkpoint_dir", "resume_from", "chaos"},
    "swarm-parallel": {"chaos"},
}

KNOBS = {
    "chaos": "crash:1@3",
    "checkpoint_dir": "/tmp/checkpoints",
    "resume_from": "/tmp/checkpoints",
}


@pytest.fixture(autouse=True)
def with_fork(monkeypatch):
    # The walk is about the table, not the platform.
    monkeypatch.setattr("repro.engine.registry.fork_available", lambda: True)


def test_one_plan_per_row():
    assert list(ROW_PLANS) == [row.name for row in ENGINES]
    for name, plan in ROW_PLANS.items():
        assert resolve(plan)[0].name == name


@pytest.mark.parametrize("knob", sorted(KNOBS))
@pytest.mark.parametrize("row", list(ROW_PLANS))
def test_table_walk(row, knob):
    # Fails at the parent wherever a knob is not honoured: resolution
    # accepted every knob, and dpor, swarm, swarm-parallel, serial-dfs and
    # serial-bfs then ran without acting on it.
    plan = replace(ROW_PLANS[row], **{knob: KNOBS[knob]})
    if knob in HONOURED.get(row, ()):
        engine, resolved = resolve(plan)
        assert engine.name == row
        assert getattr(resolved, knob) == KNOBS[knob]
        return
    with pytest.raises(UnsupportedPlanError, match=row) as excinfo:
        resolve(plan)
    assert excinfo.value.axis == knob
    assert excinfo.value.value == KNOBS[knob]
    assert excinfo.value.alternative == ROW_PLANS[row]
    assert resolve(excinfo.value.alternative)[0].name == row


@pytest.mark.parametrize("plan", [
    CheckPlan(shape="bfs", workers=2),
    CheckPlan(backend="swarm", workers=2, walks=20),
], ids=["frontier-bfs", "swarm-parallel"])
def test_a_bad_chaos_spec_is_refused_before_the_run(plan):
    # Fails at the parent: the swarm pool surfaced the typo as a worker
    # traceback, the frontier only after building its graph.
    entry = storage_entry(3, 1)
    observer = CollectingObserver()
    with pytest.raises(UnsupportedPlanError, match="crsh:1@3") as excinfo:
        run_plan(entry.single_model(), entry.invariant,
                 replace(plan, chaos="crsh:1@3"), observer=observer)
    assert excinfo.value.axis == "chaos"
    assert excinfo.value.alternative == plan
    assert observer.events == []
