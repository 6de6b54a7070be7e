"""The engine harness: every ``ENGINES`` row against one pinned reference.

This is the one place engines are compared.  Each cell — a protocol and a
property — is checked once by the *reference*, an unreduced object-graph
DFS over the full store, whose counts are pinned in :data:`PINS` so that a
broken reference cannot make everything agree.  Then every row of
:data:`repro.engine.ENGINES` runs the plans its own axis values spell, with
an explicit ``backend``, at its first worker count (plus one 4-worker case
per multi-process row), and each result is held to the claims its table
fields make:

* every row resolves its plans to itself, and every counterexample replays
  through :meth:`Counterexample.replay` and ends in a violating state (a
  lasso never reaches the goal);
* an *exhaustive* plan (unreduced, stateful, not sampling) reproduces the
  reference's verdict, ``complete`` flag and counts on verified cells; a
  work-stealing run (a multi-process DFS) recomputes the enabled set of the
  frames it steals, so ``enabled_set_computations`` is bounded below; on an
  ungraded (cyclic) cell a breadth-first run's ``max_depth`` is the serial
  BFS's, and a work-stealing one's lies between that and the state count;
* a *deterministic* row (serial, or level-synchronous BFS; never sampling)
  gives the same statistics over either state graph;
* a *reduced* plan keeps the reference's verdict, and a stateful one visits
  no more states on verified cells;
* a toy cell explored past its first violation is explored completely;
* a *sampling* row is never ``verified`` and complete, and a violation it
  finds is one the reference finds too;
* breadth-first counterexamples have the pinned shortest length, and no
  counterexample is shorter;
* a plan refused for its protocol is refused before its first event, and
  only on a cyclic cell; its alternative is held to the claims instead.

The claims are three tests over the same memoised runs — verdict and
counterexample, counts against the reference, and the two state graphs — so
a failure names the claim it breaks.  On the toys the stubborn-set plans run
every seed heuristic; the seeds on which they miss the counterexample are
strict xfails of the verdict test (ROADMAP item 1).

A new row, or a new axis value on a row, is covered without editing this
file; :func:`test_every_row_contributes_a_case` fails if a row is not.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
from typing import Callable, Optional, Tuple

import pytest

from repro.checker.property import goal_of
from repro.engine import (
    ENGINES,
    PARALLEL,
    CheckPlan,
    CollectingObserver,
    UnsupportedPlanError,
    run_plan,
)
from repro.engine.plan import SEED_HEURISTICS, SHAPES, STUBBORN_REDUCTIONS
from repro.mp.protocol import Protocol
from repro.protocols.catalog import (
    crash_recovery_entry,
    default_catalog,
    multicast_entry,
    paxos_entry,
    storage_entry,
)

from ..toys import TOYS, UNSOUND_SEEDS

#: Walk budget and seed of the sampling rows.
WALKS, WALK_SEED = 32, 7
NEEDS_FORK = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the multi-process rows require the fork start method")


@dataclasses.dataclass(frozen=True, eq=False)
class Cell:
    """One protocol and property every row is run on.

    ``slow`` names the shapes whose runs on the cell are marked ``slow``:
    every shape on the two heavy violating cells, and breadth-first search
    on the single-message cells where it stores about 60,000 states before
    it finds the violation (12-18 s per object-graph run on a 2-vCPU box).
    ``stateless`` and ``dpor`` name the cells small enough for a storeless
    search; ``multiprocess`` is False on the single-message cells, which
    run on the in-process rows only, as they always have (a multi-process
    run pays about 0.1 s of start-up whatever the cell).  A ``toy`` cell
    runs every seed heuristic under the stubborn-set reductions, and every
    other exhaustive plan a second time, past its first violation.
    """

    id: str
    build: Callable[[], Protocol]
    prop: object
    verified: bool
    slow: Tuple[str, ...] = ()
    stateless: bool = False
    dpor: bool = False
    multiprocess: bool = True
    toy: bool = False

    @functools.cached_property
    def cyclic(self) -> bool:
        return bool(self.build().metadata.get("cyclic_state_graph"))


def _quorum_cells():
    """The small catalog, and both storage-2-1 entries, on the quorum model;
    the violating cells that were always ``slow`` stay so."""
    stateless = ("paxos-2-2-1", "multicast-2-1-0-1", "multicast-2-1-2-1")
    slow = ("faulty-paxos-2-3-1", "storage-3-2-wrong")
    entries = default_catalog("small") + (
        storage_entry(2, 1), storage_entry(2, 1, wrong_specification=True))
    return [
        Cell(entry.key, entry.quorum_model, entry.invariant,
             not entry.expect_violation,
             slow=SHAPES if entry.key in slow else (),
             stateless=entry.key in stateless)
        for entry in entries
    ]


def _single_message_cells():
    """The single-message model of the entries it was always checked on."""
    dpor = ("paxos-1-2-1", "multicast-2-1-0-1", "storage-2-1", "storage-2-1-wrong")
    wide = ("faulty-paxos-2-3-1", "multicast-2-1-2-1")
    entries = (
        paxos_entry(2, 2, 1), paxos_entry(2, 3, 1, faulty=True),
        multicast_entry(3, 0, 1, 1), multicast_entry(2, 1, 0, 1),
        multicast_entry(2, 1, 2, 1), storage_entry(2, 1),
        storage_entry(2, 1, wrong_specification=True), storage_entry(3, 1),
        paxos_entry(1, 2, 1), crash_recovery_entry(2, 1),
    )
    return [
        Cell(f"{entry.key}-single", entry.single_model, entry.invariant,
             not entry.expect_violation, dpor=entry.key in dpor,
             slow=("bfs",) if entry.key in wide else (), multiprocess=False)
        for entry in entries
    ]


def _liveness_cells():
    return [
        Cell(f"{entry.key}-{model}-liveness", getattr(entry, f"{model}_model"),
             entry.liveness, not entry.expect_liveness_violation)
        for entry in default_catalog("small") if entry.liveness is not None
        for model in ("quorum", "single")
    ]


def _toy_cells():
    return [Cell(f"toy-{name}", build, invariant, False, dpor=True, toy=True)
            for name, (build, invariant) in TOYS.items()]


CELLS = _quorum_cells() + _single_message_cells() + _liveness_cells() + _toy_cells()


@dataclasses.dataclass(frozen=True)
class Pin:
    """The reference run of one cell, and its shortest counterexample."""

    states: int
    transitions: int
    revisits: int
    max_depth: int
    shortest: Optional[int] = None


#: The reference counts, pinned here and nowhere else.  ``shortest`` is the
#: breadth-first counterexample length of a violating invariant cell.
PINS = {
    "paxos-2-2-1": Pin(168, 316, 149, 14),
    "faulty-paxos-2-3-1": Pin(2135, 6198, 4064, 18, shortest=14),
    "multicast-3-0-1-1": Pin(65, 165, 101, 10),
    "multicast-2-1-0-1": Pin(45, 95, 51, 9),
    "multicast-2-1-2-1": Pin(29, 36, 8, 18, shortest=11),
    "multicast-2-1-0-1-lossy": Pin(190, 507, 318, 9),
    "multicast-2-1-2-1-lossy": Pin(29, 44, 16, 18, shortest=11),
    "storage-3-1": Pin(697, 1647, 951, 10),
    "storage-3-2-wrong": Pin(10767, 34827, 24061, 15, shortest=8),
    "crashrecovery-2-1": Pin(18, 34, 17, 6),
    "crashrecovery-2-1-starved": Pin(18, 34, 17, 6),
    "storage-2-1": Pin(61, 103, 43, 8),
    "storage-2-1-wrong": Pin(47, 71, 25, 8, shortest=8),
    "paxos-2-2-1-single": Pin(500, 1252, 753, 18),
    "faulty-paxos-2-3-1-single": Pin(75, 155, 81, 24, shortest=18),
    "multicast-3-0-1-1-single": Pin(307, 1003, 697, 14),
    "multicast-2-1-0-1-single": Pin(130, 339, 210, 12),
    "multicast-2-1-2-1-single": Pin(42, 55, 14, 26, shortest=15),
    "storage-2-1-single": Pin(191, 464, 274, 10),
    "storage-2-1-wrong-single": Pin(141, 326, 186, 10, shortest=10),
    "storage-3-1-single": Pin(2389, 8639, 6251, 14),
    "paxos-1-2-1-single": Pin(18, 25, 8, 9),
    "crashrecovery-2-1-single": Pin(30, 66, 37, 7),
    "crashrecovery-2-1-quorum-liveness": Pin(11, 22, 1, 3),
    "crashrecovery-2-1-single-liveness": Pin(19, 44, 4, 4),
    "crashrecovery-2-1-starved-quorum-liveness": Pin(9, 9, 0, 5),
    "crashrecovery-2-1-starved-single-liveness": Pin(10, 10, 0, 6),
    "toy-quorum": Pin(8, 7, 0, 5, shortest=4),
    "toy-first-wins": Pin(7, 6, 0, 4, shortest=3),
}


def reference_plan(cell: Cell) -> CheckPlan:
    return CheckPlan(goal=goal_of(cell.prop), backend="serial")


@pytest.fixture(scope="module")
def outcome():
    """``outcome(cell, plan)``: ``(protocol, result)`` of one run, made once
    per module and shared by a case, its twin and the cell's reference (a
    counterexample replays on the protocol that produced it)."""
    runs = {}

    def run(cell: Cell, plan: CheckPlan):
        if (cell.id, plan) not in runs:
            protocol = cell.build()
            runs[cell.id, plan] = protocol, run_plan(protocol, cell.prop, plan)
        return runs[cell.id, plan]

    yield run
    runs.clear()


@pytest.fixture(scope="module")
def reference(outcome):
    """``reference(cell)``: the cell's reference run, checked against its pin."""

    def run(cell: Cell):
        _, result = outcome(cell, reference_plan(cell))
        statistics, pin = result.statistics, PINS[cell.id]
        assert (result.verified, result.complete) == (cell.verified, cell.verified)
        assert (statistics.states_visited, statistics.transitions_executed,
                statistics.revisits, statistics.max_depth) == (
            pin.states, pin.transitions, pin.revisits, pin.max_depth)
        return result

    return run


# --------------------------------------------------------------------------- #
# The cases: every row, on every cell its goal and cost admit
# --------------------------------------------------------------------------- #
def sampling(row) -> bool:
    return "swarm" in row.backend


def row_plans(row, index: int, cell: Cell):
    """The plans ``row`` runs on ``cell``, spelled from the row's own axes.

    Stateful plans rotate through the row's stores from cell to cell, so
    every store is run without multiplying the cases by the store count.
    """
    if goal_of(cell.prop) not in row.goal:
        return
    if row.workers == PARALLEL and not cell.multiprocess:
        return
    stores = [store for store in row.store if store != "none"]
    for position, reduction in enumerate(row.reduction):
        if reduction == "dpor" and not cell.dpor:
            continue
        for stateful in row.stateful:
            # Walks are budgeted; other storeless searches need a small cell.
            if not (stateful or sampling(row) or reduction == "dpor"
                    or cell.stateless):
                continue
            store = stores[(index + position) % len(stores)] if stateful else "none"
            for extra in variants(row, cell, reduction):
                for successors in row.successors:
                    yield CheckPlan(
                        goal=row.goal[0], shape=row.shape[0],
                        reduction=reduction, backend=row.backend[0],
                        workers=row.workers.start, store=store,
                        stateful=stateful, successors=successors, **extra)


def variants(row, cell: Cell, reduction: str):
    """The plan settings beyond the row's axes that ``cell`` asks for."""
    if sampling(row):
        return [{"walks": WALKS, "walk_seed": WALK_SEED}]
    if not cell.toy:
        return [{}]
    if reduction in STUBBORN_REDUCTIONS:
        return [{"seed_heuristic": seed} for seed in SEED_HEURISTICS]
    return [{}, {"stop_at_first_violation": False}]


def case_id(row, cell: Cell, plan: CheckPlan) -> str:
    parts = [row.name, cell.id, plan.reduction, plan.store, plan.successors,
             f"{plan.workers}w"]
    if cell.toy and plan.reduction in STUBBORN_REDUCTIONS:
        parts.append(plan.seed_heuristic)
    if not plan.stop_at_first_violation:
        parts.append("past")
    return "-".join(parts)


def misses_the_violation(cell: Cell, plan: CheckPlan) -> bool:
    """A stubborn-set plan on a toy whose seed hides the counterexample."""
    return (cell.toy and plan.reduction in STUBBORN_REDUCTIONS
            and plan.seed_heuristic in UNSOUND_SEEDS)


def stealing(row, plan: CheckPlan) -> bool:
    return row.workers == PARALLEL and plan.shape == "dfs"


def _cases():
    cases = []
    for row in ENGINES:
        first = None
        for index, cell in enumerate(CELLS):
            for plan in row_plans(row, index, cell):
                first = first or (cell, plan)
                cases.append((row, cell, plan))
        if row.workers == PARALLEL and first is not None:
            cell, plan = first
            for successors in row.successors:
                cases.append((row, cell, dataclasses.replace(
                    plan, workers=4, successors=successors)))
    return cases


CASES = _cases()


def cases(claim, misses=False):
    """The ``CASES`` that ``claim(row, cell, plan)`` holds for, as pytest
    parameters; ``misses`` marks the plans that miss a toy's violation as
    strict xfails (ROADMAP item 1)."""
    params = []
    for row, cell, plan in CASES:
        if not claim(row, cell, plan):
            continue
        marks = []
        if plan.shape in cell.slow:
            marks.append(pytest.mark.slow)
        if row.workers == PARALLEL:
            marks.append(NEEDS_FORK)
        if misses and misses_the_violation(cell, plan):
            marks.append(pytest.mark.xfail(strict=True, reason="ROADMAP item 1"))
        params.append(pytest.param(row, cell, plan, id=case_id(row, cell, plan),
                                   marks=marks))
    return params


def settle(outcome, cell: Cell, plan: CheckPlan):
    """``(protocol, result)`` of ``plan``, or of the alternative its refusal
    names (the verdict test checks the refusal itself)."""
    try:
        return outcome(cell, plan)
    except UnsupportedPlanError as refusal:
        return outcome(cell, refusal.alternative)


def counters(result, skip=()):
    statistics = dataclasses.asdict(result.statistics)
    return {name: value for name, value in statistics.items()
            if name not in ("elapsed_seconds",) + tuple(skip)}


def assert_counterexample_is_real(cell: Cell, protocol, result) -> None:
    counterexample = result.counterexample
    assert counterexample.initial_state == protocol.initial_state()
    states = counterexample.replay(protocol)
    if counterexample.is_lasso:
        assert not any(cell.prop.holds_in(state, protocol) for state in states)
    else:
        assert not cell.prop.holds_in(states[-1], protocol)


def assert_twins(result, twin) -> None:
    assert (result.verified, result.complete) == (twin.verified, twin.complete)
    assert counters(result) == counters(twin)
    if twin.counterexample is None:
        assert result.counterexample is None
    else:
        assert result.counterexample.length == twin.counterexample.length
        assert result.counterexample.cycle_start == twin.counterexample.cycle_start


@pytest.mark.parametrize("row, cell, plan", cases(lambda *_: True, misses=True))
def test_verdict_and_counterexample(row, cell, plan, outcome, reference):
    """The run resolves to its row, keeps the reference's verdict (a
    sampling row claims no proof and finds only real violations) and returns
    a counterexample that replays, no shorter than the shortest."""
    expected = reference(cell)
    pin = PINS[cell.id]
    try:
        protocol, result = outcome(cell, plan)
    except UnsupportedPlanError:
        # A refusal for this protocol comes before the run starts, and only
        # for the documented reason: a cycle the row cannot see across workers.
        assert cell.cyclic
        observer = CollectingObserver()
        with pytest.raises(UnsupportedPlanError) as refusal:
            run_plan(cell.build(), cell.prop, plan, observer=observer)
        assert observer.events == []
        protocol, result = outcome(cell, refusal.value.alternative)
    assert result.engine == row.name
    if result.counterexample is not None:
        assert_counterexample_is_real(cell, protocol, result)
        if pin.shortest is not None:
            assert result.counterexample.length >= pin.shortest
            if plan.shape == "bfs":
                assert result.counterexample.length == pin.shortest

    if sampling(row):
        assert not (result.verified and result.complete)
        assert result.counterexample is None or not expected.verified
        return
    assert result.verified == expected.verified, (
        f"{row.name} says verified={result.verified}, the reference says "
        f"{expected.verified}")
    assert (result.counterexample is None) == result.verified
    if not plan.stop_at_first_violation:
        assert result.complete


@pytest.mark.parametrize("row, cell, plan", cases(
    lambda row, cell, plan: not sampling(row) and plan.stateful and cell.verified))
def test_counts_against_the_reference(row, cell, plan, outcome, reference):
    """On a verified cell a stateful exhaustive run counts what the reference
    counts, and a reduced one visits no more states."""
    expected = reference(cell)
    _, result = settle(outcome, cell, plan)
    assert result.complete
    if result.plan.reduction != "none":
        assert result.statistics.states_visited <= expected.statistics.states_visited
        return
    skip = []
    if stealing(row, plan):
        skip.append("enabled_set_computations")
        assert (result.statistics.enabled_set_computations
                >= expected.statistics.enabled_set_computations)
    if cell.cyclic and (stealing(row, plan) or plan.shape == "bfs"):
        # Not graded: the depth a state is first reached at depends on the
        # path that reached it, so the levels of a serial BFS bound it instead.
        skip.append("max_depth")
        _, levels = outcome(cell, dataclasses.replace(
            reference_plan(cell), shape="bfs"))
        deepest = levels.statistics.max_depth
        if stealing(row, plan):
            assert (deepest <= result.statistics.max_depth
                    < result.statistics.states_visited)
        else:
            assert result.statistics.max_depth == deepest
    assert counters(result, skip) == counters(expected, skip)


@pytest.mark.parametrize("row, cell, plan", cases(
    lambda row, cell, plan: not (sampling(row) or stealing(row, plan))
    and plan.successors != row.successors[0]))
def test_state_graphs_agree(row, cell, plan, outcome):
    """A deterministic row gives the same run over either state graph."""
    _, result = settle(outcome, cell, plan)
    _, twin = settle(outcome, cell, dataclasses.replace(
        plan, successors=row.successors[0]))
    assert_twins(result, twin)


def test_every_row_contributes_a_case():
    assert {row.name for row, _, _ in CASES} == {row.name for row in ENGINES}


def test_every_cell_is_pinned():
    assert [cell.id for cell in CELLS] == list(PINS)
