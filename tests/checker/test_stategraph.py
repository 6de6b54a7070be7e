"""The ``StateGraph`` seam contract.

Two halves.  First, state by state: on a seeded sample of reachable states
the object and the packed graph must be the *same graph* seen through two
representations — same enabled executions in the same order, same
successors, same fingerprints, same property verdicts, lossless
``encode``/``decode``.  Second, run by run: the one DFS / BFS / nested-DFS
loop must produce identical statistics and counterexample lengths over
either graph, for every store kind, reduction and statefulness the loop
accepts.  Third, the same run by run for the two parallel loops — frontier
BFS and work-stealing DFS — at 1, 2 and 4 workers, against the serial run.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import random

import pytest

from repro.checker.search import (
    run_bfs,
    run_dfs,
    run_ndfs,
)
from repro.checker.stategraph import (
    ObjectGraph,
    PackedGraph,
    make_graph,
    replay_path,
)
from repro.engine.engines import make_reducer
from repro.engine.plan import CheckPlan
from repro.parallel import parallel_bfs_search, parallel_dfs_search
from repro.protocols.catalog import (
    default_catalog,
    multicast_entry,
    paxos_entry,
    storage_entry,
)

SAMPLE_SEED = 20110627  # DSN'11
SAMPLE_SIZE = 40

CONTRACT_CELLS = [
    pytest.param(paxos_entry(2, 2, 1), "quorum", id="paxos-2-2-1"),
    pytest.param(storage_entry(3, 1), "single", id="storage-3-1-single"),
    pytest.param(storage_entry(3, 1), "quorum", id="storage-3-1-quorum"),
    pytest.param(multicast_entry(2, 1, 0, 1), "quorum", id="multicast-2-1-0-1"),
]


def build(entry, model):
    return entry.quorum_model() if model == "quorum" else entry.single_model()


def sample_paths(graph, seed=SAMPLE_SEED, size=SAMPLE_SIZE, max_depth=24):
    """Execution-index paths to a seeded sample of reachable states."""
    rng = random.Random(seed)
    paths = [()]
    for _ in range(size - 1):
        state, path = graph.initial, []
        for _ in range(rng.randrange(1, max_depth)):
            enabled = graph.enabled(state)
            if not enabled:
                break
            choice = rng.randrange(len(enabled))
            state = graph.successor(state, enabled[choice])
            path.append(choice)
        paths.append(tuple(path))
    return paths


def walk(graph, path):
    state = graph.initial
    for index in path:
        state = graph.successor(state, graph.enabled(state)[index])
    return state


class TestGraphsAgreeStateByState:
    @pytest.mark.parametrize("entry, model", CONTRACT_CELLS)
    def test_object_and_packed_graphs_are_the_same_graph(self, entry, model):
        protocol = build(entry, model)
        objects = ObjectGraph(protocol)
        packed = PackedGraph(protocol)
        object_holds = objects.invariant_checker(entry.invariant)
        packed_holds = packed.invariant_checker(entry.invariant)
        paths = sample_paths(objects)
        assert len(set(paths)) > SAMPLE_SIZE // 2
        for path in paths:
            state, words = walk(objects, path), walk(packed, path)
            assert packed.decode(words) == state
            assert packed.encode(packed.decode(words)) == words
            assert objects.encode(objects.decode(state)) is state
            assert packed.fingerprint(words) == objects.fingerprint(state)
            assert packed.exact_key(words) == packed.exact_key(packed.encode(state))
            assert bool(packed_holds(words)) == bool(object_holds(state))
            executions = objects.enabled(state)
            packed_executions = packed.enabled(words)
            assert tuple(map(packed.execution_of, packed_executions)) == executions
            for execution, packed_execution in zip(executions, packed_executions):
                assert (
                    packed.decode(packed.successor(words, packed_execution))
                    == objects.successor(state, execution)
                )

    @pytest.mark.parametrize("entry, model", CONTRACT_CELLS)
    def test_replay_path_is_graph_independent(self, entry, model):
        protocol = build(entry, model)
        objects, packed = ObjectGraph(protocol), PackedGraph(protocol)
        for path in sample_paths(objects, size=8):
            assert replay_path(objects, path, "p") == replay_path(packed, path, "p")

    def test_make_graph_follows_the_successor_engine_knob(self):
        protocol = multicast_entry(2, 1, 0, 1).quorum_model()
        assert isinstance(make_graph(protocol, CheckPlan()), ObjectGraph)
        assert isinstance(
            make_graph(protocol, CheckPlan(successors="fast")), PackedGraph
        )
        # An unknown graph never reaches make_graph: the plan refuses it.
        with pytest.raises(ValueError, match="successors"):
            CheckPlan(successors="warp")


# --------------------------------------------------------------------------- #
# One loop, two graphs: identical runs
# --------------------------------------------------------------------------- #
STORES = ("full", "fingerprint", "sharded-fingerprint")
#: Stateful DFS grid: every store unreduced and under SPOR-NET (the paper's
#: headline reduction); plain SPOR is the same reducer minus the per-state
#: enabling sets, once is enough.
DFS_GRID = [(store, reduction) for store in STORES
            for reduction in ("none", "spor-net")] + [("full", "spor")]
SMALL_CELLS = [pytest.param(entry, id=entry.key) for entry in default_catalog("small")]
LIVENESS_CELLS = [
    pytest.param(entry, id=entry.key)
    for entry in default_catalog("small") if entry.liveness is not None
]
#: Stateless search re-explores every interleaving; keep it to tiny cells.
STATELESS_CELLS = [
    pytest.param(multicast_entry(2, 1, 0, 1), id="multicast-2-1-0-1"),
    pytest.param(multicast_entry(2, 1, 2, 1), id="multicast-2-1-2-1"),
    pytest.param(paxos_entry(2, 2, 1), id="paxos-2-2-1"),
]


def run_twice(entry, run, plan, prop=None):
    """``run`` over the object and the packed graph of fresh models."""
    outcomes = []
    for kind in ("object", "fast"):
        protocol = entry.quorum_model()
        plan = dataclasses.replace(plan, successors=kind)
        graph = make_graph(protocol, plan, stateful=plan.stateful)
        extra = {}
        if run is run_dfs:
            extra["reducer"] = make_reducer(protocol, plan)
        outcomes.append(run(graph, prop or entry.invariant, plan, **extra))
    return outcomes


def assert_identical(slow, fast):
    assert (slow.verified, slow.complete) == (fast.verified, fast.complete)
    slow_stats = dataclasses.replace(slow.statistics, elapsed_seconds=0.0)
    fast_stats = dataclasses.replace(fast.statistics, elapsed_seconds=0.0)
    assert dataclasses.astuple(slow_stats) == dataclasses.astuple(fast_stats)
    if slow.counterexample is None:
        assert fast.counterexample is None
    else:
        assert len(slow.counterexample.steps) == len(fast.counterexample.steps)
        assert slow.counterexample.cycle_start == fast.counterexample.cycle_start


class TestOneLoopTwoGraphs:
    @pytest.mark.parametrize("store, reduction", DFS_GRID)
    @pytest.mark.parametrize("entry", SMALL_CELLS)
    def test_stateful_dfs(self, entry, store, reduction):
        plan = CheckPlan(store=store, reduction=reduction)
        assert_identical(*run_twice(entry, run_dfs, plan))

    @pytest.mark.parametrize("reduction", ["none", "spor-net"])
    @pytest.mark.parametrize("entry", STATELESS_CELLS)
    def test_stateless_dfs(self, entry, reduction):
        plan = CheckPlan(stateful=False, reduction=reduction)
        assert_identical(*run_twice(entry, run_dfs, plan))

    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("entry", SMALL_CELLS)
    def test_bfs(self, entry, store):
        assert_identical(*run_twice(entry, run_bfs, CheckPlan(store=store)))

    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("entry", LIVENESS_CELLS)
    def test_ndfs(self, entry, store):
        plan = CheckPlan(store=store)
        assert_identical(*run_twice(entry, run_ndfs, plan, prop=entry.liveness))

    def test_checking_every_violation_matches(self):
        # stop_at_first_violation=False keeps searching past counterexamples.
        entry = multicast_entry(2, 1, 2, 1)
        plan = CheckPlan(stop_at_first_violation=False)
        for run in (run_dfs, run_bfs):
            slow, fast = run_twice(entry, run, plan)
            assert not slow.verified
            assert_identical(slow, fast)


# --------------------------------------------------------------------------- #
# One frontier loop, one worksteal loop, two graphs: identical to serial
# --------------------------------------------------------------------------- #
WORKERS = (1, 2, 4)
#: Cells whose violating level is > 20k transitions wide: 10 s per frontier
#: run under the exact store (every delta an object state), 1.5 s under a
#: fingerprint one.  The frontier grid runs them once; worksteal always.
HEAVY_LEVELS = ("faulty-paxos-2-3-1", "multicast-2-1-2-1-lossy")
FRONTIER_GRID = [
    pytest.param(entry, workers, store, id=f"{entry.key}-{workers}w-{store}")
    for entry in default_catalog("small") for workers in WORKERS for store in STORES
    if entry.key not in HEAVY_LEVELS or (workers, store) == (2, "fingerprint")
]
WORKSTEAL_GRID = [
    pytest.param(entry, workers, store, id=f"{entry.key}-{workers}w-{store}")
    for entry in default_catalog("small") for workers in WORKERS for store in STORES
]
#: The work-stealing proviso is per access path: cyclic graphs are refused
#: at the engine layer (``_reject_cyclic_worksteal_reduction``).
REDUCED_GRID = [
    pytest.param(entry, workers, reduction, id=f"{entry.key}-{workers}w-{reduction}")
    for entry in default_catalog("small")
    if not entry.quorum_model().metadata.get("cyclic_state_graph")
    for workers in (2, 4) for reduction in ("spor", "spor-net")
]


@functools.lru_cache(maxsize=None)
def serial_run(key, shape, store):
    """The serial object-graph run every parallel run is compared against."""
    entry = next(e for e in default_catalog("small") if e.key == key)
    run = run_bfs if shape == "bfs" else run_dfs
    return run(ObjectGraph(entry.quorum_model()), entry.invariant,
               CheckPlan(store=store))


def counters(outcome, skip=()):
    statistics = dataclasses.replace(outcome.statistics, elapsed_seconds=0.0)
    return {name: value for name, value in dataclasses.asdict(statistics).items()
            if name not in skip}


def assert_ends_in_a_violation(entry, outcome):
    assert outcome.counterexample is not None
    final = outcome.counterexample.steps[-1].state
    assert not entry.invariant.holds_in(final, entry.quorum_model())


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the parallel loops require the fork start method",
)
class TestParallelLoopsTwoGraphs:
    @pytest.mark.parametrize("entry, workers, store", FRONTIER_GRID)
    def test_frontier(self, entry, workers, store):
        serial = serial_run(entry.key, "bfs", store)
        slow, fast = (
            parallel_bfs_search(
                entry.quorum_model(), entry.invariant,
                CheckPlan(store=store, successors=kind, workers=workers),
            )
            for kind in ("object", "fast")
        )
        # Level-synchronous: the whole run is a function of the model alone.
        assert_identical(slow, fast)
        assert (fast.verified, fast.complete) == (serial.verified, serial.complete)
        if serial.verified:
            assert counters(fast) == counters(serial)
        else:
            # Serial BFS stops mid-level; the counterexample depth is minimal
            # either way.
            assert len(fast.counterexample.steps) == len(serial.counterexample.steps)
            assert_ends_in_a_violation(entry, fast)

    @pytest.mark.parametrize("entry, workers, store", WORKSTEAL_GRID)
    def test_worksteal(self, entry, workers, store):
        serial = serial_run(entry.key, "dfs", store)
        for kind in ("object", "fast"):
            outcome = parallel_dfs_search(
                entry.quorum_model(), entry.invariant,
                CheckPlan(store=store, successors=kind, workers=workers),
            )
            assert (outcome.verified, outcome.complete) == (
                serial.verified, serial.complete)
            if serial.verified:
                # A thief recomputes the enabled set of the frame it resumes.
                skip = ("enabled_set_computations",)
                if entry.quorum_model().metadata.get("cyclic_state_graph"):
                    # Not graded: the depth a state is first claimed at
                    # depends on which worker's path gets there first.
                    skip += ("max_depth",)
                    shortest = serial_run(entry.key, "bfs", store).statistics.max_depth
                    assert (shortest <= outcome.statistics.max_depth
                            < outcome.statistics.states_visited)
                assert counters(outcome, skip) == counters(serial, skip)
                assert (outcome.statistics.enabled_set_computations
                        >= serial.statistics.enabled_set_computations)
            else:
                assert_ends_in_a_violation(entry, outcome)

    @pytest.mark.parametrize("entry, workers, reduction", REDUCED_GRID)
    def test_reduced_worksteal_misses_no_violation(self, entry, workers, reduction):
        unreduced = serial_run(entry.key, "dfs", "full")
        for kind in ("object", "fast"):
            protocol = entry.quorum_model()
            plan = CheckPlan(reduction=reduction, successors=kind, workers=workers)
            outcome = parallel_dfs_search(
                protocol, entry.invariant, plan,
                reducer=make_reducer(protocol, plan),
            )
            assert outcome.verified == unreduced.verified
            if unreduced.verified:
                assert outcome.complete
                assert (outcome.statistics.states_visited
                        <= unreduced.statistics.states_visited)
            else:
                assert_ends_in_a_violation(entry, outcome)
