"""The ``StateGraph`` seam contract.

Two halves.  First, state by state: on a seeded sample of reachable states
the object and the packed graph must be the *same graph* seen through two
representations — same enabled executions in the same order, same
successors, same fingerprints, same property verdicts, lossless
``encode``/``decode``.  Second, run by run: the one DFS / BFS / nested-DFS
loop must produce identical statistics and counterexample lengths over
either graph, for every store kind, reduction and statefulness the loop
accepts.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.checker.search import (
    SearchConfig,
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
        assert isinstance(make_graph(protocol, SearchConfig()), ObjectGraph)
        assert isinstance(
            make_graph(protocol, SearchConfig(successor_engine="fast")), PackedGraph
        )
        with pytest.raises(ValueError, match="successor_engine"):
            make_graph(protocol, SearchConfig(successor_engine="warp"))


# --------------------------------------------------------------------------- #
# One loop, two graphs: identical runs
# --------------------------------------------------------------------------- #
STORES = ("full", "fingerprint", "sharded-fingerprint")
#: Stateful DFS grid: every store unreduced and under SPOR-NET (the paper's
#: headline reduction); plain SPOR shares the reducer bridge, once is enough.
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


def run_twice(entry, run, config, prop=None, reduction="none"):
    """``run`` over the object and the packed graph of fresh models."""
    outcomes = []
    for kind in ("object", "fast"):
        protocol = entry.quorum_model()
        config = dataclasses.replace(config, successor_engine=kind)
        graph = make_graph(protocol, config, stateful=config.stateful)
        extra = {}
        if run is run_dfs:
            extra["reducer"] = make_reducer(protocol, CheckPlan(reduction=reduction))
        outcomes.append(run(graph, prop or entry.invariant, config, **extra))
    return outcomes


def assert_identical(slow, fast):
    assert (slow.verified, slow.complete) == (fast.verified, fast.complete)
    assert slow.deadlock_states == fast.deadlock_states
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
        config = SearchConfig(state_store=store)
        assert_identical(*run_twice(entry, run_dfs, config, reduction=reduction))

    @pytest.mark.parametrize("reduction", ["none", "spor-net"])
    @pytest.mark.parametrize("entry", STATELESS_CELLS)
    def test_stateless_dfs(self, entry, reduction):
        config = SearchConfig(stateful=False)
        assert_identical(*run_twice(entry, run_dfs, config, reduction=reduction))

    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("entry", SMALL_CELLS)
    def test_bfs(self, entry, store):
        config = SearchConfig(state_store=store)
        assert_identical(*run_twice(entry, run_bfs, config))

    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("entry", LIVENESS_CELLS)
    def test_ndfs(self, entry, store):
        config = SearchConfig(state_store=store)
        assert_identical(*run_twice(entry, run_ndfs, config, prop=entry.liveness))

    def test_checking_every_violation_matches(self):
        # stop_at_first_violation=False keeps searching past counterexamples.
        entry = multicast_entry(2, 1, 2, 1)
        config = SearchConfig(stop_at_first_violation=False)
        for run in (run_dfs, run_bfs):
            slow, fast = run_twice(entry, run, config)
            assert not slow.verified
            assert_identical(slow, fast)
