"""The ``StateGraph`` seam contract, state by state.

On a seeded sample of reachable states the object and the packed graph must
be the *same graph* seen through two representations — same enabled
executions in the same order, same successors, same fingerprints, same
property verdicts, lossless ``encode``/``decode``.  That every loop gives
identical runs over either graph is a claim of the engine harness
(``tests/integration/test_engine_harness.py``).
"""

from __future__ import annotations

import random

import pytest

from repro.checker.stategraph import (
    ObjectGraph,
    PackedGraph,
    make_graph,
    replay_path,
)
from repro.engine.plan import CheckPlan
from repro.protocols.catalog import multicast_entry, paxos_entry, storage_entry

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
