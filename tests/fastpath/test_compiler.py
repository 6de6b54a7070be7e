"""Compiler conformance: the packed engine against the object-graph engine.

The executable contract of the fast path's tentpole claim: for every
reachable state of every bundled protocol model, the compiled engine
produces the *same* enabled executions in the *same* order, the same
successors, and bit-identical fingerprints — while its packed round trip
(encode → decode → re-encode) is the identity.
"""

from __future__ import annotations

import pytest

from repro.fastpath.compiler import FastSuccessorEngine
from repro.mp.errors import MPError
from repro.mp.semantics import SuccessorEngine
from repro.protocols.catalog import (
    multicast_entry,
    paxos_entry,
    storage_entry,
)

CELLS = [
    pytest.param(paxos_entry(2, 2, 1), id="paxos-2-2-1"),
    pytest.param(multicast_entry(2, 1, 0, 1), id="multicast-2-1-0-1"),
    pytest.param(multicast_entry(3, 0, 1, 1), id="multicast-3-0-1-1"),
    pytest.param(storage_entry(3, 1), id="storage-3-1"),
]

#: Edge-comparison budget per (cell, model); enough to cover the smaller
#: cells exhaustively and a representative prefix of the larger ones.
MAX_EDGES = 2500


def walk_in_lockstep(protocol, max_edges=MAX_EDGES):
    """BFS both engines together, asserting parity on every edge."""
    fast = FastSuccessorEngine(protocol)
    obj = SuccessorEngine.for_search(protocol, stateful=True)
    initial_obj = obj.initial_state()
    initial_packed = fast.initial_packed()
    assert initial_packed[3] == initial_obj.fingerprint()
    assert fast.decode(initial_packed) == initial_obj
    seen = {initial_packed[0]}
    frontier = [(initial_obj, initial_packed)]
    edges = 0
    while frontier and edges < max_edges:
        next_frontier = []
        for state_obj, state_packed in frontier:
            enabled_obj = obj.enabled(state_obj)
            enabled_packed = fast.enabled_packed(state_packed)
            assert len(enabled_obj) == len(enabled_packed)
            for execution_obj, execution_packed in zip(enabled_obj, enabled_packed):
                # Same executions, same deterministic order.
                assert fast.execution_of(execution_packed) == execution_obj
                successor_obj = obj.successor(state_obj, execution_obj)
                successor_packed = fast.successor_packed(
                    state_packed, execution_packed
                )
                # Bit-identical fingerprints, exact decode, identity round trip.
                assert successor_packed[3] == successor_obj.fingerprint()
                assert fast.decode(successor_packed) == successor_obj
                assert fast.encode(successor_obj) == successor_packed
                edges += 1
                if successor_packed[0] not in seen:
                    seen.add(successor_packed[0])
                    next_frontier.append((successor_obj, successor_packed))
        frontier = next_frontier
    assert edges > 0
    return fast, edges


class TestEdgeLevelParity:
    @pytest.mark.parametrize("entry", CELLS)
    def test_quorum_model(self, entry):
        walk_in_lockstep(entry.quorum_model())

    @pytest.mark.parametrize("entry", CELLS)
    def test_single_model(self, entry):
        walk_in_lockstep(entry.single_model())


class TestTables:
    def test_memo_tables_fill_and_stay_small(self):
        protocol = storage_entry(3, 1).quorum_model()
        fast, edges = walk_in_lockstep(protocol)
        sizes = fast.table_sizes()
        # The whole point of the compiler: far fewer distinct inputs than
        # edges, so guards/actions run a fraction of the edge count.
        assert 0 < sizes["action_entries"] < edges
        assert 0 < sizes["enabled_entries"]
        assert 0 < sizes["locals"]
        assert 0 < sizes["messages"]

    def test_encode_rejects_foreign_layout(self):
        fast = FastSuccessorEngine(multicast_entry(2, 1, 0, 1).quorum_model())
        other = storage_entry(3, 1).quorum_model().initial_state()
        with pytest.raises(MPError):
            fast.encode(other)

    def test_object_level_convenience_mirrors(self):
        protocol = paxos_entry(2, 2, 1).quorum_model()
        fast = FastSuccessorEngine(protocol)
        obj = SuccessorEngine.for_search(protocol, stateful=True)
        state = protocol.initial_state()
        assert fast.enabled(state) == obj.enabled(state)
        execution = obj.enabled(state)[0]
        assert fast.successor(state, execution) == obj.successor(state, execution)
