"""Compiler conformance: the packed engine against the object-graph engine.

The executable contract of the fast path's tentpole claim: for every
reachable state of every bundled protocol model, the compiled engine
produces the *same* enabled executions in the *same* order, the same
successors, and bit-identical fingerprints — while its packed round trip
(encode → decode → re-encode) is the identity.
"""

from __future__ import annotations

import pytest

from repro.checker.stategraph import ObjectGraph, PackedGraph
from repro.fastpath.compiler import FastSuccessorEngine
from repro.mp import ProtocolBuilder
from repro.mp.channel import Network
from repro.mp.errors import MPError, TransitionExecutionError
from repro.mp.semantics import SuccessorEngine
from repro.mp.state import GlobalState
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


def build_double_send(rounds=1):
    """``GO@src`` sends the same ``TICK`` twice; ``TICK@dst`` takes one at a
    time — the only bundled-or-toy model whose network counts exceed 1 on
    purpose (``rounds`` identical driver messages stack up as well)."""
    def go(local, _messages, ctx):
        ctx.send("dst", "TICK")
        ctx.send("dst", "TICK")
        return local + 1

    builder = ProtocolBuilder("double-send")
    builder.add_process("src", "source", 0)
    builder.add_process("dst", "sink", 0)
    builder.add_transition("GO@src", "src", "GO", action=go)
    builder.add_transition(
        "TICK@dst", "dst", "TICK", action=lambda local, _messages, _ctx: local + 1)
    for _ in range(rounds):
        builder.trigger("GO", "src")
    return builder.build()


def network_counts(engine, packed):
    return {message.mtype: count
            for message, count in engine.decode(packed).network.items}


class TestMultiplicities:
    """One ``id << 32 | count`` word per pending message: counts above 1,
    the two consumption errors and the width of the count field."""

    def after_go(self, rounds=1):
        engine = FastSuccessorEngine(build_double_send(rounds))
        initial = engine.initial_packed()
        (go,) = engine.enabled_packed(initial)
        return engine, initial, engine.successor_packed(initial, go)

    @pytest.mark.parametrize("rounds", [1, 2])
    def test_packed_and_object_agree_along_every_path(self, rounds):
        _fast, edges = walk_in_lockstep(build_double_send(rounds))
        assert edges >= 3 * rounds

    def test_an_entry_goes_two_one_gone(self):
        engine, initial, packed = self.after_go()
        assert network_counts(engine, initial) == {"GO": 1}
        seen = [network_counts(engine, packed)]
        for _ in range(2):
            (tick,) = engine.enabled_packed(packed)
            packed = engine.successor_packed(packed, tick)
            seen.append(network_counts(engine, packed))
        assert seen == [{"TICK": 2}, {"TICK": 1}, {}]
        assert len(packed[0]) == engine.num_processes
        assert engine.enabled_packed(packed) == ()

    def test_consuming_an_absent_message_is_an_error(self):
        engine, initial, packed = self.after_go()
        (tick,) = engine.enabled_packed(packed)
        with pytest.raises(TransitionExecutionError,
                           match="consumed a message not present in the network"):
            engine.successor_packed(initial, tick)

    def test_consuming_more_copies_than_pending_is_an_error(self):
        engine, _initial, packed = self.after_go()
        ((index, (tick_id,)),) = engine.enabled_packed(packed)
        with pytest.raises(
                TransitionExecutionError,
                match="consumed more copies of a message than the network holds"):
            engine.successor_packed(packed, (index, (tick_id,) * 3))

    def test_a_count_that_does_not_fit_the_word_is_an_error(self):
        engine, _initial, packed = self.after_go(rounds=2)
        go, (_index, (tick_id,)) = engine.enabled_packed(packed)
        full = tuple(
            word | 0xFFFFFFFF if word >> 32 == tick_id else word
            for word in packed[0])
        assert network_counts(engine, (full,) + packed[1:])["TICK"] == 2 ** 32 - 1
        with pytest.raises(MPError, match="network word"):
            engine.successor_packed((full,) + packed[1:], go)
        state = engine.decode(packed)
        overfull = GlobalState(
            state.locals,
            Network((message, 2 ** 32) for message, _count in state.network.items))
        with pytest.raises(MPError, match="network word"):
            engine.encode(overfull)

    def test_pending_senders_agree_on_a_state_with_multiplicities(self):
        protocol = build_double_send(rounds=2)
        packed_graph, object_graph = PackedGraph(protocol), ObjectGraph(protocol)
        packed = packed_graph.initial
        for _ in range(2):
            assert max(network_counts(packed_graph.engine, packed).values()) == 2
            for index in range(len(protocol.transitions)):
                assert packed_graph.pending_senders(packed, index) == (
                    object_graph.pending_senders(packed_graph.decode(packed), index))
            packed = packed_graph.successor(packed, packed_graph.enabled(packed)[0])

    def test_a_one_entry_lru_recomputes_identical_successors(self):
        protocol = multicast_entry(2, 1, 0, 1).quorum_model()
        bounded = FastSuccessorEngine(protocol, memo_capacity=1)
        unbounded = FastSuccessorEngine(protocol)
        frontier = [(bounded.initial_packed(), unbounded.initial_packed())]
        seen = {frontier[0][1][3]}
        edges = 0
        while frontier:
            left, right = frontier.pop()
            executions = bounded.enabled_packed(left)
            assert executions == unbounded.enabled_packed(right)
            for execution in executions:
                after_left = bounded.successor_packed(left, execution)
                after_right = unbounded.successor_packed(right, execution)
                assert after_left == after_right
                edges += 1
                if after_right[3] not in seen:
                    seen.add(after_right[3])
                    frontier.append((after_left, after_right))
        assert bounded.memo_evictions > 0 and unbounded.memo_evictions == 0
        assert bounded.memo_misses > unbounded.memo_misses
        assert bounded.memo_hits + bounded.memo_misses == (
            unbounded.memo_hits + unbounded.memo_misses)
        assert edges > len(seen)
