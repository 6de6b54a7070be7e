"""Unit tests of the visited-state store: one set of keys, keyed per store kind."""

import tracemalloc
from collections import deque

import pytest

from repro.checker.search import bfs_search
from repro.checker.stategraph import ObjectGraph, PackedGraph, replay_parents
from repro.checker.statestore import StateStore, identity, make_state_store
from repro.engine import CheckPlan
from repro.mp.channel import Network
from repro.mp.semantics import state_graph_edges
from repro.mp.state import GlobalState
from repro.protocols.catalog import storage_entry

FINGERPRINT_KINDS = ("fingerprint", "sharded-fingerprint")
STATEFUL_KINDS = ("full",) + FINGERPRINT_KINDS


def make_state(value):
    return GlobalState([("p", value)], Network.empty())


class TestStateStore:
    def test_add_reports_new_keys_only(self):
        store = StateStore(identity)
        assert store.add(make_state(1))
        assert not store.add(make_state(1))
        assert store.add(make_state(2))
        assert len(store) == 2

    def test_a_state_that_is_its_own_key_is_stored_as_it_is(self):
        store = StateStore(identity)
        store.add(make_state(1))
        assert store.keys == {make_state(1)}

    def test_keys_are_what_the_key_function_returns(self):
        store = StateStore(GlobalState.fingerprint)
        assert store.add(make_state(1))
        assert not store.add(make_state(1))
        assert store.keys == {make_state(1).fingerprint()}

    def test_distinct_states_keep_distinct_keys(self):
        store = StateStore(GlobalState.fingerprint)
        store.add(make_state(1))
        store.add(make_state(2))
        assert len(store) == 2

    @pytest.mark.parametrize("kind", STATEFUL_KINDS)
    def test_every_kind_counts_each_state_of_a_graph_once(self, kind,
                                                         ping_pong_two_rounds):
        states, _ = state_graph_edges(ping_pong_two_rounds)
        store = make_state_store(kind)
        assert all(store.add(state) for state in states)
        assert not any(store.add(state) for state in states)
        assert len(store) == len(states)


class TestOneDecision:
    @pytest.mark.parametrize("graph", [ObjectGraph, PackedGraph])
    def test_store_key_per_kind(self, graph):
        assert graph.store_key("full") is graph.exact_key
        for kind in FINGERPRINT_KINDS:
            assert graph.store_key(kind) is graph.fingerprint

    @pytest.mark.parametrize("kind", ["none", "bogus"])
    def test_a_kind_without_a_visited_set_is_rejected(self, kind):
        with pytest.raises(ValueError):
            ObjectGraph.store_key(kind)
        with pytest.raises(ValueError):
            make_state_store(kind)

    def test_make_state_store_is_the_object_graph_store(self):
        assert make_state_store("full").key is identity
        for kind in FINGERPRINT_KINDS:
            store = make_state_store(kind)
            assert isinstance(store, StateStore)
            assert store.key is GlobalState.fingerprint


@pytest.mark.parametrize("graph_class", [ObjectGraph, PackedGraph])
@pytest.mark.parametrize("kind", ["full", "fingerprint"])
def test_replay_parents_reaches_every_key_at_its_depth(graph_class, kind,
                                                       ping_pong_two_rounds):
    """The BFS parent map, keyed by either store key on either graph,
    replays to a shortest path of every state it holds."""
    graph = graph_class(ping_pong_two_rounds)
    key = graph.store_key(kind)
    parents = {key(graph.initial): None}
    depth = {key(graph.initial): 0}
    queue = deque([graph.initial])
    while queue:
        state = queue.popleft()
        for index, execution in enumerate(graph.enabled(state)):
            child = key(graph.successor(state, execution))
            if child not in parents:
                parents[child] = (key(state), index)
                depth[child] = depth[key(state)] + 1
                queue.append(graph.successor(state, execution))
    assert len(parents) == len(state_graph_edges(ping_pong_two_rounds)[0])
    assert max(depth.values()) > 2
    for target in parents:
        trace = replay_parents(graph, parents, target, "reach")
        assert trace.length == depth[target]
        assert key(graph.encode(trace.violating_state)) == target


def _bfs_peak_bytes(store: str) -> int:
    entry = storage_entry(2, 2)
    plan = CheckPlan(shape="bfs", store=store)
    protocol = entry.quorum_model()
    tracemalloc.start()
    try:
        outcome = bfs_search(protocol, entry.invariant, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.verified and outcome.statistics.states_visited == 739
    return peak


def test_bfs_with_a_fingerprint_store_keeps_no_states():
    """Serial BFS deduplicates by the store's key in its parent map, so a
    fingerprint store holds integers where the full store holds states: the
    fingerprint run peaks at about 0.4 of the full run, where keeping every
    state would make the two equal."""
    # The first search of a cell in a process peaks about 0.14 MB higher
    # than later ones; an untraced run takes that before measuring.
    entry = storage_entry(2, 2)
    bfs_search(entry.quorum_model(), entry.invariant, CheckPlan(shape="bfs"))
    assert _bfs_peak_bytes("fingerprint") < 0.6 * _bfs_peak_bytes("full")
