"""Unit tests of the sharded fingerprint store and its routing function."""

from __future__ import annotations

import pickle

import pytest

from repro.checker.search import bfs_search, dfs_search
from repro.engine import CheckPlan
from repro.checker.statestore import (
    STORE_KINDS,
    FingerprintStore,
    ShardedFingerprintStore,
    make_state_store,
    mix_fingerprint,
    shard_of,
)
from repro.mp.semantics import state_graph_edges
from repro.obs.telemetry import RunTelemetry
from repro.protocols.multicast import agreement_invariant
from repro.protocols.catalog import multicast_entry


class TestRouting:
    def test_shard_in_range(self):
        for fingerprint in (-(2 ** 70), -1, 0, 1, 42, 2 ** 63, 2 ** 70):
            for shards in (1, 2, 3, 8, 16):
                assert 0 <= shard_of(fingerprint, shards) < shards

    def test_deterministic(self):
        assert shard_of(12345, 7) == shard_of(12345, 7)
        assert mix_fingerprint(12345) == mix_fingerprint(12345)

    def test_single_shard_routes_everything_to_zero(self):
        assert all(shard_of(fp, 1) == 0 for fp in range(-50, 50))

    def test_rejects_empty_partition(self):
        with pytest.raises(ValueError):
            shard_of(1, 0)
        with pytest.raises(ValueError):
            ShardedFingerprintStore(num_shards=0)

    def test_mixing_spreads_consecutive_ints(self):
        # Consecutive raw hashes land in one shard under a plain modulo by a
        # power of two only when the low bits are diffused; the mixer must
        # spread them across the whole partition.
        buckets = {shard_of(fp, 8) for fp in range(64)}
        assert len(buckets) == 8


class TestShardedFingerprintStore:
    def test_matches_flat_fingerprint_store(self, ping_pong_two_rounds):
        states, _ = state_graph_edges(ping_pong_two_rounds)
        flat = FingerprintStore()
        sharded = ShardedFingerprintStore(num_shards=4)
        for state in sorted(states, key=lambda s: s.fingerprint()):
            assert flat.add(state) == sharded.add(state)
        assert len(flat) == len(sharded)
        for state in states:
            assert state in sharded

    def test_shard_sizes_form_partition(self, vote_collection):
        states, _ = state_graph_edges(vote_collection)
        store = ShardedFingerprintStore(num_shards=4)
        for state in states:
            store.add(state)
        assert sum(store.shard_sizes()) == len(store) == len(states)
        # Every fingerprint must live in exactly the shard that owns it.
        for state in states:
            owner = store.shard_of(state.fingerprint())
            holders = [
                index
                for index in range(store.num_shards)
                if state.fingerprint() in store.shard_contents(index)
            ]
            assert holders == [owner]

    def test_add_is_idempotent(self, ping_pong):
        store = ShardedFingerprintStore(num_shards=2)
        initial = ping_pong.initial_state()
        assert store.add(initial)
        assert not store.add(initial)
        assert len(store) == 1

    def test_pickle_round_trip(self, vote_collection):
        states = list(state_graph_edges(vote_collection)[0])
        store = ShardedFingerprintStore(num_shards=3)
        for state in states:
            store.add(state)
        restored = pickle.loads(pickle.dumps(store))
        assert restored.num_shards == store.num_shards
        assert restored.shard_sizes() == store.shard_sizes()
        for state in states:
            assert restored.contains_fingerprint(state.fingerprint())


class TestFactory:
    def test_new_kind(self):
        store = make_state_store("sharded-fingerprint")
        assert isinstance(store, ShardedFingerprintStore)
        assert store.num_shards == 8

    def test_kinds_catalogued(self):
        for kind in STORE_KINDS:
            assert make_state_store(kind) is not None

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_state_store("sharded-banana")


class TestSearchWithShardedStore:
    """The sharded store is a drop-in for the serial searches too."""

    @pytest.mark.parametrize("search", [dfs_search, bfs_search])
    def test_counts_match_flat_fingerprint_store(self, search):
        entry = multicast_entry(2, 1, 0, 1)
        invariant = agreement_invariant()
        flat = search(
            entry.quorum_model(), invariant, CheckPlan(store="fingerprint")
        )
        telemetry = RunTelemetry()
        sharded = search(
            entry.quorum_model(),
            invariant,
            CheckPlan(store="sharded-fingerprint"),
            telemetry=telemetry,
        )
        assert len(telemetry.metrics.get("state_store_shard_size").labelled()) == 8
        assert sharded.verified == flat.verified
        assert sharded.statistics.states_visited == flat.statistics.states_visited
        assert (
            sharded.statistics.transitions_executed
            == flat.statistics.transitions_executed
        )
