"""Unit tests of the fingerprint partition and of the sharded store kind,
which deduplicates by fingerprint like ``store="fingerprint"``."""

from __future__ import annotations

import pytest

from repro.checker.search import bfs_search, dfs_search
from repro.engine import CheckPlan
from repro.mp.semantics import state_graph_edges
from repro.checker.statestore import (
    STORE_KINDS,
    make_state_store,
    mix_fingerprint,
    shard_of,
)
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

    def test_mixing_spreads_consecutive_ints(self):
        # Consecutive raw hashes land in one shard under a plain modulo by a
        # power of two only when the low bits are diffused; the mixer must
        # spread them across the whole partition.
        buckets = {shard_of(fp, 8) for fp in range(64)}
        assert len(buckets) == 8


class TestShardedKind:
    """``"sharded-fingerprint"`` is a spelling of the fingerprint store."""

    def test_matches_flat_fingerprint_store(self, ping_pong_two_rounds):
        states, _ = state_graph_edges(ping_pong_two_rounds)
        flat = make_state_store("fingerprint")
        sharded = make_state_store("sharded-fingerprint")
        for state in sorted(states, key=lambda s: s.fingerprint()) * 2:
            assert flat.add(state) == sharded.add(state)
        assert len(flat) == len(sharded) == len(states)

    def test_add_is_idempotent(self, ping_pong):
        store = make_state_store("sharded-fingerprint")
        initial = ping_pong.initial_state()
        assert store.add(initial)
        assert not store.add(initial)
        assert len(store) == 1


class TestFactory:
    def test_kinds_catalogued(self):
        for kind in STORE_KINDS:
            if kind != "none":  # a stateless search keeps no store
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
        assert telemetry.metrics.get("state_store_size").value() \
            == sharded.statistics.states_visited
        assert sharded.verified == flat.verified
        assert sharded.statistics.states_visited == flat.statistics.states_visited
        assert (
            sharded.statistics.transitions_executed
            == flat.statistics.transitions_executed
        )
