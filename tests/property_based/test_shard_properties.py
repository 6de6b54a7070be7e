"""Property-based tests of the fingerprint shard partition.

The parallel search is sound only if shard routing is a *partition*: every
fingerprint maps to exactly one shard, the same shard every time, in every
process.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.checker.statestore import StateStore, identity, mix_fingerprint, shard_of

#: Python hashes: arbitrary signed machine-word-ish integers.
fingerprints = st.integers(min_value=-(2 ** 63), max_value=2 ** 64 - 1)
shard_counts = st.integers(min_value=1, max_value=32)


@given(fingerprints, shard_counts)
def test_routing_is_total_and_in_range(fingerprint, num_shards):
    shard = shard_of(fingerprint, num_shards)
    assert 0 <= shard < num_shards


@given(fingerprints, shard_counts)
def test_routing_is_deterministic(fingerprint, num_shards):
    assert shard_of(fingerprint, num_shards) == shard_of(fingerprint, num_shards)


@given(fingerprints)
def test_mixer_is_a_64_bit_value(fingerprint):
    mixed = mix_fingerprint(fingerprint)
    assert 0 <= mixed < 2 ** 64
    # Mixing only depends on the low 64 bits, i.e. routing agrees for ints
    # that are congruent mod 2**64 (Python hashes live in that range).
    assert mix_fingerprint(fingerprint + 2 ** 64) == mixed


@given(st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1), max_size=50))
def test_mixing_keeps_distinct_fingerprints_distinct(values):
    # The finaliser is a bijection on 64-bit values, so routing by the mixed
    # value loses no information about which fingerprints are equal.
    assert len({mix_fingerprint(value) for value in values}) == len(set(values))


@given(st.lists(fingerprints, max_size=50))
def test_a_store_reports_each_key_new_exactly_once(values):
    store = StateStore(identity)
    reported = [store.add(value) for value in values]
    assert reported == [value not in values[:i] for i, value in enumerate(values)]
    assert len(store) == len(set(values))
