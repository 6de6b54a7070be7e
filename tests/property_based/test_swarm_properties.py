"""Property-based tests: a swarm walk is a pure function of (seed, index).

The determinism contract of the sampling backend: given the root seed and
the walk index, the walk's execution-index path is fixed — independent of
the visited filter's contents (it is coverage telemetry, never a pruning
structure), of which successor engine variant runs the walk, and therefore
of scheduling and worker count.  This is what makes swarm violations
bit-reproducible from ``(root_seed, walk_index)`` alone.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.plan import CheckPlan
from repro.protocols.multicast import (
    MulticastConfig,
    agreement_invariant,
    build_multicast_quorum,
)
from repro.swarm.filter import SwarmFilter
from repro.swarm.search import SwarmOutcomeStats, _run_one_walk, _walk_graph
from repro.swarm.seeds import walk_stream_seed

MAX_DEPTH = 64


def make_graph(config, mode):
    """The walker's ``(graph, holds)`` pair, built the way swarm_search does."""
    plan = CheckPlan(backend="swarm", successors=mode)
    graph = _walk_graph(build_multicast_quorum(config), plan)
    return graph, graph.invariant_checker(agreement_invariant())


# Graphs are built once: walks mutate only the filter and stats they are
# handed, so sharing the graph across examples is exactly the production
# access pattern.
VIOLATING = MulticastConfig(2, 1, 2, 1)
CLEAN = MulticastConfig(2, 1, 0, 1)
GRAPHS = {
    (label, mode): make_graph(config, mode)
    for label, config in (("violating", VIOLATING), ("clean", CLEAN))
    for mode in ("object", "fast")
}


def walk(graph, root_seed, walk_index, visited=None):
    stats = SwarmOutcomeStats()
    if visited is None:
        visited = SwarmFilter(bits_log2=14)
    path = _run_one_walk(*graph, walk_index, root_seed, MAX_DEPTH, visited, stats)
    return path, stats.steps


seeds = st.integers(min_value=0, max_value=2**32)
indices = st.integers(min_value=0, max_value=500)
labels = st.sampled_from(("violating", "clean"))


@given(labels, seeds, indices)
@settings(max_examples=60, deadline=None)
def test_walk_is_pure_in_seed_and_index(label, root_seed, walk_index):
    graph = GRAPHS[(label, "object")]
    first = walk(graph, root_seed, walk_index)
    second = walk(graph, root_seed, walk_index)
    assert first == second


@given(labels, seeds, indices)
@settings(max_examples=60, deadline=None)
def test_walk_ignores_filter_state(label, root_seed, walk_index):
    # A saturated filter must not steer the walk: pre-populate one filter
    # heavily and leave the other empty — identical paths either way.
    graph = GRAPHS[(label, "object")]
    polluted = SwarmFilter(bits_log2=14)
    for fingerprint in range(5_000):
        polluted.add(fingerprint)
    assert (walk(graph, root_seed, walk_index)[0]
            == walk(graph, root_seed, walk_index, visited=polluted)[0])


@given(labels, seeds, indices)
@settings(max_examples=40, deadline=None)
def test_fast_and_object_walkers_take_the_same_path(label, root_seed, walk_index):
    object_path, object_steps = walk(GRAPHS[(label, "object")], root_seed, walk_index)
    fast_path, fast_steps = walk(GRAPHS[(label, "fast")], root_seed, walk_index)
    assert object_path == fast_path
    assert object_steps == fast_steps


@given(seeds, indices)
@settings(max_examples=40, deadline=None)
def test_stream_seeds_never_collide_with_neighbours(root_seed, walk_index):
    window = [walk_stream_seed(root_seed, walk_index + offset) for offset in range(16)]
    assert len(set(window)) == 16
