"""The soundness net of the mask-based, graph-native stubborn-set reducer.

The provider of :mod:`repro.por.stubborn` closes over int bitmasks and asks
the search's :class:`~repro.checker.stategraph.StateGraph` for pending
senders; this file keeps the *name-based* closure it replaced as the
reference and checks, state by state, that

(a) the stubborn set is the same set of transitions, for every seed, with
    and without NET, on every catalog family, a cyclic cell and the four
    Table-II refinements;
(b) the object and the packed graph answer the two seam members alike and
    the reducer keeps the same enabled-order positions over either;
(c) a reduced packed search decodes only for invariant-memo misses and the
    counterexample — never per expanded state;
(d) a custom reducer on the packed graph is handed packed states plus the
    graph to materialise them with.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.checker.property import Invariant
from repro.checker.stategraph import ObjectGraph, PackedGraph
from repro.engine.engines import make_reducer
from repro.engine.plan import CheckPlan
from repro.fastpath.compiler import FastSuccessorEngine
from repro.fastpath.search import fast_dfs_search
from repro.mp.semantics import apply_execution, enabled_executions
from repro.mp.state import GlobalState
from repro.por.dependence import DependenceRelation
from repro.por.stubborn import StubbornSetProvider
from repro.protocols.catalog import (
    crash_recovery_entry,
    multicast_entry,
    paxos_entry,
    storage_entry,
)
from repro.refine import combined_split, quorum_split, reply_split

SAMPLE_SEED = 20110627  # DSN'11
SAMPLE_SIZE = 24


def _paxos_2_3_1():
    return paxos_entry(2, 3, 1).quorum_model()


#: Every catalog family (quorum model), the faulty variant, a single-message
#: model, a cyclic (crash-recovery) cell and the Table-II variants.
CELLS = [
    pytest.param(paxos_entry(2, 2, 1).quorum_model, id="paxos-2-2-1"),
    pytest.param(paxos_entry(2, 3, 1, faulty=True).quorum_model, id="faulty-paxos-2-3-1"),
    pytest.param(multicast_entry(3, 0, 1, 1).quorum_model, id="multicast-3-0-1-1"),
    pytest.param(multicast_entry(2, 1, 2, 1, message_loss=True).quorum_model,
                 id="multicast-2-1-2-1-lossy"),
    pytest.param(storage_entry(3, 1).quorum_model, id="storage-3-1"),
    pytest.param(storage_entry(3, 1).single_model, id="storage-3-1-single"),
    pytest.param(crash_recovery_entry(2, 1).quorum_model, id="crashrecovery-2-1"),
    pytest.param(_paxos_2_3_1, id="paxos-2-3-1-unsplit"),
    pytest.param(lambda: reply_split(_paxos_2_3_1()), id="paxos-2-3-1-reply-split"),
    pytest.param(lambda: quorum_split(_paxos_2_3_1()), id="paxos-2-3-1-quorum-split"),
    pytest.param(lambda: combined_split(_paxos_2_3_1()), id="paxos-2-3-1-combined-split"),
]


def sample_states(graph, seed=SAMPLE_SEED, size=SAMPLE_SIZE, walks=12):
    """A seeded sample of the states along random walks to a deadlock (or
    64 steps on a cyclic graph): shallow and deep states alike."""
    rng = random.Random(seed)
    seen = {graph.initial: None}
    for _ in range(walks):
        state = graph.initial
        for _ in range(64):
            enabled = graph.enabled(state)
            if not enabled:
                break
            state = graph.successor(state, rng.choice(enabled))
            seen.setdefault(state)
    return rng.sample(list(seen), min(size, len(seen)))


class NameBasedReference:
    """The closure the provider used before it ran on masks: transition
    names, a deque, ``Network.pending_for`` — kept verbatim as the oracle."""

    def __init__(self, protocol, use_net):
        self.dependence = DependenceRelation.precompute(protocol)
        self.use_net = use_net
        self.specs = {t.name: t for t in protocol.transitions}

    def coarse_disabled_additions(self, name):
        return (self.dependence.interferes_with(name)
                + self.dependence.coarse_enablers_of(name))

    def necessary_enabling_set(self, state, spec):
        if not self.use_net:
            return self.coarse_disabled_additions(spec.name)
        pending = state.network.pending_for(spec.process_id, mtype=spec.message_type)
        allowed = spec.effective_senders()
        if allowed is not None:
            pending = tuple(m for m in pending if m.sender in allowed)
        pending_senders = frozenset(m.sender for m in pending)
        if len(pending_senders) >= spec.quorum.size:
            return self.coarse_disabled_additions(spec.name)
        if allowed is not None:
            return self.dependence.enablers_from(
                spec.name, sorted(allowed - pending_senders))
        return self.dependence.necessary_enablers_of(spec.name)

    def closure(self, state, seed_name, enabled_names):
        closure = {seed_name}
        queue = deque([seed_name])
        while queue:
            name = queue.popleft()
            if name in enabled_names:
                additions = self.dependence.interferes_with(name)
            else:
                additions = self.necessary_enabling_set(state, self.specs[name])
            for addition in additions:
                if addition not in closure:
                    closure.add(addition)
                    queue.append(addition)
        return frozenset(closure)


@pytest.mark.parametrize("build", CELLS)
@pytest.mark.parametrize("use_net", [True, False], ids=["net", "coarse"])
def test_stubborn_set_equals_the_name_based_closure(build, use_net):
    protocol = build()
    provider = StubbornSetProvider(protocol, use_net=use_net)
    reference = NameBasedReference(protocol, use_net)
    compared = 0
    for state in sample_states(ObjectGraph(protocol)):
        enabled_names = frozenset(
            e.transition.name for e in enabled_executions(state, protocol))
        for seed in sorted(enabled_names):
            assert (provider.stubborn_names(state, seed, enabled_names)
                    == reference.closure(state, seed, enabled_names)), seed
            compared += 1
    assert compared > SAMPLE_SIZE  # the sample is not all deadlocks


@pytest.mark.parametrize("build", CELLS)
def test_object_and_packed_graphs_answer_the_reducer_alike(build):
    protocol = build()
    objects, packed = ObjectGraph(protocol), PackedGraph(protocol)
    reducers = [
        graph.make_reduce(StubbornSetProvider(protocol).reduce, set())
        for graph in (objects, packed)
    ]
    strict = 0
    for state in sample_states(objects):
        words = packed.encode(state)
        for index in range(len(protocol.transitions)):
            assert (objects.pending_senders(state, index)
                    == packed.pending_senders(words, index)), index
        enabled, packed_enabled = objects.enabled(state), packed.enabled(words)
        assert (list(map(objects.transition_index, enabled))
                == list(map(packed.transition_index, packed_enabled)))
        if len(enabled) <= 1:
            continue
        kept = [
            [executions.index(execution) for execution in reduce(cursor, executions, {})]
            for reduce, cursor, executions in zip(
                reducers, (state, words), (enabled, packed_enabled))
        ]
        assert kept[0] == kept[1]
        strict += len(kept[0]) < len(enabled)
    assert strict  # some sampled state was really reduced


def test_a_context_without_a_graph_is_an_object_state_context():
    from repro.checker.search import ReductionContext

    protocol = paxos_entry(2, 2, 1).quorum_model()
    objects = ObjectGraph(protocol)
    with_graph, without = (StubbornSetProvider(protocol) for _ in range(2))
    for state in sample_states(objects):
        enabled = objects.enabled(state)
        fields = dict(
            state=state, enabled=enabled, protocol=protocol,
            successor=lambda execution, state=state: objects.successor(state, execution),
            on_stack=lambda candidate: False, engine=objects.engine,
        )
        assert (without.reduce(ReductionContext(**fields))
                == with_graph.reduce(ReductionContext(graph=objects, **fields)))


class CountingEngine(FastSuccessorEngine):
    """Counts ``decode`` calls (the class is slotted: subclass, don't patch)."""

    __slots__ = ("decodes",)

    def __init__(self, protocol):
        super().__init__(protocol)
        self.decodes = 0

    def decode(self, packed):
        self.decodes += 1
        return super().decode(packed)


@pytest.mark.parametrize("entry", [
    pytest.param(paxos_entry(2, 2, 1), id="paxos-2-2-1"),
    pytest.param(paxos_entry(2, 3, 1, faulty=True), id="faulty-paxos-2-3-1-ce"),
])
def test_reduced_packed_search_decodes_only_for_memo_misses_and_the_counterexample(entry):
    protocol = entry.quorum_model()
    locals_seen = set()

    def predicate(state, protocol):
        locals_seen.add(state.locals)
        return entry.invariant.predicate(state, protocol)

    invariant = Invariant(entry.invariant.name, predicate, network_sensitive=False)
    engine = CountingEngine(protocol)
    outcome = fast_dfs_search(
        protocol, invariant, CheckPlan(successors="fast"),
        reducer=make_reducer(protocol, CheckPlan(reduction="spor-net")),
        engine=engine,
    )
    assert outcome.statistics.reduced_expansions > 0
    assert outcome.verified is not entry.expect_violation
    steps = len(outcome.counterexample.steps) if outcome.counterexample else 0
    assert engine.decodes <= len(locals_seen) + steps + 1
    assert engine.decodes < outcome.statistics.states_visited


def test_custom_reducer_on_the_packed_graph_gets_packed_states_and_the_graph():
    protocol = paxos_entry(2, 2, 1).quorum_model()
    contexts = []

    def first_transition_only(context):
        contexts.append(context)
        return context.enabled[:1]

    fast_dfs_search(protocol, paxos_entry(2, 2, 1).invariant,
                    CheckPlan(max_states=200), reducer=first_transition_only)
    assert contexts
    for context in contexts:
        graph = context.graph
        assert isinstance(graph, PackedGraph)
        assert not isinstance(context.state, GlobalState)
        state = graph.decode(context.state)
        assert isinstance(state, GlobalState)
        assert state.fingerprint() == graph.fingerprint(context.state)
        assert (tuple(map(graph.execution_of, context.enabled))
                == enabled_executions(state, protocol))
        first = context.enabled[0]
        assert (graph.decode(context.successor(first))
                == apply_execution(state, graph.execution_of(first)))
