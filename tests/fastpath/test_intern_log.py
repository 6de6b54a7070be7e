"""Packed states are portable across forked processes — pinned, not assumed.

``FastSuccessorEngine.share()`` attaches an :class:`InternLog`; from then on
every process forked from the sharer hands out local-state and message ids
in log order.  These tests fork real processes and check the consequences:
identical tables whatever the interning order, a packed state built in one
process meaning the same state in another, a late fork catching up on its
first ``sync()``, and an uncommitted record staying invisible.
"""

from __future__ import annotations

import copy
import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker.search import run_bfs
from repro.engine import CheckPlan
from repro.checker.stategraph import PackedGraph
from repro.checker.property import always_true
from repro.fastpath.compiler import FastSuccessorEngine, InternLog
from repro.mp.semantics import SuccessorEngine
from repro.protocols.catalog import storage_entry

from ..conftest import build_ping_pong, build_vote_collection

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the intern log is shared through fork",
)

FORK = multiprocessing.get_context("fork")
TIMEOUT = 30.0


def tables(engine):
    """Everything interning grows, in id order."""
    return (
        list(engine._locals),
        list(engine._msgs),
        list(engine._consumers),
        [list(transition.candidate_flags) for transition in engine._transitions],
    )


def spawn(target, *args):
    """Run ``target(*args, send)`` in a forked child; ``(process, receive)``."""
    receive, send = FORK.Pipe(duplex=False)
    process = FORK.Process(target=target, args=args + (send,), daemon=True)
    process.start()
    send.close()
    return process, receive


def result_of(process, receive):
    assert receive.poll(TIMEOUT), "child sent nothing"
    value = receive.recv()
    process.join(TIMEOUT)
    assert not process.is_alive()
    assert process.exitcode == 0
    return value


def walk(engine, choices):
    packed = engine.initial_packed()
    for choice in choices:
        enabled = engine.enabled_packed(packed)
        if not enabled:
            break
        packed = engine.successor_packed(packed, enabled[choice % len(enabled)])
    return packed


def object_walk(protocol, choices):
    engine = SuccessorEngine.for_search(protocol, stateful=True)
    state = engine.initial_state()
    for choice in choices:
        enabled = engine.enabled(state)
        if not enabled:
            break
        state = engine.successor(state, enabled[choice % len(enabled)])
    return state


@pytest.fixture(scope="module")
def protocol():
    return storage_entry(3, 1).single_model()


@pytest.fixture(scope="module")
def contents(protocol):
    """Every local state and message the cell's search interns."""
    graph = PackedGraph(protocol)
    run_bfs(graph, always_true(), CheckPlan(), None, None)
    return list(graph.engine._locals), list(graph.engine._msgs)


def shared_engine(protocol):
    engine = FastSuccessorEngine(protocol)
    engine.initial_packed()
    engine.share()
    return engine


def _intern_then_report(engine, locals_, messages, barrier, send):
    for index in range(max(len(locals_), len(messages))):
        if index < len(locals_):
            engine._intern_local(locals_[index])
        if index < len(messages):
            engine._intern_message(messages[index])
    if barrier is not None:
        barrier.wait(TIMEOUT)
    engine.sync()
    send.send(tables(engine))


class TestTwoProcesses:
    def test_opposite_orders_end_with_identical_tables(self, protocol, contents):
        locals_, messages = contents
        engine = shared_engine(protocol)
        base_locals, base_messages = len(engine._locals), len(engine._msgs)
        assert base_locals < len(locals_) and base_messages < len(messages)
        # Disjoint halves plus an overlap both sides intern.
        a_locals = locals_[0::2] + locals_[0::3]
        b_locals = locals_[1::2] + locals_[0::3]
        a_messages = messages[0::2] + messages[0::3]
        b_messages = messages[1::2] + messages[0::3]
        barrier = FORK.Barrier(2)
        first = spawn(_intern_then_report, engine, a_locals, a_messages, barrier)
        second = spawn(_intern_then_report, engine, b_locals[::-1],
                       b_messages[::-1], barrier)
        seen_first, seen_second = result_of(*first), result_of(*second)
        assert seen_first == seen_second
        # The sharer interned nothing itself and catches up the same way.
        assert len(engine._locals) == base_locals
        engine.sync()
        assert tables(engine) == seen_first
        assert set(engine._locals) == set(locals_)
        assert set(engine._msgs) == set(messages)
        assert len(engine._locals) == len(locals_)
        assert len(engine._msgs) == len(messages)
        assert all(engine._local_ids[local] == index
                   for index, local in enumerate(engine._locals))
        assert all(engine._msg_ids[message] == index
                   for index, message in enumerate(engine._msgs))

    def test_packed_state_means_the_same_state_elsewhere(self, protocol):
        engine = shared_engine(protocol)
        base = (len(engine._locals), len(engine._msgs))
        choices = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]

        def build(send):
            send.send(walk(engine, choices))

        def read(packed, send):
            assert (len(engine._locals), len(engine._msgs)) == base
            engine.sync()
            state = engine.decode(packed)
            send.send((state, state.fingerprint(), engine.encode(state)))

        packed = result_of(*spawn(build))
        count = engine.num_processes
        assert (max(packed[0][:count]) >= base[0]
                or max(word >> 32 for word in packed[0][count:]) >= base[1]), \
            "the walk interned nothing new: the test would be vacuous"
        state, fingerprint, again = result_of(*spawn(read, packed))
        reference = object_walk(protocol, choices)
        assert state == reference
        assert fingerprint == reference.fingerprint() == packed[3]
        assert again == packed

    def test_late_fork_catches_up_on_first_sync(self, protocol, contents):
        locals_, messages = contents
        engine = shared_engine(protocol)
        base = tables(engine)
        early = result_of(*spawn(_intern_then_report, engine, locals_, messages,
                                 None))
        assert tables(engine) == base  # the sharer has not looked yet

        def replacement(send):
            before = tables(engine)
            engine.sync()
            send.send((before, tables(engine)))

        before, after = result_of(*spawn(replacement))
        assert before == base
        assert after == early


class TestInternLog:
    def test_uncommitted_record_is_not_read(self):
        log = InternLog()
        reader = copy.copy(log)  # same file, its own replay position
        with log:
            log.append(False, "first")
        # A writer that died mid-append: bytes past the committed length,
        # the length itself never moved.
        torn = log.committed()
        os.pwrite(log._fd, b"\xff" * 64, torn)
        assert log.committed() == torn
        with reader:
            assert reader.unread() == [(False, "first")]
            assert reader.unread() == []
        # The next writer overwrites the torn bytes.
        with log:
            assert log.unread() == []
            log.append(True, "second")
        with reader:
            assert reader.unread() == [(True, "second")]

    def test_unshared_engine_has_no_log(self, protocol):
        engine = FastSuccessorEngine(protocol)
        engine.initial_packed()
        assert engine._log is None
        engine.sync()  # nothing to catch up with
        engine.share()
        log = engine._log
        engine.share()
        assert engine._log is log


TOYS = {
    "ping-pong-2": build_ping_pong(rounds=2),
    "ping-pong-3": build_ping_pong(rounds=3),
    "votes-3-2": build_vote_collection(voters=3, quorum=2),
    "votes-4-3": build_vote_collection(voters=4, quorum=3),
}
walks = st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=10)


def _walk_then_report(engine, choices, barrier, send):
    packed = walk(engine, choices)
    barrier.wait(TIMEOUT)
    engine.sync()
    send.send((packed, tables(engine)))


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(TOYS)), first=walks, second=walks)
def test_concurrent_walks_agree_on_every_id(name, first, second):
    protocol = TOYS[name]
    engine = shared_engine(protocol)
    barrier = FORK.Barrier(2)
    children = [spawn(_walk_then_report, engine, choices, barrier)
                for choices in (first, second)]
    (packed_a, tables_a), (packed_b, tables_b) = (
        result_of(*child) for child in children)
    assert tables_a == tables_b
    engine.sync()
    assert tables(engine) == tables_a
    for packed, choices in ((packed_a, first), (packed_b, second)):
        reference = object_walk(protocol, choices)
        assert engine.decode(packed) == reference
        assert packed[3] == reference.fingerprint()
