"""Pickling of global states and networks across process boundaries.

The parallel search ships states between workers; the compact ``__reduce__``
of :class:`GlobalState` must preserve value equality and the fingerprint
(within one hash seed), rebuild the shared-index invariant, and keep the
network canonical.  The writer's canonical order counts only for a reader
of its lineage (itself or a ``fork`` sibling); hashes never travel.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

from repro.mp.channel import Network
from repro.mp.message import Message
from repro.mp.semantics import enabled_executions, apply_execution
from repro.mp.state import GlobalState


def reachable_sample(protocol, depth=3):
    """A few states reachable within ``depth`` steps (deterministic order)."""
    states = [protocol.initial_state()]
    frontier = list(states)
    for _ in range(depth):
        next_frontier = []
        for state in frontier:
            for execution in enabled_executions(state, protocol):
                next_frontier.append(apply_execution(state, execution))
        states.extend(next_frontier)
        frontier = next_frontier
    return states


class TestGlobalStatePickle:
    def test_round_trip_preserves_value_and_fingerprint(self, ping_pong_two_rounds):
        for state in reachable_sample(ping_pong_two_rounds):
            restored = pickle.loads(pickle.dumps(state))
            assert restored == state
            assert hash(restored) == hash(state)
            assert restored.fingerprint() == state.fingerprint()
            assert restored.locals == state.locals
            assert restored.network == state.network

    def test_quorum_protocol_states_round_trip(self, vote_collection):
        for state in reachable_sample(vote_collection, depth=2):
            restored = pickle.loads(pickle.dumps(state))
            assert restored == state
            assert restored.fingerprint() == state.fingerprint()

    def test_unpickled_states_share_one_index(self, ping_pong_two_rounds):
        states = reachable_sample(ping_pong_two_rounds, depth=2)
        restored = [pickle.loads(pickle.dumps(state)) for state in states]
        indices = {id(state._index) for state in restored}
        assert len(indices) == 1

    def test_restored_state_supports_functional_updates(self, ping_pong):
        state = pickle.loads(pickle.dumps(ping_pong.initial_state()))
        for execution in enabled_executions(state, ping_pong):
            successor = apply_execution(state, execution)
            rebuilt = pickle.loads(pickle.dumps(successor))
            assert rebuilt == successor
            assert rebuilt.fingerprint() == successor.fingerprint()

    def test_payload_is_compact(self, vote_collection):
        # The shared index and cached hashes must not be serialized; a state
        # should cost well under a kilobyte for these small protocols.
        blob = pickle.dumps(vote_collection.initial_state())
        assert len(blob) < 1024

    def test_another_lineage_gets_its_own_canonical_order(self, vote_collection):
        # A writer of another lineage sorted under a hash seed that means
        # nothing here: its order may not survive the restore.
        from repro.mp.state import _restore_state

        for state in reachable_sample(vote_collection, depth=2):
            backwards = tuple(reversed(state.network.items))
            restored = _restore_state(state.locals, backwards, b"elsewhere")
            assert restored == state
            assert hash(restored) == hash(state)
            assert restored.network.items == state.network.items

    def test_state_written_under_another_hash_seed(self):
        # Nothing hash-dependent may come from the writer: what the reader
        # builds equals, hash for hash, the state it would have built itself.
        script = (
            "import pickle, sys\n"
            "from repro.mp.channel import Network\n"
            "from repro.mp.message import Message\n"
            "from repro.mp.state import GlobalState\n"
            "state = GlobalState([('p', ('idle', None)), ('q', 'busy')],\n"
            "    Network.of([Message.make('B', 'q', 'p', k=frozenset('ab')),\n"
            "                Message.make('A', 'p', 'q')]))\n"
            "sys.stdout.write(pickle.dumps(state).hex())\n"
        )
        source = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        written = subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            text=True, env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source),
        ).stdout
        restored = pickle.loads(bytes.fromhex(written))
        here = GlobalState(
            [("p", ("idle", None)), ("q", "busy")],
            Network.of([Message.make("B", "q", "p", k=frozenset("ab")),
                        Message.make("A", "p", "q")]),
        )
        assert restored == here
        assert hash(restored) == hash(here)
        assert restored.network.items == here.network.items


class TestNetworkPickle:
    def test_round_trip_preserves_multiset(self):
        network = Network.of(
            [
                Message.make("A", "p1", "p2", k=1),
                Message.make("A", "p1", "p2", k=1),
                Message.make("B", "p2", "p1"),
            ]
        )
        restored = pickle.loads(pickle.dumps(network))
        assert restored == network
        assert hash(restored) == hash(network)
        assert restored.items == network.items
        assert len(restored) == 3

    def test_empty_network(self):
        restored = pickle.loads(pickle.dumps(Network.empty()))
        assert restored == Network.empty()
        assert not restored
