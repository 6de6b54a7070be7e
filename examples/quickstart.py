#!/usr/bin/env python3
"""Quickstart: model check Paxos consensus with quorum transitions.

This example builds the smallest meaningful Paxos instance (one proposer,
three acceptors, one learner), checks the consensus invariant under the
static partial-order reduction, and then injects the paper's "Faulty Paxos"
bug to show how a counterexample is reported.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    CheckPlan,
    PaxosConfig,
    build_faulty_paxos_quorum,
    build_paxos_quorum,
    consensus_invariant,
    run_plan,
)


def verify_correct_paxos() -> None:
    """Exhaustively verify consensus for Paxos (1,3,1) and print statistics."""
    config = PaxosConfig(proposers=1, acceptors=3, learners=1)
    protocol = build_paxos_quorum(config)
    print(protocol.describe())
    print()

    # A run is a CheckPlan: search shape x reduction (x store x backend x
    # workers); plan resolution picks the engine.
    for plan in (CheckPlan(), CheckPlan(reduction="spor-net")):
        result = run_plan(protocol, consensus_invariant(), plan)
        print(
            f"  {result.strategy:10s}: {result.outcome_label():9s}"
            f"  {result.statistics.states_visited:6d} states"
            f"  {result.statistics.transitions_executed:6d} transitions"
            f"  {result.statistics.elapsed_seconds:6.2f}s  [{result.engine}]"
        )
    print()


def debug_faulty_paxos() -> None:
    """Find the consensus violation injected into the learners."""
    config = PaxosConfig(proposers=2, acceptors=3, learners=1)
    protocol = build_faulty_paxos_quorum(config)
    result = run_plan(protocol, consensus_invariant(), CheckPlan(reduction="spor-net"))

    print(f"faulty paxos {config.setting_label}: {result.outcome_label()} "
          f"after {result.statistics.states_visited} states")
    assert result.counterexample is not None
    print()
    print("shortest prefix of the violating schedule:")
    for index, name in enumerate(result.counterexample.transition_names(), start=1):
        print(f"  {index:2d}. {name}")
    learned = result.counterexample.violating_state.local("learner1").learned
    print(f"\nthe learner ends up believing two different values: {sorted(learned)}")


def main() -> None:
    print("=" * 72)
    print("Quickstart: Paxos under MP-Kit")
    print("=" * 72)
    verify_correct_paxos()
    debug_faulty_paxos()


if __name__ == "__main__":
    main()
