#!/usr/bin/env python3
"""Transition refinement: quorum-split and reply-split in action.

The script demonstrates the paper's Section III on a Paxos instance:

1. list which transitions each refinement strategy would split;
2. validate, by exhaustive enumeration, that the refined models generate the
   *same state graph* as the original (Definition 1 / Theorem 2);
3. compare the state counts explored by the static POR on the unsplit,
   reply-split, quorum-split and combined-split models (Table II in
   miniature).

Run with::

    python examples/transition_refinement.py
"""

from __future__ import annotations

from repro import (
    CheckPlan,
    PaxosConfig,
    build_paxos_quorum,
    consensus_invariant,
    run_plan,
)
from repro.refine import (
    combined_split,
    compare_state_graphs,
    describe_split_opportunities,
    quorum_split,
    reply_split,
)


def validate_equivalence(original) -> None:
    """Check Definition 1 by enumeration on a small instance."""
    small = build_paxos_quorum(PaxosConfig(1, 3, 1))
    print("state-graph equivalence (Theorem 2), Paxos (1,3,1):")
    for label, split in (("reply-split", reply_split),
                         ("quorum-split", quorum_split),
                         ("combined-split", combined_split)):
        report = compare_state_graphs(small, split(small), max_states=100_000)
        print(f"  {label:15s}: equivalent={report.equivalent} "
              f"({report.original_states} states, {report.original_edges} edges)")
    print()


def compare_reductions(original) -> None:
    """Table II in miniature: SPOR on the unsplit and refined models."""
    invariant = consensus_invariant()
    print(f"static POR on {original.name}:")
    rows = (
        ("unsplit", original),
        ("reply-split", reply_split(original)),
        ("quorum-split", quorum_split(original)),
        ("combined-split", combined_split(original)),
    )
    for label, protocol in rows:
        result = run_plan(protocol, invariant, CheckPlan(reduction="spor-net"))
        print(f"  {label:15s}: {result.statistics.states_visited:6d} states, "
              f"{len(protocol.transitions):3d} transitions in the model, "
              f"{result.statistics.elapsed_seconds:5.2f}s, "
              f"{result.outcome_label()}")
    print()


def main() -> None:
    original = build_paxos_quorum(PaxosConfig(2, 3, 1))
    print("=" * 72)
    print("Transition refinement on Paxos")
    print("=" * 72)
    print(describe_split_opportunities(original))
    print()
    validate_equivalence(original)
    compare_reductions(original)


if __name__ == "__main__":
    main()
