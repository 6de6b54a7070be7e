#!/usr/bin/env python3
"""Paxos: quorum transitions vs single-message transitions (Table I in miniature).

The script builds both models of Paxos (2,3,1) — the paper's Table I setting
— and compares the state-space size and verification time of:

* the single-message ("no quorum") model under static POR, and
* the quorum-transition model under static POR,

then repeats the comparison for the fault-injected variant to show how
quickly the consensus violation is found in each model.

Run with::

    python examples/paxos_consensus.py
"""

from __future__ import annotations

from repro import (
    CheckPlan,
    PaxosConfig,
    build_faulty_paxos_quorum,
    build_faulty_paxos_single,
    build_paxos_quorum,
    build_paxos_single,
    consensus_invariant,
    run_plan,
)
from repro.analysis import EvaluationTable, compare_results


def check(protocol, invariant):
    return run_plan(protocol, invariant, CheckPlan(reduction="spor-net"))


def main() -> None:
    config = PaxosConfig(proposers=2, acceptors=3, learners=1)
    invariant = consensus_invariant()

    print(f"Paxos {config.setting_label}: consensus under static POR")
    print("-" * 72)

    single_result = check(build_paxos_single(config), invariant)
    quorum_result = check(build_paxos_quorum(config), invariant)

    table = EvaluationTable(
        title=f"Paxos {config.setting_label} — consensus",
        columns=["No quorum (SPOR)", "Quorum (SPOR)"],
    )
    row = table.new_row(f"Paxos {config.setting_label}", "consensus", "Verified")
    row.add_result("No quorum (SPOR)", single_result)
    row.add_result("Quorum (SPOR)", quorum_result)
    print(table.render())
    print()
    comparison = compare_results(
        single_result, quorum_result,
        baseline_label="single-message model", improved_label="quorum model",
    )
    print(comparison.summary())
    print()

    print("Fast debugging: Faulty Paxos (learners do not compare proposals)")
    print("-" * 72)
    faulty_single = check(build_faulty_paxos_single(config), invariant)
    faulty_quorum = check(build_faulty_paxos_quorum(config), invariant)
    for label, result in (("single-message", faulty_single), ("quorum", faulty_quorum)):
        print(
            f"  {label:15s}: {result.outcome_label()} after "
            f"{result.statistics.states_visited} states "
            f"({result.statistics.elapsed_seconds:.2f}s), "
            f"counterexample length {result.counterexample.length}"
        )

    learned = faulty_quorum.counterexample.violating_state.local("learner1").learned
    print(f"\n  learned values in the violating state: {sorted(learned)}")


if __name__ == "__main__":
    main()
