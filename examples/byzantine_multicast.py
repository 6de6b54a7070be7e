#!/usr/bin/env python3
"""Echo Multicast under Byzantine attack.

Three scenarios from the paper's evaluation:

1. ``(3,0,1,1)`` — one equivocating Byzantine initiator and one Byzantine
   receiver against three honest receivers: within the fault threshold, so
   agreement is verified (the attacker cannot gather two echo quorums).
2. ``(2,1,0,1)`` — a Byzantine initiator but no Byzantine receiver: the echo
   quorum contains every receiver and agreement again holds.
3. ``(2,1,2,1)`` — two Byzantine receivers exceed the assumed threshold
   (the paper's "wrong agreement" setting): the model checker produces a
   counterexample in which two honest receivers deliver the attacker's two
   conflicting messages.

Run with::

    python examples/byzantine_multicast.py
"""

from __future__ import annotations

from repro import (
    CheckPlan,
    MulticastConfig,
    agreement_invariant,
    build_multicast_quorum,
    run_plan,
)


def run_setting(setting: MulticastConfig) -> None:
    protocol = build_multicast_quorum(setting)
    result = run_plan(protocol, agreement_invariant(), CheckPlan(reduction="spor-net"))

    threshold_note = "EXCEEDS assumed threshold" if setting.exceeds_threshold else "within threshold"
    print(f"Echo Multicast {setting.setting_label} "
          f"(echo quorum {setting.echo_quorum}, f={setting.assumed_faults}, {threshold_note})")
    print(f"  agreement: {result.outcome_label()} — "
          f"{result.statistics.states_visited} states, "
          f"{result.statistics.elapsed_seconds:.2f}s")

    if result.found_counterexample:
        final = result.counterexample.violating_state
        print("  deliveries of the honest receivers in the violating state:")
        for process in protocol.processes_of_type("receiver"):
            delivered = sorted(final.local(process.pid).delivered)
            print(f"    {process.pid}: {delivered}")
        print("  schedule that lets the attacker commit both messages:")
        for index, name in enumerate(result.counterexample.transition_names(), start=1):
            print(f"    {index:2d}. {name}")
    print()


def main() -> None:
    print("=" * 72)
    print("Echo Multicast: agreement despite (bounded) Byzantine faults")
    print("=" * 72)
    for setting in (
        MulticastConfig(3, 0, 1, 1),
        MulticastConfig(2, 1, 0, 1),
        MulticastConfig(2, 1, 2, 1),
    ):
        run_setting(setting)


if __name__ == "__main__":
    main()
