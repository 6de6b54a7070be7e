#!/usr/bin/env python3
"""Regular storage: a correct property and a deliberately wrong one.

The single-writer regular register over three crash-prone base objects is
checked against:

* **regularity** — a completed read returns either the initial value or the
  written value, and a read that started after the write completed returns
  the written value.  This holds and is verified exhaustively.
* **wrong regularity** — the deliberately too-strong specification from the
  paper's evaluation: a read that *completes* after the write completed must
  return the written value even when the two operations overlap.  The model
  checker refutes it and the counterexample shows the overlapping schedule.

Run with::

    python examples/storage_regularity.py
"""

from __future__ import annotations

from repro import (
    CheckPlan,
    StorageConfig,
    build_storage_quorum,
    regularity_invariant,
    run_plan,
    wrong_regularity_invariant,
)


def main() -> None:
    config = StorageConfig(base_objects=3, readers=1)
    protocol = build_storage_quorum(config)

    print(f"Regular storage {config.setting_label}: one writer, "
          f"{config.base_objects} base objects, {config.readers} reader")
    print("-" * 72)

    plan = CheckPlan(reduction="spor-net")
    verified = run_plan(protocol, regularity_invariant(), plan)
    print(f"regularity:        {verified.outcome_label()} — "
          f"{verified.statistics.states_visited} states, "
          f"{verified.statistics.elapsed_seconds:.2f}s")

    refuted = run_plan(protocol, wrong_regularity_invariant(), plan)
    print(f"wrong regularity:  {refuted.outcome_label()} — "
          f"{refuted.statistics.states_visited} states, "
          f"{refuted.statistics.elapsed_seconds:.2f}s")
    print()

    counterexample = refuted.counterexample
    reader = counterexample.violating_state.local("reader1")
    writer = counterexample.violating_state.local("writer")
    print("why the stronger specification is wrong:")
    print(f"  the read overlapped the write, returned {reader.returned!r} "
          f"(the old value), and by the time it completed the write had "
          f"finished (writer phase = {writer.phase!r}).")
    print("  regularity allows this; the wrong specification does not.")
    print()
    print("overlapping schedule found by the model checker:")
    for index, name in enumerate(counterexample.transition_names(), start=1):
        print(f"  {index:2d}. {name}")


if __name__ == "__main__":
    main()
