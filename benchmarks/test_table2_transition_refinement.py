"""Table II — transition refinement in action.

For every protocol setting of the paper's Table II, this module regenerates
the four columns of the static-POR experiment on quorum models: unsplit,
reply-split, quorum-split and combined-split.  As in the paper, dynamic POR
is excluded (the refined transitions of one process are inter-dependent, so
refinement cannot help a per-process DPOR).

The reproduced claims are the orderings: refinement never changes the
verdict (Theorem 1), reply-split and combined-split explore no more states
than the unsplit model, and the counterexample rows stay cheap.

Quorum-split does not shrink the search here, and the reason is a known
soundness hole, not a better baseline: the stubborn-set closure treats an
enabled unsplit quorum transition as one deterministic event, so the unsplit
model gets independence from later senders that it is not entitled to (a
further candidate message gives the transition a new execution).  That
independence is exactly what quorum-split exists to make sound, so the split
column pays for soundness the unsplit column skips.  ROADMAP item 1 has the
reproduction and the repair; ``tests/por/test_soundness_toys.py`` pins the
toy protocols that expose it.
"""

from __future__ import annotations

import pytest

from repro.engine import run_plan
from repro.protocols.catalog import CatalogEntry, multicast_entry, paxos_entry, storage_entry
from repro.refine import combined_split, quorum_split, reply_split

from .conftest import BENCH_SCALE, SPOR_NET

TABLE = "Table II — transition refinement"
COLUMNS = ("Unsplit", "Reply-split", "Quorum-split", "Combined-split")

SPLITS = {
    "Unsplit": lambda protocol: protocol,
    "Reply-split": reply_split,
    "Quorum-split": quorum_split,
    "Combined-split": combined_split,
}


def table2_entries() -> tuple:
    """The paper's Table II rows (scaled down when REPRO_BENCH_SCALE=small)."""
    if BENCH_SCALE == "small":
        return (
            paxos_entry(2, 2, 1),
            paxos_entry(2, 3, 1, faulty=True),
            multicast_entry(3, 0, 1, 1),
            multicast_entry(2, 1, 0, 1),
            multicast_entry(2, 1, 2, 1),
            storage_entry(2, 1),
            storage_entry(2, 1, wrong_specification=True),
        )
    return (
        paxos_entry(2, 3, 1),
        paxos_entry(2, 3, 1, faulty=True),
        multicast_entry(3, 0, 1, 1),
        multicast_entry(2, 1, 0, 1),
        multicast_entry(3, 1, 1, 1),
        multicast_entry(2, 1, 2, 1),
        storage_entry(3, 1),
        storage_entry(3, 2, wrong_specification=True),
    )


ENTRIES = table2_entries()
ENTRY_IDS = [entry.key for entry in ENTRIES]


def record(table_registry, entry: CatalogEntry, column: str, result) -> None:
    table_registry.declare_table(TABLE, COLUMNS)
    table_registry.record(TABLE, entry.description, column, result, entry.invariant.name)


@pytest.mark.parametrize("column", COLUMNS)
@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_refinement_cell(benchmark, table_registry, entry, column):
    """One cell of Table II: a split strategy applied to one protocol setting."""
    protocol = SPLITS[column](entry.quorum_model())

    def cell():
        return run_plan(protocol, entry.invariant, SPOR_NET)

    result = benchmark.pedantic(cell, rounds=1, iterations=1)
    benchmark.extra_info["states"] = result.statistics.states_visited
    benchmark.extra_info["outcome"] = result.outcome_label()
    benchmark.extra_info["transitions_in_model"] = len(protocol.transitions)
    record(table_registry, entry, column, result)
    # Theorem 1: refinement never changes the verdict.
    assert result.verified == (not entry.expect_violation)


@pytest.mark.parametrize(
    "entry",
    [e for e in ENTRIES if not e.expect_violation],
    ids=[e.key for e in ENTRIES if not e.expect_violation],
)
def test_reply_split_explores_no_more_states(benchmark, table_registry, entry):
    """Reply-split (and hence combined-split) never hurts on the verified rows."""

    def both():
        unsplit = run_plan(entry.quorum_model(), entry.invariant, SPOR_NET)
        split = run_plan(reply_split(entry.quorum_model()), entry.invariant, SPOR_NET)
        return unsplit, split

    unsplit, split = benchmark.pedantic(both, rounds=1, iterations=1)
    benchmark.extra_info["unsplit_states"] = unsplit.statistics.states_visited
    benchmark.extra_info["reply_split_states"] = split.statistics.states_visited
    assert split.statistics.states_visited <= unsplit.statistics.states_visited
