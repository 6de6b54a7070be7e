"""Ablation — seed-transition heuristics (Section V-B discussion).

The paper reports that its hand-tuned "opposite transaction" heuristic (seed
the stubborn set with transitions that start, rather than finish, a protocol
instance) performed well, while the transaction heuristic of [5] "resulted
in very little reduction".  This ablation runs the static POR with the
available heuristics on the Paxos and storage settings and records the state
counts side by side.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine import run_plan
from repro.protocols.catalog import paxos_entry, storage_entry

from .conftest import BENCH_SCALE, SPOR_NET

TABLE = "Ablation — seed-transition heuristics (SPOR-NET)"
HEURISTICS = ("opposite-transaction", "transaction", "first")


def ablation_entries():
    if BENCH_SCALE == "small":
        return (paxos_entry(2, 2, 1), storage_entry(2, 1))
    return (paxos_entry(2, 3, 1), storage_entry(3, 1))


ENTRIES = ablation_entries()
ENTRY_IDS = [entry.key for entry in ENTRIES]


@pytest.mark.parametrize("heuristic", HEURISTICS)
@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_seed_heuristic_cell(benchmark, table_registry, entry, heuristic):
    """One cell: a seed heuristic applied to one quorum-model workload."""
    protocol = entry.quorum_model()

    def cell():
        return run_plan(protocol, entry.invariant,
                        replace(SPOR_NET, seed_heuristic=heuristic))

    result = benchmark.pedantic(cell, rounds=1, iterations=1)
    benchmark.extra_info["states"] = result.statistics.states_visited
    table_registry.declare_table(TABLE, HEURISTICS)
    table_registry.record(TABLE, entry.description, heuristic, result, entry.invariant.name)
    # Heuristics only change the amount of reduction, never the verdict.
    assert result.verified == (not entry.expect_violation)


@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_opposite_transaction_is_no_worse_than_transaction(benchmark, entry):
    """The paper's heuristic should not lose to the transaction heuristic."""
    protocol = entry.quorum_model()

    def both():
        opposite = run_plan(protocol, entry.invariant, SPOR_NET)
        transaction = run_plan(protocol, entry.invariant,
                               replace(SPOR_NET, seed_heuristic="transaction"))
        return opposite, transaction

    opposite, transaction = benchmark.pedantic(both, rounds=1, iterations=1)
    benchmark.extra_info["opposite_states"] = opposite.statistics.states_visited
    benchmark.extra_info["transaction_states"] = transaction.statistics.states_visited
    assert (
        opposite.statistics.states_visited
        <= transaction.statistics.states_visited * 1.5
    )
