"""Ablation — stateful vs stateless search ("behind the numbers", Section V-B).

The paper observes that the benefit of stateful over stateless search
becomes significant only once the state space is large, while on small
instances stateless search can be competitive because it pays no
state-comparison overhead and revisits few states.  This ablation measures
both modes (unreduced and with static POR) on a small and a medium workload
and records the visited-state counts.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine import CheckPlan, run_plan
from repro.protocols.catalog import multicast_entry, paxos_entry, storage_entry

from .conftest import SPOR_NET

TABLE = "Ablation — stateful vs stateless search"
COLUMNS = (
    "Stateful unreduced",
    "Stateless unreduced",
    "Stateful SPOR-NET",
    "Stateless SPOR-NET",
)

ENTRIES = (
    multicast_entry(3, 0, 1, 1),
    paxos_entry(1, 3, 1),
    storage_entry(2, 1),
)
ENTRY_IDS = [entry.key for entry in ENTRIES]

MODES = {
    "Stateful unreduced": CheckPlan(),
    "Stateless unreduced": CheckPlan(stateful=False),
    "Stateful SPOR-NET": SPOR_NET,
    "Stateless SPOR-NET": replace(SPOR_NET, stateful=False),
}

#: Budget of every ablation cell (stateless searches re-explore).
BUDGET = {"max_states": 500_000, "max_seconds": 60}


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_statefulness_cell(benchmark, table_registry, entry, mode):
    """One cell: one statefulness/reduction combination on one workload."""
    plan = replace(MODES[mode], **BUDGET)
    protocol = entry.quorum_model()

    def cell():
        return run_plan(protocol, entry.invariant, plan)

    result = benchmark.pedantic(cell, rounds=1, iterations=1)
    benchmark.extra_info["states"] = result.statistics.states_visited
    benchmark.extra_info["revisits"] = result.statistics.revisits
    table_registry.declare_table(TABLE, COLUMNS)
    table_registry.record(TABLE, entry.description, mode, result, entry.invariant.name)
    assert result.verified == (not entry.expect_violation)


@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_stateless_never_visits_fewer_states(benchmark, entry):
    """Stateless search re-explores states, so it can only visit more of them."""
    protocol = entry.quorum_model()

    def both():
        stateful = run_plan(protocol, entry.invariant, SPOR_NET)
        stateless = run_plan(protocol, entry.invariant,
                             replace(SPOR_NET, stateful=False, **BUDGET))
        return stateful, stateless

    stateful, stateless = benchmark.pedantic(both, rounds=1, iterations=1)
    benchmark.extra_info["stateful_states"] = stateful.statistics.states_visited
    benchmark.extra_info["stateless_states"] = stateless.statistics.states_visited
    assert (
        stateless.statistics.states_visited
        >= stateful.statistics.states_visited
    )
