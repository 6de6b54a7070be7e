"""Table I — quorum semantics results.

For every protocol setting of the paper's Table I, this module regenerates
the three columns:

* ``No quorum (DPOR)`` — the single-message model explored by the stateless
  dynamic POR (Basset's configuration).  The cell is budget-capped exactly
  because, as in the paper, stateless DPOR does not terminate on the larger
  verified instances; capped cells are annotated under the table.
* ``No quorum (SPOR)`` — the single-message model under the static POR.
* ``Quorum (SPOR)`` — the quorum-transition model under the static POR.

The paper's claim reproduced here is the *ordering*: the quorum model needs
no more states (and usually far fewer) than the single-message model, and
both SPOR columns beat the stateless baseline by a wide margin.  Rows whose
paper entry is a counterexample (Faulty Paxos, wrong agreement, wrong
regularity) reproduce the fast-debugging experiment: the bug is found within
a small number of states.
"""

from __future__ import annotations

import pytest

from repro.engine import CheckPlan, run_plan
from repro.protocols.catalog import CatalogEntry, multicast_entry, paxos_entry, storage_entry

from .conftest import BENCH_SCALE, DPOR_MAX_SECONDS, DPOR_MAX_STATES, SPOR_NET

TABLE = "Table I — quorum semantics"
COLUMNS = ("No quorum (DPOR)", "No quorum (SPOR)", "Quorum (SPOR)")

#: Stateless dynamic POR, budget-capped (see the module docstring).
DPOR = CheckPlan(reduction="dpor", max_seconds=DPOR_MAX_SECONDS, max_states=DPOR_MAX_STATES)


def table1_entries() -> tuple:
    """The paper's Table I rows (scaled down when REPRO_BENCH_SCALE=small)."""
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
        multicast_entry(2, 1, 2, 1),
        storage_entry(3, 1),
        storage_entry(3, 2, wrong_specification=True),
    )


ENTRIES = table1_entries()
ENTRY_IDS = [entry.key for entry in ENTRIES]


def record(table_registry, entry: CatalogEntry, column: str, result) -> None:
    table_registry.declare_table(TABLE, COLUMNS)
    table_registry.record(TABLE, entry.description, column, result, entry.invariant.name)


@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_no_quorum_dpor(benchmark, table_registry, entry):
    """Column 1: single-message model, stateless dynamic POR (budget-capped)."""
    protocol = entry.single_model()

    def cell():
        return run_plan(protocol, entry.invariant, DPOR)

    result = benchmark.pedantic(cell, rounds=1, iterations=1)
    benchmark.extra_info["states"] = result.statistics.states_visited
    benchmark.extra_info["outcome"] = result.outcome_label()
    record(table_registry, entry, COLUMNS[0], result)
    if entry.expect_violation and result.complete:
        assert result.found_counterexample


@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_no_quorum_spor(benchmark, table_registry, entry):
    """Column 2: single-message model, static POR."""
    protocol = entry.single_model()

    def cell():
        return run_plan(protocol, entry.invariant, SPOR_NET)

    result = benchmark.pedantic(cell, rounds=1, iterations=1)
    benchmark.extra_info["states"] = result.statistics.states_visited
    benchmark.extra_info["outcome"] = result.outcome_label()
    record(table_registry, entry, COLUMNS[1], result)
    assert result.verified == (not entry.expect_violation)


@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_quorum_spor(benchmark, table_registry, entry):
    """Column 3: quorum-transition model, static POR."""
    protocol = entry.quorum_model()

    def cell():
        return run_plan(protocol, entry.invariant, SPOR_NET)

    result = benchmark.pedantic(cell, rounds=1, iterations=1)
    benchmark.extra_info["states"] = result.statistics.states_visited
    benchmark.extra_info["outcome"] = result.outcome_label()
    record(table_registry, entry, COLUMNS[2], result)
    assert result.verified == (not entry.expect_violation)


@pytest.mark.parametrize(
    "entry",
    [e for e in ENTRIES if not e.expect_violation],
    ids=[e.key for e in ENTRIES if not e.expect_violation],
)
def test_quorum_model_beats_single_message_model(benchmark, table_registry, entry):
    """The headline Table I trend: quorum models explore no more states."""

    def both():
        single = run_plan(entry.single_model(), entry.invariant, SPOR_NET)
        quorum = run_plan(entry.quorum_model(), entry.invariant, SPOR_NET)
        return single, quorum

    single, quorum = benchmark.pedantic(both, rounds=1, iterations=1)
    benchmark.extra_info["single_states"] = single.statistics.states_visited
    benchmark.extra_info["quorum_states"] = quorum.statistics.states_visited
    assert quorum.statistics.states_visited <= single.statistics.states_visited
