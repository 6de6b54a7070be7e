"""Integration: every search strategy must agree on every bundled workload.

This is the executable soundness argument for the reductions: for each
catalog entry (protocol instance + property + expected outcome), the
unreduced search, both static POR variants and — on the smaller instances —
the dynamic POR must return the same verdict, and that verdict must match
the paper's expectation (Verified or CE).
"""

import pytest

from repro.engine import CheckPlan, run_plan
from repro.protocols.catalog import default_catalog, multicast_entry, paxos_entry, storage_entry

SMALL_ENTRIES = [
    paxos_entry(2, 2, 1),
    paxos_entry(2, 3, 1, faulty=True),
    multicast_entry(3, 0, 1, 1),
    multicast_entry(2, 1, 0, 1),
    multicast_entry(2, 1, 2, 1),
    storage_entry(2, 1),
    storage_entry(2, 1, wrong_specification=True),
    storage_entry(3, 1),
]

ENTRY_IDS = [entry.key for entry in SMALL_ENTRIES]

SPOR_NET = CheckPlan(reduction="spor-net")


@pytest.mark.parametrize("entry", SMALL_ENTRIES, ids=ENTRY_IDS)
class TestQuorumModelVerdicts:
    def test_unreduced_matches_expectation(self, entry):
        result = run_plan(entry.quorum_model(), entry.invariant, CheckPlan())
        assert result.verified == (not entry.expect_violation)

    @pytest.mark.parametrize("reduction", ["spor", "spor-net"])
    def test_static_por_matches_expectation(self, entry, reduction):
        plan = CheckPlan(reduction=reduction)
        result = run_plan(entry.quorum_model(), entry.invariant, plan)
        assert result.verified == (not entry.expect_violation)

    def test_static_por_explores_no_more_states_than_unreduced(self, entry):
        if entry.expect_violation:
            pytest.skip("state counts are only comparable for full verification runs")
        unreduced = run_plan(entry.quorum_model(), entry.invariant, CheckPlan())
        reduced = run_plan(entry.quorum_model(), entry.invariant, SPOR_NET)
        assert reduced.statistics.states_visited <= unreduced.statistics.states_visited


@pytest.mark.parametrize("entry", SMALL_ENTRIES, ids=ENTRY_IDS)
class TestSingleMessageModelVerdicts:
    def test_single_message_model_agrees_with_quorum_model(self, entry):
        quorum_result = run_plan(entry.quorum_model(), entry.invariant, SPOR_NET)
        single_result = run_plan(entry.single_model(), entry.invariant, SPOR_NET)
        assert quorum_result.verified == single_result.verified == (not entry.expect_violation)


DPOR_ENTRIES = [
    paxos_entry(1, 2, 1),
    multicast_entry(2, 1, 0, 1),
    storage_entry(2, 1),
    storage_entry(2, 1, wrong_specification=True),
]


@pytest.mark.parametrize("entry", DPOR_ENTRIES, ids=[e.key + "-dpor" for e in DPOR_ENTRIES])
class TestDynamicPorVerdicts:
    def test_dpor_on_single_message_model_matches_expectation(self, entry):
        plan = CheckPlan(reduction="dpor", max_seconds=60)
        result = run_plan(entry.single_model(), entry.invariant, plan)
        assert result.verified == (not entry.expect_violation)


class TestCatalogExpectations:
    @pytest.mark.parametrize(
        "entry", default_catalog("small"), ids=[e.key for e in default_catalog("small")]
    )
    def test_small_catalog_matches_paper_outcomes(self, entry):
        result = run_plan(entry.quorum_model(), entry.invariant, SPOR_NET)
        assert result.verified == (not entry.expect_violation)
