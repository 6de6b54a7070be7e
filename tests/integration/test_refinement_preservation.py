"""Integration: transition refinement preserves state graphs and verdicts.

Theorem 1 of the paper states that a property preserved by POR holds in the
reduction of a transition system iff it holds in the reduction of any of its
refinements; Theorem 2 states quorum-split is such a refinement.  These
tests check both executable consequences on the bundled protocols: the
refined models generate identical state graphs (on instances small enough to
enumerate) and every split strategy produces the same verdict under every
search strategy.
"""

import pytest

from repro.engine import CheckPlan, run_plan
from repro.protocols.catalog import multicast_entry, paxos_entry, storage_entry
from repro.refine import combined_split, is_transition_refinement, quorum_split, reply_split

SPOR_NET = CheckPlan(reduction="spor-net")

REFINEMENTS = [
    ("reply-split", reply_split),
    ("quorum-split", quorum_split),
    ("combined-split", combined_split),
]

ENTRIES = [
    paxos_entry(2, 2, 1),
    paxos_entry(2, 3, 1, faulty=True),
    multicast_entry(3, 0, 1, 1),
    multicast_entry(2, 1, 2, 1),
    storage_entry(2, 1),
    storage_entry(3, 2, wrong_specification=True),
]

SMALL_GRAPH_ENTRIES = [
    paxos_entry(1, 3, 1),
    multicast_entry(2, 1, 0, 1),
    storage_entry(2, 1),
]


@pytest.mark.parametrize("label, split", REFINEMENTS, ids=[name for name, _ in REFINEMENTS])
class TestStateGraphEquivalence:
    @pytest.mark.parametrize(
        "entry", SMALL_GRAPH_ENTRIES, ids=[e.key for e in SMALL_GRAPH_ENTRIES]
    )
    def test_refined_model_generates_same_state_graph(self, label, split, entry):
        original = entry.quorum_model()
        refined = split(original)
        assert is_transition_refinement(original, refined, max_states=100_000)


@pytest.mark.parametrize("label, split", REFINEMENTS, ids=[name for name, _ in REFINEMENTS])
@pytest.mark.parametrize("entry", ENTRIES, ids=[e.key for e in ENTRIES])
class TestVerdictPreservation:
    def test_split_model_same_verdict_under_spor_net(self, label, split, entry):
        original = entry.quorum_model()
        refined = split(original)
        base_result = run_plan(original, entry.invariant, SPOR_NET)
        refined_result = run_plan(refined, entry.invariant, SPOR_NET)
        assert base_result.verified == refined_result.verified == (not entry.expect_violation)

    def test_split_model_same_verdict_under_unreduced_search(self, label, split, entry):
        if entry.key in ("paxos-2-2-1", "faulty-paxos-2-3-1", "storage-3-2-wrong"):
            pytest.skip("unreduced exploration of this instance is slow; covered by SPOR-NET")
        original = entry.quorum_model()
        refined = split(original)
        base_result = run_plan(original, entry.invariant, CheckPlan())
        refined_result = run_plan(refined, entry.invariant, CheckPlan())
        assert base_result.verified == refined_result.verified


class TestRefinementReductionTrends:
    def test_combined_split_never_worse_for_multicast_3111(self):
        entry = multicast_entry(3, 1, 1, 1)
        original = entry.quorum_model()
        unsplit = run_plan(original, entry.invariant, SPOR_NET)
        combined = run_plan(combined_split(original), entry.invariant, SPOR_NET)
        assert combined.verified and unsplit.verified
        assert combined.statistics.states_visited <= unsplit.statistics.states_visited

    def test_reply_split_helps_paxos(self):
        entry = paxos_entry(2, 3, 1)
        original = entry.quorum_model()
        unsplit = run_plan(original, entry.invariant, SPOR_NET)
        split = run_plan(reply_split(original), entry.invariant, SPOR_NET)
        assert split.verified and unsplit.verified
        assert split.statistics.states_visited <= unsplit.statistics.states_visited
