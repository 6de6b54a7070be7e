"""Three-valued verdict contract: a truncated run is never "Verified".

Regression suite for the partial-verdict bug: ``CheckResult`` used to
render any ``verified=True`` result as plain "Verified", including runs
truncated by ``max_states``/``max_seconds``/``max_depth`` budgets — a
claim of proof the search never earned.  The outcome is now three-valued
(``verified`` / ``violated`` / ``inconclusive``) and every rendering
surface derives its label from the same place.
"""

from __future__ import annotations

import io

import pytest

from repro.checker.result import (
    OUTCOME_LABELS,
    OUTCOMES,
    CheckResult,
    SearchStatistics,
    outcome_of,
)
from repro.engine import CheckPlan, run_plan
from repro.engine.events import EngineEvent, ProgressPrinter
from repro.protocols.catalog import multicast_entry


def make_result(verified=True, complete=True, counterexample=None):
    return CheckResult(
        protocol_name="p",
        property_name="inv",
        strategy="unreduced",
        verified=verified,
        complete=complete,
        counterexample=counterexample,
        statistics=SearchStatistics(states_visited=10, elapsed_seconds=0.5),
    )


class TestOutcomeDerivation:
    @pytest.mark.parametrize(
        "verified, complete, found_ce, expected",
        [
            (True, True, False, "verified"),
            (True, False, False, "inconclusive"),
            (False, True, False, "violated"),
            (False, False, False, "violated"),
            # stop-at-first-violation: CE found, search incomplete —
            # conclusive all the same.
            (False, False, True, "violated"),
        ],
    )
    def test_truth_table(self, verified, complete, found_ce, expected):
        assert outcome_of(verified, complete, found_ce) == expected

    def test_every_outcome_has_a_label(self):
        assert set(OUTCOME_LABELS) == set(OUTCOMES)

    def test_conclusive_flag(self):
        assert make_result(complete=True).conclusive
        assert not make_result(complete=False).conclusive
        assert make_result(verified=False).conclusive


class TestNoPlainVerifiedForTruncatedRuns:
    """The acceptance criterion, at every rendering surface."""

    def test_outcome_label_of_a_truncated_result(self):
        result = make_result(complete=False)
        assert result.outcome() == "inconclusive"
        assert result.outcome_label() == "Inconclusive (budget hit)"
        assert result.outcome_label() != "Verified"

    def test_summary_of_a_truncated_result(self):
        summary = make_result(complete=False).summary()
        assert "Inconclusive (budget hit)" in summary
        assert "Verified" not in summary

    def test_real_max_states_truncated_run_is_inconclusive(self):
        entry = multicast_entry(2, 1, 0, 1)
        result = run_plan(
            entry.quorum_model(), entry.invariant, CheckPlan(max_states=10)
        )
        assert result.verified  # saw no violation in the 10 states...
        assert not result.complete  # ...but covered almost nothing
        assert result.outcome() == "inconclusive"
        assert "Verified" not in result.summary()

    def test_complete_run_still_renders_verified(self):
        entry = multicast_entry(2, 1, 0, 1)
        result = run_plan(entry.quorum_model(), entry.invariant, CheckPlan())
        assert result.outcome() == "verified"
        assert result.outcome_label() == "Verified"

    def test_progress_printer_never_prints_verified_for_truncated_runs(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream)
        printer.on_event(
            EngineEvent(
                kind="search-finished",
                payload={
                    "engine": "serial-dfs",
                    "verified": True,
                    "complete": False,
                    "states_visited": 10,
                    "elapsed_seconds": 0.1,
                },
            )
        )
        text = stream.getvalue()
        assert "Inconclusive (budget hit)" in text
        assert "] Verified" not in text

    def test_record_outcome_is_budget_aware(self):
        from repro.analysis.aggregate import record_outcome, result_record

        record = result_record(make_result(complete=False))
        assert record["outcome"] == "inconclusive"
        assert record_outcome(record) == "Inconclusive (budget hit)"

    def test_cli_print_records_uses_the_shared_label(self):
        from repro.analysis.aggregate import result_record
        from repro.cli import _print_records

        stream = io.StringIO()
        record = result_record(make_result(complete=False))
        record.update(cell="cellkey", model="quorum")
        _print_records([record], stream)
        text = stream.getvalue()
        assert "Inconclusive (budget hit)" in text
        assert ": Verified" not in text
