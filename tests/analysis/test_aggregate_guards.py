"""Degenerate-record guards: no NaN, no inf, no empty telemetry blocks.

A zero-state, zero-elapsed run (a sub-resolution timer read) must still
flatten into a record that is valid JSON, and an absent or empty telemetry
snapshot yields no block at all.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.aggregate import result_record, telemetry_block
from repro.checker.result import CheckResult, SearchStatistics


def test_zero_state_zero_elapsed_record_has_no_inf_or_nan():
    result = CheckResult(
        protocol_name="p",
        property_name="inv",
        strategy="unreduced",
        verified=True,
        complete=True,
        statistics=SearchStatistics(states_visited=0, elapsed_seconds=0.0),
    )
    # allow_nan=False raises on any inf/nan anywhere in the record.
    json.dumps(result_record(result), allow_nan=False)


@pytest.mark.parametrize("snapshot", [None, {}])
def test_empty_telemetry_snapshot_yields_no_block(snapshot):
    assert telemetry_block(snapshot) is None
