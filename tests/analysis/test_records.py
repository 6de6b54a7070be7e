"""The machine-readable record of a run and the one writer of ``--json``.

``check --json`` and ``sweep --json`` both go through
:func:`write_records`; every record in the payload is a
:func:`result_record`, whose verdict renders through
:func:`record_outcome` and whose telemetry is a :func:`telemetry_block`.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.aggregate import (
    TELEMETRY_BLOCK_METRICS,
    record_outcome,
    result_record,
    telemetry_block,
    write_records,
)
from repro.checker.result import CheckResult, SearchStatistics


def make_result(**overrides):
    fields = dict(
        protocol_name="p",
        property_name="inv",
        strategy="unreduced",
        verified=True,
        complete=True,
        statistics=SearchStatistics(states_visited=3, elapsed_seconds=0.5),
    )
    fields.update(overrides)
    return CheckResult(**fields)


class TestResultRecord:
    def test_carries_the_statistics_it_flattens(self):
        record = result_record(make_result())
        assert record["states_visited"] == 3
        assert record["elapsed_seconds"] == 0.5
        assert record["outcome"] == "verified"
        assert record["counterexample_steps"] is None

    def test_results_outside_the_plan_layer_carry_no_axes(self):
        record = result_record(make_result())
        for key in ("shape", "reduction", "store", "workers", "engine", "telemetry"):
            assert key not in record

    def test_incomplete_reason_only_when_set(self):
        assert "incomplete_reason" not in result_record(make_result(complete=False))
        record = result_record(
            make_result(complete=False, incomplete_reason="worker crash")
        )
        assert record["incomplete_reason"] == "worker crash"

    def test_extra_fields_are_merged_last(self):
        record = result_record(make_result(), cell="c", model="quorum", workers=4)
        assert (record["cell"], record["model"], record["workers"]) == ("c", "quorum", 4)


class TestRecordOutcome:
    @pytest.mark.parametrize("overrides, label", [
        (dict(), "Verified"),
        (dict(verified=False, complete=False), "CE"),
        (dict(complete=False), "Inconclusive (budget hit)"),
        (dict(complete=False, incomplete_reason="worker crash"),
         "Inconclusive (worker crash)"),
    ])
    def test_renders_the_records_outcome(self, overrides, label):
        assert record_outcome(result_record(make_result(**overrides))) == label

    def test_a_record_without_an_outcome_is_rejected(self):
        # Every record carries the three-valued outcome; there is no
        # fallback to the raw verified/complete flags.
        with pytest.raises(KeyError):
            record_outcome({"verified": True, "complete": True})


class TestTelemetryBlock:
    def test_counters_contribute_their_cross_label_total(self):
        snapshot = {"metrics": {"worksteal_steals": {
            "kind": "counter", "total": 7,
            "values": [{"labels": {"worker": "0"}, "value": 3},
                       {"labels": {"worker": "1"}, "value": 4}],
        }}}
        assert telemetry_block(snapshot) == {"worksteal_steals": 7}

    def test_gauges_only_when_single_valued(self):
        single = {"kind": "gauge", "values": [{"labels": {}, "value": 12.5}]}
        split = {"kind": "gauge", "values": [{"labels": {"shard": "0"}, "value": 1},
                                             {"labels": {"shard": "1"}, "value": 2}]}
        snapshot = {"metrics": {"states_per_second": single, "frontier_peak": split}}
        assert telemetry_block(snapshot) == {"states_per_second": 12.5}

    def test_metrics_outside_the_block_are_dropped(self):
        snapshot = {"metrics": {"not_a_block_metric": {"kind": "counter", "total": 1}}}
        assert "not_a_block_metric" not in TELEMETRY_BLOCK_METRICS
        assert telemetry_block(snapshot) is None

    def test_peak_memory_and_span_totals(self):
        snapshot = {
            "peak_rss_kb": 2048,
            "spans": {"finished": [
                {"span": "search", "elapsed_seconds": 0.25},
                {"span": "build", "elapsed_seconds": 0.1},
                {"span": "search", "elapsed_seconds": 0.5},
            ]},
        }
        block = telemetry_block(snapshot)
        assert block["peak_rss_kb"] == 2048
        assert block["span_seconds"] == {"build": 0.1, "search": 0.75}


class TestWriteRecords:
    def test_payload_shape(self, tmp_path):
        target = tmp_path / "out.json"
        record = result_record(make_result())
        write_records(str(target), [record])
        payload = json.loads(target.read_text())
        assert set(payload) == {"schema", "created", "environment", "results"}
        assert payload["schema"] == "repro-bench/1"
        assert set(payload["environment"]) == {"python", "platform"}
        assert payload["results"] == [record]

    def test_meta_sits_beside_results(self, tmp_path):
        target = tmp_path / "out.json"
        write_records(str(target), [], workers=2, plan="dfs/spor/full/auto")
        payload = json.loads(target.read_text())
        assert payload["results"] == []
        assert (payload["workers"], payload["plan"]) == (2, "dfs/spor/full/auto")

    def test_writes_strict_json_of_a_degenerate_record(self, tmp_path):
        target = tmp_path / "out.json"
        zero = make_result(
            statistics=SearchStatistics(states_visited=0, elapsed_seconds=0.0)
        )
        write_records(str(target), [result_record(zero)])
        text = target.read_text()
        assert text.endswith("\n")
        # parse_constant fires only on Infinity / -Infinity / NaN.
        json.loads(text, parse_constant=pytest.fail)
