#!/usr/bin/env python3
"""A tour of the observability layer: metrics, spans, captures, traces.

Every run through the plan layer carries a ``RunTelemetry``: a labelled
metrics registry plus a nested phase-span tracer, snapshotted onto
``CheckResult.telemetry``.  Attaching a ``JsonlSink`` observer captures
the engine's whole event stream to a ``.jsonl`` file, and the Chrome
trace exporter renders that capture as a Perfetto-loadable timeline —
the same pipeline as ``python -m repro check --trace-out`` followed by
``python -m repro trace``.

Four steps on one Table-I cell:

1. Run the packed fast path and read the run report: core search
   counters, memo hit/miss behaviour, per-phase span seconds.
2. Capture the event stream of a second run to JSONL.
3. Convert the capture to a Chrome trace-event file and validate it.
4. Compact the snapshot with ``telemetry_block`` — the subset that
   travels inside every ``--json`` record.

Run with::

    python examples/telemetry_quickstart.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.analysis.aggregate import telemetry_block
from repro.engine import CheckPlan, run_plan
from repro.obs import JsonlSink, convert_file, read_events
from repro.protocols.catalog import multicast_entry


def main() -> None:
    entry = multicast_entry(2, 1, 0, 1)
    plan = CheckPlan(store="fingerprint", successors="fast")
    print("=" * 72)
    print(f"Telemetry quickstart on {entry.key} "
          "(packed fast path, fingerprint store)")
    print("=" * 72)

    # 1. Every plan-layer run carries a telemetry snapshot.
    result = run_plan(entry.quorum_model(), entry.invariant, plan)
    metrics = result.telemetry["metrics"]
    print(f"\n[1] run report ({result.engine}): "
          f"{result.outcome_label()} — "
          f"{result.statistics.states_visited} states")
    for name in ("states_visited", "transitions_executed",
                 "fastpath_memo_hits", "fastpath_memo_misses"):
        print(f"    {name:28s} = {metrics[name]['total']}")
    for span in result.telemetry["spans"]["finished"]:
        indent = "  " * span["depth"]
        print(f"    span {indent}{span['span']:12s} "
              f"{span['elapsed_seconds'] * 1000:8.2f} ms")
    if "peak_rss_kb" in result.telemetry:
        print(f"    peak RSS {result.telemetry['peak_rss_kb']:,} KiB")

    with tempfile.TemporaryDirectory() as tmp:
        capture = Path(tmp) / "run.jsonl"
        trace = Path(tmp) / "run.trace.json"

        # 2. Capture a run's event stream (what --trace-out does).
        with JsonlSink(capture) as sink:
            run_plan(entry.quorum_model(), entry.invariant, plan,
                     observer=sink)
        events = read_events(capture)
        kinds = [event["kind"] for event in events]
        print(f"\n[2] captured {len(events)} events: {', '.join(kinds)}")

        # 3. Render it as a Chrome trace (what `repro trace` does).
        count = convert_file(capture, trace)
        document = json.loads(trace.read_text())
        slices = [e["name"] for e in document["traceEvents"]
                  if e["ph"] == "X"]
        print(f"[3] trace: {count} trace events, "
              f"slices: {', '.join(slices)} "
              "(load the file in Perfetto / chrome://tracing)")

    # 4. The compact block that rides inside every --json record.
    block = telemetry_block(result.telemetry)
    print("\n[4] telemetry block for --json records:")
    print("    " + json.dumps(block, indent=2).replace("\n", "\n    "))


if __name__ == "__main__":
    main()
