"""The machine-readable record of a run (``repro check`` / ``sweep --json``).

Performance is measured by the ledger (``benchmarks/ledger/``), not here;
this module only says what one run was and what it found:

* :func:`result_record` — flatten one :class:`CheckResult` into the
  JSON-able per-cell record the CLI, the cell-parallel runner and the
  service emit;
* :func:`telemetry_block` — the compact telemetry subset those records
  carry (throughput, memo behaviour, peak RSS, per-phase span seconds);
* :func:`record_outcome` — the rendered verdict label of one record;
* :func:`write_records` — the one writer of a ``--json`` payload.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from ..checker.result import CheckResult, outcome_label_for


def record_outcome(record: Dict) -> str:
    """The rendered outcome label of one result record.

    A recorded ``incomplete_reason`` (worker crash, cancelled) renders in
    place of the default budget spelling.
    """
    return outcome_label_for(record["outcome"], record.get("incomplete_reason"))


def result_record(result: CheckResult, **extra) -> Dict:
    """Flatten a :class:`CheckResult` into a JSON-able record.

    Results produced through the plan layer additionally carry their
    resolved axes (``shape`` / ``reduction`` / ``store`` / ``backend`` /
    ``workers``, the walk budget of a swarm run) and the registry name of
    the engine that ran them, so a record describes the plan that ran, not
    the one that was asked for.  Extra keyword fields (cell key, model
    variant, ...) are merged in; they must be JSON-serialisable.
    """
    statistics = result.statistics
    record = {
        "protocol": result.protocol_name,
        "property": result.property_name,
        "strategy": result.strategy,
        "verified": result.verified,
        "complete": result.complete,
        "outcome": result.outcome(),
        "stateful": result.stateful,
        "counterexample_steps": (
            len(result.counterexample.steps) if result.counterexample else None
        ),
        "states_visited": statistics.states_visited,
        "transitions_executed": statistics.transitions_executed,
        "revisits": statistics.revisits,
        "max_depth": statistics.max_depth,
        "elapsed_seconds": statistics.elapsed_seconds,
        "enabled_set_computations": statistics.enabled_set_computations,
    }
    if result.incomplete_reason is not None:
        record["incomplete_reason"] = result.incomplete_reason
    plan = result.plan
    if plan is not None:
        record.update(
            shape=plan.shape,
            reduction=plan.reduction,
            store=plan.store,
            backend=plan.backend,
            workers=plan.workers,
            successors=plan.successors,
            goal=plan.goal,
        )
        if plan.backend == "swarm":
            record.update(walks=plan.walks, walk_seed=plan.walk_seed)
    if result.engine is not None:
        record["engine"] = result.engine
    if result.telemetry is not None:
        block = telemetry_block(result.telemetry)
        if block:
            record["telemetry"] = block
    record.update(extra)
    return record


#: Metric names carried (when present) into every record's telemetry block.
TELEMETRY_BLOCK_METRICS = (
    "states_per_second",
    "reduction_ratio",
    "frontier_peak",
    "state_store_size",
    "fastpath_memo_hits",
    "fastpath_memo_misses",
    "worksteal_steals",
    "worksteal_publishes",
    "swarm_walks_completed",
    "swarm_walks_per_second",
    "swarm_unique_fingerprints",
)


def telemetry_block(snapshot: Optional[Dict]) -> Optional[Dict]:
    """Compact, record-friendly subset of a ``CheckResult.telemetry`` snapshot.

    The full snapshot is deep (every labelled series of every instrument);
    records only need the scalars worth comparing across runs:
    throughput, the reduction ratio, fast-path memo behaviour, steal
    traffic, peak RSS and the per-phase span totals.  Counters use their
    cross-label total; gauges are included only when single-valued (a
    per-shard gauge has no meaningful scalar).  Returns ``None`` when
    nothing qualifies.
    """
    if not snapshot:
        return None
    metrics = snapshot.get("metrics", {})

    def scalar(name: str):
        metric = metrics.get(name)
        if not metric:
            return None
        if metric.get("kind") == "counter":
            return metric.get("total", 0)
        values = metric.get("values", ())
        if len(values) == 1:
            return values[0]["value"]
        return None

    block: Dict = {}
    for name in TELEMETRY_BLOCK_METRICS:
        value = scalar(name)
        if value is not None:
            block[name] = value
    for key in ("peak_rss_kb", "tracemalloc_peak_kb"):
        if key in snapshot:
            block[key] = snapshot[key]
    finished = snapshot.get("spans", {}).get("finished", ())
    if finished:
        totals: Dict[str, float] = {}
        for span in finished:
            name = span["span"]
            totals[name] = totals.get(name, 0.0) + span["elapsed_seconds"]
        block["span_seconds"] = {
            name: round(seconds, 6) for name, seconds in sorted(totals.items())
        }
    return block or None


def write_records(path: str, records: Sequence[Dict], **meta) -> None:
    """Write records to ``path`` as one ``repro-bench/1`` payload.

    ``meta`` (sweep's plan, pool size and wall clock) sits beside
    ``results`` at the top level.
    """
    payload = {
        "schema": "repro-bench/1",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "results": list(records),
        **meta,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

