"""Aggregation of machine-readable benchmark results (``BENCH_*.json``).

The ``python -m repro`` CLI emits every run as a JSON payload so that
sweeps from different machines, worker counts and commits can be compared
offline.  This module owns the payload schema end to end:

* :func:`result_record` — flatten one :class:`CheckResult` into the
  JSON-able per-cell record the CLI and the cell-parallel runner emit;
* :func:`telemetry_block` — the compact telemetry subset those records
  carry (throughput, memo behaviour, peak RSS, per-phase span seconds);
* :func:`bench_payload` / :func:`write_bench_file` — wrap records into a
  self-describing payload and write it as ``BENCH_<kind>_<label>.json``;
* :func:`load_bench_files` — read payloads back from files or directories;
* :func:`aggregate_records` / :func:`render_aggregate` — merge payloads
  into per-cell rows (best time per mode, serial-vs-parallel speedups) and
  render them as a plain-text table;
* :func:`render_telemetry` — the companion table over the telemetry
  blocks (``python -m repro report --telemetry``).
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..checker.result import (
    OUTCOME_LABELS,
    CheckResult,
    outcome_label_for,
    outcome_of,
)

#: Filename prefix of every machine-readable benchmark artifact.
BENCH_PREFIX = "BENCH_"


def safe_ratio(numerator, denominator) -> Optional[float]:
    """``numerator / denominator`` or None for degenerate denominators.

    Sub-millisecond cells legitimately record ``elapsed_seconds == 0.0``
    and empty runs record zero hits+misses; every derived rate in this
    module funnels through here so those records render as "-" instead of
    raising ``ZeroDivisionError`` or leaking ``inf``/``nan`` into payloads.
    """
    try:
        if numerator is None or denominator is None or denominator <= 0:
            return None
    except TypeError:  # non-numeric garbage from a hand-edited payload
        return None
    return numerator / denominator


def record_outcome(record: Dict) -> str:
    """The rendered outcome label of one result record.

    Reads the record's own ``outcome`` field when present and falls back
    to deriving it from the ``verified``/``complete`` flags, so payloads
    written before the three-valued outcome existed still render honestly
    (a truncated clean run shows as inconclusive, never ``Verified``).
    A recorded ``incomplete_reason`` (worker crash, cancelled) renders in
    place of the default budget spelling.
    """
    reason = record.get("incomplete_reason")
    outcome = record.get("outcome")
    if outcome in OUTCOME_LABELS:
        return outcome_label_for(outcome, reason)
    return outcome_label_for(
        outcome_of(
            bool(record.get("verified")),
            bool(record.get("complete", True)),
            record.get("counterexample_steps") is not None,
        ),
        reason,
    )


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
    "fastpath_memo_evictions",
    "worksteal_steals",
    "worksteal_publishes",
    "swarm_walks_completed",
    "swarm_walks_per_second",
    "swarm_unique_fingerprints",
)


def telemetry_block(snapshot: Optional[Dict]) -> Optional[Dict]:
    """Compact, record-friendly subset of a ``CheckResult.telemetry`` snapshot.

    The full snapshot is deep (every labelled series of every instrument);
    bench records only need the scalars worth comparing across runs:
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


def bench_payload(kind: str, results: Sequence[Dict], **meta) -> Dict:
    """Wrap per-cell records into a self-describing payload."""
    payload = {
        "schema": "repro-bench/1",
        "kind": kind,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "results": list(results),
    }
    payload.update(meta)
    return payload


def write_bench_file(
    directory: Path, kind: str, payload: Dict, label: Optional[str] = None
) -> Path:
    """Write a payload as ``BENCH_<kind>[_<label>]_<timestamp>.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    middle = f"{kind}_{label}" if label else kind
    path = directory / f"{BENCH_PREFIX}{middle}_{stamp}.json"
    serial = 0
    while path.exists():
        serial += 1
        path = directory / f"{BENCH_PREFIX}{middle}_{stamp}-{serial}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_bench_files(paths: Iterable) -> List[Dict]:
    """Load payloads from JSON files and/or directories of ``BENCH_*.json``.

    Raises:
        FileNotFoundError: If a given path does not exist.
        ValueError: If a file does not carry the expected schema marker.
    """
    payloads: List[Dict] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files = sorted(path.glob(f"{BENCH_PREFIX}*.json"))
        elif path.exists():
            files = [path]
        else:
            raise FileNotFoundError(f"no such benchmark file or directory: {path}")
        for file in files:
            payload = json.loads(file.read_text())
            if not str(payload.get("schema", "")).startswith("repro-bench/"):
                raise ValueError(f"{file} is not a repro benchmark payload")
            payload["_source"] = str(file)
            payloads.append(payload)
    return payloads


def _mode_of(record: Dict) -> str:
    workers = int(record.get("workers", 1) or 1)
    return f"parallel[{workers}]" if workers > 1 else "serial"


@dataclass
class AggregateRow:
    """All observations of one ``(cell, model, strategy)`` combination.

    Attributes:
        cell: Catalog key (falls back to the protocol name for ad-hoc runs).
        model: ``"quorum"`` or ``"single"``.
        strategy: Search strategy string.
        outcome: ``"Verified"`` / ``"CE"`` / ``"Inconclusive (budget hit)"``
            when all observations agree, ``"mixed"`` otherwise.
        states_visited: State count (the paper's primary column); ``None``
            until observed, ``-1`` if observations disagree.
        best_seconds: Mode name -> fastest observed wall clock.
        runs: Mode name -> number of observations.
    """

    cell: str
    model: str
    strategy: str
    outcome: str = "-"
    states_visited: Optional[int] = None
    best_seconds: Dict[str, float] = field(default_factory=dict)
    runs: Dict[str, int] = field(default_factory=dict)

    def speedup(self) -> Optional[float]:
        """Best serial time over best parallel time, when both exist.

        None when either mode is unobserved or the parallel best is a
        zero-elapsed (sub-millisecond) record: a ratio against a zero
        denominator is noise, not a speedup.
        """
        serial = self.best_seconds.get("serial")
        parallel = min(
            (value for mode, value in self.best_seconds.items() if mode != "serial"),
            default=None,
        )
        return safe_ratio(serial, parallel)


@dataclass
class AggregateSummary:
    """Merged view over any number of benchmark payloads."""

    rows: List[AggregateRow]
    payload_count: int
    record_count: int

    def total_states(self) -> int:
        # The -1 "observations disagree" sentinel must not leak into sums.
        return sum(
            row.states_visited
            for row in self.rows
            if row.states_visited is not None and row.states_visited > 0
        )


def aggregate_records(payloads: Sequence[Dict]) -> AggregateSummary:
    """Merge payloads into one row per ``(cell, model, strategy)``."""
    rows: Dict[Tuple[str, str, str], AggregateRow] = {}
    record_count = 0
    for payload in payloads:
        for record in payload.get("results", ()):
            record_count += 1
            cell = str(record.get("cell") or record.get("protocol") or "?")
            model = str(record.get("model", "-"))
            strategy = str(record.get("strategy", "-"))
            key = (cell, model, strategy)
            row = rows.get(key)
            if row is None:
                row = rows[key] = AggregateRow(cell=cell, model=model, strategy=strategy)
            mode = _mode_of(record)
            elapsed = float(record.get("elapsed_seconds", 0.0))
            best = row.best_seconds.get(mode)
            if best is None or elapsed < best:
                row.best_seconds[mode] = elapsed
            row.runs[mode] = row.runs.get(mode, 0) + 1
            outcome = record_outcome(record)
            if row.outcome == "-":
                row.outcome = outcome
            elif row.outcome != outcome:
                row.outcome = "mixed"
            states = record.get("states_visited")
            if states is not None:
                if row.states_visited is None:
                    row.states_visited = int(states)
                elif row.states_visited != int(states):
                    # Disagreeing counts across observations (e.g. different
                    # bounds) are flagged rather than silently averaged.
                    row.states_visited = -1
    ordered = sorted(rows.values(), key=lambda row: (row.cell, row.model, row.strategy))
    return AggregateSummary(
        rows=ordered, payload_count=len(payloads), record_count=record_count
    )


def render_aggregate(summary: AggregateSummary) -> str:
    """Render a summary as a plain-text table with per-row speedups."""
    header = ("cell", "model", "strategy", "outcome", "states", "best serial", "best parallel", "speedup")
    lines: List[Tuple[str, ...]] = [header]
    for row in summary.rows:
        states = "-"
        if row.states_visited is not None:
            states = "(differs)" if row.states_visited < 0 else f"{row.states_visited:,}"
        serial = row.best_seconds.get("serial")
        parallel_modes = {m: v for m, v in row.best_seconds.items() if m != "serial"}
        best_parallel = min(parallel_modes.values()) if parallel_modes else None
        speedup = row.speedup()
        lines.append(
            (
                row.cell,
                row.model,
                row.strategy,
                row.outcome,
                states,
                f"{serial:.3f}s" if serial is not None else "-",
                f"{best_parallel:.3f}s" if best_parallel is not None else "-",
                f"{speedup:.2f}x" if speedup is not None else "-",
            )
        )
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    rendered = []
    for index, line in enumerate(lines):
        rendered.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())
        if index == 0:
            rendered.append("  ".join("-" * widths[i] for i in range(len(header))))
    rendered.append(
        f"({summary.record_count} records from {summary.payload_count} payloads)"
    )
    return "\n".join(rendered)


def render_telemetry(payloads: Sequence[Dict]) -> str:
    """Render the telemetry blocks of bench payloads as a plain-text table.

    One row per record carrying a ``telemetry`` block (records from before
    the observability layer simply have none and are skipped); columns are
    the cross-run comparables: throughput, memo hit rate and evictions,
    peak RSS and the measured search-span seconds.
    """
    header = ("cell", "model", "engine", "states/s", "memo hit%",
              "evictions", "peak RSS", "search s")
    lines: List[Tuple[str, ...]] = [header]
    skipped = 0
    for payload in payloads:
        for record in payload.get("results", ()):
            block = record.get("telemetry")
            if not block:
                skipped += 1
                continue
            hits = block.get("fastpath_memo_hits")
            misses = block.get("fastpath_memo_misses")
            ratio = (
                safe_ratio(hits, hits + misses)
                if hits is not None and misses is not None
                else None
            )
            hit_rate = f"{100.0 * ratio:.1f}%" if ratio is not None else "-"
            throughput = block.get("states_per_second")
            if throughput is None:
                # Older records carry no telemetry throughput; derive it,
                # guarding against zero-elapsed sub-millisecond runs.
                throughput = safe_ratio(
                    record.get("states_visited"), record.get("elapsed_seconds")
                )
            rss = block.get("peak_rss_kb")
            search_seconds = (block.get("span_seconds") or {}).get("search")
            evictions = block.get("fastpath_memo_evictions")
            lines.append(
                (
                    str(record.get("cell") or record.get("protocol") or "?"),
                    str(record.get("model", "-")),
                    str(record.get("engine", "-")),
                    f"{throughput:,.0f}" if throughput else "-",
                    hit_rate,
                    f"{evictions:,}" if evictions is not None else "-",
                    f"{rss:,} KiB" if rss else "-",
                    f"{search_seconds:.3f}" if search_seconds is not None else "-",
                )
            )
    if len(lines) == 1:
        return "(no telemetry blocks in the given payloads)"
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    rendered = []
    for index, line in enumerate(lines):
        rendered.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())
        if index == 0:
            rendered.append("  ".join("-" * widths[i] for i in range(len(header))))
    if skipped:
        rendered.append(f"({skipped} records without telemetry omitted)")
    return "\n".join(rendered)
