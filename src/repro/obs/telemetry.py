"""Per-run telemetry: one bundle of metrics + spans every engine writes.

:class:`RunTelemetry` is what ``run_plan`` hands down through every
engine: a :class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.spans.SpanTracer` bound to the run's observer, and a
set of recorder helpers that translate the structures engines already
keep (``SearchStatistics``, fingerprint stores, fast-path memo tables,
work-stealing claim stripes) into named metric series at phase
boundaries.  Nothing here runs per visited state.

``telemetry=None`` is always legal — every engine accepts it and every
recording site is guarded — so direct callers of the search functions
pay nothing.  :func:`maybe_span` packages that guard for phase spans.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, Optional

from ..engine.events import maybe_span
from .metrics import MetricsRegistry
from .spans import SpanTracer

__all__ = ["RunTelemetry", "maybe_span"]


def _peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB, if measurable."""
    try:
        import resource
    except ImportError:  # non-POSIX fallback
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # reported in bytes there
        usage //= 1024
    return int(usage)


class RunTelemetry:
    """Metrics registry + span tracer for one check run."""

    def __init__(
        self,
        observer=None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        self.observer = observer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else SpanTracer(observer=observer)
        self.started_ts = time.time()

    def span(self, name: str, **attrs):
        """Bracket a phase: ``with telemetry.span("search"): ...``."""
        return self.tracer.span(name, **attrs)

    # -- recorder helpers -------------------------------------------------
    # Each translates one existing runtime structure into metric series.
    # They are called once per run/phase, never per state.

    def record_statistics(self, statistics, engine: Optional[str] = None) -> None:
        """Fold a ``SearchStatistics`` into the core search metrics."""
        labels = {"engine": engine} if engine else {}
        counters = self.metrics
        counters.counter(
            "states_visited", "distinct states visited"
        ).inc(statistics.states_visited, **labels)
        counters.counter(
            "transitions_executed", "transitions fired during exploration"
        ).inc(statistics.transitions_executed, **labels)
        counters.counter(
            "state_revisits", "already-visited states re-reached"
        ).inc(statistics.revisits, **labels)
        counters.gauge("max_depth", "deepest explored depth").set(
            statistics.max_depth, **labels
        )
        counters.gauge(
            "elapsed_seconds", "search wall clock", unit="s"
        ).set(statistics.elapsed_seconds, **labels)
        if statistics.elapsed_seconds > 0:
            counters.gauge(
                "states_per_second", "visit throughput", unit="1/s"
            ).set(statistics.states_visited / statistics.elapsed_seconds, **labels)
        self.record_reduction(statistics)

    def record_reduction(self, statistics) -> None:
        """Record stubborn-set effectiveness from a ``SearchStatistics``."""
        reduced = statistics.reduced_expansions
        full = statistics.full_expansions
        enabled = statistics.enabled_set_computations
        if not reduced and not full and not enabled:
            return  # no reduction machinery ran at all
        self.metrics.counter(
            "reduced_expansions", "expansions using a proper stubborn subset"
        ).inc(reduced)
        self.metrics.counter(
            "full_expansions", "expansions falling back to the full enabled set"
        ).inc(full)
        self.metrics.counter(
            "enabled_set_computations", "stubborn/enabled set computations"
        ).inc(statistics.enabled_set_computations)
        total = reduced + full
        if total:
            self.metrics.gauge(
                "reduction_ratio", "reduced expansions / all expansions"
            ).set(reduced / total)

    def record_store(self, store, name: str = "state_store") -> None:
        """Record visited-store occupancy (per shard when sharded)."""
        if store is None:
            return
        shard_sizes = getattr(store, "shard_sizes", None)
        if callable(shard_sizes):
            sizes = shard_sizes()
            if sizes:  # unsharded packed stores report None
                gauge = self.metrics.gauge(
                    f"{name}_shard_size", "fingerprints per store shard"
                )
                for shard, size in enumerate(sizes):
                    gauge.set(size, shard=shard)
        try:
            size = len(store)
        except TypeError:
            return
        self.metrics.gauge(f"{name}_size", "visited states/fingerprints held").set(size)

    def record_fastpath(self, engine) -> None:
        """Record packed fast-path table occupancy and memo behaviour."""
        if engine is None:
            return
        table_sizes = getattr(engine, "table_sizes", None)
        if callable(table_sizes):
            gauge = self.metrics.gauge(
                "fastpath_table_size", "interning/memo table entries"
            )
            for table, size in table_sizes().items():
                gauge.set(size, table=table)
        memo_stats = getattr(engine, "memo_stats", None)
        if callable(memo_stats):
            stats = memo_stats()
            self.metrics.counter(
                "fastpath_memo_hits", "guard/action memo hits"
            ).inc(stats.get("hits", 0))
            self.metrics.counter(
                "fastpath_memo_misses", "guard/action memo misses"
            ).inc(stats.get("misses", 0))

    def record_worksteal(
        self,
        steals: int = 0,
        publishes: int = 0,
        claim_table=None,
    ) -> None:
        """Record work-stealing traffic and claim-table stripe occupancy."""
        self.metrics.counter(
            "worksteal_steals", "frames stolen from sibling deques"
        ).inc(steals)
        self.metrics.counter(
            "worksteal_publishes", "frames published for stealing"
        ).inc(publishes)
        if claim_table is not None:
            stripe_sizes = getattr(claim_table, "stripe_sizes", None)
            if callable(stripe_sizes):
                gauge = self.metrics.gauge(
                    "claim_table_stripe_size", "claimed fingerprints per stripe"
                )
                for stripe, size in enumerate(stripe_sizes()):
                    gauge.set(size, stripe=stripe)

    def record_worker(self, worker: int, stats: Dict) -> None:
        """Record one worker's final report as labelled series."""
        for key in ("claimed", "expansions", "transitions_executed", "revisits"):
            if key in stats:
                self.metrics.counter(
                    f"worker_{key}", f"per-worker {key.replace('_', ' ')}"
                ).inc(stats[key], worker=worker)

    # -- snapshot ---------------------------------------------------------

    def snapshot(self) -> Dict:
        """The JSON-able run report attached to ``CheckResult.telemetry``."""
        report = {
            "metrics": self.metrics.snapshot(),
            "spans": self.tracer.snapshot(),
        }
        peak = _peak_rss_kb()
        if peak is not None:
            report["peak_rss_kb"] = peak
        try:
            import tracemalloc

            if tracemalloc.is_tracing():
                _current, traced_peak = tracemalloc.get_traced_memory()
                report["tracemalloc_peak_kb"] = traced_peak // 1024
        except ImportError:
            pass
        return report
