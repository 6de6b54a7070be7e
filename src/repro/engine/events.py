"""Progress/event observer API shared by every engine.

Before this layer existed each engine grew its own private progress path
(the CLI read ``SearchStatistics`` after the fact, the cells runner its
records, the benchmarks their payloads).  Engines now emit one uniform
stream of :class:`EngineEvent` records into an :class:`Observer`, and the
CLI's ``--progress`` flag, :func:`repro.parallel.cells.run_cells` and the
benchmark harness all consume that same stream.

Event kinds (``EngineEvent.kind``):

``search-started``
    Emitted once by :func:`repro.engine.registry.run_plan` before the engine
    runs; payload carries the resolved plan axes and the engine name.
``progress``
    Periodic states-visited tick: the serial engines emit one every
    :data:`PROGRESS_INTERVAL` stored/expanded states, and the work-stealing
    coordinators emit in-flight ticks from a shared claim counter the
    workers flush in batches (so parallel DFS progress is live, not an
    end-of-run report).
``level-completed``
    One BFS level finished; payload carries the depth, the level's newly
    discovered state count and (for the frontier-parallel engine) the
    exchanged delta count.
``worker-report``
    One parallel-DFS worker's final counters (claimed states, transitions,
    revisits) as collected by the coordinator.
``violation-found``
    An invariant violation was discovered.
``search-finished``
    Emitted once by ``run_plan`` after the engine returns; payload carries
    the verdict and final statistics.
``span-started`` / ``span-finished``
    A named phase (compile / search / red-phase / ce-replay) began or
    ended; emitted by :class:`repro.obs.spans.SpanTracer`.  The finish
    payload carries ``start_ts`` and ``elapsed_seconds`` so trace
    exporters build complete slices from finishes alone.
``worker-telemetry``
    Live per-worker gauge flush from a parallel coordinator: the worker's
    current claimed/transitions/revisits counters read off the shared
    telemetry channel mid-run (distinct from the final ``worker-report``).
``worker-stalled``
    A parallel worker's heartbeat went silent for longer than the stall
    threshold; payload names the worker and the silent interval.
``worker-crashed``
    A parallel worker died without sending its barrier reply; payload
    names the worker and the phase it owed.
``worker-restarted``
    The supervisor restarted a crashed worker and re-seeded its lost
    work; payload names the worker and the restart attempt number.
``checkpoint-written``
    A level-barrier checkpoint was written; payload carries the depth,
    the visited count and the file path.
``job-*``
    The checking service's job lifecycle (:data:`JOB_EVENT_KINDS`,
    documented in :mod:`repro.service.jobs`).

Parallel engines emit coordinator-side events only: observers are plain
Python objects and do not cross process boundaries.

``emit`` validates event kinds against :data:`EVENT_KINDS`: an unknown
kind raises, so a typo fails loudly.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

#: States between two ``progress`` ticks of the serial engines.
PROGRESS_INTERVAL = 1000

#: Job-lifecycle kinds the checking service emits into per-job streams.
JOB_EVENT_KINDS = (
    "job-submitted",
    "job-started",
    "job-cache-hit",
    "job-finished",
    "job-failed",
    "job-cancelled",
)

#: Every event kind an engine or the service may emit, for validation and
#: documentation.
EVENT_KINDS = (
    "search-started",
    "progress",
    "level-completed",
    "worker-report",
    "worker-telemetry",
    "worker-stalled",
    "worker-crashed",
    "worker-restarted",
    "checkpoint-written",
    "span-started",
    "span-finished",
    "violation-found",
    "search-finished",
) + JOB_EVENT_KINDS

_known_kinds = frozenset(EVENT_KINDS)


@dataclass(frozen=True)
class EngineEvent:
    """One observation from a running engine."""

    kind: str
    payload: Dict[str, object] = field(default_factory=dict)


class Observer:
    """Base observer: receives every event; the default implementation
    ignores them, so subclasses override only what they consume."""

    def on_event(self, event: EngineEvent) -> None:  # pragma: no cover - trivial
        pass


class MultiObserver(Observer):
    """Fan one event stream out to several observers."""

    def __init__(self, observers: Iterable[Observer]) -> None:
        self.observers = tuple(observers)

    def on_event(self, event: EngineEvent) -> None:
        for observer in self.observers:
            observer.on_event(event)


class CollectingObserver(Observer):
    """Observer that records every event (tests and offline analysis)."""

    def __init__(self) -> None:
        self.events: List[EngineEvent] = []

    def on_event(self, event: EngineEvent) -> None:
        self.events.append(event)

    def kinds(self) -> List[str]:
        """Event kinds in arrival order."""
        return [event.kind for event in self.events]

    def counts(self) -> Dict[str, int]:
        """Number of received events per kind."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def last(self, kind: str) -> Optional[EngineEvent]:
        """The most recent event of ``kind``, or None."""
        for event in reversed(self.events):
            if event.kind == kind:
                return event
        return None


class ProgressPrinter(Observer):
    """Observer that renders the stream as one line per event.

    This is what ``python -m repro check --progress`` attaches: the same
    stream the programmatic consumers read, printed for humans.
    """

    def __init__(self, stream) -> None:
        self.stream = stream

    def on_event(self, event: EngineEvent) -> None:
        payload = event.payload
        if event.kind == "search-started":
            plan = payload.get("plan", {})
            axes = "/".join(
                str(plan.get(axis, "?"))
                for axis in (
                    "shape", "reduction", "store", "backend", "successors", "goal",
                )
            )
            workers = plan.get("workers", 1)
            suffix = f" x{workers}" if isinstance(workers, int) and workers > 1 else ""
            self.stream.write(
                f"[{payload.get('engine', '?')}] {axes}{suffix} "
                f"on {payload.get('protocol', '?')}\n"
            )
        elif event.kind == "progress":
            if "walks_completed" in payload:
                # Swarm runs count walks, not stored states.
                self.stream.write(
                    f"  ... {payload.get('walks_completed', 0):,} walks, "
                    f"{payload.get('violations', 0):,} violations, "
                    f"{payload.get('unique_fingerprints', 0):,} unique "
                    f"fingerprints\n"
                )
            else:
                self.stream.write(
                    f"  ... {payload.get('states_visited', 0):,} states\n"
                )
        elif event.kind == "level-completed":
            self.stream.write(
                f"  level {payload.get('depth', '?')}: "
                f"+{payload.get('new_states', 0):,} states\n"
            )
        elif event.kind == "worker-report":
            self.stream.write(
                f"  worker {payload.get('worker', '?')}: "
                f"{payload.get('claimed', 0):,} states claimed\n"
            )
        elif event.kind == "worker-stalled":
            self.stream.write(
                f"  !! worker {payload.get('worker', '?')} stalled "
                f"({payload.get('idle_seconds', 0.0):.1f}s without heartbeat)\n"
            )
        elif event.kind == "worker-crashed":
            self.stream.write(
                f"  !! worker {payload.get('worker', '?')} crashed "
                f"(no {payload.get('phase', '?')} reply)\n"
            )
        elif event.kind == "worker-restarted":
            self.stream.write(
                f"  worker {payload.get('worker', '?')} restarted "
                f"(attempt {payload.get('attempt', '?')})\n"
            )
        elif event.kind == "checkpoint-written":
            self.stream.write(
                f"  checkpoint @ level {payload.get('depth', '?')}: "
                f"{payload.get('states_visited', 0):,} states -> "
                f"{payload.get('path', '?')}\n"
            )
        elif event.kind in ("span-started", "span-finished", "worker-telemetry"):
            # High-frequency telemetry kinds stay silent on the human
            # printer; JSONL sinks and trace export consume them.
            pass
        elif event.kind == "violation-found":
            self.stream.write("  violation found\n")
        elif event.kind == "search-finished":
            if not payload.get("verified"):
                verdict = "CE"
            elif payload.get("complete", True):
                verdict = "Verified"
            else:
                reason = payload.get("incomplete_reason") or "budget hit"
                verdict = f"Inconclusive ({reason})"
            self.stream.write(
                f"[{payload.get('engine', '?')}] {verdict} — "
                f"{payload.get('states_visited', 0):,} states, "
                f"{payload.get('elapsed_seconds', 0.0):.2f}s\n"
            )


def emit(observer: Optional[Observer], kind: str, **payload) -> None:
    """Deliver one event, tolerating ``observer=None`` (the common case).

    Kinds outside :data:`EVENT_KINDS` raise :class:`ValueError`.  The
    ``observer is None`` early-out stays first: the no-sink fast path costs
    one comparison, validation only runs when someone is listening.
    """
    if observer is None:
        return
    if kind not in _known_kinds:
        raise ValueError(
            f"unknown event kind {kind!r}; known kinds: "
            f"{', '.join(sorted(_known_kinds))}"
        )
    observer.on_event(EngineEvent(kind=kind, payload=payload))


def maybe_span(telemetry, name: str, **attrs):
    """``telemetry.span(...)`` when telemetry is attached, else a no-op.

    The span twin of :func:`emit`'s ``observer=None`` tolerance; keeps the
    zero-overhead contract at call sites::

        with maybe_span(telemetry, "compile", protocol=protocol.name):
            engine = FastSuccessorEngine(protocol)

    Defined here rather than in :mod:`repro.obs.telemetry` (which
    re-exports it) because the search modules are imported while
    :mod:`repro.obs` — which builds on this module — is still initialising.
    """
    if telemetry is None:
        return nullcontext()
    return telemetry.span(name, **attrs)
