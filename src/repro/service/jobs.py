"""Job model of the checking service: requests, budgets, per-job streams.

A job names a workload the way the cells runner does — a catalog key, a
model variant and a :class:`~repro.engine.plan.CheckPlan` — plus the
per-job exploration budgets the service maps onto the plan's
``max_states`` / ``max_seconds`` / ``max_depth`` knobs.  Budgets never
abort a job: a truncated search comes back as an honest ``inconclusive``
verdict with its statistics and telemetry attached.

Every job owns its own :class:`JobEventLog`: the engine's uniform event
stream (PR 4) plus the job-lifecycle events below land there and nowhere
else, so concurrent jobs never interleave their streams.

Job-lifecycle event kinds (:data:`~repro.engine.events.JOB_EVENT_KINDS`):

``job-submitted``
    The job entered the bounded queue; payload carries the job id and the
    requested workload.
``job-started``
    A service worker slot picked the job up.
``job-cache-hit``
    The verdict was served from the result cache; no engine ran.
``job-finished``
    The job reached a verdict; payload carries the three-valued outcome.
``job-failed``
    The job raised (unknown cell, unsupported plan, engine error).
``job-cancelled``
    The job was cancelled — by an explicit ``cancel`` request or by its
    wall-clock limit — before reaching a verdict; payload carries the
    cancellation reason.  A cancelled job that was already running ends
    with an honest ``Inconclusive (cancelled)`` result, never a hang.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..checker.property import Invariant
from ..checker.result import CheckResult
from ..engine.events import EngineEvent, Observer
from ..engine.plan import CheckPlan
from ..mp.protocol import Protocol
from ..protocols.catalog import default_catalog, entry_by_key

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)


@dataclass(frozen=True)
class JobBudgets:
    """Per-job exploration budgets, mapped onto the plan's search knobs.

    ``None`` leaves the corresponding plan knob untouched, so a budgetless
    job runs whatever bounds the plan itself carries.

    ``max_wall_seconds`` is different in kind: it is *not* a search budget
    but a service-side preemption deadline.  A search budget
    (``max_seconds``) is checked by the engine at its own cadence and
    yields ``Inconclusive (budget hit)``; the wall-clock limit is enforced
    by the service's cancellation gate and preempts the job into
    ``Inconclusive (cancelled)`` — the knob of last resort for a plan whose
    engine does not honour time budgets tightly enough.
    """

    max_states: Optional[int] = None
    max_seconds: Optional[float] = None
    max_depth: Optional[int] = None
    max_wall_seconds: Optional[float] = None

    def apply(self, plan: CheckPlan) -> CheckPlan:
        """``plan`` with every set budget written into its search knobs."""
        changes = {
            knob: value
            for knob, value in (
                ("max_states", self.max_states),
                ("max_seconds", self.max_seconds),
                ("max_depth", self.max_depth),
            )
            if value is not None
        }
        return replace(plan, **changes) if changes else plan

    def to_dict(self) -> Dict:
        return {
            "max_states": self.max_states,
            "max_seconds": self.max_seconds,
            "max_depth": self.max_depth,
            "max_wall_seconds": self.max_wall_seconds,
        }

    @classmethod
    def from_dict(cls, raw: Optional[Dict]) -> "JobBudgets":
        raw = raw or {}
        return cls(
            max_states=raw.get("max_states"),
            max_seconds=raw.get("max_seconds"),
            max_depth=raw.get("max_depth"),
            max_wall_seconds=raw.get("max_wall_seconds"),
        )


#: CheckPlan fields a wire-format plan dict may set.
PLAN_FIELDS = (
    "shape",
    "reduction",
    "store",
    "backend",
    "workers",
    "stateful",
    "successors",
    "goal",
    "seed_heuristic",
    "walks",
    "walk_seed",
)


def plan_from_dict(raw: Optional[Dict]) -> CheckPlan:
    """Build a :class:`CheckPlan` from a wire-format axes dict.

    Unknown keys raise (a typo must not silently check a default plan);
    axis-vocabulary errors surface as the plan layer's structured
    :class:`~repro.engine.plan.UnsupportedPlanError`.
    """
    raw = dict(raw or {})
    unknown = set(raw) - set(PLAN_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown plan field(s) {sorted(unknown)}; "
            f"settable fields: {', '.join(PLAN_FIELDS)}"
        )
    return CheckPlan(**raw)


@dataclass(frozen=True)
class JobRequest:
    """One unit of service work: which workload to check, how, within what.

    Attributes:
        cell: Catalog key of the protocol instance (the picklable,
            wire-friendly protocol reference, as in the cells runner).
        model: ``"quorum"`` or ``"single"``.
        scale: Catalog scale the key belongs to.
        plan: The :class:`CheckPlan` to run; its ``goal`` axis selects the
            entry's invariant or liveness property.
        budgets: Per-job exploration budgets layered onto the plan.
    """

    cell: str
    model: str = "quorum"
    scale: str = "small"
    plan: CheckPlan = field(default_factory=CheckPlan)
    budgets: JobBudgets = field(default_factory=JobBudgets)

    def effective_plan(self) -> CheckPlan:
        """The plan actually executed: request plan + budgets."""
        return self.budgets.apply(self.plan)

    def resolve_workload(self) -> Tuple[Protocol, Invariant]:
        """Build the protocol instance and property this job checks.

        Raises:
            KeyError: Unknown catalog cell.
            ValueError: Unknown model variant, or a liveness-goal plan on
                an entry without a liveness property.
        """
        entry = entry_by_key(self.cell, self.scale)
        if entry is None:
            known = ", ".join(e.key for e in default_catalog(self.scale))
            raise KeyError(
                f"unknown catalog cell {self.cell!r} "
                f"(scale {self.scale!r}; known: {known})"
            )
        if self.model == "quorum":
            protocol = entry.quorum_model()
        elif self.model == "single":
            protocol = entry.single_model()
        else:
            raise ValueError(
                f"unknown model variant {self.model!r} "
                "(expected 'quorum' or 'single')"
            )
        if self.plan.goal == "liveness":
            if entry.liveness is None:
                raise ValueError(
                    f"catalog entry {self.cell!r} carries no liveness property"
                )
            prop: Invariant = entry.liveness
        else:
            prop = entry.invariant
        return protocol, prop

    def to_dict(self) -> Dict:
        return {
            "cell": self.cell,
            "model": self.model,
            "scale": self.scale,
            "plan": self.plan.axes(),
            "budgets": self.budgets.to_dict(),
        }

    @classmethod
    def from_dict(cls, raw: Dict) -> "JobRequest":
        return cls(
            cell=raw["cell"],
            model=raw.get("model", "quorum"),
            scale=raw.get("scale", "small"),
            plan=plan_from_dict(raw.get("plan")),
            budgets=JobBudgets.from_dict(raw.get("budgets")),
        )


class JobEventLog(Observer):
    """Thread-safe per-job event stream with a heartbeat timestamp.

    The engine runs in a service worker thread while readers (the health
    probe, the server's ``events`` op) live on the event loop, so every
    access goes through one lock.  The log doubles as the job's liveness
    signal: ``last_event_ts`` is the heartbeat the service's stall
    detector reads, and engine-emitted ``worker-stalled`` events are
    counted as they pass through.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self._lock = threading.Lock()
        self._events: List[EngineEvent] = []
        self._clock = clock
        self.last_event_ts: float = 0.0
        self.stall_events: int = 0

    def on_event(self, event: EngineEvent) -> None:
        with self._lock:
            self._events.append(event)
            self.last_event_ts = self._clock()
            if event.kind == "worker-stalled":
                self.stall_events += 1

    @property
    def events(self) -> List[EngineEvent]:
        """Snapshot of the events received so far (arrival order)."""
        with self._lock:
            return list(self._events)

    def kinds(self) -> List[str]:
        return [event.kind for event in self.events]

    def last(self, kind: str) -> Optional[EngineEvent]:
        for event in reversed(self.events):
            if event.kind == kind:
                return event
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


@dataclass
class Job:
    """One submitted job and everything the service knows about it."""

    id: str
    request: JobRequest
    status: str = QUEUED
    result: Optional[CheckResult] = None
    error: Optional[str] = None
    cache_hit: bool = False
    worker: Optional[int] = None
    events: JobEventLog = field(default_factory=JobEventLog)
    submitted_ts: float = 0.0
    started_ts: float = 0.0
    finished_ts: float = 0.0

    def outcome(self) -> Optional[str]:
        """Three-valued verdict of a finished job, else None."""
        return self.result.outcome() if self.result is not None else None

    def record(self) -> Dict:
        """JSON-able summary of the job (wire format of the server)."""
        from ..analysis.aggregate import result_record

        record: Dict = {
            "job": self.id,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "request": self.request.to_dict(),
        }
        if self.error is not None:
            record["error"] = self.error
        if self.result is not None:
            record.update(
                result_record(
                    self.result,
                    cell=self.request.cell,
                    model=self.request.model,
                    scale=self.request.scale,
                )
            )
        return record
