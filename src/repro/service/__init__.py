"""Checking as a service: job queue, verdict cache, server and client.

The service layer turns the plan-layer entry point
(:func:`repro.engine.registry.run_plan`) into a long-lived job server:

- :class:`JobRequest` / :class:`JobBudgets` / :class:`Job` — the job
  model; budgets map onto the plan's search knobs and truncated runs come
  back as honest ``inconclusive`` verdicts.
- :class:`ResultCache` — verdict memoization keyed on (protocol
  fingerprint, property, plan); only ``complete=True`` results are
  admitted, invalidation is explicit.
- :class:`CheckService` — the in-process asyncio service: bounded queue,
  worker pool, per-job event streams, heartbeat-driven health probe.
- :class:`CheckServer` / :func:`serve` and :class:`ServiceClient` — the
  JSON-lines TCP wire around it (``repro serve`` / ``repro submit``).
- :func:`run_jobs` — synchronous batch convenience for scripts.
"""

from ..engine.events import JOB_EVENT_KINDS
from .cache import CacheKey, ResultCache, protocol_fingerprint
from .client import ServiceClient, ServiceClientError
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    Job,
    JobBudgets,
    JobEventLog,
    JobRequest,
    plan_from_dict,
)
from .server import WIRE_VERSION, CheckServer, serve
from .service import (
    CheckService,
    JobCancelled,
    ServiceError,
    ServiceOverloadedError,
    UnknownJobError,
    run_jobs,
)

__all__ = [
    "CANCELLED",
    "CacheKey",
    "CheckServer",
    "CheckService",
    "DONE",
    "FAILED",
    "JOB_EVENT_KINDS",
    "JOB_STATES",
    "Job",
    "JobBudgets",
    "JobCancelled",
    "JobEventLog",
    "JobRequest",
    "QUEUED",
    "RUNNING",
    "ResultCache",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "ServiceOverloadedError",
    "UnknownJobError",
    "WIRE_VERSION",
    "plan_from_dict",
    "protocol_fingerprint",
    "run_jobs",
    "serve",
]
