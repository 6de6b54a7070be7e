"""Deterministic fault injection for the checking runtime itself.

The paper's protocols are verified *under* crash faults; this package
applies the same medicine to the checker: a replayable :class:`FaultPlan`
crashes chosen workers of the supervised pools (the frontier BFS and the
swarm walker pool) at chosen commands, so their restart path is testable
on demand — and completely absent from production runs unless a plan's
``chaos`` knob opts in.  Plan resolution refuses the knob on every other
engine.
"""

from .faults import (
    ChaosHook,
    FaultInjection,
    FaultPlan,
    FaultPlanError,
    chaos_hook_for_worker,
)

__all__ = [
    "ChaosHook",
    "FaultInjection",
    "FaultPlan",
    "FaultPlanError",
    "chaos_hook_for_worker",
]
