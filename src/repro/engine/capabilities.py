"""Capability descriptors: which plan axes an engine supports, declaratively.

Every registered engine carries one :class:`Capabilities` record.  Plan
resolution never asks an engine "can you run this?" imperatively — it reads
the descriptor, so unsupported combinations produce one uniform
:class:`~repro.engine.plan.UnsupportedPlanError` naming the offending axis
(plus the engine's own explanation, when it declared one in ``notes``)
instead of scattered ``raise ValueError`` sites inside the engines.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from .plan import PLAN_AXES, CheckPlan

#: Requirement tokens an engine may declare beyond the plan axes.  Today
#: the only one is ``"fork"``: the multi-process backends inherit the
#: (unpicklable) protocol object and the parent's hash seed through the
#: ``fork`` start method, so they cannot run on spawn-only platforms.
REQUIREMENT_TOKENS = ("fork",)


def platform_requirements() -> FrozenSet[str]:
    """The requirement tokens the current platform satisfies.

    Consulted by plan resolution so that a plan needing an unavailable
    platform feature fails with a structured
    :class:`~repro.engine.plan.UnsupportedPlanError` (carrying a runnable
    serial alternative) at resolve time, instead of a raw error or a
    silent serial fallback deep inside the parallel search at run time.
    Tests monkeypatch this to simulate spawn-only platforms.
    """
    available = set()
    if "fork" in multiprocessing.get_all_start_methods():
        available.add("fork")
    return frozenset(available)

#: Weight of each axis when ranking "nearest" engines for diagnostics.  The
#: most identity-defining axes dominate: an engine matching the requested
#: reduction is closer than one merely matching the store kind, and a
#: mismatch on the explicitly requested worker count outranks statefulness
#: (suggesting ``workers=1`` to someone who asked for parallelism would be
#: the silent downgrade this layer exists to prevent).
_AXIS_WEIGHTS = {
    "goal": 64,
    "reduction": 32,
    "shape": 16,
    "workers": 8,
    "stateful": 4,
    "successors": 3,
    "backend": 2,
    "store": 1,
}


@dataclass(frozen=True)
class Capabilities:
    """The axis combinations one engine supports.

    Attributes:
        shapes / reductions / backends / stores: Supported values per axis.
        goals: Supported checking goals; the default keeps pre-existing
            engines invariant-only, the nested-DFS engines declare
            ``("liveness",)``.
        statefulness: Supported values of the ``stateful`` axis.
        successor_modes: Supported values of the ``successors`` axis; the
            default is object-graph-only, engines whose loop runs over a
            :class:`~repro.checker.stategraph.StateGraph` declare
            ``("object", "fast")``.  An engine that does not list the
            requested mode never matches, so the successor choice is never
            downgraded.
        min_workers / max_workers: Inclusive worker-count range
            (``max_workers=None`` means unbounded).
        requirements: Platform features the engine needs at run time
            (tokens from :data:`REQUIREMENT_TOKENS`, e.g. ``"fork"`` for
            the multi-process backends).  Checked by plan resolution
            against :func:`platform_requirements`, *after* axis matching:
            an engine whose axes match but whose requirements are unmet
            produces a structured error with a runnable serial
            alternative, never a silent downgrade.
        auto_backend: Whether ``backend="auto"`` may concretise to this
            engine.  The incomplete sampling engines declare ``False``:
            swapping an exhaustive search for random walks changes what a
            verdict *means*, so it must be an explicit opt-in
            (``backend="swarm"``), never an automatic choice.
        notes: Optional per-axis explanation of *why* a constraint exists;
            surfaced verbatim in the :class:`UnsupportedPlanError` message.
    """

    shapes: Tuple[str, ...]
    reductions: Tuple[str, ...]
    backends: Tuple[str, ...]
    stores: Tuple[str, ...]
    goals: Tuple[str, ...] = ("invariant",)
    statefulness: Tuple[bool, ...] = (True, False)
    successor_modes: Tuple[str, ...] = ("object",)
    min_workers: int = 1
    max_workers: Optional[int] = None
    requirements: Tuple[str, ...] = ()
    auto_backend: bool = True
    notes: Dict[str, str] = field(default_factory=dict)

    def missing_requirements(
        self, available: Optional[FrozenSet[str]] = None
    ) -> Tuple[str, ...]:
        """Declared requirement tokens the platform does not satisfy."""
        if available is None:
            available = platform_requirements()
        return tuple(token for token in self.requirements if token not in available)

    # ------------------------------------------------------------------ #
    # Axis checks
    # ------------------------------------------------------------------ #
    def _axis_supported(self, axis: str, plan: CheckPlan) -> bool:
        if axis == "shape":
            return plan.shape in self.shapes
        if axis == "reduction":
            return plan.reduction in self.reductions
        if axis == "backend":
            # "auto" is a wildcard: resolution concretises it to the chosen
            # engine's backend — except for engines that demand an explicit
            # opt-in (the incomplete sampling family).
            if plan.backend == "auto":
                return self.auto_backend
            return plan.backend in self.backends
        if axis == "store":
            return plan.store in self.stores
        if axis == "stateful":
            return plan.stateful in self.statefulness
        if axis == "successors":
            return plan.successors in self.successor_modes
        if axis == "goal":
            return plan.goal in self.goals
        if axis == "workers":
            if plan.workers < self.min_workers:
                return False
            return self.max_workers is None or plan.workers <= self.max_workers
        raise KeyError(f"unknown capability axis {axis!r}")

    def supports(self, plan: CheckPlan) -> bool:
        """True when every axis of ``plan`` falls inside this descriptor."""
        return all(self._axis_supported(axis, plan) for axis in PLAN_AXES)

    def violations(self, plan: CheckPlan) -> List[str]:
        """Unsupported axes of ``plan``, most identity-defining first."""
        return [axis for axis in PLAN_AXES if not self._axis_supported(axis, plan)]

    def match_score(self, plan: CheckPlan) -> int:
        """Weighted count of matching axes (for "nearest engine" ranking).

        An engine that refuses ``backend="auto"`` (explicit opt-in only) is
        pushed behind every auto-eligible engine when ranking an auto plan:
        suggesting "switch to sampling" to someone who asked for an
        exhaustive search would be the semantic downgrade this layer
        exists to prevent.
        """
        score = sum(
            _AXIS_WEIGHTS[axis]
            for axis in PLAN_AXES
            if self._axis_supported(axis, plan)
        )
        if plan.backend == "auto" and not self.auto_backend:
            score -= sum(_AXIS_WEIGHTS.values()) + 1
        return score

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def supported_description(self, axis: str) -> str:
        """Human-readable rendering of the supported range of one axis."""
        if axis == "workers":
            if self.max_workers is None:
                return f"workers >= {self.min_workers}"
            if self.max_workers == self.min_workers:
                return f"workers == {self.min_workers}"
            return f"{self.min_workers} <= workers <= {self.max_workers}"
        values = {
            "shape": self.shapes,
            "reduction": self.reductions,
            "backend": self.backends,
            "store": self.stores,
            "stateful": self.statefulness,
            "successors": self.successor_modes,
            "goal": self.goals,
        }[axis]
        return f"{axis} in {{{', '.join(map(repr, values))}}}"

    def nearest_plan(self, plan: CheckPlan) -> CheckPlan:
        """``plan`` with every unsupported axis replaced by a supported value.

        The result is guaranteed to satisfy :meth:`supports`, making it a
        concrete, runnable "nearest supported alternative" for diagnostics.
        """
        changes: Dict[str, object] = {}
        for axis in self.violations(plan):
            if axis == "workers":
                clamped = max(plan.workers, self.min_workers)
                if self.max_workers is not None:
                    clamped = min(clamped, self.max_workers)
                changes["workers"] = clamped
            elif axis == "shape":
                changes["shape"] = self.shapes[0]
            elif axis == "reduction":
                changes["reduction"] = self.reductions[0]
            elif axis == "backend":
                changes["backend"] = self.backends[0]
                if plan.backend == "swarm" and changes["backend"] != "swarm":
                    # The walk-budget axes only exist on the sampling
                    # backend; an exhaustive plan would reject them.
                    changes["walks"] = None
                    changes["walk_seed"] = None
            elif axis == "store":
                changes["store"] = self.stores[0]
                if plan.stateful and changes["store"] == "none":
                    # A "none"-only engine is stateless; follow it there.
                    changes["stateful"] = False
                elif not plan.stateful and changes["store"] != "none":
                    # A stateless plan's store is always "none", so a real
                    # store can only be reached by turning statefulness back
                    # on (CheckPlan.__post_init__ would otherwise revert the
                    # store fix and the "alternative" would equal the
                    # rejected plan).
                    changes["stateful"] = True
            elif axis == "stateful":
                changes["stateful"] = self.statefulness[0]
                if self.statefulness[0] and plan.store == "none":
                    # Re-entering statefulness needs a real store again.
                    changes["store"] = next(
                        kind for kind in self.stores if kind != "none"
                    )
            elif axis == "successors":
                changes["successors"] = self.successor_modes[0]
            elif axis == "goal":
                changes["goal"] = self.goals[0]
        return replace(plan, **changes)
