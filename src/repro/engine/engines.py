"""The engine table: one :class:`Engine` row per way of running a plan.

Each row names a search and lists, per plan axis, the values it accepts.
The set is fixed — serial DFS/BFS/nested DFS, DPOR, the two in-cell
parallel backends and the two swarm samplers — so it is a literal,
:data:`ENGINES`, not a registry.  The rows contain no policy: plan
resolution (:func:`repro.engine.registry.resolve`) reads them, and the
exploration lives in :mod:`repro.checker.search`, :mod:`repro.parallel`,
:mod:`repro.swarm` and :mod:`repro.por`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..checker.search import (
    Reducer,
    SearchOutcome,
    bfs_search,
    dfs_search,
    ndfs_search,
)
from ..mp.protocol import Protocol
from .plan import PLAN_AXES, CheckPlan, UnsupportedPlanError

#: Store kinds a genuinely stateful engine can use.
_STATEFUL_STORES = ("full", "fingerprint", "sharded-fingerprint")


def _reject_cyclic_worksteal_reduction(protocol: Protocol, plan: CheckPlan) -> None:
    """Refuse stubborn-set reduction on protocols with cyclic state graphs.

    The serial cycle proviso (por/stubborn.py) is a property of one DFS
    stack: on any cycle of the reduced graph, the first state popped saw a
    cycle successor still on its stack and expanded fully.  The
    work-stealing search has no such stack — a stolen frame's ancestor
    fingerprints cover only its own access path, and a cycle whose states
    are claimed by *different* workers is on no worker's path, so the
    ignoring problem could silently drop behaviours.  Protocols whose
    builders declare ``cyclic_state_graph=True`` in their metadata are
    therefore rejected (no silent unsoundness); unreduced work-stealing
    exploration is fine on cycles — the claim table deduplicates globally —
    which is exactly the alternative raised here.
    """
    if plan.reduction not in ("spor", "spor-net"):
        return
    if not protocol.metadata.get("cyclic_state_graph"):
        return
    raise UnsupportedPlanError(
        "reduction",
        plan.reduction,
        f"protocol {protocol.name!r} declares a cyclic state graph "
        "(metadata cyclic_state_graph=True), and the work-stealing DFS "
        "cannot enforce the stubborn-set ignoring-prevention proviso "
        "across workers (a cycle claimed by several workers is on no "
        "worker's stack); run the reduction serially (workers=1) or "
        "explore unreduced in parallel; nearest supported alternative: "
        "reduction='none'",
        alternative=replace(plan, reduction="none"),
    )


def make_reducer(protocol: Protocol, plan: CheckPlan) -> Optional[Reducer]:
    """Build the stubborn-set reducer a plan asks for (None when unreduced).

    DPOR is not a reducer in this sense — it is a whole search discipline —
    so ``reduction="dpor"`` also returns None; the DPOR engine drives
    :class:`repro.por.dpor.DporSearch` directly.
    """
    if plan.reduction not in ("spor", "spor-net"):
        return None
    # Imported lazily to keep the layering acyclic (por depends on mp only).
    from ..por.dependence import DependenceRelation
    from ..por.seed import make_seed_heuristic
    from ..por.stubborn import StubbornSetProvider

    dependence = DependenceRelation.precompute(protocol)
    heuristic = make_seed_heuristic(plan.seed_heuristic, dependence=dependence)
    provider = StubbornSetProvider(
        protocol=protocol,
        dependence=dependence,
        seed_heuristic=heuristic,
        use_net=plan.reduction == "spor-net",
    )
    return provider.reduce


#: Worker counts of an in-process row and of a multi-process one.  Plan
#: resolution refuses every PARALLEL row on platforms without ``fork``.
SERIAL = range(1, 2)
PARALLEL = range(2, sys.maxsize)


@dataclass(frozen=True, eq=False)
class Engine:
    """One row of :data:`ENGINES`: a search and the plan values it accepts.

    The axis fields (``shape`` ... ``goal``) carry the :class:`CheckPlan`
    attribute names, so a row accepts a plan when every axis of
    :data:`~repro.engine.plan.PLAN_AXES` holds a listed value.  The one
    exception is ``backend="auto"``, which every row accepts except the
    swarm samplers: swapping an exhaustive search for random walks changes
    what a verdict *means*, so sampling must be an explicit opt-in.

    Attributes:
        name: The ``engine`` column of result records.
        description: One line shown by ``python -m repro engines``.
        run: ``run(protocol, invariant, plan, observer, telemetry)``; calls
            the search on an already resolved plan.
        workers: :data:`SERIAL` or :data:`PARALLEL`.
        notes: Per-axis explanation of *why* a constraint exists, quoted
            verbatim in the :class:`UnsupportedPlanError` message.
    """

    name: str
    description: str
    run: Callable[..., SearchOutcome]
    shape: Tuple[str, ...]
    reduction: Tuple[str, ...]
    backend: Tuple[str, ...]
    store: Tuple[str, ...]
    stateful: Tuple[bool, ...]
    workers: range
    notes: Dict[str, str]
    successors: Tuple[str, ...] = ("object", "fast")
    goal: Tuple[str, ...] = ("invariant",)

    def takes(self, plan: CheckPlan, axis: str) -> bool:
        """True when ``plan``'s value of ``axis`` is one this row runs."""
        if axis == "backend" and plan.backend == "auto":
            return "swarm" not in self.backend
        return getattr(plan, axis) in getattr(self, axis)

    def accepts(self, plan: CheckPlan) -> bool:
        """True when this row takes every axis of ``plan``."""
        return all(self.takes(plan, axis) for axis in PLAN_AXES)

    def refused(self, plan: CheckPlan) -> List[str]:
        """The axes of ``plan`` this row refuses, most identity-defining first."""
        return [axis for axis in PLAN_AXES if not self.takes(plan, axis)]

    def describe(self, axis: str) -> str:
        """Human-readable rendering of the values one axis accepts."""
        if axis == "workers":
            relation = ">=" if self.workers == PARALLEL else "=="
            return f"workers {relation} {self.workers.start}"
        return f"{axis} in {{{', '.join(map(repr, getattr(self, axis)))}}}"


def _serial_dfs(protocol, invariant, plan, observer, telemetry):
    return dfs_search(protocol, invariant, plan,
                      reducer=make_reducer(protocol, plan),
                      observer=observer, telemetry=telemetry)


def _serial_bfs(protocol, invariant, plan, observer, telemetry):
    return bfs_search(protocol, invariant, plan, observer=observer,
                      telemetry=telemetry)


def _frontier_bfs(protocol, invariant, plan, observer, telemetry):
    # Imported lazily: repro.parallel builds on the checker package.
    from ..parallel.bfs import parallel_bfs_search

    return parallel_bfs_search(protocol, invariant, plan,
                               observer=observer, telemetry=telemetry)


def _worksteal_dfs(protocol, invariant, plan, observer, telemetry):
    _reject_cyclic_worksteal_reduction(protocol, plan)
    from ..parallel.dfs import parallel_dfs_search

    return parallel_dfs_search(protocol, invariant, plan,
                               reducer=make_reducer(protocol, plan),
                               observer=observer, telemetry=telemetry)


def _dpor(protocol, invariant, plan, observer, telemetry):
    # Imported lazily to keep the layering acyclic.
    from ..por.dpor import DporSearch

    return DporSearch(protocol, plan).run(invariant, observer=observer,
                                          telemetry=telemetry)


def _serial_ndfs(protocol, invariant, plan, observer, telemetry):
    return ndfs_search(protocol, invariant, plan, observer=observer,
                       telemetry=telemetry)


def _swarm(protocol, invariant, plan, observer, telemetry):
    # Imported lazily: repro.swarm builds on the checker package.
    from ..swarm.search import swarm_search

    return swarm_search(protocol, invariant, plan, observer=observer,
                        telemetry=telemetry)


def _swarm_parallel(protocol, invariant, plan, observer, telemetry):
    from ..swarm.search import parallel_swarm_search

    return parallel_swarm_search(protocol, invariant, plan,
                                 observer=observer, telemetry=telemetry)


#: Shared phrasing for the BFS rows' reduction constraint.
_BFS_UNREDUCED = ("the stubborn-set cycle proviso needs a DFS stack, so "
                  "breadth-first search runs unreduced")

#: Shared phrasing for the nested-DFS row's liveness constraints.
_NDFS_NOTES = {
    "goal": "nested DFS checks acceptance-cycle (liveness) properties; "
    "invariant plans are served by the plain DFS/BFS engines",
    "reduction": "the stubborn-set cycle proviso is defined over a single "
    "DFS stack, and the nested search walks the graph twice with different "
    "stacks, so liveness checking runs unreduced",
    "shape": "acceptance-cycle detection is a depth-first algorithm (the "
    "cyan stack *is* the candidate cycle)",
    "workers": "the blue/red phases share their colouring, which has no "
    "sound work-stealing split; nested DFS runs serially",
    "stateful": "the blue/red marks are the algorithm — nested DFS is "
    "stateful by construction",
}

#: Shared notes of the swarm sampling rows.
_SWARM_NOTES = {
    "reduction": "partial-order reduction prunes interleavings assuming the "
    "survivors are explored exhaustively; under random sampling that "
    "assumption fails, so reduced sampling could miss violations plain "
    "sampling would find — swarm walks run unreduced",
    "store": "swarm keeps no exact visited-state store (its probabilistic "
    "filter is coverage telemetry, never a pruning structure), so plans are "
    "stateless with store='none'",
    "stateful": "walks revisit states freely by design; there is no "
    "stateful swarm mode",
    "shape": "a random walk is a depth-first probe; request shape='dfs'",
    "goal": "sampling can witness an invariant violation but cannot close "
    "an accepting cycle soundly; liveness goals need the nested-DFS engines",
    "backend": "the swarm backend is never chosen by backend='auto': "
    "sampling trades completeness for reach and must be an explicit opt-in",
}

#: Every engine, in resolution order: a plan runs on the first row that
#: accepts all of its axes.  Every exhaustive loop and both samplers run
#: over either state graph, so ``successors`` is never an engine identity;
#: only DPOR, whose search is its own object-graph loop, is object-only.
ENGINES: Tuple[Engine, ...] = (
    Engine(
        name="serial-dfs",
        description="serial DFS; supports the stubborn-set reductions and "
        "stateless mode",
        run=_serial_dfs,
        shape=("dfs",),
        reduction=("none", "spor", "spor-net"),
        backend=("serial",),
        store=_STATEFUL_STORES + ("none",),
        stateful=(True, False),
        workers=SERIAL,
        notes={
            "workers": "the serial DFS runs in-process; request the "
            "worksteal backend (or backend='auto') for workers > 1",
        },
    ),
    Engine(
        name="serial-bfs",
        description="serial BFS; stateful only, finds shortest counterexamples",
        run=_serial_bfs,
        shape=("bfs",),
        reduction=("none",),
        backend=("serial",),
        store=_STATEFUL_STORES,
        stateful=(True,),
        workers=SERIAL,
        notes={
            "reduction": _BFS_UNREDUCED,
            "stateful": "breadth-first search deduplicates per level and is "
            "inherently stateful",
        },
    ),
    Engine(
        name="frontier-bfs",
        description="frontier-parallel BFS; shard-owning workers, "
        "serial-exact counts",
        run=_frontier_bfs,
        shape=("bfs",),
        reduction=("none",),
        backend=("frontier",),
        store=_STATEFUL_STORES,
        stateful=(True,),
        workers=PARALLEL,
        notes={
            "reduction": _BFS_UNREDUCED,
            "workers": "one worker has no frontier to share; backend='auto' "
            "picks the serial BFS instead",
        },
    ),
    Engine(
        name="worksteal-dfs",
        description="work-stealing parallel DFS; drives the stubborn-set "
        "reductions (dedup is fingerprint-based for every store)",
        run=_worksteal_dfs,
        shape=("dfs",),
        reduction=("none", "spor", "spor-net"),
        backend=("worksteal",),
        store=_STATEFUL_STORES,
        stateful=(True,),
        workers=PARALLEL,
        notes={
            "store": "the shared claim table arbitrating worker expansions "
            "is fingerprint-based regardless of the store kind (the exact "
            "store has no shared-memory analogue), so store='full' keeps "
            "the legacy semantics but carries the standard bit-state "
            "collision trade-off; run workers=1 for exact-store dedup",
            "stateful": "the work-stealing DFS deduplicates via a shared "
            "claim table, which has no stateless mode; run stateless "
            "searches with workers=1",
            "reduction": "dynamic POR mutates backtrack sets up the serial "
            "DFS stack, so its subtrees cannot be donated to other workers; "
            "stubborn-set reductions are additionally refused on protocols "
            "declaring cyclic_state_graph=True (the cross-worker ignoring "
            "problem) — explore those unreduced or serially",
            "workers": "one worker has nothing to steal from; backend='auto' "
            "picks the serial DFS instead",
        },
    ),
    Engine(
        name="dpor",
        description="stateless dynamic POR; serial by construction",
        run=_dpor,
        shape=("dfs",),
        reduction=("dpor",),
        backend=("serial",),
        store=("none",),
        stateful=(False,),
        workers=SERIAL,
        successors=("object",),
        notes={
            "workers": "dynamic POR mutates backtrack sets up the serial "
            "DFS stack, so its subtrees cannot be donated to other workers; "
            "run DPOR with workers=1, or choose reduction='spor' for a "
            "work-stealing parallel search",
            "stateful": "DPOR is unsound with stateful exploration "
            "(Section III-A), so it always runs stateless",
        },
    ),
    Engine(
        name="serial-ndfs",
        description="serial nested DFS for liveness goals; lasso (stem + "
        "cycle) counterexamples, unreduced",
        run=_serial_ndfs,
        shape=("dfs",),
        reduction=("none",),
        backend=("serial",),
        store=_STATEFUL_STORES,
        stateful=(True,),
        workers=SERIAL,
        goal=("liveness",),
        notes=_NDFS_NOTES,
    ),
    Engine(
        name="swarm",
        description="seeded random-walk sampler; conclusive on violations, "
        "honestly inconclusive on exhausted walk budgets",
        run=_swarm,
        shape=("dfs",),
        reduction=("none",),
        backend=("swarm",),
        store=("none",),
        stateful=(False,),
        workers=SERIAL,
        notes=dict(_SWARM_NOTES, workers="the serial walker runs "
                   "in-process; workers > 1 runs the parallel walker pool"),
    ),
    Engine(
        name="swarm-parallel",
        description="parallel seeded walker pool; walk-index partition keeps "
        "results identical to the serial walker",
        run=_swarm_parallel,
        shape=("dfs",),
        reduction=("none",),
        backend=("swarm",),
        store=("none",),
        stateful=(False,),
        workers=PARALLEL,
        notes=dict(_SWARM_NOTES, workers="walks are embarrassingly "
                   "parallel; per-walk seeding keeps the violating walk "
                   "index independent of the worker count"),
    ),
)
