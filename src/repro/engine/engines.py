"""Concrete engines: thin adapters from :class:`CheckPlan` to the searches.

Each engine binds one execution backend to the search shapes, reductions,
stores and worker counts it genuinely supports, declared in a
:class:`~repro.engine.capabilities.Capabilities` descriptor.  The adapters
contain no policy — validation lives in the registry's plan resolution, and
the actual exploration in :mod:`repro.checker.search`,
:mod:`repro.parallel` and :mod:`repro.por`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..checker.property import Invariant
from ..checker.search import (
    Reducer,
    SearchOutcome,
    bfs_search,
    dfs_search,
    ndfs_search,
)
from ..mp.protocol import Protocol
from .capabilities import Capabilities
from .events import Observer
from .plan import CheckPlan, UnsupportedPlanError

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


class Engine:
    """Interface of a registered engine."""

    #: Registry key; also the ``engine`` column of result records.
    name: str = ""
    #: One-line description shown by ``python -m repro engines``.
    description: str = ""
    #: Declarative support matrix consulted by plan resolution.
    capabilities: Capabilities

    def run(
        self,
        protocol: Protocol,
        invariant: Invariant,
        plan: CheckPlan,
        observer: Optional[Observer] = None,
        telemetry=None,
    ) -> SearchOutcome:
        """Execute ``plan`` (already validated against ``capabilities``).

        ``telemetry`` is an optional
        :class:`~repro.obs.telemetry.RunTelemetry`; engines forward it to
        their search so phase spans and engine-specific metrics (store
        occupancy, memo behaviour, worker counters) are recorded.  ``None``
        costs nothing.
        """
        raise NotImplementedError


class SerialDfsEngine(Engine):
    """Single-process depth-first search, stateful or stateless, with or
    without a stubborn-set reduction, over object or packed states."""

    name = "serial-dfs"
    description = "serial DFS; supports the stubborn-set reductions and stateless mode"
    capabilities = Capabilities(
        shapes=("dfs",),
        reductions=("none", "spor", "spor-net"),
        backends=("serial",),
        stores=("full", "fingerprint", "sharded-fingerprint", "none"),
        statefulness=(True, False),
        successor_modes=("object", "fast"),
        min_workers=1,
        max_workers=1,
        notes={
            "workers": "the serial DFS runs in-process; request the "
            "worksteal backend (or backend='auto') for workers > 1",
        },
    )

    def run(self, protocol, invariant, plan, observer=None, telemetry=None):
        return dfs_search(protocol, invariant, plan,
                          reducer=make_reducer(protocol, plan),
                          observer=observer, telemetry=telemetry)


class SerialBfsEngine(Engine):
    """Single-process breadth-first search (shortest counterexamples)."""

    name = "serial-bfs"
    description = "serial BFS; stateful only, finds shortest counterexamples"
    capabilities = Capabilities(
        shapes=("bfs",),
        reductions=("none",),
        backends=("serial",),
        stores=_STATEFUL_STORES,
        statefulness=(True,),
        successor_modes=("object", "fast"),
        min_workers=1,
        max_workers=1,
        notes={
            "reduction": "the stubborn-set cycle proviso needs a DFS stack, "
            "so breadth-first search runs unreduced",
            "stateful": "breadth-first search deduplicates per level and is "
            "inherently stateful",
        },
    )

    def run(self, protocol, invariant, plan, observer=None, telemetry=None):
        return bfs_search(protocol, invariant, plan, observer=observer,
                          telemetry=telemetry)


class FrontierBfsEngine(Engine):
    """Level-synchronous frontier-parallel BFS: shard-owning workers that
    ship graph-native states to their owners, visited counts exactly equal
    to serial BFS, over object or packed states."""

    name = "frontier-bfs"
    description = "frontier-parallel BFS; shard-owning workers, serial-exact counts"
    capabilities = Capabilities(
        shapes=("bfs",),
        reductions=("none",),
        backends=("frontier",),
        stores=_STATEFUL_STORES,
        statefulness=(True,),
        successor_modes=("object", "fast"),
        min_workers=2,
        max_workers=None,
        requirements=("fork",),
        notes={
            "reduction": "the stubborn-set cycle proviso needs a DFS stack, "
            "so breadth-first search runs unreduced",
            "workers": "one worker has no frontier to share; backend='auto' "
            "picks the serial BFS instead",
        },
    )

    def run(self, protocol, invariant, plan, observer=None, telemetry=None):
        # Imported lazily: repro.parallel builds on the checker package.
        from ..parallel.bfs import parallel_bfs_search

        return parallel_bfs_search(protocol, invariant, plan,
                                   observer=observer, telemetry=telemetry)


class WorkstealDfsEngine(Engine):
    """Work-stealing parallel DFS: per-worker deques, a lock-striped shared
    claim table, subtree donation, over object or packed states."""

    name = "worksteal-dfs"
    description = ("work-stealing parallel DFS; drives the stubborn-set "
                   "reductions (dedup is fingerprint-based for every store)")
    capabilities = Capabilities(
        shapes=("dfs",),
        reductions=("none", "spor", "spor-net"),
        backends=("worksteal",),
        stores=_STATEFUL_STORES,
        statefulness=(True,),
        successor_modes=("object", "fast"),
        min_workers=2,
        max_workers=None,
        requirements=("fork",),
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
    )

    def run(self, protocol, invariant, plan, observer=None, telemetry=None):
        _reject_cyclic_worksteal_reduction(protocol, plan)
        # Imported lazily: repro.parallel builds on the checker package.
        from ..parallel.dfs import parallel_dfs_search

        return parallel_dfs_search(protocol, invariant, plan,
                                   reducer=make_reducer(protocol, plan),
                                   observer=observer, telemetry=telemetry)


class DporEngine(Engine):
    """Stateless dynamic partial-order reduction (the Basset DPOR baseline)."""

    name = "dpor"
    description = "stateless dynamic POR; serial by construction"
    capabilities = Capabilities(
        shapes=("dfs",),
        reductions=("dpor",),
        backends=("serial",),
        stores=("none",),
        statefulness=(False,),
        min_workers=1,
        max_workers=1,
        notes={
            "workers": "dynamic POR mutates backtrack sets up the serial "
            "DFS stack, so its subtrees cannot be donated to other workers; "
            "run DPOR with workers=1, or choose reduction='spor' for a "
            "work-stealing parallel search",
            "stateful": "DPOR is unsound with stateful exploration "
            "(Section III-A), so it always runs stateless",
        },
    )

    def run(self, protocol, invariant, plan, observer=None, telemetry=None):
        # Imported lazily to keep the layering acyclic.
        from ..por.dpor import DporSearch

        return DporSearch(protocol, plan).run(invariant, observer=observer,
                                              telemetry=telemetry)


#: Shared phrasing for the nested-DFS engines' liveness constraints.
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


class SerialNdfsEngine(Engine):
    """Nested-DFS acceptance-cycle detection (CVWY with Schwoon–Esparza
    early detection) over object or packed states; lasso counterexamples."""

    name = "serial-ndfs"
    description = ("serial nested DFS for liveness goals; lasso (stem + "
                   "cycle) counterexamples, unreduced")
    capabilities = Capabilities(
        shapes=("dfs",),
        reductions=("none",),
        backends=("serial",),
        stores=_STATEFUL_STORES,
        goals=("liveness",),
        statefulness=(True,),
        successor_modes=("object", "fast"),
        min_workers=1,
        max_workers=1,
        notes=_NDFS_NOTES,
    )

    def run(self, protocol, invariant, plan, observer=None, telemetry=None):
        return ndfs_search(protocol, invariant, plan, observer=observer,
                           telemetry=telemetry)


#: Shared capability notes of the swarm sampling engines.
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


class SwarmEngine(Engine):
    """Serial seeded random-walk sampler (swarm checking)."""

    name = "swarm"
    description = ("seeded random-walk sampler; conclusive on violations, "
                   "honestly inconclusive on exhausted walk budgets")
    capabilities = Capabilities(
        shapes=("dfs",),
        reductions=("none",),
        backends=("swarm",),
        stores=("none",),
        statefulness=(False,),
        successor_modes=("object", "fast"),
        min_workers=1,
        max_workers=1,
        auto_backend=False,
        notes=dict(_SWARM_NOTES, workers="the serial walker runs "
                   "in-process; workers > 1 runs the parallel walker pool"),
    )

    def run(self, protocol, invariant, plan, observer=None, telemetry=None):
        # Imported lazily: repro.swarm builds on the checker package.
        from ..swarm.search import swarm_search

        return swarm_search(protocol, invariant, plan, observer=observer,
                            telemetry=telemetry)


class ParallelSwarmEngine(Engine):
    """Parallel walker pool: the same walks, partitioned by index across a
    fork-based worker pool with a shared visited filter and early abort."""

    name = "swarm-parallel"
    description = ("parallel seeded walker pool; walk-index partition keeps "
                   "results identical to the serial walker")
    capabilities = Capabilities(
        shapes=("dfs",),
        reductions=("none",),
        backends=("swarm",),
        stores=("none",),
        statefulness=(False,),
        successor_modes=("object", "fast"),
        min_workers=2,
        max_workers=None,
        requirements=("fork",),
        auto_backend=False,
        notes=dict(_SWARM_NOTES, workers="walks are embarrassingly "
                   "parallel; per-walk seeding keeps the violating walk "
                   "index independent of the worker count"),
    )

    def run(self, protocol, invariant, plan, observer=None, telemetry=None):
        from ..swarm.search import parallel_swarm_search

        return parallel_swarm_search(protocol, invariant, plan,
                                     observer=observer, telemetry=telemetry)


def builtin_engines():
    """Fresh instances of every built-in engine, registration order.

    Every exhaustive search loop — serial, frontier, work-stealing — and
    the samplers run over either state graph (``successor_modes=("object",
    "fast")``), so ``successors`` is never an engine identity; only DPOR,
    whose search is its own object-graph loop, is object-only.
    """
    return (
        SerialDfsEngine(),
        SerialBfsEngine(),
        FrontierBfsEngine(),
        WorkstealDfsEngine(),
        DporEngine(),
        SerialNdfsEngine(),
        SwarmEngine(),
        ParallelSwarmEngine(),
    )
