"""Parallel exploration subsystem.

Three orthogonal axes of parallelism for the paper's sweep-shaped
evaluation:

* :func:`parallel_bfs_search` — one Table-I cell explored breadth-first by
  several ``multiprocessing`` workers.  Each worker owns one shard of the
  fingerprint partition (:func:`~repro.checker.statestore.shard_of`),
  expands the frontier it owns, and ships each child of another shard to
  its owner as ``(state, parent fingerprint, execution index)`` at level
  barriers, so the visited set — and therefore the visited-state count —
  is exactly the serial breadth-first one.

* :func:`parallel_dfs_search` — one cell explored depth-first by a
  work-stealing pool: each worker runs its own DFS, donates unexplored
  sibling subtrees to a public deque, and idle workers steal from the tail
  of the busiest victim; a lock-striped shared claim table arbitrates which
  worker expands a state.  This is the engine that parallelises the
  *reduced* (stubborn-set) searches, which have no levels to barrier on.

Both loops are written once over the
:class:`~repro.checker.stategraph.StateGraph` seam, take the run's frozen
:class:`~repro.engine.plan.CheckPlan` (whose ``workers`` sizes the pool)
and run over object or packed states alike.  States cross a process
boundary in the graph's own representation: ``graph.share()`` before the
fork makes packed words valid in every worker (their interned ids follow
a shared log), and object states pickle by value.

* :func:`run_cells` — many independent Table-I cells farmed across a
  process pool.  Cells are described by picklable :class:`CellSpec` records
  (catalog key + model + scale + :class:`~repro.engine.plan.CheckPlan`);
  each pool worker rebuilds its protocol from the catalog, so this axis
  works under any multiprocessing start method.

Choosing an axis: cell-parallel sweeps scale embarrassingly over *many*
cells; frontier-parallel BFS attacks a single large *unreduced* cell whose
wide levels dwarf the barrier cost; work-stealing DFS attacks a single
large cell under a *reduction* (or any cell whose levels are too narrow to
feed a frontier), at the price of scheduling-dependent visited counts for
reduced runs.  A full table sweep should default to cell-parallelism and
reserve the in-cell engines for the cells dominating the wall clock.
"""

from .bfs import parallel_bfs_search
from .cells import CellSpec, run_cell, run_cells, specs_for_sweep
from .dfs import parallel_dfs_search
from .worker import default_mp_context
from .worksteal import StolenFrame, StripedClaimTable, WorkStealingDeques

__all__ = [
    "CellSpec",
    "StolenFrame",
    "StripedClaimTable",
    "WorkStealingDeques",
    "default_mp_context",
    "parallel_bfs_search",
    "parallel_dfs_search",
    "run_cell",
    "run_cells",
    "specs_for_sweep",
]
