"""Cell-level parallel experiment runner.

The paper's Table I is a grid of independent cells — protocol instance ×
model variant × check plan — which makes a sweep embarrassingly parallel at
cell granularity.  A cell is a :class:`CellSpec`: a catalog key, a model
variant, a scale and the :class:`~repro.engine.plan.CheckPlan` to run.  It
holds only strings, numbers and a plan (itself strings and numbers), so it
pickles as it is: pool workers rebuild the protocol from the catalog key,
the (unpicklable) transition closures never cross a process boundary and
any multiprocessing start method works.

Every cell runs through :func:`repro.engine.registry.run_plan`, so the
records a sweep emits carry the resolved axes and engine name.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..analysis.aggregate import result_record
from ..engine.events import Observer
from ..engine.plan import CheckPlan
from ..engine.registry import run_plan
from ..protocols.catalog import CatalogEntry, default_catalog, entry_by_key

#: Model variants a catalog entry can be checked under.
MODELS = ("quorum", "single")


@dataclass(frozen=True)
class CellSpec:
    """One Table-I cell: which protocol to check, and the plan to check it by.

    Attributes:
        key: Catalog key of the protocol instance (see
            :func:`repro.protocols.catalog.default_catalog`).
        model: ``"quorum"`` or ``"single"``.
        scale: Catalog scale the key belongs to (``"small"`` / ``"paper"``).
        plan: The run; its ``goal`` axis picks the entry's invariant or its
            liveness property, and its ``workers`` axis is the *inner*
            worker count of the cell's own search.
    """

    key: str
    model: str = "quorum"
    scale: str = "small"
    plan: CheckPlan = CheckPlan()


def _resolve_entry(key: str, scale: str) -> CatalogEntry:
    entry = entry_by_key(key, scale)
    if entry is None:
        known = ", ".join(e.key for e in default_catalog(scale))
        raise KeyError(f"unknown catalog cell {key!r} (scale {scale!r}; known: {known})")
    return entry


def run_cell(spec: CellSpec, observer: Optional[Observer] = None) -> Dict:
    """Run one cell and return its JSON-able record.

    This is the pool-worker entry point; it is also what the serial path
    calls, so a cell behaves identically whether or not it was farmed out.
    The optional ``observer`` (serial path only — observers do not cross
    process boundaries) receives the engine-event stream of the cell's run.
    """
    entry = _resolve_entry(spec.key, spec.scale)
    if spec.model not in MODELS:
        raise ValueError(f"unknown model variant {spec.model!r} (expected one of {MODELS})")
    protocol = entry.quorum_model() if spec.model == "quorum" else entry.single_model()
    if spec.plan.goal == "liveness":
        if entry.liveness is None:
            raise ValueError(
                f"catalog entry {spec.key!r} carries no liveness property; "
                "only the crash-recovery family does"
            )
        prop = entry.liveness
        expect_violation = entry.expect_liveness_violation
    else:
        prop = entry.invariant
        expect_violation = entry.expect_violation
    started = time.perf_counter()
    result = run_plan(protocol, prop, spec.plan, observer=observer)
    wall_seconds = time.perf_counter() - started
    # A truncated search that found no counterexample proves nothing, so it
    # must not count as agreeing with the paper's expected outcome; a found
    # counterexample is conclusive evidence even when the search stopped at
    # it (stop-at-first-violation always reports complete=False).
    conclusive = result.complete or result.found_counterexample
    return result_record(
        result,
        cell=spec.key,
        model=spec.model,
        scale=spec.scale,
        expect_violation=expect_violation,
        ok=conclusive and result.found_counterexample == expect_violation,
        wall_seconds=wall_seconds,
    )


def run_cells(
    specs: Sequence[CellSpec],
    workers: Optional[int] = None,
    observer: Optional[Observer] = None,
) -> List[Dict]:
    """Run a batch of cells, optionally across a process pool.

    Args:
        specs: The cells to run.
        workers: Pool size; ``None``, 0 or 1 runs the cells serially in
            this process.  Results always come back in ``specs`` order.
        observer: Optional engine-event observer.  Observers are plain
            objects and cannot cross a process boundary, so attaching one
            forces the serial loop (every cell's events then arrive in
            ``specs`` order on one stream).

    Returns:
        One record per spec (see :func:`run_cell`).
    """
    specs = list(specs)
    if observer is not None or not workers or workers <= 1 or len(specs) <= 1:
        return [run_cell(spec, observer=observer) for spec in specs]
    if any(spec.plan.workers > 1 for spec in specs):
        # Pool workers are daemonic and cannot spawn the in-cell search
        # processes, so inner-parallel cells run in this process, one at a
        # time — the two axes compose as inner × outer, not inner ∧ outer.
        return [run_cell(spec) for spec in specs]
    with multiprocessing.get_context().Pool(min(workers, len(specs))) as pool:
        return pool.map(run_cell, specs)


def specs_for_sweep(
    keys: Optional[Iterable[str]] = None,
    scale: str = "small",
    models: Sequence[str] = ("quorum",),
    plan: CheckPlan = CheckPlan(),
) -> List[CellSpec]:
    """Build the cell grid of a sweep: every requested key × model variant.

    Every cell runs ``plan``.  ``keys=None`` sweeps the whole catalog at the
    given scale — restricted to the entries that carry a liveness property
    when ``plan.goal == "liveness"``.  The pool size of :func:`run_cells`
    remains the outer, cell-level axis; ``plan.workers`` is the inner one.
    """
    if keys is None:
        resolved = [
            entry.key
            for entry in default_catalog(scale)
            if plan.goal != "liveness" or entry.liveness is not None
        ]
    else:
        resolved = list(keys)
        for key in resolved:
            _resolve_entry(key, scale)
    return [
        CellSpec(key=key, model=model, scale=scale, plan=plan)
        for key in resolved
        for model in models
    ]
