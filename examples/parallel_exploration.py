#!/usr/bin/env python3
"""Parallel exploration: sharded frontier-parallel BFS and cell-parallel sweeps.

This example demonstrates both parallel axes of :mod:`repro.parallel`:

1. one cell explored breadth-first by shard-owning workers, with the
   visited-state count checked against the serial search (they are exactly
   equal — parallelism changes who expands a state, never whether), and
2. a grid of independent Table-I cells farmed across a process pool.

Run with::

    PYTHONPATH=src python examples/parallel_exploration.py

The same experiments are available from the shell::

    PYTHONPATH=src python -m repro check storage-3-1 --shape bfs --workers 4
    PYTHONPATH=src python -m repro sweep --cells all --workers 4
"""

from __future__ import annotations

import time

from repro import CellSpec, CheckPlan, run_cells, run_plan
from repro.protocols.catalog import storage_entry


def frontier_parallel_cell(workers: int = 4) -> None:
    """Explore one cell serially and with shard-owning workers.

    Both runs go through the plan layer: same shape, different worker
    count; plan resolution picks the serial vs frontier-parallel engine.
    """
    entry = storage_entry(3, 1)
    serial = run_plan(entry.quorum_model(), entry.invariant, CheckPlan(shape="bfs"))
    parallel = run_plan(
        entry.quorum_model(), entry.invariant,
        CheckPlan(shape="bfs", workers=workers),
    )
    print(f"{entry.description}: serial BFS visited "
          f"{serial.statistics.states_visited:,} states in "
          f"{serial.statistics.elapsed_seconds:.2f}s")
    print(f"{entry.description}: {workers}-worker BFS visited "
          f"{parallel.statistics.states_visited:,} states in "
          f"{parallel.statistics.elapsed_seconds:.2f}s")
    assert parallel.statistics.states_visited == serial.statistics.states_visited
    print("visited-state counts identical — the shard partition is exact\n")


def cell_parallel_sweep(workers: int = 4) -> None:
    """Sweep several independent cells through a process pool."""
    specs = [
        CellSpec(key="paxos-2-2-1"),
        CellSpec(key="multicast-3-0-1-1"),
        CellSpec(key="multicast-2-1-0-1"),
        CellSpec(key="storage-3-1"),
    ]
    started = time.perf_counter()
    serial_records = run_cells(specs, workers=1)
    serial_wall = time.perf_counter() - started
    started = time.perf_counter()
    pooled_records = run_cells(specs, workers=workers)
    pooled_wall = time.perf_counter() - started
    for record in pooled_records:
        outcome = "Verified" if record["verified"] else "CE"
        print(f"  {record['cell']:<22} {outcome:<9} "
              f"{record['states_visited']:,} states")
    print(f"serial loop: {serial_wall:.2f}s, {workers}-process pool: "
          f"{pooled_wall:.2f}s")
    assert [r["verified"] for r in serial_records] == [
        r["verified"] for r in pooled_records
    ]


if __name__ == "__main__":
    frontier_parallel_cell()
    cell_parallel_sweep()
