"""Shared infrastructure of the benchmark harness.

Every benchmark measures one *cell* of one of the paper's evaluation tables:
a protocol instance checked under one :class:`~repro.engine.CheckPlan`
through :func:`~repro.engine.run_plan`.  The measured wall
clock goes to pytest-benchmark; the state counts and verdicts are collected
in a session-wide registry and rendered as paper-style tables (printed and
written to ``benchmarks/results/``) when the session finishes.

Scale: the harness runs the paper's own protocol settings by default.  The
dynamic-POR baseline column is budget-capped (it is stateless and, exactly
as in the paper, does not terminate in reasonable time on the larger
instances); capped cells are marked with ``>=`` in the rendered table.
Set ``REPRO_BENCH_SCALE=small`` for a quick smoke run on reduced settings.
"""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.analysis.reporting import EvaluationTable, format_count, format_duration
from repro.checker.result import CheckResult
from repro.engine import CheckPlan

#: Budget for the stateless dynamic-POR baseline cells (per cell).
DPOR_MAX_SECONDS = float(os.environ.get("REPRO_DPOR_MAX_SECONDS", "25"))
DPOR_MAX_STATES = int(os.environ.get("REPRO_DPOR_MAX_STATES", "300000"))

#: Scale of the protocol settings: "paper" (default) or "small".
BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "paper")

RESULTS_DIR = Path(__file__).parent / "results"

#: The paper's headline configuration — static POR with necessary enabling
#: transitions — behind every SPOR column of the tables and ablations.
SPOR_NET = CheckPlan(reduction="spor-net")


class TableRegistry:
    """Collects per-cell results and renders the paper-style tables."""

    def __init__(self) -> None:
        #: table name -> (columns tuple, row label -> metadata + cells)
        self._tables: Dict[str, Dict] = {}

    def declare_table(self, name: str, columns: Tuple[str, ...]) -> None:
        self._tables.setdefault(name, {"columns": columns, "rows": defaultdict(dict)})

    def record(
        self,
        table: str,
        row: str,
        column: str,
        result: CheckResult,
        property_name: str,
    ) -> None:
        entry = self._tables[table]["rows"][row]
        entry.setdefault("property", property_name)
        entry.setdefault("cells", {})
        entry["cells"][column] = result

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def render_table(self, name: str) -> str:
        spec = self._tables[name]
        table = EvaluationTable(title=name, columns=list(spec["columns"]))
        for row_label, entry in spec["rows"].items():
            cells: Dict[str, CheckResult] = entry.get("cells", {})
            outcome = "-"
            if cells:
                outcome = "CE" if any(r.found_counterexample for r in cells.values()) else "Verified"
            row = table.new_row(row_label, entry.get("property", "-"), outcome)
            for column, result in cells.items():
                row.add_result(column, result)
        rendered = table.render()
        annotations = []
        for row_label, entry in spec["rows"].items():
            for column, result in entry.get("cells", {}).items():
                if not result.complete and not result.found_counterexample:
                    annotations.append(
                        f"  note: {row_label} / {column}: budget cap hit after "
                        f">={format_count(result.statistics.states_visited)} states, "
                        f"{format_duration(result.statistics.elapsed_seconds)}"
                    )
        if annotations:
            rendered += "\n" + "\n".join(annotations)
        return rendered

    def render_all(self) -> str:
        return "\n\n".join(self.render_table(name) for name in self._tables)

    @property
    def tables(self):
        return self._tables


_REGISTRY = TableRegistry()


@pytest.fixture(scope="session")
def table_registry() -> TableRegistry:
    """Session-wide registry the benchmark modules record their cells into."""
    return _REGISTRY


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """Protocol-setting scale: ``"paper"`` (default) or ``"small"``."""
    return BENCH_SCALE


def pytest_sessionfinish(session, exitstatus):
    """Write the assembled tables to benchmarks/results/ and echo them."""
    if not _REGISTRY.tables:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    rendered = _REGISTRY.render_all()
    (RESULTS_DIR / "evaluation_tables.txt").write_text(rendered + "\n")
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line("")
        for line in rendered.splitlines():
            reporter.write_line(line)
