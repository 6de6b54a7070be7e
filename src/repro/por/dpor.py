"""Stateless dynamic partial-order reduction (the Basset DPOR baseline).

The paper's Table I baseline runs Basset's dynamic POR [13] (Flanagan and
Godefroid) over single-message models with stateless search, because DPOR is
unsound with stateful exploration (Section III-A).  This module implements a
persistent-set style DPOR in that spirit:

* the search keeps no visited-state store (it only breaks cycles on the
  current path), so states are revisited along different interleavings;
* backtrack points are added at the deepest earlier stack entry whose
  executed transition is dependent with a currently enabled one;
* dependence between executions is taken from the same pre-computed,
  state-unconditional relation the static reduction uses.  A fully dynamic
  happens-before analysis would prune slightly more, so the reduction
  reported here is a conservative lower bound for DPOR — which only
  strengthens the paper's comparison, where DPOR on single-message models
  loses to quorum models with SPOR on large state spaces.

Backtracking is organised per process (the classical formulation); choosing
a process explores every enabled execution of that process in the state,
which keeps the exploration exhaustive when a process has several enabled
(non-deterministic) executions.

Like every other search, :class:`DporSearch` is configured by the run's
frozen :class:`~repro.engine.plan.CheckPlan` (a ``reduction="dpor"`` plan,
stateless by normalisation): budgets, ``stop_at_first_violation`` and the
engine cache bound are read off it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from ..checker.counterexample import Counterexample, Step
from ..checker.property import Invariant
from ..checker.result import SearchStatistics
from ..checker.search import SearchOutcome
from ..engine.events import PROGRESS_INTERVAL, Observer, emit
from ..engine.plan import CheckPlan
from ..mp.protocol import Protocol
from ..mp.semantics import SuccessorEngine
from ..mp.state import GlobalState
from ..mp.transition import Execution
from .dependence import DependenceRelation


class _StopSearch(Exception):
    """Internal: unwind the recursion once a counterexample was found."""


@dataclass
class _Entry:
    """One entry of the DPOR stack."""

    state: GlobalState
    enabled: Tuple[Execution, ...]
    enabled_processes: frozenset
    backtrack: Set[str] = field(default_factory=set)
    done: Set[str] = field(default_factory=set)
    chosen: Optional[Execution] = None


class DporSearch:
    """Stateless search with dynamic backtrack-point insertion."""

    def __init__(
        self,
        protocol: Protocol,
        config: Optional[CheckPlan] = None,
        dependence: Optional[DependenceRelation] = None,
        engine: Optional[SuccessorEngine] = None,
    ) -> None:
        self.protocol = protocol
        self.config = config or CheckPlan(reduction="dpor")
        self.dependence = dependence or DependenceRelation.precompute(protocol)
        if engine is not None and engine.protocol is not protocol:
            raise ValueError("successor engine was built for a different protocol")
        # Stateless search revisits states along every interleaving, so the
        # interned-state engine with its enabled/successor caches is what
        # keeps the per-visit cost at a few dictionary lookups.  The config
        # may bound the caches (LRU) for instances whose reachable set is
        # too large to retain in full.
        self.engine = engine or SuccessorEngine(
            protocol, max_cache_entries=self.config.engine_cache_capacity
        )
        self._stack: List[_Entry] = []
        self._path_states: Set[GlobalState] = set()
        self._statistics = SearchStatistics()
        self._invariant: Optional[Invariant] = None
        self._observer: Optional[Observer] = None
        self._counterexample: Optional[Counterexample] = None
        self._complete = True
        self._start_time = 0.0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self, invariant: Invariant,
            observer: Optional[Observer] = None,
            telemetry=None) -> SearchOutcome:
        """Explore the protocol and check ``invariant`` in every visited state.

        The optional ``observer`` receives periodic ``progress`` ticks
        (every :data:`~repro.engine.events.PROGRESS_INTERVAL` expanded
        states) plus ``violation-found`` events.  The optional
        ``telemetry`` (a :class:`~repro.obs.telemetry.RunTelemetry`)
        receives end-of-run reduction counters.
        """
        self._invariant = invariant
        self._observer = observer
        self._statistics = SearchStatistics()
        self._counterexample = None
        self._complete = True
        self._stack = []
        self._path_states = set()
        self._start_time = time.perf_counter()

        initial = self.engine.initial_state()
        self._statistics.states_visited = 1
        verified = True
        try:
            if not invariant.holds_in(initial, self.protocol):
                verified = False
                self._counterexample = Counterexample(
                    initial_state=initial, steps=(), property_name=invariant.name
                )
                emit(self._observer, "violation-found",
                     states_visited=1, depth=0)
                if self.config.stop_at_first_violation:
                    raise _StopSearch
            self._path_states.add(initial)
            self._explore(initial)
        except _StopSearch:
            verified = False
            self._complete = False

        if self._counterexample is not None:
            verified = False
        self._statistics.elapsed_seconds = time.perf_counter() - self._start_time
        if telemetry is not None:
            telemetry.record_reduction(self._statistics)
        # run_dfs's rule: a violation leaves the search incomplete only when
        # it stops there, and stopping (_StopSearch) already cleared the flag.
        return SearchOutcome(
            verified=verified,
            complete=self._complete,
            counterexample=self._counterexample,
            statistics=self._statistics,
        )

    # ------------------------------------------------------------------ #
    # Core recursion
    # ------------------------------------------------------------------ #
    def _dependent(self, first: Execution, second: Execution) -> bool:
        return self.dependence.dependent(first.transition.name, second.transition.name)

    def _out_of_budget(self) -> bool:
        if self.config.max_seconds is not None:
            if time.perf_counter() - self._start_time > self.config.max_seconds:
                return True
        if self.config.max_states is not None:
            if self._statistics.states_visited >= self.config.max_states:
                return True
        return False

    def _record_violation(self, final_execution: Execution, final_state: GlobalState) -> None:
        steps = [
            Step(execution=entry.chosen, state=self._stack[index + 1].state)
            for index, entry in enumerate(self._stack[:-1])
            if entry.chosen is not None
        ]
        # The loop above pairs each entry's chosen execution with the state of
        # the *next* stack entry; the final executed step is appended here.
        steps.append(Step(execution=final_execution, state=final_state))
        self._counterexample = Counterexample(
            initial_state=self._stack[0].state if self._stack else final_state,
            steps=tuple(steps),
            property_name=self._invariant.name if self._invariant else "invariant",
        )
        emit(self._observer, "violation-found",
             states_visited=self._statistics.states_visited,
             depth=len(self._counterexample.steps))

    def _explore(self, state: GlobalState, depth: int = 0) -> None:
        if self._out_of_budget():
            self._complete = False
            return
        if self.config.max_depth is not None and depth >= self.config.max_depth:
            self._complete = False
            return

        enabled = self.engine.enabled(state)
        self._statistics.enabled_set_computations += 1
        if not enabled:
            return

        # Dynamic backtrack-point insertion: every enabled execution that is
        # dependent with an earlier executed transition forces a backtrack
        # point at the deepest such stack entry.
        for execution in enabled:
            process = execution.process_id
            for entry in reversed(self._stack):
                if entry.chosen is None:
                    continue
                if entry.chosen.process_id == process:
                    # Same-process ordering is already explored in program order.
                    break
                if self._dependent(entry.chosen, execution):
                    if process in entry.enabled_processes:
                        entry.backtrack.add(process)
                    else:
                        entry.backtrack |= set(entry.enabled_processes)
                    break

        entry = _Entry(
            state=state,
            enabled=enabled,
            enabled_processes=frozenset(execution.process_id for execution in enabled),
        )
        entry.backtrack.add(sorted(entry.enabled_processes)[0])
        self._stack.append(entry)
        try:
            while True:
                candidates = sorted(entry.backtrack - entry.done)
                if not candidates:
                    break
                process = candidates[0]
                entry.done.add(process)
                for execution in entry.enabled:
                    if execution.process_id != process:
                        continue
                    entry.chosen = execution
                    successor = self.engine.successor(state, execution)
                    self._statistics.transitions_executed += 1
                    self._statistics.states_visited += 1
                    self._statistics.max_depth = max(self._statistics.max_depth, depth + 1)
                    if (self._observer is not None
                            and self._statistics.states_visited % PROGRESS_INTERVAL == 0):
                        emit(self._observer, "progress",
                             states_visited=self._statistics.states_visited,
                             transitions_executed=self._statistics.transitions_executed)

                    if not self._invariant.holds_in(successor, self.protocol):
                        self._record_violation(execution, successor)
                        if self.config.stop_at_first_violation:
                            raise _StopSearch

                    if successor in self._path_states:
                        # Cycle on the current path: do not recurse.
                        self._statistics.revisits += 1
                        continue
                    self._path_states.add(successor)
                    try:
                        self._explore(successor, depth + 1)
                    finally:
                        self._path_states.discard(successor)
        finally:
            self._stack.pop()

    # ------------------------------------------------------------------ #
    # Introspection helpers (used by tests)
    # ------------------------------------------------------------------ #
    @property
    def statistics(self) -> SearchStatistics:
        """Statistics of the last run."""
        return self._statistics
