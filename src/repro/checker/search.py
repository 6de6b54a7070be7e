"""State-space search engines.

The depth-first search below supports the four configurations used in the
paper's evaluation:

* stateful unreduced search (the regular-storage baseline of Table I),
* stateful search with a static partial-order reduction (SPOR, both tables),
* stateless search (the mode required by dynamic POR; the DPOR-specific
  exploration lives in :mod:`repro.por.dpor` and reuses the primitives here),
* bounded variants of all of the above for debugging.

A *reducer* is a callable that picks the subset of enabled executions to
explore in a state (the stubborn set).  The search hands it a
:class:`ReductionContext` exposing the successor function and the current
DFS stack so the reducer can apply the cycle (stack) proviso.

Every loop here is written once, over the
:class:`~repro.checker.stategraph.StateGraph` seam: ``run_dfs`` /
``run_bfs`` / ``run_ndfs`` take a graph, and the ``*_search`` entry points
(and :mod:`repro.fastpath.search`'s ``fast_*_search``) only choose which
graph — interned objects or packed words — the loop runs over.  Every one
of them is configured by the frozen :class:`~repro.engine.plan.CheckPlan`
itself (its ``config`` argument): the loops read the store, budgets and
checkpoint knobs straight off the plan.  Which engine honours which fault
knob is decided once, by plan resolution; the loops never refuse one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, List, Optional

from ..engine.events import PROGRESS_INTERVAL, Observer, emit, maybe_span
from ..engine.plan import CheckPlan
from ..mp.protocol import Protocol
from .counterexample import Counterexample, Step
from .property import Invariant
from .result import SearchStatistics
from .stategraph import (
    ReductionContext,
    Reducer,
    StateGraph,
    make_graph,
    replay_parents,
    replay_path,
)
from .statestore import identity

__all__ = [
    "ReductionContext",
    "Reducer",
    "SearchOutcome",
    "bfs_search",
    "dfs_search",
    "ndfs_search",
    "run_bfs",
    "run_dfs",
    "run_ndfs",
]


@dataclass
class SearchOutcome:
    """Raw outcome of a search, converted to a CheckResult by ``run_plan``.

    ``incomplete_reason`` distinguishes *why* an incomplete search stopped
    when the cause is not an ordinary budget: ``"worker crash"`` for an
    unrecovered worker death (partial statistics are still reported),
    ``"cancelled"`` for a preempted service job.  ``None`` otherwise.
    """

    verified: bool
    complete: bool
    counterexample: Optional[Counterexample]
    statistics: SearchStatistics
    incomplete_reason: Optional[str] = None


class _Frame:
    """One entry of an explicit DFS stack, over any graph's states.

    ``successors`` is the frame's execution -> successor memo: allocated
    only when a reducer expands the frame (it fills it with the successors
    the proviso check computed, so expansion reuses them) and freed with
    the frame.
    """

    __slots__ = ("state", "via", "pending", "next_index", "successors")

    def __init__(self, state, via=None, pending=()) -> None:
        self.state = state
        self.via = via
        self.pending = pending
        self.next_index = 0
        self.successors = None


def _path_from_stack(graph: StateGraph, stack: List[_Frame], final,
                     property_name: str, extra: Iterable[_Frame] = (),
                     cycle_start: Optional[int] = None) -> Counterexample:
    """Decode the path along the DFS stack (+ ``extra`` frames + the final
    ``(execution, state)`` step, when given) into a counterexample."""
    decode, execution_of = graph.decode, graph.execution_of
    steps = [Step(execution=execution_of(frame.via), state=decode(frame.state))
             for frame in chain(stack[1:], extra)]
    if final is not None:
        execution, state = final
        steps.append(Step(execution=execution_of(execution), state=decode(state)))
    return Counterexample(initial_state=decode(stack[0].state), steps=tuple(steps),
                          property_name=property_name, cycle_start=cycle_start)


def dfs_search(
    protocol: Protocol,
    invariant: Invariant,
    config: Optional[CheckPlan] = None,
    reducer: Optional[Reducer] = None,
    engine=None,
    observer: Optional[Observer] = None,
    telemetry=None,
) -> SearchOutcome:
    """Explore the state space depth-first and check an invariant.

    Args:
        protocol: The protocol instance to explore.
        invariant: The invariant to check in every reachable state.
        config: The plan; defaults to exhaustive stateful search.
        reducer: Optional partial-order reducer; ``None`` explores every
            enabled execution (unreduced search).
        engine: Optional pre-built successor engine of the kind
            ``config.successors`` names (e.g. to share caches across
            several searches of the same protocol).
        observer: Optional event observer; receives periodic ``progress``
            ticks and ``violation-found`` events.
        telemetry: Optional :class:`~repro.obs.telemetry.RunTelemetry`;
            receives store-occupancy metrics at phase boundaries (never
            written per state).

    Returns:
        A :class:`SearchOutcome` with verdict, counterexample and statistics.
    """
    config = config or CheckPlan()
    graph = make_graph(protocol, config, engine, telemetry, stateful=config.stateful)
    return run_dfs(graph, invariant, config, reducer, observer, telemetry)


def run_dfs(
    graph: StateGraph,
    invariant: Invariant,
    config: CheckPlan,
    reducer: Optional[Reducer] = None,
    observer: Optional[Observer] = None,
    telemetry=None,
) -> SearchOutcome:
    """The depth-first loop of :func:`dfs_search`, over any graph."""
    statistics = SearchStatistics()
    start_time = time.perf_counter()

    stateful = config.stateful
    store = graph.make_store(config.store) if stateful else None
    holds = graph.invariant_checker(invariant)
    enabled_of, successor_of, key = graph.enabled, graph.successor, graph.exact_key
    max_seconds, max_states, max_depth = (
        config.max_seconds, config.max_states, config.max_depth
    )

    initial = graph.initial
    if stateful:
        store_add = store.add
        store_add(initial)
    statistics.states_visited = 1

    counterexample: Optional[Counterexample] = None
    verified = True
    complete = True

    def finish() -> SearchOutcome:
        statistics.elapsed_seconds = time.perf_counter() - start_time
        if telemetry is not None:
            telemetry.record_store(store)
            graph.record(telemetry)
        return SearchOutcome(
            verified=verified,
            complete=complete and verified if config.stop_at_first_violation else complete,
            counterexample=counterexample,
            statistics=statistics,
        )

    if not holds(initial):
        counterexample = Counterexample(initial_state=graph.decode(initial), steps=(),
                                        property_name=invariant.name)
        verified = False
        emit(observer, "violation-found", states_visited=1, depth=0)
        if config.stop_at_first_violation:
            return finish()

    on_stack = {key(initial)}
    reduce = None if reducer is None else graph.make_reduce(reducer, on_stack)

    def expand(frame: _Frame) -> None:
        """Set the (possibly reduced) executions to explore from a frame."""
        enabled = enabled_of(frame.state)
        statistics.enabled_set_computations += 1
        if reduce is None or len(enabled) <= 1:
            statistics.full_expansions += 1
            frame.pending = enabled
            return
        frame.successors = {}
        frame.pending = reduce(frame.state, enabled, frame.successors)
        if len(frame.pending) < len(enabled):
            statistics.reduced_expansions += 1
        else:
            statistics.full_expansions += 1

    root = _Frame(initial)
    expand(root)
    stack: List[_Frame] = [root]

    while stack:
        if max_seconds is not None:
            if time.perf_counter() - start_time > max_seconds:
                complete = False
                break
        frame = stack[-1]
        if frame.next_index >= len(frame.pending):
            stack.pop()
            on_stack.discard(key(frame.state))
            continue
        execution = frame.pending[frame.next_index]
        frame.next_index += 1

        memo = frame.successors
        successor = memo.get(execution) if memo else None
        if successor is None:
            successor = successor_of(frame.state, execution)
        statistics.transitions_executed += 1

        if stateful:
            if not store_add(successor):
                statistics.revisits += 1
                continue
            statistics.states_visited += 1
        else:
            if key(successor) in on_stack:
                statistics.revisits += 1
                continue
            statistics.states_visited += 1
        if observer is not None and statistics.states_visited % PROGRESS_INTERVAL == 0:
            emit(observer, "progress", states_visited=statistics.states_visited,
                 transitions_executed=statistics.transitions_executed)

        if not holds(successor):
            verified = False
            counterexample = _path_from_stack(graph, stack, (execution, successor),
                                              invariant.name)
            emit(observer, "violation-found",
                 states_visited=statistics.states_visited, depth=len(stack))
            if config.stop_at_first_violation:
                complete = False
                break

        if max_states is not None and statistics.states_visited >= max_states:
            complete = False
            break
        if max_depth is not None and len(stack) > max_depth:
            complete = False
            continue

        child = _Frame(successor, execution)
        expand(child)
        stack.append(child)
        on_stack.add(key(successor))
        statistics.max_depth = max(statistics.max_depth, len(stack) - 1)

    return finish()


def bfs_search(
    protocol: Protocol,
    invariant: Invariant,
    config: Optional[CheckPlan] = None,
    engine=None,
    observer: Optional[Observer] = None,
    telemetry=None,
) -> SearchOutcome:
    """Breadth-first stateful search; finds shortest counterexamples.

    Partial-order reduction is not supported here (the cycle proviso relies
    on a DFS stack); the breadth-first engine exists for debugging, where a
    shortest violating path is often easier to read.  The optional
    ``observer`` receives one ``level-completed`` event per frontier level
    plus ``violation-found`` events.
    """
    config = config or CheckPlan()
    graph = make_graph(protocol, config, engine, telemetry)
    return run_bfs(graph, invariant, config, observer, telemetry)


def run_bfs(
    graph: StateGraph,
    invariant: Invariant,
    config: CheckPlan,
    observer: Optional[Observer] = None,
    telemetry=None,
) -> SearchOutcome:
    """The breadth-first loop of :func:`bfs_search`, over any graph.

    Its one table is the frontier engine's: ``parents`` maps the store key
    (:meth:`~repro.checker.stategraph.StateGraph.store_key`) of every
    visited state to ``None`` (the initial state) or ``(parent key,
    execution index)``.  It is the visited set, the checkpoint's parent
    edges and, through :func:`~repro.checker.stategraph.replay_parents`,
    the counterexample, so a fingerprint store keeps no state beyond the
    frontier.  Checkpoints are written in the graph-neutral format of
    :mod:`repro.checker.checkpoint` (object states + execution-index
    edges, through ``graph.decode`` / ``graph.encode``), so a run may be
    resumed over a different graph than the one that wrote it.
    """
    statistics = SearchStatistics()
    start_time = time.perf_counter()

    key = graph.store_key(config.store)
    # A state that is its own key is looked up as it is, with no call.
    keyed = key is not identity
    holds = graph.invariant_checker(invariant)
    enabled_of, successor_of, decode = graph.enabled, graph.successor, graph.decode
    initial = graph.initial
    checkpointing = config.checkpoint_dir is not None

    if config.resume_from is not None:
        from .checkpoint import resume_checkpoint

        resumed = resume_checkpoint(config.resume_from, decode(initial))
        states = [graph.encode(state) for state in resumed.states]
        keys = [key(state) for state in states]
        parents = {
            state_key: None if edge is None else (keys[edge[0]], edge[1])
            for state_key, edge in zip(keys, resumed.edges)
        }
        frontier = [states[index] for index in resumed.frontier]
        # Every visited state, in discovery order; kept only for checkpoints.
        discovered = states if checkpointing else []
        statistics = resumed.statistics
        statistics.states_visited = len(parents)
        depth = resumed.depth
        # Shift the clock back so elapsed/budget accounting spans the
        # whole run, not just the resumed leg.
        start_time = time.perf_counter() - statistics.elapsed_seconds
        # The loaded object-form states are not needed past this point.
        del resumed, states, keys
    else:
        statistics.states_visited = 1
        parents = {key(initial): None}
        discovered = [initial]
        frontier = [initial]
        depth = 0

    counterexample: Optional[Counterexample] = None
    verified = True
    complete = True
    peak_frontier = max(1, len(frontier))
    checkpoint_interval = max(1, config.checkpoint_every or 1)

    def write_level_checkpoint() -> None:
        from .checkpoint import write_level

        statistics.elapsed_seconds = time.perf_counter() - start_time
        path = write_level(
            config.checkpoint_dir, depth, statistics,
            [decode(state) for state in discovered],
            [key(state) for state in discovered], parents.__getitem__,
            map(key, frontier), {"property": invariant.name, "engine": "bfs"},
        )
        emit(observer, "checkpoint-written", depth=depth,
             states_visited=statistics.states_visited, path=path)

    def finish() -> SearchOutcome:
        statistics.elapsed_seconds = time.perf_counter() - start_time
        if telemetry is not None:
            telemetry.record_store(parents)
            graph.record(telemetry)
            telemetry.metrics.gauge(
                "frontier_peak", "largest BFS frontier level"
            ).set(peak_frontier)
        return SearchOutcome(verified=verified, complete=complete,
                             counterexample=counterexample, statistics=statistics)

    if config.resume_from is None and not holds(initial):
        emit(observer, "violation-found", states_visited=1, depth=0)
        verified = complete = False
        counterexample = replay_path(graph, (), invariant.name)
        return finish()

    while frontier:
        if config.max_seconds is not None:
            if time.perf_counter() - start_time > config.max_seconds:
                complete = False
                break
        if config.max_depth is not None and depth >= config.max_depth:
            complete = False
            break
        next_frontier = []
        for state in frontier:
            state_key = key(state) if keyed else state
            enabled = enabled_of(state)
            statistics.enabled_set_computations += 1
            statistics.full_expansions += 1
            for exec_index, execution in enumerate(enabled):
                successor = successor_of(state, execution)
                statistics.transitions_executed += 1
                successor_key = key(successor) if keyed else successor
                if successor_key in parents:
                    statistics.revisits += 1
                    continue
                parents[successor_key] = (state_key, exec_index)
                statistics.states_visited += 1
                if not holds(successor):
                    verified = False
                    # The first violation found is on the shallowest level.
                    if counterexample is None:
                        counterexample = replay_parents(
                            graph, parents, successor_key, invariant.name)
                    emit(observer, "violation-found",
                         states_visited=statistics.states_visited, depth=depth + 1)
                    if config.stop_at_first_violation:
                        complete = False
                        return finish()
                if config.max_states is not None and statistics.states_visited >= config.max_states:
                    complete = False
                    next_frontier = []
                    statistics.max_depth = max(statistics.max_depth, depth + 1)
                    break
                next_frontier.append(successor)
            else:
                continue
            break
        frontier = next_frontier
        peak_frontier = max(peak_frontier, len(frontier))
        depth += 1
        # Count only levels that discovered states: ``max_depth`` is the
        # depth (in edges) of the deepest state found, matching the DFS
        # engines; the final empty level is bookkeeping, not depth.
        if frontier:
            statistics.max_depth = max(statistics.max_depth, depth)
            emit(observer, "level-completed", depth=depth,
                 new_states=len(frontier),
                 states_visited=statistics.states_visited)
            if checkpointing:
                # Discovery order is level order, so the checkpoint's state
                # list costs one extend per level, nothing per state.
                discovered.extend(frontier)
                if depth % checkpoint_interval == 0:
                    write_level_checkpoint()

    return finish()


def ndfs_search(
    protocol: Protocol,
    prop,
    config: Optional[CheckPlan] = None,
    engine=None,
    observer: Optional[Observer] = None,
    telemetry=None,
) -> SearchOutcome:
    """Nested depth-first search for acceptance cycles (liveness checking).

    Checks an :class:`~repro.checker.property.Eventually` goal (or any
    duck-typed property exposing ``prunes``/``accepting`` hooks) with the
    classic CVWY nested DFS as refined by Schwoon–Esparza: a *blue* DFS
    explores the reachable graph, keeping the current stack *cyan*; when an
    accepting state is about to be popped (postorder), a *red* DFS searches
    its closure for a cyan state, which closes an accepting cycle through
    the stack.  The blue phase additionally reports a violation early when
    an edge hits a cyan state and either endpoint is accepting — for
    ``Eventually`` goals (where every non-pruned state is accepting) that
    early check alone finds every cycle, and the red phase only fires for
    generic acceptance predicates.

    Semantics of a violation: a *lasso* (stem + cycle) along which the goal
    never holds, or — under stutter-extension semantics — a terminal
    accepting state (the run ends without reaching the goal; encoded as an
    empty cycle).  States satisfying the goal prune their subtrees: the
    monitor automaton for ``not eventually p`` dies at a ``p``-state.

    Partial-order reduction is not supported: the stubborn-set cycle
    proviso is a property of one DFS stack, and the nested search walks the
    graph twice with different stacks (plan resolution refuses reduced
    liveness plans).  The search is stateful by construction (blue/red
    marks are the algorithm), so ``config.stateful`` must be True; the
    store kind chooses between exact state keys (``"full"``) and
    fingerprint keys (``"fingerprint"`` / ``"sharded-fingerprint"``, the
    usual collision trade-off).

    Always stops at the first violation (one lasso is a complete refutation;
    ``stop_at_first_violation=False`` does not change that).
    """
    config = config or CheckPlan()
    graph = make_graph(protocol, config, engine, telemetry)
    return run_ndfs(graph, prop, config, observer, telemetry)


def run_ndfs(
    graph: StateGraph,
    prop,
    config: CheckPlan,
    observer: Optional[Observer] = None,
    telemetry=None,
) -> SearchOutcome:
    """The nested-DFS loops of :func:`ndfs_search`, over any graph.

    The blue/cyan/red marks are kept over the store kind's key
    (:meth:`~repro.checker.stategraph.StateGraph.store_key`); only the
    violating lasso is decoded.
    """
    if not config.stateful:
        raise ValueError(
            "nested DFS is stateful by construction (the blue/red marks "
            "are the algorithm); config.stateful must be True"
        )
    statistics = SearchStatistics()
    start_time = time.perf_counter()

    protocol = graph.protocol
    network_sensitive = getattr(prop, "network_sensitive", True)
    prunes = graph.predicate(
        lambda state: prop.prunes(state, protocol), network_sensitive
    )
    accepting = graph.predicate(
        lambda state: prop.accepting(state, protocol), network_sensitive
    )
    key = graph.store_key(config.store)
    enabled_of, successor_of = graph.enabled, graph.successor

    def expand(state):
        enabled = enabled_of(state)
        statistics.enabled_set_computations += 1
        statistics.full_expansions += 1
        return enabled

    initial = graph.initial
    discovered = {key(initial)}
    statistics.states_visited = 1
    cyan = {key(initial)}
    blue = set()
    red = set()
    complete = True

    def finish(verified: bool, is_complete: bool,
               counterexample: Optional[Counterexample]) -> SearchOutcome:
        statistics.elapsed_seconds = time.perf_counter() - start_time
        if telemetry is not None:
            graph.record(telemetry)
            telemetry.record_store(discovered)
            telemetry.metrics.gauge(
                "ndfs_red_states", "states marked red by the nested search"
            ).set(len(red))
        return SearchOutcome(verified, is_complete, counterexample, statistics)

    if prunes(initial):
        # The goal already holds initially; every run satisfies it.
        return finish(True, True, None)

    def lasso(stack: List[_Frame], final, extra: List[_Frame],
              cycle_key) -> Counterexample:
        """Build a lasso counterexample: blue-stack stem (+ optional red-path
        frames) + the closing edge; the cycle starts where ``cycle_key``
        first appears on the blue stack."""
        cycle_start = next(
            index for index, frame in enumerate(stack)
            if key(frame.state) == cycle_key
        )
        return _path_from_stack(graph, stack, final, prop.name, extra, cycle_start)

    def stutter(stack: List[_Frame], final) -> Counterexample:
        """A terminal accepting state: a lasso with an empty cycle."""
        length = len(stack) - 1 + (final is not None)
        return _path_from_stack(graph, stack, final, prop.name, cycle_start=length)

    def red_search(stack: List[_Frame]) -> Optional[Counterexample]:
        """Red DFS from the accepting seed at the top of the blue stack,
        looking for any cyan state (which closes a cycle through the
        stack).  Red marks persist across seeds, keeping the nested search
        linear overall."""
        seed = stack[-1]
        red_stack = [_Frame(seed.state, pending=expand(seed.state))]
        while red_stack:
            if config.max_seconds is not None:
                if time.perf_counter() - start_time > config.max_seconds:
                    return None  # caller notices the elapsed budget
            frame = red_stack[-1]
            if frame.next_index >= len(frame.pending):
                red_stack.pop()
                continue
            execution = frame.pending[frame.next_index]
            frame.next_index += 1
            successor = successor_of(frame.state, execution)
            statistics.transitions_executed += 1
            skey = key(successor)
            if skey in cyan:
                return lasso(stack, (execution, successor),
                             red_stack[1:], skey)
            if skey in red:
                continue
            if skey not in discovered:
                discovered.add(skey)
                statistics.states_visited = len(discovered)
            red.add(skey)
            if prunes(successor):
                # Dead monitor: no accepting run continues through here.
                continue
            red_stack.append(
                _Frame(successor, execution, pending=expand(successor))
            )
        red.add(key(seed.state))
        return None

    root = _Frame(initial, pending=expand(initial))
    stack: List[_Frame] = [root]
    if not root.pending and accepting(initial):
        emit(observer, "violation-found", states_visited=1, depth=0)
        return finish(False, False, stutter(stack, None))

    while stack:
        if config.max_seconds is not None:
            if time.perf_counter() - start_time > config.max_seconds:
                return finish(True, False, None)
        frame = stack[-1]
        if frame.next_index >= len(frame.pending):
            if accepting(frame.state):
                with maybe_span(telemetry, "red-phase", stack_depth=len(stack)):
                    counterexample = red_search(stack)
                if counterexample is not None:
                    emit(observer, "violation-found",
                         states_visited=statistics.states_visited,
                         depth=len(stack))
                    return finish(False, False, counterexample)
                if config.max_seconds is not None:
                    if time.perf_counter() - start_time > config.max_seconds:
                        return finish(True, False, None)
            stack.pop()
            cyan.discard(key(frame.state))
            blue.add(key(frame.state))
            continue
        execution = frame.pending[frame.next_index]
        frame.next_index += 1

        successor = successor_of(frame.state, execution)
        statistics.transitions_executed += 1
        skey = key(successor)

        if skey in cyan and (accepting(frame.state) or accepting(successor)):
            # Early (blue-phase) detection: the edge closes a cycle through
            # the cyan stack and the cycle contains an accepting state.
            emit(observer, "violation-found",
                 states_visited=statistics.states_visited, depth=len(stack))
            return finish(False, False,
                          lasso(stack, (execution, successor), [], skey))
        if skey in blue or skey in cyan:
            statistics.revisits += 1
            continue
        if skey not in discovered:
            discovered.add(skey)
            statistics.states_visited = len(discovered)
            if observer is not None and statistics.states_visited % PROGRESS_INTERVAL == 0:
                emit(observer, "progress",
                     states_visited=statistics.states_visited,
                     transitions_executed=statistics.transitions_executed)
        if prunes(successor):
            # Goal reached: the monitor dies, the subtree needs no visit.
            blue.add(skey)
            continue
        if config.max_states is not None and statistics.states_visited >= config.max_states:
            return finish(True, False, None)
        if config.max_depth is not None and len(stack) > config.max_depth:
            complete = False
            continue

        child = _Frame(successor, execution, pending=expand(successor))
        if not child.pending and accepting(successor):
            # Terminal state that never reached the goal: under
            # stutter-extension semantics the run loops here forever.
            emit(observer, "violation-found",
                 states_visited=statistics.states_visited, depth=len(stack))
            return finish(False, False, stutter(stack, (execution, successor)))
        stack.append(child)
        cyan.add(skey)
        statistics.max_depth = max(statistics.max_depth, len(stack) - 1)

    return finish(True, complete, None)
