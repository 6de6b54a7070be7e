"""The :class:`CheckPlan` — one model-checking run as explicit orthogonal axes.

The paper's evaluation (Table I / Appendix I) is a cross-product of choices
that are independent of each other: how the state space is walked (*shape*),
which partial-order reduction prunes it (*reduction*), how visited states
are remembered (*store*), and which execution backend drives the walk
(*backend*, with a *workers* count).  A plan names one point of that
cross-product; plan resolution (:mod:`repro.engine.registry`) maps it to
the engine implementing it — or raises a structured
:class:`UnsupportedPlanError` naming the offending axis when no engine can.

Plans are frozen and hashable, so they work as dictionary keys for sweeps
and conformance matrices.  Construction normalises the axes that are
determined by others (a stateless search has no store; DPOR is stateless by
definition) and rejects combinations that are contradictions rather than
merely unsupported (a stateful search with no store would never terminate
on a cyclic state graph).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from difflib import get_close_matches
from typing import Dict, Optional, Tuple

#: Search shapes: how the reachable state space is walked.
SHAPES = ("dfs", "bfs")

#: Partial-order reductions (``"none"`` is the unreduced baseline).
REDUCTIONS = ("none", "spor", "spor-net", "dpor")

#: Visited-state store kinds.  Deliberately a literal rather than an import
#: of ``repro.checker.statestore.STORE_KINDS`` (that import would cycle
#: through ``repro.checker.__init__`` back into this module);
#: tests/engine/test_plan.py pins the two vocabularies in lockstep.
STORES = ("full", "fingerprint", "sharded-fingerprint", "none")

#: Execution backends; ``"auto"`` lets plan resolution pick one from the
#: shape and worker count (serial for 1 worker, frontier/worksteal above).
#: ``"swarm"`` is the seeded random-walk sampler of :mod:`repro.swarm` —
#: never chosen by ``"auto"`` (sampling must be an explicit opt-in).
BACKENDS = ("auto", "serial", "frontier", "worksteal", "swarm")

#: Default walk budget for swarm plans that do not name one.
DEFAULT_WALKS = 1000

#: Default per-walk step bound for swarm plans that do not name one.  A walk
#: that has taken this many steps without violating is abandoned; unbounded
#: walks would never terminate on cyclic state graphs.
DEFAULT_WALK_DEPTH = 256

#: Successor-engine preference: the object-graph engine of
#: :mod:`repro.mp.semantics` or the packed fast path of
#: :mod:`repro.fastpath`.  An explicit axis (no "auto"): the
#: no-silent-downgrade contract means a plan asking for one engine family
#: never silently runs on the other.
SUCCESSOR_MODES = ("object", "fast")

#: Seed-transition heuristics of the stubborn-set reductions; a literal like
#: ``STORES``, pinned to ``repro.por.seed.SEED_HEURISTICS`` by test_plan.py.
SEED_HEURISTICS = ("opposite-transaction", "transaction", "first", "fewest-dependents")

#: Checking goals: ``"invariant"`` (a predicate must hold in every reachable
#: state) or ``"liveness"`` (an :class:`~repro.checker.property.Eventually`
#: goal must be reached on every maximal run; violations are accepting
#: cycles found by nested DFS).
GOALS = ("invariant", "liveness")

#: The orthogonal axes the engine table is declared over, in the order
#: violations are reported (most identity-defining axis first).
PLAN_AXES = ("goal", "reduction", "shape", "workers", "stateful",
             "successors", "backend", "store")


class UnsupportedPlanError(ValueError):
    """A plan names an axis combination no registered engine supports.

    Subclasses :class:`ValueError` so call sites may guard it as the plain
    bad-argument error it is.

    Attributes:
        axis: Name of the offending axis (one of :data:`PLAN_AXES`).
        value: The requested value of that axis.
        alternative: The nearest supported alternative — a :class:`CheckPlan`
            that resolves, or a plain axis value when no full plan applies
            (axis-vocabulary errors raised at construction time).
    """

    def __init__(self, axis: str, value, message: str, alternative=None) -> None:
        self.axis = axis
        self.value = value
        self.alternative = alternative
        super().__init__(message)

    def __reduce__(self):
        # The default exception reduction re-calls ``cls(*args)`` with only
        # the message, which TypeErrors on this 4-argument signature — and
        # an exception that cannot be unpickled deadlocks multiprocessing
        # pools trying to ship it back to the parent (run_cells workers).
        return (
            type(self),
            (self.axis, self.value, self.args[0], self.alternative),
        )


def _unknown_axis_value(axis: str, value, vocabulary: Tuple[str, ...]) -> UnsupportedPlanError:
    close = get_close_matches(str(value), vocabulary, n=1)
    alternative = close[0] if close else vocabulary[0]
    return UnsupportedPlanError(
        axis,
        value,
        f"unknown {axis} {value!r} (expected one of {', '.join(map(repr, vocabulary))}); "
        f"nearest supported alternative: {axis}={alternative!r}",
        alternative=alternative,
    )


@dataclass(frozen=True)
class CheckPlan:
    """One model-checking run, described axis by axis.

    Attributes:
        shape: ``"dfs"`` or ``"bfs"`` — how the state space is walked.
        reduction: ``"none"``, ``"spor"``, ``"spor-net"`` or ``"dpor"``.
        store: Visited-state store kind; forced to ``"none"`` for stateless
            plans (there is nothing to store).
        backend: ``"auto"`` (resolution picks serial / frontier / worksteal
            from shape and workers) or an explicit backend name.
        workers: Worker process count of the chosen backend; 1 is serial.
        stateful: Keep a visited-state store.  ``reduction="dpor"`` forces
            ``False`` — DPOR is unsound with stateful exploration
            (Section III-A of the paper).
        successors: ``"object"`` (the interned-object successor engine) or
            ``"fast"`` (the packed table-compiled fast path of
            :mod:`repro.fastpath`).  Verdicts and visited counts are
            identical between the two, on every engine but DPOR (object
            states only); the fast path has a several-fold smaller
            per-state constant.
        seed_heuristic: Seed-transition heuristic for the stubborn-set
            reductions; ignored by the others.
        max_depth / max_states / max_seconds: Exploration budgets.
        stop_at_first_violation: Stop at the first counterexample.
        goal: ``"invariant"`` or ``"liveness"`` — what kind of property the
            run checks.  Liveness plans are served by the nested-DFS
            engines; the goal must match the property object handed to
            :func:`repro.engine.registry.run_plan` (mismatches raise a
            structured error rather than silently checking the wrong
            semantics).
        walks: Walk budget for ``backend="swarm"`` — how many seeded random
            walks to run before giving up (defaulted to
            :data:`DEFAULT_WALKS` on swarm plans; rejected on every other
            backend).
        walk_seed: Root seed of a swarm run.  Every walk's private RNG
            stream is derived from ``(walk_seed, walk_index)`` via the
            splitmix64 mixer, so a run is bit-reproducible from this one
            number (defaulted to 0 on swarm plans; rejected elsewhere).
        chaos: Optional fault-plan spec (:mod:`repro.chaos`) injected into
            the parallel/swarm worker loops — deterministic worker
            crashes/stalls/slowdowns for exercising the recovery paths.
            ``None`` (the default) injects nothing; like the budgets this
            is a run knob, not a capability axis.
        supervise: Restart crashed parallel/swarm workers and re-execute
            their lost work deterministically.  ``False`` turns a worker
            death into a structured ``WorkerCrashError`` → honest
            ``Inconclusive (worker crash)`` instead.
        checkpoint_dir: Directory receiving level-barrier checkpoints
            (breadth-first shapes only).
        checkpoint_every: Checkpoint every N completed levels (defaults to
            every level when ``checkpoint_dir`` is set).
        resume_from: Checkpoint file (or directory → deepest checkpoint)
            to resume a breadth-first run from.
    """

    shape: str = "dfs"
    reduction: str = "none"
    store: str = "full"
    backend: str = "auto"
    workers: int = 1
    stateful: bool = True
    successors: str = "object"
    seed_heuristic: str = "opposite-transaction"
    max_depth: Optional[int] = None
    max_states: Optional[int] = None
    max_seconds: Optional[float] = None
    stop_at_first_violation: bool = True
    goal: str = "invariant"
    walks: Optional[int] = None
    walk_seed: Optional[int] = None
    chaos: Optional[str] = None
    supervise: bool = True
    checkpoint_dir: Optional[str] = None
    checkpoint_every: Optional[int] = None
    resume_from: Optional[str] = None

    def __post_init__(self) -> None:
        if self.goal not in GOALS:
            raise _unknown_axis_value("goal", self.goal, GOALS)
        if self.shape not in SHAPES:
            raise _unknown_axis_value("shape", self.shape, SHAPES)
        if self.reduction not in REDUCTIONS:
            raise _unknown_axis_value("reduction", self.reduction, REDUCTIONS)
        if self.store not in STORES:
            raise _unknown_axis_value("store", self.store, STORES)
        if self.backend not in BACKENDS:
            raise _unknown_axis_value("backend", self.backend, BACKENDS)
        if self.successors not in SUCCESSOR_MODES:
            raise _unknown_axis_value("successors", self.successors, SUCCESSOR_MODES)
        if self.seed_heuristic not in SEED_HEURISTICS:
            raise _unknown_axis_value("seed_heuristic", self.seed_heuristic, SEED_HEURISTICS)
        if not isinstance(self.workers, int) or self.workers < 1:
            raise UnsupportedPlanError(
                "workers",
                self.workers,
                f"workers must be a positive integer, got {self.workers!r}; "
                "nearest supported alternative: workers=1",
                alternative=1,
            )
        # Axis normalisation — values determined by other axes: DPOR is
        # stateless by definition, and a stateless search stores nothing.
        if self.reduction == "dpor" and self.stateful:
            object.__setattr__(self, "stateful", False)
        if not self.stateful and self.store != "none":
            object.__setattr__(self, "store", "none")
        if self.stateful and self.store == "none":
            raise UnsupportedPlanError(
                "store",
                "none",
                "store='none' contradicts stateful=True: a stateful search "
                "with no visited-state store would re-expand every state; "
                "nearest supported alternative: store='full' (or "
                "stateful=False for a genuinely storeless search)",
                alternative=replace(self, store="full"),
            )
        # Swarm normalisation.  Sampling keeps no exact visited-state store
        # (its probabilistic filter is coverage telemetry, not a store), so
        # swarm plans are stateless with store="none"; the walk budget and
        # root seed default in, and the per-walk step bound defaults when no
        # explicit max_depth was given.  Conversely, walk parameters on an
        # exhaustive backend are a contradiction, not merely unsupported.
        if self.backend == "swarm":
            if self.stateful:
                object.__setattr__(self, "stateful", False)
            if self.store != "none":
                object.__setattr__(self, "store", "none")
            if self.walks is None:
                object.__setattr__(self, "walks", DEFAULT_WALKS)
            if self.walk_seed is None:
                object.__setattr__(self, "walk_seed", 0)
            if self.max_depth is None:
                object.__setattr__(self, "max_depth", DEFAULT_WALK_DEPTH)
            if not isinstance(self.walks, int) or self.walks < 1:
                raise UnsupportedPlanError(
                    "backend",
                    "swarm",
                    f"walks must be a positive integer, got {self.walks!r}; "
                    f"nearest supported alternative: walks={DEFAULT_WALKS}",
                    alternative=replace(self, walks=DEFAULT_WALKS),
                )
            if not isinstance(self.walk_seed, int):
                raise UnsupportedPlanError(
                    "backend",
                    "swarm",
                    f"walk_seed must be an integer, got {self.walk_seed!r}; "
                    "nearest supported alternative: walk_seed=0",
                    alternative=replace(self, walk_seed=0),
                )
        elif self.walks is not None or self.walk_seed is not None:
            raise UnsupportedPlanError(
                "backend",
                self.backend,
                f"walks/walk_seed only apply to backend='swarm', not "
                f"backend={self.backend!r}; nearest supported alternative: "
                "backend='swarm'",
                alternative=replace(self, backend="swarm"),
            )

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def axes(self) -> Dict[str, object]:
        """The capability axes as a dict (for records and diagnostics)."""
        return {
            "shape": self.shape,
            "reduction": self.reduction,
            "store": self.store,
            "backend": self.backend,
            "workers": self.workers,
            "stateful": self.stateful,
            "successors": self.successors,
            "goal": self.goal,
        }

    def describe(self) -> str:
        """Compact one-line rendering: ``dfs/spor/full/worksteal+fast x4``.

        The successor mode and goal only appear when they depart from the
        defaults, keeping existing invariant/object renderings byte-stable.
        """
        suffix = f" x{self.workers}" if self.workers > 1 else ""
        fast = "+fast" if self.successors == "fast" else ""
        live = "+liveness" if self.goal == "liveness" else ""
        swarm = (
            f"+walks{self.walks}+seed{self.walk_seed}"
            if self.backend == "swarm"
            else ""
        )
        return (
            f"{self.shape}/{self.reduction}/{self.store}/{self.backend}"
            f"{fast}{live}{swarm}{suffix}"
        )

    def search_config(self) -> "CheckPlan":
        # The searches take the plan itself; this alias only keeps the
        # frozen calls in benchmarks/ledger/layers.py working until ROADMAP
        # item 8(b) moves them onto run_plan and deletes it.
        return self


def strategy_label(plan: CheckPlan) -> str:
    """The strategy string of a plan (``CheckResult.strategy``).

    The one-word label records, reports and tables key rows by: ``"bfs"``
    for breadth-first runs, otherwise the reduction name with ``"none"``
    spelled ``"unreduced"``.  Liveness runs are labelled by their
    algorithm, ``"ndfs"``, and sampling runs ``"swarm"``.
    """
    if plan.goal == "liveness":
        return "ndfs"
    if plan.backend == "swarm":
        return "swarm"
    if plan.shape == "bfs":
        return "bfs"
    return "unreduced" if plan.reduction == "none" else plan.reduction
