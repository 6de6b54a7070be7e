"""Results and statistics of a model checking run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .counterexample import Counterexample

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.plan import CheckPlan

#: The three honest verdicts a check run can reach.  ``"verified"`` means
#: the whole (possibly reduced) state space was explored and no violation
#: exists; ``"violated"`` means a counterexample was found (conclusive even
#: when the search stopped at it); ``"inconclusive"`` means the search was
#: truncated by a budget before covering the space — the absence of a
#: counterexample proves nothing.
OUTCOMES = ("verified", "violated", "inconclusive")

#: Rendered labels per outcome, shared by every consumer (CLI check/sweep/
#: submit lines, result summaries) so a truncated run can never stringify
#: as a proof anywhere.
OUTCOME_LABELS = {
    "verified": "Verified",
    "violated": "CE",
    "inconclusive": "Inconclusive (budget hit)",
}


def outcome_label_for(outcome: str, incomplete_reason: Optional[str] = None) -> str:
    """Rendered label for an outcome, honouring a specific truncation reason.

    ``inconclusive`` defaults to the budget spelling (the overwhelmingly
    common cause), but a run that was cut short for another reason — a
    crashed worker the supervisor could not recover, a cancelled service
    job — renders that reason instead: ``Inconclusive (worker crash)``,
    ``Inconclusive (cancelled)``.  Conclusive outcomes ignore the reason.
    """
    if outcome == "inconclusive" and incomplete_reason:
        return f"Inconclusive ({incomplete_reason})"
    return OUTCOME_LABELS[outcome]


def outcome_of(verified: bool, complete: bool, found_counterexample: bool) -> str:
    """Derive the three-valued outcome from the raw verdict flags.

    A found counterexample is conclusive evidence regardless of
    completeness (stop-at-first-violation always reports
    ``complete=False``); a clean *and complete* search is a proof; a clean
    but truncated search is honest about proving nothing.
    """
    if found_counterexample or not verified:
        return "violated"
    if complete:
        return "verified"
    return "inconclusive"


@dataclass
class SearchStatistics:
    """Counters collected during state-space exploration.

    Attributes:
        states_visited: Number of distinct states stored (stateful search)
            or states expanded (stateless search).
        transitions_executed: Number of executed transitions (edges
            traversed, counting re-traversals).
        revisits: Number of times an already-visited state was reached
            again (stateful search only).
        max_depth: Edges on the deepest explored path: the deepest DFS
            stack reached, or the deepest level that discovered a state in
            a breadth-first search.  All engines count edges, so a search
            that never leaves the initial state reports 0.
        elapsed_seconds: Wall-clock duration of the search.
        enabled_set_computations: Number of enabled-execution computations;
            a proxy for the quorum-enumeration overhead of Section IV-A.
        reduced_expansions: Number of states where the reduction explored a
            strict subset of the enabled executions.
        full_expansions: Number of states expanded without reduction.
    """

    states_visited: int = 0
    transitions_executed: int = 0
    revisits: int = 0
    max_depth: int = 0
    elapsed_seconds: float = 0.0
    enabled_set_computations: int = 0
    reduced_expansions: int = 0
    full_expansions: int = 0

    def merge(self, other: "SearchStatistics") -> "SearchStatistics":
        """Return the component-wise sum of two statistics objects."""
        return SearchStatistics(
            states_visited=self.states_visited + other.states_visited,
            transitions_executed=self.transitions_executed + other.transitions_executed,
            revisits=self.revisits + other.revisits,
            max_depth=max(self.max_depth, other.max_depth),
            elapsed_seconds=self.elapsed_seconds + other.elapsed_seconds,
            enabled_set_computations=(
                self.enabled_set_computations + other.enabled_set_computations
            ),
            reduced_expansions=self.reduced_expansions + other.reduced_expansions,
            full_expansions=self.full_expansions + other.full_expansions,
        )


@dataclass
class CheckResult:
    """Outcome of one model checking run.

    Attributes:
        protocol_name: Name of the checked protocol instance.
        property_name: Name of the checked property.
        strategy: Name of the search strategy (unreduced / SPOR / DPOR ...).
        verified: True if no violation was found within the explored space.
        complete: True if the whole (possibly reduced) state space was
            explored; False when the search hit a bound or was stopped at
            the first violation.
        counterexample: A violating path, if one was found.
        statistics: Exploration counters.
        stateful: Whether visited states were stored.
        plan: The resolved :class:`~repro.engine.plan.CheckPlan` the run
            executed (None for results built outside the plan layer).
        engine: Name of the engine (its ``ENGINES`` row) that ran the plan.
        telemetry: JSON-able run report (metric snapshot, finished phase
            spans, peak RSS) produced by the observability layer; None for
            results built outside the plan layer.
        incomplete_reason: Why the run is incomplete, when the cause is not
            the ordinary budget: ``"worker crash"`` (unrecovered worker
            death), ``"cancelled"`` (service preemption).  ``None`` for
            complete runs and plain budget truncations.
    """

    protocol_name: str
    property_name: str
    strategy: str
    verified: bool
    complete: bool
    counterexample: Optional[Counterexample] = None
    statistics: SearchStatistics = field(default_factory=SearchStatistics)
    stateful: bool = True
    plan: Optional["CheckPlan"] = None
    engine: Optional[str] = None
    telemetry: Optional[dict] = None
    incomplete_reason: Optional[str] = None

    @property
    def found_counterexample(self) -> bool:
        """True if a property violation was found."""
        return self.counterexample is not None

    def outcome(self) -> str:
        """Three-valued verdict: ``verified`` / ``violated`` / ``inconclusive``.

        ``verified`` requires ``complete=True``: a run truncated by a
        ``max_states``/``max_seconds``/``max_depth`` budget that found no
        violation is ``inconclusive``, never a proof.
        """
        return outcome_of(self.verified, self.complete, self.found_counterexample)

    @property
    def conclusive(self) -> bool:
        """True when the verdict is a proof or a counterexample."""
        return self.outcome() != "inconclusive"

    def outcome_label(self) -> str:
        """Rendered label: ``Verified``, ``CE`` or ``Inconclusive (budget hit)``.

        Matches the paper's tables for conclusive runs; a budget-truncated
        clean run is labelled honestly instead of masquerading as
        ``Verified``.  Runs truncated by a worker crash or a cancellation
        render their specific reason (``Inconclusive (worker crash)`` /
        ``Inconclusive (cancelled)``).
        """
        return outcome_label_for(self.outcome(), self.incomplete_reason)

    def summary(self) -> str:
        """Return a one-line human-readable summary."""
        return (
            f"{self.protocol_name} | {self.property_name} | {self.strategy}: "
            f"{self.outcome_label()} — {self.statistics.states_visited} states, "
            f"{self.statistics.elapsed_seconds:.2f}s"
        )
