"""Seed-transition heuristics for the stubborn-set construction.

The performance of a stubborn-set POR strongly depends on the *seed* (or
start) transition — the first transition put into the set (Section III-A).
The paper uses a hand-tuned "opposite transaction" heuristic: prefer
transitions that start a new protocol instance, or at least do not finish an
ongoing one, because executing such a transition "delays" the decision of
which instance a process pursues.  We implement that heuristic plus the
alternatives it is compared against in the discussion of Section V-B.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from ..mp.transition import Execution

#: A heuristic orders the candidate executions; the first one seeds the set.
#: It must be a function of the enabled *transitions*, never of the message
#: sets: the stubborn-set provider consults it once per distinct set of them.
SeedHeuristic = Callable[[Sequence[Execution]], Execution]


def _stable_key(execution: Execution) -> Tuple[str, str]:
    """Deterministic tie-breaking key."""
    return (execution.transition.name, execution.transition.process_id)


def opposite_transaction_seed(enabled: Sequence[Execution]) -> Execution:
    """The paper's heuristic: prefer instance-starting transitions.

    Ranking (best first): transitions annotated ``starts_instance``, then
    transitions that neither start nor finish an instance, then
    instance-finishing transitions; higher ``priority`` wins within a rank.
    """

    def rank(execution: Execution) -> Tuple[int, int, Tuple[str, str]]:
        annotation = execution.transition.annotation
        if annotation.starts_instance:
            tier = 0
        elif not annotation.finishes_instance:
            tier = 1
        else:
            tier = 2
        return (tier, -annotation.priority, _stable_key(execution))

    return min(enabled, key=rank)


def transaction_seed(enabled: Sequence[Execution]) -> Execution:
    """The opposite policy (the transaction heuristic of [5]): prefer
    transitions that finish an ongoing instance."""

    def rank(execution: Execution) -> Tuple[int, int, Tuple[str, str]]:
        annotation = execution.transition.annotation
        if annotation.finishes_instance:
            tier = 0
        elif not annotation.starts_instance:
            tier = 1
        else:
            tier = 2
        return (tier, -annotation.priority, _stable_key(execution))

    return min(enabled, key=rank)


def first_enabled_seed(enabled: Sequence[Execution]) -> Execution:
    """Baseline: pick the first enabled execution in deterministic order."""
    return min(enabled, key=_stable_key)


def make_fewest_dependents_seed(dependence) -> SeedHeuristic:
    """Prefer the transition with the fewest statically dependent transitions.

    Args:
        dependence: A :class:`repro.por.dependence.DependenceRelation`.
    """

    def heuristic(enabled: Sequence[Execution]) -> Execution:
        return min(
            enabled,
            key=lambda execution: (
                dependence.dependence_degree(execution.transition.name),
                _stable_key(execution),
            ),
        )

    return heuristic


_NAMED_HEURISTICS = {
    "opposite-transaction": opposite_transaction_seed,
    "transaction": transaction_seed,
    "first": first_enabled_seed,
}

#: Every name :func:`make_seed_heuristic` accepts.
SEED_HEURISTICS = tuple(_NAMED_HEURISTICS) + ("fewest-dependents",)


def make_seed_heuristic(name: str, dependence=None) -> SeedHeuristic:
    """Return a seed heuristic by name.

    Args:
        name: One of ``"opposite-transaction"``, ``"transaction"``,
            ``"first"`` or ``"fewest-dependents"``.
        dependence: Required for ``"fewest-dependents"``.
    """
    if name == "fewest-dependents":
        if dependence is None:
            raise ValueError("the fewest-dependents heuristic needs a dependence relation")
        return make_fewest_dependents_seed(dependence)
    try:
        return _NAMED_HEURISTICS[name]
    except KeyError:
        raise ValueError(
            f"unknown seed heuristic {name!r}; expected one of {sorted(SEED_HEURISTICS)}"
        ) from None
