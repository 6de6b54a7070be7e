"""Explicit-state model checking engine.

This package is the substrate the paper builds on (the JPF/Basset analogue):
state-space search (stateful and stateless), the one visited-state store
(:class:`StateStore`, a set of keys: exact states or fingerprints, as
:meth:`~repro.checker.stategraph.StateGraph.store_key` decides per store
kind), invariant properties, counterexamples and run statistics.  A run is
named by a :class:`repro.engine.CheckPlan` and executed by
:func:`repro.engine.run_plan`.
"""

from .counterexample import Counterexample, Step
from .property import (
    Eventually,
    Invariant,
    always_true,
    conjunction,
    goal_of,
    local_state_invariant,
)
from .result import (
    OUTCOME_LABELS,
    OUTCOMES,
    CheckResult,
    SearchStatistics,
    outcome_of,
)
from .search import (
    ReductionContext,
    Reducer,
    SearchOutcome,
    bfs_search,
    dfs_search,
    ndfs_search,
)
from .statestore import (
    STORE_KINDS,
    StateStore,
    make_state_store,
    mix_fingerprint,
    shard_of,
)

__all__ = [
    "CheckResult",
    "OUTCOMES",
    "OUTCOME_LABELS",
    "outcome_of",
    "Counterexample",
    "Eventually",
    "Invariant",
    "ReductionContext",
    "Reducer",
    "STORE_KINDS",
    "SearchOutcome",
    "SearchStatistics",
    "StateStore",
    "Step",
    "always_true",
    "bfs_search",
    "conjunction",
    "dfs_search",
    "goal_of",
    "local_state_invariant",
    "ndfs_search",
    "make_state_store",
    "mix_fingerprint",
    "shard_of",
]
