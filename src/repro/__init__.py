"""MP-Kit: efficient model checking of fault-tolerant distributed protocols.

A from-scratch Python reproduction of *"Efficient Model Checking of
Fault-Tolerant Distributed Protocols"* (Bokor, Kinder, Serafini, Suri —
DSN 2011).  The library provides:

* :mod:`repro.mp` — the MP modelling layer: message-passing protocols with
  guarded single-message and quorum transitions;
* :mod:`repro.checker` — an explicit-state model checker (stateful and
  stateless search, invariants, counterexamples);
* :mod:`repro.engine` — the composable engine layer: :class:`CheckPlan`
  (search shape × reduction × store × backend × workers), the engine table
  plans resolve against, with structured unsupported-plan diagnostics, and
  the progress/event observer API all engines feed;
* :mod:`repro.por` — partial-order reduction: a stubborn-set static POR with
  a pre-computed dependence relation (the MP-LPOR analogue) and a stateless
  dynamic POR baseline;
* :mod:`repro.refine` — transition refinement: quorum-split, reply-split and
  combined-split;
* :mod:`repro.protocols` — Paxos, regular storage, Echo Multicast and
  crash-recovery storage models in quorum and single-message variants, with
  fault-injected versions (the crash-recovery family is cyclic and carries
  liveness properties);
* :mod:`repro.analysis` — blow-up formulas, reduction metrics and table
  rendering for the benchmark harness.

Quickstart::

    from repro import (
        CheckPlan, run_plan,
        PaxosConfig, build_paxos_quorum, consensus_invariant,
    )

    protocol = build_paxos_quorum(PaxosConfig(proposers=1, acceptors=3, learners=1))
    result = run_plan(protocol, consensus_invariant(), CheckPlan(reduction="spor"))
    print(result.summary())
"""

# The engine layer loads first: its engines import checker.search, whose
# own import of engine.events must find the engine package initialising.
from .engine import (
    CheckPlan,
    CollectingObserver,
    Observer,
    ProgressPrinter,
    UnsupportedPlanError,
    default_registry,
    run_plan,
)
from .checker import (
    CheckResult,
    Counterexample,
    Eventually,
    Invariant,
    SearchStatistics,
    goal_of,
)
from .mp import (
    ActionContext,
    Execution,
    GlobalState,
    LporAnnotation,
    Message,
    Network,
    Protocol,
    ProtocolBuilder,
    QuorumSpec,
    SendSpec,
    TransitionSpec,
    exact_quorum,
    majority_of,
    single_message,
)
from .parallel import CellSpec, parallel_bfs_search, run_cells
from .por import DependenceRelation, DporSearch, StubbornSetProvider
from .protocols import (
    CrashRecoveryConfig,
    MulticastConfig,
    PaxosConfig,
    StorageConfig,
    agreement_invariant,
    build_crash_recovery_quorum,
    build_crash_recovery_single,
    build_faulty_paxos_quorum,
    build_faulty_paxos_single,
    build_multicast_quorum,
    build_multicast_single,
    build_paxos_quorum,
    build_paxos_single,
    build_storage_quorum,
    build_storage_single,
    consensus_invariant,
    default_catalog,
    durability_invariant,
    eventually_done,
    eventually_progress,
    regularity_invariant,
    wrong_regularity_invariant,
)
from .refine import (
    combined_split,
    compare_state_graphs,
    is_transition_refinement,
    quorum_split,
    reply_split,
)

__version__ = "1.0.0"

__all__ = [
    "ActionContext",
    "CellSpec",
    "CheckPlan",
    "CheckResult",
    "CollectingObserver",
    "Counterexample",
    "CrashRecoveryConfig",
    "Eventually",
    "Observer",
    "ProgressPrinter",
    "UnsupportedPlanError",
    "default_registry",
    "run_plan",
    "DependenceRelation",
    "DporSearch",
    "Execution",
    "GlobalState",
    "Invariant",
    "LporAnnotation",
    "Message",
    "MulticastConfig",
    "Network",
    "PaxosConfig",
    "Protocol",
    "ProtocolBuilder",
    "QuorumSpec",
    "SearchStatistics",
    "SendSpec",
    "StorageConfig",
    "StubbornSetProvider",
    "TransitionSpec",
    "agreement_invariant",
    "build_crash_recovery_quorum",
    "build_crash_recovery_single",
    "build_faulty_paxos_quorum",
    "build_faulty_paxos_single",
    "build_multicast_quorum",
    "build_multicast_single",
    "build_paxos_quorum",
    "build_paxos_single",
    "build_storage_quorum",
    "build_storage_single",
    "combined_split",
    "compare_state_graphs",
    "consensus_invariant",
    "default_catalog",
    "durability_invariant",
    "eventually_done",
    "eventually_progress",
    "exact_quorum",
    "goal_of",
    "is_transition_refinement",
    "majority_of",
    "parallel_bfs_search",
    "quorum_split",
    "regularity_invariant",
    "reply_split",
    "run_cells",
    "single_message",
    "wrong_regularity_invariant",
    "__version__",
]
