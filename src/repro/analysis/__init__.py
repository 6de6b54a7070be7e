"""Analysis helpers: the Section II-C blow-up formulas, reduction metrics,
paper-style table rendering used by the benchmark harness, and the
machine-readable record of a run that the CLI's ``--json`` writes."""

from .aggregate import result_record
from .blowup import (
    PaxosBlowupExample,
    blowup_factor,
    blowup_lower_bound,
    interleaving_state_bound,
    paxos_blowup_bound,
    paxos_smallest_instance_example,
    paxos_transition_count,
    single_message_state_bound,
)
from .comparison import ResultComparison, compare_results, reduction_percentage
from .reporting import EvaluationTable, TableRow, format_count, format_duration

__all__ = [
    "EvaluationTable",
    "PaxosBlowupExample",
    "ResultComparison",
    "TableRow",
    "blowup_factor",
    "result_record",
    "blowup_lower_bound",
    "compare_results",
    "format_count",
    "format_duration",
    "interleaving_state_bound",
    "paxos_blowup_bound",
    "paxos_smallest_instance_example",
    "paxos_transition_count",
    "reduction_percentage",
    "single_message_state_bound",
]
