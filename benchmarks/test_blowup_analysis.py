"""Section II-C — the interleaving blow-up of single-message encodings.

The paper's only quantitative claim outside the two tables is the analytical
bound of Section II-C: replacing a quorum transition consuming ``l`` messages
by single-message transitions blows the interleaving bound up from
``k! * k`` to ``(k + l)! * (k + l)``, a factor of at least ``(k + l)^2``
(169 for the smallest meaningful Paxos instance).  This module reproduces
the analytical numbers and pairs them with measured state counts: for a
sweep of small Paxos settings the unreduced state graph of the
single-message model is compared against the quorum model.
"""

from __future__ import annotations

import pytest

from repro.analysis.blowup import (
    blowup_factor,
    blowup_lower_bound,
    paxos_blowup_bound,
    paxos_smallest_instance_example,
)
from repro.engine import CheckPlan, run_plan
from repro.protocols.catalog import paxos_entry
from repro.protocols.paxos import PaxosConfig

TABLE = "Section II-C — single-message blow-up (measured, unreduced search)"
COLUMNS = ("Quorum model", "Single-message model")

SETTINGS = [
    PaxosConfig(1, 2, 1),
    PaxosConfig(1, 3, 1),
    PaxosConfig(2, 2, 1),
]
SETTING_IDS = [config.setting_label for config in SETTINGS]


def test_analytical_bounds(benchmark):
    """The closed-form numbers quoted in Section II-C."""

    def compute():
        example = paxos_smallest_instance_example()
        rows = []
        # Quorum transitions consume at least two messages; the paper's
        # (k + l)^2 lower bound is stated for that regime.
        for concurrent in range(1, 7):
            for quorum in range(2, 5):
                rows.append(
                    (
                        concurrent,
                        quorum,
                        blowup_factor(concurrent, quorum),
                        blowup_lower_bound(concurrent, quorum),
                    )
                )
        return example, rows

    example, rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    assert example.bound == 169
    for _concurrent, _quorum, factor, lower in rows:
        assert factor >= lower
    benchmark.extra_info["paxos_example_bound"] = example.bound


@pytest.mark.parametrize("config", SETTINGS, ids=SETTING_IDS)
def test_measured_blowup(benchmark, table_registry, config):
    """Measured counterpart: unreduced state counts, quorum vs single-message."""
    entry = paxos_entry(config.proposers, config.acceptors, config.learners)

    def measure():
        quorum = run_plan(entry.quorum_model(), entry.invariant, CheckPlan())
        single = run_plan(entry.single_model(), entry.invariant, CheckPlan())
        return quorum, single

    quorum, single = benchmark.pedantic(measure, rounds=1, iterations=1)
    table_registry.declare_table(TABLE, COLUMNS)
    table_registry.record(TABLE, f"Paxos {config.setting_label}", COLUMNS[0], quorum,
                          entry.invariant.name)
    table_registry.record(TABLE, f"Paxos {config.setting_label}", COLUMNS[1], single,
                          entry.invariant.name)

    measured_ratio = (
        single.statistics.states_visited / quorum.statistics.states_visited
    )
    benchmark.extra_info["quorum_states"] = quorum.statistics.states_visited
    benchmark.extra_info["single_states"] = single.statistics.states_visited
    benchmark.extra_info["measured_ratio"] = round(measured_ratio, 2)
    benchmark.extra_info["analytical_upper_bound"] = paxos_blowup_bound(config)

    # The measured blow-up must show the predicted direction and stay below
    # the (very loose) analytical worst case.
    assert single.statistics.states_visited >= quorum.statistics.states_visited
    assert measured_ratio <= paxos_blowup_bound(config)
