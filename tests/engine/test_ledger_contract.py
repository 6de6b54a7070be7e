"""The benchmark ledger's direct calls into ``src/``, held to ``run_plan``.

``benchmarks/ledger/layers.py`` is frozen, and its traced pass does not go
through ``run_plan`` everywhere: it drives ``dfs_search`` /
``fast_dfs_search`` itself (with ``resolved.search_config()`` and a timed
reducer), and replays each layer's public functions over a state sample.
A change to those entry points would otherwise surface only in a full
traced ledger run.  Each call below runs on ``multicast-2-1-0-1`` and must
see the states and outcome ``run_plan`` reports for the same plan.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro import CheckPlan, run_plan

LEDGER_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"
if str(LEDGER_DIR) not in sys.path:
    sys.path.insert(0, str(LEDGER_DIR))

import layers  # noqa: E402  (the ledger's modules import each other by name)
import workloads as wl  # noqa: E402

CELL, MODEL = "multicast-2-1-0-1", "quorum"


def reference(op_spec):
    protocol, invariant = wl.build_protocol(op_spec)
    return run_plan(protocol, invariant, CheckPlan(**op_spec["plan"]))


def assert_same_run(outcome, expected):
    assert outcome.verified == expected.verified
    assert outcome.complete == expected.complete
    assert outcome.statistics.states_visited == expected.statistics.states_visited
    assert (outcome.statistics.transitions_executed
            == expected.statistics.transitions_executed)


@pytest.mark.parametrize("successors", ["object", "fast"])
def test_tracer_drives_the_reduced_search_like_run_plan(successors):
    op_spec = wl.op(f"contract.spor-net.{successors}", CELL, MODEL, shape="dfs",
                    reduction="spor-net", successors=successors)
    protocol, invariant = wl.build_protocol(op_spec)
    tracer = layers.Tracer()
    traced = tracer(op_spec, protocol, invariant, CheckPlan(**op_spec["plan"]))
    expected = reference(op_spec)
    assert traced.outcome() == expected.outcome()
    assert_same_run(traced, expected)
    # The direct call really ran the wrapped reducer, not run_plan's own.
    reducer = tracer.ops[op_spec["id"]]["reducer"]
    assert 0 < reducer.kept <= reducer.enabled


def test_telemetry_overhead_runs_the_fingerprint_search_like_run_plan(monkeypatch):
    import repro.fastpath.search as fast_search

    op_spec = wl.op("contract.fast.dfs", CELL, MODEL, shape="dfs",
                    store="fingerprint", successors="fast")
    outcomes = []
    search = fast_search.fast_dfs_search

    def recording(*args, **kwargs):
        outcomes.append(search(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(fast_search, "fast_dfs_search", recording)
    assert layers._telemetry_overhead(op_spec) > 0
    expected = reference(op_spec)
    assert len(outcomes) == 2  # bare, then with a RunTelemetry attached
    for outcome in outcomes:
        assert_same_run(outcome, expected)


@pytest.mark.parametrize("engine_kind", ["object", "fast"])
def test_reducer_replay_samples_the_whole_cell(engine_kind):
    # 50 exceeds the cell's reachable set, so the sample is all of it.
    totals = layers.replay_cell(CELL, MODEL, engine_kind, wl.PINNED_SEED,
                                with_reducer=True, sample=50)
    unreduced = reference(wl.op("contract.unreduced", CELL, MODEL))
    assert totals["states"] == unreduced.statistics.states_visited
    assert totals["executions"] == unreduced.statistics.transitions_executed
    assert 0 < totals["reduce_calls"] <= totals["states"]


def test_resolve_timing_goes_through_the_default_registry_alias(monkeypatch):
    import repro.engine.registry as registry

    ops = [wl.op("contract.resolve.dfs", CELL, MODEL, shape="dfs",
                 reduction="spor-net", successors="fast"),
           wl.op("contract.resolve.bfs", CELL, MODEL, shape="bfs")]
    resolved = []
    resolve = registry.resolve

    def recording(plan):
        resolved.append(resolve(plan))
        return resolved[-1]

    monkeypatch.setattr(registry, "resolve", recording)
    assert layers._resolve_us(ops, iterations=2) > 0
    assert [engine.name for engine, _ in resolved] == [
        "serial-dfs", "serial-bfs", "serial-dfs", "serial-bfs",
    ]
