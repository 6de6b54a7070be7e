"""Tier-1-safe smoke test of the ledger (a few seconds, no workload run).

Checks the three things a later PR could silently break: the names in
``BENCHMARK.json`` against what the runner emits, the coverage and
consistency of ``expected.json``, and the child-process harness itself —
one tiny op round-trips through it, and a deliberately wrong expectation
is counted as a failure.
"""

from __future__ import annotations

import copy
import re

import layers
import run
import workloads as wl

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_names_are_the_ones_the_runner_emits():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "verdict_s", "cpu_s", "peak_rss_mb"}
    # Every per-layer metric has a workload whose traced run measures it
    # (trace_layers fails that run when it does not), and nothing is
    # measured that BENCHMARK.json does not name.
    assert {m["name"] for m in spec["per_layer"]} == set(layers.HOMES)
    assert set(run.WORKLOAD_METRICS) <= set(layers.HOMES)
    for homes in layers.HOMES.values():
        assert homes and set(homes) <= set(wl.WORKLOADS)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert spec["paths"] == ["benchmarks/ledger"]


def test_expected_json_covers_every_op_consistently():
    expected = run.load_expected()["ops"]
    unreduced = {}
    for workload in wl.WORKLOADS.values():
        for op in workload.ops(wl.PINNED_SEED):
            assert NAME.match(op["id"])
            pinned = expected[op["id"]]
            assert {"outcome", "complete"} <= set(pinned)
            plan = op["plan"]
            if (plan.get("reduction", "none") == "none"
                    and plan.get("backend") != "swarm"
                    and pinned["outcome"] == "verified"):
                key = (op["cell"], op["model"])
                counts = (pinned["states"], pinned["transitions"])
                # DFS, BFS, object, fast, frontier and worksteal all close
                # the same reachable set.
                assert unreduced.setdefault(key, counts) == counts, op["id"]
    assert len({job["id"] for job in wl.service_jobs()}) == 24


def test_tiny_op_round_trips_and_a_wrong_expectation_fails(tmp_path):
    expected = run.load_expected()
    result = run.measure("smoke", wl.PINNED_SEED, seconds=0.0, repeats=1,
                         scratch=tmp_path, expected=expected)
    assert result.attempted == 1 and result.failed_share == 0.0, result.failures
    assert result.median("verdict_s") > 0 and result.median("setup_s") > 0

    wrong = copy.deepcopy(expected)
    wrong["ops"]["smoke.tiny"]["states"] += 1
    result = run.measure("smoke", wl.PINNED_SEED, seconds=0.0, repeats=1,
                         scratch=tmp_path, expected=wrong)
    assert result.failed == 1 and result.failed_share == 1.0
    assert "states is 45" in result.failures[0]
