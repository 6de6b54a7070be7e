"""End-to-end tests of the ``python -m repro`` command line interface."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main


def run_cli(argv):
    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


ENGINES_OUTPUT = (
    'serial-dfs         shape=dfs reduction=none|spor|spor-net backend=serial workers == 1 store=full|fingerprint|sharded-fingerprint|none successors=object|fast goal=invariant\n'
    '                   serial DFS; supports the stubborn-set reductions and stateless mode\n'
    'serial-bfs         shape=bfs reduction=none backend=serial workers == 1 store=full|fingerprint|sharded-fingerprint successors=object|fast goal=invariant\n'
    '                   serial BFS; stateful only, finds shortest counterexamples\n'
    'frontier-bfs       shape=bfs reduction=none backend=frontier workers >= 2 store=full|fingerprint|sharded-fingerprint successors=object|fast goal=invariant\n'
    '                   frontier-parallel BFS; shard-owning workers, serial-exact counts\n'
    'worksteal-dfs      shape=dfs reduction=none|spor|spor-net backend=worksteal workers >= 2 store=full|fingerprint|sharded-fingerprint successors=object|fast goal=invariant\n'
    '                   work-stealing parallel DFS; drives the stubborn-set reductions (dedup is fingerprint-based for every store)\n'
    'dpor               shape=dfs reduction=dpor backend=serial workers == 1 store=none successors=object goal=invariant\n'
    '                   stateless dynamic POR; serial by construction\n'
    'serial-ndfs        shape=dfs reduction=none backend=serial workers == 1 store=full|fingerprint|sharded-fingerprint successors=object|fast goal=liveness\n'
    '                   serial nested DFS for liveness goals; lasso (stem + cycle) counterexamples, unreduced\n'
    'swarm              shape=dfs reduction=none backend=swarm workers == 1 store=none successors=object|fast goal=invariant\n'
    '                   seeded random-walk sampler; conclusive on violations, honestly inconclusive on exhausted walk budgets\n'
    'swarm-parallel     shape=dfs reduction=none backend=swarm workers >= 2 store=none successors=object|fast goal=invariant\n'
    '                   parallel seeded walker pool; walk-index partition keeps results identical to the serial walker\n'
)


class TestCells:
    def test_lists_catalog(self):
        code, output = run_cli(["cells"])
        assert code == 0
        assert "paxos-2-2-1" in output
        assert "expected: CE" in output


class TestEngines:
    def test_lists_every_engine_byte_for_byte(self):
        code, output = run_cli(["engines"])
        assert code == 0
        assert output == ENGINES_OUTPUT


class TestCheckPlanAxes:
    def test_default_plan_is_the_spor_axes(self, tmp_path):
        by_default = tmp_path / "default.json"
        by_axes = tmp_path / "axes.json"
        assert run_cli(
            ["check", "multicast-2-1-0-1", "--json", str(by_default)]
        )[0] == 0
        assert run_cli(
            ["check", "multicast-2-1-0-1", "--shape", "dfs",
             "--reduction", "spor", "--json", str(by_axes)]
        )[0] == 0
        first = json.loads(by_default.read_text())["results"][0]
        second = json.loads(by_axes.read_text())["results"][0]
        for key in ("verified", "states_visited", "strategy",
                    "shape", "reduction", "backend", "engine"):
            assert first[key] == second[key]
        assert first["reduction"] == "spor"

    def test_records_carry_the_resolved_axes(self, tmp_path):
        target = tmp_path / "check.json"
        code, _ = run_cli(
            ["check", "multicast-2-1-0-1", "--shape", "bfs",
             "--json", str(target)]
        )
        assert code == 0
        record = json.loads(target.read_text())["results"][0]
        assert record["shape"] == "bfs"
        assert record["reduction"] == "none"
        assert record["backend"] == "serial"
        assert record["engine"] == "serial-bfs"

    @pytest.mark.parametrize(
        "flags, store, workers",
        [
            (["--reduction", "dpor"], "none", 1),
            (["--backend", "swarm", "--walks", "20"], "none", 1),
            (["--shape", "dfs", "--reduction", "spor", "--workers", "0"],
             "full", 1),
        ],
        ids=["dpor", "swarm", "workers-0"],
    )
    def test_records_report_the_store_and_workers_that_ran(
        self, tmp_path, flags, store, workers
    ):
        # A record describes the plan that ran, not the flags that asked
        # for it: dpor and swarm are stateless whatever --store says, and
        # --workers 0 runs (and is recorded as) one worker.
        target = tmp_path / "check.json"
        run_cli(["check", "multicast-2-1-2-1", *flags, "--json", str(target)])
        record = json.loads(target.read_text())["results"][0]
        assert record["store"] == store
        assert record["stateful"] is (store != "none")
        assert record["workers"] == workers

    def test_progress_streams_the_event_feed(self):
        code, output = run_cli(
            ["check", "multicast-2-1-0-1", "--shape", "bfs", "--progress"]
        )
        assert code == 0
        assert "[serial-bfs]" in output
        assert "level" in output

    def test_workers_zero_is_serial_in_both_forms(self):
        # The 0-means-serial spelling runs serially with or without
        # explicit axis flags.
        for argv in (
            ["check", "multicast-2-1-0-1", "--workers", "0"],
            ["check", "multicast-2-1-0-1", "--shape", "dfs",
             "--reduction", "spor", "--workers", "0"],
        ):
            code, output = run_cli(argv)
            assert code == 0
            assert "Verified" in output

    @pytest.mark.parametrize("command", ["check", "sweep"])
    def test_strategy_flag_is_a_usage_error(self, command):
        argv = [command, "--strategy", "spor"]
        if command == "check":
            argv.insert(1, "paxos-2-2-1")
        with pytest.raises(SystemExit) as excinfo:
            run_cli(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["bench", "report"])
    def test_removed_commands_are_usage_errors(self, command):
        # The ledger (benchmarks/ledger/) is the one performance instrument.
        # "--help" exits 0 for a command that exists, 2 for an unknown one.
        with pytest.raises(SystemExit) as excinfo:
            run_cli([command, "--help"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag", [
        ["--serial"], ["--output", "out"], ["--label", "x"],
    ])
    def test_removed_sweep_flags_are_usage_errors(self, flag):
        # "--workers 1" is the serial loop; "--json PATH" is the one output.
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["sweep", "--cells", "multicast-2-1-0-1"] + flag)
        assert excinfo.value.code == 2

    def test_unsupported_axis_combinations_exit_with_the_diagnostic(self):
        code, output = run_cli(
            ["check", "multicast-2-1-0-1", "--reduction", "dpor",
             "--workers", "2"]
        )
        assert code == 2
        assert "backtrack sets" in output
        assert "nearest supported alternative" in output
        assert "Traceback" not in output


class TestCheck:
    def test_verified_cell_exits_zero(self):
        code, output = run_cli(["check", "multicast-2-1-0-1"])
        assert code == 0
        assert "Verified" in output

    def test_expected_violation_exits_zero(self):
        code, output = run_cli(["check", "storage-3-2-wrong"])
        assert code == 0
        assert "CE" in output

    def test_json_payload(self, tmp_path):
        target = tmp_path / "check.json"
        code, _ = run_cli(
            ["check", "multicast-2-1-0-1", "--shape", "bfs", "--json", str(target)]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["schema"] == "repro-bench/1"
        assert payload["results"][0]["cell"] == "multicast-2-1-0-1"
        assert payload["results"][0]["verified"] is True
        # The record's own "workers" is the one place the count lives.
        assert "workers" not in payload

    def test_json_payload_carries_what_the_ledger_reads(self, tmp_path):
        # benchmarks/ledger's cli_cold workload reads these from results[0].
        target = tmp_path / "check.json"
        assert run_cli(["check", "storage-3-2-wrong", "--json", str(target)])[0] == 0
        record = json.loads(target.read_text())["results"][0]
        assert record["outcome"] == "violated"
        assert record["states_visited"] > 0
        assert record["transitions_executed"] > 0
        assert isinstance(record["complete"], bool)
        assert record["counterexample_steps"] > 0

    def test_parallel_bfs_matches_serial(self, tmp_path):
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert run_cli(
            ["check", "storage-3-1", "--shape", "bfs", "--json", str(serial_path)]
        )[0] == 0
        assert run_cli(
            [
                "check", "storage-3-1", "--shape", "bfs",
                "--workers", "2", "--json", str(parallel_path),
            ]
        )[0] == 0
        serial = json.loads(serial_path.read_text())["results"][0]
        parallel = json.loads(parallel_path.read_text())["results"][0]
        assert serial["states_visited"] == parallel["states_visited"]

    def test_unknown_cell_raises(self):
        with pytest.raises(KeyError):
            run_cli(["check", "not-a-cell"])


class TestSweep:
    def test_sweep_json_payload(self, tmp_path):
        target = tmp_path / "sweep.json"
        code, output = run_cli(
            [
                "sweep", "--cells", "multicast-2-1-0-1,storage-3-1",
                "--workers", "2", "--json", str(target),
            ]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["schema"] == "repro-bench/1"
        assert payload["workers"] == 2
        assert len(payload["results"]) == 2
        assert "swept 2 cells" in output

    def test_sweep_writes_nothing_without_json(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, output = run_cli(["sweep", "--cells", "multicast-2-1-0-1"])
        assert code == 0
        assert "wrote" not in output
        assert list(tmp_path.iterdir()) == []

    def test_sweep_payload_names_the_plan(self, tmp_path):
        target = tmp_path / "sweep.json"
        code, output = run_cli(
            ["sweep", "--cells", "multicast-2-1-0-1", "--workers", "1",
             "--store", "fingerprint", "--json", str(target)]
        )
        assert code == 0
        assert "serial loop" in output
        payload = json.loads(target.read_text())
        assert payload["plan"] == "dfs/spor/fingerprint/auto"
        assert payload["results"][0]["store"] == "fingerprint"

    def test_cell_workers_are_every_cells_inner_workers(self, tmp_path):
        target = tmp_path / "sweep.json"
        code, output = run_cli(
            ["sweep", "--cells", "multicast-2-1-0-1,multicast-3-0-1-1",
             "--cell-workers", "2", "--json", str(target)]
        )
        assert code == 0
        # Inner-parallel cells run one at a time in this process.
        assert "serial loop" in output
        payload = json.loads(target.read_text())
        assert [record["workers"] for record in payload["results"]] == [2, 2]
        assert {record["engine"] for record in payload["results"]} == {"worksteal-dfs"}

    def test_check_and_sweep_payloads_come_from_one_writer(self, tmp_path):
        check_path = tmp_path / "check.json"
        sweep_path = tmp_path / "sweep.json"
        assert run_cli(
            ["check", "multicast-2-1-0-1", "--json", str(check_path)]
        )[0] == 0
        assert run_cli(
            ["sweep", "--cells", "multicast-2-1-0-1", "--workers", "1",
             "--json", str(sweep_path)]
        )[0] == 0
        check = json.loads(check_path.read_text())
        sweep = json.loads(sweep_path.read_text())
        assert set(sweep) == set(check) | {"plan", "sweep_seconds", "workers"}
        assert set(check["results"][0]) == set(sweep["results"][0])
