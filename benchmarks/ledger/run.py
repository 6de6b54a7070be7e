"""The ledger: one benchmark every later perf and simplicity PR is judged by.

Two ways to run it, both from the repository root:

``python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload (what ``BENCHMARK.json`` names).  ``--trace 0``
    repeats the workload in fresh child processes for ``S`` seconds and
    reports the end-to-end medians; ``--trace 1`` runs one untraced and one
    traced child and reports the per-layer numbers.  The last line of
    standard output is one JSON object: ``correct``, ``attempted``,
    ``failed``, ``metrics``.

``python3 benchmarks/ledger/run.py --seed 7``
    The full set: every workload, measured then traced, checked against
    ``expected.json`` and written to
    ``benchmarks/results/BENCH_ledger_*.json`` for ``compare.py``.

Every measured repeat is a fresh child process (cold caches, its own
``peak_rss_mb`` and ``cpu_s``); the parent never imports ``repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

LEDGER_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER_DIR))

import layers  # noqa: E402
import workloads as wl  # noqa: E402

RESULTS_DIR = wl.REPO_ROOT / "benchmarks" / "results"
CHILD_MARK = "LEDGER-CHILD "

#: The full set measures each workload for this many ``run_seconds``.
FULL_SET_RUNS = 3

#: A single child may take this long before it is killed and counted failed.
CHILD_TIMEOUT_SECONDS = 120.0


def load_spec() -> Dict:
    return json.loads((wl.REPO_ROOT / "BENCHMARK.json").read_text())


def load_expected() -> Dict:
    return json.loads((LEDGER_DIR / "expected.json").read_text())


#: End-to-end metrics reported only on the workload that produces them
#: (``BENCHMARK.json`` can only bound metrics every workload reports; these
#: are bounded here and judged by ``compare.py``).  name -> (unit, better,
#: bound, workload).
WORKLOAD_METRICS = {
    "submit_cold_ms_p50": ("ms", "lower", 0.10, "service_closed"),
    "submit_cold_ms_p90": ("ms", "lower", 0.10, "service_closed"),
    "submit_hit_ms_p50": ("ms", "lower", 0.10, "service_closed"),
    "submit_hit_ms_p95": ("ms", "lower", 0.10, "service_closed"),
    "jobs_per_s": ("1/s", "higher", 0.08, "service_closed"),
    "walks_per_s": ("1/s", "higher", 0.08, "swarm_walks"),
    "checkpoint_mb": ("MB", "lower", 0.02, "recover_resume"),
}


# --------------------------------------------------------------------- #
# Child: one repeat of one workload
# --------------------------------------------------------------------- #

def _proc_cpu_seconds(pid: int) -> float:
    """utime + stime of a live process, from /proc (0 when unreadable)."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _tree_cpu_seconds(ctx) -> float:
    """CPU of this process, its reaped children and a live service."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    if ctx.server is not None:
        total += _proc_cpu_seconds(ctx.server.pid)
    return total


def _tree_peak_rss_mb(ctx) -> float:
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if ctx.server is not None:
        peak = max(peak, _proc_peak_rss_kb(ctx.server.pid))
    return peak / 1024.0


def child_main(args) -> int:
    sys.path.insert(0, str(wl.SRC_DIR))
    workload = wl.SMOKE if args.child == "smoke" else wl.WORKLOADS[args.child]
    ops = workload.ops(args.seed)
    tracer = layers.Tracer() if args.trace else None
    ctx = wl.Context(args.seed, Path(args.scratch), runner=tracer)
    report: Dict = {"workload": args.child}
    try:
        workload.setup(ctx, ops)
        report["setup_s"] = time.time() - args.spawned_at
        cpu_before = _tree_cpu_seconds(ctx)
        started = time.perf_counter()
        records = workload.run(ctx, ops)
        report["verdict_s"] = time.perf_counter() - started
        report["cpu_s"] = _tree_cpu_seconds(ctx) - cpu_before
        report["peak_rss_mb"] = _tree_peak_rss_mb(ctx)
        if tracer is not None:
            unreduced = load_expected()["unreduced_states"]
            report["layers"] = layers.layer_metrics(
                args.child, ctx, ops, records, tracer, unreduced)
            report["spans"] = tracer.spans.rows
    finally:
        ctx.close()
    report["ops"] = records
    report["extra"] = ctx.extra
    print(CHILD_MARK + json.dumps(report, default=repr))
    return 0


# --------------------------------------------------------------------- #
# Parent: spawn children, check ops, aggregate
# --------------------------------------------------------------------- #

def spawn_child(name: str, seed: int, trace: bool, scratch: Path) -> Dict:
    """One fresh child process; its report, or an ``error`` entry."""
    scratch.mkdir(parents=True, exist_ok=True)
    env = wl.child_env()
    # One hash seed for every child: string hashing otherwise reshuffles
    # set orders between repeats, which is run-to-run noise, not signal.
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(Path(__file__).resolve()), "--child", name,
               "--seed", str(seed), "--trace", str(int(trace)),
               "--scratch", str(scratch), "--spawned-at", repr(time.time())]
    try:
        completed = subprocess.run(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=str(wl.REPO_ROOT), timeout=CHILD_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_SECONDS:.0f}s"}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in reversed(completed.stdout.splitlines()):
        if line.startswith(CHILD_MARK):
            return json.loads(line[len(CHILD_MARK):])
    return {"error": f"child exited {completed.returncode}: "
                     f"{completed.stderr.strip()[-400:]}"}


def check_op(record: Dict, expected: Dict, seed: int) -> Optional[str]:
    """Why an op disagrees with ``expected.json``; None when it agrees."""
    if "error" in record:
        return record["error"]
    pinned = expected["ops"].get(record["op"])
    if pinned is None:
        return "op has no entry in expected.json"
    if "seeds" in pinned:
        # Swarm counts depend on the walk seed; only the pinned seed has
        # literal counts.  Other seeds are checked structurally by
        # check_swarm below.
        pinned = dict(pinned, **pinned["seeds"].get(str(seed), {}))
    for field in ("outcome", "states", "transitions", "complete", "ce_steps"):
        if field in pinned and record.get(field) != pinned[field]:
            return f"{field} is {record.get(field)!r}, expected {pinned[field]!r}"
    if record.get("ce_replayed") is False:
        return "counterexample did not replay"
    return None


def check_swarm(records: List[Dict]) -> Optional[str]:
    """Seed-independent swarm check: both walkers took the same walks."""
    by_op = {record["op"]: record for record in records}
    walker, packed = by_op.get("swarm.object"), by_op.get("swarm.fast")
    if walker and packed and "states" in walker and "states" in packed:
        for field in ("states", "transitions"):
            if walker[field] != packed[field]:
                return (f"object and fast walkers disagree on {field}: "
                        f"{walker[field]} vs {packed[field]}")
    return None


def check_child(report: Dict, expected: Dict, seed: int) -> List[str]:
    """Failure descriptions of one child's ops (empty when all agree)."""
    failures = []
    for record in report["ops"]:
        reason = check_op(record, expected, seed)
        if reason is not None:
            failures.append(f"{record['op']}: {reason}")
    if report["workload"] == "swarm_walks":
        reason = check_swarm(report["ops"])
        if reason is not None:
            failures.append(f"swarm: {reason}")
    return failures


class RunResult:
    """Samples and checks of one ``measure`` call."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.samples: Dict[str, List[float]] = {}
        self.layers: Dict[str, float] = {}
        self.spans: List[Dict] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.repeats = 0

    def add_child(self, report: Dict, expected: Dict, seed: int) -> None:
        self.repeats += 1
        if "error" in report:
            self.attempted += 1
            self.failures.append(f"{self.workload}: {report['error']}")
            return
        self.attempted += len(report["ops"])
        self.failures.extend(check_child(report, expected, seed))
        for name in ("setup_s", "verdict_s", "cpu_s", "peak_rss_mb"):
            self.samples.setdefault(name, []).append(report[name])
        for name, value in report["extra"].items():
            if name in WORKLOAD_METRICS:
                self.samples.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def measure(name: str, seed: int, seconds: float, repeats: Optional[int],
            scratch: Path, expected: Dict) -> RunResult:
    """Untraced repeats in fresh children until ``seconds`` are used.

    A further repeat starts only when the slowest one so far would still
    finish inside the budget; the first always runs.
    """
    result = RunResult(name)
    started = time.perf_counter()
    slowest = 0.0
    while True:
        repeat_started = time.perf_counter()
        report = spawn_child(name, seed, False, scratch / f"{name}-{result.repeats}")
        result.add_child(report, expected, seed)
        slowest = max(slowest, time.perf_counter() - repeat_started)
        if repeats is not None:
            if result.repeats >= repeats:
                break
        elif time.perf_counter() - started + slowest > seconds:
            break
    return result


def trace_layers(name: str, seed: int, scratch: Path, expected: Dict, spec: Dict) -> RunResult:
    """One untraced and one traced child; every per-layer metric by name.

    A layer the workload does not exercise reports 0 (no calls, no time).
    """
    result = RunResult(name)
    reference = spawn_child(name, seed, False, scratch / f"{name}-reference")
    traced = spawn_child(name, seed, True, scratch / f"{name}-traced")
    result.add_child(reference, expected, seed)
    result.add_child(traced, expected, seed)
    measured: Dict[str, float] = {"failed_share": 0.0}
    if "error" not in traced:
        measured.update(traced.get("layers", {}))
        measured.update(traced["extra"])
        measured["parallel.cpu_over_wall"] = traced["cpu_s"] / traced["verdict_s"]
        if "error" not in reference:
            measured["obs.trace_overhead_ratio"] = (
                traced["verdict_s"] / reference["verdict_s"])
        result.spans = traced.get("spans", [])
    for metric, homes in layers.HOMES.items():
        if name in homes and metric not in measured:
            result.attempted += 1
            result.failures.append(f"{name}: layer metric {metric} was not measured")
    measured["failed_share"] = result.failed_share
    result.layers = {metric["name"]: measured.get(metric["name"], 0.0)
                     for metric in spec["per_layer"]}
    return result


# --------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------- #

def _units(spec: Dict) -> Dict[str, str]:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({name: row[0] for name, row in WORKLOAD_METRICS.items()})
    return units


def print_measured(result: RunResult, spec: Dict) -> None:
    units = _units(spec)
    print(f"[{result.workload}] {result.repeats} repeat(s), "
          f"{result.attempted} op(s), {result.failed} failed")
    for name, values in result.samples.items():
        print(f"  {name:<24} {statistics.median(values):>12.4f} {units[name]:<6} "
              f"(median of {len(values)})")
    print(f"  {'failed_share':<24} {result.failed_share:>12.4f} ratio")
    for failure in result.failures:
        print(f"  FAILED {failure}")


def print_traced(result: RunResult, spec: Dict) -> None:
    units = _units(spec)
    print(f"[{result.workload}] traced, {result.attempted} op(s), "
          f"{result.failed} failed")
    for name, value in result.layers.items():
        print(f"  {name:<44} {value:>14.4f} {units.get(name, '')}")
    for failure in result.failures:
        print(f"  FAILED {failure}")


def final_line(result: RunResult, metrics: Dict[str, float], spec: Dict) -> str:
    units = _units(spec)
    return json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def run_one(args, spec: Dict, expected: Dict, scratch: Path) -> int:
    if args.trace:
        result = trace_layers(args.workload, args.seed, scratch, expected, spec)
        print_traced(result, spec)
        metrics = {m["name"]: result.layers[m["name"]] for m in spec["per_layer"]}
    else:
        result = measure(args.workload, args.seed, args.seconds, args.repeats,
                         scratch, expected)
        print_measured(result, spec)
        if not result.samples:
            print("no repeat completed", file=sys.stderr)
            return 1
        metrics = {m["name"]: result.median(m["name"]) for m in spec["end_to_end"]}
    print(final_line(result, metrics, spec))
    return 0


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(wl.REPO_ROOT), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_all(args, spec: Dict, expected: Dict, scratch: Path) -> int:
    """Every workload, measured then traced, into one BENCH_ledger record."""
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    record = {
        "schema": "repro-ledger/1",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    failed = 0
    for name in names:
        measured = measure(name, args.seed, args.seconds, args.repeats, scratch, expected)
        print_measured(measured, spec)
        traced = trace_layers(name, args.seed, scratch, expected, spec)
        print_traced(traced, spec)
        failed += measured.failed + traced.failed
        record["workloads"][name] = {
            "repeats": measured.repeats,
            "attempted": measured.attempted,
            "failed": measured.failed,
            "failures": measured.failures + traced.failures,
            "end_to_end": dict(
                {metric: {"median": statistics.median(values), "samples": values}
                 for metric, values in measured.samples.items()},
                failed_share={"median": measured.failed_share,
                              "samples": [measured.failed_share]}),
            "per_layer": traced.layers,
            "spans": traced.spans,
        }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_ledger_{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(wl.REPO_ROOT)}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all eight)")
    parser.add_argument("--seed", type=int, default=wl.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget of one measured run (default: "
                             "run_seconds of BENCHMARK.json; three times "
                             "that in the full set)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="fixed repeat count instead of the time budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; "
                             "with --workload, prints the driver's JSON line")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (wl.SRC_DIR / "repro" / "__init__.py").exists():
        print(f"the program under test is missing: {wl.SRC_DIR / 'repro'}",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    spec = load_spec()
    expected = load_expected()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(names)})")
    single_run = bool(args.workload) and args.trace is not None
    if args.seconds is None:
        # A full record holds per-repeat samples for compare.py's
        # quartiles, so it measures each workload three runs long.
        args.seconds = float(spec["run_seconds"]) * (1 if single_run else FULL_SET_RUNS)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=".ledger-tmp-", dir=str(RESULTS_DIR)))
    try:
        if single_run:
            return run_one(args, spec, expected, scratch)
        return run_all(args, spec, expected, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
