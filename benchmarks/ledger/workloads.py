"""The ledger's eight workloads: their op lists and the child-side loops.

A workload is a fixed list of *ops* — one model-checking run, one service
job or one CLI invocation each — executed closed-loop by a fresh child
process (see ``run.py``).  This module holds the op lists as plain data
(importable without ``repro``, so the parent harness and the smoke test
stay light) and the functions the child uses to execute them through the
public API only: ``repro.run_plan``, ``python -m repro check`` and
``repro.service.ServiceClient``.

Sizes are chosen so one repeat of any workload stays under ~7 s on the
2-core reference box: the harness then fits at least two fresh-process
repeats into one 16 s run.  ``exhaustive_fast`` and ``parallel_2w`` never
go below 100k states (start-up would dominate a smaller cell).
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"

#: Load generators never use more than this many workers, client threads
#: or connections (the reference box has two cores).
MAX_PARALLELISM = 2

#: Walk budget of the two budgeted swarm ops.
SWARM_WALKS = 30000

#: Cold-pass rounds and hit-pass size of ``service_closed``.
SERVICE_COLD_ROUNDS = 3
SERVICE_HIT_SUBMISSIONS = 1500

#: The seed the swarm counts in ``expected.json`` are pinned for.
PINNED_SEED = 7


def op(op_id: str, cell: str, model: str = "quorum", **plan) -> Dict:
    """One op: a catalog-style cell key, a model variant and CheckPlan axes."""
    return {"id": op_id, "cell": cell, "model": model, "plan": plan}


_FAST = {"store": "fingerprint", "successors": "fast"}

#: The ≥100k-state cell shared by ``exhaustive_fast`` (serial) and
#: ``parallel_2w`` (the same store and successors behind two workers).
BIG_CELL = "storage-2-3"


def _exhaustive_fast_ops(seed: int) -> List[Dict]:
    return [op("fast.dfs", BIG_CELL, "single", shape="dfs", **_FAST)]


def _exhaustive_object_ops(seed: int) -> List[Dict]:
    return [
        op("object.dfs", "paxos-2-3-1", "quorum", shape="dfs", store="full"),
        op("object.bfs", "storage-2-3", "quorum", shape="bfs", store="full"),
    ]


def _spor_sweep_ops(seed: int) -> List[Dict]:
    # paxos-2-4-1 runs on both engines, so direct-versus-bridge is a
    # like-for-like comparison of the reducer.
    spor = {"shape": "dfs", "reduction": "spor-net"}
    return [
        op("spor.object.paxos-2-3-1", "paxos-2-3-1", **spor),
        op("spor.object.paxos-2-4-1", "paxos-2-4-1", **spor),
        op("spor.object.multicast-3-1-1-1", "multicast-3-1-1-1", **spor),
        op("spor.object.faulty-paxos-2-3-1", "faulty-paxos-2-3-1", **spor),
        op("spor.fast.paxos-2-4-1", "paxos-2-4-1", **spor, **_FAST),
        op("spor.fast.storage-3-2", "storage-3-2", **spor, **_FAST),
        op("spor.fast.paxos-2-3-2", "paxos-2-3-2", **spor, **_FAST),
    ]


def _parallel_2w_ops(seed: int) -> List[Dict]:
    return [
        op("par.frontier", BIG_CELL, "single", shape="bfs", backend="frontier",
           workers=MAX_PARALLELISM, **_FAST),
        op("par.worksteal", BIG_CELL, "single", shape="dfs",
           backend="worksteal", workers=MAX_PARALLELISM, **_FAST),
    ]


#: Cell of the three ``recover_resume`` ops; all must reproduce its
#: uninterrupted counts.
RECOVER_CELL = "paxos-3-2-1"
CHECKPOINT_EVERY = 4
CHAOS_PLAN = "crash:1@12"


def _recover_resume_ops(seed: int) -> List[Dict]:
    # checkpoint_dir / resume_from are filled in by the child, which owns
    # the temp directory.
    return [
        op("recover.checkpointed", RECOVER_CELL, shape="bfs", store="full",
           checkpoint_every=CHECKPOINT_EVERY),
        op("recover.resumed", RECOVER_CELL, shape="bfs", store="full"),
        op("recover.crashed", RECOVER_CELL, shape="bfs", backend="frontier",
           workers=MAX_PARALLELISM, store="sharded-fingerprint",
           chaos=CHAOS_PLAN),
    ]


_SERVICE_CELLS = (
    ("paxos-2-2-1", "quorum"),
    ("storage-3-1", "quorum"),
    ("storage-3-1", "single"),
    ("multicast-3-0-1-1", "quorum"),
    ("multicast-2-1-0-1", "single"),
)
_SERVICE_PLANS = (
    ("dfs-none", {"shape": "dfs", "reduction": "none"}),
    ("dfs-spor-net", {"shape": "dfs", "reduction": "spor-net"}),
    ("dfs-none-fast", {"shape": "dfs", "reduction": "none", **_FAST}),
    ("bfs", {"shape": "bfs"}),
)
#: Violating jobs: a violated result is never complete, so the cache never
#: admits it and every submission runs the engine.
_SERVICE_VIOLATING = (
    ("faulty-paxos-2-3-1", "dfs-spor-net", {"shape": "dfs", "reduction": "spor-net"}),
    ("faulty-paxos-2-3-1", "dfs-spor-net-fast",
     {"shape": "dfs", "reduction": "spor-net", **_FAST}),
    ("storage-3-2-wrong", "dfs-spor-net", {"shape": "dfs", "reduction": "spor-net"}),
    ("storage-3-2-wrong", "bfs", {"shape": "bfs"}),
)


def service_jobs() -> List[Dict]:
    """The 24 distinct jobs of ``service_closed`` (20 cacheable + 4 not)."""
    jobs = []
    for cell, model in _SERVICE_CELLS:
        for label, plan in _SERVICE_PLANS:
            job = op(f"svc.{cell}.{model[0]}.{label}", cell, model, **plan)
            job["cacheable"] = True
            jobs.append(job)
    for cell, label, plan in _SERVICE_VIOLATING:
        job = op(f"svc.{cell}.q.{label}", cell, "quorum", **plan)
        job["cacheable"] = False
        jobs.append(job)
    return jobs


#: The seven Table-I rows, as ``repro check --scale paper`` keys.
CLI_CELLS = (
    "paxos-2-3-1",
    "faulty-paxos-2-3-1",
    "multicast-3-0-1-1",
    "multicast-2-1-0-1",
    "multicast-2-1-2-1",
    "storage-3-1",
    "storage-3-2-wrong",
)


def _cli_cold_ops(seed: int) -> List[Dict]:
    return [
        op(f"cli.{cell}", cell, shape="dfs", reduction="spor-net")
        for cell in CLI_CELLS
    ]


def _swarm_walks_ops(seed: int) -> List[Dict]:
    budgeted = {"shape": "dfs", "backend": "swarm", "walks": SWARM_WALKS,
                "walk_seed": seed}
    return [
        op("swarm.object", "multicast-2-1-0-1-lossy", **budgeted),
        op("swarm.fast", "multicast-2-1-0-1-lossy", successors="fast",
           **budgeted),
        op("swarm.violation", "multicast-2-1-2-1-lossy", shape="dfs",
           backend="swarm", walks=SWARM_WALKS, walk_seed=seed,
           successors="fast"),
    ]


# --------------------------------------------------------------------- #
# Child-side helpers (everything below imports ``repro`` lazily)
# --------------------------------------------------------------------- #

def catalog_entry(cell: str):
    """Catalog entry for a key such as ``storage-3-2-wrong``.

    The benchmark uses cells outside the bundled catalog scales
    (``paxos-2-4-1``, ``storage-2-3`` ...), so keys are parsed onto the
    public ``*_entry`` factories rather than looked up.
    """
    from repro.protocols.catalog import multicast_entry, paxos_entry, storage_entry

    parts = cell.split("-")
    if parts[0] == "faulty":
        return paxos_entry(*map(int, parts[2:5]), faulty=True)
    if parts[0] == "paxos":
        return paxos_entry(*map(int, parts[1:4]))
    if parts[0] == "storage":
        return storage_entry(int(parts[1]), int(parts[2]),
                             wrong_specification=parts[-1] == "wrong")
    if parts[0] == "multicast":
        return multicast_entry(*map(int, parts[1:5]),
                               message_loss=parts[-1] == "lossy")
    raise KeyError(f"unknown cell family in {cell!r}")


def build_protocol(op_spec: Dict):
    """(protocol, invariant) of an op, freshly constructed."""
    entry = catalog_entry(op_spec["cell"])
    if op_spec["model"] == "quorum":
        return entry.quorum_model(), entry.invariant
    return entry.single_model(), entry.invariant


def run_plan_op(op_spec: Dict, protocol, invariant, runner: Optional[Callable] = None) -> Dict:
    """Run one plan op and return its checked fields plus wall time.

    ``runner(op, protocol, invariant, plan)`` replaces ``repro.run_plan``
    in the traced pass, which threads its seams through.  A
    counterexample is replayed on the same model instance (executions
    compare by transition identity); a trace that does not re-execute
    counts as a failed op.
    """
    from repro import CheckPlan, run_plan

    plan = CheckPlan(**op_spec["plan"])
    started = time.perf_counter()
    try:
        if runner is None:
            result = run_plan(protocol, invariant, plan)
        else:
            result = runner(op_spec, protocol, invariant, plan)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return {"op": op_spec["id"], "error": f"{type(exc).__name__}: {exc}",
                "wall_s": time.perf_counter() - started}
    statistics = result.statistics
    record = {
        "op": op_spec["id"],
        "wall_s": time.perf_counter() - started,
        "outcome": result.outcome(),
        "states": statistics.states_visited,
        "transitions": statistics.transitions_executed,
        "complete": result.complete,
        "revisits": statistics.revisits,
    }
    if result.counterexample is not None:
        record["ce_steps"] = len(result.counterexample.steps)
        replay_started = time.perf_counter()
        try:
            result.counterexample.replay(protocol)
            record["ce_replayed"] = True
        except ValueError as exc:
            record["ce_replayed"] = False
            record["error"] = f"counterexample replay diverged: {exc}"
        record["ce_replay_s"] = time.perf_counter() - replay_started
    telemetry = result.telemetry or {}
    record["spans"] = {
        span["span"]: span["elapsed_seconds"]
        for span in telemetry.get("spans", {}).get("finished", [])
        if span["depth"] <= 1
    }
    metrics = telemetry.get("metrics", {})
    record["counters"] = {
        name: metrics[name].get("total", metrics[name]["values"][0]["value"])
        for name in ("fastpath_memo_hits", "fastpath_memo_misses",
                     "worksteal_steals", "worksteal_publishes",
                     "swarm_walks_completed", "full_expansions",
                     "reduced_expansions")
        if name in metrics and metrics[name]["values"]
    }
    return record


class Context:
    """What a workload's setup hands to its timed loop."""

    def __init__(self, seed: int, scratch: Path, runner: Optional[Callable] = None) -> None:
        self.seed = seed
        self.scratch = scratch
        self.runner = runner
        self.models: Dict[str, tuple] = {}
        self.extra: Dict[str, float] = {}
        self.server: Optional[subprocess.Popen] = None
        self.port = 0
        self.clients: list = []

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.server is not None:
            stop_server(self.server, self.port)
            self.server = None


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + existing if existing else "")
    return env


# -- plan workloads ------------------------------------------------------

def _setup_models(ctx: Context, ops: List[Dict]) -> None:
    import repro  # noqa: F401  (the import is part of set-up)

    for op_spec in ops:
        ctx.models[op_spec["id"]] = build_protocol(op_spec)


def _run_plan_ops(ctx: Context, ops: List[Dict]) -> List[Dict]:
    return [
        run_plan_op(op_spec, *ctx.models[op_spec["id"]], runner=ctx.runner)
        for op_spec in ops
    ]


# -- recover_resume ------------------------------------------------------

def _setup_recover(ctx: Context, ops: List[Dict]) -> None:
    _setup_models(ctx, ops)
    ctx.checkpoint_dir = ctx.scratch / "checkpoints"
    ctx.checkpoint_dir.mkdir(parents=True, exist_ok=True)


def _run_recover(ctx: Context, ops: List[Dict]) -> List[Dict]:
    checkpointed, resumed, crashed = ops
    checkpointed = dict(checkpointed, plan=dict(
        checkpointed["plan"], checkpoint_dir=str(ctx.checkpoint_dir)))
    records = [run_plan_op(checkpointed, *ctx.models[checkpointed["id"]],
                           runner=ctx.runner)]
    files = sorted(ctx.checkpoint_dir.glob("*.ckpt"))
    ctx.extra["checkpoint_mb"] = sum(f.stat().st_size for f in files) / 1e6
    if files:
        ctx.middle_checkpoint = files[len(files) // 2]
        resumed = dict(resumed, plan=dict(
            resumed["plan"], resume_from=str(ctx.middle_checkpoint)))
        records.append(run_plan_op(resumed, *ctx.models[resumed["id"]],
                                   runner=ctx.runner))
    else:
        records.append({"op": resumed["id"], "wall_s": 0.0,
                        "error": "no checkpoint was written"})
    records.append(run_plan_op(crashed, *ctx.models[crashed["id"]],
                               runner=ctx.runner))
    return records


# -- service_closed ------------------------------------------------------

def start_server(workers: int = MAX_PARALLELISM):
    """Start ``repro serve --port 0``; returns (process, bound port)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(workers), "--queue-limit", "64"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=child_env(), cwd=str(REPO_ROOT),
    )
    line = process.stdout.readline()
    # "repro service 127.0.0.1:43210 (2 workers, queue 64)"
    try:
        port = int(line.split()[2].rsplit(":", 1)[1])
    except (IndexError, ValueError):
        process.kill()
        process.wait()
        raise RuntimeError(f"service did not announce a port: {line!r}")
    return process, port


def stop_server(process: subprocess.Popen, port: int) -> None:
    from repro.service import ServiceClient, ServiceClientError

    try:
        with ServiceClient(port=port, connect_attempts=1) as client:
            client.shutdown()
    except ServiceClientError:
        process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    process.stdout.close()


def _setup_service(ctx: Context, ops: List[Dict]) -> None:
    from repro.service import ServiceClient

    ctx.server, ctx.port = start_server()
    ctx.clients = [ServiceClient(port=ctx.port) for _ in range(MAX_PARALLELISM)]
    ctx.clients[0].ping()


def _submit(client, job: Dict) -> Dict:
    started = time.perf_counter()
    try:
        response = client.submit(job["cell"], model=job["model"],
                                 scale="small", plan=job["plan"])
    except Exception as exc:  # refused or dropped: a failed op
        return {"op": job["id"], "error": f"{type(exc).__name__}: {exc}",
                "wall_s": time.perf_counter() - started}
    wall = time.perf_counter() - started
    record = {
        "op": job["id"],
        "wall_s": wall,
        "outcome": response.get("outcome"),
        "states": response.get("states_visited"),
        "transitions": response.get("transitions_executed"),
        "complete": response.get("complete"),
        "cache_hit": response.get("cache_hit"),
        "search_elapsed_s": response.get("elapsed_seconds", 0.0),
    }
    if response.get("counterexample_steps") is not None:
        record["ce_steps"] = response["counterexample_steps"]
    if response.get("status") != "done":
        record["error"] = f"job ended {response.get('status')}: {response.get('error')}"
    return record


def _closed_loop(clients, jobs: List[Dict]) -> List[Dict]:
    """Each client thread submits its next job once its last one returned."""
    records: List[Dict] = []
    lock = threading.Lock()
    cursor = iter(jobs)

    def loop(client) -> None:
        while True:
            with lock:
                job = next(cursor, None)
            if job is None:
                return
            record = _submit(client, job)
            with lock:
                records.append(record)

    threads = [threading.Thread(target=loop, args=(client,)) for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (1..99) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _run_service(ctx: Context, ops: List[Dict]) -> List[Dict]:
    rng = random.Random(ctx.seed)
    cacheable = [job for job in ops if job["cacheable"]]
    records: List[Dict] = []
    cold: List[Dict] = []
    cold_wall = 0.0
    for round_index in range(SERVICE_COLD_ROUNDS):
        if round_index:
            ctx.clients[0].invalidate()
        order = list(ops)
        rng.shuffle(order)
        started = time.perf_counter()
        cold.extend(_closed_loop(ctx.clients, order))
        cold_wall += time.perf_counter() - started
    for record in cold:
        if record.get("cache_hit") and "error" not in record:
            record["error"] = "cold-pass job was served from the cache"
    hits_order = [rng.choice(cacheable) for _ in range(SERVICE_HIT_SUBMISSIONS)]
    hits = _closed_loop(ctx.clients, hits_order)
    for record in hits:
        if not record.get("cache_hit") and "error" not in record:
            record["error"] = "hit-pass job missed the cache"
    records.extend(cold)
    records.extend(hits)

    def latencies(batch):
        return [1e3 * record["wall_s"] for record in batch]

    ctx.extra["submit_cold_ms_p50"] = percentile(latencies(cold), 50)
    ctx.extra["submit_cold_ms_p90"] = percentile(latencies(cold), 90)
    ctx.extra["submit_hit_ms_p50"] = percentile(latencies(hits), 50)
    ctx.extra["submit_hit_ms_p95"] = percentile(latencies(hits), 95)
    ctx.extra["jobs_per_s"] = len(cold) / cold_wall
    ctx.extra["service.overhead_ms_p50"] = percentile(
        [1e3 * (r["wall_s"] - (r.get("search_elapsed_s") or 0.0)) for r in cold], 50)
    health = ctx.clients[0].health()
    cache = health["cache"]
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    ctx.extra["service.cache_hit_ratio"] = cache.get("hits", 0) / lookups if lookups else 0.0
    ctx.extra["service.engine_runs"] = health["engine_runs"]
    return records


# -- cli_cold ------------------------------------------------------------

def _setup_cli(ctx: Context, ops: List[Dict]) -> None:
    ctx.scratch.mkdir(parents=True, exist_ok=True)


def _run_cli(ctx: Context, ops: List[Dict]) -> List[Dict]:
    import json

    records = []
    for op_spec in ops:
        out = ctx.scratch / f"{op_spec['id']}.json"
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "check", op_spec["cell"],
             "--scale", "paper", "--reduction", "spor-net", "--json", str(out)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=child_env(), cwd=str(REPO_ROOT), timeout=60,
        )
        record = {"op": op_spec["id"], "wall_s": time.perf_counter() - started}
        if completed.returncode != 0 or not out.exists():
            record["error"] = (f"repro check exited {completed.returncode}: "
                               f"{completed.stderr.strip()[-200:]}")
        else:
            result = json.loads(out.read_text())["results"][0]
            record.update(
                outcome=result["outcome"], states=result["states_visited"],
                transitions=result["transitions_executed"],
                complete=result["complete"],
            )
            if result["counterexample_steps"] is not None:
                record["ce_steps"] = result["counterexample_steps"]
        records.append(record)
    return records


# -- swarm_walks ---------------------------------------------------------

def _run_swarm(ctx: Context, ops: List[Dict]) -> List[Dict]:
    records = _run_plan_ops(ctx, ops)
    budgeted = [r for r in records[:2] if "error" not in r]
    if budgeted:
        ctx.extra["walks_per_s"] = (
            SWARM_WALKS * len(budgeted) / sum(r["wall_s"] for r in budgeted))
    return records


class Workload:
    def __init__(self, why: str, ops: Callable[[int], List[Dict]],
                 setup: Callable = _setup_models,
                 run: Callable = _run_plan_ops) -> None:
        self.why = why
        self.ops = ops
        self.setup = setup
        self.run = run


WORKLOADS: Dict[str, Workload] = {
    "exhaustive_fast": Workload(
        "storage-2-3 single, 102,731 states, serial packed DFS over a "
        "fingerprint store: fastpath does all the work; por, parallel and "
        "service are idle.",
        _exhaustive_fast_ops),
    "exhaustive_object": Workload(
        "Unreduced DFS on paxos-2-3-1 and BFS on storage-2-3 through the "
        "other twin (mp.semantics + checker.search + FullStateStore); "
        "fastpath is idle.",
        _exhaustive_object_ops),
    "spor_sweep": Workload(
        "spor-net, the paper's headline configuration, on object states and "
        "through the packed-to-object reducer bridge; por dominates; one "
        "cell ends in a replayed counterexample.",
        _spor_sweep_ops),
    "parallel_2w": Workload(
        "The exhaustive_fast cell behind 2 workers, frontier BFS (level "
        "barrier) then worksteal DFS (claim table): IPC, barriers and steal "
        "hand-off dominate.",
        _parallel_2w_ops),
    "recover_resume": Workload(
        "paxos-3-2-1 BFS writing checkpoints, resuming from the middle one, "
        "and surviving an injected worker crash under supervision; counts "
        "must equal the uninterrupted run.",
        _recover_resume_ops, _setup_recover, _run_recover),
    "service_closed": Workload(
        "repro serve with 2 closed-loop clients on small cells, so TCP, "
        "queue, cache and job log are the cost: 3 invalidated cold rounds of "
        "24 jobs, then 1,500 cache hits.",
        lambda seed: service_jobs(), _setup_service, _run_service),
    "cli_cold": Workload(
        "python -m repro check over the 7 Table-I rows as subprocesses: "
        "import, protocol build and dependence precompute dominate; what a "
        "user waits for.",
        _cli_cold_ops, _setup_cli, _run_cli),
    "swarm_walks": Workload(
        "30,000 seeded random walks on the object then the packed walker "
        "(no store), then a first-violation hunt whose counterexample must "
        "replay.",
        _swarm_walks_ops, _setup_models, _run_swarm),
}

#: Not a ledger workload: one tiny op the smoke test round-trips through
#: the child-process harness.
SMOKE = Workload(
    "One tiny cell, so the harness itself can be tested in well under a second.",
    lambda seed: [op("smoke.tiny", "multicast-2-1-0-1", shape="dfs", store="full")])
