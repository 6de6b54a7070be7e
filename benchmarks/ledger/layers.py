"""The traced pass: per-layer numbers, measured from outside ``src/``.

Three kinds of measurement, all taken from this file around calls into
each layer's public functions:

(a) **in situ** — the seams the engines already accept: a timing wrapper
    around the stubborn-set ``reducer=``, an ``observer=`` that timestamps
    barrier / crash / report events, and ``telemetry=RunTelemetry()`` for
    the ``compile`` / ``search`` / ``ce-replay`` spans and the memo and
    steal counters;
(b) **layer replay** — a seeded sample of reachable states is collected
    per cell and each layer's function is timed over it;
(c) **direct calls** for one-shot phases (build, compile, precompute,
    checkpoint write/load, cache get/put, ping).

Spans are kept in memory as ``(name, start, end, parent, op)`` rows and
handed back with the child's report.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import workloads as wl

#: Reachable states sampled per replayed cell.
REPLAY_SAMPLE = 5000

#: Cells whose layers are replayed, per workload: (cell, model, engine).
REPLAY_CELLS = {
    "exhaustive_fast": ((wl.BIG_CELL, "single", "fast"),),
    "exhaustive_object": (("paxos-2-3-1", "quorum", "object"),
                          ("storage-2-3", "quorum", "object")),
    "spor_sweep": (("paxos-2-4-1", "quorum", "object"),
                   ("paxos-2-4-1", "quorum", "fast")),
    "parallel_2w": ((wl.BIG_CELL, "single", "fast"),),
    "recover_resume": ((wl.RECOVER_CELL, "quorum", "object"),),
    "swarm_walks": (("multicast-2-1-0-1-lossy", "quorum", "object"),
                    ("multicast-2-1-0-1-lossy", "quorum", "fast")),
}

STORE_KINDS = ("full", "fingerprint", "sharded-fingerprint")

_PLAN = ("exhaustive_fast", "exhaustive_object", "spor_sweep", "parallel_2w",
         "recover_resume", "swarm_walks")
_OBJECT = ("exhaustive_object", "spor_sweep", "recover_resume", "swarm_walks")
_FAST = ("exhaustive_fast", "spor_sweep", "parallel_2w", "swarm_walks")
_FRONTIER = ("parallel_2w", "recover_resume")
_EVERY = _PLAN + ("service_closed", "cli_cold")


def _homes() -> Dict[str, Tuple[str, ...]]:
    """Per-layer metric -> the workloads whose traced run measures it.

    Everywhere else the metric reads 0: the layer is idle on that
    workload.  A home workload that fails to measure one of its metrics
    is a failed run (a seam broke), not a silent zero.
    """
    homes: Dict[str, Tuple[str, ...]] = {"cli.import_s": ("cli_cold",)}
    for cell in wl.CLI_CELLS:
        homes[f"cli.check_s.{cell}"] = ("cli_cold",)
    homes["protocols.build_ms.paxos"] = ("exhaustive_object", "spor_sweep", "recover_resume")
    homes["protocols.build_ms.storage"] = (
        "exhaustive_fast", "exhaustive_object", "spor_sweep", "parallel_2w")
    homes["protocols.build_ms.multicast"] = ("spor_sweep", "swarm_walks")
    homes["refine.split_ms"] = ("spor_sweep",)
    homes["engine.resolve_us"] = _PLAN + ("service_closed",)
    for name in ("enabled_us_per_state", "successor_us_per_exec",
                 "fingerprint_us_per_state", "executions_per_state"):
        homes[f"mp.{name}"] = _OBJECT
    for name in ("compile_s", "enabled_us_per_state", "successor_us_per_exec",
                 "fingerprint_us_per_state", "decode_us_per_state",
                 "memo_hit_ratio", "table_entries"):
        homes[f"fastpath.{name}"] = _FAST
    for kind in STORE_KINDS:
        homes[f"checker.store_add_us.{kind}"] = _PLAN
        homes[f"checker.store_dup_us.{kind}"] = _PLAN
    for name in ("invariant_us_per_state", "search_s", "search_self_s",
                 "attributed_share", "states_per_s", "revisit_ratio"):
        homes[f"checker.{name}"] = _PLAN
    homes["checker.compile_s"] = _FAST
    homes["checker.ce_replay_ms"] = ("spor_sweep", "swarm_walks")
    homes["checker.checkpoint_write_s"] = ("recover_resume",)
    homes["checker.checkpoint_load_s"] = ("recover_resume",)
    for name in ("precompute_s", "reduce_s.object", "reduce_s.fast",
                 "reduce_us_per_state", "stubborn_ratio", "full_expansion_share",
                 "reduced_over_unreduced.paxos-2-3-1",
                 "reduced_over_unreduced.paxos-2-4-1",
                 "reduced_over_unreduced.multicast-3-1-1-1"):
        homes[f"por.{name}"] = ("spor_sweep",)
    for name in ("first_level_s", "level_s_p50", "levels", "delta_states"):
        homes[f"parallel.{name}"] = _FRONTIER
    for name in ("steals", "publishes", "claim_imbalance",
                 "speedup_vs_serial.frontier", "speedup_vs_serial.worksteal"):
        homes[f"parallel.{name}"] = ("parallel_2w",)
    homes["parallel.cpu_over_wall"] = _EVERY
    for name in ("detect_to_restart_s", "worker_restarts", "recovery_overhead_s"):
        homes[f"chaos.{name}"] = ("recover_resume",)
    for name in ("walks_per_s.object", "walks_per_s.fast", "steps_per_walk",
                 "distinct_states", "first_violation_walk"):
        homes[f"swarm.{name}"] = ("swarm_walks",)
    for name in ("tcp_ping_us", "overhead_ms_p50", "cache_get_us", "cache_put_us",
                 "protocol_fingerprint_ms", "cache_hit_ratio", "engine_runs"):
        homes[f"service.{name}"] = ("service_closed",)
    homes["obs.telemetry_overhead_ratio"] = ("exhaustive_fast",)
    homes["obs.trace_overhead_ratio"] = _EVERY
    for name in ("submit_cold_ms_p50", "submit_cold_ms_p90", "submit_hit_ms_p50",
                 "submit_hit_ms_p95", "jobs_per_s"):
        homes[name] = ("service_closed",)
    homes["walks_per_s"] = ("swarm_walks",)
    homes["checkpoint_mb"] = ("recover_resume",)
    homes["failed_share"] = _EVERY
    return homes


HOMES = _homes()

_EVENT_KINDS = ("level-completed", "worker-crashed", "worker-restarted",
                "worker-report")


class SpanLog:
    """In-memory span rows: name, start, end, parent, op id."""

    def __init__(self) -> None:
        self.rows: List[Dict] = []
        self._open: List[str] = []
        self.op: Optional[str] = None

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._open.pop()
            self.add(name, started, time.perf_counter(), parent)

    def add(self, name: str, start: float, end: float, parent: Optional[str]) -> None:
        self.rows.append({"name": name, "start": start, "end": end,
                          "parent": parent, "op": self.op})


class TimedReducer:
    """Times every call of a stubborn-set reducer and counts its choices."""

    def __init__(self, reducer: Callable) -> None:
        self._reducer = reducer
        self.seconds = 0.0
        self.enabled = 0
        self.kept = 0

    def __call__(self, context):
        started = time.perf_counter()
        reduced = self._reducer(context)
        self.seconds += time.perf_counter() - started
        self.enabled += len(context.enabled)
        self.kept += len(reduced)
        return reduced


class Tracer:
    """The ``runner`` the traced child hands to ``run_plan_op``.

    Runs every op with an event-timestamping observer and an explicit
    ``RunTelemetry``; serial stubborn-set ops are driven through
    ``dfs_search`` / ``fast_dfs_search`` directly so the reducer can be
    wrapped (``run_plan`` builds its reducer internally).
    """

    def __init__(self) -> None:
        self.spans = SpanLog()
        #: Per-op in-situ details, keyed by op id.
        self.ops: Dict[str, Dict] = {}

    def __call__(self, op_spec, protocol, invariant, plan):
        from repro import run_plan
        from repro.engine import Observer
        from repro.obs.telemetry import RunTelemetry

        detail: Dict = {"events": [], "started": time.perf_counter()}
        self.ops[op_spec["id"]] = detail
        self.spans.op = op_spec["id"]

        class Clock(Observer):
            def on_event(self, event) -> None:
                if event.kind in _EVENT_KINDS:
                    detail["events"].append(
                        (event.kind, time.perf_counter(), dict(event.payload)))

        observer = Clock()
        telemetry = RunTelemetry(observer=observer)
        serial_spor = plan.reduction in ("spor", "spor-net") and plan.workers == 1
        with self.spans.span("op"):
            if serial_spor:
                return self._run_serial_spor(protocol, invariant, plan,
                                             observer, telemetry, detail)
            return run_plan(protocol, invariant, plan, observer=observer,
                            telemetry=telemetry)

    def _run_serial_spor(self, protocol, invariant, plan, observer, telemetry, detail):
        from repro import CheckResult
        from repro.checker.search import dfs_search
        from repro.engine.engines import make_reducer
        from repro.engine.plan import strategy_label
        from repro.engine.registry import resolve
        from repro.fastpath.search import fast_dfs_search

        engine, resolved = resolve(plan)
        with self.spans.span("por.precompute"):
            started = time.perf_counter()
            reducer = TimedReducer(make_reducer(protocol, resolved))
            detail["precompute_s"] = time.perf_counter() - started
        detail["reducer"] = reducer
        search = fast_dfs_search if resolved.successors == "fast" else dfs_search
        with telemetry.span("search", engine=engine.name), self.spans.span("search"):
            outcome = search(protocol, invariant, resolved.search_config(),
                             reducer=reducer, observer=observer,
                             telemetry=telemetry)
        telemetry.record_statistics(outcome.statistics, engine=engine.name)
        # One aggregate row: the reducer's busy time inside this search.
        self.spans.add(f"por.reduce.{resolved.successors}", detail["started"],
                       detail["started"] + reducer.seconds, "search")
        return CheckResult(
            protocol_name=protocol.name, property_name=invariant.name,
            strategy=strategy_label(resolved), verified=outcome.verified,
            complete=outcome.complete, counterexample=outcome.counterexample,
            statistics=outcome.statistics, stateful=resolved.stateful,
            plan=resolved, engine=engine.name, telemetry=telemetry.snapshot(),
        )


# --------------------------------------------------------------------- #
# (b) layer replay
# --------------------------------------------------------------------- #

def _collect(initial, enabled: Callable, successor: Callable, key: Callable,
             seed: int, sample: int) -> List:
    """Seeded random-frontier exploration: ``sample`` reachable states.

    Popping a random frontier entry mixes shallow and deep states, unlike
    a breadth-first prefix; the same seed gives the same sample.
    """
    rng = random.Random(seed)
    seen = {key(initial)}
    frontier = [initial]
    sampled = []
    while frontier and len(sampled) < sample:
        index = rng.randrange(len(frontier))
        frontier[index], frontier[-1] = frontier[-1], frontier[index]
        state = frontier.pop()
        sampled.append(state)
        for execution in enabled(state):
            child = successor(state, execution)
            child_key = key(child)
            if child_key not in seen:
                seen.add(child_key)
                frontier.append(child)
    return sampled


def _time_each(function: Callable, items) -> float:
    started = time.perf_counter()
    for item in items:
        function(item)
    return time.perf_counter() - started


def replay_cell(cell: str, model: str, engine_kind: str, seed: int,
                with_reducer: bool = False, stateful: bool = True,
                sample: int = REPLAY_SAMPLE) -> Dict:
    """Time each layer's public function over a seeded state sample.

    ``stateful`` picks the object engine's configuration the way the
    searches do: pass-through for stateful searches, caching for the
    stateless ones (swarm walks), whose steps are mostly cache hits.
    Returns raw totals (seconds and counts), so callers can both report
    per-unit costs and attribute an op's search time to layers.
    """
    from repro.checker.search import ReductionContext
    from repro.checker.statestore import make_state_store
    from repro.fastpath.compiler import FastSuccessorEngine
    from repro.fastpath.search import make_invariant_checker
    from repro.mp.semantics import SuccessorEngine

    protocol, invariant = wl.build_protocol({"cell": cell, "model": model})
    totals: Dict = {"cell": cell, "engine": engine_kind}
    if engine_kind == "fast":
        started = time.perf_counter()
        engine = FastSuccessorEngine(protocol)
        totals["compile_s"] = time.perf_counter() - started
        holds = make_invariant_checker(engine, invariant, protocol)
        states = _collect(engine.initial_packed(), engine.enabled_packed,
                          engine.successor_packed, lambda packed: packed[0],
                          seed, sample)
        enabled, successor, fingerprint = (
            engine.enabled_packed, engine.successor_packed, engine.fingerprint)
    else:
        engine = SuccessorEngine.for_search(protocol, stateful=stateful)

        def holds(state):
            return invariant.holds_in(state, protocol)

        states = _collect(engine.initial_state(), engine.enabled,
                          engine.successor, lambda state: state, seed, sample)
        enabled, successor = engine.enabled, engine.successor

        def fingerprint(state):
            return state.fingerprint()

    totals["states"] = len(states)
    started = time.perf_counter()
    enabled_sets = [enabled(state) for state in states]
    totals["enabled_s"] = time.perf_counter() - started
    edges = [(state, execution) for state, executions in zip(states, enabled_sets)
             for execution in executions]
    totals["executions"] = len(edges)
    started = time.perf_counter()
    children = [successor(state, execution) for state, execution in edges]
    totals["successor_s"] = time.perf_counter() - started
    totals["fingerprint_s"] = _time_each(fingerprint, children)
    totals["invariant_s"] = _time_each(holds, states)

    if engine_kind == "fast":
        totals["decode_s"] = _time_each(engine.decode, states)
        stats = engine.memo_stats()
        totals["memo_hits"], totals["memo_misses"] = stats["hits"], stats["misses"]
        totals["table_entries"] = stats["entries"]
        store_items = [engine.decode(child) for child in children]
    else:
        store_items = children
    for kind in STORE_KINDS:
        store = make_state_store(kind)
        totals[f"store_add_s.{kind}"] = _time_each(store.add, store_items)
        totals[f"store_added.{kind}"] = len(store)
        totals[f"store_dup_s.{kind}"] = _time_each(store.add, store_items)
    totals["store_items"] = len(store_items)

    if with_reducer:
        from repro import CheckPlan
        from repro.engine.engines import make_reducer

        reducer = make_reducer(protocol, CheckPlan(reduction="spor-net"))
        if engine_kind == "fast":
            object_states = [engine.decode(state) for state in states]
            object_engine = SuccessorEngine.for_search(protocol, stateful=True)
        else:
            object_states, object_engine = states, engine
        contexts = []
        for state in object_states:
            executions = object_engine.enabled(state)
            if len(executions) > 1:
                contexts.append(ReductionContext(
                    state=state, enabled=executions, protocol=protocol,
                    successor=lambda execution, state=state:
                        object_engine.successor(state, execution),
                    on_stack=lambda candidate: False, engine=object_engine))
        totals["reduce_s"] = _time_each(reducer, contexts)
        totals["reduce_calls"] = len(contexts)
    return totals


def _per(totals: List[Dict], seconds_key: str, count_key: str, scale: float = 1e6) -> float:
    count = sum(t.get(count_key, 0) for t in totals if seconds_key in t)
    seconds = sum(t[seconds_key] for t in totals if seconds_key in t)
    return scale * seconds / count if count else 0.0


def replay_metrics(replays: List[Dict]) -> Dict[str, float]:
    """Per-unit layer costs from the replay totals (0 where not replayed)."""
    objects = [t for t in replays if t["engine"] == "object"]
    fasts = [t for t in replays if t["engine"] == "fast"]
    layers = {
        "mp.enabled_us_per_state": _per(objects, "enabled_s", "states"),
        "mp.successor_us_per_exec": _per(objects, "successor_s", "executions"),
        "mp.fingerprint_us_per_state": _per(objects, "fingerprint_s", "executions"),
        "mp.executions_per_state": _per(objects, "executions", "states", 1.0),
        "fastpath.compile_s": sum(t["compile_s"] for t in fasts),
        "fastpath.enabled_us_per_state": _per(fasts, "enabled_s", "states"),
        "fastpath.successor_us_per_exec": _per(fasts, "successor_s", "executions"),
        "fastpath.fingerprint_us_per_state": _per(fasts, "fingerprint_s", "executions"),
        "fastpath.decode_us_per_state": _per(fasts, "decode_s", "states"),
        "checker.invariant_us_per_state": _per(replays, "invariant_s", "states"),
        "por.reduce_us_per_state": _per(replays, "reduce_s", "reduce_calls"),
    }
    for kind in STORE_KINDS:
        layers[f"checker.store_add_us.{kind}"] = _per(
            replays, f"store_add_s.{kind}", f"store_added.{kind}")
        layers[f"checker.store_dup_us.{kind}"] = _per(
            replays, f"store_dup_s.{kind}", "store_items")
    return layers


def attributed_seconds(record: Dict, op_spec: Dict, replays: List[Dict],
                       detail: Optional[Dict]) -> float:
    """Search time of one op explained by replayed and in-situ layer costs.

    The replay of the op's own cell is used when there is one, otherwise
    the workload's replay of the same engine family.
    """
    plan = op_spec["plan"]
    kind = plan.get("successors", "object")
    same_engine = [t for t in replays if t["engine"] == kind]
    own = [t for t in same_engine if t["cell"] == op_spec["cell"]] or same_engine
    if not own or "states" not in record:
        return 0.0
    states, transitions = record["states"], record["transitions"]
    store = plan.get("store", "full")
    per_state = _per(own, "enabled_s", "states", 1.0) + _per(own, "invariant_s", "states", 1.0)
    per_edge = _per(own, "successor_s", "executions", 1.0)
    if kind == "fast":
        per_edge += _per(own, "fingerprint_s", "executions", 1.0)
    if plan.get("backend") == "swarm":
        # A walk keeps no store and pays every layer once per step.
        return transitions * (per_state + per_edge)
    seconds = states * per_state + transitions * per_edge
    seconds += states * _per(own, f"store_add_s.{store}", f"store_added.{store}", 1.0)
    seconds += max(0, transitions - states) * _per(own, f"store_dup_s.{store}", "store_items", 1.0)
    if detail and "reducer" in detail:
        seconds += detail["reducer"].seconds
    return seconds


# --------------------------------------------------------------------- #
# (c) direct calls and per-workload extras
# --------------------------------------------------------------------- #

def _family(cell: str) -> str:
    return cell.replace("faulty-", "").split("-")[0]


def _build_ms(ops: List[Dict]) -> Dict[str, float]:
    totals = {"paxos": 0.0, "storage": 0.0, "multicast": 0.0}
    for op_spec in ops:
        started = time.perf_counter()
        wl.build_protocol(op_spec)
        totals[_family(op_spec["cell"])] += 1e3 * (time.perf_counter() - started)
    return {f"protocols.build_ms.{family}": ms for family, ms in totals.items()}


def _resolve_us(ops: List[Dict], iterations: int = 300) -> float:
    from repro import CheckPlan, default_registry

    registry = default_registry()
    plans = [CheckPlan(**{k: v for k, v in op_spec["plan"].items()
                          if k not in ("checkpoint_dir", "resume_from")})
             for op_spec in ops]
    started = time.perf_counter()
    for _ in range(iterations):
        for plan in plans:
            registry.resolve(plan)
    return 1e6 * (time.perf_counter() - started) / (iterations * len(plans))


def _sum(records: List[Dict], *path) -> float:
    total = 0.0
    for record in records:
        value = record
        for key in path:
            value = value.get(key, {}) if isinstance(value, dict) else {}
        total += value if isinstance(value, (int, float)) else 0.0
    return total


def _plan_layers(records: List[Dict], ops: List[Dict], tracer: Tracer,
                 replays: List[Dict]) -> Dict[str, float]:
    """Layer metrics every plan-driven workload shares."""
    done = [r for r in records if "states" in r]
    layers = dict(_build_ms(ops))
    layers["engine.resolve_us"] = _resolve_us(ops)
    layers.update(replay_metrics(replays))
    search_s = _sum(done, "spans", "search")
    layers["checker.search_s"] = search_s
    layers["checker.compile_s"] = _sum(done, "spans", "compile")
    wall = sum(r["wall_s"] for r in done)
    layers["checker.states_per_s"] = sum(r["states"] for r in done) / wall if wall else 0.0
    transitions = sum(r["transitions"] for r in done)
    layers["checker.revisit_ratio"] = (
        sum(r["revisits"] for r in done) / transitions if transitions else 0.0)
    layers["checker.ce_replay_ms"] = 1e3 * sum(r.get("ce_replay_s", 0.0) for r in done)
    hits = _sum(done, "counters", "fastpath_memo_hits")
    misses = _sum(done, "counters", "fastpath_memo_misses")
    layers["fastpath.memo_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layers["fastpath.table_entries"] = max(
        [t.get("table_entries", 0) for t in replays] or [0])

    by_id = {op_spec["id"]: op_spec for op_spec in ops}
    if replays:
        explained = sum(
            attributed_seconds(r, by_id[r["op"]], replays, tracer.ops.get(r["op"]))
            for r in done)
        explained += sum(d.get("precompute_s", 0.0) for d in tracer.ops.values())
        layers["checker.search_self_s"] = search_s - explained
        layers["checker.attributed_share"] = explained / search_s if search_s else 0.0
    return layers


def _por_layers(records: List[Dict], ops: List[Dict], tracer: Tracer,
                unreduced: Dict[str, int]) -> Dict[str, float]:
    layers = {"por.precompute_s": sum(
        d.get("precompute_s", 0.0) for d in tracer.ops.values())}
    seconds = {"object": 0.0, "fast": 0.0}
    enabled = kept = 0
    for op_spec in ops:
        reducer = tracer.ops.get(op_spec["id"], {}).get("reducer")
        if reducer is None:
            continue
        seconds[op_spec["plan"].get("successors", "object")] += reducer.seconds
        enabled += reducer.enabled
        kept += reducer.kept
    layers["por.reduce_s.object"] = seconds["object"]
    layers["por.reduce_s.fast"] = seconds["fast"]
    layers["por.stubborn_ratio"] = kept / enabled if enabled else 0.0
    full = _sum(records, "counters", "full_expansions")
    reduced = _sum(records, "counters", "reduced_expansions")
    layers["por.full_expansion_share"] = full / (full + reduced) if full + reduced else 0.0
    for record, op_spec in zip(records, ops):
        key = f"{op_spec['cell']}.{op_spec['model'][0]}"
        if (op_spec["plan"].get("successors", "object") == "object"
                and key in unreduced and "states" in record):
            layers[f"por.reduced_over_unreduced.{op_spec['cell']}"] = (
                record["states"] / unreduced[key])
    return layers


def _events(detail: Optional[Dict], kind: str) -> List[Tuple[float, Dict]]:
    if detail is None:  # the op never reached its engine
        return []
    return [(at, payload) for name, at, payload in detail["events"] if name == kind]


def _frontier_layers(detail: Optional[Dict]) -> Dict[str, float]:
    levels = _events(detail, "level-completed")
    if not levels:
        return {}
    times = [at for at, _ in levels]
    gaps = [b - a for a, b in zip(times, times[1:])]
    return {
        "parallel.first_level_s": times[0] - detail["started"],
        "parallel.level_s_p50": statistics.median(gaps) if gaps else 0.0,
        "parallel.levels": len(levels),
        "parallel.delta_states": sum(p.get("deltas", 0) for _, p in levels),
    }


def _serial_wall(op_spec: Dict) -> float:
    """Wall of the op's plan on one worker (the ``bypass`` twin)."""
    serial = dict(op_spec, plan=dict(op_spec["plan"], backend="serial", workers=1))
    serial["plan"].pop("chaos", None)
    return wl.run_plan_op(serial, *wl.build_protocol(serial))["wall_s"]


def _parallel_layers(records, ops, tracer) -> Dict[str, float]:
    layers = _frontier_layers(tracer.ops.get(ops[0]["id"]))
    claimed = [p["claimed"] for _, p in
               _events(tracer.ops.get(ops[1]["id"]), "worker-report")]
    if claimed:
        layers["parallel.claim_imbalance"] = max(claimed) / statistics.mean(claimed)
    layers["parallel.steals"] = _sum(records[1:], "counters", "worksteal_steals")
    layers["parallel.publishes"] = _sum(records[1:], "counters", "worksteal_publishes")
    for name, record, op_spec in zip(("frontier", "worksteal"), records, ops):
        layers[f"parallel.speedup_vs_serial.{name}"] = (
            _serial_wall(op_spec) / record["wall_s"])
    return layers


def _recover_layers(ctx, records, ops, tracer) -> Dict[str, float]:
    from repro.checker.checkpoint import load_checkpoint, write_checkpoint

    layers: Dict[str, float] = {}
    crashed_detail = tracer.ops.get(ops[-1]["id"])
    layers.update(_frontier_layers(crashed_detail))
    crashes = _events(crashed_detail, "worker-crashed")
    restarts = _events(crashed_detail, "worker-restarted")
    layers["chaos.worker_restarts"] = len(restarts)
    if crashes and restarts:
        layers["chaos.detect_to_restart_s"] = restarts[0][0] - crashes[0][0]
    clean = dict(ops[-1], plan={k: v for k, v in ops[-1]["plan"].items() if k != "chaos"})
    clean_wall = wl.run_plan_op(clean, *wl.build_protocol(clean))["wall_s"]
    layers["chaos.recovery_overhead_s"] = records[-1]["wall_s"] - clean_wall
    middle = getattr(ctx, "middle_checkpoint", None)
    if middle is not None:
        started = time.perf_counter()
        checkpoint = load_checkpoint(str(middle))
        layers["checker.checkpoint_load_s"] = time.perf_counter() - started
        started = time.perf_counter()
        write_checkpoint(checkpoint, str(ctx.scratch / "rewrite"))
        layers["checker.checkpoint_write_s"] = time.perf_counter() - started
    return layers


def _swarm_layers(records) -> Dict[str, float]:
    layers: Dict[str, float] = {}
    for name, record in zip(("object", "fast"), records):
        if "states" in record:
            layers[f"swarm.walks_per_s.{name}"] = wl.SWARM_WALKS / record["wall_s"]
    if "states" in records[0]:
        layers["swarm.steps_per_walk"] = records[0]["transitions"] / wl.SWARM_WALKS
        layers["swarm.distinct_states"] = records[0]["states"]
    walks = records[2].get("counters", {}).get("swarm_walks_completed")
    if walks:
        layers["swarm.first_violation_walk"] = walks - 1
    return layers


def _service_layers(ctx) -> Dict[str, float]:
    from repro import CheckPlan, run_plan
    from repro.service import ResultCache, protocol_fingerprint

    client = ctx.clients[0]
    pings = 500
    started = time.perf_counter()
    for _ in range(pings):
        client.ping()
    layers = {"service.tcp_ping_us": 1e6 * (time.perf_counter() - started) / pings}
    job = wl.service_jobs()[0]
    protocol, invariant = wl.build_protocol(job)
    plan = CheckPlan(**job["plan"])
    result = run_plan(protocol, invariant, plan)
    rounds = 200
    started = time.perf_counter()
    for _ in range(rounds):
        protocol_fingerprint(protocol)
    layers["service.protocol_fingerprint_ms"] = 1e3 * (time.perf_counter() - started) / rounds
    cache = ResultCache()
    key = cache.key_for(protocol, invariant.name, plan)
    rounds = 20000
    started = time.perf_counter()
    for _ in range(rounds):
        cache.put(key, result)
    layers["service.cache_put_us"] = 1e6 * (time.perf_counter() - started) / rounds
    started = time.perf_counter()
    for _ in range(rounds):
        cache.get(key)
    layers["service.cache_get_us"] = 1e6 * (time.perf_counter() - started) / rounds
    layers["engine.resolve_us"] = _resolve_us(wl.service_jobs())
    return layers


def _cli_layers(records) -> Dict[str, float]:
    walls = []
    for _ in range(3):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro"], check=True,
                       env=wl.child_env())
        walls.append(time.perf_counter() - started)
    layers = {"cli.import_s": statistics.median(walls)}
    for record in records:
        layers[f"cli.check_s.{record['op'][len('cli.'):]}"] = record["wall_s"]
    return layers


def _telemetry_overhead(op_spec: Dict) -> float:
    """Search wall with a ``RunTelemetry`` attached over the bare search."""
    from repro import CheckPlan
    from repro.fastpath.search import fast_dfs_search
    from repro.obs.telemetry import RunTelemetry

    config = CheckPlan(**op_spec["plan"]).search_config()
    walls = []
    for telemetry in (None, RunTelemetry()):
        protocol, invariant = wl.build_protocol(op_spec)
        started = time.perf_counter()
        fast_dfs_search(protocol, invariant, config, telemetry=telemetry)
        walls.append(time.perf_counter() - started)
    return walls[1] / walls[0]


def _split_ms() -> float:
    from repro import combined_split

    protocol, _ = wl.build_protocol({"cell": "paxos-2-3-1", "model": "quorum"})
    started = time.perf_counter()
    combined_split(protocol)
    return 1e3 * (time.perf_counter() - started)


def layer_metrics(name: str, ctx, ops: List[Dict], records: List[Dict],
                  tracer: Tracer, unreduced: Dict[str, int]) -> Dict[str, float]:
    """Everything the traced child measures after its timed loop."""
    if name == "service_closed":
        return _service_layers(ctx)
    if name == "cli_cold":
        return _cli_layers(records)
    plans = [op_spec["plan"] for op_spec in ops]
    reduced = any(plan.get("reduction", "none") != "none" for plan in plans)
    walks = any(plan.get("backend") == "swarm" for plan in plans)
    with tracer.spans.span("layer-replay"):
        replays = [
            replay_cell(cell, model, kind, ctx.seed, with_reducer=reduced,
                        stateful=not walks)
            for cell, model, kind in REPLAY_CELLS[name]
        ]
    layers = _plan_layers(records, ops, tracer, replays)
    if name == "exhaustive_fast":
        layers["obs.telemetry_overhead_ratio"] = _telemetry_overhead(ops[0])
    elif name == "spor_sweep":
        layers.update(_por_layers(records, ops, tracer, unreduced))
        layers["refine.split_ms"] = _split_ms()
    elif name == "parallel_2w":
        layers.update(_parallel_layers(records, ops, tracer))
    elif name == "recover_resume":
        layers.update(_recover_layers(ctx, records, ops, tracer))
    elif name == "swarm_walks":
        layers.update(_swarm_layers(records))
    return layers
