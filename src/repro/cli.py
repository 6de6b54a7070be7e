"""``python -m repro`` — reproduce the paper's experiments from the shell.

Subcommands:

``cells``
    List the catalog cells (Table-I rows) available at a scale.
``engines``
    Print the engine table: the plan-axis values each engine accepts
    (shape × reduction × backend × workers × store × successors × goal).
    With ``--plan`` plus axis options it becomes a *dry run*: it prints the
    resolution decision — the chosen engine and the concretised backend, or
    the structured ``UnsupportedPlanError`` diagnostic with the nearest
    supported alternative — without running anything.
``check``
    Check one cell under the plan its axis flags name (``--shape`` /
    ``--reduction`` / ``--backend`` / ...; ``spor`` when neither shape nor
    reduction is given); plan resolution picks the backend for
    ``--workers N`` automatically (frontier-parallel BFS for bfs shapes,
    work-stealing DFS otherwise).  ``--goal liveness`` checks the cell's
    liveness property with the nested-DFS engines instead of its invariant.
    ``--progress`` streams the engine's event feed while it runs.
``sweep``
    Run a grid of cells, optionally farming independent cells across a
    process pool (``--workers N``) and/or giving every cell an inner
    worker count (``--cell-workers N``).
``serve``
    Run the checking service: a JSON-lines-over-TCP job server with a
    bounded queue, a concurrent worker pool, per-job event streams, a
    verdict cache (complete results only) and a heartbeat health probe.
``submit``
    Thin client of ``serve``: submit one cell/plan/budget job, wait for
    the verdict, exit 0 (verified) / 1 (violated) / 2 (error) /
    3 (inconclusive — the budget ran out before the verdict).  With
    ``--cancel JOB`` it cancels a job instead: the job ends as
    ``Inconclusive (cancelled)`` (exit 3) and its worker slot is reused.
``trace``
    Convert a ``--trace-out`` JSONL event capture into Chrome trace-event
    JSON, loadable in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``: phase spans as slices, progress/frontier/worker
    counters as counter tracks, violations and stalls as instants.

``check --json PATH`` and ``sweep --json PATH`` write their records as one
``repro-bench/1`` payload (:func:`repro.analysis.aggregate.write_records`).
Speed is measured by the ledger (``benchmarks/ledger/``), not by the CLI.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from .analysis.aggregate import record_outcome, write_records
from .checker.statestore import STORE_KINDS
from .engine.events import MultiObserver, ProgressPrinter
from .obs import JsonlSink, convert_file
from .engine.plan import (
    BACKENDS,
    GOALS,
    REDUCTIONS,
    SHAPES,
    SUCCESSOR_MODES,
    CheckPlan,
    UnsupportedPlanError,
)
from .engine.engines import ENGINES
from .engine.registry import resolve
from .parallel.cells import MODELS, CellSpec, run_cell, run_cells, specs_for_sweep
from .protocols.catalog import default_catalog


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-states", type=int, default=None,
                        help="abort a cell after this many stored states "
                             "(swarm: total walk steps)")
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="abort a cell after this wall-clock budget")
    parser.add_argument("--max-depth", type=int, default=None,
                        help="depth budget; for --backend swarm the "
                             "per-walk step bound (default 256)")
    parser.add_argument("--store", choices=[k for k in STORE_KINDS if k != "none"],
                        default="full", help="visited-state store kind")
    parser.add_argument("--scale", choices=("small", "paper"), default="small",
                        help="catalog scale the cell keys belong to")


def _parse_cells(value: Optional[str]) -> Optional[List[str]]:
    if value is None or value == "all":
        return None
    return [key.strip() for key in value.split(",") if key.strip()]


def _plan_from_args(args, workers: int) -> CheckPlan:
    """The one place a command line becomes a :class:`CheckPlan`.

    Shared by ``check``, ``sweep`` and ``engines --plan``; a flag a
    subcommand does not have leaves its axis at the plan default.  With
    neither ``--shape`` nor ``--reduction`` an invariant check runs
    ``spor``, while a liveness goal and the swarm backend run ``dfs/none``,
    the one configuration their engines support.  ``workers <= 1`` means
    serial (0 is an accepted spelling of "no pool").  Cross-axis
    normalisation (dpor and swarm are stateless and store nothing) is the
    plan's own.
    """
    option = vars(args).get
    goal = option("goal", "invariant")
    backend = option("backend", "auto")
    shape, reduction = option("shape"), option("reduction")
    if shape is None and reduction is None and goal == "invariant" and backend != "swarm":
        reduction = "spor"
    return CheckPlan(
        shape=shape or "dfs",
        reduction=reduction or "none",
        store=option("store", "full"),
        backend=backend,
        workers=max(1, workers),
        successors=option("successors", "object"),
        goal=goal,
        max_depth=option("max_depth"),
        max_states=option("max_states"),
        max_seconds=option("max_seconds"),
        walks=option("walks"),
        walk_seed=option("seed"),
        chaos=option("chaos"),
        checkpoint_dir=option("checkpoint_dir"),
        checkpoint_every=option("checkpoint_every"),
        resume_from=option("resume"),
    )


def _print_records(records: Sequence[dict], stream) -> None:
    for record in records:
        # One shared derivation (checker.result outcome -> label) for
        # check, sweep and submit lines alike.
        outcome = record_outcome(record)
        flag = "" if record.get("ok", True) else "  [UNEXPECTED]"
        stream.write(
            f"{record.get('cell', record['protocol'])} | {record.get('model', '-')} | "
            f"{record['strategy']}"
            + (f" x{record['workers']}" if record.get("workers", 1) > 1 else "")
            + f": {outcome} — {record['states_visited']:,} states, "
            f"{record['elapsed_seconds']:.2f}s{flag}\n"
        )


def _command_cells(args, stream) -> int:
    for entry in default_catalog(args.scale):
        expected = "CE" if entry.expect_violation else "Verified"
        line = f"{entry.key:<24} {entry.description:<32} expected: {expected}"
        if entry.liveness is not None:
            liveness_expected = "CE" if entry.expect_liveness_violation else "Verified"
            line += f"  liveness[{entry.liveness.name}]: {liveness_expected}"
        stream.write(line + "\n")
    return 0


def _command_engines(args, stream) -> int:
    """Print the engine table, or dry-run one plan's resolution."""
    if args.plan:
        return _command_engines_plan(args, stream)
    for engine in ENGINES:
        stream.write(
            f"{engine.name:<18} "
            f"shape={'|'.join(engine.shape)} "
            f"reduction={'|'.join(engine.reduction)} "
            f"backend={'|'.join(engine.backend)} "
            f"{engine.describe('workers')} "
            f"store={'|'.join(engine.store)} "
            f"successors={'|'.join(engine.successors)} "
            f"goal={'|'.join(engine.goal)}\n"
        )
        stream.write(f"{'':<18} {engine.description}\n")
    return 0


def _command_engines_plan(args, stream) -> int:
    """Dry-run plan resolution: print the decision without running.

    Exit code 0 when the plan resolves; 2 with the structured diagnostic
    (offending axis, engine note, runnable nearest alternative) when no
    engine accepts the combination.
    """
    plan = _plan_from_args(args, args.workers)
    try:
        engine, resolved = resolve(plan)
    except UnsupportedPlanError as error:
        stream.write(f"plan {plan.describe()}: unsupported\n")
        stream.write(f"  axis: {error.axis} = {error.value!r}\n")
        stream.write(f"  {error}\n")
        if isinstance(error.alternative, CheckPlan):
            alt_engine, alt_resolved = resolve(error.alternative)
            stream.write(
                f"  alternative {error.alternative.describe()} resolves to "
                f"{alt_engine.name} (backend {alt_resolved.backend})\n"
            )
        return 2
    stream.write(
        f"plan {plan.describe()} -> engine {engine.name} "
        f"(backend {resolved.backend}, workers {resolved.workers})\n"
    )
    return 0


def _command_check(args, stream) -> int:
    spec = CellSpec(key=args.cell, model=args.model, scale=args.scale,
                    plan=_plan_from_args(args, args.workers))
    observers = []
    if args.progress:
        observers.append(ProgressPrinter(stream))
    sink = None
    if args.trace_out:
        sink = JsonlSink(args.trace_out)
        observers.append(sink)
    observer = None
    if len(observers) == 1:
        observer = observers[0]
    elif observers:
        observer = MultiObserver(observers)
    try:
        record = run_cell(spec, observer=observer)
    finally:
        if sink is not None:
            sink.close()
    if sink is not None:
        stream.write(
            f"wrote {sink.events_written} events to {args.trace_out} "
            f"(render with: python -m repro trace {args.trace_out})\n"
        )
    _print_records([record], stream)
    if args.json:
        write_records(args.json, [record])
        stream.write(f"wrote {args.json}\n")
    if args.backend == "swarm":
        # Sampling runs exit by verdict, like `submit`: a violation is the
        # sought-for positive signal (1), an exhausted budget is honest
        # inconclusiveness (3) — the catalog's expectation flag cannot make
        # a non-exhaustive run "agree" with anything.
        return SUBMIT_EXIT_CODES[record["outcome"]]
    return 0 if record["ok"] else 1


def _command_sweep(args, stream) -> int:
    plan = _plan_from_args(args, args.cell_workers)
    specs = specs_for_sweep(
        keys=_parse_cells(args.cells),
        scale=args.scale,
        models=tuple(args.models.split(",")),
        plan=plan,
    )
    started = time.perf_counter()
    records = run_cells(specs, workers=args.workers)
    wall = time.perf_counter() - started
    _print_records(records, stream)
    # Inner-parallel cells bypass the (daemonic) pool inside run_cells.
    pooled = args.workers > 1 and len(specs) > 1 and plan.workers <= 1
    stream.write(
        f"swept {len(records)} cells in {wall:.2f}s "
        f"({f'{args.workers}-process pool' if pooled else 'serial loop'})\n"
    )
    if args.json:
        write_records(args.json, records, workers=args.workers,
                      sweep_seconds=wall, plan=plan.describe())
        stream.write(f"wrote {args.json}\n")
    return 0 if all(record["ok"] for record in records) else 1


def _command_serve(args, stream) -> int:
    """Run the checking service until a ``shutdown`` op (or Ctrl-C)."""
    import asyncio

    from .service import CheckService, ResultCache, serve

    def announce(host, port):
        # Written (and flushed) before the first job so scripted callers
        # can scrape the bound port when --port 0 picked a free one.
        stream.write(f"repro service {host}:{port} "
                     f"({args.workers} workers, queue {args.queue_limit})\n")
        getattr(stream, "flush", lambda: None)()

    service = CheckService(
        workers=args.workers,
        queue_limit=args.queue_limit,
        cache=ResultCache(capacity=args.cache_capacity),
    )
    try:
        # handle_signals: SIGTERM/SIGINT run the same graceful path as the
        # 'shutdown' op — active jobs are cancelled (finishing as honest
        # 'Inconclusive (cancelled)' records), slots drained, sinks closed.
        asyncio.run(
            serve(host=args.host, port=args.port, service=service,
                  announce=announce, handle_signals=True)
        )
        stream.write("service stopped\n")
    except KeyboardInterrupt:
        # Platforms where loop signal handlers are unavailable fall back
        # to the interrupt propagating here.
        stream.write("service interrupted\n")
    return 0


#: ``repro submit`` exit codes, one per verdict: 0 verified, 1 violated,
#: 2 error/unsupported plan (matching the top-level handler), 3 honest
#: "the budget ran out" — scripts can branch on partiality explicitly.
SUBMIT_EXIT_CODES = {"verified": 0, "violated": 1, "inconclusive": 3}


def _command_submit(args, stream) -> int:
    """Submit one job to a running service and render its verdict."""
    from .service.client import ServiceClient, ServiceClientError

    if args.cancel is not None:
        return _cancel_job(args, stream)
    if args.cell is None:
        stream.write("error: a catalog cell is required unless --cancel JOB is given\n")
        return 2
    plan = {
        "shape": args.shape,
        "reduction": args.reduction,
        "backend": args.backend,
        "successors": args.successors,
        "workers": args.workers,
        "goal": args.goal,
    }
    budgets = {
        knob: value
        for knob, value in (
            ("max_states", args.max_states),
            ("max_seconds", args.max_seconds),
            ("max_depth", args.max_depth),
            ("max_wall_seconds", args.max_wall_seconds),
        )
        if value is not None
    }
    try:
        with ServiceClient(host=args.host, port=args.port) as client:
            record = client.submit(
                args.cell,
                model=args.model,
                scale=args.scale,
                plan=plan,
                budgets=budgets,
                wait=True,
            )
            if args.shutdown:
                client.shutdown()
    except ServiceClientError as error:
        stream.write(f"error: {error}\n")
        if error.alternative:
            stream.write(f"nearest supported alternative: {error.alternative}\n")
        return 2
    except OSError as error:
        stream.write(
            f"error: cannot reach service at {args.host}:{args.port} ({error}); "
            "start one with 'python -m repro serve'\n"
        )
        return 2
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    if record["status"] == "failed":
        stream.write(f"error: job {record['job']} failed: {record.get('error')}\n")
        return 2
    cached = " [cached]" if record.get("cache_hit") else ""
    _print_records([record], stream)
    stream.write(f"job {record['job']}: {record['outcome']}{cached}\n")
    return SUBMIT_EXIT_CODES[record["outcome"]]


def _cancel_job(args, stream) -> int:
    """``repro submit --cancel JOB``: cancel a job on a running service.

    Exit code follows the verdict discipline: a job that was actually
    cancelled (queued or preempted mid-run) is inconclusive by
    construction, so the command exits 3; cancelling an already-finished
    job reports that job's real verdict instead.
    """
    from .service.client import ServiceClient, ServiceClientError

    try:
        with ServiceClient(host=args.host, port=args.port) as client:
            record = client.cancel(args.cancel, wait=True)
            if args.shutdown:
                client.shutdown()
    except ServiceClientError as error:
        stream.write(f"error: {error}\n")
        return 2
    except OSError as error:
        stream.write(
            f"error: cannot reach service at {args.host}:{args.port} ({error}); "
            "start one with 'python -m repro serve'\n"
        )
        return 2
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    status = record["status"]
    if status == "failed":
        stream.write(f"job {record['job']}: failed: {record.get('error')}\n")
        return 2
    outcome = record.get("outcome", "inconclusive")
    stream.write(f"job {record['job']}: {status} ({outcome})\n")
    return SUBMIT_EXIT_CODES[outcome]


def _command_trace(args, stream) -> int:
    """Convert a JSONL event capture into Chrome trace-event JSON."""
    source = Path(args.events)
    destination = Path(args.output) if args.output else source.with_suffix(".trace.json")
    count = convert_file(source, destination)
    stream.write(
        f"wrote {destination} ({count} trace events; open in "
        "https://ui.perfetto.dev or chrome://tracing)\n"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Model-check the paper's protocol cells, serially or in parallel.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    cells = subparsers.add_parser("cells", help="list the catalog cells")
    cells.add_argument("--scale", choices=("small", "paper"), default="small")
    cells.set_defaults(handler=_command_cells)

    engines = subparsers.add_parser(
        "engines", help="print the engine table: the axis values each engine accepts"
    )
    engines.add_argument("--plan", action="store_true",
                         help="dry-run: print the resolution decision for "
                              "the axes below without running anything")
    engines.add_argument("--shape", choices=SHAPES, default="dfs")
    engines.add_argument("--reduction", choices=REDUCTIONS, default="none")
    engines.add_argument("--backend", choices=BACKENDS, default="auto")
    engines.add_argument("--workers", type=int, default=1)
    engines.add_argument("--store", choices=STORE_KINDS, default="full")
    engines.add_argument("--successors", choices=SUCCESSOR_MODES,
                         default="object")
    engines.add_argument("--goal", choices=GOALS, default="invariant")
    engines.set_defaults(handler=_command_engines)

    check = subparsers.add_parser("check", help="check one cell")
    check.add_argument("cell", help="catalog key, e.g. paxos-2-2-1")
    check.add_argument("--model", choices=MODELS, default="quorum")
    check.add_argument("--shape", choices=SHAPES, default=None,
                       help="plan axis: search shape (default dfs)")
    check.add_argument("--reduction", choices=REDUCTIONS, default=None,
                       help="plan axis: partial-order reduction (default "
                            "spor for an invariant check without --shape, "
                            "else none)")
    check.add_argument("--backend", choices=BACKENDS, default="auto",
                       help="execution backend; 'auto' picks serial/"
                            "frontier/worksteal from shape and workers")
    check.add_argument("--successors", choices=SUCCESSOR_MODES,
                       default="object",
                       help="successor-engine family: 'fast' opts into the "
                            "packed table-compiled fast path")
    check.add_argument("--workers", type=int, default=1,
                       help="in-cell workers: frontier-parallel for bfs, "
                            "work-stealing DFS for dfs")
    check.add_argument("--goal", choices=GOALS, default="invariant",
                       help="check the cell's invariant (default) or its "
                            "liveness property (nested DFS; defaults to "
                            "--shape dfs --reduction none)")
    check.add_argument("--walks", type=int, default=None,
                       help="walk budget for --backend swarm (default 1000)")
    check.add_argument("--seed", type=int, default=None, dest="seed",
                       help="root seed for --backend swarm; every walk and "
                            "the whole run replay bit-identically from it "
                            "(default 0)")
    check.add_argument("--chaos", default=None, metavar="PLAN",
                       help="crash plan for the frontier or swarm pool's "
                            "workers, e.g. 'crash:1@3' (see repro.chaos; "
                            "testing only)")
    check.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="write a resumable checkpoint at level barriers "
                            "of BFS-shaped searches")
    check.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N", help="checkpoint every N levels "
                                         "(default: every level)")
    check.add_argument("--resume", default=None, metavar="PATH",
                       help="resume from a checkpoint file, or from the "
                            "latest checkpoint in a directory")
    check.add_argument("--progress", action="store_true",
                       help="stream the engine's event feed while it runs")
    check.add_argument("--trace-out", default=None, metavar="PATH",
                       help="capture the engine event stream as JSONL "
                            "(render with 'python -m repro trace PATH')")
    check.add_argument("--json", default=None, help="write the result payload here")
    _add_budget_arguments(check)
    check.set_defaults(handler=_command_check)

    sweep = subparsers.add_parser("sweep", help="run a grid of cells")
    sweep.add_argument("--cells", default="all",
                       help="comma-separated catalog keys, or 'all'")
    sweep.add_argument("--models", default="quorum",
                       help="comma-separated model variants (quorum,single)")
    sweep.add_argument("--backend", choices=BACKENDS, default="auto",
                       help="execution backend for every cell's own search")
    sweep.add_argument("--successors", choices=SUCCESSOR_MODES,
                       default="object",
                       help="successor-engine family for every cell "
                            "('fast' = packed fast path)")
    sweep.add_argument("--goal", choices=GOALS, default="invariant",
                       help="sweep the invariants (default) or the liveness "
                            "properties of the cells that carry one")
    sweep.add_argument("--workers", type=int, default=2,
                       help="cell-parallel pool size")
    sweep.add_argument("--cell-workers", type=int, default=1,
                       help="inner worker count of every cell's own search "
                            "(cells run one at a time when > 1)")
    sweep.add_argument("--walks", type=int, default=None,
                       help="walk budget per cell for --backend swarm")
    sweep.add_argument("--seed", type=int, default=None, dest="seed",
                       help="root seed for --backend swarm cells")
    sweep.add_argument("--json", default=None, help="write the result payload here")
    _add_budget_arguments(sweep)
    sweep.set_defaults(handler=_command_sweep)

    serve_parser = subparsers.add_parser(
        "serve", help="run the checking service (JSON-lines over TCP)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=7463,
                              help="bind port; 0 picks a free one (printed "
                                   "on the announcement line)")
    serve_parser.add_argument("--workers", type=int, default=2,
                              help="concurrent job slots")
    serve_parser.add_argument("--queue-limit", type=int, default=16,
                              help="bounded submission queue; full means "
                                   "submissions are refused, not buffered")
    serve_parser.add_argument("--cache-capacity", type=int, default=256,
                              help="LRU bound of the verdict cache")
    serve_parser.set_defaults(handler=_command_serve)

    submit = subparsers.add_parser(
        "submit", help="submit one job to a running service"
    )
    submit.add_argument("cell", nargs="?", default=None,
                        help="catalog key, e.g. paxos-2-2-1 "
                             "(not needed with --cancel)")
    submit.add_argument("--cancel", default=None, metavar="JOB",
                        help="cancel a job instead of submitting one: a "
                             "queued job never runs, a running one is "
                             "preempted into 'Inconclusive (cancelled)' "
                             "(exit code 3) and its slot is reused")
    submit.add_argument("--model", choices=MODELS, default="quorum")
    submit.add_argument("--scale", choices=("small", "paper"), default="small")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=7463)
    submit.add_argument("--shape", choices=SHAPES, default="dfs")
    submit.add_argument("--reduction", choices=REDUCTIONS, default="none")
    submit.add_argument("--backend", choices=BACKENDS, default="auto")
    submit.add_argument("--successors", choices=SUCCESSOR_MODES, default="object")
    submit.add_argument("--goal", choices=GOALS, default="invariant")
    submit.add_argument("--workers", type=int, default=1)
    submit.add_argument("--max-states", type=int, default=None,
                        help="per-job budget: truncated runs come back "
                             "'inconclusive' (exit code 3), never 'Verified'")
    submit.add_argument("--max-seconds", type=float, default=None)
    submit.add_argument("--max-depth", type=int, default=None)
    submit.add_argument("--max-wall-seconds", type=float, default=None,
                        help="service-side preemption deadline: past it the "
                             "job is cancelled into 'Inconclusive "
                             "(cancelled)' even if the engine ignores "
                             "--max-seconds")
    submit.add_argument("--json", default=None,
                        help="write the job record payload here")
    submit.add_argument("--shutdown", action="store_true",
                        help="ask the server to stop after this job "
                             "(scripted smoke tests)")
    submit.set_defaults(handler=_command_submit)

    trace = subparsers.add_parser(
        "trace", help="convert a --trace-out JSONL capture to Chrome trace JSON"
    )
    trace.add_argument("events", help="JSONL event capture written by --trace-out")
    trace.add_argument("-o", "--output", default=None,
                       help="destination .trace.json (default: alongside input)")
    trace.set_defaults(handler=_command_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None, stream=None) -> int:
    """CLI entry point; returns the process exit code."""
    stream = stream or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, stream)
    except UnsupportedPlanError as error:
        # The structured diagnostic (offending axis + nearest supported
        # alternative) is the user-facing message; no traceback.
        stream.write(f"error: {error}\n")
        return 2
