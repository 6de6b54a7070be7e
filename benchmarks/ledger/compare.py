"""Compare two ledger records: ``python3 benchmarks/ledger/compare.py OLD NEW``.

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio NEW/OLD with its base, and a verdict against the
metric's bound — ``BENCHMARK.json`` for the metrics every workload
reports, ``run.WORKLOAD_METRICS`` for the ones a single workload
produces:

``ok``          NEW's median is not worse than OLD's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so neither "unchanged" nor "worse" can be claimed —
                unless every NEW sample is better than every OLD sample,
                which reads ``ok``.

``failed_share`` regresses on any increase.  Exit status is 1 when a row
is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

import run


def quartiles(samples: List[float]) -> Tuple[float, float]:
    """First and third quartile; both the sample itself when there is one.

    Inclusive: with the handful of repeats a record holds, the default
    method would extrapolate beyond the samples.
    """
    if len(samples) < 2:
        return samples[0], samples[0]
    first, _, third = statistics.quantiles(samples, n=4, method="inclusive")
    return first, third


def bounds() -> Dict[str, Tuple[str, float]]:
    """metric -> (better, bound) for every bounded end-to-end metric."""
    table = {m["name"]: (m["better"], m["bound"]) for m in run.load_spec()["end_to_end"]}
    table.update({name: (row[1], row[2]) for name, row in run.WORKLOAD_METRICS.items()})
    table["failed_share"] = ("lower", 0.0)
    return table


def verdict(old: List[float], new: List[float], better: str, bound: float) -> str:
    old_median, new_median = statistics.median(old), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0.0:
        return "regressed" if sign * (new_median - old_median) > 0 else "ok"
    if all(sign * n < sign * o for n in new for o in old):
        return "ok"
    for samples in (old, new):
        first, third = quartiles(samples)
        median = statistics.median(samples)
        if median and (third - first) / abs(median) > bound:
            return "unresolved"
    worse_by = sign * (new_median - old_median) / abs(old_median) if old_median else 0.0
    return "regressed" if worse_by > bound else "ok"


def rows(old: Dict, new: Dict) -> List[Dict]:
    table = bounds()
    out = []
    for workload, old_entry in old["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            continue
        for metric, old_cell in old_entry["end_to_end"].items():
            new_cell = new_entry["end_to_end"].get(metric)
            if new_cell is None or metric not in table:
                continue
            better, bound = table[metric]
            old_samples, new_samples = old_cell["samples"], new_cell["samples"]
            old_median = statistics.median(old_samples)
            new_median = statistics.median(new_samples)
            out.append({
                "workload": workload, "metric": metric, "bound": bound,
                "old": old_median, "old_q": quartiles(old_samples),
                "new": new_median, "new_q": quartiles(new_samples),
                "ratio": new_median / old_median if old_median else float("nan"),
                "verdict": verdict(old_samples, new_samples, better, bound),
            })
    return out


def render(table: List[Dict]) -> str:
    lines = [f"{'workload':<18} {'metric':<20} {'old median [q1, q3]':<34} "
             f"{'new median [q1, q3]':<34} {'new/old':>8} {'bound':>6}  verdict"]
    for row in table:
        old = f"{row['old']:.4g} [{row['old_q'][0]:.4g}, {row['old_q'][1]:.4g}]"
        new = f"{row['new']:.4g} [{row['new_q'][0]:.4g}, {row['new_q'][1]:.4g}]"
        lines.append(
            f"{row['workload']:<18} {row['metric']:<20} {old:<34} {new:<34} "
            f"{row['ratio']:>8.3f} {row['bound']:>6.2f}  {row['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    old, new = (json.load(open(path)) for path in argv)
    table = rows(old, new)
    print(f"old: commit {old.get('commit')} seed {old.get('seed')}   "
          f"new: commit {new.get('commit')} seed {new.get('seed')}   "
          "(ratio base: old median)")
    print(render(table))
    return 1 if any(row["verdict"] != "ok" for row in table) else 0


if __name__ == "__main__":
    sys.exit(main())
