#!/usr/bin/env python3
"""Compare two sets of benchmark runs under ``BENCHMARK.json``'s bounds.

    python3 benchmarks/e2e/compare.py BASE.json CHANGE.json

Both files are ``run.py --out`` results, usually recorded with
``--repeat N``.  For every (workload, end-to-end metric) pair in both,
the script prints each side's median, the change in the "worse"
direction as a share of the base median, the run-to-run spread (the
larger side's quartile distance over its median) and a verdict:

``same``        the medians differ by no more than the bound
``better``      the change improves on the base by more than the bound
``worse``       the change regresses by more than the bound
``unresolved``  the spread exceeds the bound, and not every run of the
                change reads better than every run of the base

Exits 1 when any pair is worse or unresolved, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def spread(values: Sequence[float]) -> float:
    """Quartile distance over the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Tuple[float, float, str]:
    """``(relative worsening, spread, verdict)`` of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    med_base = statistics.median(base)
    worse_by = sign * (statistics.median(change) - med_base) / med_base
    noise = max(spread(base), spread(change))
    if noise > bound:
        wins = all(sign * (c - b) < 0 for b in base for c in change)
        return worse_by, noise, "better" if wins else "unresolved"
    if worse_by > bound:
        return worse_by, noise, "worse"
    if worse_by < -bound:
        return worse_by, noise, "better"
    return worse_by, noise, "same"


def compare(base: Dict, change: Dict, spec: Dict) -> List[Dict]:
    """One row per (workload, metric) pair present in both documents."""
    rows = []
    for workload, base_runs in base["workloads"].items():
        change_runs = change["workloads"].get(workload)
        if not change_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name] for run in base_runs
                 if name in run["metrics"]]
            b = [run["metrics"][name] for run in change_runs
                 if name in run["metrics"]]
            if not a or not b:
                continue
            worse_by, noise, word = verdict(a, b, metric["better"],
                                            metric["bound"])
            rows.append({"workload": workload, "metric": name,
                         "base": statistics.median(a),
                         "change": statistics.median(b),
                         "worse_by": worse_by, "spread": noise,
                         "bound": metric["bound"], "verdict": word})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, change = (json.loads(Path(p).read_text(encoding="utf-8"))
                    for p in argv)
    rows = compare(base, change, spec)
    print(f"{'workload':<11} {'metric':<12} {'base':>10} {'change':>10} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<11} {row['metric']:<12} "
              f"{row['base']:>10.4g} {row['change']:>10.4g} "
              f"{row['worse_by']:>+9.2%} {row['spread']:>7.2%} "
              f"{row['bound']:>6.0%}  {row['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
