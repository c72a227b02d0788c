#!/usr/bin/env python3
"""End-to-end benchmark of whole ``repro`` operations.

Times what a user waits for -- a cold or cached ``repro breakdown``
process, a warm or cold ``repro serve`` request -- and checks every
result against ``expected.json``.  Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload cli-cold --seed 0 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --repeat 5 --out seed0.json

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced pass that reports the per-layer
metrics and writes a Chrome trace.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

#: compiles both native kernels (once per checkout) and reports them
KERNEL_PROBE = """
import json
from repro.graph.engine import (native_fallback_warning, native_kernel,
                                native_kernel_status)
from repro.uarch.fastcore import (sim_native_fallback_warning,
                                  sim_native_kernel, sim_native_kernel_status)
native_kernel()
sim_native_kernel()
print(json.dumps({
    "graph": native_kernel_status(), "sim": sim_native_kernel_status(),
    "warnings": [w for w in (native_fallback_warning(),
                             sim_native_fallback_warning()) if w]}))
"""


def load_spec() -> dict:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def prepare() -> dict:
    """Check the tree, isolate the environment, compile the kernels.

    Returns the ``host`` section: core count, Python version and whether
    each native kernel loaded.  Raises :class:`harness.BenchError` when
    either kernel fell back to Python.
    """
    if not (harness.SRC / "repro" / "cli.py").is_file():
        raise harness.BenchError(
            f"no program sources under {harness.SRC}; run from the root "
            f"of a full checkout")
    (harness.WORK / "tmp").mkdir(parents=True, exist_ok=True)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["TMPDIR"] = str(harness.WORK / "tmp")
    tempfile.tempdir = None
    sys.path.insert(0, str(harness.SRC))
    res = harness.run_process([sys.executable, "-c", KERNEL_PROBE],
                              harness.scrubbed_env(os.environ), timeout=600)
    if res.code != 0:
        raise harness.BenchError(f"kernel probe failed: {res.stderr[-500:]}")
    status = json.loads(res.stdout.strip().splitlines()[-1])
    if status["warnings"]:
        raise harness.BenchError("; ".join(status["warnings"]))
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "native": {name: {"loaded": bool(status[name][0]),
                              "reason": str(status[name][1]).split(" (")[0]}
                       for name in ("graph", "sim")}}


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             env: dict, expected: dict) -> harness.RunResult:
    checker = harness.Checker(expected)
    if trace:
        import layers

        return layers.traced_run(workload, seed, seconds, env, checker)
    return harness.measure(workload, seed, seconds, env, checker)


def metric_doc(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise harness.BenchError(
            f"metrics {sorted(values)} do not match BENCHMARK.json "
            f"{sorted(units)}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def summary_line(runs: list, units: dict) -> dict:
    """The contract's last line over one workload's runs (medians)."""
    metrics = {name: statistics.median(r.metrics[name] for r in runs)
               for name in runs[0].metrics}
    return {"correct": all(r.correct for r in runs),
            "attempted": sum(r.attempted for r in runs),
            "failed": sum(r.failed for r in runs),
            "metrics": metric_doc(metrics, units)}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *harness.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (default 1)")
    parser.add_argument("--out", metavar="FILE",
                        help="also write every run's results as JSON")
    args = parser.parse_args(argv)

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    names = (list(harness.WORKLOADS) if args.workload == "all"
             else [args.workload])
    try:
        host = prepare()
        print(f"host: {json.dumps(host, sort_keys=True)}", file=sys.stderr)
        env = harness.scrubbed_env(os.environ)
        expected = harness.load_expected()
        runs = {name: [] for name in names}
        for name in names:
            for _ in range(args.repeat):
                result = run_once(name, args.seed, args.seconds,
                                  bool(args.trace), env, expected)
                runs[name].append(result)
                for metric, unit in units.items():
                    print(f"{name:<11} {metric:<26} "
                          f"{result.metrics[metric]:12.4f} {unit}")
                print(f"{name:<11} attempted {result.attempted} failed "
                      f"{result.failed} mismatches "
                      f"{result.output_mismatches}")
    except harness.BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    if args.out:
        doc = {"seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "host": host,
               "workloads": {name: [r.as_dict() for r in rs]
                             for name, rs in runs.items()}}
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True)
                                  + "\n", encoding="utf-8")
    if len(names) == 1:
        line = summary_line(runs[names[0]], units)
    else:
        per = {name: summary_line(rs, units) for name, rs in runs.items()}
        line = {"correct": all(p["correct"] for p in per.values()),
                "attempted": sum(p["attempted"] for p in per.values()),
                "failed": sum(p["failed"] for p in per.values()),
                "metrics": {name: p["metrics"] for name, p in per.items()}}
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
