"""Tests of the end-to-end benchmark harness.

Run with ``pytest benchmarks/e2e -q`` from the checkout root; tier-1
(``testpaths = tests``) does not collect them.  The smoke tests start
real CLI processes and daemons on two small ops per workload.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402

SAMPLE = json.dumps({
    "workload": "gzip", "total_cycles": 100.0,
    "entries": [{"label": "dl1", "cycles": 40.0, "percent": 40.0,
                 "kind": "base"},
                {"label": "Total", "cycles": 100.0, "percent": 100.0,
                 "kind": "total"}]})
SAMPLE_ARGV = harness.analysis_argv("gzip")


def test_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 9.0, 8.0, 7.0, 6.0]
    assert harness.nearest_rank(values, 50) == 5.0
    assert harness.nearest_rank(values, 75) == 8.0
    assert harness.nearest_rank(values, 100) == 10.0
    assert harness.nearest_rank([3.0], 75) == 3.0
    # 20 values: rank ceil(0.75 * 20) = 15
    assert harness.nearest_rank(list(range(1, 21)), 75) == 15
    with pytest.raises(ValueError):
        harness.nearest_rank([], 50)


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_seed_gives_deterministic_ops(workload):
    def ops(seed):
        return list(itertools.islice(harness.rounds(workload, seed), 6))

    assert ops(3) == ops(3)
    spec = harness.WORKLOADS[workload]
    for batch in ops(3):
        assert sorted(argv[0] for argv in batch) == sorted(spec.mix)
    if len(spec.mix) > 1:
        assert ops(3) != ops(4)


def test_serve_cold_requests_are_distinct_and_expected():
    argvs = [argv for batch in itertools.islice(
        harness.rounds("serve-cold", 7), harness.SEED_POOL) for argv in batch]
    keys = [harness.op_key(argv) for argv in argvs]
    assert len(set(keys)) == len(keys)
    expected = harness.load_expected()
    assert all(key in expected for key in keys)
    assert all(harness.op_key(argv) in expected
               for argv in harness.expected_argvs())


def test_child_environment_is_scrubbed():
    base = {"HOME": "/home/u", "PATH": "/bin",
            "REPRO_CACHE_DIR": "/c", "REPRO_LEDGER_DIR": "/l",
            "REPRO_SIM_ENGINE": "reference",
            "REPRO_ENGINE_NO_NATIVE": "1", "REPRO_SIM_NO_NATIVE": "1",
            "PYTHONPATH": "/elsewhere", "PYTHONDONTWRITEBYTECODE": "1"}
    env = harness.scrubbed_env(base)
    assert not [k for k in env if k.startswith("REPRO_")]
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONPATH"] == str(harness.SRC)
    assert Path(env["TMPDIR"]).is_relative_to(harness.ROOT)
    assert env["HOME"] == "/home/u" and env["PATH"] == "/bin"


def test_wrong_expected_row_is_a_mismatch():
    good = {harness.op_key(SAMPLE_ARGV): harness.summarize(SAMPLE)}
    checker = harness.Checker(good)
    checker.check(SAMPLE_ARGV, SAMPLE)
    assert checker.finish() == 0

    wrong = json.loads(json.dumps(good))
    wrong[harness.op_key(SAMPLE_ARGV)]["cycles"]["dl1"] = 41.0
    checker = harness.Checker(wrong)
    checker.check(SAMPLE_ARGV, SAMPLE)
    checker.check(SAMPLE_ARGV, "not json")
    assert checker.finish() == 2


def test_differing_etags_for_one_argv_are_mismatches():
    checker = harness.Checker({harness.op_key(SAMPLE_ARGV):
                               harness.summarize(SAMPLE)})
    checker.check(SAMPLE_ARGV, SAMPLE, etag="a")
    checker.check(SAMPLE_ARGV, SAMPLE, etag="a")
    checker.check(SAMPLE_ARGV, SAMPLE, etag="b")
    assert checker.finish() == 1


def _doc(workload, **metrics):
    runs = [{"metrics": {name: values[i] for name, values in metrics.items()}}
            for i in range(len(next(iter(metrics.values()))))]
    return {"workloads": {workload: runs}}


def test_compare_verdicts():
    spec = {"end_to_end": [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1}]}
    base = _doc("w", p50_ms=[100, 101, 99, 100], ops_per_s=[10, 10, 10, 10])

    def verdicts(change):
        return {r["metric"]: r["verdict"]
                for r in compare.compare(base, change, spec)}

    assert verdicts(_doc("w", p50_ms=[104, 105, 103, 104],
                         ops_per_s=[9.5, 9.6, 9.4, 9.5])) == \
        {"p50_ms": "same", "ops_per_s": "same"}
    assert verdicts(_doc("w", p50_ms=[120, 121, 119, 120],
                         ops_per_s=[8, 8, 8, 8])) == \
        {"p50_ms": "worse", "ops_per_s": "worse"}
    assert verdicts(_doc("w", p50_ms=[80, 81, 79, 80],
                         ops_per_s=[12, 12, 12, 12])) == \
        {"p50_ms": "better", "ops_per_s": "better"}
    # spread wider than the bound: unresolved unless every run wins
    assert verdicts(_doc("w", p50_ms=[60, 140, 70, 130],
                         ops_per_s=[5, 15, 6, 14])) == \
        {"p50_ms": "unresolved", "ops_per_s": "unresolved"}
    assert verdicts(_doc("w", p50_ms=[50, 90, 55, 85],
                         ops_per_s=[20, 12, 19, 13]))["p50_ms"] == "better"


# ----------------------------------------------------------------------
# Against the real program
# ----------------------------------------------------------------------


@pytest.fixture
def bench_env(monkeypatch):
    """The isolation run.py sets up, scoped to one test."""
    (harness.WORK / "tmp").mkdir(parents=True, exist_ok=True)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    monkeypatch.setattr(tempfile, "tempdir", str(harness.WORK / "tmp"))
    monkeypatch.syspath_prepend(str(harness.SRC))
    return harness.scrubbed_env(os.environ)


def test_unknown_workload_counts_as_failed(bench_env, monkeypatch):
    monkeypatch.setitem(harness.WORKLOADS, "cli-cold", dataclasses.replace(
        harness.WORKLOADS["cli-cold"], mix=("nosuch", "vortex")))
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    result = harness.measure("cli-cold", 0, 0.0, bench_env,
                             harness.Checker(harness.load_expected()))
    assert (result.attempted, result.failed) == (2, 1)
    assert result.output_mismatches == 0


def test_unknown_workload_serve_request_fails(bench_env):
    with harness.Daemon(bench_env) as daemon:
        op = harness.serve_op(daemon.client, harness.analysis_argv("nosuch"))
    assert not op.ok and op.error


SMOKE_MIX = {"serve-warm": ("vortex", "vortex")}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_two_op_smoke(bench_env, monkeypatch, workload, trace):
    spec = harness.WORKLOADS[workload]
    monkeypatch.setitem(harness.WORKLOADS, workload, dataclasses.replace(
        spec, mix=SMOKE_MIX.get(workload, ("vortex", "gzip"))))
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    result = run.run_once(workload, 0, 0.0, bool(trace), bench_env,
                          harness.load_expected())
    assert (result.attempted, result.failed) == (2, 0)
    assert result.correct
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in run.load_spec()[section]}
    doc = run.metric_doc(result.metrics, units)
    assert all(entry["value"] > 0 for name, entry in doc.items()
               if name not in ("artifacts.bytes", "layers.unattributed_ms"))
