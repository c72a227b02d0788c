"""The traced pass: where the time of each benchmark op goes, per layer.

Each traced iteration times the real op (CLI process or serve request)
exactly as the timed pass does, then replays the same argv layer by
layer around calls into each layer's public function: a CLI op in a
fresh interpreter (``cli_replay.py``), a serve job in this process with
an obs collector on, as the daemon runs it.  Spans (name, start, end,
parent, op id) stay in this process's memory and are written out as a
Chrome trace when the run ends.  Nothing inside ``src/`` is
instrumented.

A layer the workload's ops never reach (a cache read on cli-cold, the
interpreter start on serve-*) is measured once by a probe on the same
inputs, so every per-layer metric has a value on every workload; probed
layers are listed in the run's ``probed`` field and do not count toward
``layers.unattributed_ms``, the median over ops of the op's latency
minus the sum of its measured layers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional

import harness
from cli_replay import CountingProvider

#: per-layer count metrics (the rest are ``<span name>_ms`` timings)
COUNTS = ("workloads.insts", "uarch.cycles", "artifacts.bytes",
          "graph.edges", "cost.queries")
UNATTRIBUTED = "layers.unattributed_ms"

#: the layers each probe stands in for
INPROCESS = ("workloads.trace", "artifacts.key", "artifacts.get_sim",
             "uarch.simulate", "artifacts.put_sim", "artifacts.get_graph",
             "graph.build", "cost.breakdown", "ledger.manifest",
             "core.render")
PROCESS = ("proc.interp", "proc.import_numpy", "proc.import_cli",
           "registry.parser")
SERVE = ("serve.healthz", "serve.overhead")


class Recorder:
    """Spans of one traced run, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)
        self._stack: List[int] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int], op: int, sid: Optional[int] = None) -> int:
        sid = sid or next(self._ids)
        self.spans.append({"id": sid, "name": name, "start": start,
                           "end": end, "parent": parent, "op": op})
        return sid

    @contextmanager
    def span(self, name: str, op: int):
        """Time the body as a child of the open span; yields its id."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self._stack.pop()
            self.add(name, start, time.perf_counter(), parent, op, sid)

    def by_name(self, op: int) -> Dict[str, float]:
        """Milliseconds per layer span name within *op*.

        Layers are every span below a root; the roots are the real op
        and the replay or probe around the layers.
        """
        out: Dict[str, float] = {}
        for s in self.spans:
            if s["op"] == op and s["parent"] is not None:
                out[s["name"]] = out.get(s["name"], 0.0) \
                    + (s["end"] - s["start"]) * 1000.0
        return out

    def direct_ms(self, root: int) -> float:
        """Milliseconds covered by the direct children of span *root*."""
        return sum((s["end"] - s["start"]) * 1000.0 for s in self.spans
                   if s["parent"] == root)

    def write_chrome(self, path, meta: Dict[str, object]) -> None:
        """The spans as a Chrome trace-event document (ui.perfetto.dev).

        Real ops go on track 1, their replays and the probes on track 2.
        """
        t0 = min((s["start"] for s in self.spans), default=0.0)
        events = []
        for s in sorted(self.spans, key=lambda s: s["start"]):
            events.append({"name": s["name"], "ph": "X", "pid": 1,
                           "tid": 1 if s["name"].startswith("op ") else 2,
                           "ts": round((s["start"] - t0) * 1e6, 3),
                           "dur": round((s["end"] - s["start"]) * 1e6, 3),
                           "args": {"op": s["op"], "id": s["id"],
                                    "parent": s["parent"]}})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "otherData": meta}, handle)


@dataclass
class OpLayers:
    """One traced op: its real latency and the replay's layers."""

    latency_ms: float
    layers: Dict[str, float]
    attributed_ms: float
    counts: Dict[str, int]


# ----------------------------------------------------------------------
# Replays
# ----------------------------------------------------------------------


def replay_cli(rec: Recorder, op: int, env, argv: List[str],
               cache_dir: Optional[str] = None):
    """Replay one CLI op in a fresh interpreter under a ``replay`` span.

    ``proc.interp`` is the interpreter's own share of the child: from
    spawn to its first span, plus from its last span to exit.  Returns
    ``(root span id, rendered text, counts)``.
    """
    mode = "cached" if cache_dir else "cold"
    cmd = [sys.executable, str(harness.HERE / "cli_replay.py"), mode, *argv]
    if cache_dir:
        cmd += ["--cache-dir", cache_dir]
    with rec.span("replay", op) as root:
        res = harness.run_process(cmd, env)
    harness.check_native(res.stderr)
    if res.code != 0:
        raise harness.BenchError(f"replay of {harness.op_key(argv)} "
                                 f"failed: {res.stderr[-500:]}")
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    spans = doc["spans"]
    rec.add("proc.interp", res.start, min(s[1] for s in spans), root, op)
    rec.add("proc.interp", max(s[2] for s in spans), res.end, root, op)
    ids = {}
    # the child lists a span after its children: add parents first
    for name, start, end, parent in sorted(spans,
                                           key=lambda s: s[3] is not None):
        ids[name] = rec.add(name, start, end,
                            root if parent is None else ids[parent], op)
    return root, doc["text"], doc["counts"]


def _job_args(argv: List[str]):
    from repro.session.registry import get_analysis

    parser = argparse.ArgumentParser(prog="breakdown", add_help=False)
    get_analysis("breakdown").configure(parser)
    return parser.parse_args(argv)


def replay_job(rec: Recorder, op: int, argv: List[str], cache):
    """Replay one serve ``breakdown`` job in this process.

    The daemon's path: trace through the workload LRU, simulation
    through the shared artifact cache, graph build, the naive cost
    sweep, manifest and ETag, render.  Returns ``(root span id,
    rendered text, counts)``.
    """
    from repro import obs
    from repro.core import breakdown_to_json, interaction_breakdown
    from repro.core.categories import Category
    from repro.graph.builder import GraphBuilder
    from repro.graph.cost import GraphCostAnalyzer
    from repro.obs.ledger import build_manifest
    from repro.pipeline.artifacts import sim_key
    from repro.serve.jobs import result_etag
    from repro.session import AnalysisSession
    from repro.session.analyses import BreakdownResult
    from repro.session.config import RunConfig
    from repro.uarch.fastcore import simulate
    from repro.workloads import get_workload

    with rec.span("replay", op) as root:
        start = time.perf_counter()
        args = _job_args(argv)
        run = RunConfig.from_args(args)
        config = run.machine_config()
        with rec.span("workloads.trace", op):
            trace = get_workload(args.workload, args.scale, args.seed)
        with rec.span("artifacts.key", op):
            key = sim_key(trace, config)
        with rec.span("artifacts.get_sim", op):
            result = cache.get_sim(key, trace, config)
        if result is None:
            with rec.span("uarch.simulate", op):
                result = simulate(trace, config=config)
            with rec.span("artifacts.put_sim", op):
                cache.put_sim(key, result)
                cache.put_json("cycles", key, {"cycles": int(result.cycles)})
        with rec.span("graph.build", op):
            graph = GraphBuilder(True).build(result)
        with rec.span("cost.breakdown", op):
            provider = CountingProvider(
                GraphCostAnalyzer(graph, engine="naive"), result.cycles)
            breakdown = interaction_breakdown(
                provider, focus=Category(args.focus), workload=args.workload)
        typed = BreakdownResult(workload=args.workload, breakdown=breakdown)
        with rec.span("ledger.manifest", op):
            session = AnalysisSession(run, trace=trace, cache=cache)
            manifest = build_manifest("breakdown", session, typed,
                                      collector=obs.collector(),
                                      wall_s=time.perf_counter() - start)
            result_etag(manifest)
        with rec.span("core.render", op):
            text = breakdown_to_json(breakdown)
            typed.to_json()
    counts = {"workloads.insts": len(trace.insts),
              "uarch.cycles": int(result.cycles),
              "artifacts.bytes": os.path.getsize(cache.path_for("sim", key)),
              "graph.edges": len(graph.column_data("src")),
              "cost.queries": provider.queries}
    return root, text, counts


# ----------------------------------------------------------------------
# Probes for layers a workload's ops do not reach
# ----------------------------------------------------------------------


def probe_inprocess(rec: Recorder, ops: itertools.count, argv: List[str]):
    """Every in-process layer, once, on *argv*'s inputs.

    A serve job replay on an empty cache (simulate and store), then a
    read of the stored simulation and of a stored graph.
    """
    from repro.graph.builder import GraphBuilder
    from repro.pipeline.artifacts import ArtifactCache, graph_key, sim_key
    from repro.session.config import RunConfig
    from repro.workloads import get_workload

    cache = ArtifactCache(harness.fresh_dir("probe-"))
    try:
        cold = next(ops)
        replay_job(rec, cold, argv, cache)
        args = _job_args(argv)
        trace = get_workload(args.workload, args.scale, args.seed)
        config = RunConfig.from_args(args).machine_config()
        skey, gkey = sim_key(trace, config), graph_key(trace, config)
        result = cache.get_sim(skey, trace, config)
        cache.put_graph(gkey, GraphBuilder(True).build(result))
        cache.put_json("meta", skey, {"cycles": result.cycles,
                                      "insts": len(trace.insts)})
        reads = next(ops)
        with rec.span("probe", reads):
            with rec.span("artifacts.get_sim", reads):
                cache.get_sim(skey, trace, config)
            with rec.span("artifacts.get_graph", reads):
                cache.get_graph(gkey)
                cache.get_json("meta", skey)
        return {**rec.by_name(cold), **rec.by_name(reads)}
    finally:
        shutil.rmtree(cache.root, ignore_errors=True)


def probe_serve(env, argv: List[str]) -> Dict[str, float]:
    """``/healthz`` round trip and per-request overhead of a warm daemon
    (medians of three)."""
    with harness.Daemon(env) as daemon:
        harness.serve_op(daemon.client, argv)
        healthz, overhead = [], []
        for _ in range(3):
            healthz.append(_healthz_ms(daemon.client))
            op = harness.serve_op(daemon.client, argv)
            if op.ok:
                overhead.append(op.latency_ms - _wall_ms(daemon.client, op))
    return {"serve.healthz": statistics.median(healthz),
            "serve.overhead": statistics.median(overhead)}


def _healthz_ms(client) -> float:
    start = time.perf_counter()
    client.health()
    return (time.perf_counter() - start) * 1000.0


def _wall_ms(client, op: harness.Op) -> float:
    return float(client.status(op.job)["wall_ms"])


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


class Traced:
    """What one traced run collected."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self.ops = itertools.count(1)
        self.real: List[harness.Op] = []
        self.layers: List[OpLayers] = []
        self.healthz: List[float] = []

    def add_real(self, op: harness.Op, checker: harness.Checker) -> int:
        """Record one real op as a root span; returns its op id."""
        op_id = next(self.ops)
        harness.check_op(op, checker)
        self.real.append(op)
        self.rec.add(f"op {harness.op_key(op.argv)}", op.start, op.end,
                     None, op_id)
        return op_id


def _traced_cli(run: Traced, spec: harness.Spec, source: harness.OpSource,
                env, checker: harness.Checker) -> None:
    cache_dir = None
    try:
        if spec.cached:
            cache_dir = harness.fill_cache(spec, env, checker)
        else:
            harness.cli_op(harness.analysis_argv("gcc"), env)
        while (argv := source.next()) is not None:
            op = harness.cli_op(argv, env, cache_dir)
            op_id = run.add_real(op, checker)
            if not op.ok:
                continue
            root, text, counts = replay_cli(run.rec, op_id, env, argv,
                                            cache_dir)
            checker.check(argv, text)
            run.layers.append(OpLayers(op.latency_ms, run.rec.by_name(op_id),
                                       run.rec.direct_ms(root), counts))
    finally:
        if cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)


def _traced_serve(run: Traced, spec: harness.Spec,
                  source: harness.OpSource, env,
                  checker: harness.Checker) -> None:
    """Each real request, a ``/healthz`` round trip, then its replay."""
    from repro import obs
    from repro.pipeline.artifacts import ArtifactCache

    cache = ArtifactCache(harness.fresh_dir("replay-"))
    try:
        with harness.start_daemon(spec, env, checker) as daemon:
            if not spec.distinct:
                # the daemon's warm state: trace LRU + cached simulation
                for bench in dict.fromkeys(spec.mix):
                    replay_job(Recorder(), 0, harness.analysis_argv(bench),
                               cache)
            while (argv := source.next()) is not None:
                op = harness.serve_op(daemon.client, argv)
                op_id = run.add_real(op, checker)
                run.healthz.append(_healthz_ms(daemon.client))
                if not op.ok:
                    continue
                overhead = op.latency_ms - _wall_ms(daemon.client, op)
                obs.enable()  # the daemon always runs with a collector
                try:
                    root, text, counts = replay_job(run.rec, op_id, argv,
                                                    cache)
                finally:
                    obs.disable()
                checker.check(argv, text)
                layers = {**run.rec.by_name(op_id), "serve.overhead": overhead}
                run.layers.append(OpLayers(
                    op.latency_ms, layers, run.rec.direct_ms(root) + overhead,
                    counts))
    finally:
        shutil.rmtree(cache.root, ignore_errors=True)


def traced_run(workload: str, seed: int, seconds: float, env,
               checker: harness.Checker) -> harness.RunResult:
    """One traced run of *workload*: per-layer metrics of its ops."""
    spec = harness.WORKLOADS[workload]
    run = Traced()
    source = harness.OpSource(harness.rounds(workload, seed), seconds)
    if spec.kind == "cli":
        _traced_cli(run, spec, source, env, checker)
    else:
        _traced_serve(run, spec, source, env, checker)

    values: Dict[str, float] = {}
    for name in {n for t in run.layers for n in t.layers}:
        values[f"{name}_ms"] = statistics.median(
            t.layers[name] for t in run.layers if name in t.layers)
    for name in COUNTS:
        values[name] = statistics.median(t.counts[name] for t in run.layers)
    if run.healthz:
        values["serve.healthz_ms"] = statistics.median(run.healthz)
    values[UNATTRIBUTED] = statistics.median(
        t.latency_ms - t.attributed_ms for t in run.layers)
    probed = _probe_missing(run.rec, run.ops, env, run.real[0].argv, values)

    path = harness.WORK / f"trace-{workload}-seed{seed}.json"
    run.rec.write_chrome(path, {"workload": workload, "seed": seed,
                                "probed": probed})
    print(f"wrote {path}", file=sys.stderr)
    done = sum(op.ok for op in run.real)
    return harness.RunResult(
        len(run.real), len(run.real) - done, checker.finish(), values,
        {"ops": len(run.real), "probed": probed,
         "p50_ms": harness.latency_metrics(run.real)["p50_ms"]})


def _probe_missing(rec: Recorder, ops, env, argv: List[str],
                   values: Dict[str, float]) -> List[str]:
    """Fill in the layers this workload's ops never reached."""
    def missing(names):
        return [name for name in names if f"{name}_ms" not in values]

    probes = ((INPROCESS, lambda: probe_inprocess(rec, ops, argv)),
              (PROCESS, lambda: _probe_process(rec, ops, env, argv)),
              (SERVE, lambda: probe_serve(env, argv)))
    probed = []
    for group, probe in probes:
        names = missing(group)
        if names:
            measured = probe()
            for name in names:
                values[f"{name}_ms"] = measured[name]
            probed += [f"{name}_ms" for name in names]
    return probed


def _probe_process(rec: Recorder, ops, env, argv: List[str]):
    """Interpreter start, imports and argparse of one cold CLI replay."""
    op_id = next(ops)
    replay_cli(rec, op_id, env, argv)
    return rec.by_name(op_id)
