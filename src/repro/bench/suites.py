"""Declared benchmark suites behind ``repro bench``.

A **suite** is an ordered list of named cases; a **case** measures one
paper artifact (a Table 4 variant, a figure, an engine or pipeline
speedup) through an :class:`~repro.session.AnalysisSession` and
returns two flat metric dictionaries:

- ``metrics`` -- deterministic accuracy values (breakdown rows in
  percentage points, mean-absolute-error vs the paper's published
  numbers from :mod:`repro.bench.paper_data`).  These land in the run
  manifest's ``metrics`` section and are what ``repro ledger diff``
  gates in pp.
- ``perf`` -- timing-derived values (engine/pipeline speedups,
  milliseconds).  Volatile by nature; they land in the manifest's
  ``perf`` section and are gated by ratio, not equality.

Suites reuse the Table/Figure drivers of
:mod:`repro.analysis.experiments` and share the session's simulation
memo wherever the driver allows, so one ``repro bench`` invocation
never simulates the same configuration twice.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

MetricPair = Tuple[Dict[str, float], Dict[str, float]]


@dataclass(frozen=True)
class BenchSettings:
    """The knobs one ``repro bench`` invocation applies to every case."""

    scale: float = 1.0
    seed: int = 0
    #: workload subset; ``None`` = each case's paper default
    workloads: Optional[Tuple[str, ...]] = None
    #: ``key=value`` machine overrides layered onto each case's config
    overrides: Tuple[str, ...] = ()
    #: measured repeats per perf-bearing case (the first execution is a
    #: warmup and is discarded); ``*_ms`` keys report the best repeat
    best_of: int = 3


@dataclass
class CaseOutcome:
    """One executed case: its metrics plus how long it took."""

    name: str
    metrics: Dict[str, float] = field(default_factory=dict)
    perf: Dict[str, float] = field(default_factory=dict)
    wall_ms: float = 0.0


def _config(base, settings: BenchSettings):
    from repro.session.config import machine_with_overrides

    return machine_with_overrides(base, settings.overrides)


def _names(settings: BenchSettings, default: Tuple[str, ...]):
    return settings.workloads or default


def _breakdown_metrics(prefix: str, breakdown, paper_rows: Dict[str, float]
                       ) -> Dict[str, float]:
    """Flatten one breakdown into ``<prefix>.<label>_pp`` rows plus the
    mean absolute deviation against the paper's published rows."""
    metrics: Dict[str, float] = {}
    errors: List[float] = []
    for entry in breakdown.entries:
        if entry.kind not in ("base", "interaction"):
            continue
        metrics[f"{prefix}.{entry.label}_pp"] = round(entry.percent, 4)
        if entry.label in paper_rows:
            errors.append(abs(entry.percent - paper_rows[entry.label]))
    if errors:
        metrics[f"{prefix}.mae_vs_paper_pp"] = round(
            sum(errors) / len(errors), 4)
    return metrics


def _table_case(table: str, session, settings: BenchSettings) -> MetricPair:
    """Tables 4a/4b/4c: per-workload focused breakdowns vs the paper."""
    from repro.analysis.experiments import (
        TABLE4A_CONFIG,
        TABLE4B_CONFIG,
        TABLE4C_CONFIG,
    )
    from repro.analysis.graphsim import analyze_trace
    from repro.bench import paper_data
    from repro.core.breakdown import interaction_breakdown
    from repro.core.categories import Category
    from repro.workloads.registry import (
        TABLE4BC_NAMES,
        WORKLOAD_NAMES,
        get_workload,
    )

    spec = {
        "4a": (TABLE4A_CONFIG, Category.DL1, WORKLOAD_NAMES,
               paper_data.TABLE_4A),
        "4b": (TABLE4B_CONFIG, Category.SHALU, TABLE4BC_NAMES,
               paper_data.TABLE_4B),
        "4c": (TABLE4C_CONFIG, Category.BMISP, TABLE4BC_NAMES,
               paper_data.TABLE_4C),
    }[table]
    base, focus, default_names, paper = spec
    config = _config(base, settings)
    metrics: Dict[str, float] = {}
    for name in _names(settings, tuple(default_names)):
        trace = get_workload(name, scale=settings.scale, seed=settings.seed)
        provider = analyze_trace(trace, config=config, session=session)
        breakdown = interaction_breakdown(provider, focus=focus,
                                          workload=name)
        metrics.update(_breakdown_metrics(f"{table}.{name}", breakdown,
                                          paper.get(name, {})))
    return metrics, {}


def case_table4a(session, settings: BenchSettings) -> MetricPair:
    """Table 4a breakdowns, with MAE vs the paper's rows."""
    return _table_case("4a", session, settings)


def case_table4b(session, settings: BenchSettings) -> MetricPair:
    """Table 4b breakdowns, with MAE vs the paper's rows."""
    return _table_case("4b", session, settings)


def case_table4c(session, settings: BenchSettings) -> MetricPair:
    """Table 4c breakdowns, with MAE vs the paper's rows."""
    return _table_case("4c", session, settings)


def case_table7(session, settings: BenchSettings) -> MetricPair:
    """Table 7: profiler/fullgraph validated against multisim truth."""
    from repro.analysis.experiments import TABLE4A_CONFIG, table7
    from repro.bench import paper_data

    names = _names(settings, ("gcc", "parser", "twolf"))
    rows = table7(names, scale=settings.scale, seed=settings.seed,
                  config=_config(TABLE4A_CONFIG, settings))
    metrics: Dict[str, float] = {}
    graph_errs: List[float] = []
    multi_errs: List[float] = []
    for name, row in rows.items():
        g = row["avg_err_profiler_vs_graph"]
        m = row["avg_err_profiler_vs_multisim"]
        metrics[f"7.{name}.avg_err_profiler_vs_graph"] = round(g, 4)
        metrics[f"7.{name}.avg_err_profiler_vs_multisim"] = round(m, 4)
        graph_errs.append(g)
        multi_errs.append(m)
    metrics["7.avg_err_profiler_vs_graph"] = round(
        sum(graph_errs) / len(graph_errs), 4)
    metrics["7.avg_err_profiler_vs_multisim"] = round(
        sum(multi_errs) / len(multi_errs), 4)
    metrics["7.delta_vs_paper_graph"] = round(
        metrics["7.avg_err_profiler_vs_graph"]
        - paper_data.PAPER_AVG_ERR_PROFILER_VS_GRAPH, 4)
    metrics["7.delta_vs_paper_multisim"] = round(
        metrics["7.avg_err_profiler_vs_multisim"]
        - paper_data.PAPER_AVG_ERR_PROFILER_VS_MULTISIM, 4)
    return metrics, {}


def case_figure1(session, settings: BenchSettings) -> MetricPair:
    """Figure 1: the overlap-blame ambiguity icost resolves."""
    from repro.analysis.experiments import figure1
    from repro.core.categories import BASE_CATEGORIES

    name = _names(settings, ("gzip",))[0]
    forward, backward, icost_bd = figure1(
        name, scale=settings.scale, seed=settings.seed,
        config=_config(None, settings))
    metrics: Dict[str, float] = {}
    gaps: List[float] = []
    for category in BASE_CATEGORIES:
        gap = abs(forward.percent(category.value)
                  - backward.percent(category.value))
        metrics[f"fig1.{category.value}.order_gap_pp"] = round(gap, 4)
        gaps.append(gap)
    metrics["fig1.max_order_gap_pp"] = round(max(gaps), 4)
    metrics.update(_breakdown_metrics("fig1.icost", icost_bd, {}))
    return metrics, {}


def case_figure3(session, settings: BenchSettings) -> MetricPair:
    """Figure 3: dl1-latency scaling of the window-size speedup."""
    from repro.analysis.experiments import figure3
    from repro.bench import paper_data

    name = _names(settings, ("vortex",))[0]
    latencies = tuple(sorted(paper_data.PAPER_FIG3_SPEEDUPS))  # (1, 4)
    windows = (64, 128)
    curves = figure3(name, scale=settings.scale, seed=settings.seed,
                     dl1_latencies=latencies, window_sizes=windows)
    metrics: Dict[str, float] = {}
    for latency in latencies:
        speedup = dict(curves[latency])[windows[-1]]
        metrics[f"fig3.lat{latency}.speedup_at_{windows[-1]}"] = round(
            speedup, 4)
    low = metrics[f"fig3.lat{latencies[0]}.speedup_at_{windows[-1]}"]
    high = metrics[f"fig3.lat{latencies[-1]}.speedup_at_{windows[-1]}"]
    if low > 0:
        # the paper's observation: higher dl1 latency -> ~50% greater
        # speedup from the same window growth
        metrics["fig3.speedup_ratio_high_over_low"] = round(high / low, 4)
    return metrics, {}


def _timed_breakdown(provider, focus, workload: str):
    from repro.core.breakdown import interaction_breakdown

    t0 = time.perf_counter()
    breakdown = interaction_breakdown(provider, focus=focus,
                                      workload=workload)
    return breakdown, (time.perf_counter() - t0) * 1000.0


def _max_abs_pp_delta(a, b) -> float:
    return max((abs(entry.percent - b.percent(entry.label))
                for entry in a.entries
                if entry.kind in ("base", "interaction")), default=0.0)


def case_engine(session, settings: BenchSettings) -> MetricPair:
    """Engine speedup: batched kernel vs the naive reference sweep."""
    from repro.core.categories import Category
    from repro.workloads.registry import get_workload

    name = _names(settings, ("gcc",))[0]
    trace = get_workload(name, scale=settings.scale, seed=settings.seed)
    config = _config(None, settings)
    naive = session.graph_provider(trace=trace, config=config,
                                   engine="naive")
    bd_naive, naive_ms = _timed_breakdown(naive, Category.DL1, name)
    batched = session.graph_provider(trace=trace, config=config,
                                     engine="batched")
    bd_batched, batched_ms = _timed_breakdown(batched, Category.DL1, name)
    metrics = {"engine.max_abs_pp_delta": round(
        _max_abs_pp_delta(bd_naive, bd_batched), 6)}
    perf = {
        "engine.naive_ms": round(naive_ms, 3),
        "engine.batched_ms": round(batched_ms, 3),
    }
    if batched_ms > 0:
        perf["engine.speedup_batched_vs_naive"] = round(
            naive_ms / batched_ms, 3)
    return metrics, perf


def case_pipeline(session, settings: BenchSettings) -> MetricPair:
    """Pipeline speedup: a cold uncached pipeline run vs the
    monolithic path (the exact pipeline has one build path, so the
    ratio prices the staging itself).

    The monolithic baseline is timed twice: once on the default
    (``auto``) simulator engine -- the historical apples-to-apples
    ``pipeline.speedup_cold`` -- and once with the simulator pinned to
    the reference core (``pipeline.mono_reference_ms``), which is what
    the whole stack cost before the fast core existed.
    """
    from repro.analysis.graphsim import analyze_trace
    from repro.core.categories import Category
    from repro.pipeline import PipelineOptions, run_pipeline
    from repro.session import AnalysisSession
    from repro.workloads.registry import get_workload

    name = _names(settings, ("gcc",))[0]
    trace = get_workload(name, scale=settings.scale, seed=settings.seed)
    config = _config(None, settings)

    ref_session = AnalysisSession.for_trace(trace, config=config,
                                            sim_engine="reference")
    t0 = time.perf_counter()
    mono_ref = analyze_trace(trace, config=config, engine="batched",
                             session=ref_session)
    bd_ref, _ = _timed_breakdown(mono_ref, Category.DL1, name)
    mono_reference_ms = (time.perf_counter() - t0) * 1000.0
    # Release the reference run's event objects before the next timed
    # region: a collection that traces them mid-measurement would bill
    # the reference simulator's garbage to the paths under test.
    mono_ref.close()
    del mono_ref, ref_session
    gc.collect()

    t0 = time.perf_counter()
    mono = analyze_trace(trace, config=config, engine="batched")
    bd_mono, mono_bd_ms = _timed_breakdown(mono, Category.DL1, name)
    mono_ms = (time.perf_counter() - t0) * 1000.0
    mono.close()
    del mono
    gc.collect()

    opts = PipelineOptions(no_cache=True, engine="batched")
    t0 = time.perf_counter()
    provider = run_pipeline(trace, config=config, options=opts)
    bd_pipe, _ = _timed_breakdown(provider, Category.DL1, name)
    pipe_ms = (time.perf_counter() - t0) * 1000.0
    provider.close()

    metrics = {
        "pipeline.max_abs_pp_delta": round(
            _max_abs_pp_delta(bd_mono, bd_pipe), 6),
        "pipeline.max_abs_pp_delta_vs_reference": round(
            _max_abs_pp_delta(bd_ref, bd_pipe), 6),
    }
    perf = {
        "pipeline.mono_ms": round(mono_ms, 3),
        "pipeline.mono_reference_ms": round(mono_reference_ms, 3),
        "pipeline.pipe_ms": round(pipe_ms, 3),
        "pipeline.mono_breakdown_ms": round(mono_bd_ms, 3),
    }
    if pipe_ms > 0:
        perf["pipeline.speedup_cold"] = round(mono_ms / pipe_ms, 3)
        perf["pipeline.speedup_vs_reference"] = round(
            mono_reference_ms / pipe_ms, 3)
    return metrics, perf


def _event_mismatches(a, b) -> int:
    """Instructions whose event records differ between two results."""
    return sum(ea != eb for ea, eb in zip(a.events, b.events)) + abs(
        len(a.events) - len(b.events))


def case_sim(session, settings: BenchSettings) -> MetricPair:
    """Simulator-core speedup: the batched columnar fast core vs the
    reference cycle-stepped core, pinned bit-identical.

    Times one full-event simulation per engine, then the paper's
    nine-point sweep (base + eight single idealizations) through the
    batched ``cycles_many`` entry vs a reference loop.  The accuracy
    metrics must stay exactly zero: the fast core's contract is
    bit-identical events, not approximation.
    """
    from repro.core.categories import BASE_CATEGORIES
    from repro.uarch import fastcore
    from repro.uarch.config import IdealConfig
    from repro.workloads.registry import get_workload

    name = _names(settings, ("gcc",))[0]
    trace = get_workload(name, scale=settings.scale, seed=settings.seed)
    config = _config(None, settings)
    # the on-demand kernel compile is a once-per-process cost, not a
    # per-simulation one: pay it outside the timed regions
    fastcore.sim_native_kernel()

    # this case times the raw simulator cores on purpose -- routing
    # through the session's memoised simulate() would time the cache,
    # not the engines (hence the module-qualified calls the session
    # lint sanctions for deliberate bypasses)
    t0 = time.perf_counter()
    res_ref = fastcore.simulate(trace, config=config, engine="reference")
    reference_ms = (time.perf_counter() - t0) * 1000.0
    t0 = time.perf_counter()
    res_fast = fastcore.simulate(trace, config=config, engine="fast")
    fast_ms = (time.perf_counter() - t0) * 1000.0

    points = [(config, None)] + [
        (config, IdealConfig.for_categories((c,))) for c in BASE_CATEGORIES]
    t0 = time.perf_counter()
    batched = fastcore.cycles_many(trace, points, engine="fast")
    batched_sweep_ms = (time.perf_counter() - t0) * 1000.0
    t0 = time.perf_counter()
    looped = [fastcore.simulate(trace, config=cfg, ideal=ideal,
                                engine="reference").cycles
              for cfg, ideal in points]
    reference_sweep_ms = (time.perf_counter() - t0) * 1000.0

    metrics = {
        "sim.event_mismatches": float(_event_mismatches(res_ref, res_fast)),
        "sim.max_abs_cycle_delta": float(max(
            abs(a - b) for a, b in zip(batched, looped))),
    }
    perf = {
        "sim.reference_ms": round(reference_ms, 3),
        "sim.fast_ms": round(fast_ms, 3),
        "sim.batched_sweep_ms": round(batched_sweep_ms, 3),
        "sim.reference_sweep_ms": round(reference_sweep_ms, 3),
    }
    if fast_ms > 0:
        perf["sim.speedup"] = round(reference_ms / fast_ms, 3)
    if batched_sweep_ms > 0:
        perf["sim.speedup_batched_sweep"] = round(
            reference_sweep_ms / batched_sweep_ms, 3)
    return metrics, perf


def case_serve(session, settings: BenchSettings) -> MetricPair:
    """Serve-daemon throughput: concurrent clients on a warm cache.

    Boots one in-process :class:`~repro.serve.server.ReproServer` over
    a fresh shared cache, issues one cold request to warm it, then
    hammers it with N concurrent clients submitting the *same*
    breakdown request with coalescing disabled -- every request runs
    the full analysis, so the requests/sec and p95 numbers measure real
    executions over the shared warm cache, not queue-level dedup.  The
    accuracy metric is the digest contract: every response (cold one
    included) must carry the identical result ETag.
    """
    import tempfile
    import threading

    from repro.serve.client import ServeClient
    from repro.serve.server import ReproServer
    from repro.session.lifecycle import SessionManager

    name = _names(settings, ("gzip",))[0]
    argv = [name, "--scale", str(settings.scale),
            "--seed", str(settings.seed)]
    clients, per_client = 8, 4
    etags: List[str] = []
    latencies_ms: List[float] = []
    lock = threading.Lock()
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        manager = SessionManager(cache_dir=tmp)
        server = ReproServer(manager, port=0, workers=4, queue_size=64,
                             idle_reap_s=0)
        server.start()
        try:
            warmer = ServeClient(server.url)
            t0 = time.perf_counter()
            cold = warmer.run("breakdown", argv, reuse=False,
                              timeout=300.0)
            cold_ms = (time.perf_counter() - t0) * 1000.0
            etags.append(cold["etag"])

            def hammer() -> None:
                client = ServeClient(server.url)
                for _ in range(per_client):
                    t1 = time.perf_counter()
                    doc = client.run("breakdown", argv, reuse=False,
                                     timeout=300.0)
                    elapsed = (time.perf_counter() - t1) * 1000.0
                    with lock:
                        etags.append(doc["etag"])
                        latencies_ms.append(elapsed)

            threads = [threading.Thread(target=hammer)
                       for _ in range(clients)]
            t0 = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            warm_wall_ms = (time.perf_counter() - t0) * 1000.0
            # scrape once after the timed regions: telemetry is part of
            # the serve contract, but its cost must not shape the
            # throughput numbers above
            exposition = warmer.metrics()
            telemetry_series = float(
                exposition.count("\nrepro_serve_request_ms_count"))
        finally:
            server.stop()
    total = clients * per_client
    latencies_ms.sort()
    p95_ms = latencies_ms[max(0, int(0.95 * (len(latencies_ms) - 1)))]
    metrics = {
        "serve.digest_mismatches": float(len(set(etags)) - 1),
        "serve.clients": float(clients),
        "serve.requests": float(total),
        "serve.telemetry_series": telemetry_series,
    }
    perf = {
        "serve.cold_ms": round(cold_ms, 3),
        "serve.warm_wall_ms": round(warm_wall_ms, 3),
        "serve.p95_ms": round(p95_ms, 3),
        "serve.requests_x1k": float(total * 1000),
        "serve.warm_rps": round(total * 1000.0 / warm_wall_ms, 3),
    }
    return metrics, perf


Case = Callable[[object, BenchSettings], MetricPair]

#: derived perf ratios and the ``*_ms`` keys they divide.  After the
#: best-of combine picks the minimum of each timing, the ratios are
#: recomputed from those minima rather than averaged across repeats --
#: a ratio of two best-case timings, not a best-case ratio.
PERF_RATIOS: Dict[str, Tuple[str, str]] = {
    "engine.speedup_batched_vs_naive": ("engine.naive_ms",
                                        "engine.batched_ms"),
    "pipeline.speedup_cold": ("pipeline.mono_ms", "pipeline.pipe_ms"),
    "pipeline.speedup_vs_reference": ("pipeline.mono_reference_ms",
                                      "pipeline.pipe_ms"),
    "sim.speedup": ("sim.reference_ms", "sim.fast_ms"),
    "sim.speedup_batched_sweep": ("sim.reference_sweep_ms",
                                  "sim.batched_sweep_ms"),
    # req/s = requests * 1000 / warm wall ms; the numerator is the
    # constant request count (pre-scaled so the generic ms-ratio
    # recompute lands in requests per *second*)
    "serve.warm_rps": ("serve.requests_x1k", "serve.warm_wall_ms"),
}


def _combine_perf(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Fold measured repeats into one perf dict: min over ``*_ms``
    keys, ratios recomputed from those minima."""
    best = dict(samples[-1])
    for key in best:
        if key.endswith("_ms"):
            best[key] = round(min(s[key] for s in samples if key in s), 3)
    for ratio, (num, den) in PERF_RATIOS.items():
        if ratio in best and best.get(den, 0.0) > 0:
            best[ratio] = round(best[num] / best[den], 3)
    return best

_CASES: Dict[str, Case] = {
    "table4a": case_table4a,
    "table4b": case_table4b,
    "table4c": case_table4c,
    "table7": case_table7,
    "figure1": case_figure1,
    "figure3": case_figure3,
    "engine": case_engine,
    "pipeline": case_pipeline,
    "sim": case_sim,
    "serve": case_serve,
}

#: suite name -> ordered case names.  ``smoke`` is the reduced suite CI
#: and the registry smoke tests run; it restricts the tables default to
#: one workload (see :func:`run_suite`).
SUITES: Dict[str, Tuple[str, ...]] = {
    "tables": ("table4a", "table4b", "table4c", "table7"),
    "figures": ("figure1", "figure3"),
    "engine": ("engine",),
    "pipeline": ("pipeline", "sim"),
    "sim": ("sim",),
    "serve": ("serve",),
    "smoke": ("table4a", "figure1"),
}


def run_suite(session, suite: str,
              settings: Optional[BenchSettings] = None) -> List[CaseOutcome]:
    """Execute *suite* case by case; returns one outcome per case."""
    import repro.obs as obs

    if suite not in SUITES:
        raise KeyError(f"unknown bench suite {suite!r}; "
                       f"choose from {sorted(SUITES)}")
    settings = settings or BenchSettings()
    if suite == "smoke" and settings.workloads is None:
        settings = replace(settings, workloads=("gcc",))
    outcomes: List[CaseOutcome] = []
    for case_name in SUITES[suite]:
        case = _CASES[case_name]
        with obs.span("bench.case", suite=suite, case=case_name):
            t0 = time.perf_counter()
            metrics, perf = case(session, settings)
            wall_ms = (time.perf_counter() - t0) * 1000.0
        best_of = max(1, settings.best_of)
        if best_of > 1 and any(k.endswith("_ms") for k in perf):
            # timing-bearing case: the execution above was the warmup
            # (kernel compiles, page cache, allocator steady state);
            # run ``best_of`` measured repeats and keep the best
            samples: List[Dict[str, float]] = []
            walls: List[float] = []
            for repeat in range(1, best_of + 1):
                with obs.span("bench.case", suite=suite, case=case_name,
                              repeat=repeat):
                    t0 = time.perf_counter()
                    metrics, perf = case(session, settings)
                    walls.append((time.perf_counter() - t0) * 1000.0)
                samples.append(perf)
            perf = _combine_perf(samples)
            perf["bench.best_of"] = float(best_of)
            wall_ms = min(walls)
        obs.count("bench.case.done")
        outcomes.append(CaseOutcome(name=case_name, metrics=metrics,
                                    perf=perf, wall_ms=round(wall_ms, 3)))
    return outcomes
