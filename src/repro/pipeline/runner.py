"""The staged simulate -> build -> analyze pipeline.

One ``repro`` invocation used to be a monolith: simulate the whole
trace, build the whole graph, then answer cost queries.  This module
splits it into content-addressed stages:

``simulate``
    Runs the cycle simulator -- or skips it entirely when the
    :class:`~repro.pipeline.artifacts.ArtifactCache` already holds the
    ``SimResult`` for this (workload, machine config) pair.

``build``
    Constructs the dependence graph with the one exact builder
    (:meth:`repro.graph.builder.GraphBuilder.build`), bit-identical to
    the monolithic path.  Built graphs are cached by content too, so a
    warm run skips this stage as well.

``analyze``
    Answers cost/icost queries through the cost engines on that graph
    -- or, in the opt-in *windowed* (bounded-error) mode
    (``approx=N``), sums per-window costs over N truncated window
    graphs with :class:`~repro.analysis.sampled.WindowedRun` border
    semantics (cross-window producers become out-of-trace), trading a
    documented small breakdown deviation for window tasks that fan
    across a process pool with ``jobs > 1`` (see ``docs/PIPELINE.md``
    for the error model).

Every stage publishes spans, cache hit/miss counters and window
utilization through :mod:`repro.obs`, so ``--metrics`` explains where
the time went and whether the cache was warm.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import repro.obs as obs
from repro.core.categories import canonical_target_keys, normalize_targets
from repro.core.icost import Target
from repro.graph.builder import GraphBuilder, build_window_graph
from repro.graph.cost import GraphCostAnalyzer
from repro.graph.engine import DEFAULT_ENGINE, apply_child_env, child_env
from repro.isa.trace import Trace
from repro.pipeline.artifacts import ArtifactCache, graph_key, sim_key
from repro.uarch.config import MachineConfig
from repro.uarch.events import SimResult


#: Manifest phase of each pipeline stage span, consumed by
#: :mod:`repro.obs.ledger.manifest` when bucketing per-phase
#: wall-clock.  Lives next to the ``obs.span`` call sites so renaming a
#: stage forces this map (and therefore the ledger) to follow.
STAGE_PHASES: Dict[str, str] = {
    "pipeline.simulate": "simulate",
    "pipeline.build": "build",
    "pipeline.analyze": "analyze",
    "pipeline.pool_analyze": "analyze",
    "pipeline.window_analyze": "analyze",
}


@dataclass
class PipelineOptions:
    """Knobs of one pipeline run (the CLI flags map onto these 1:1)."""

    #: worker processes for the windowed analysis (1 = in-process)
    jobs: int = 1
    #: artifact-cache directory; ``None`` consults ``$REPRO_CACHE_DIR``
    cache_dir: Optional[str] = None
    #: disable the artifact cache even if the environment configures one
    no_cache: bool = False
    #: windows of the bounded-error windowed analysis mode (see docs);
    #: 0 (or 1) = the exact mode
    approx: int = 0
    #: cost engine for the analyze stage; ``None`` = the default
    engine: Optional[str] = None
    #: simulator engine for the simulate stage; ``None`` consults
    #: ``$REPRO_SIM_ENGINE`` (then defaults to ``auto``)
    sim_engine: Optional[str] = None
    #: model the one-cycle fetch break after taken branches
    model_taken_branch_breaks: bool = True


@dataclass
class PipelineStats:
    """What one pipeline run actually did (rendered by ``--metrics``)."""

    mode: str = "exact"
    cache_state: str = "off"      # off | cold | warm | partial
    sim_cached: bool = False
    graph_cached: bool = False
    windows: int = 1
    jobs: int = 1
    pooled: bool = False
    window_wall_ms: List[float] = field(default_factory=list)


def open_cache(cache_dir: Optional[str] = None,
               no_cache: bool = False) -> ArtifactCache:
    """The artifact cache a pipeline run should use.

    ``no_cache`` wins over everything, including a configured
    ``$REPRO_CACHE_DIR`` -- it returns a disabled cache whose lookups
    always miss and whose stores are no-ops.
    """
    if no_cache:
        return ArtifactCache.disabled_cache()
    return ArtifactCache(cache_dir)


def run_pipeline(trace: Trace, config: Optional[MachineConfig] = None,
                 options: Optional[PipelineOptions] = None,
                 cache: Optional[ArtifactCache] = None):
    """Run the staged pipeline; returns a cost provider.

    The provider implements the :class:`repro.core.icost.CostProvider`
    protocol (``cost``/``prefetch``/``total``/``close``) plus the
    attributes the CLI reporting paths consume.  In exact mode (the
    default) it is a :class:`PipelineCostProvider` whose results are
    bit-identical to :func:`repro.analysis.graphsim.analyze_trace`; with
    ``approx`` of 2 or more windows it is a
    :class:`WindowedCostProvider` with the documented bounded error.

    *cache* injects an existing :class:`ArtifactCache` (the session
    layer passes its own, so concurrent sessions and their pipelines
    share one in-process instance with one set of write locks); by
    default one is opened from the options.

    A suite trace (:class:`~repro.workloads.registry.SuiteTrace`) is
    keyed by its identity; exact mode reads its instructions only on a
    miss (or when the provider's ``result`` is asked for), so a warm
    run never reads them.
    """
    opts = options or PipelineOptions()
    cfg = config or MachineConfig()
    if cache is None:
        cache = open_cache(opts.cache_dir, opts.no_cache)
    mode = "windowed" if opts.approx > 1 else "exact"
    with obs.span("pipeline.run", mode=mode, approx=opts.approx,
                  jobs=opts.jobs, cache=cache.enabled):
        obs.gauge("pipeline.jobs", opts.jobs)
        if mode == "windowed":
            provider = _run_windowed(trace, cfg, opts, cache)
        else:
            provider = _run_exact(trace, cfg, opts, cache)
        obs.note("pipeline.cache.state", provider.stats.cache_state)
        return provider


# ----------------------------------------------------------------------
# Exact mode: the cached build of the monolithic graph
# ----------------------------------------------------------------------


def _run_exact(trace: Trace, cfg: MachineConfig, opts: PipelineOptions,
               cache: ArtifactCache) -> "PipelineCostProvider":
    stats = PipelineStats(mode="exact", jobs=opts.jobs)
    # content keys exist to address the cache: with the cache disabled,
    # fingerprinting the whole trace would be pure overhead
    skey = gkey = None
    graph = meta = None
    if cache.enabled:
        skey = sim_key(trace, cfg)
        gkey = graph_key(trace, cfg,
                         breaks=opts.model_taken_branch_breaks)
        graph = cache.get_graph(gkey)
        meta = cache.get_json("meta", skey)
        stats.graph_cached = graph is not None

    result = None
    if graph is None or meta is None:
        result = _simulate_stage(trace, cfg, opts, cache, skey, stats)
        if graph is None:
            with obs.span("pipeline.build"):
                graph = GraphBuilder(
                    opts.model_taken_branch_breaks).build(result)
            cache.put_graph(gkey, graph)
        meta = {"cycles": result.cycles, "insts": len(result.trace.insts)}
        cache.put_json("meta", skey, meta)

    stats.cache_state = _cache_state(cache, stats)
    with obs.span("pipeline.analyze", engine=opts.engine or DEFAULT_ENGINE):
        analyzer = GraphCostAnalyzer(graph, engine=opts.engine)
    return PipelineCostProvider(trace, cfg, graph, analyzer,
                                int(meta["cycles"]), cache, skey, stats,
                                result=result)


def _simulate_stage(trace: Trace, cfg: MachineConfig, opts: PipelineOptions,
                    cache: ArtifactCache, skey: Optional[str],
                    stats: PipelineStats) -> SimResult:
    """The run's simulation: the cached artifact, else a fresh one
    (stored for the next run)."""
    result = None
    with obs.span("pipeline.simulate", insts=len(trace.insts)):
        if cache.enabled:
            result = cache.get_sim(skey, trace, cfg)
            stats.sim_cached = result is not None
        if result is None:
            from repro.uarch.fastcore import simulate

            result = simulate(trace, config=cfg, engine=opts.sim_engine)
            cache.put_sim(skey, result)
    return result


def _cache_state(cache: ArtifactCache, stats: PipelineStats) -> str:
    if not cache.enabled:
        return "off"
    if stats.graph_cached:
        return "warm"          # build skipped (and simulate, unless
                               # only the tiny meta record was missing)
    return "partial" if stats.sim_cached else "cold"


def _even_bounds(n: int, windows: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into up to *windows* contiguous spans."""
    w = max(1, min(windows, n)) if n else 1
    if n == 0:
        return [(0, 0)]
    step = -(-n // w)  # ceil division: full coverage, last span short
    return [(s, min(s + step, n)) for s in range(0, n, step)]


def _record_window(stats: PipelineStats, wall_ms: float) -> None:
    stats.window_wall_ms.append(wall_ms)
    obs.count("pipeline.window.built")
    obs.observe("pipeline.window_ms", wall_ms)


# -- pool worker state (one SimResult shipped per worker) --------------

_worker_state: Optional[Tuple[SimResult, bool, Optional[str]]] = None


def _init_pipeline_worker(result: SimResult, breaks: bool,
                          engine: Optional[str], env,
                          observe: bool = False) -> None:
    global _worker_state
    apply_child_env(env, seed_tag="pipeline-pool")
    if observe:  # parent is collecting: record spans in this worker too
        obs.enable()
    _worker_state = (result, breaks, engine)


def _drain_worker_spans():
    """This worker's recorded activity, emptied for the next task."""
    collector = obs.collector()
    if collector is None:
        return None
    return collector.export_spans(drain=True)


def _absorb_worker_exports(exports, pool_span) -> None:
    """Stitch worker-collector exports under *pool_span* in the parent."""
    collector = obs.collector()
    if collector is None:
        return
    parent_sid = getattr(pool_span, "sid", 0)
    for export in exports:
        if export:
            collector.absorb(export, parent_sid=parent_sid)


def _window_task(payload):
    """Windowed-mode worker: build one truncated window graph and
    measure the requested target sets on it.

    Returns ``(costs, wall_ms, span_export)`` where *costs* aligns with
    the order of the submitted keys.
    """
    result, breaks, engine = _worker_state
    (start, end), keys = payload
    t0 = time.perf_counter()
    with obs.span("pipeline.window_analyze", start=start, end=end,
                  keys=len(keys)):
        graph = build_window_graph(result, start, end - start,
                                   model_taken_branch_breaks=breaks)
        analyzer = GraphCostAnalyzer(graph, engine=engine)
        analyzer.prefetch(keys)
        costs = [analyzer.cost(key) for key in keys]
        analyzer.close()
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return costs, wall_ms, _drain_worker_spans()


# ----------------------------------------------------------------------
# Providers
# ----------------------------------------------------------------------


class PipelineCostProvider:
    """Exact-mode provider: the monolithic graph, staged and cached.

    Interface-compatible with
    :class:`repro.analysis.graphsim.GraphCostProvider` (``cost``,
    ``prefetch``, ``total``, ``analyzer``, ``graph``, ``result``), and
    bit-identical to it by construction; additionally exposes
    :attr:`stats` describing what the pipeline skipped.
    """

    def __init__(self, trace: Trace, config: MachineConfig, graph,
                 analyzer: GraphCostAnalyzer, cycles: int,
                 cache: ArtifactCache, skey: str, stats: PipelineStats,
                 result: Optional[SimResult] = None) -> None:
        self.trace = trace
        self.config = config
        self.graph = graph
        self.cycles = cycles
        self.stats = stats
        self._analyzer = analyzer
        self._cache = cache
        self._skey = skey
        self._result = result

    def cost(self, targets: Iterable[Target]) -> float:
        """cost(S) = t - t(S) on the monolithic graph."""
        return self._analyzer.cost(targets)

    def prefetch(self, target_sets: Iterable[Iterable[Target]]) -> None:
        """Batch-measure *target_sets* through the underlying engine."""
        self._analyzer.prefetch(target_sets)

    @property
    def total(self) -> float:
        """Simulator cycle count (same denominator as the monolith)."""
        return float(self.cycles)

    @property
    def analyzer(self) -> GraphCostAnalyzer:
        return self._analyzer

    @property
    def result(self) -> SimResult:
        """The underlying simulation, materialised on demand.

        A fully warm run never loads the ``SimResult`` at all; reports
        that need per-instruction detail (``critical``) trigger a cache
        load -- or a re-simulation if the artifact has been evicted.
        """
        if self._result is None:
            self._result = self._cache.get_sim(
                self._skey, self.trace, self.config) \
                if self._cache.enabled else None
            if self._result is None:
                from repro.uarch.fastcore import simulate

                self._result = simulate(self.trace, config=self.config)
        return self._result

    def close(self) -> None:
        """Release the analyzer's cached measurement state."""
        self._analyzer.close()


class WindowedCostProvider:
    """Bounded-error provider over truncated window graphs.

    ``cost(S)`` is the sum over windows of the per-window graph cost;
    cross-window edges are truncated at window borders exactly like
    :class:`~repro.analysis.sampled.WindowedRun` fragments, which is
    where the (documented, <2% on the CPI breakdown) deviation comes
    from.  ``total`` stays the *simulator* cycle count, so breakdown
    percentages remain comparable with exact mode.
    """

    def __init__(self, result: SimResult, opts: PipelineOptions,
                 stats: PipelineStats) -> None:
        self._result = result
        self._opts = opts
        self.stats = stats
        n = len(result.trace.insts)
        self._bounds = _even_bounds(n, opts.approx)
        stats.windows = len(self._bounds)
        obs.gauge("pipeline.windows", len(self._bounds))
        self._analyzers: List[Optional[GraphCostAnalyzer]] = \
            [None] * len(self._bounds)
        # per-window memo: canonical target key -> cost
        self._costs: List[Dict[tuple, float]] = \
            [dict() for _ in self._bounds]

    # -- provider protocol --------------------------------------------

    def cost(self, targets: Iterable[Target]) -> float:
        """Bounded-error cost: the per-window costs of *targets* summed."""
        key = normalize_targets(targets)
        return sum(self._window_cost(w, key)
                   for w in range(len(self._bounds)))

    def prefetch(self, target_sets: Iterable[Iterable[Target]]) -> None:
        """Measure missing target sets, pooled across windows if allowed."""
        keys: List = []
        seen = set()
        for targets in target_sets:
            key = normalize_targets(targets)
            ck = canonical_target_keys(key)
            if ck not in seen:
                seen.add(ck)
                keys.append(key)
        missing = [key for key in keys
                   if any(canonical_target_keys(key) not in self._costs[w]
                          for w in range(len(self._bounds)))]
        if not missing:
            return
        if self._opts.jobs > 1 and len(self._bounds) > 1 \
                and self._pool_prefetch(missing):
            return
        obs.count("pipeline.fallback_local")
        for w in range(len(self._bounds)):
            for key in missing:
                self._window_cost(w, key)

    @property
    def total(self) -> float:
        return float(self._result.cycles)

    @property
    def result(self) -> SimResult:
        return self._result

    def close(self) -> None:
        """Release every materialised per-window analyzer."""
        for analyzer in self._analyzers:
            if analyzer is not None:
                analyzer.close()

    # -- internals -----------------------------------------------------

    def _window_cost(self, w: int, key) -> float:
        ck = canonical_target_keys(key)
        memo = self._costs[w]
        if ck not in memo:
            analyzer = self._analyzers[w]
            if analyzer is None:
                start, end = self._bounds[w]
                t0 = time.perf_counter()
                graph = build_window_graph(
                    self._result, start, end - start,
                    self._opts.model_taken_branch_breaks)
                analyzer = GraphCostAnalyzer(graph, engine=self._opts.engine)
                self._analyzers[w] = analyzer
                _record_window(self.stats,
                               (time.perf_counter() - t0) * 1000.0)
            memo[ck] = analyzer.cost(key)
        return memo[ck]

    def _pool_prefetch(self, keys: List) -> bool:
        """Fan (window x keys) tasks across a pool; False = fall back."""
        if (os.cpu_count() or 1) < 2:
            return False
        try:
            from concurrent.futures import ProcessPoolExecutor

            t0 = time.perf_counter()
            with obs.span("pipeline.pool_analyze",
                          windows=len(self._bounds), keys=len(keys),
                          jobs=self._opts.jobs) as pool_span:
                with ProcessPoolExecutor(
                        max_workers=self._opts.jobs,
                        initializer=_init_pipeline_worker,
                        initargs=(self._result,
                                  self._opts.model_taken_branch_breaks,
                                  self._opts.engine, child_env(),
                                  obs.enabled())) as pool:
                    payloads = [(span, keys) for span in self._bounds]
                    out = list(pool.map(_window_task, payloads))
                _absorb_worker_exports((row[2] for row in out), pool_span)
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
        except Exception:
            obs.count("pipeline.pool_error")
            return False
        busy_ms = 0.0
        for w, (costs, wall_ms, _export) in enumerate(out):
            for key, value in zip(keys, costs):
                self._costs[w][canonical_target_keys(key)] = value
            busy_ms += wall_ms
            _record_window(self.stats, wall_ms)
        self.stats.pooled = True
        if elapsed_ms > 0:
            obs.gauge("pipeline.shard_utilization",
                      min(1.0, busy_ms / (self._opts.jobs * elapsed_ms)))
        return True


def _run_windowed(trace: Trace, cfg: MachineConfig, opts: PipelineOptions,
                  cache: ArtifactCache) -> WindowedCostProvider:
    stats = PipelineStats(mode="windowed", jobs=opts.jobs)
    skey = sim_key(trace, cfg) if cache.enabled else None
    result = _simulate_stage(trace, cfg, opts, cache, skey, stats)
    if not stats.sim_cached:
        cache.put_json("meta", skey, {"cycles": result.cycles,
                                      "insts": len(result.trace.insts)})
    stats.cache_state = "off" if not cache.enabled else (
        "warm" if stats.sim_cached else "cold")
    return WindowedCostProvider(result, opts, stats)
