"""The analysis session: one core every frontend routes through.

The paper's workflow is one loop -- simulate a microexecution, build
the dependence graph, idealize edge sets, compare costs -- but the
repository grew one hand-wired copy of that loop per analysis.  An
:class:`AnalysisSession` centralises the loop's expensive stages:

- **trace resolution** (suite workload name -> trace): a suite trace
  is a :class:`~repro.workloads.registry.SuiteTrace` keyed by its
  identity, read only when something needs its instructions -- a
  cache miss, a report over the simulation, a sweep point to run -- so
  a fully cached run never generates, loads or hashes it;
- **cached simulation**: every ``simulate`` in the process goes through
  :meth:`AnalysisSession.simulate` / :meth:`cycles`, which memoise by
  content (trace fingerprint x machine config x idealization) and
  consult the PR 3 artifact cache, so identical configurations are
  never simulated twice -- within a sweep, across analyses sharing a
  session, or across processes sharing a cache directory;
- **sweeps**: :meth:`sweep` dedupes a batch of configuration points,
  drains the memo and the on-disk cache, and fans the genuinely cold
  points across a process pool;
- **provider construction**: :meth:`provider` routes through
  :func:`repro.pipeline.run_pipeline` whenever a pipeline knob is
  engaged (artifact cache, approx mode) and through the
  classic monolithic graph path otherwise -- the exact logic the CLI
  used to own, now available to every caller;
- **observability**: the session publishes ``session.*`` counters
  (``session.simulate``, ``session.simulate.memo_hit``,
  ``session.cycles.cache_hit``, ``session.sweep.dedup``) so tests and
  ``--metrics`` can assert how many simulator runs actually happened.

Construction is cheap and nothing simulates until asked, so frontends
can build one session per request and share it across every analysis
the request touches.
"""

from __future__ import annotations

import os
import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import repro.obs as obs
from repro.core.categories import Category
from repro.isa.trace import Trace
from repro.session.config import RunConfig
from repro.uarch.config import IdealConfig, MachineConfig
from repro.uarch.events import SimResult

#: One sweep point: a machine configuration, optionally paired with the
#: set of categories to idealize (the multisim axis).
SweepPoint = Union[MachineConfig, Tuple[MachineConfig, FrozenSet[Category]]]


def _simulate(*args, **kwargs) -> SimResult:
    """:func:`repro.uarch.fastcore.simulate`, imported on a miss: a run
    served from the cache never loads a simulator core."""
    from repro.uarch.fastcore import simulate

    return simulate(*args, **kwargs)


def _cycles_many(*args, **kwargs) -> List[int]:
    """:func:`repro.uarch.fastcore.cycles_many`, imported by the sweep
    that needs it."""
    from repro.uarch.fastcore import cycles_many

    return cycles_many(*args, **kwargs)


def _ideal_key(ideal) -> FrozenSet[Category]:
    """Normalise an idealization argument to a frozenset of categories."""
    if ideal is None:
        return frozenset()
    return frozenset(ideal)


def _as_point(point: SweepPoint) -> Tuple[MachineConfig, FrozenSet[Category]]:
    if isinstance(point, MachineConfig):
        return point, frozenset()
    config, ideal = point
    return config, _ideal_key(ideal)


class AnalysisSession:
    """One simulate/build/analyze context shared by every analysis.

    *run* carries the typed knobs (:class:`repro.session.RunConfig`);
    *trace* optionally pins an already-generated trace (library
    callers), otherwise :attr:`trace` resolves ``run.workload`` through
    the suite registry, reading it through this session's artifact
    cache; *cache* optionally injects an existing
    :class:`repro.pipeline.artifacts.ArtifactCache` instead of opening
    one from ``run.cache_dir``.
    """

    def __init__(self, run: Optional[RunConfig] = None,
                 trace: Optional[Trace] = None, cache=None) -> None:
        self.run = run or RunConfig()
        self._trace = trace
        self._cache = cache
        #: sim_key -> SimResult (full results, used by graph providers)
        self._sims: Dict[str, SimResult] = {}
        #: sim_key -> cycle count (cheap sweep memo; no events retained)
        self._cycles: Dict[str, int] = {}
        #: lifecycle timestamps (monotonic seconds) -- the serve layer's
        #: SessionManager reaps sessions idle past a deadline
        self.created_s = time.monotonic()
        self.last_used_s = self.created_s
        self._closed = False

    @classmethod
    def for_trace(cls, trace: Trace,
                  config: Optional[MachineConfig] = None,
                  cache=None, **kwargs) -> "AnalysisSession":
        """An ephemeral session around an existing trace.

        The backward-compatible analysis entry points
        (``analyze_trace``, ``profile_trace``, the sweep functions)
        build one of these when the caller did not supply a session.
        """
        return cls(RunConfig(machine=config, **kwargs), trace=trace,
                   cache=cache)

    # -- resolution ----------------------------------------------------

    @property
    def trace(self) -> Trace:
        """The run's trace: the pinned one, or the workload's
        :class:`~repro.workloads.registry.SuiteTrace`, which reads its
        instructions (through this session's artifact cache) on first
        access."""
        if self._trace is None:
            if self.run.workload is None:
                raise ValueError(
                    "session has neither a trace nor a workload name")
            from repro.workloads.registry import SuiteTrace

            self._trace = SuiteTrace(self.run.workload,
                                     scale=self.run.scale,
                                     seed=self.run.seed, cache=self.cache)
        return self._trace

    @property
    def trace_source(self) -> Optional[str]:
        """Where the run's suite trace came from: ``"generated"``,
        ``"loaded"`` (artifact cache), ``"cached"`` (in-process), or
        ``"skipped"`` when nothing read it; ``None`` for a pinned trace
        or a run without one."""
        if not hasattr(self._trace, "source"):
            return None
        return self._trace.source or "skipped"

    @property
    def machine(self) -> MachineConfig:
        """The run's base machine configuration."""
        return self.run.machine_config()

    @property
    def cache(self):
        """The artifact cache of this session (possibly disabled)."""
        if self._cache is None:
            from repro.pipeline import open_cache

            self._cache = open_cache(self.run.cache_dir, self.run.no_cache)
        return self._cache

    def _resolve(self, trace: Optional[Trace],
                 config: Optional[MachineConfig]
                 ) -> Tuple[Trace, MachineConfig]:
        return (trace if trace is not None else self.trace,
                config if config is not None else self.machine)

    def _key(self, trace: Trace, config: MachineConfig,
             ideal: FrozenSet[Category]) -> str:
        from repro.pipeline.artifacts import sim_key

        return sim_key(trace, config, ideal)

    # -- cached simulation ---------------------------------------------

    def _run_simulator(self, trace: Trace, config: MachineConfig,
                       cats: FrozenSet[Category]) -> SimResult:
        """Invoke the simulator for one genuinely cold point.

        This is the **only** in-process site that both calls the
        simulator and emits the ``session.simulate`` counter, so the
        counter equals the number of simulator invocations by
        construction -- regardless of whether a point arrives through
        :meth:`simulate`, :meth:`cycles` or :meth:`sweep`
        (``tests/test_session.py`` pins this).  :meth:`sweep` owns the
        two exceptions: the batched fast-core path and the process-pool
        path both run many points per call, so they bulk-emit the
        counter on the simulator's behalf.
        """
        obs.count("session.simulate")
        ideal_cfg = IdealConfig.for_categories(cats) if cats else None
        return _simulate(trace, config=config, ideal=ideal_cfg,
                         engine=self.run.sim_engine)

    def simulate(self, config: Optional[MachineConfig] = None,
                 ideal=None, trace: Optional[Trace] = None) -> SimResult:
        """A full simulation result, memoised by content.

        Identical (trace, config, idealization) requests return the
        same :class:`SimResult` object; non-idealized results are also
        stored in / served from the artifact cache, so a warm cache
        directory skips the simulator across processes too.
        """
        trace, config = self._resolve(trace, config)
        self.touch()
        cats = _ideal_key(ideal)
        key = self._key(trace, config, cats)
        hit = self._sims.get(key)
        if hit is not None:
            obs.count("session.simulate.memo_hit")
            return hit
        result = None
        if not cats and self.cache.enabled:
            result = self.cache.get_sim(key, trace, config)
            if result is not None:
                obs.count("session.simulate.cache_hit")
        if result is None:
            result = self._run_simulator(trace, config, cats)
            if not cats:
                self.cache.put_sim(key, result)
            self.cache.put_json("cycles", key,
                                {"cycles": int(result.cycles)})
        self._sims[key] = result
        self._cycles[key] = result.cycles
        return result

    def cycles(self, config: Optional[MachineConfig] = None,
               ideal=None, trace: Optional[Trace] = None) -> int:
        """The cycle count of one configuration point, memoised.

        Cheaper than :meth:`simulate` for sweeps: cold points store
        only the integer (in memory and, when the cache is enabled, as
        a content-addressed ``cycles`` artifact), not the full event
        stream.
        """
        trace, config = self._resolve(trace, config)
        self.touch()
        cats = _ideal_key(ideal)
        key = self._key(trace, config, cats)
        hit = self._cycles.get(key)
        if hit is not None:
            obs.count("session.cycles.memo_hit")
            return hit
        if self.cache.enabled:
            payload = self.cache.get_json("cycles", key)
            if payload is not None:
                obs.count("session.cycles.cache_hit")
                value = int(payload["cycles"])
                self._cycles[key] = value
                return value
        value = self._run_simulator(trace, config, cats).cycles
        self._cycles[key] = value
        self.cache.put_json("cycles", key, {"cycles": int(value)})
        return value

    # -- sweeps ---------------------------------------------------------

    def sweep(self, points: Sequence[SweepPoint],
              jobs: Optional[int] = None,
              trace: Optional[Trace] = None) -> List[int]:
        """Cycle counts for a batch of configuration points.

        Points are deduplicated by content key first (repeated
        configurations in one sweep -- and across sweeps sharing this
        session -- cost one simulation), then the memo and the on-disk
        cache are drained, and only the genuinely cold points run: in a
        process pool when ``jobs > 1`` allows it, serially otherwise.
        The returned list aligns with *points*.
        """
        trace = trace if trace is not None else self.trace
        self.touch()
        jobs = jobs if jobs is not None else self.run.jobs
        resolved = [_as_point(p) for p in points]
        keys = [self._key(trace, cfg, cats) for cfg, cats in resolved]
        unique: Dict[str, Tuple[MachineConfig, FrozenSet[Category]]] = {}
        for key, point in zip(keys, resolved):
            unique.setdefault(key, point)
        duplicates = len(keys) - len(unique)
        if duplicates:
            obs.count("session.sweep.dedup", duplicates)
        todo: List[str] = []
        for key, (cfg, cats) in unique.items():
            if key in self._cycles:
                obs.count("session.cycles.memo_hit")
                continue
            if self.cache.enabled:
                payload = self.cache.get_json("cycles", key)
                if payload is not None:
                    obs.count("session.cycles.cache_hit")
                    self._cycles[key] = int(payload["cycles"])
                    continue
            todo.append(key)
        with obs.span("session.sweep", points=len(points),
                      unique=len(unique), cold=len(todo), jobs=jobs):
            if todo and self._use_batched_sweep():
                todo = self._batched_sweep(trace, unique, todo)
            if len(todo) > 1 and jobs > 1 and (os.cpu_count() or 1) >= 2:
                todo = self._pool_sweep(trace, unique, todo, jobs)
            for key in todo:
                cfg, cats = unique[key]
                self._cycles[key] = \
                    self._run_simulator(trace, cfg, cats).cycles
                self.cache.put_json("cycles", key,
                                    {"cycles": int(self._cycles[key])})
        return [self._cycles[key] for key in keys]

    def _use_batched_sweep(self) -> bool:
        """Whether cold sweep points should run through the fast core's
        batched entry (one trace decode amortized across all points).

        Requires the native sim kernel: without it every point would
        fall back to the reference core anyway, and the process pool is
        the better tool for that.  ``sim_engine='reference'`` (flag or
        ``$REPRO_SIM_ENGINE``) keeps the historical pool/serial path.
        """
        from repro.uarch.fastcore import resolve_sim_engine, sim_native_kernel

        if resolve_sim_engine(self.run.sim_engine) == "reference":
            return False
        return sim_native_kernel() is not None

    def _batched_sweep(self, trace: Trace, unique,
                       todo: List[str]) -> List[str]:
        """Run cold points through :func:`repro.uarch.fastcore.cycles_many`.

        Bulk-emits ``session.simulate`` (one per point -- the second
        sanctioned emission site besides :meth:`_run_simulator`; see
        its docstring) and skips event materialization entirely.
        """
        points = []
        for key in todo:
            cfg, cats = unique[key]
            points.append(
                (cfg, IdealConfig.for_categories(cats) if cats else None))
        values = _cycles_many(trace, points, engine=self.run.sim_engine)
        obs.count("session.simulate", len(todo))
        for key, value in zip(todo, values):
            self._cycles[key] = int(value)
            self.cache.put_json("cycles", key, {"cycles": int(value)})
        return []

    def _pool_sweep(self, trace: Trace, unique, todo: List[str],
                    jobs: int) -> List[str]:
        """Fan cold sweep points across a pool; returns leftovers."""
        try:
            from concurrent.futures import ProcessPoolExecutor

            from repro.graph.engine import child_env

            payloads = [unique[key] for key in todo]
            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(todo)),
                    initializer=_init_sweep_worker,
                    initargs=(trace, child_env(),
                              self.run.sim_engine)) as pool:
                results = list(pool.map(_sweep_point_cycles, payloads))
        except Exception:
            obs.count("session.pool_error")
            return todo
        # workers simulated out of process: count on their behalf (the
        # one emission outside _run_simulator -- see its docstring)
        obs.count("session.simulate", len(todo))
        for key, value in zip(todo, results):
            self._cycles[key] = int(value)
            self.cache.put_json("cycles", key, {"cycles": int(value)})
        return []

    # -- provider construction ------------------------------------------

    def provider(self, trace: Optional[Trace] = None):
        """The cost provider behind breakdown/matrix/critical.

        Plain runs take the monolithic path; any pipeline knob in
        :attr:`run` routes through :func:`repro.pipeline.run_pipeline`
        -- exact and bit-identical unless ``approx`` opts into the
        windowed bounded-error mode.  Both use the default (batched)
        cost engine unless the run names one.
        """
        trace = trace if trace is not None else self.trace
        self.touch()
        if self.run.pipeline_requested():
            from repro.pipeline import run_pipeline

            # pass this session's cache object through so concurrent
            # sessions built over one SessionManager share an instance
            return run_pipeline(trace, config=self.machine,
                                options=self.run.pipeline_options(),
                                cache=self.cache)
        from repro.analysis.graphsim import analyze_trace

        return analyze_trace(trace, config=self.machine,
                             engine=self.run.engine,
                             session=self)

    def graph_provider(self, config: Optional[MachineConfig] = None,
                       trace: Optional[Trace] = None, engine=None,
                       model_taken_branch_breaks: Optional[bool] = None):
        """A monolithic-graph cost provider over a cached simulation."""
        from repro.analysis.graphsim import GraphCostProvider

        trace, config = self._resolve(trace, config)
        breaks = (self.run.model_taken_branch_breaks
                  if model_taken_branch_breaks is None
                  else model_taken_branch_breaks)
        result = self.simulate(config=config, trace=trace)
        return GraphCostProvider(result, breaks,
                                 engine=engine if engine is not None
                                 else self.run.engine)

    def multisim_provider(self, max_workers: Optional[int] = None,
                          trace: Optional[Trace] = None):
        """The ground-truth re-simulation provider, session-cached."""
        from repro.analysis.multisim import MultiSimCostProvider

        return MultiSimCostProvider(trace if trace is not None
                                    else self.trace,
                                    max_workers=max_workers, session=self)

    def profile_provider(self, trace: Optional[Trace] = None,
                         config: Optional[MachineConfig] = None,
                         monitor=None, fragments: int = 12, seed: int = 0):
        """The shotgun-profiler provider, sharing this session's sims."""
        from repro.profiler.shotgun import profile_trace

        trace, config = self._resolve(trace, config)
        return profile_trace(trace, config, monitor=monitor,
                             fragments=fragments, seed=seed, session=self)

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called on this session."""
        return self._closed

    def touch(self) -> None:
        """Mark the session as just-used (defers an idle reap)."""
        self.last_used_s = time.monotonic()

    def idle_s(self) -> float:
        """Seconds since the session was last used (or created)."""
        return time.monotonic() - self.last_used_s

    def close(self) -> None:
        """Drop every memoised simulation result.

        Idempotent and non-poisoning: the session remains usable after
        a close (memos simply start cold again) because the CLI closes
        the session before rendering and some renderers re-read cheap
        state.  The shared :class:`~repro.pipeline.artifacts.ArtifactCache`
        is **not** touched -- it outlives every session that uses it.
        """
        if not self._closed:
            self._closed = True
            obs.count("session.close")
            if self.trace_source == "skipped":
                obs.count("workload.trace.skipped")
                obs.note("workload.trace.source", "skipped")
        self._sims.clear()
        self._cycles.clear()

    def __enter__(self) -> "AnalysisSession":
        """Support ``with AnalysisSession(...) as session:`` usage."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close (drop memos) on context-manager exit."""
        self.close()


# -- sweep pool worker state (the trace ships once per worker) ----------

_worker_trace: Optional[Trace] = None


_worker_sim_engine: Optional[str] = None


def _init_sweep_worker(trace: Trace, env=None, sim_engine=None) -> None:
    global _worker_trace, _worker_sim_engine
    from repro.graph.engine import apply_child_env

    apply_child_env(env, seed_tag="session-pool")
    _worker_trace = trace
    _worker_sim_engine = sim_engine


def _sweep_point_cycles(point) -> int:
    config, cats = point
    ideal = IdealConfig.for_categories(cats) if cats else None
    return _simulate(_worker_trace, config=config, ideal=ideal,
                     engine=_worker_sim_engine).cycles
