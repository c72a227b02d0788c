"""The pipeline emits spans/counters when observation is on.

These tests pin the *names* the instrumentation uses -- they are the
public contract the metrics table, the trace files and future perf
PRs read.
"""

import re

import pytest

from repro import obs
from repro.analysis.graphsim import analyze_trace
from repro.core import CachingCostProvider, interaction_breakdown
from repro.core.categories import Category
from repro.graph import engine as engine_mod
from repro.profiler import profile_trace
from repro.workloads import get_workload, registry


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture()
def collected(small_gzip_trace):
    """One observed batched-engine breakdown over the gzip fixture."""
    c = obs.enable()
    provider = analyze_trace(small_gzip_trace, engine="batched")
    interaction_breakdown(provider, focus=Category.DL1, workload="gzip")
    obs.disable()
    return c


class TestPipelineSpans:
    def test_covers_at_least_five_stages(self, collected):
        names = set(collected.span_names())
        expected = {"sim.run", "graph.build", "analysis.analyze_trace",
                    "engine.cp_batch", "breakdown.interaction"}
        assert expected <= names
        assert len(names) >= 5

    def test_workload_generation_span(self):
        c = obs.enable()
        get_workload("gzip", scale=0.05, seed=12345)
        obs.disable()
        assert "workload.trace" in c.span_names()
        assert c.counter("workload.trace.generated") == 1
        c2 = obs.enable()
        get_workload("gzip", scale=0.05, seed=12345)
        obs.disable()
        assert c2.counter("workload.trace.cache_hit") == 1

    def test_trace_cache_eviction_metrics(self, monkeypatch):
        cache = registry._TraceCache(1)
        monkeypatch.setattr(registry, "_TRACES", cache)
        c = obs.enable()
        get_workload("gzip", scale=0.05, seed=23456)
        get_workload("gzip", scale=0.05, seed=23457)
        obs.disable()
        assert c.counter("workload.trace.evicted") == 1
        assert c.gauges["workload.trace.cached_insts"] == cache.insts > 0

    def test_trace_source_counters(self, tmp_path, monkeypatch):
        """A run's suite trace is generated, loaded from the artifact
        cache, or skipped when a warm run never reads it; each counts,
        and the ``workload.trace.source`` note says which."""
        from repro.session import AnalysisSession, RunConfig
        from repro.uarch import MachineConfig

        run = RunConfig(workload="gzip", scale=0.05, seed=34567,
                        cache_dir=str(tmp_path))
        sources = []
        # cold, then warm, then a new machine over the cached trace
        for config in (run, run, run.with_(machine=MachineConfig(
                dl1_latency=4))):
            monkeypatch.setattr(registry, "_TRACES",
                                registry._TraceCache(1 << 17))
            c = obs.enable()
            with AnalysisSession(config) as session:
                session.provider()
            obs.disable()
            source = c.notes["workload.trace.source"]
            assert c.counter(f"workload.trace.{source}") == 1
            sources.append(source)
        assert sources == ["generated", "skipped", "loaded"]

    def test_insts_materialized_counter(self):
        """``workload.insts_materialized`` bills every ``DynInst`` the
        lazy ``trace.insts`` view builds: the reference core walks
        objects (built once per trace), the fast core reads columns."""
        from tests.conftest import build_loop_program
        from repro.isa import Executor
        from repro.uarch import fastcore

        trace = Executor(build_loop_program()).run()
        c = obs.enable()
        fastcore.simulate(trace, engine="fast")
        obs.disable()
        assert c.counter("workload.insts_materialized") == 0
        c = obs.enable()
        for _ in range(2):
            fastcore.simulate(trace, engine="reference")
        obs.disable()
        assert c.counter("workload.insts_materialized") == len(trace)

    def test_span_args_carry_sizes(self, collected):
        by_name = {s[0]: s[4] for s in collected.spans}
        assert by_name["graph.build"]["insns"] > 0
        assert by_name["graph.build"]["edges"] > 0
        assert by_name["sim.run"]["cycles"] > 0


class TestEngineCounters:
    def test_batched_engine_measurement_mix(self, collected):
        sweeps = collected.counter("engine.batched.sweep.full")
        worklist = collected.counter("engine.batched.worklist")
        assert sweeps + worklist > 0
        assert collected.histograms["engine.batch_size"][0] >= 1

    def test_native_kernel_status_recorded(self, collected):
        assert collected.gauges["engine.native_kernel"] in (0, 1)
        assert collected.notes["engine.native_kernel.status"]

    def test_naive_engine_counts_sweeps(self, miss_result):
        from repro.analysis.graphsim import GraphCostProvider

        c = obs.enable()
        provider = GraphCostProvider(miss_result, engine="naive")
        provider.cost(frozenset({Category.DL1}))
        obs.disable()
        assert c.counter("engine.naive.sweep") >= 2  # baseline + dl1

    def test_default_breakdown_runs_the_batched_engine(self, capsys):
        from repro.cli import main

        assert main(["breakdown", "gzip", "--scale", "0.2", "--focus",
                     "dl1", "--metrics", "--no-ledger"]) == 0
        counters = dict(re.findall(r"^(engine\.\S+) +(\d+)$",
                                   capsys.readouterr().out, re.M))
        assert any(name.startswith("engine.batched.") for name in counters)
        assert "engine.naive.sweep" not in counters

    def test_forced_pure_python_status_note(self, miss_graph):
        c = obs.enable()
        engine_mod.BatchedEngine(miss_graph, native=False)
        obs.disable()
        assert "pure-Python" in c.notes["engine.native_kernel.status"]


class TestNativeKernelStatus:
    def test_status_tuple_shape(self):
        available, reason = engine_mod.native_kernel_status()
        assert isinstance(available, bool)
        assert isinstance(reason, str) and reason

    def test_fallback_warning_fires_once_on_silent_failure(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_NO_NATIVE", raising=False)
        monkeypatch.setattr(engine_mod.SWEEP_KERNEL, "fn", None)
        monkeypatch.setattr(engine_mod.SWEEP_KERNEL, "reason",
                            "no working C compiler (cc: exit 127)")
        monkeypatch.setattr(engine_mod.SWEEP_KERNEL, "warned", False)
        message = engine_mod.native_fallback_warning()
        assert message is not None
        assert "no working C compiler" in message
        assert engine_mod.native_fallback_warning() is None  # once only

    def test_no_warning_when_user_opted_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_NO_NATIVE", "1")
        monkeypatch.setattr(engine_mod.SWEEP_KERNEL, "fn", None)
        monkeypatch.setattr(engine_mod.SWEEP_KERNEL, "reason",
                            "disabled by REPRO_ENGINE_NO_NATIVE")
        monkeypatch.setattr(engine_mod.SWEEP_KERNEL, "warned", False)
        assert engine_mod.native_fallback_warning() is None

    def test_no_warning_before_any_attempt(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_NO_NATIVE", raising=False)
        monkeypatch.setattr(engine_mod.SWEEP_KERNEL, "fn", None)
        monkeypatch.setattr(engine_mod.SWEEP_KERNEL, "reason",
                            "not attempted")
        monkeypatch.setattr(engine_mod.SWEEP_KERNEL, "warned", False)
        assert engine_mod.native_fallback_warning() is None


class TestSimKernelStatus:
    """The sim kernel's fallback surface mirrors the graph engine's."""

    def test_status_tuple_shape(self):
        from repro.uarch import fastcore

        available, reason = fastcore.sim_native_kernel_status()
        assert isinstance(available, bool)
        assert isinstance(reason, str) and reason

    def test_fallback_warning_fires_once_and_pins_text(self, monkeypatch):
        from repro.uarch import fastcore

        monkeypatch.delenv("REPRO_SIM_NO_NATIVE", raising=False)
        monkeypatch.setattr(fastcore.SIM_KERNEL, "fn", None)
        monkeypatch.setattr(fastcore.SIM_KERNEL, "reason",
                            "no working C compiler (cc: exit 127)")
        monkeypatch.setattr(fastcore.SIM_KERNEL, "warned", False)
        message = fastcore.sim_native_fallback_warning()
        assert message == (
            "warning: native C simulator kernel unavailable "
            "(no working C compiler (cc: exit 127)); "
            "the fast sim engine is using the reference core "
            "fallback. Set REPRO_SIM_NO_NATIVE=1 to silence.")
        assert fastcore.sim_native_fallback_warning() is None  # once only

    def test_no_warning_when_user_opted_out(self, monkeypatch):
        from repro.uarch import fastcore

        monkeypatch.setenv("REPRO_SIM_NO_NATIVE", "1")
        monkeypatch.setattr(fastcore.SIM_KERNEL, "fn", None)
        monkeypatch.setattr(fastcore.SIM_KERNEL, "reason",
                            "disabled by REPRO_SIM_NO_NATIVE")
        monkeypatch.setattr(fastcore.SIM_KERNEL, "warned", False)
        assert fastcore.sim_native_fallback_warning() is None

    def test_no_warning_before_any_attempt(self, monkeypatch):
        from repro.uarch import fastcore

        monkeypatch.delenv("REPRO_SIM_NO_NATIVE", raising=False)
        monkeypatch.setattr(fastcore.SIM_KERNEL, "fn", None)
        monkeypatch.setattr(fastcore.SIM_KERNEL, "reason",
                            "not attempted")
        monkeypatch.setattr(fastcore.SIM_KERNEL, "warned", False)
        assert fastcore.sim_native_fallback_warning() is None


class TestSimEngineCounters:
    """Counter/span names of the fast simulator core (the contract
    docs/OBSERVABILITY.md documents)."""

    def test_fast_run_span_and_counter(self, loop_trace):
        from repro.uarch import fastcore

        if fastcore.sim_native_kernel() is None:
            pytest.skip("native sim kernel unavailable")
        c = obs.enable()
        fastcore.simulate(loop_trace, engine="fast")
        obs.disable()
        assert c.counter("sim.fast_runs") == 1
        by_name = {s[0]: s[4] for s in c.spans}
        assert by_name["sim.run"]["engine"] == "fast"

    def test_batched_points_counter(self, loop_trace):
        from repro.uarch import fastcore
        from repro.uarch.config import IdealConfig, MachineConfig

        if fastcore.sim_native_kernel() is None:
            pytest.skip("native sim kernel unavailable")
        points = [(MachineConfig(), None),
                  (MachineConfig(), IdealConfig(dmiss=True))]
        c = obs.enable()
        fastcore.cycles_many(loop_trace, points, engine="fast")
        obs.disable()
        assert c.counter("sim.batched_points") == len(points)
        assert "sim.batch" in c.span_names()

    def test_unsupported_config_counter(self, loop_trace):
        from repro.uarch import fastcore
        from repro.uarch.config import MachineConfig

        if fastcore.sim_native_kernel() is None:
            pytest.skip("native sim kernel unavailable")
        c = obs.enable()
        fastcore.simulate(loop_trace,
                          MachineConfig(model_wrong_path=True),
                          engine="fast")
        obs.disable()
        assert c.counter("sim.unsupported_config") == 1
        assert c.counter("sim.fast_runs") == 0


class TestCachingProviderStats:
    def test_hits_misses_prefetched(self, miss_provider):
        cached = CachingCostProvider(miss_provider)
        cached.prefetch([{Category.DL1}, {Category.WIN}])
        cached.cost({Category.DL1})
        cached.cost({Category.DL1})
        cached.cost({Category.WIN})
        stats = cached.stats()
        assert stats.misses == 2
        assert stats.hits == 1
        assert stats.prefetched == 2
        assert stats.queries == 3
        assert stats.hit_rate == pytest.approx(1 / 3)
        assert cached.calls == 2  # backwards-compatible alias for misses

    def test_stats_snapshot_is_detached(self, miss_provider):
        cached = CachingCostProvider(miss_provider)
        snap = cached.stats()
        cached.cost({Category.DL1})
        assert snap.misses == 0

    def test_clear_resets_cache_and_stats(self, miss_provider):
        cached = CachingCostProvider(miss_provider)
        cached.cost({Category.DL1})
        cached.cost({Category.DL1})
        cached.clear()
        stats = cached.stats()
        assert (stats.hits, stats.misses, stats.prefetched) == (0, 0, 0)
        cached.cost({Category.DL1})
        assert cached.stats().misses == 1  # re-measured after clear

    def test_prefetch_skips_already_cached(self, miss_provider):
        cached = CachingCostProvider(miss_provider)
        cached.cost({Category.DL1})
        cached.prefetch([{Category.DL1}, {Category.WIN}])
        assert cached.stats().prefetched == 1

    def test_stats_surface_as_obs_gauges(self, miss_provider):
        cached = CachingCostProvider(miss_provider)
        cached.cost({Category.DL1})
        cached.cost({Category.DL1})
        c = obs.enable()
        cached.stats()
        obs.disable()
        assert c.gauges["icost.cache.hits"] == 1
        assert c.gauges["icost.cache.misses"] == 1

    def test_cache_counters_reach_collector(self, miss_provider):
        c = obs.enable()
        cached = CachingCostProvider(miss_provider)
        cached.cost({Category.DL1})
        cached.cost({Category.DL1})
        obs.disable()
        assert c.counter("icost.cache.miss") == 1
        assert c.counter("icost.cache.hit") == 1


class TestCacheAndServeCounters:
    """Pinned names of the concurrency-era counters: artifact-cache
    pressure (``cache.*``) and the serve daemon (``serve.*``)."""

    def test_eviction_and_bytes_names(self, tmp_path):
        from repro.pipeline.artifacts import ArtifactCache

        c = obs.enable()
        cache = ArtifactCache(root=str(tmp_path), max_bytes=16)
        cache.put_json("cycles", "a" * 64, {"cycles": 1})
        cache.put_json("cycles", "b" * 64, {"cycles": 2})
        obs.disable()
        assert c.counter("cache.evictions") >= 1
        assert "cache.bytes" in c.gauges

    def test_quarantine_counter_name(self, tmp_path):
        from repro.pipeline.artifacts import ArtifactCache

        cache = ArtifactCache(root=str(tmp_path))
        key = "c" * 64
        cache.put_json("cycles", key, {"cycles": 3})
        with open(cache.path_for("cycles", key), "w") as fh:
            fh.write("not json{")
        c = obs.enable()
        assert cache.get_json("cycles", key) is None
        obs.disable()
        assert c.counter("cache.quarantined") == 1

    def test_serve_job_counter_names(self, tmp_path):
        from repro.serve.client import ServeClient
        from repro.serve.server import ReproServer
        from repro.session.lifecycle import SessionManager

        c = obs.enable()
        server = ReproServer(SessionManager(no_cache=True), port=0,
                             workers=1, queue_size=4, idle_reap_s=0)
        server.start()
        try:
            client = ServeClient(server.url)
            client.run("workloads", [], timeout=30.0)
            client.submit("workloads", [], reuse=True)
        finally:
            server.stop()
        obs.disable()
        assert c.counter("serve.request") == 2
        assert c.counter("serve.job.done") == 1
        assert c.counter("serve.job.coalesced") == 1
        assert c.counter("session.open") == 1
        assert c.counter("session.close") == 1


class TestProfilerInstrumentation:
    def test_profiler_spans_and_fragment_counters(self, small_gzip_trace):
        c = obs.enable()
        profile_trace(small_gzip_trace, fragments=3, seed=0)
        obs.disable()
        names = set(c.span_names())
        assert {"profiler.collect", "profiler.reconstruct",
                "profiler.analyze"} <= names
        assert c.counter("profiler.fragment.built") >= 3
        by_name = {s[0]: s[4] for s in c.spans}
        assert by_name["profiler.reconstruct"]["built"] == 3
        assert by_name["profiler.collect"]["signatures"] >= 1
