"""Pipeline speedup: the staged exact path vs the serial reference one.

The tentpole performance claim of docs/PIPELINE.md: on gcc at scale
2.0, a *cold* end-to-end analysis (simulate -> build -> full
four-category power-set breakdown) through ``run_pipeline`` runs at
least 6x faster than the serial reference path (single-pass reference
build, naive engine), with identical rows.  (The floor was 2x before
the columnar event plane; the zero-materialization sim -> cache ->
graph path measures ~13x here, and 6x leaves room for noisy hosts.)

A warm-cache rerun must then skip the simulate and build stages
entirely -- asserted through the obs counters, not wall-clock, so the
test is robust on noisy hosts.

Run with ``pytest benchmarks/test_pipeline_speedup.py -s`` to see the
measured times.
"""

from __future__ import annotations

from time import perf_counter

import pytest

import repro.obs as obs
from repro.core import full_interaction_breakdown
from repro.core.categories import Category
from repro.graph import GraphCostAnalyzer
from repro.graph.builder import GraphBuilder
from repro.pipeline import PipelineOptions, run_pipeline
from repro.uarch import simulate
from repro.workloads import get_workload

CATS = [Category.DL1, Category.WIN, Category.BMISP, Category.DMISS]
ROUNDS = 3


@pytest.fixture(scope="module")
def gcc_trace():
    trace = get_workload("gcc", scale=2.0)
    assert len(trace.insts) >= 20_000, \
        "speedup claim is specified on a >= 20k-instruction trace"
    return trace


class _MonolithicProvider:
    """The serial reference path: simulate, single-pass reference
    build, naive power-set sweep -- with the simulator cycle count as
    the breakdown denominator, exactly like the plain CLI path."""

    def __init__(self, trace):
        self.result = simulate(trace)
        graph = GraphBuilder(vectorized=False).build(self.result)
        self._analyzer = GraphCostAnalyzer(graph, engine="naive")

    def cost(self, targets):
        return self._analyzer.cost(targets)

    def prefetch(self, target_sets):
        self._analyzer.prefetch(target_sets)

    @property
    def total(self):
        return float(self.result.cycles)

    def close(self):
        self._analyzer.close()


def monolithic_breakdown(trace):
    provider = _MonolithicProvider(trace)
    try:
        return full_interaction_breakdown(provider, CATS, workload="gcc")
    finally:
        provider.close()


def pipeline_breakdown(trace, cache_dir):
    provider = run_pipeline(trace, options=PipelineOptions(
        cache_dir=cache_dir))
    try:
        return full_interaction_breakdown(provider, CATS, workload="gcc")
    finally:
        provider.close()


def rows(bd):
    return [(e.label, e.cycles, e.percent) for e in bd.entries]


class TestPipelineSpeedup:
    def test_cold_2x_and_warm_skips_stages(self, gcc_trace, tmp_path, check):
        def experiment():
            base_times, pipe_times = [], []
            base_bd = pipe_bd = None
            for i in range(ROUNDS):
                t0 = perf_counter()
                base_bd = monolithic_breakdown(gcc_trace)
                base_times.append(perf_counter() - t0)
                cold_dir = str(tmp_path / f"cold-{i}")  # fresh = cold
                t0 = perf_counter()
                pipe_bd = pipeline_breakdown(gcc_trace, cold_dir)
                pipe_times.append(perf_counter() - t0)
            return min(base_times), min(pipe_times), base_bd, pipe_bd

        base_t, pipe_t, base_bd, pipe_bd = check(experiment)
        # identical first: a fast wrong answer is not a speedup
        assert rows(pipe_bd) == rows(base_bd)
        assert pipe_bd.total_cycles == base_bd.total_cycles
        speedup = base_t / pipe_t
        print(f"\ncold end-to-end on gcc scale=2.0 "
              f"({len(gcc_trace.insts)} insts): "
              f"monolithic {base_t:.3f}s  pipeline {pipe_t:.3f}s  "
              f"speedup {speedup:.1f}x")
        assert speedup >= 6.0, (
            f"pipeline only {speedup:.2f}x over the monolithic path "
            f"(monolithic {base_t:.3f}s, pipeline {pipe_t:.3f}s)")

        # warm rerun against the last round's cache: simulate and
        # build must both be skipped (graph artifact hit, zero windows
        # built), and the numbers must not move
        warm_dir = str(tmp_path / f"cold-{ROUNDS - 1}")
        collector = obs.enable()
        try:
            t0 = perf_counter()
            warm_bd = pipeline_breakdown(gcc_trace, warm_dir)
            warm_t = perf_counter() - t0
        finally:
            obs.disable()
        assert rows(warm_bd) == rows(base_bd)
        assert collector.counter("pipeline.cache.graph.hit") >= 1
        assert collector.counter("pipeline.window.built") == 0
        assert "pipeline.simulate" not in collector.span_names()
        print(f"warm rerun: {warm_t:.3f}s "
              f"(simulate and build skipped via cache)")
