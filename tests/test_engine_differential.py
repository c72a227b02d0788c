"""Differential harness: every cost engine vs the naive oracle.

The batched/incremental engine of :mod:`repro.graph.engine`
promises *bit-identical* results to the naive pure-Python
``longest_path`` sweep -- not approximately equal, identical.  This
suite enforces the promise over hypothesis-generated random programs
and the registered workload suite, for every target set in a
three-category power set, through every engine configuration
(C kernel, pure-Python fallback, forced worklist incremental).
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.categories import Category, EventSelection
from repro.graph import GraphCostAnalyzer, build_graph
from repro.graph.engine import (
    DEFAULT_ENGINE,
    ENGINE_NAMES,
    BatchedEngine,
    make_engine,
)
from repro.uarch import simulate
from repro.workloads import WORKLOAD_NAMES, get_workload
from repro.workloads.synthetic import random_program

SLOW = settings(max_examples=10, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: The three categories whose power set every engine must reproduce.
CATS = (Category.DMISS, Category.WIN, Category.BMISP)
POWER_SET = [frozenset(combo)
             for size in range(1, len(CATS) + 1)
             for combo in combinations(CATS, size)]


def _forced_worklist(graph, idealizer):
    """A batched engine that may never fall back to the full sweep."""
    engine = BatchedEngine(graph, idealizer,
                           incremental_max_edges=1 << 30)
    engine._worklist_budget = 1 << 30
    return engine


#: Every engine configuration under test, vs the naive oracle.
ENGINE_FACTORIES = {
    "batched": BatchedEngine,
    "batched-pure-python": lambda g, i: BatchedEngine(g, i, native=False),
    "batched-worklist": _forced_worklist,
}


def small_graph(seed, body_insts=20, iterations=6):
    trace = random_program(seed=seed, body_insts=body_insts,
                           iterations=iterations).trace()
    return build_graph(simulate(trace))


def assert_engines_match_oracle(graph, target_sets, factories=ENGINE_FACTORIES):
    oracle = GraphCostAnalyzer(graph, engine="naive")
    expected = {key: (oracle.cp_length(key), oracle.cost(key))
                for key in target_sets}
    for name, factory in factories.items():
        analyzer = GraphCostAnalyzer(graph, engine=factory)
        try:
            analyzer.prefetch(target_sets)  # batch path (pool fan-out)
            for key in target_sets:
                assert analyzer.cp_length(key) == expected[key][0], \
                    f"{name}: cp_length mismatch for {sorted(map(str, key))}"
                assert analyzer.cost(key) == expected[key][1], \
                    f"{name}: cost mismatch for {sorted(map(str, key))}"
            assert analyzer.base_length == oracle.base_length, name
        finally:
            analyzer.close()


class TestRandomPrograms:
    @SLOW
    @given(seed=st.integers(0, 400))
    def test_category_power_set_bit_identical(self, seed):
        """cp_length and cost(S) for all 7 subsets, every engine."""
        graph = small_graph(seed)
        assert_engines_match_oracle(graph, POWER_SET)

    @SLOW
    @given(seed=st.integers(0, 400),
           insts=st.tuples(st.integers(0, 30), st.integers(31, 60),
                           st.integers(61, 90)))
    def test_selection_power_set_bit_identical(self, seed, insts):
        """Per-instruction selections drive the incremental worklist."""
        graph = small_graph(seed, body_insts=16, iterations=6)
        groups = [
            EventSelection(Category.DMISS, frozenset([insts[0]])),
            EventSelection(Category.SHALU, frozenset([insts[1]])),
            EventSelection(Category.BMISP, frozenset([insts[2]])),
        ]
        target_sets = [frozenset(combo)
                       for size in range(1, 4)
                       for combo in combinations(groups, size)]
        assert_engines_match_oracle(graph, target_sets)

    @SLOW
    @given(seed=st.integers(0, 400))
    def test_sequential_queries_match_prefetched(self, seed):
        """One-at-a-time measurement equals the batched prefetch path."""
        graph = small_graph(seed)
        oracle = GraphCostAnalyzer(graph, engine="naive")
        analyzer = GraphCostAnalyzer(graph, engine="batched")
        # deliberately query largest-first: parents are never available,
        # so every delta is taken against the baseline state
        for key in sorted(POWER_SET, key=len, reverse=True):
            assert analyzer.cp_length(key) == oracle.cp_length(key)


class TestStateMemory:
    """The batched engine's retained states are sparse and byte-bounded."""

    def test_dl1_breakdown_retains_lean_states_within_the_budget(self):
        from repro.core import interaction_breakdown

        graph = build_graph(simulate(get_workload("gcc", scale=0.5)))
        engine = BatchedEngine(graph)
        measured, retained = [], []
        remember = engine._remember

        def tracking(state):
            remember(state)
            measured.append(state)
            retained.append(engine._state_bytes)

        engine._remember = tracking
        interaction_breakdown(GraphCostAnalyzer(graph, engine=engine),
                              focus=Category.DL1, workload="gcc")
        assert engine.max_state_bytes \
            == BatchedEngine.STATE_DISTS * 8 * graph.num_nodes
        assert len(measured) >= 8  # every single and pair was measured
        assert max(retained) <= engine.max_state_bytes
        assert len(engine._states) >= 3  # the baseline + at least two
        delta_bytes = sum(s.idx.nbytes + s.val.nbytes for s in measured)
        dense_lat_bytes = 8 * graph.num_edges
        assert delta_bytes < 0.25 * len(measured) * dense_lat_bytes
        # the idealizer's per-category deltas are sparse too
        deltas = engine.idealizer._cat_delta.values()
        assert sum(e.nbytes + v.nbytes for e, v in deltas) \
            < 0.25 * len(deltas) * dense_lat_bytes

    def test_a_breakdown_releases_its_engine_without_the_cyclic_gc(self):
        """A daemon allocates too few python objects to run the cyclic
        collector often, so an engine kept alive by a reference cycle
        holds its arrays across requests."""
        import gc
        import weakref

        from repro.analysis.graphsim import analyze_trace
        from repro.core import interaction_breakdown

        trace = random_program(seed=3, body_insts=20, iterations=6).trace()
        gc.disable()
        try:
            provider = analyze_trace(trace)
            engine = weakref.ref(provider.analyzer.engine)
            interaction_breakdown(provider, focus=Category.DMISS)
            del provider
            assert engine() is None
        finally:
            gc.enable()

    def test_pure_python_sweep_pins_no_edge_list_on_the_graph(self):
        """The fallback's python edge lists belong to the engine: the
        array-backed graph, shared by every engine over it, never gains
        an ``edge_src`` list, and ``close()`` frees the engine's."""
        result = simulate(get_workload("gzip", scale=0.2))
        graph = build_graph(result)
        assert "edge_src" not in graph.__dict__  # array-backed
        engine = BatchedEngine(graph, native=False)  # sweeps the base
        # the naive oracle walks the python lists: give it its own graph
        oracle = GraphCostAnalyzer(build_graph(result), engine="naive")
        for key in POWER_SET:
            assert engine.cp_length(key) == oracle.cp_length(key)
        assert "edge_src" not in graph.__dict__
        engine.close()
        assert engine._src_list is None and engine._dst_list is None


class TestRegisteredWorkloads:
    """The whole suite, engine vs oracle (scaled down for CI speed)."""

    def test_one_workload_fast_tier(self):
        graph = build_graph(simulate(get_workload("gzip", scale=0.3)))
        assert_engines_match_oracle(graph, POWER_SET)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_every_workload_bit_identical(self, name):
        graph = build_graph(simulate(get_workload(name, scale=0.5)))
        assert_engines_match_oracle(graph, POWER_SET)


class TestEngineMachinery:
    def test_make_engine_names_and_errors(self):
        graph = small_graph(0)
        for name in ENGINE_NAMES:
            engine = make_engine(name, graph)
            assert engine.name == name
            engine.close()
        assert DEFAULT_ENGINE == "batched"
        assert ENGINE_NAMES == ("naive", "batched")
        assert isinstance(make_engine(None, graph), BatchedEngine)
        with pytest.raises(ValueError):
            make_engine("warp-drive", graph)

    def test_engine_instance_passthrough(self):
        graph = small_graph(1)
        engine = BatchedEngine(graph)
        analyzer = GraphCostAnalyzer(graph, engine=engine)
        assert analyzer.engine is engine
        assert analyzer.engine.name == "batched"

    def test_empty_graph_all_engines(self):
        from repro.graph.model import DependenceGraph

        graph = DependenceGraph(0)
        graph.finalize()
        for name in ENGINE_NAMES:
            analyzer = GraphCostAnalyzer(graph, engine=name)
            assert analyzer.base_length == 0
            assert analyzer.cp_length(POWER_SET[0]) == 0
            analyzer.close()

    def test_state_eviction_stays_correct(self):
        """A tiny state budget forces re-measurement; results must hold."""
        graph = small_graph(2)
        oracle = GraphCostAnalyzer(graph, engine="naive")
        for dists in (0, 2):  # nothing retained; at most two states
            engine = BatchedEngine(graph,
                                   max_state_bytes=dists * 8 * graph.num_nodes)
            for key in POWER_SET + list(reversed(POWER_SET)):
                assert engine.cp_length(key) == oracle.cp_length(key)
                assert engine._state_bytes <= engine.max_state_bytes
            assert len(engine._states) <= dists + 1  # + the baseline
            assert engine.cp_length(frozenset()) == oracle.base_length

    def test_prefetch_is_pure_optimization(self):
        graph = small_graph(3)
        plain = GraphCostAnalyzer(graph, engine="batched")
        warmed = GraphCostAnalyzer(graph, engine="batched")
        warmed.prefetch(POWER_SET)
        assert warmed.measurements == len(POWER_SET) + 1  # + baseline
        for key in POWER_SET:
            assert plain.cp_length(key) == warmed.cp_length(key)
