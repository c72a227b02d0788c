"""The lazy event facade over the columnar plane is a perfect stand-in.

Two contracts of docs/ARCHITECTURE.md ("Columnar data plane"):

- **Facade equivalence**: the fast core's ``SimResult.events`` -- a
  :class:`~repro.uarch.events.LazyEvents` view over the event matrix
  -- must be indistinguishable from the reference core's eager
  ``InstEvents`` list under every access pattern (indexing, negative
  indexing, slicing, iteration, equality, pickling, ``event_counts``),
  pinned over a fuzz grid of seeded stress programs x machines.
- **Columnar emit differential**: ``emit_edge_arrays`` consuming the
  matrix directly (whole run or truncating window) must produce
  bit-identical graphs to the object-path fallback fed materialized
  ``InstEvents`` lists, across WindowedRun border cases.

The ``sim.events_materialized`` accounting is pinned here too: only
deliberate per-object access pays it, and the hot path never does
(``tests/test_pipeline.py`` + the CI smoke gate cover the pipeline
end of the same invariant).
"""

import dataclasses
import pickle

import pytest

np = pytest.importorskip("numpy")

import repro.obs as obs
from repro.analysis.sampled import WindowedRun
from repro.graph.builder import (
    GraphBuilder,
    build_window_graph,
    emit_edge_arrays,
    graph_from_arrays,
)
from repro.uarch import core
from repro.uarch.config import MachineConfig
from repro.uarch.events import EventColumns, LazyEvents
from repro.uarch.fastcore import simulate
from repro.workloads import get_workload
from repro.workloads.synthetic import fuzz_program

from tests.test_graph_builder_vectorized import assert_graphs_identical

#: seeds x machines for the facade grid; small because every point
#: compares full event streams three ways (the sim differential suite
#: already sweeps the timing grid at full budget)
SEEDS = range(4)
MACHINES = [
    MachineConfig(),
    MachineConfig(dl1_latency=4, window_size=16, issue_width=2,
                  mshr_entries=2, mem_ports=1),
]


@pytest.fixture(scope="module", params=list(SEEDS))
def pair(request):
    """(reference eager result, fast columnar result) per fuzz seed."""
    trace = fuzz_program(request.param).trace()
    config = MACHINES[request.param % len(MACHINES)]
    ref = core.simulate(trace, config=config)
    fast = simulate(trace, config=config, engine="fast")
    assert isinstance(fast.events, LazyEvents)
    assert isinstance(ref.events, list)
    return ref, fast


class TestFacadeEquivalence:
    def test_len_and_bool(self, pair):
        ref, fast = pair
        assert len(fast.events) == len(ref.events)
        assert bool(fast.events) == bool(ref.events)

    def test_indexing_matches_field_for_field(self, pair):
        ref, fast = pair
        n = len(ref.events)
        probes = sorted({0, 1, n // 3, n // 2, n - 1, -1, -n})
        for i in probes:
            a, b = ref.events[i], fast.events[i]
            assert a == b, f"index {i}"
            # materialized fields are plain Python ints/bools, never
            # numpy scalars -- persist.py serializes them verbatim
            for f in dataclasses.fields(b):
                value = getattr(b, f.name)
                assert type(value) in (int, bool), (i, f.name, type(value))

    def test_iteration_matches(self, pair):
        ref, fast = pair
        assert list(fast.events) == ref.events

    def test_slicing_matches(self, pair):
        ref, fast = pair
        n = len(ref.events)
        for sl in (slice(0, n), slice(0, 5), slice(5, 17),
                   slice(n // 3, n // 2), slice(n - 7, n + 100),
                   slice(None, None, 2), slice(n, 0, -1)):
            assert list(fast.events[sl]) == ref.events[sl], sl

    def test_step1_slices_stay_lazy_with_absolute_offsets(self, pair):
        _, fast = pair
        n = len(fast.events)
        window = fast.events[5:n // 2]
        assert isinstance(window, LazyEvents)
        assert window.offset == 5
        nested = window[3:7]
        assert isinstance(nested, LazyEvents)
        assert nested.offset == 8  # absolute in the root matrix
        assert nested[0] == fast.events[8]

    def test_event_counts_match(self, pair):
        ref, fast = pair
        assert fast.event_counts() == ref.event_counts()

    def test_stats_and_cycles_match(self, pair):
        ref, fast = pair
        assert fast.cycles == ref.cycles
        assert fast.stats == ref.stats

    def test_pickle_round_trip(self, pair):
        ref, fast = pair
        clone = pickle.loads(pickle.dumps(fast.events))
        assert isinstance(clone, LazyEvents)
        assert len(clone) == len(ref.events)
        assert clone[0] == ref.events[0]
        window = pickle.loads(pickle.dumps(fast.events[5:9]))
        assert window.offset == 5
        assert list(window) == ref.events[5:9]

    def test_columns_round_trip_through_objects(self, pair):
        ref, _ = pair
        rebuilt = EventColumns.from_events(ref.events).to_events()
        assert rebuilt == ref.events


class TestMaterializationAccounting:
    """Only deliberate per-object access bills the counter."""

    @pytest.fixture()
    def lazy(self):
        trace = fuzz_program(0).trace()
        return simulate(trace, config=MachineConfig(), engine="fast").events

    def _counted(self, fn):
        collector = obs.enable()
        try:
            fn()
        finally:
            obs.disable()
        return collector.counter("sim.events_materialized")

    def test_indexing_bills_one(self, lazy):
        assert self._counted(lambda: lazy[3]) == 1

    def test_iteration_bills_n(self, lazy):
        assert self._counted(lambda: list(lazy)) == len(lazy)

    def test_step1_slicing_bills_nothing(self, lazy):
        assert self._counted(lambda: (lazy[2:40], len(lazy), bool(lazy))) == 0


class TestWindowedEmitDifferential:
    """Columnar vs object emit over WindowedRun border cases."""

    @pytest.fixture(scope="class", params=["gzip", "twolf"])
    def run(self, request):
        trace = get_workload(request.param, scale=0.5)
        return simulate(trace, MachineConfig(dl1_latency=4), engine="fast")

    def _border_spans(self, n):
        # truncation borders: whole run, first/last instruction,
        # one-instruction windows, a window running past the end
        return [(0, n), (0, 1), (n - 1, 1), (n - 1, 100),
                (1, n), (7, 1), (n // 3, n // 2)]

    def test_window_graphs_match_object_builder(self, run):
        n = len(run.events)
        loop = GraphBuilder(vectorized=False)
        for start, length in self._border_spans(n):
            fast = build_window_graph(run, start, length)
            ref = loop.build(WindowedRun(run, start, length))
            assert_graphs_identical(fast, ref), (start, length)

    def test_window_emit_columnar_vs_object(self, run):
        """The same emitter over the same windows, fed the LazyEvents
        facade + inst column block vs materialized ``InstEvents``."""
        n = len(run.events)
        eager = list(run.events)  # object path input, built once
        for start, length in self._border_spans(n):
            end = min(start + length, n)
            insts = run.trace.insts[start:end]
            columnar = emit_edge_arrays(insts, run.events[start:end],
                                        run.config, start=start,
                                        trace=run.trace)
            objects = emit_edge_arrays(insts, eager[start:end],
                                       run.config, start=start)
            assert_graphs_identical(
                graph_from_arrays(len(insts), *columnar),
                graph_from_arrays(len(insts), *objects)), (start, length)

    def test_window_emit_materializes_nothing(self, run):
        n = len(run.events)
        collector = obs.enable()
        try:
            build_window_graph(run, 1, n - 1)
        finally:
            obs.disable()
        assert collector.counter("sim.events_materialized") == 0
