"""The vectorized builder and window emission are bit-identical.

Two differentials against the reference ``GraphBuilder._build`` loop
(docs/PIPELINE.md "Stages"):

- monolithic: ``vectorized=True`` vs ``vectorized=False``;
- windowed: :func:`build_window_graph` vs the loop builder over a
  :class:`~repro.analysis.sampled.WindowedRun` (truncating borders).

"Bit-identical" means every edge array, the CSR, and the seed -- not
just the resulting costs.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.analysis.sampled import WindowedRun
from repro.graph.builder import (
    GraphBuilder,
    build_graph,
    build_window_graph,
)
from repro.uarch import MachineConfig, simulate
from repro.workloads import get_workload

WORKLOADS = ["gzip", "mcf", "twolf"]


def assert_graphs_identical(a, b):
    assert a.num_insts == b.num_insts
    assert a.csr_start == b.csr_start
    assert a.edge_src == b.edge_src
    assert a.edge_kind == b.edge_kind
    assert a.edge_lat == b.edge_lat
    assert a.edge_cat1 == b.edge_cat1
    assert a.edge_val1 == b.edge_val1
    assert a.edge_cat2 == b.edge_cat2
    assert a.edge_val2 == b.edge_val2
    assert (a.seed_lat, a.seed_cat, a.seed_val) == \
        (b.seed_lat, b.seed_cat, b.seed_val)


@pytest.fixture(scope="module", params=WORKLOADS)
def run(request):
    trace = get_workload(request.param, scale=0.5)
    return simulate(trace, MachineConfig(dl1_latency=4))


class TestMonolithic:
    def test_vectorized_matches_loop(self, run):
        fast = GraphBuilder(vectorized=True).build(run)
        loop = GraphBuilder(vectorized=False).build(run)
        assert_graphs_identical(fast, loop)

    def test_no_taken_branch_breaks(self, run):
        fast = GraphBuilder(model_taken_branch_breaks=False,
                            vectorized=True).build(run)
        loop = GraphBuilder(model_taken_branch_breaks=False,
                            vectorized=False).build(run)
        assert_graphs_identical(fast, loop)

    def test_build_graph_defaults_to_vectorized(self, run):
        assert_graphs_identical(build_graph(run),
                                GraphBuilder(vectorized=False).build(run))


class TestWindowed:
    def _spans(self, n):
        return [(0, n), (0, 5), (5, 17), (n // 3, n // 2),
                (max(0, n - 7), 100)]

    def test_window_matches_windowed_run(self, run):
        n = len(run.events)
        loop = GraphBuilder(vectorized=False)
        for start, length in self._spans(n):
            fast = build_window_graph(run, start, length)
            ref = loop.build(WindowedRun(run, start, length))
            assert_graphs_identical(fast, ref)

