"""Cost-engine speedup: batched vs naive on a large trace.

The tentpole performance claim: a full four-category interaction
breakdown (15 power-set measurements + the baseline) over a
>= 20k-instruction trace runs at least 3x faster through the batched
engine than through the naive reference sweep, with *identical*
results.  Timings use best-of-three minima on both sides -- the
fairest comparison on a noisy shared host.

Run with ``pytest benchmarks/test_engine_speedup.py -s`` to see the
measured times.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.core import full_interaction_breakdown
from repro.core.categories import Category
from repro.uarch import simulate
from repro.workloads import get_workload

#: The four base categories of the Table 4a-style breakdown.
CATS = [Category.DL1, Category.WIN, Category.BMISP, Category.DMISS]

#: 2^4 - 1 power-set rows, measured per engine.
ROUNDS = 3


@pytest.fixture(scope="module")
def sim_result():
    result = simulate(get_workload("gcc", scale=2.0))
    assert len(result.events) >= 20_000, \
        "speedup claim is specified on a >= 20k-instruction trace"
    return result


@pytest.fixture(scope="module")
def graph(sim_result):
    from repro.graph import build_graph

    return build_graph(sim_result)


def breakdown_with(graph, engine):
    """Fresh analyzer (so nothing is cached between rounds), full
    power-set breakdown.  The graph build is shared setup, outside the
    timed region -- it is identical for every engine."""
    from repro.graph import GraphCostAnalyzer

    analyzer = GraphCostAnalyzer(graph, engine=engine)
    try:
        return full_interaction_breakdown(analyzer, CATS, workload="gcc")
    finally:
        analyzer.close()


def best_of(fn, rounds=ROUNDS):
    """(min seconds, last value) over *rounds* fresh runs."""
    times, value = [], None
    for _ in range(rounds):
        t0 = perf_counter()
        value = fn()
        times.append(perf_counter() - t0)
    return min(times), value


def rows(bd):
    return [(e.label, e.cycles, e.percent) for e in bd.entries]


class TestEngineSpeedup:
    def test_batched_3x_naive_identical_results(self, sim_result, graph, check):
        def experiment():
            naive_t, naive_bd = best_of(
                lambda: breakdown_with(graph, "naive"))
            batched_t, batched_bd = best_of(
                lambda: breakdown_with(graph, "batched"))
            return naive_t, batched_t, naive_bd, batched_bd

        naive_t, batched_t, naive_bd, batched_bd = check(experiment)
        # identical first: a fast wrong answer is not a speedup
        assert rows(batched_bd) == rows(naive_bd)
        assert batched_bd.total_cycles == naive_bd.total_cycles
        speedup = naive_t / batched_t
        print(f"\nfull 4-category breakdown on gcc scale=2.0 "
              f"({len(sim_result.events)} insts): "
              f"naive {naive_t:.3f}s  batched {batched_t:.3f}s  "
              f"speedup {speedup:.1f}x")
        assert speedup >= 3.0, (
            f"batched engine only {speedup:.2f}x over naive "
            f"(naive {naive_t:.3f}s, batched {batched_t:.3f}s)")

    def test_pure_python_fallback_also_wins(self, graph, check):
        """Without the C kernel the batched engine must still beat the
        naive sweep (vectorised idealization + flat kernel + reuse)."""
        from repro.graph.engine import BatchedEngine

        def experiment():
            naive_t, naive_bd = best_of(
                lambda: breakdown_with(graph, "naive"))
            pure_t, pure_bd = best_of(
                lambda: breakdown_with(
                    graph,
                    lambda g, i: BatchedEngine(g, i, native=False)))
            return naive_t, pure_t, naive_bd, pure_bd

        naive_t, pure_t, naive_bd, pure_bd = check(experiment)
        assert rows(pure_bd) == rows(naive_bd)
        print(f"\npure-python batched: naive {naive_t:.3f}s  "
              f"fallback {pure_t:.3f}s  ({naive_t / pure_t:.1f}x)")
        assert pure_t < naive_t
