"""The synthetic workload suite: determinism, shape and registry."""

import sys
import threading

import pytest

from repro.uarch import simulate
from repro.workloads import WORKLOAD_NAMES, TABLE4BC_NAMES, get_workload, get_program
from repro.workloads import registry
from repro.workloads.registry import get_workload_object

SCALE = 0.25  # keep suite-wide sweeps fast


class TestRegistry:
    def test_twelve_workloads(self):
        assert len(WORKLOAD_NAMES) == 12
        assert set(TABLE4BC_NAMES) <= set(WORKLOAD_NAMES)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("specfp")

    def test_program_matches_trace(self):
        trace = get_workload("gzip", scale=SCALE)
        program = get_program("gzip", scale=SCALE)
        assert trace.program.listing() == program.listing()

    def test_descriptions(self):
        from repro.workloads import workload_description

        for name in WORKLOAD_NAMES:
            assert len(workload_description(name)) > 10


class TestDeterminism:
    @pytest.mark.parametrize("name", ["gzip", "mcf", "eon"])
    def test_same_seed_same_trace(self, name):
        a = get_workload_object(name, scale=SCALE, seed=3).trace()
        b = get_workload_object(name, scale=SCALE, seed=3).trace()
        assert len(a) == len(b)
        assert all(x.pc == y.pc for x, y in zip(a, b))
        assert all(x.mem_addr == y.mem_addr for x, y in zip(a, b))

    def test_different_seed_different_data(self):
        a = get_workload_object("twolf", scale=SCALE, seed=0)
        b = get_workload_object("twolf", scale=SCALE, seed=1)
        assert a.memory != b.memory
        assert a.memory == get_workload_object("twolf", scale=SCALE,
                                               seed=0).memory


class TestScaling:
    def test_scale_changes_length_roughly_linearly(self):
        short = get_workload("vpr", scale=0.2)
        long = get_workload("vpr", scale=0.4)
        assert 1.5 < len(long) / len(short) < 2.5


class TestBehaviouralShape:
    """Each workload must exhibit the event mix its namesake stands for."""

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_runs_and_commits(self, name):
        trace = get_workload(name, scale=SCALE)
        result = simulate(trace)
        assert result.cycles > 0
        assert 0.2 < result.cpi < 60

    def test_mcf_is_miss_dominated(self):
        result = simulate(get_workload("mcf", scale=SCALE))
        counts = result.event_counts()
        assert counts["l1d_misses"] / len(result.events) > 0.15
        assert counts["dtlb_misses"] > 0

    def test_vortex_has_few_mispredicts(self):
        result = simulate(get_workload("vortex", scale=SCALE))
        assert result.stats["mispredict_rate"] < 0.05

    def test_perl_mispredicts_heavily(self):
        result = simulate(get_workload("perl", scale=SCALE))
        assert result.stats["mispredict_rate"] > 0.15

    def test_eon_misses_instruction_cache(self):
        result = simulate(get_workload("eon"))
        assert result.event_counts()["l1i_misses"] > 20

    def test_gzip_data_fits_caches(self):
        result = simulate(get_workload("gzip", scale=SCALE))
        assert result.stats["l1d_miss_rate"] < 0.15


class TestSyntheticGenerator:
    def test_random_program_runs(self):
        from repro.workloads import random_program

        wl = random_program(seed=11, body_insts=30, iterations=10)
        trace = wl.trace()
        assert len(trace) > 100
        result = simulate(trace)
        assert result.cycles > 0

    def test_random_program_deterministic(self):
        from repro.workloads import random_program

        a = random_program(seed=5).trace()
        b = random_program(seed=5).trace()
        assert len(a) == len(b)
        assert all(x.pc == y.pc for x, y in zip(a, b))

    def test_fraction_validation(self):
        from repro.workloads import random_program

        with pytest.raises(ValueError):
            random_program(seed=1, load_frac=0.5, store_frac=0.4,
                           branch_frac=0.3)


class TestTraceCache:
    @pytest.fixture()
    def small_cache(self, monkeypatch):
        cache = registry._TraceCache(4_000)
        monkeypatch.setattr(registry, "_TRACES", cache)
        return cache

    def test_budget_holds_and_newest_stays(self, small_cache):
        for seed in range(6):
            trace = get_workload("gzip", scale=0.2, seed=1000 + seed)
            assert small_cache.insts <= small_cache.max_insts
            assert small_cache.lookup(("gzip", 0.2, 1000 + seed)) is trace
        assert small_cache.lookup(("gzip", 0.2, 1000)) is None

    def test_oversized_trace_still_cached(self, small_cache):
        small_cache.max_insts = 10
        trace = get_workload("gzip", scale=0.2, seed=2000)
        assert small_cache.lookup(("gzip", 0.2, 2000)) is trace
        get_workload("gzip", scale=0.2, seed=2001)
        assert small_cache.lookup(("gzip", 0.2, 2000)) is None

    def test_hit_refreshes_recency(self, small_cache):
        a = get_workload("gzip", scale=0.2, seed=3000)
        small_cache.max_insts = 2 * len(a.insts) + 10
        get_workload("gzip", scale=0.2, seed=3001)
        assert get_workload("gzip", scale=0.2, seed=3000) is a
        get_workload("gzip", scale=0.2, seed=3002)
        assert small_cache.lookup(("gzip", 0.2, 3000)) is a
        assert small_cache.lookup(("gzip", 0.2, 3001)) is None

    def test_threads_sharing_keys(self, small_cache):
        """Two threads per key, more threads than cores, a short switch
        interval: every caller gets the oracle trace and the cache's
        instruction total stays exact."""
        from tests.test_trace_golden import trace_digest
        seeds = range(4000, 4004)
        oracle = {s: trace_digest(get_workload_object("gzip", 0.2, s).trace())
                  for s in seeds}
        jobs = [s for s in seeds for _ in range(2)]
        barrier = threading.Barrier(len(jobs))
        got = {}

        def ask(i, seed):
            barrier.wait()
            got[i] = trace_digest(get_workload("gzip", scale=0.2, seed=seed))

        threads = [threading.Thread(target=ask, args=job)
                   for job in enumerate(jobs)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {i: oracle[s] for i, s in enumerate(jobs)}
        cached = small_cache._traces.values()
        assert small_cache.insts == sum(len(t.insts) for t in cached)
        assert small_cache.insts <= small_cache.max_insts

    def test_suite_fits_the_budget(self):
        total = sum(len(get_workload(n).insts) for n in WORKLOAD_NAMES)
        assert total <= registry.TRACE_CACHE_INSTS == 1 << 17
