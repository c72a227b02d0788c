"""The AnalysisSession core: memoised simulation, sweeps, caching.

Covers the refactor's acceptance criteria: sweeps never re-simulate an
identical (trace, config, idealization) point (asserted via the
``session.*`` obs counters), a warm artifact cache makes repeat
sensitivity runs issue zero simulator calls, and session-driven
analyses are bit-identical to hand-wired simulate/build calls.
"""

import dataclasses

import pytest

from repro import obs
from repro.analysis.doe import Factor, full_factorial, plackett_burman_fraction
from repro.analysis.graphsim import GraphCostProvider
from repro.analysis.multisim import MultiSimCostProvider
from repro.analysis.sensitivity import sweep_cycles, window_speedup_curves
from repro.core.breakdown import interaction_breakdown
from repro.core.categories import Category
from repro.graph.slack import top_critical_instructions
from repro.session import AnalysisSession, RunConfig
from repro.uarch import IdealConfig, MachineConfig, simulate
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture(scope="module")
def gzip_trace():
    return get_workload("gzip", scale=0.2, seed=0)


def _counters(c):
    return {name: c.counter(name) for name in
            ("session.simulate", "session.simulate.memo_hit",
             "session.simulate.cache_hit", "session.cycles.memo_hit",
             "session.cycles.cache_hit", "session.sweep.dedup")}


class TestMemoisedSimulation:
    def test_identical_requests_simulate_once(self, gzip_trace):
        session = AnalysisSession.for_trace(gzip_trace)
        c = obs.enable()
        first = session.simulate()
        second = session.simulate()
        obs.disable()
        assert first is second
        assert c.counter("session.simulate") == 1
        assert c.counter("session.simulate.memo_hit") == 1

    def test_cycles_reuses_simulate_memo(self, gzip_trace):
        session = AnalysisSession.for_trace(gzip_trace)
        result = session.simulate()
        c = obs.enable()
        assert session.cycles() == result.cycles
        obs.disable()
        assert c.counter("session.simulate") == 0
        assert c.counter("session.cycles.memo_hit") == 1

    def test_idealized_points_are_distinct(self, gzip_trace):
        session = AnalysisSession.for_trace(gzip_trace)
        base = session.cycles()
        ideal = session.cycles(ideal={Category.DL1})
        assert ideal <= base

    def test_requires_trace_or_workload(self):
        with pytest.raises(ValueError):
            AnalysisSession(RunConfig()).trace

    def test_resolves_workload_names(self):
        session = AnalysisSession(RunConfig(workload="gzip", scale=0.2))
        assert session.trace.name == "gzip"


class TestSimulateCounterFaithful:
    """``session.simulate`` counts real simulator invocations, exactly.

    Emission lives in one place (``AnalysisSession._run_simulator``; the
    batched-sweep and pool paths bulk-counting on behalf of the runs
    they batch away are the documented exceptions), so ``--metrics``
    counts each invocation once regardless of which public method
    triggered it or in what order.
    """

    @pytest.fixture
    def counting_simulate(self, monkeypatch):
        import repro.session.session as session_mod

        real = session_mod._simulate
        real_many = session_mod._cycles_many
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        def counted_many(trace, points, **kwargs):
            # the batched sweep entry runs one simulation per point
            calls.extend([1] * len(points))
            return real_many(trace, points, **kwargs)

        monkeypatch.setattr(session_mod, "_simulate", counted)
        monkeypatch.setattr(session_mod, "_cycles_many", counted_many)
        return calls

    def _assert_faithful(self, c, calls):
        assert c.counter("session.simulate") == len(calls) > 0

    def test_simulate_then_cycles(self, gzip_trace, counting_simulate):
        session = AnalysisSession.for_trace(gzip_trace)
        c = obs.enable()
        session.simulate()
        session.cycles()  # served by the simulate memo: no new run
        obs.disable()
        assert len(counting_simulate) == 1
        self._assert_faithful(c, counting_simulate)

    def test_cycles_then_simulate(self, gzip_trace, counting_simulate):
        """The reverse order really simulates twice (the cycles-only
        memo keeps no SimResult) -- and the counter says so."""
        session = AnalysisSession.for_trace(gzip_trace)
        c = obs.enable()
        session.cycles()
        session.simulate()
        obs.disable()
        assert len(counting_simulate) == 2
        self._assert_faithful(c, counting_simulate)

    def test_sweep_with_duplicates(self, gzip_trace, counting_simulate):
        session = AnalysisSession.for_trace(gzip_trace)
        base = session.machine
        points = [base, (base, frozenset({Category.DL1})),
                  base, (base, frozenset({Category.DL1}))]
        c = obs.enable()
        session.sweep(points, jobs=1)
        obs.disable()
        assert len(counting_simulate) == 2  # duplicates deduplicated
        self._assert_faithful(c, counting_simulate)

    def test_mixed_entry_points(self, gzip_trace, counting_simulate):
        session = AnalysisSession.for_trace(gzip_trace)
        c = obs.enable()
        session.cycles()                            # 1st run
        session.sweep([session.machine,
                       (session.machine, frozenset({Category.DL1}))],
                      jobs=1)                       # 2nd run (base deduped)
        session.simulate()                          # 3rd run
        session.simulate()                          # memo hit
        obs.disable()
        self._assert_faithful(c, counting_simulate)


class TestSweepDeduplication:
    def test_duplicate_points_cost_one_simulation(self, gzip_trace):
        session = AnalysisSession.for_trace(gzip_trace)
        a = MachineConfig()
        b = MachineConfig(dl1_latency=4)
        c = obs.enable()
        cycles = session.sweep([a, b, a, a, b])
        obs.disable()
        assert c.counter("session.simulate") == 2
        assert c.counter("session.sweep.dedup") == 3
        assert cycles[0] == cycles[2] == cycles[3]
        assert cycles[1] == cycles[4]

    def test_sensitivity_sweep_dedupes_repeats(self, gzip_trace):
        """Regression: sweeps re-simulated identical (trace, config)
        pairs; the session must collapse them to one run each."""
        configs = [MachineConfig(window_size=64),
                   MachineConfig(window_size=80),
                   MachineConfig(window_size=64)]  # repeated point
        session = AnalysisSession.for_trace(gzip_trace)
        c = obs.enable()
        cycles = sweep_cycles(gzip_trace, configs, session=session)
        obs.disable()
        assert c.counter("session.simulate") == 2
        assert cycles[0] == cycles[2]
        # a second identical sweep through the same session is free
        c = obs.enable()
        again = sweep_cycles(gzip_trace, configs, session=session)
        obs.disable()
        assert c.counter("session.simulate") == 0
        assert again == cycles

    def test_doe_designs_share_sweep_points(self, gzip_trace):
        """Regression: the Plackett-Burman fraction re-ran corner
        configurations the full factorial had already simulated."""
        factors = [Factor("dl1", "dl1_latency", 1, 4),
                   Factor("win", "window_size", 128, 64),
                   Factor("bmisp", "mispredict_recovery", 3, 15)]
        session = AnalysisSession.for_trace(gzip_trace)
        c = obs.enable()
        full = full_factorial(gzip_trace, factors, session=session)
        obs.disable()
        assert c.counter("session.simulate") == 8
        assert full.simulations() == 8
        c = obs.enable()
        fraction = plackett_burman_fraction(gzip_trace, factors,
                                            session=session)
        obs.disable()
        # every half-fraction corner was already simulated above
        assert c.counter("session.simulate") == 0
        assert set(fraction) == {f.name for f in factors}

    def test_multisim_shares_the_session_cycle_memo(self, gzip_trace):
        session = AnalysisSession.for_trace(gzip_trace)
        provider = MultiSimCostProvider(gzip_trace, session=session)
        key = frozenset({Category.DL1, Category.BMISP})
        first = provider.cycles_with(key)
        c = obs.enable()
        # unordered duplicate of the same idealization set
        second = provider.cycles_with(frozenset({Category.BMISP,
                                                 Category.DL1}))
        obs.disable()
        assert first == second
        assert c.counter("session.simulate") == 0


class TestWarmCache:
    def test_sensitivity_warm_cache_issues_zero_simulates(self, gzip_trace,
                                                          tmp_path):
        """Acceptance: re-running a sweep against a warm cache directory
        must not invoke the simulator at all."""
        latencies = [1, 2]
        windows = [64, 80]
        cold = AnalysisSession.for_trace(gzip_trace,
                                         cache_dir=str(tmp_path))
        c = obs.enable()
        before = window_speedup_curves(gzip_trace, latencies, windows,
                                       session=cold)
        obs.disable()
        assert c.counter("session.simulate") > 0
        warm = AnalysisSession.for_trace(gzip_trace,
                                         cache_dir=str(tmp_path))
        c = obs.enable()
        after = window_speedup_curves(gzip_trace, latencies, windows,
                                      session=warm)
        obs.disable()
        assert c.counter("session.simulate") == 0
        assert c.counter("session.cycles.cache_hit") > 0
        assert after == before

    def test_simulate_served_from_disk_across_sessions(self, gzip_trace,
                                                       tmp_path):
        first = AnalysisSession.for_trace(gzip_trace,
                                          cache_dir=str(tmp_path))
        result = first.simulate()
        second = AnalysisSession.for_trace(gzip_trace,
                                           cache_dir=str(tmp_path))
        c = obs.enable()
        reloaded = second.simulate()
        obs.disable()
        assert c.counter("session.simulate") == 0
        assert c.counter("session.simulate.cache_hit") == 1
        assert reloaded.cycles == result.cycles

    def test_close_drops_the_memo(self, gzip_trace):
        session = AnalysisSession.for_trace(gzip_trace)
        session.simulate()
        session.close()
        c = obs.enable()
        session.simulate()
        obs.disable()
        assert c.counter("session.simulate") == 1


class TestDifferential:
    """Session-driven analyses match hand-wired simulate/build calls."""

    def test_breakdown_bit_identical(self, gzip_trace):
        session = AnalysisSession.for_trace(gzip_trace)
        via_session = interaction_breakdown(session.provider(),
                                            focus=Category.DL1,
                                            workload="gzip")
        manual_provider = GraphCostProvider(simulate(gzip_trace))
        manual = interaction_breakdown(manual_provider, focus=Category.DL1,
                                       workload="gzip")
        assert via_session.entries == manual.entries
        assert via_session.total_cycles == manual.total_cycles

    def test_multisim_bit_identical(self, gzip_trace):
        provider = AnalysisSession.for_trace(gzip_trace).multisim_provider()
        for cats in (frozenset(), frozenset({Category.DL1}),
                     frozenset({Category.DL1, Category.WIN})):
            ideal = IdealConfig.for_categories(cats) if cats else None
            assert provider.cycles_with(cats) == \
                simulate(gzip_trace, ideal=ideal).cycles

    def test_sensitivity_bit_identical(self, gzip_trace):
        configs = [MachineConfig(window_size=w) for w in (64, 96, 128)]
        via_session = sweep_cycles(gzip_trace, configs)
        manual = [simulate(gzip_trace, config=c).cycles for c in configs]
        assert via_session == manual

    def test_critical_bit_identical(self, gzip_trace):
        provider = AnalysisSession.for_trace(gzip_trace).provider()
        via_session = top_critical_instructions(
            provider.analyzer, range(len(provider.result.events)), top=5)
        manual = GraphCostProvider(simulate(gzip_trace))
        expected = top_critical_instructions(
            manual.analyzer, range(len(manual.result.events)), top=5)
        assert via_session == expected


class TestRunConfig:
    def test_round_trips_through_json(self):
        run = RunConfig(workload="gzip", scale=0.5, seed=3,
                        machine=MachineConfig(dl1_latency=4),
                        engine="batched", jobs=2, cache_dir="/tmp/c",
                        approx=4)
        assert RunConfig.from_json(run.to_json()) == run

    def test_round_trips_default_machine(self):
        run = RunConfig(workload="mcf")
        assert RunConfig.from_json(run.to_json()) == run

    def test_with_replaces_fields(self):
        run = RunConfig(workload="gzip")
        assert run.with_(jobs=4).jobs == 4
        assert run.jobs == 1

    def test_pipeline_requested_by_any_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert not RunConfig().pipeline_requested()
        # --jobs alone changes nothing on the exact path
        assert not RunConfig(jobs=2).pipeline_requested()
        assert RunConfig(approx=4).pipeline_requested()
        assert RunConfig(cache_dir="/tmp/x").pipeline_requested()
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/y")
        assert RunConfig().pipeline_requested()

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().jobs = 2
