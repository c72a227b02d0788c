"""The self-profile lowering and icost algebra, on hand-built span
forests (:mod:`repro.obs.selfprof`).

Mirrors :mod:`tests.test_core_icost`: every scenario is small enough to
schedule by hand, so the expected cost/icost values are written down,
not re-derived.  Spans are appended to a :class:`Collector` directly as
finished records -- the same 8-tuples ``Collector._finish_span``
produces -- which lets a single-process test describe multi-process
schedules (pool workers, spawn lag, fork/join) deterministically.
"""

import pytest

from repro.obs.core import Collector
from repro.obs.selfprof import (
    SelfProfile,
    build_span_graph,
    category_of,
    render_self_profile,
    self_profile,
)

MS = 1000.0  # microseconds per millisecond (collector ts/dur are us)

ROOT_PID = 1000


def rec(name, start_ms, dur_ms, tid=1, sid=1, parent=0, pid=ROOT_PID):
    """One finished span record, timed in milliseconds."""
    return (name, start_ms * MS, dur_ms * MS, tid, {}, sid, parent, pid)


def collector_with(*records):
    collector = Collector()
    collector.spans.extend(records)
    return collector


def row(profile, label):
    return next(r for r in profile.rows if r.label == label)


class TestCategoryRules:
    def test_prefixes_map_to_the_paper_phases(self):
        assert category_of("sim.run") == "simulate"
        assert category_of("pipeline.simulate") == "simulate"
        assert category_of("pipeline.cache.load") == "cache"
        assert category_of("pipeline.build") == "build"
        assert category_of("pipeline.pool_analyze") == "analyze"
        assert category_of("pipeline.window_analyze") == "analyze"
        assert category_of("engine.cp_batch") == "analyze"

    def test_unknown_names_are_other(self):
        assert category_of("bench.case") == "other"
        assert category_of("selfprof.run") == "other"


class TestAlgebra:
    """The paper's sign semantics on hand-scheduled span forests."""

    def test_sequential_phases_are_independent(self):
        """Back-to-back phases on one thread: each cost equals its
        duration and the interaction is exactly zero."""
        profile = self_profile(collector_with(
            rec("sim.run", 0, 10, sid=1),
            rec("graph.build", 10, 10, sid=2)))
        assert profile.total_ms == pytest.approx(20.0)
        assert row(profile, "simulate").ms == pytest.approx(10.0)
        assert row(profile, "build").ms == pytest.approx(10.0)
        pair = row(profile, "build+simulate")
        assert pair.ms == pytest.approx(0.0)
        assert pair.classification == "independent"

    def test_fully_overlapped_phases_are_parallel(self):
        """Two threads busy with different phases over the same
        interval: each alone costs nothing (the other hides it), both
        together cost the interval -- icost is the full overlap."""
        profile = self_profile(collector_with(
            rec("sim.run", 0, 10, tid=1, sid=1),
            rec("engine.cp_batch", 0, 10, tid=2, sid=2)))
        assert profile.total_ms == pytest.approx(10.0)
        assert row(profile, "simulate").ms == pytest.approx(0.0)
        assert row(profile, "analyze").ms == pytest.approx(0.0)
        pair = row(profile, "analyze+simulate")
        assert pair.ms == pytest.approx(10.0)
        assert pair.classification == "parallel"

    def test_chained_phases_beside_longer_work_are_serial(self):
        """sim then analyze on one thread, a 15 ms build on another:
        each alone buys 5 ms, both together still only 5 ms (the build
        chain becomes the bottleneck) -- icost is -5 ms."""
        profile = self_profile(collector_with(
            rec("sim.run", 0, 10, tid=1, sid=1),
            rec("engine.cp_batch", 10, 10, tid=1, sid=2),
            rec("graph.build", 0, 15, tid=2, sid=3)))
        assert profile.total_ms == pytest.approx(20.0)
        assert row(profile, "simulate").ms == pytest.approx(5.0)
        assert row(profile, "analyze").ms == pytest.approx(5.0)
        pair = row(profile, "analyze+simulate")
        assert pair.ms == pytest.approx(-5.0)
        assert pair.classification == "serial"
        # and the build chain, fully parallel to both, interacts
        # positively with each of them
        assert row(profile, "build+simulate").classification != "serial"

    def test_rows_always_sum_to_the_modeled_schedule(self):
        """cost rows + icost rows + higher-order == cost(everything):
        the breakdown accounts for 100% of the modeled wall time."""
        profile = self_profile(collector_with(
            rec("sim.run", 0, 10, tid=1, sid=1),
            rec("engine.cp_batch", 10, 10, tid=1, sid=2),
            rec("graph.build", 0, 15, tid=2, sid=3),
            rec("pipeline.cache.store", 15, 3, tid=2, sid=4)))
        assert sum(r.ms for r in profile.rows) \
            == pytest.approx(profile.total_ms)
        assert sum(r.percent for r in profile.rows) == pytest.approx(100.0)


class TestDegenerateShapes:
    def test_empty_collector_raises(self):
        with pytest.raises(ValueError):
            self_profile(Collector())
        with pytest.raises(ValueError):
            build_span_graph(Collector())

    def test_single_span_run(self):
        profile = self_profile(collector_with(rec("sim.run", 0, 5)))
        assert profile.total_ms == pytest.approx(5.0)
        assert profile.categories == ("simulate",)
        assert profile.interaction_rows() == ()
        assert row(profile, "simulate").percent == pytest.approx(100.0)
        assert profile.coverage == pytest.approx(1.0)

    def test_zero_duration_spans_are_dropped_not_fatal(self):
        profile = self_profile(collector_with(
            rec("sim.run", 0, 10, sid=1),
            rec("engine.cp_batch", 10, 0, sid=2)))
        assert profile.total_ms == pytest.approx(10.0)
        assert profile.categories == ("simulate",)

    def test_nested_spans_attribute_time_to_the_innermost(self):
        """A sim child carves its interval out of the enclosing
        analyze span: 6 ms sim, 4 ms analyze, independent."""
        profile = self_profile(collector_with(
            rec("pipeline.analyze", 0, 10, sid=1),
            rec("sim.run", 2, 6, sid=2, parent=1)))
        assert row(profile, "simulate").ms == pytest.approx(6.0)
        assert row(profile, "analyze").ms == pytest.approx(4.0)
        assert row(profile, "analyze+simulate").ms == pytest.approx(0.0)

    def test_gaps_between_spans_count_as_other(self):
        """Time a thread spends outside any span still elapsed."""
        profile = self_profile(collector_with(
            rec("sim.run", 0, 10, sid=1),
            rec("engine.cp_batch", 15, 5, sid=2)))
        assert profile.total_ms == pytest.approx(20.0)
        assert row(profile, "other").ms == pytest.approx(5.0)

    def test_explicit_wall_clock_sets_the_coverage(self):
        profile = self_profile(collector_with(rec("sim.run", 0, 8)),
                               wall_ms=10.0)
        assert profile.wall_ms == pytest.approx(10.0)
        assert profile.coverage == pytest.approx(0.8)


class TestPoolLowering:
    """Fork/join, spawn lag, and wait/collect splitting of pool spans."""

    def _pool_collector(self):
        """main: sim [0,10), pool_analyze [10,30) with a nested cache
        store [14,20), analyze [30,40); worker (pid 2000): one window
        graph build [12,28) parented under the pool span."""
        return collector_with(
            rec("sim.run", 0, 10, tid=1, sid=1),
            rec("pipeline.pool_analyze", 10, 20, tid=1, sid=2),
            rec("pipeline.cache.store", 14, 6, tid=1, sid=3, parent=2),
            rec("pipeline.analyze", 30, 10, tid=1, sid=4),
            rec("graph.build", 12, 16, tid=9, sid=5, parent=2, pid=2000))

    def test_critical_path_equals_the_span_extent(self):
        """The worker chain (fork at 10, 2 ms spawn, 16 ms build, join
        into collect at 28) stretches the schedule to the full 40 ms
        even though the pool's own wait carries no latency."""
        profile = self_profile(self._pool_collector())
        assert profile.total_ms == pytest.approx(40.0)
        assert profile.coverage == pytest.approx(1.0)
        assert profile.processes == 2

    def test_wait_spawn_and_collect_segments(self):
        _graph, groups, segments = build_span_graph(self._pool_collector())
        names = [s.name for s in segments]
        assert "pipeline.pool_analyze (wait)" in names
        assert "pipeline.pool_analyze (spawn)" in names
        # the pool span's tail past the workers' finish is the collect
        # slot and keeps the pool's own (analyze) category, not the
        # workers' (build)
        tail = next(s for s in segments if s.start == int(28 * 1e6)
                    and s.owner_sid == 2)
        assert tail.category == "analyze"
        assert "spawn" in groups and len(groups["spawn"]) == 1
        # wait slots are untagged: idealizing them must never shorten
        # the schedule (the fork/join path carries the workers' time)
        waits = [s for s in segments if s.category is None]
        assert waits and all("(wait)" in s.name for s in waits)

    def test_hand_computed_costs(self):
        """cost(spawn) = 2 ms (pure overhead on the critical worker
        chain); cost(cache) = 0 (hidden under the worker build);
        cost(build) = 12 (removing the worker build leaves the main
        chain sim + cache = 16 ahead of collect + analyze = 12)."""
        profile = self_profile(self._pool_collector())
        assert row(profile, "spawn").ms == pytest.approx(2.0)
        assert row(profile, "cache").ms == pytest.approx(0.0)
        assert row(profile, "build").ms == pytest.approx(12.0)

    def test_cache_and_build_interact_in_parallel(self):
        """The cache store is free only because the pool workers hide
        it: once the build work is idealized too, the union buys 16 ms
        where the parts bought 12 -- a +4 ms parallel interaction."""
        profile = self_profile(self._pool_collector())
        pair = row(profile, "build+cache")
        assert pair.ms == pytest.approx(4.0)
        assert pair.classification == "parallel"

    def test_pool_rows_sum_exactly(self):
        profile = self_profile(self._pool_collector())
        assert sum(r.ms for r in profile.rows) \
            == pytest.approx(profile.total_ms)


class TestRendering:
    def test_render_mentions_every_category_and_classification(self):
        profile = self_profile(collector_with(
            rec("sim.run", 0, 10, tid=1, sid=1),
            rec("engine.cp_batch", 0, 10, tid=2, sid=2)))
        text = render_self_profile(profile)
        assert "simulate" in text and "analyze" in text
        assert "parallel" in text
        assert "higher-order" in text

    def test_profile_round_trips_through_the_serializer(self):
        profile = self_profile(collector_with(rec("sim.run", 0, 5)))
        from repro.core.serialize import result_from_json

        again = result_from_json(profile.to_json())
        assert isinstance(again, SelfProfile)
        assert again == profile

    def test_payload_is_plain_json_data(self):
        import json

        profile = self_profile(collector_with(rec("sim.run", 0, 5)))
        payload = profile.payload()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["coverage"] == pytest.approx(1.0)
