"""The obs collector primitives, no-op contract and trace export."""

import json
import threading

import pytest

from repro import obs
from repro.obs.core import NOOP_SPAN, Collector


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with collection disabled."""
    obs.disable()
    yield
    obs.disable()


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.collector() is None

    def test_span_returns_shared_noop(self):
        assert obs.span("anything", x=1) is NOOP_SPAN
        assert obs.span("other") is NOOP_SPAN

    def test_noop_span_supports_full_protocol(self):
        with obs.span("a.b", k=1) as sp:
            sp.set(result=42)

    def test_counters_and_gauges_are_noops(self):
        obs.count("c")
        obs.gauge("g", 1)
        obs.observe("h", 2)
        obs.note("n", "text")
        assert obs.collector() is None

    def test_write_trace_without_collector_raises(self):
        with pytest.raises(RuntimeError):
            obs.write_trace(None, "/tmp/never-written.json")


class TestCollector:
    def test_enable_returns_active_collector(self):
        c = obs.enable()
        assert obs.enabled()
        assert obs.collector() is c
        assert obs.disable() is c
        assert not obs.enabled()

    def test_counters_accumulate(self):
        c = obs.enable()
        obs.count("x")
        obs.count("x", 2)
        assert c.counter("x") == 3
        assert c.counter("never") == 0

    def test_gauge_last_write_wins(self):
        c = obs.enable()
        obs.gauge("g", 1)
        obs.gauge("g", 7)
        assert c.gauges["g"] == 7

    def test_histogram_summary(self):
        c = obs.enable()
        for v in (5, 1, 9):
            obs.observe("h", v)
        count, total, lo, hi = c.histograms["h"]
        assert (count, total, lo, hi) == (3, 15, 1, 9)
        assert c.histogram_mean("h") == 5
        assert c.histogram_mean("missing") is None

    def test_notes(self):
        c = obs.enable()
        obs.note("status", "ok")
        assert c.notes["status"] == "ok"

    def test_span_records_timing_and_args(self):
        c = obs.enable()
        with obs.span("stage.one", n=3) as sp:
            sp.set(m=4)
        name, ts, dur, tid, args, sid, parent_sid, pid = c.spans[0]
        assert name == "stage.one"
        assert dur >= 0 and ts >= 0
        assert tid == threading.get_ident()
        assert args == {"n": 3, "m": 4}
        assert sid == 1 and parent_sid == 0
        assert pid == c.pid

    def test_span_records_exception_type(self):
        c = obs.enable()
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("x")
        assert c.spans[0][4]["error"] == "ValueError"

    def test_span_names_first_seen_order(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        # inner exits (and is recorded) first
        assert obs.collector().span_names() == ["inner", "outer"]

    def test_api_calls_counts_every_hit(self):
        c = obs.enable()
        obs.count("a")
        obs.gauge("b", 1)
        obs.observe("c", 1)
        obs.note("d", "x")
        with obs.span("e"):
            pass
        assert c.api_calls == 5

    def test_enable_with_existing_collector(self):
        mine = Collector()
        assert obs.enable(mine) is mine
        obs.count("k")
        assert mine.counter("k") == 1


class TestTraceExport:
    def _collect(self):
        c = obs.enable()
        with obs.span("stage.a", rows=2):
            with obs.span("stage.b"):
                pass
        obs.count("events.total", 5)
        obs.gauge("g", 1)
        obs.observe("h", 3)
        obs.note("status", "ok")
        obs.disable()
        return c

    def test_trace_json_is_valid_and_complete(self, tmp_path):
        c = self._collect()
        path = tmp_path / "trace.json"
        obs.write_trace(c, str(path))
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"stage.a", "stage.b"}
        for e in spans:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(e)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters[0]["name"] == "events.total"
        assert counters[0]["args"]["value"] == 5
        meta = doc["otherData"]
        assert meta["gauges"]["g"] == 1
        assert meta["notes"]["status"] == "ok"
        assert meta["histograms"]["h"]["count"] == 1

    def test_write_to_open_file(self, tmp_path):
        c = self._collect()
        path = tmp_path / "trace.json"
        with open(path, "w") as fh:
            obs.write_trace(c, fh)
        assert json.loads(path.read_text())["displayTimeUnit"] == "ms"

    def test_nesting_by_containment(self):
        c = self._collect()
        by_name = {s[0]: s for s in c.spans}
        _, a_ts, a_dur, *_rest = by_name["stage.a"]
        _, b_ts, b_dur, *_rest = by_name["stage.b"]
        assert a_ts <= b_ts and b_ts + b_dur <= a_ts + a_dur + 1e-6

    def test_nesting_by_parent_sid(self):
        c = self._collect()
        by_name = {s[0]: s for s in c.spans}
        assert by_name["stage.b"][6] == by_name["stage.a"][5]
        assert by_name["stage.a"][6] == 0


class TestSpanIdentity:
    def test_sids_are_unique_and_stack_propagates_parents(self):
        c = obs.enable()
        with obs.span("a"):
            with obs.span("b"):
                pass
            with obs.span("c"):
                pass
        by_name = {s[0]: s for s in c.spans}
        sids = [s[5] for s in c.spans]
        assert len(set(sids)) == 3
        assert by_name["b"][6] == by_name["a"][5]
        assert by_name["c"][6] == by_name["a"][5]
        assert by_name["a"][6] == 0

    def test_sibling_threads_do_not_inherit_parents(self):
        c = obs.enable()
        done = threading.Event()

        def worker():
            with obs.span("thread.child"):
                pass
            done.set()

        with obs.span("main.parent"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert done.wait(1)
        by_name = {s[0]: s for s in c.spans}
        # the other thread's stack is empty: no cross-thread parenting
        assert by_name["thread.child"][6] == 0
        assert by_name["main.parent"][6] == 0


class TestExportAbsorb:
    def _worker_like(self):
        """A collector standing in for a pool worker's."""
        w = Collector()
        with w.span("pipeline.window_analyze", {"start": 0}):
            with w.span("graph.build", {}):
                pass
        w.count("pipeline.window.built", 2)
        w.gauge("graph.nodes", 10)
        w.observe("emit_us", 5.0)
        w.note("status", "worker-ok")
        return w

    def test_export_roundtrips_through_absorb(self):
        w = self._worker_like()
        export = w.export_spans()
        parent = Collector()
        with parent.span("pipeline.pool_analyze", {}) as pool:
            pass
        absorbed = parent.absorb(export, parent_sid=pool.sid)
        assert absorbed == 2
        by_name = {s[0]: s for s in parent.spans}
        # worker top-level span reparented under the pool span; the
        # worker-internal nesting is preserved through the sid remap
        assert by_name["pipeline.window_analyze"][6] == pool.sid
        assert by_name["graph.build"][6] == \
            by_name["pipeline.window_analyze"][5]
        # sids were remapped into the parent's id space (all distinct)
        sids = [s[5] for s in parent.spans]
        assert len(set(sids)) == 3
        # real worker pid survives the merge
        assert by_name["graph.build"][7] == w.pid
        # metrics merged
        assert parent.counter("pipeline.window.built") == 2
        assert parent.gauges["graph.nodes"] == 10
        assert parent.histograms["emit_us"] == [1, 5.0, 5.0, 5.0]
        assert parent.notes["status"] == "worker-ok"

    def test_absorb_rebases_timestamps_onto_the_local_epoch(self):
        w = self._worker_like()
        export = w.export_spans()
        parent = Collector()
        # both epochs come from the same monotonic clock: a worker span
        # recorded "now" must land near the parent's "now", not near 0
        parent_now = parent.elapsed_us()
        parent.absorb(export)
        ts = parent.spans[0][1]
        assert abs(ts - parent_now) < 2_000_000  # within 2s of "now"

    def test_drain_empties_the_collector(self):
        w = self._worker_like()
        first = w.export_spans(drain=True)
        assert len(first["spans"]) == 2
        assert w.spans == [] and w.counters == {}
        assert w.histograms == {} and w.notes == {}
        second = w.export_spans(drain=True)
        assert second["spans"] == []

    def test_counters_sum_across_repeated_absorbs(self):
        parent = Collector()
        for _ in range(3):
            w = Collector()
            w.count("pipeline.window.built")
            w.observe("emit_us", 2.0)
            parent.absorb(w.export_spans())
        assert parent.counter("pipeline.window.built") == 3
        assert parent.histograms["emit_us"] == [3, 6.0, 2.0, 2.0]


class TestMetricsRendering:
    def test_table_contains_all_sections(self):
        c = obs.enable()
        obs.count("icost.cache.hit", 3)
        obs.count("icost.cache.miss")
        obs.count("engine.batched.sweep.full", 4)
        obs.count("engine.batched.worklist", 2)
        obs.gauge("engine.native_kernel", 1)
        obs.observe("engine.batch_size", 8)
        obs.note("engine.native_kernel.status", "loaded (cc)")
        with obs.span("stage.a"):
            pass
        obs.disable()
        table = obs.render_metrics_table(c)
        assert "hit rate" in table and "75.0%" in table
        assert "4 full sweep, 2 worklist" in table
        assert "native C kernel" in table and "loaded (cc)" in table
        assert "stage.a" in table
        assert "engine.batch_size" in table

    def test_empty_collector_renders(self):
        table = obs.render_metrics_table(Collector())
        assert "pipeline metrics" in table


class TestLogging:
    def test_get_logger_namespacing(self):
        assert obs.get_logger().name == "repro"
        assert obs.get_logger("engine").name == "repro.engine"

    def test_setup_logging_sets_level_idempotently(self):
        logger = obs.setup_logging("debug")
        handlers = list(logger.handlers)
        assert logger.level == 10
        obs.setup_logging("warning")
        assert logger.level == 30
        assert list(logger.handlers) == handlers
