"""Chrome trace export edge cases (:mod:`repro.obs.tracefile`).

The happy path (a CLI run producing a loadable trace) is covered by
``tests/test_cli_obs.py``; this file pins the corners: an empty
collector, spans recorded from multiple threads, and counters/gauges/
notes with no spans at all.
"""

import io
import json
import threading

from repro.obs.core import Collector
from repro.obs.tracefile import dumps, trace_events, write


def _doc(collector):
    """dumps() parsed back -- every export must stay valid JSON."""
    return json.loads(dumps(collector))


class TestEmptyCollector:
    def test_only_the_process_metadata_event(self):
        events = trace_events(Collector())
        assert len(events) == 1
        assert events[0]["ph"] == "M"
        assert events[0]["name"] == "process_name"

    def test_dumps_is_valid_json_with_empty_other_data(self):
        doc = _doc(Collector())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"] == {"gauges": {}, "notes": {},
                                    "histograms": {}}
        assert doc["displayTimeUnit"] == "ms"

    def test_write_accepts_a_file_object(self):
        buf = io.StringIO()
        write(Collector(), buf)
        assert json.loads(buf.getvalue())["traceEvents"]

    def test_write_accepts_a_path(self, tmp_path):
        path = tmp_path / "trace.json"
        write(Collector(), str(path))
        assert json.loads(path.read_text())["traceEvents"]


class TestMultiThreadSpans:
    def test_spans_carry_their_recording_threads_tid(self):
        collector = Collector()
        # hold every worker alive until all have recorded: thread idents
        # are reused once a thread exits, which would collapse the tids
        barrier = threading.Barrier(3)

        def record(name):
            with collector.span(name, {}):
                barrier.wait(timeout=10)

        threads = [threading.Thread(target=record, args=(f"worker.{i}",))
                   for i in range(3)]
        with collector.span("main.span", {}):
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        spans = [e for e in trace_events(collector) if e["ph"] == "X"]
        assert {e["name"] for e in spans} \
            == {"worker.0", "worker.1", "worker.2", "main.span"}
        tids = {e["name"]: e["tid"] for e in spans}
        assert tids["main.span"] == threading.get_ident()
        # each worker span keeps its own thread id, distinct from main's
        worker_tids = {tids[f"worker.{i}"] for i in range(3)}
        assert len(worker_tids) == 3
        assert threading.get_ident() not in worker_tids
        # all events share one pid so viewers group them as one process
        assert len({e["pid"] for e in spans}) == 1

    def test_span_args_and_categories_survive_export(self):
        collector = Collector()
        with collector.span("graph.build", {"insns": 7}) as sp:
            sp.set(edges=12)
        (event,) = [e for e in trace_events(collector) if e["ph"] == "X"]
        assert event["cat"] == "graph"
        assert event["args"] == {"insns": 7, "edges": 12}
        assert event["dur"] >= 0


class TestCrossProcessMerge:
    def test_absorbed_worker_spans_keep_their_pid_and_get_a_track(self):
        parent = Collector()
        with parent.span("pipeline.pool_analyze", {}) as pool:
            pass
        worker = Collector()
        with worker.span("pipeline.window_analyze", {}):
            pass
        export = worker.export_spans()
        export["pid"] = 4242  # simulate a different process
        export["spans"] = [rec[:7] + (4242,) for rec in export["spans"]]
        parent.absorb(export, parent_sid=pool.sid)

        events = trace_events(parent)
        metas = [e for e in events if e["ph"] == "M"]
        assert {m["pid"] for m in metas} == {parent.pid, 4242}
        worker_meta = next(m for m in metas if m["pid"] == 4242)
        assert "worker" in worker_meta["args"]["name"]
        spans = {e["name"]: e for e in events if e["ph"] == "X"}
        assert spans["pipeline.pool_analyze"]["pid"] == parent.pid
        assert spans["pipeline.window_analyze"]["pid"] == 4242
        json.loads(dumps(parent))  # still a loadable trace document


class TestSpanlessTelemetry:
    """Counters/gauges/notes with zero spans must still round-trip."""

    def _collector(self):
        collector = Collector()
        collector.count("session.simulate", 3)
        collector.count("cache.hit")
        collector.gauge("graph.nodes", 420)
        collector.note("engine.native", "loaded")
        collector.observe("engine.sweep_us", 10.0)
        collector.observe("engine.sweep_us", 30.0)
        return collector

    def test_counters_become_counter_events(self):
        events = trace_events(self._collector())
        assert not any(e["ph"] == "X" for e in events)
        counter_events = [e for e in events if e["ph"] == "C"]
        assert [e["name"] for e in counter_events] \
            == ["cache.hit", "session.simulate"]  # sorted by name
        values = {e["name"]: e["args"]["value"] for e in counter_events}
        assert values == {"session.simulate": 3, "cache.hit": 1}

    def test_gauges_notes_histograms_land_in_other_data(self):
        doc = _doc(self._collector())
        other = doc["otherData"]
        assert other["gauges"] == {"graph.nodes": 420}
        assert other["notes"] == {"engine.native": "loaded"}
        assert other["histograms"]["engine.sweep_us"] \
            == {"count": 2, "total": 40.0, "min": 10.0, "max": 30.0}

    def test_non_json_values_are_stringified_not_fatal(self):
        collector = Collector()
        collector.note("engine.reason", "ok")
        with collector.span("x", {"payload": object()}):
            pass
        json.loads(dumps(collector))  # default=str keeps it serialisable
