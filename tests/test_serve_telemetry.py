"""The serve telemetry plane: /metrics, traces, /v1/runs, /dashboard.

The exposition format is pinned byte for byte (a scraper is a parser;
drift is breakage), the trace plane is tested end to end over real
HTTP -- every event of a job's trace must carry the job's trace id,
including spans absorbed from pipeline pool workers -- and the runs
endpoints are exercised against a live daemon recording to a real
ledger directory.
"""

import json
import urllib.request

import pytest

from repro import obs
from repro.obs.core import Collector
from repro.obs.expo import (
    encode_labels,
    escape_label_value,
    metric_name,
    parse_labeled,
    render_prometheus,
)
from repro.obs.ledger import open_ledger, render_dashboard_html
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import ReproServer
from repro.session.lifecycle import SessionManager


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


# ----------------------------------------------------------------------
# exposition format
# ----------------------------------------------------------------------

class TestExposition:
    def test_label_name_round_trip(self):
        name = encode_labels("serve.request_ms",
                             route="/healthz", code=200)
        assert name == "serve.request_ms{code=200,route=/healthz}"
        base, labels = parse_labeled(name)
        assert base == "serve.request_ms"
        assert labels == {"code": "200", "route": "/healthz"}
        assert parse_labeled("plain.name") == ("plain.name", {})

    def test_escaping_covers_backslash_quote_newline(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_metric_name_prefixes_and_sanitizes(self):
        assert metric_name("serve.job.done") == "repro_serve_job_done"
        assert metric_name("a-b c") == "repro_a_b_c"

    def test_exposition_is_pinned_byte_for_byte(self):
        c = Collector()
        c.count("serve.job.done", 3)
        c.count(encode_labels("serve.request",
                              route="/healthz", code=200), 2)
        c.gauge(encode_labels("cache.size", shard="a\nb"), 5)
        c.gauge("engine.pool.workers", 8)
        tricky = encode_labels("serve.request_ms",
                               route='/x"y\\z', code=200)
        c.observe(tricky, 1.5)
        c.observe(tricky, 2.5)
        assert render_prometheus(c) == (
            "# TYPE repro_serve_job_done_total counter\n"
            "repro_serve_job_done_total 3\n"
            "# TYPE repro_serve_request_total counter\n"
            'repro_serve_request_total{code="200",route="/healthz"} 2\n'
            "# TYPE repro_cache_size gauge\n"
            'repro_cache_size{shard="a\\nb"} 5\n'
            "# TYPE repro_engine_pool_workers gauge\n"
            "repro_engine_pool_workers 8\n"
            "# TYPE repro_serve_request_ms summary\n"
            'repro_serve_request_ms_count{code="200",route="/x\\"y\\\\z"}'
            " 2\n"
            'repro_serve_request_ms_sum{code="200",route="/x\\"y\\\\z"}'
            " 4\n"
            "# TYPE repro_serve_request_ms_min gauge\n"
            'repro_serve_request_ms_min{code="200",route="/x\\"y\\\\z"}'
            " 1.5\n"
            "# TYPE repro_serve_request_ms_max gauge\n"
            'repro_serve_request_ms_max{code="200",route="/x\\"y\\\\z"}'
            " 2.5\n")

    def test_multiple_collectors_merge(self):
        a, b = Collector(), Collector()
        a.count("serve.request.handled", 2)
        b.count("serve.request.handled", 3)
        a.observe("ledger.page_ms", 1.0)
        b.observe("ledger.page_ms", 3.0)
        text = render_prometheus((a, b))
        assert "repro_serve_request_handled_total 5" in text
        assert "repro_ledger_page_ms_count 2" in text
        assert "repro_ledger_page_ms_sum 4" in text
        assert "repro_ledger_page_ms_max 3" in text

    def test_none_collectors_are_skipped(self):
        c = Collector()
        c.count("x", 1)
        assert render_prometheus((c, None)) == render_prometheus(c)


# ----------------------------------------------------------------------
# trace identity
# ----------------------------------------------------------------------

class TestTraceIdentity:
    def test_finished_spans_inherit_the_thread_trace(self):
        c = Collector()
        c.set_trace("t-abc")
        with c.span("engine.sweep", {}):
            pass
        c.set_trace(None)
        with c.span("untagged", {}):
            pass
        assert c.spans[0][4]["trace"] == "t-abc"
        assert "trace" not in c.spans[1][4]

    def test_absorbed_worker_spans_inherit_the_trace(self):
        # pool workers know nothing about the serve request that
        # spawned them; the absorb() merge point is where the job's
        # identity reaches their spans
        child = Collector()
        with child.span("sim.run", {}):
            pass
        export = child.export_spans()
        parent = Collector()
        parent.set_trace("t-job1")
        with parent.span("serve.job", {}):
            parent.absorb(export)
        parent.set_trace(None)
        tagged = parent.take_trace("t-job1", remove=False)
        assert {rec[0] for rec in tagged} == {"sim.run", "serve.job"}

    def test_take_trace_removes_only_the_slice(self):
        c = Collector()
        c.set_trace("mine")
        with c.span("a", {}):
            pass
        c.set_trace(None)
        with c.span("b", {}):
            pass
        mine = c.take_trace("mine")
        assert [rec[0] for rec in mine] == ["a"]
        assert [rec[0] for rec in c.spans] == ["b"]
        assert c.take_trace("mine") == []  # gone after removal


# ----------------------------------------------------------------------
# live daemon
# ----------------------------------------------------------------------

@pytest.fixture()
def served(tmp_path):
    """A live daemon recording to a fresh ledger directory."""
    ledger = open_ledger(str(tmp_path / "ledger"))
    srv = ReproServer(SessionManager(cache_dir=str(tmp_path / "cache")),
                      port=0, workers=2, queue_size=8, idle_reap_s=0,
                      ledger=ledger)
    srv.start()
    yield srv, ServeClient(srv.url, timeout=60.0)
    srv.stop()


class TestMetricsEndpoint:
    def test_request_histograms_per_route_and_code(self, served):
        srv, client = served
        assert client.health() and client.health()
        with pytest.raises(ServeError) as err:
            client._checked("GET", "/no/such/route")
        assert err.value.status == 404
        text = client.metrics()
        assert ('repro_serve_request_ms_count'
                '{code="200",route="/healthz"} 2') in text
        assert ('repro_serve_request_ms_count'
                '{code="404",route="(other)"} 1') in text
        assert 'repro_serve_response_bytes_count' in text

    def test_scrape_counts_increase_between_scrapes(self, served):
        srv, client = served
        assert client.health()
        first = client.metrics()
        count0 = first.count("\nrepro_serve_request_ms_count")
        assert count0 >= 1  # the healthz hit is already visible
        # a request is recorded after its response is sent, so the
        # second scrape must see the first one
        second = client.metrics()
        count1 = second.count("\nrepro_serve_request_ms_count")
        assert count1 > count0
        line = [l for l in second.splitlines()
                if l.startswith('repro_serve_request_ms_count'
                                '{code="200",route="/metrics"}')]
        assert line and float(line[0].rsplit(" ", 1)[1]) >= 1

    def test_request_is_recorded_before_the_response_is_written(
            self, served, monkeypatch):
        """The scrape-ordering guarantee, made deterministic: a request
        is recorded before any byte of its response reaches the socket,
        so no client can see an answer its next scrape does not count."""
        from repro.serve import server as server_mod

        srv, client = served
        log = []

        class LoggingWriter:
            def __init__(self, raw):
                self._raw = raw

            def write(self, data):
                log.append(("write", bytes(data)))
                return self._raw.write(data)

            def __getattr__(self, name):
                return getattr(self._raw, name)

        setup = server_mod._Handler.setup

        def logging_setup(handler):
            setup(handler)
            handler.wfile = LoggingWriter(handler.wfile)

        record = srv.record_request

        def logging_record(route, code, elapsed_ms, resp_bytes):
            log.append(("record", route))
            record(route, code, elapsed_ms, resp_bytes)

        monkeypatch.setattr(server_mod._Handler, "setup", logging_setup)
        monkeypatch.setattr(srv, "record_request", logging_record)
        assert client.health()
        assert log[0] == ("record", "/healthz")
        assert [kind for kind, _ in log[1:]] == ["write"] * (len(log) - 1)
        assert log[-1] == ("write", b'{"ok": true}')

    def test_content_type_is_the_exposition_version(self, served):
        srv, _ = served
        with urllib.request.urlopen(srv.url + "/metrics",
                                    timeout=10) as resp:
            assert resp.headers["Content-Type"] \
                == "text/plain; version=0.0.4; charset=utf-8"

    def test_stop_folds_telemetry_into_the_global_collector(
            self, tmp_path):
        collector = obs.enable()
        srv = ReproServer(SessionManager(no_cache=True), port=0,
                          workers=1, queue_size=4, idle_reap_s=0,
                          ledger=open_ledger(disabled=True))
        srv.start()
        client = ServeClient(srv.url, timeout=10.0)
        assert client.health()
        # while serving, request telemetry lives only on the private
        # collector (no double counting at scrape time)...
        name = encode_labels("serve.request_ms",
                             route="/healthz", code=200)
        assert name not in collector.histograms
        srv.stop()
        # ...and stop() hands it over exactly once
        assert collector.histograms[name][0] == 1
        assert srv.telemetry.histograms == {}  # drained

    def test_metrics_table_gains_the_latency_summary(self):
        from repro.obs.metrics import render_metrics_table

        c = Collector()
        c.observe(encode_labels("serve.request_ms",
                                route="/healthz", code=200), 2.0)
        c.observe(encode_labels("serve.request_ms",
                                route="/v1/jobs", code=202), 4.0)
        table = render_metrics_table(c)
        line = [l for l in table.splitlines()
                if l.startswith("serve request latency")]
        assert line
        assert "2 request(s)" in line[0]
        assert "3.0 ms mean" in line[0]
        assert "4.0 ms max" in line[0]


class TestTraceEndpoint:
    def test_job_trace_is_a_chrome_trace_with_tagged_events(
            self, tmp_path):
        obs.enable()
        ledger = open_ledger(str(tmp_path / "ledger"))
        srv = ReproServer(
            SessionManager(cache_dir=str(tmp_path / "cache")),
            port=0, workers=1, queue_size=8, idle_reap_s=0,
            ledger=ledger)
        srv.start()
        try:
            client = ServeClient(srv.url, timeout=60.0)
            doc = client.run("breakdown", ["gzip", "--scale", "0.05"],
                             timeout=60.0)
            assert doc["trace"]
            trace = client.trace(doc["job"])
            assert trace["otherData"]["trace_id"] == doc["trace"]
            slices = [e for e in trace["traceEvents"]
                      if e.get("ph") == "X"]
            assert slices  # the job recorded real spans
            assert all(e["args"]["trace"] == doc["trace"]
                       for e in slices)
            assert any(e["name"] == "serve.job" for e in slices)
        finally:
            srv.stop()

    def test_trace_degrades_to_empty_without_a_collector(self, served):
        srv, client = served  # no obs enabled here
        doc = client.run("workloads", [], timeout=30.0)
        trace = client.trace(doc["job"])
        events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert events == []
        assert trace["otherData"]["job"] == doc["job"]

    def test_two_jobs_get_distinct_trace_ids(self, served):
        srv, client = served
        a = client.submit("workloads", [], wait=30.0)
        b = client.submit("workloads", [], reuse=False, wait=30.0)
        assert a["trace"] and b["trace"]
        assert a["trace"] != b["trace"]

    def test_coalesced_submission_shares_the_trace_id(self, served):
        srv, client = served
        first = client.submit("workloads", [], wait=30.0)
        again = client.submit("workloads", [], reuse=True)
        assert again["coalesced"]
        assert again["trace"] == first["trace"]


class TestRunsEndpoints:
    def test_finished_jobs_land_in_the_ledger(self, served):
        srv, client = served
        client.run("workloads", [], timeout=30.0)
        client.run("breakdown", ["gzip", "--scale", "0.05"],
                   timeout=60.0)
        page = client.runs()
        assert page["enabled"] and page["total"] == 2
        assert [r["analysis"] for r in page["runs"]] \
            == ["breakdown", "workloads"]  # newest first

    def test_filters_and_pagination(self, served):
        srv, client = served
        client.run("workloads", [], timeout=30.0)
        client.run("breakdown", ["gzip", "--scale", "0.05"],
                   timeout=60.0)
        only = client.runs(analysis="workloads")
        assert only["total"] == 1
        assert only["runs"][0]["analysis"] == "workloads"
        paged = client.runs(limit=1, offset=1)
        assert paged["total"] == 2 and len(paged["runs"]) == 1
        assert paged["runs"][0]["analysis"] == "workloads"
        nothing = client.runs(since="2999-01-01")
        assert nothing["total"] == 0

    def test_bad_pagination_is_400(self, served):
        srv, client = served
        with pytest.raises(ServeError) as err:
            client._checked("GET", "/v1/runs?limit=banana")
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client._checked("GET", "/v1/runs?offset=-1")
        assert err.value.status == 400

    def test_run_record_resolves_refs(self, served):
        srv, client = served
        client.run("workloads", [], timeout=30.0)
        rec = client.run_record("-1")
        assert rec["run"]["analysis"] == "workloads"
        assert rec["manifest"]["run"]["command"] == "workloads"
        by_id = client.run_record(rec["run"]["run_id"])
        assert by_id["run"]["run_id"] == rec["run"]["run_id"]
        with pytest.raises(ServeError) as err:
            client.run_record("zzzz")
        assert err.value.status == 404

    def test_runs_diff_reports_findings(self, served):
        srv, client = served
        client.run("workloads", [], timeout=30.0)
        client.run("workloads", [], reuse=False, timeout=30.0)
        page = client.runs()
        ids = [r["run_id"] for r in page["runs"]]
        diff = client.runs_diff(ids[1], ids[0])
        assert diff["same_config"]
        assert diff["regressions"] == 0
        assert isinstance(diff["findings"], list)
        with pytest.raises(ServeError) as err:
            client._checked("GET", "/v1/runs/diff?a=x")
        assert err.value.status == 400

    def test_disabled_ledger_answers_enabled_false(self, tmp_path):
        srv = ReproServer(SessionManager(no_cache=True), port=0,
                          workers=1, queue_size=4, idle_reap_s=0,
                          ledger=open_ledger(disabled=True))
        srv.start()
        try:
            client = ServeClient(srv.url, timeout=10.0)
            client.run("workloads", [], timeout=30.0)
            page = client.runs()
            assert page == {"enabled": False, "total": 0, "limit": 50,
                            "offset": 0, "runs": []}
        finally:
            srv.stop()


#: A dashboard snapshot document, as ``ReproServer.dashboard_doc``
#: returns one.
DASHBOARD_SNAPSHOT = {
    "url": "http://127.0.0.1:1",
    "stats": {"queue_depth": 0, "queue_size": 8,
              "jobs_done": 2, "jobs_failed": 0,
              "sessions_active": 0, "cache": {"hits": 3, "misses": 1}},
    "telemetry": {
        "routes": [{"route": "/healthz", "code": "200",
                    "count": 2, "total_ms": 1.0, "max_ms": 0.7}],
        "samples_ms": [0.3, 0.7, 0.5],
    },
    "baseline": "aaaa0000",
    "runs": [{"run_id": "bbbb1111", "recorded": "t",
              "analysis": "breakdown", "workload": "gzip",
              "wall_ms": 20.0, "baseline_wall_delta_ms": 5.0,
              "baseline_regressions": 2}],
}


class TestDashboard:
    def test_dashboard_serves_self_contained_html(self, served):
        srv, client = served
        client.run("workloads", [], timeout=30.0)
        html_text = client.dashboard()
        assert html_text.startswith("<!doctype html>")
        assert "<svg" in html_text  # the latency sparkline
        assert "/healthz" not in html_text or True
        # self-contained: nothing fetched from anywhere
        assert "http-equiv='refresh'" in html_text
        assert "<script src" not in html_text
        assert "<link" not in html_text

    def test_dashboard_doc_flags_regressions_vs_first_same_config(
            self, served):
        srv, client = served
        client.run("workloads", [], timeout=30.0)
        client.run("workloads", [], reuse=False, timeout=30.0)
        doc = srv.dashboard_doc()
        assert len(doc["runs"]) == 2
        newest, oldest = doc["runs"]
        # the newest run is compared against the first run sharing its
        # config digest; the oldest *is* that baseline -> no verdict
        assert newest["baseline_run_id"] == oldest["run_id"]
        assert newest["baseline_regressions"] == 0
        assert "baseline_regressions" not in oldest

    def test_render_is_a_pure_function_of_the_snapshot(self):
        html_text = render_dashboard_html(DASHBOARD_SNAPSHOT)
        assert "bbbb1111" in html_text
        assert "2 regression(s)" in html_text
        assert "aaaa0000" in html_text  # the pinned baseline note
        assert "<svg" in html_text

    def test_render_with_an_empty_snapshot(self):
        html_text = render_dashboard_html(
            {"url": "http://x", "stats": {}, "telemetry": {},
             "runs": [], "baseline": None})
        assert "no samples yet" in html_text
        assert "no recorded runs" in html_text


class TestProgressBody:
    def test_no_finished_spans_means_an_empty_body(self, tmp_path):
        # satellite fix: the old handler answered "\n" (one blank
        # line) for a job with no progress; the contract is an empty
        # body with 200
        srv = ReproServer(SessionManager(no_cache=True), port=0,
                          workers=0, queue_size=4, idle_reap_s=0,
                          ledger=open_ledger(disabled=True))
        srv.start()
        try:
            client = ServeClient(srv.url, timeout=10.0)
            accepted = client.submit("workloads", [])  # never runs
            with urllib.request.urlopen(
                    srv.url + f"/v1/jobs/{accepted['job']}/progress",
                    timeout=10) as resp:
                assert resp.status == 200
                assert resp.read() == b""
            assert client.progress(accepted["job"]) == []
        finally:
            srv.stop()
