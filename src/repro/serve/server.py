"""The ``repro serve`` HTTP front end (stdlib only).

A :class:`ReproServer` wraps a :class:`~http.server.ThreadingHTTPServer`
around one :class:`~repro.serve.jobs.JobQueue`.  Endpoints
(docs/SERVING.md):

==============================  =======================================
``GET /healthz``                liveness: ``{"ok": true}``
``GET /v1/analyses``            the registered analyses (name + help)
``POST /v1/jobs``               submit ``{"analysis", "argv", "reuse",
                                "wait"}`` -- 202 accepted, 429 queue
                                full, 404 unknown analysis, 400
                                malformed body; with ``wait`` (seconds)
                                the response blocks on the job and
                                carries the full result document in the
                                same round trip
``GET /v1/jobs/<id>``           job status; when done carries an
                                ``ETag`` header and honours
                                ``If-None-Match`` -> 304
``GET /v1/jobs/<id>/result``    rendered text + typed result JSON + ETag
``GET /v1/jobs/<id>/progress``  one line per finished obs span of the
                                job's worker (plain text snapshot;
                                empty body while nothing finished)
``GET /v1/jobs/<id>/trace``     the job's span slice as a standalone
                                Chrome trace-event JSON document
``GET /v1/runs``                the run ledger, newest first
                                (``?analysis=&workload=&since=&limit=
                                &offset=``)
``GET /v1/runs/diff``           ``?a=REF&b=REF`` -- regression findings
                                between two recorded runs
``GET /v1/runs/<ref>``          one recorded manifest (run id, unique
                                prefix, or ``-1`` for the latest)
``GET /v1/stats``               queue depth, job totals, shared-cache
                                stats, requests served
``GET /metrics``                Prometheus text exposition of every obs
                                counter/gauge/histogram + per-endpoint
                                request telemetry
``GET /dashboard``              self-contained live HTML dashboard
``POST /v1/shutdown``           graceful stop (used by tests/CI)
==============================  =======================================

Request handling threads only ever touch the queue's thread-safe
surface; analyses run on the queue's workers, never on HTTP threads,
so a slow analysis cannot starve health checks.

Every request is instrumented: the handler times the dispatch and
folds the latency and response size into per-``{route, code}``
histograms (``serve.request_ms{code=200,route=/healthz}``) on the
server's **telemetry collector** -- a private, always-on
:class:`~repro.obs.core.Collector` that exists even when global obs is
off, so ``/metrics`` is never empty -- and, when global obs *is* on,
into the active collector too (enriching ``--metrics`` tables and run
manifests).  Route labels are normalized to patterns
(``/v1/jobs/{id}``) so label cardinality stays bounded no matter what
clients request.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional
from urllib.parse import parse_qs, urlsplit

import repro.obs as obs
from repro.obs.core import Collector
from repro.obs.expo import encode_labels, parse_labeled, render_prometheus
from repro.obs import tracefile
from repro.obs.ledger import (
    LedgerError,
    diff_manifests,
    open_ledger,
    render_dashboard_html,
    run_summary,
)
from repro.serve.jobs import JobQueue, QueueFull

__all__ = ["ReproServer"]

#: content type of the Prometheus text exposition format
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning :class:`ReproServer`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"

    def log_message(self, format: str, *args: Any) -> None:
        """Route access logs to the obs logger instead of stderr."""
        obs.get_logger("serve").debug(format, *args)

    # ---- plumbing -----------------------------------------------------

    def _send_body(self, code: int, body: bytes, content_type: str,
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._status = code
        self._resp_bytes = len(body)
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self._record()
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_body(code, body, "application/json", headers)

    def _send_text(self, code: int, text: str,
                   content_type: str =
                   "text/plain; charset=utf-8") -> None:
        self._send_body(code, text.encode("utf-8"), content_type)

    def _read_body(self) -> Optional[Dict[str, Any]]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def _query(self) -> Dict[str, str]:
        """The request's query parameters (last value wins)."""
        parsed = parse_qs(urlsplit(self.path).query,
                          keep_blank_values=False)
        return {key: values[-1] for key, values in parsed.items()}

    # ---- instrumentation ----------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._instrumented("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        self._instrumented("POST")

    def _instrumented(self, method: str) -> None:
        """Dispatch + record ``serve.request_ms{route,code}`` telemetry.

        ``self._route`` starts as the normalized route pattern
        ``(other)`` and is refined by the dispatcher; the send helpers
        fill in ``self._status`` and ``self._resp_bytes`` and record
        the request before it goes out, so the finally clause only
        records a handler that raised before sending.
        """
        server: "ReproServer" = self.server.owner  # type: ignore
        self._route = "(other)"
        self._status = 0
        self._resp_bytes = 0
        self._recorded = False
        self._t0 = time.perf_counter()
        try:
            path = self.path.split("?", 1)[0].rstrip("/")
            if method == "GET":
                self._route_get(server, path)
            else:
                self._route_post(server, path)
        finally:
            self._record()

    def _record(self) -> None:
        """Fold this request into the telemetry, once: before the
        response goes out, so the client's next scrape counts it."""
        if self._recorded:
            return
        self._recorded = True
        elapsed_ms = (time.perf_counter() - self._t0) * 1000.0
        self.server.owner.record_request(  # type: ignore
            self._route, self._status, elapsed_ms, self._resp_bytes)

    # ---- GET routes ---------------------------------------------------

    def _route_get(self, server: "ReproServer", path: str) -> None:
        if path == "/healthz":
            self._route = path
            self._send_json(200, {"ok": True})
        elif path == "/v1/analyses":
            self._route = path
            self._send_json(200, {"analyses": server.analyses()})
        elif path == "/v1/stats":
            self._route = path
            self._send_json(200, server.stats())
        elif path == "/metrics":
            self._route = path
            self._send_text(200, server.metrics_text(),
                            content_type=EXPOSITION_CONTENT_TYPE)
        elif path == "/dashboard":
            self._route = path
            self._send_text(200,
                            render_dashboard_html(server.dashboard_doc()),
                            content_type="text/html; charset=utf-8")
        elif path == "/v1/runs":
            self._route = path
            self._get_runs(server)
        elif path == "/v1/runs/diff":
            self._route = path
            self._get_runs_diff(server)
        elif path.startswith("/v1/runs/"):
            self._route = "/v1/runs/{ref}"
            self._get_run(server, path[len("/v1/runs/"):])
        elif path.startswith("/v1/jobs/"):
            self._get_job(server, path[len("/v1/jobs/"):])
        else:
            self._send_json(404, {"error": f"no route {path!r}"})

    def _get_runs(self, server: "ReproServer") -> None:
        query = self._query()
        try:
            limit = int(query.get("limit", 50))
            offset = int(query.get("offset", 0))
        except ValueError:
            self._send_json(400, {"error": "'limit' and 'offset' "
                                           "must be integers"})
            return
        if limit < 0 or offset < 0:
            self._send_json(400, {"error": "'limit' and 'offset' "
                                           "must be >= 0"})
            return
        try:
            page = server.ledger.page(
                limit=limit, offset=offset,
                analysis=query.get("analysis"),
                workload=query.get("workload"),
                since=query.get("since"))
        except (LedgerError, OSError) as exc:
            self._send_json(500, {"error": str(exc)})
            return
        self._send_json(200, page)

    def _get_run(self, server: "ReproServer", ref: str) -> None:
        try:
            manifest = server.ledger.get(ref)
        except LedgerError as exc:
            code = 409 if "ambiguous" in str(exc) else 404
            self._send_json(code, {"error": str(exc)})
            return
        except OSError as exc:
            self._send_json(500, {"error": str(exc)})
            return
        self._send_json(200, {"run": run_summary(manifest),
                              "manifest": manifest})

    def _get_runs_diff(self, server: "ReproServer") -> None:
        query = self._query()
        ref_a, ref_b = query.get("a"), query.get("b")
        if not ref_a or not ref_b:
            self._send_json(400, {"error": "need ?a=REF&b=REF"})
            return
        try:
            before = server.ledger.get(ref_a)
            after = server.ledger.get(ref_b)
        except LedgerError as exc:
            code = 409 if "ambiguous" in str(exc) else 404
            self._send_json(code, {"error": str(exc)})
            return
        except OSError as exc:
            self._send_json(500, {"error": str(exc)})
            return
        diff = diff_manifests(before, after)
        self._send_json(200, {
            "before": diff.before_id,
            "after": diff.after_id,
            "same_config": diff.same_config,
            "regressions": len(diff.regressions),
            "findings": [{
                "metric": f.metric, "before": f.before,
                "after": f.after, "delta": f.delta,
                "threshold": f.threshold, "verdict": f.verdict,
            } for f in diff.findings],
        })

    def _result_doc(self, job) -> Dict[str, Any]:
        return {"job": job.id, "etag": job.etag,
                "rendered": job.rendered,
                "result": json.loads(job.result_json),
                "manifest": job.manifest,
                "trace": job.trace_id}

    def _get_job(self, server: "ReproServer", rest: str) -> None:
        parts = rest.split("/")
        sub = parts[1] if len(parts) > 1 else ""
        known = sub if sub in ("", "result", "progress", "trace") \
            else "(other)"
        self._route = f"/v1/jobs/{{id}}/{known}" if known \
            else "/v1/jobs/{id}"
        job = server.jobs.get(parts[0])
        if job is None:
            self._send_json(404, {"error": f"unknown job {parts[0]!r}"})
            return
        if sub == "result":
            if job.state != "done":
                self._send_json(409, {"error": f"job is {job.state}",
                                      **job.status()})
                return
            self._send_json(200, self._result_doc(job),
                            headers={"ETag": f'"{job.etag}"'})
        elif sub == "progress":
            lines = job.progress_lines()
            # no finished spans yet -> an empty body, not a lone "\n"
            self._send_text(200, "\n".join(lines) + "\n" if lines else "")
        elif sub == "trace":
            self._send_text(200, server.trace_json(job),
                            content_type="application/json")
        elif sub == "":
            headers = {}
            if job.state == "done" and job.etag:
                if self.headers.get("If-None-Match") == f'"{job.etag}"':
                    self._status = 304
                    self._resp_bytes = 0
                    self.send_response(304)
                    self.send_header("ETag", f'"{job.etag}"')
                    self.send_header("Content-Length", "0")
                    self._record()
                    self.end_headers()
                    return
                headers["ETag"] = f'"{job.etag}"'
            self._send_json(200, job.status(), headers=headers)
        else:
            self._send_json(404, {"error": f"no job endpoint {sub!r}"})

    # ---- POST routes --------------------------------------------------

    def _route_post(self, server: "ReproServer", path: str) -> None:
        if path == "/v1/jobs":
            self._route = path
            self._post_job(server)
        elif path == "/v1/shutdown":
            self._route = path
            self._send_json(200, {"ok": True, "stopping": True})
            threading.Thread(target=server.stop, daemon=True).start()
        else:
            self._send_json(404, {"error": f"no route {path!r}"})

    def _post_job(self, server: "ReproServer") -> None:
        body = self._read_body()
        if body is None or not isinstance(body.get("analysis"), str):
            self._send_json(400, {"error": "body must be JSON with "
                                           "an 'analysis' name"})
            return
        argv = body.get("argv") or []
        if not (isinstance(argv, list)
                and all(isinstance(a, str) for a in argv)):
            self._send_json(400,
                            {"error": "'argv' must be a string list"})
            return
        try:
            accepted = server.jobs.submit(
                body["analysis"], argv,
                reuse=bool(body.get("reuse", True)))
        except KeyError:
            self._send_json(404, {"error": "unknown analysis "
                                           f"{body['analysis']!r}"})
            return
        except QueueFull as exc:
            self._send_json(429, {"error": str(exc)},
                            headers={"Retry-After": "1"})
            return
        wait = body.get("wait")
        if wait:
            # long-poll submit: block (cheaply, on the job's done
            # event) and answer with the full result document in
            # this same round trip -- the warm-path fast lane
            job = server.jobs.get(accepted["job"])
            if job is not None:
                job.done.wait(min(float(wait), 300.0))
                if job.state == "done":
                    self._send_json(200, self._result_doc(job),
                                    headers={"ETag":
                                             f'"{job.etag}"'})
                    return
                self._send_json(200 if job.state == "failed"
                                else 202, job.status())
                return
        self._send_json(202, accepted)


class ReproServer:
    """One serve daemon: HTTP front end + job queue + session manager.

    *manager* is the shared :class:`~repro.session.SessionManager`;
    *workers*/*queue_size* shape the job queue; *idle_reap_s* closes
    sessions idle past that many seconds between requests (0 disables
    reaping).  Port 0 binds an ephemeral port (tests); read it back
    from :attr:`port` after construction.

    *ledger* is the :class:`~repro.obs.ledger.RunLedger` finished jobs
    record to and ``/v1/runs`` reads from; by default it opens from
    ``$REPRO_LEDGER_DIR`` (disabled when unset, in which case
    ``/v1/runs`` answers ``{"enabled": false}``).  *baseline* pins a
    run reference the dashboard diffs every listed run against; without
    it each run is compared to the **earliest recorded run with the
    same config digest** -- the natural "did this exact request
    regress" question.
    """

    def __init__(self, manager, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 2, queue_size: int = 16,
                 idle_reap_s: float = 300.0, ledger=None,
                 baseline: Optional[str] = None) -> None:
        self.manager = manager
        self.ledger = ledger if ledger is not None else open_ledger()
        self.baseline = baseline
        self.jobs = JobQueue(manager, workers=workers,
                             queue_size=queue_size, ledger=self.ledger)
        self.idle_reap_s = idle_reap_s
        #: always-on request telemetry, independent of global obs --
        #: /metrics and /dashboard never come up empty
        self.telemetry = Collector()
        self._recent_ms: "deque[float]" = deque(maxlen=120)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.owner = self  # type: ignore[attr-defined]
        self._httpd.jobs = self.jobs  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._reaper: Optional[threading.Timer] = None
        self._stopped = threading.Event()
        self._stop_lock = threading.Lock()

    @property
    def host(self) -> str:
        """The bound interface."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved when constructed with port 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """The service base URL."""
        return f"http://{self.host}:{self.port}"

    def analyses(self) -> list:
        """The registry as ``[{"name", "help"}, ...]``."""
        from repro.session.registry import all_analyses

        return [{"name": a.name, "help": a.help} for a in all_analyses()]

    # ---- telemetry ----------------------------------------------------

    def record_request(self, route: str, code: int, elapsed_ms: float,
                       resp_bytes: int) -> None:
        """Fold one handled request into the telemetry registries.

        Lands only on :attr:`telemetry` while serving -- ``/metrics``
        merges telemetry with the global collector at scrape time, so
        recording into both would double-count.  :meth:`stop` folds the
        whole telemetry registry into the global collector once, which
        is how request latency reaches the post-serve ``--metrics``
        table.
        """
        latency = encode_labels("serve.request_ms",
                                route=route, code=code)
        size = encode_labels("serve.response_bytes",
                             route=route, code=code)
        self.telemetry.count("serve.request.handled")
        self.telemetry.observe(latency, elapsed_ms)
        self.telemetry.observe(size, resp_bytes)
        self._recent_ms.append(elapsed_ms)

    def metrics_text(self) -> str:
        """The ``GET /metrics`` exposition document.

        Merges the daemon's private telemetry with the global obs
        collector (when enabled): counters sum, histograms fold, so one
        scrape sees both the HTTP plane and the analysis pipeline.
        """
        return render_prometheus((self.telemetry, obs.collector()))

    def telemetry_routes(self) -> List[Dict[str, Any]]:
        """Per-``{route, code}`` request latency summaries, sorted."""
        with self.telemetry._lock:
            snap = {name: list(h) for name, h
                    in self.telemetry.histograms.items()}
        routes = []
        for name in sorted(snap):
            base, labels = parse_labeled(name)
            if base != "serve.request_ms":
                continue
            count, total, _lo, hi = snap[name]
            routes.append({"route": labels.get("route", ""),
                           "code": labels.get("code", ""),
                           "count": int(count),
                           "total_ms": total,
                           "max_ms": hi})
        return routes

    def trace_json(self, job) -> str:
        """The ``GET /v1/jobs/<id>/trace`` document (Chrome trace).

        A settled job serves the slice cut out of the collector when it
        finished; a queued/running one serves a live snapshot (without
        removing anything).  With obs disabled the document is valid
        but empty -- the trace plane degrades, never errors.
        """
        records = job.trace_spans
        if records is None:
            collector = obs.collector()
            records = ([] if collector is None or not job.trace_id
                       else collector.take_trace(job.trace_id,
                                                 remove=False))
        return tracefile.dumps_records(
            records, os.getpid(),
            other={"job": job.id, "analysis": job.analysis,
                   "trace_id": job.trace_id, "state": job.state,
                   "spans": len(records)},
            process_name=f"repro-serve job {job.id} ({job.analysis})")

    def stats(self) -> Dict[str, Any]:
        """The ``GET /v1/stats`` document."""
        cache = self.manager.cache
        return {
            "queue_depth": self.jobs.depth(),
            "queue_size": self.jobs.queue_size,
            "jobs_done": self.jobs.jobs_done,
            "jobs_failed": self.jobs.jobs_failed,
            "sessions_active": len(self.manager.active()),
            "requests_handled": int(
                self.telemetry.counters.get("serve.request.handled", 0)),
            "ledger_enabled": bool(self.ledger.enabled),
            "cache": {
                "enabled": cache.enabled,
                "hits": cache.hits,
                "misses": cache.misses,
                "stores": cache.stores,
                "evictions": cache.evictions,
                "quarantined": cache.quarantined,
            },
        }

    def dashboard_doc(self, n_runs: int = 10) -> Dict[str, Any]:
        """The snapshot document ``GET /dashboard`` renders.

        Pure data (JSON-shaped) so tests can assert on it without
        scraping HTML.  The last *n_runs* recorded runs each carry a
        regression verdict against the pinned *baseline* run, or --
        when none is pinned -- against the earliest recorded run
        sharing their config digest.
        """
        doc: Dict[str, Any] = {
            "url": self.url,
            "stats": self.stats(),
            "telemetry": {"routes": self.telemetry_routes(),
                          "samples_ms": list(self._recent_ms)},
            "baseline": self.baseline,
            "runs": [],
        }
        if not self.ledger.enabled:
            return doc
        try:
            entries = [e for e in self.ledger.refresh_index()
                       if not e.get("skip")]
        except (LedgerError, OSError):
            return doc
        pinned = None
        if self.baseline:
            try:
                pinned = self.ledger.get(self.baseline)
            except (LedgerError, OSError):
                pinned = None
        first_by_cfg: Dict[str, Dict[str, Any]] = {}
        for entry in entries:
            first_by_cfg.setdefault(entry.get("cfg"), entry)
        loaded: Dict[int, Dict[str, Any]] = {}

        def load(entry: Dict[str, Any]) -> Optional[Dict[str, Any]]:
            if entry["o"] not in loaded:
                try:
                    loaded[entry["o"]] = self.ledger.read_at(
                        entry["o"], entry["l"])
                except (LedgerError, OSError):
                    return None
            return loaded[entry["o"]]

        for entry in reversed(entries[-max(0, n_runs):]):
            manifest = load(entry)
            if manifest is None:
                continue
            row = run_summary(manifest)
            base = pinned
            if base is None:
                first = first_by_cfg.get(entry.get("cfg"))
                if first is not None and first["o"] != entry["o"]:
                    base = load(first)
            if base is not None \
                    and base["meta"]["run_id"] != row["run_id"]:
                diff = diff_manifests(base, manifest)
                base_row = run_summary(base)
                row["baseline_run_id"] = base_row["run_id"]
                row["baseline_regressions"] = len(diff.regressions)
                row["baseline_wall_delta_ms"] = round(
                    row["wall_ms"] - base_row["wall_ms"], 3)
            doc["runs"].append(row)
        return doc

    # ---- lifecycle ----------------------------------------------------

    def _reap_tick(self) -> None:
        if self._stopped.is_set() or not self.idle_reap_s:
            return
        self.manager.reap(self.idle_reap_s)
        self._reaper = threading.Timer(
            max(1.0, self.idle_reap_s / 4), self._reap_tick)
        self._reaper.daemon = True
        self._reaper.start()

    def start(self) -> None:
        """Serve in a background thread (returns immediately)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-http",
            kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()
        if self.idle_reap_s:
            self._reap_tick()
        obs.count("serve.start")

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (or Ctrl-C)."""
        if self.idle_reap_s:
            self._reap_tick()
        obs.count("serve.start")
        try:
            self._httpd.serve_forever(poll_interval=0.05)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Shut down: stop accepting, drain workers, close sessions."""
        with self._stop_lock:
            if self._stopped.is_set():
                return
            self._stopped.set()
        if self._reaper is not None:
            self._reaper.cancel()
        self._httpd.shutdown()
        self._httpd.server_close()
        self.jobs.shutdown()
        self.manager.close_all()
        # hand the request telemetry to the global collector (when one
        # is active) so the post-serve --metrics table and trace carry
        # the HTTP plane too; drained so nothing can double-count
        active = obs.collector()
        if active is not None:
            active.absorb(self.telemetry.export_spans(drain=True))
        if self._thread is not None:
            self._thread.join(timeout=10)
