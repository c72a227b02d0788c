"""The registered ``serve`` subcommand: boot the analysis daemon.

``repro serve`` goes through the same declarative registry as every
other subcommand, so the CLI tree, ``--help`` and the registry
completeness tests all see it uniformly.  Two modes:

- the default serves in the foreground until Ctrl-C or a
  ``POST /v1/shutdown``;
- ``--smoke`` boots on an ephemeral port, runs one self-request cycle
  through :class:`~repro.serve.client.ServeClient` (health, registry
  listing, one cheap job end to end) and shuts down -- the
  self-terminating mode the registry smoke test and CI boot gates use.

The daemon itself never records to the run ledger (``ledger_record =
False``): it is infrastructure, not an analysis result.  Jobs executed
*through* it build ordinary run manifests -- that is where their ETag
digests come from -- and when a ledger is configured (the global
``--ledger-dir`` flag or ``$REPRO_LEDGER_DIR``) every finished job's
manifest is appended to it, which is what ``GET /v1/runs`` lists.

The daemon asks the CLI for a collector (``wants_collector``) so the
telemetry plane -- per-job traces, ``/metrics`` pipeline series --
works out of the box without ``--trace``/``--metrics`` flags.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional

from repro.core.serialize import SerializableResult, register_serializable
from repro.session.registry import Analysis, Arg, register


@register_serializable
@dataclass
class ServeResult(SerializableResult):
    """One ``repro serve`` lifetime: where it ran and what it did."""

    host: str
    port: int
    workers: int
    queue_size: int
    jobs_done: int
    jobs_failed: int
    smoke: bool
    #: the smoke cycle's end-to-end job ETag (None in foreground mode)
    smoke_etag: Optional[str] = None
    #: whether the daemon recorded finished jobs to a run ledger
    ledger_enabled: bool = False
    #: runs listed by /v1/runs during the smoke cycle (None outside it)
    smoke_runs: Optional[int] = None


@register
class ServeAnalysis(Analysis):
    """``serve``: the registry over HTTP/JSON (docs/SERVING.md)."""

    name = "serve"
    workload_arg = False
    ledger_record = False  # infrastructure run, not an analysis result
    wants_collector = True  # traces + /metrics without extra flags
    result_type = ServeResult

    extra_args = (
        Arg("--host", default="127.0.0.1",
            help="interface to bind (default: 127.0.0.1)"),
        Arg("--port", type=int, default=8377,
            help="port to bind; 0 picks an ephemeral port "
                 "(default: 8377)"),
        Arg("--workers", type=int, default=2,
            help="job worker threads (default: 2; 0 accepts but never "
                 "executes -- test mode)"),
        Arg("--queue-size", type=int, default=16, dest="queue_size",
            help="max accepted-but-unstarted jobs before the daemon "
                 "answers 429 (default: 16)"),
        Arg("--idle-reap-s", type=float, default=300.0,
            dest="idle_reap_s",
            help="close sessions idle this many seconds "
                 "(default: 300; 0 disables)"),
        Arg("--cache-dir", metavar="DIR", default=None,
            help="shared artifact cache directory "
                 "(default: $REPRO_CACHE_DIR)"),
        Arg("--no-cache", action="store_true",
            help="serve without a shared artifact cache"),
        Arg("--baseline", metavar="REF", default=None,
            help="pin the dashboard's regression baseline to this "
                 "recorded run (default: earliest run with the same "
                 "config digest)"),
        Arg("--smoke", action="store_true",
            help="boot, run one self-request cycle, shut down "
                 "(CI/test mode)"),
        Arg("--json", action="store_true",
            help="render the post-serve summary as JSON instead of "
                 "text (scripting/CI)"),
    )

    def run(self, session, args: argparse.Namespace) -> ServeResult:
        """Boot the daemon (foreground, or one --smoke cycle)."""
        from repro.obs.ledger import open_ledger
        from repro.serve.server import ReproServer
        from repro.session.lifecycle import SessionManager

        manager = SessionManager(cache_dir=args.cache_dir,
                                 no_cache=args.no_cache)
        # same resolution as the CLI's own recording: explicit dir >
        # $REPRO_LEDGER_DIR > disabled; --no-ledger wins over both
        ledger = open_ledger(getattr(args, "ledger_dir", None),
                             disabled=getattr(args, "no_ledger", False))
        server = ReproServer(manager, host=args.host, port=args.port,
                             workers=args.workers,
                             queue_size=args.queue_size,
                             idle_reap_s=args.idle_reap_s,
                             ledger=ledger, baseline=args.baseline)
        if args.smoke:
            return self._smoke(server, args)
        print(f"repro serve listening on {server.url} "
              f"({args.workers} worker(s), queue {args.queue_size}, "
              f"ledger {'on' if ledger.enabled else 'off'})")
        server.serve_forever()
        return self._result(server, args, smoke=False)

    def _smoke(self, server, args: argparse.Namespace) -> ServeResult:
        """One self-request cycle: health, listing, job, telemetry."""
        from repro.serve.client import ServeClient

        server.start()
        try:
            client = ServeClient(server.url, timeout=10.0)
            assert client.health(), "daemon failed its health check"
            names = {entry["name"] for entry in client.analyses()}
            assert self.name in names, "registry listing is incomplete"
            doc = client.run("workloads", [], timeout=30.0)
            etag = doc["etag"]
            exposition = client.metrics()
            assert "repro_serve_request_ms_count" in exposition, \
                "metrics exposition is missing request telemetry"
            assert "<html" in client.dashboard().lower(), \
                "dashboard endpoint did not answer HTML"
            runs = None
            if server.ledger.enabled:
                runs = int(client.runs()["total"])
                assert runs >= 1, "finished job missing from /v1/runs"
        finally:
            server.stop()
        return self._result(server, args, smoke=True, smoke_etag=etag,
                            smoke_runs=runs)

    def _result(self, server, args: argparse.Namespace, smoke: bool,
                smoke_etag: Optional[str] = None,
                smoke_runs: Optional[int] = None) -> ServeResult:
        return ServeResult(host=server.host, port=server.port,
                           workers=args.workers,
                           queue_size=args.queue_size,
                           jobs_done=server.jobs.jobs_done,
                           jobs_failed=server.jobs.jobs_failed,
                           smoke=smoke, smoke_etag=smoke_etag,
                           ledger_enabled=bool(server.ledger.enabled),
                           smoke_runs=smoke_runs)

    def render(self, result: ServeResult,
               args: argparse.Namespace) -> str:
        """The post-serve summary line(s) (or JSON with ``--json``)."""
        if getattr(args, "json", False):
            return result.to_json()
        lines = [f"== repro serve @ {result.host}:{result.port} "
                 f"({result.workers} worker(s), "
                 f"queue {result.queue_size}) ==",
                 f"jobs: {result.jobs_done} done, "
                 f"{result.jobs_failed} failed, ledger "
                 f"{'on' if result.ledger_enabled else 'off'}"]
        if result.smoke:
            lines.append(f"smoke cycle ok, result etag "
                         f"{(result.smoke_etag or '')[:16]}")
            if result.smoke_runs is not None:
                lines.append(f"ledger lists {result.smoke_runs} run(s)")
        return "\n".join(lines)
