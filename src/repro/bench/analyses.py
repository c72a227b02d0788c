"""The ``bench``, ``ledger`` and ``selfprofile`` subcommands, registered
like every other analysis.

``repro bench`` runs one declared suite (:mod:`repro.bench.suites`)
and records a ``BENCH_<suite>.json`` summary per invocation; because
it runs through the ordinary dispatch path it also appends a run
manifest to the ledger whenever one is active, which is what makes
benchmark history diffable.

``repro ledger`` is the read side: ``list`` / ``show`` / ``diff`` /
``report`` over the manifests of ``$REPRO_LEDGER_DIR`` (or
``--ledger-dir``), with the regression thresholds of
:class:`repro.obs.ledger.Thresholds` exposed as flags.  It never
writes to the ledger itself (``ledger_record = False``).

``repro selfprofile`` runs the paper's icost analysis on the tool's
own pipeline (:mod:`repro.obs.selfprof`).
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.bench.suites import SUITES
from repro.core.categories import Category
from repro.core.serialize import SerializableResult, register_serializable
from repro.obs.selfprof import SelfProfile
from repro.session.registry import Analysis, Arg, register
from repro.session.session import AnalysisSession


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------

@register_serializable
@dataclass
class BenchCaseResult(SerializableResult):
    """One executed bench case: deterministic metrics, volatile perf."""

    name: str
    metrics: Dict[str, float]
    perf: Dict[str, float]
    wall_ms: float


@register_serializable
@dataclass
class BenchResult(SerializableResult):
    """One ``repro bench`` invocation: a suite's cases plus settings."""

    suite: str
    scale: float
    seed: int
    workloads: Optional[Tuple[str, ...]]
    output: Optional[str]
    cases: Tuple[BenchCaseResult, ...]
    #: the run's own icost profile when --self-icost was passed
    selfprofile: Optional[SelfProfile] = None

    def stable_metrics(self) -> Dict[str, float]:
        """Deterministic accuracy values -> the manifest ``metrics``."""
        merged: Dict[str, float] = {}
        for case in self.cases:
            merged.update(case.metrics)
        return merged

    def perf_metrics(self) -> Dict[str, float]:
        """Timing-derived values -> the manifest ``perf`` section."""
        merged: Dict[str, float] = {}
        for case in self.cases:
            merged.update(case.perf)
            merged[f"{case.name}.wall_ms"] = case.wall_ms
        if self.selfprofile is not None:
            merged["selfprof.total_ms"] = self.selfprofile.total_ms
            merged["selfprof.wall_ms"] = self.selfprofile.wall_ms
            merged["selfprof.coverage"] = self.selfprofile.coverage
        return merged

    def selfprofile_payload(self) -> Optional[Dict[str, object]]:
        """The ledger manifest's ``selfprofile`` section (or None)."""
        return (self.selfprofile.payload()
                if self.selfprofile is not None else None)

    def stable_json(self) -> str:
        """The timing-free rendering the result digest is taken over."""
        return json.dumps({
            "suite": self.suite,
            "scale": self.scale,
            "seed": self.seed,
            "workloads": list(self.workloads) if self.workloads else None,
            "metrics": self.stable_metrics(),
        }, sort_keys=True, separators=(",", ":"))


@register
class BenchAnalysis(Analysis):
    """``bench``: run a declared suite, record ``BENCH_<suite>.json``."""

    name = "bench"
    workload_arg = False
    result_type = BenchResult

    extra_args = (
        Arg("--suite", choices=sorted(SUITES), default="smoke",
            help="declared suite to run (default: smoke)"),
        Arg("--workloads", metavar="NAMES",
            help="comma-separated workload subset (default: each "
                 "case's paper selection)"),
        Arg("--scale", type=float, default=1.0),
        Arg("--seed", type=int, default=0),
        Arg("--best-of", type=int, default=3, dest="best_of",
            metavar="N",
            help="measured repeats per timing-bearing case after one "
                 "warmup run; *_ms perf keys keep the minimum "
                 "(default: 3, 1 disables the repeats)"),
        Arg("--set", action="append", metavar="KEY=VALUE",
            help="machine override layered onto every case's "
                 "config, e.g. --set dl1_latency=4"),
        Arg("-o", "--output", metavar="FILE", default=None,
            help="summary JSON path (default: BENCH_<suite>.json; "
                 "'-' skips the file)"),
        Arg("--self-icost", action="store_true", dest="self_icost",
            help="observe the suite run and append an icost self-"
                 "profile of the tool's own phases (docs/"
                 "OBSERVABILITY.md)"),
    )

    def run(self, session: AnalysisSession,
            args: argparse.Namespace) -> BenchResult:
        """Execute the suite and write the per-invocation summary."""
        from repro.bench.suites import BenchSettings, run_suite

        workloads = (tuple(n.strip() for n in args.workloads.split(","))
                     if args.workloads else None)
        settings = BenchSettings(scale=args.scale, seed=args.seed,
                                 workloads=workloads,
                                 overrides=tuple(args.set or ()),
                                 best_of=args.best_of)
        if args.self_icost:
            outcomes, profile = self._observed_suite(session, args,
                                                     settings)
        else:
            outcomes, profile = run_suite(session, args.suite,
                                          settings), None
        cases = tuple(BenchCaseResult(name=o.name, metrics=o.metrics,
                                      perf=o.perf, wall_ms=o.wall_ms)
                      for o in outcomes)
        output = args.output or f"BENCH_{args.suite}.json"
        if output == "-":
            output = None
        result = BenchResult(suite=args.suite, scale=args.scale,
                             seed=args.seed, workloads=workloads,
                             output=output, cases=cases,
                             selfprofile=profile)
        if output:
            self._write_summary(output, result)
        return result

    def _observed_suite(self, session: AnalysisSession,
                        args: argparse.Namespace, settings):
        """Run the suite under a private collector and self-profile it."""
        from repro import obs
        from repro.bench.suites import run_suite
        from repro.obs.selfprof import self_profile

        previous = obs.collector()
        own = obs.enable(obs.Collector())
        try:
            t0 = time.perf_counter()
            with obs.span("selfprof.run", suite=args.suite):
                outcomes = run_suite(session, args.suite, settings)
            wall_ms = (time.perf_counter() - t0) * 1e3
        finally:
            obs.disable()
            if previous is not None:
                obs.enable(previous)
                previous.absorb(own.export_spans())
        return outcomes, self_profile(own, wall_ms=wall_ms)

    def _write_summary(self, path: str, result: BenchResult) -> None:
        """One ``BENCH_<suite>.json`` per invocation (docs/OBSERVABILITY.md
        records the refresh procedure)."""
        from repro.obs.ledger.manifest import host_info

        payload = {
            "suite": result.suite,
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "host": host_info(),
            "settings": {
                "scale": result.scale,
                "seed": result.seed,
                "workloads": (list(result.workloads)
                              if result.workloads else None),
            },
            "cases": [{
                "name": case.name,
                "wall_ms": case.wall_ms,
                "metrics": case.metrics,
                "perf": case.perf,
            } for case in result.cases],
        }
        if result.selfprofile is not None:
            payload["selfprofile"] = result.selfprofile.payload()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self, result: BenchResult,
               args: argparse.Namespace) -> str:
        """Per-case wall/metric summary plus the headline perf values."""
        lines = [f"== bench suite: {result.suite} "
                 f"(scale={result.scale:g}, seed={result.seed}) ==",
                 f"{'case':<12}{'wall ms':>10}{'metrics':>9}{'perf':>6}"]
        for case in result.cases:
            lines.append(f"{case.name:<12}{case.wall_ms:>10.1f}"
                         f"{len(case.metrics):>9}{len(case.perf):>6}")
        headlines = {name: value
                     for case in result.cases
                     for name, value in case.perf.items()
                     if "speedup" in name}
        for name in sorted(headlines):
            lines.append(f"{name}: {headlines[name]:.2f}x")
        if result.selfprofile is not None:
            from repro.obs.selfprof import render_self_profile

            lines.append("")
            lines.append(render_self_profile(result.selfprofile))
        if result.output:
            lines.append(f"wrote {result.output}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# ledger
# ----------------------------------------------------------------------

@register_serializable
@dataclass
class LedgerResult(SerializableResult):
    """One ``repro ledger`` action: its rendered text plus verdicts."""

    action: str
    text: str
    regressions: int = 0
    html: Optional[str] = None


@register
class LedgerAnalysis(Analysis):
    """``ledger``: inspect the run ledger and detect regressions."""

    name = "ledger"
    workload_arg = False
    ledger_record = False  # reading history must not rewrite it
    result_type = LedgerResult
    extra_args = (
        Arg("action", choices=("list", "show", "diff", "report"),
            help="list runs, show one manifest, diff two runs, or "
                 "render the HTML regression report"),
        Arg("refs", nargs="*",
            help="run references: id prefix or negative index "
                 "(-1 = latest); diff defaults to '-2 -1'"),
        Arg("--baseline", metavar="REF", default=None,
            help="pinned baseline run for diff/report (overrides the "
                 "first positional ref)"),
        Arg("--html", metavar="FILE", default=None,
            help="also write the self-contained HTML report here "
                 "(report defaults to ledger_report.html)"),
        Arg("--threshold-pp", type=float, default=1.0, metavar="PP",
            help="max accuracy-metric drift in percentage points"),
        Arg("--threshold-speedup", type=float, default=0.8, metavar="R",
            help="min acceptable after/before speedup ratio"),
        Arg("--threshold-hit-rate", type=float, default=0.1, metavar="D",
            help="max acceptable cache hit-rate drop"),
        Arg("--threshold-sims", type=int, default=0, metavar="N",
            help="max acceptable growth of the simulator-run count"),
    )

    def run(self, session: AnalysisSession,
            args: argparse.Namespace) -> LedgerResult:
        """Dispatch on the action against the configured ledger."""
        from repro.obs.ledger import open_ledger

        ledger = open_ledger(getattr(args, "ledger_dir", None))
        if not ledger.enabled:
            return LedgerResult(
                action=args.action,
                text="run ledger is disabled "
                     "(set $REPRO_LEDGER_DIR or pass --ledger-dir)")
        handler = getattr(self, f"_{args.action}")
        return handler(ledger, args)

    def _thresholds(self, args: argparse.Namespace):
        from repro.obs.ledger import Thresholds

        return Thresholds(breakdown_pp=args.threshold_pp,
                          speedup_ratio=args.threshold_speedup,
                          cache_hit_drop=args.threshold_hit_rate,
                          simulate_runs=args.threshold_sims)

    def _list(self, ledger, args: argparse.Namespace) -> LedgerResult:
        # listing goes through the sidecar index (O(page) reads), the
        # same path the serve daemon's /v1/runs endpoint uses
        page = ledger.page(limit=None)
        if not page["runs"]:
            return LedgerResult(action="list",
                                text=f"ledger {ledger.path}: no runs")
        lines = [f"== run ledger: {ledger.path} "
                 f"({page['total']} run(s)) ==",
                 f"{'run id':<14}{'recorded':<21}{'command':<12}"
                 f"{'workload':<10}config"]
        for row in reversed(page["runs"]):  # append order, oldest first
            lines.append(
                f"{row['run_id']:<14}{row['recorded']:<21}"
                f"{row['analysis']:<12}{row['workload'] or '-':<10}"
                f"{row['config_digest']}")
        if page.get("skipped_lines"):
            lines.append(f"({page['skipped_lines']} malformed "
                         f"line(s) skipped)")
        return LedgerResult(action="list", text="\n".join(lines))

    def _show(self, ledger, args: argparse.Namespace) -> LedgerResult:
        ref = args.refs[0] if args.refs else "-1"
        manifest = ledger.get(ref)
        return LedgerResult(
            action="show",
            text=json.dumps(manifest, indent=2, sort_keys=True))

    def _resolve_pair(self, ledger, args: argparse.Namespace):
        refs = list(args.refs)
        if args.baseline is not None:
            before = ledger.get(args.baseline)
            after = ledger.get(refs[0] if refs else "-1")
            return before, after
        if len(refs) >= 2:
            return ledger.get(refs[0]), ledger.get(refs[1])
        if len(refs) == 1:
            return ledger.get("-2"), ledger.get(refs[0])
        return ledger.get("-2"), ledger.get("-1")

    def _diff(self, ledger, args: argparse.Namespace) -> LedgerResult:
        from repro.obs.ledger import (
            diff_manifests,
            render_diff_table,
            render_html_report,
        )

        before, after = self._resolve_pair(ledger, args)
        diff = diff_manifests(before, after, self._thresholds(args))
        text = render_diff_table(diff)
        html = None
        if args.html:
            html = args.html
            with open(html, "w", encoding="utf-8") as handle:
                handle.write(render_html_report(
                    [before, after], diff,
                    title=f"ledger diff {diff.before_id} -> "
                          f"{diff.after_id}"))
            text += f"\nwrote {html}"
        return LedgerResult(action="diff", text=text,
                            regressions=len(diff.regressions), html=html)

    def _report(self, ledger, args: argparse.Namespace) -> LedgerResult:
        from repro.obs.ledger import (
            diff_manifests,
            render_diff_table,
            render_html_report,
        )

        runs = ledger.runs()
        if ledger.read_errors:  # the CI schema gate
            raise SystemExit(
                "ledger report: malformed manifest(s) in "
                f"{ledger.path}:\n  " + "\n  ".join(ledger.read_errors))
        if not runs:
            return LedgerResult(action="report",
                                text=f"ledger {ledger.path}: no runs")
        diff = None
        text_parts = [f"== ledger report: {ledger.path} "
                      f"({len(runs)} run(s)) =="]
        if args.baseline is not None or len(runs) >= 2:
            before = (ledger.get(args.baseline)
                      if args.baseline is not None else runs[-2])
            diff = diff_manifests(before, runs[-1],
                                  self._thresholds(args))
            text_parts.append(render_diff_table(diff, show_info=False))
        html = args.html or "ledger_report.html"
        with open(html, "w", encoding="utf-8") as handle:
            handle.write(render_html_report(runs[-5:], diff))
        text_parts.append(f"wrote {html}")
        return LedgerResult(
            action="report", text="\n".join(text_parts),
            regressions=len(diff.regressions) if diff else 0, html=html)

    def render(self, result: LedgerResult,
               args: argparse.Namespace) -> str:
        """The action's pre-rendered text."""
        return result.text


# ----------------------------------------------------------------------
# selfprofile
# ----------------------------------------------------------------------

@register_serializable
@dataclass
class SelfProfileResult(SerializableResult):
    """The tool's own icost profile (docs/OBSERVABILITY.md)."""

    workload: str
    jobs: int
    approx: int
    profile: SelfProfile

    def perf_metrics(self) -> Dict[str, float]:
        """Machine-speed-dependent numbers for the ledger's perf section."""
        return {"selfprof.total_ms": self.profile.total_ms,
                "selfprof.wall_ms": self.profile.wall_ms,
                "selfprof.coverage": self.profile.coverage}

    def selfprofile_payload(self) -> Dict[str, object]:
        """The ledger manifest's ``selfprofile`` section."""
        return self.profile.payload()


@register
class SelfProfileAnalysis(Analysis):
    """``selfprofile``: the paper's icost analysis on the tool itself.

    Runs the full pipeline (simulate -> build -> analyze) on a workload
    while observing it with :mod:`repro.obs`, lowers the recorded span
    forest into the same :class:`repro.graph.DependenceGraph` machinery
    every other analysis uses, and reports cost/icost of the tool's own
    phases -- including the serial/parallel/independent classification
    of every phase pair.
    """

    name = "selfprofile"
    pipeline_args = "approx"
    result_type = SelfProfileResult

    def run(self, session: AnalysisSession,
            args: argparse.Namespace) -> SelfProfileResult:
        """Observe one pipeline run, then self-profile the spans."""
        import time

        from repro import obs
        from repro.core import interaction_breakdown
        from repro.obs.selfprof import self_profile
        from repro.pipeline import PipelineOptions, run_pipeline

        # resolve (and possibly generate) the trace before observation
        # starts: workload synthesis is setup, not pipeline
        trace = session.trace
        previous = obs.collector()
        own = obs.enable(obs.Collector())
        try:
            t0 = time.perf_counter()
            with obs.span("selfprof.run", workload=args.workload):
                provider = run_pipeline(
                    trace, config=session.machine,
                    options=PipelineOptions(
                        jobs=args.jobs, approx=args.approx,
                        cache_dir=args.cache_dir, no_cache=args.no_cache,
                        engine="batched", sim_engine=session.run.sim_engine))
                interaction_breakdown(provider, focus=Category.DL1,
                                      workload=args.workload)
                provider.close()
            wall_ms = (time.perf_counter() - t0) * 1e3
        finally:
            obs.disable()
            if previous is not None:
                obs.enable(previous)
                previous.absorb(own.export_spans())
        profile = self_profile(own, wall_ms=wall_ms)
        return SelfProfileResult(workload=args.workload, jobs=args.jobs,
                                 approx=args.approx, profile=profile)

    def render(self, result: SelfProfileResult,
               args: argparse.Namespace) -> str:
        """The self-profile tables (costs, then pairwise interactions)."""
        from repro.obs.selfprof import render_self_profile

        head = (f"{result.workload}: self-profile of the pipeline "
                f"(--jobs {result.jobs} --approx {result.approx})")
        return head + "\n" + render_self_profile(result.profile)
