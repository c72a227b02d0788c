"""Regression detection and reporting over ledger manifests.

``repro ledger diff A B`` compares two manifests (or a run against a
pinned baseline) along the axes the tentpole analyses care about:

- **accuracy** -- every shared ``metrics`` value (breakdown rows in
  percentage points, bench error figures) within a configurable
  absolute deviation (``--threshold-pp``);
- **throughput** -- timing-derived ``perf`` metrics (engine/pipeline
  speedups): a drop below ``--threshold-speedup`` x baseline is a
  regression;
- **efficiency** -- the cache hit rate derived from the session and
  artifact-cache counters must not fall by more than
  ``--threshold-hit-rate``; the ``session.simulate`` simulator-run
  count must not grow by more than ``--threshold-sims`` runs;
- **phases** -- simulate/build/analyze wall-clock ratios, reported for
  context but never flagged (wall-clock across hosts is not a
  contract).

The same :class:`LedgerDiff` renders as a terminal table (in the
``--metrics`` style of :mod:`repro.obs.metrics`) and as a
self-contained HTML report with per-phase timing bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.viz.page import Cell, Html, bar, code, esc, page, sparkline, table

__all__ = [
    "Thresholds",
    "Finding",
    "LedgerDiff",
    "diff_manifests",
    "render_diff_table",
    "render_html_report",
    "render_dashboard_html",
]


@dataclass(frozen=True)
class Thresholds:
    """The configurable regression gates of ``repro ledger diff``."""

    #: max absolute drift of an accuracy metric, in percentage points
    breakdown_pp: float = 1.0
    #: min acceptable (after / before) ratio of a speedup metric
    speedup_ratio: float = 0.8
    #: max acceptable drop of the cache hit rate (0.1 = 10 points)
    cache_hit_drop: float = 0.1
    #: max acceptable growth of the simulator-run count, in runs
    simulate_runs: int = 0


@dataclass(frozen=True)
class Finding:
    """One compared quantity, with its verdict."""

    metric: str
    before: Optional[float]
    after: Optional[float]
    delta: float
    threshold: str
    #: "ok" | "regression" | "info" (never gated)
    verdict: str = "ok"

    @property
    def regressed(self) -> bool:
        return self.verdict == "regression"


@dataclass
class LedgerDiff:
    """Everything ``diff``/``report`` derived from two manifests."""

    before_id: str
    after_id: str
    before_command: str
    after_command: str
    same_config: bool
    findings: List[Finding] = field(default_factory=list)

    @property
    def regressions(self) -> List[Finding]:
        return [f for f in self.findings if f.regressed]


def _cache_hit_rate(counters: Dict[str, Any]) -> Optional[float]:
    """Aggregate cache hit rate of one run (None when nothing cached)."""
    hits = misses = 0.0
    for name, value in counters.items():
        if name.endswith((".memo_hit", ".cache_hit")) or \
                name.endswith(".hit") and ".cache" in name:
            hits += value
        elif name == "session.simulate" or \
                (name.endswith(".miss") and ".cache" in name):
            misses += value
    if not hits and not misses:
        return None
    return hits / (hits + misses)


def diff_manifests(before: Dict[str, Any], after: Dict[str, Any],
                   thresholds: Optional[Thresholds] = None) -> LedgerDiff:
    """Compare two manifests; returns the full finding list."""
    t = thresholds or Thresholds()
    diff = LedgerDiff(
        before_id=before["meta"]["run_id"],
        after_id=after["meta"]["run_id"],
        before_command=before["run"]["command"],
        after_command=after["run"]["command"],
        same_config=(before["run"]["config_digest"]
                     == after["run"]["config_digest"]),
    )
    findings = diff.findings

    # accuracy metrics: shared keys, absolute pp deviation
    a_metrics, b_metrics = before.get("metrics", {}), after.get("metrics", {})
    for name in sorted(set(a_metrics) & set(b_metrics)):
        b, a = float(a_metrics[name]), float(b_metrics[name])
        delta = a - b
        findings.append(Finding(
            metric=name, before=b, after=a, delta=delta,
            threshold=f"|delta| <= {t.breakdown_pp:g} pp",
            verdict="regression" if abs(delta) > t.breakdown_pp else "ok"))
    for name in sorted(set(a_metrics) ^ set(b_metrics)):
        source = a_metrics if name in a_metrics else b_metrics
        findings.append(Finding(
            metric=name, before=a_metrics.get(name), after=b_metrics.get(name),
            delta=0.0, threshold="present in one run only", verdict="info"))

    # throughput: speedup-named perf metrics gate on the ratio (labels
    # such as ``trace_source`` are not numbers and are not compared)
    a_perf, b_perf = before.get("perf", {}), after.get("perf", {})
    for name in sorted(set(a_perf) & set(b_perf)):
        if isinstance(a_perf[name], str) or isinstance(b_perf[name], str):
            continue
        b, a = float(a_perf[name]), float(b_perf[name])
        if "speedup" in name and b > 0:
            ratio = a / b
            findings.append(Finding(
                metric=name, before=b, after=a, delta=a - b,
                threshold=f"after/before >= {t.speedup_ratio:g}",
                verdict="regression" if ratio < t.speedup_ratio else "ok"))
        else:
            findings.append(Finding(
                metric=f"perf.{name}", before=b, after=a, delta=a - b,
                threshold="informational", verdict="info"))

    # efficiency: cache hit rate and simulator-run count
    a_rate = _cache_hit_rate(before.get("counters", {}))
    b_rate = _cache_hit_rate(after.get("counters", {}))
    if a_rate is not None and b_rate is not None:
        drop = a_rate - b_rate
        findings.append(Finding(
            metric="cache.hit_rate", before=round(a_rate, 4),
            after=round(b_rate, 4), delta=round(-drop, 4),
            threshold=f"drop <= {t.cache_hit_drop:g}",
            verdict="regression" if drop > t.cache_hit_drop else "ok"))
    a_sims = before.get("counters", {}).get("session.simulate")
    b_sims = after.get("counters", {}).get("session.simulate")
    if a_sims is not None or b_sims is not None:
        a_sims, b_sims = float(a_sims or 0), float(b_sims or 0)
        grown = b_sims - a_sims
        findings.append(Finding(
            metric="session.simulate", before=a_sims, after=b_sims,
            delta=grown,
            threshold=f"growth <= {t.simulate_runs:g} run(s)",
            verdict="regression" if (diff.same_config
                                     and grown > t.simulate_runs)
            else ("info" if not diff.same_config else "ok")))

    # phase wall-clock: context only
    for phase in ("simulate", "build", "analyze", "other"):
        b = float(before.get("phases", {}).get(phase, 0.0))
        a = float(after.get("phases", {}).get(phase, 0.0))
        if b or a:
            findings.append(Finding(
                metric=f"phase.{phase}_ms", before=b, after=a,
                delta=a - b, threshold="informational", verdict="info"))
    return diff


# ---------------------------------------------------------------------
# terminal rendering
# ---------------------------------------------------------------------

def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.3f}"


def render_diff_table(diff: LedgerDiff,
                      show_info: bool = True) -> str:
    """The ``repro ledger diff`` terminal table."""
    out = [f"== ledger diff: {diff.before_id} -> {diff.after_id} "
           f"({diff.before_command} -> {diff.after_command}) =="]
    out.append("configs are identical" if diff.same_config
               else "configs DIFFER (config_digest changed)")
    count = len(diff.regressions)
    out.append(f"regressions: {count}" if count else "regressions: none")
    out.append("")
    out.append(f"{'metric':<36}{'before':>12}{'after':>12}"
               f"{'delta':>12}  verdict")
    for finding in diff.findings:
        if finding.verdict == "info" and not show_info:
            continue
        out.append(
            f"{finding.metric:<36}{_fmt(finding.before):>12}"
            f"{_fmt(finding.after):>12}{_fmt(finding.delta):>12}"
            f"  {finding.verdict.upper() if finding.regressed else finding.verdict}")
    return "\n".join(out)


# ---------------------------------------------------------------------
# HTML report (built from the page primitives of repro.viz.page)
# ---------------------------------------------------------------------

_PHASES = ("simulate", "build", "analyze", "other")


def _phase_bars(manifest: Dict[str, Any], max_ms: float) -> str:
    ms = {p: float(manifest.get("phases", {}).get(p, 0.0)) for p in _PHASES}
    return table(("phase", "wall-clock", "ms"),
                 ((p, bar(ms[p], max_ms, p), f"{ms[p]:.1f} ms")
                  for p in _PHASES), align="llr")


def _selfprofile_section(manifest: Dict[str, Any]) -> str:
    """The run's icost self-profile, when the manifest carries one.

    Renders next to the phase bars: the coverage headline, then the
    ``cost(S)`` / ``icost({a,b})`` rows with the serial / parallel /
    independent classification colour-coded.
    """
    profile = manifest.get("selfprofile")
    if not profile:
        return ""
    coverage = float(profile.get("coverage", 0.0))
    head = (f"<p>self-profile: modeled schedule "
            f"{float(profile.get('total_ms', 0.0)):.1f} ms of "
            f"{float(profile.get('wall_ms', 0.0)):.1f} ms wall "
            f"({100.0 * coverage:.1f}% accounted, "
            f"{esc(profile.get('processes', 1))} process(es))</p>")
    rows = []
    for row in profile.get("rows", ()):
        cls = row.get("classification") or ""
        label = ("cost(%s)" % row["label"] if row["kind"] == "cost"
                 else "icost({%s})" % row["label"]
                 if row["kind"] == "interaction" else row["label"])
        rows.append((code(label), f"{float(row['ms']):+.2f}",
                     f"{float(row['percent']):+.1f}%",
                     Cell(cls or "\u2014", cls or "name")))
    return head + table(("self-icost row", "ms", "% of schedule", "class"),
                        rows)


def _approx_windows(run: Dict[str, Any]) -> int:
    """The ``--approx`` window count a run section records (0 = exact).

    Older manifests recorded a ``windows`` count beside a boolean
    ``approx``; windowed mode then needed both.
    """
    approx = run.get("approx")
    if isinstance(approx, bool) or approx is None:
        windows = run.get("windows") or 1
        return windows if approx and windows > 1 else 0
    return approx


def _manifest_summary(manifest: Dict[str, Any]) -> str:
    meta, run = manifest["meta"], manifest["run"]
    rows = [
        ("run id", meta["run_id"]),
        ("recorded", meta["timestamp"]),
        ("command", run["command"]),
        ("config digest", run["config_digest"][:16]),
        ("trace fingerprint", (run.get("trace_fingerprint") or "-")[:16]),
        ("workload", str(run["config"].get("workload"))),
        ("engine / jobs / approx",
         f"{run.get('engine') or 'default'} / {run.get('jobs')}"
         f" / {_approx_windows(run)}"),
        ("host", meta["host"].get("hostname", "?")),
        ("wall", f"{manifest.get('perf', {}).get('wall_ms', 0):.0f} ms"),
    ]
    return table(None, ((name, code(value)) for name, value in rows),
                 align="l")


def render_html_report(manifests: Sequence[Dict[str, Any]],
                       diff: Optional[LedgerDiff] = None,
                       title: str = "repro run-ledger report") -> str:
    """A self-contained HTML report over *manifests* (newest last).

    With a *diff*, the regression table is included.
    """
    parts = [f"<h1>{esc(title)}</h1>"]
    if diff is not None:
        count = len(diff.regressions)
        badge = (f"<span class='bad'>{count} regression(s)</span>"
                 if count else "<span class='ok'>no regressions</span>")
        parts += [
            f"<h2>Diff {esc(diff.before_id)} &rarr; {esc(diff.after_id)}"
            f"</h2><p>{badge} &mdash; configs "
            f"{'identical' if diff.same_config else 'differ'}</p>",
            table(("metric", "before", "after", "delta", "threshold",
                   "verdict"),
                  ((f.metric, _fmt(f.before), _fmt(f.after), _fmt(f.delta),
                    f.threshold, f.verdict) for f in diff.findings),
                  align="lrrrlr",
                  row_classes=[f.verdict for f in diff.findings])]
    max_ms = max((float(m.get("phases", {}).get(p, 0.0))
                  for m in manifests for p in _PHASES), default=0.0)
    for manifest in manifests:
        parts += [f"<h2>Run {code(manifest['meta']['run_id'])}</h2>",
                  _manifest_summary(manifest), _phase_bars(manifest, max_ms),
                  _selfprofile_section(manifest)]
    return page(title, *parts)


# ---------------------------------------------------------------------
# live dashboard (the serve daemon's GET /dashboard)
# ---------------------------------------------------------------------

def _latency(samples_ms: Sequence[float]) -> str:
    """The request-latency sparkline and its caption."""
    points = [float(v) for v in samples_ms]
    if not points:
        return "<span class='info'>no samples yet</span>"
    return (f"{sparkline(points)}<span class='info'> {points[-1]:.1f} ms "
            f"last, {max(points):.1f} ms peak ({len(points)} sample(s))"
            f"</span>")


def _stat_tiles(stats: Dict[str, Any]) -> str:
    cache = stats.get("cache", {})
    tiles = [
        ("queue depth", f"{stats.get('queue_depth', 0)}"
                        f" / {stats.get('queue_size', 0)}"),
        ("jobs", f"{stats.get('jobs_done', 0)} done, "
                 f"{stats.get('jobs_failed', 0)} failed"),
        ("sessions", f"{stats.get('sessions_active', 0)} active"),
        ("cache", f"{cache.get('hits', 0)} hit / "
                  f"{cache.get('misses', 0)} miss"),
        ("cache pressure", f"{cache.get('evictions', 0)} evicted, "
                           f"{cache.get('quarantined', 0)} quarantined"),
    ]
    return table(None, [[Html(f"<div class='info'>{esc(label)}</div>"
                               f"<div class='stat'>{esc(value)}</div>")
                          for label, value in tiles]], align="l")


def _route_table(routes: Sequence[Dict[str, Any]]) -> str:
    if not routes:
        return "<p class='info'>no requests served yet</p>"
    rows = []
    for r in routes:
        count = float(r.get("count", 0)) or 1.0
        rows.append((code(r.get("route")), r.get("code"),
                     int(r.get("count", 0)),
                     f"{float(r.get('total_ms', 0.0)) / count:.1f}",
                     f"{float(r.get('max_ms', 0.0)):.1f}"))
    return table(("route", "code", "requests", "mean ms", "max ms"), rows)


def _runs_table(runs: Sequence[Dict[str, Any]]) -> str:
    if not runs:
        return ("<p class='info'>no recorded runs (start the daemon "
                "with a ledger directory)</p>")
    rows = []
    for r in runs:
        delta = r.get("baseline_wall_delta_ms")
        regressions = r.get("baseline_regressions")
        verdict = (Cell("\u2014", "info") if regressions is None
                   else Cell(f"{int(regressions)} regression(s)", "bad")
                   if regressions else Cell("ok", "ok"))
        rows.append((code(r.get("run_id")), r.get("recorded"),
                     r.get("analysis"), r.get("workload") or "-",
                     f"{float(r.get('wall_ms', 0.0)):.0f}",
                     "" if delta is None else f"{delta:+.0f}", verdict))
    return table(("run", "recorded", "analysis", "workload", "wall ms",
                  "\u0394 vs baseline", "verdict"), rows, align="llllr")


def render_dashboard_html(doc: Dict[str, Any]) -> str:
    """The live serve dashboard from one snapshot document.

    *doc* is :meth:`repro.serve.server.ReproServer.dashboard_doc`:
    ``{"url", "stats", "telemetry": {"routes", "samples_ms"},
    "runs", "baseline"}``.  Pure function of the snapshot so tests can
    render without a live daemon; the page refreshes itself every 5 s.
    """
    telemetry = doc.get("telemetry", {})
    baseline = doc.get("baseline")
    parts = [
        f"<h1>repro serve dashboard &mdash; {code(doc.get('url', ''))}</h1>",
        _stat_tiles(doc.get("stats", {})),
        "<h2>Request latency</h2>",
        _latency(telemetry.get("samples_ms", ())),
        _route_table(telemetry.get("routes", ())),
        "<h2>Recent runs</h2>",
    ]
    if baseline:
        parts.append(f"<p class='info'>deltas vs pinned baseline "
                     f"{code(baseline)}</p>")
    parts.append(_runs_table(doc.get("runs", ())))
    return page("repro serve dashboard", *parts, refresh=5)
