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

import html
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
# HTML report
# ---------------------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em;
       color: #1a1a2e; max-width: 70em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; margin: 1em 0; font-size: 0.9em; }
th, td { border: 1px solid #d0d0e0; padding: 0.3em 0.8em;
         text-align: right; }
th { background: #eef0f8; } td.name, th.name { text-align: left; }
tr.regression td { background: #ffe3e3; font-weight: 600; }
tr.info td { color: #667; }
.bar { display: inline-block; height: 0.8em; background: #5470c6;
       vertical-align: middle; border-radius: 2px; }
.bar.simulate { background: #5470c6; } .bar.build { background: #91cc75; }
.bar.analyze { background: #fac858; } .bar.other { background: #b6a2de; }
.ok { color: #2a7; } .bad { color: #c33; font-weight: 700; }
code { background: #f2f3f8; padding: 0.1em 0.3em; border-radius: 3px; }
td.serial { color: #c33; } td.parallel { color: #2a7; }
td.independent { color: #667; }
"""


def _phase_bars(manifest: Dict[str, Any], max_ms: float) -> str:
    rows = []
    for phase in ("simulate", "build", "analyze", "other"):
        ms = float(manifest.get("phases", {}).get(phase, 0.0))
        width = 0 if max_ms <= 0 else max(1, round(280 * ms / max_ms))
        rows.append(
            f"<tr><td class='name'>{phase}</td>"
            f"<td class='name'><span class='bar {phase}' "
            f"style='width:{width}px'></span></td>"
            f"<td>{ms:.1f} ms</td></tr>")
    return ("<table><tr><th class='name'>phase</th>"
            "<th class='name'>wall-clock</th><th>ms</th></tr>"
            + "".join(rows) + "</table>")


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
            f"{profile.get('processes', 1)} process(es))</p>")
    rows = []
    for row in profile.get("rows", ()):
        cls = html.escape(row.get("classification") or "")
        label = ("cost(%s)" % row["label"] if row["kind"] == "cost"
                 else "icost({%s})" % row["label"]
                 if row["kind"] == "interaction" else row["label"])
        rows.append(
            f"<tr><td class='name'><code>{html.escape(label)}</code></td>"
            f"<td>{float(row['ms']):+.2f}</td>"
            f"<td>{float(row['percent']):+.1f}%</td>"
            f"<td class='{cls or 'name'}'>{cls or '&mdash;'}</td></tr>")
    return (head + "<table><tr><th class='name'>self-icost row</th>"
            "<th>ms</th><th>% of schedule</th><th>class</th></tr>"
            + "".join(rows) + "</table>")


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
    return ("<table>" + "".join(
        f"<tr><td class='name'>{html.escape(str(k))}</td>"
        f"<td class='name'><code>{html.escape(str(v))}</code></td></tr>"
        for k, v in rows) + "</table>")


def render_html_report(manifests: Sequence[Dict[str, Any]],
                       diff: Optional[LedgerDiff] = None,
                       title: str = "repro run-ledger report",
                       paper_deltas: Optional[Dict[str, Tuple[float, float]]]
                       = None) -> str:
    """A self-contained HTML report over *manifests* (newest last).

    With a *diff*, the regression table is included; *paper_deltas*
    (``label -> (measured, paper)``) adds the accuracy-vs-paper
    section bench manifests carry.
    """
    parts = [f"<!doctype html><html><head><meta charset='utf-8'>"
             f"<title>{html.escape(title)}</title>"
             f"<style>{_CSS}</style></head><body>"
             f"<h1>{html.escape(title)}</h1>"]
    if diff is not None:
        count = len(diff.regressions)
        badge = (f"<span class='bad'>{count} regression(s)</span>"
                 if count else "<span class='ok'>no regressions</span>")
        parts.append(
            f"<h2>Diff {html.escape(diff.before_id)} &rarr; "
            f"{html.escape(diff.after_id)}</h2>"
            f"<p>{badge} &mdash; configs "
            f"{'identical' if diff.same_config else 'differ'}</p>")
        parts.append("<table><tr><th class='name'>metric</th>"
                     "<th>before</th><th>after</th><th>delta</th>"
                     "<th>threshold</th><th>verdict</th></tr>")
        for f in diff.findings:
            parts.append(
                f"<tr class='{f.verdict}'>"
                f"<td class='name'>{html.escape(f.metric)}</td>"
                f"<td>{_fmt(f.before)}</td><td>{_fmt(f.after)}</td>"
                f"<td>{_fmt(f.delta)}</td>"
                f"<td class='name'>{html.escape(f.threshold)}</td>"
                f"<td>{f.verdict}</td></tr>")
        parts.append("</table>")
    if paper_deltas:
        parts.append("<h2>Accuracy vs paper</h2>"
                     "<table><tr><th class='name'>metric</th>"
                     "<th>measured</th><th>paper</th><th>delta</th></tr>")
        for label in sorted(paper_deltas):
            measured, paper = paper_deltas[label]
            parts.append(
                f"<tr><td class='name'>{html.escape(label)}</td>"
                f"<td>{measured:.2f}</td><td>{paper:.2f}</td>"
                f"<td>{measured - paper:+.2f}</td></tr>")
        parts.append("</table>")
    max_ms = max((float(m.get("phases", {}).get(p, 0.0))
                  for m in manifests
                  for p in ("simulate", "build", "analyze", "other")),
                 default=0.0)
    for manifest in manifests:
        parts.append(f"<h2>Run <code>"
                     f"{html.escape(manifest['meta']['run_id'])}"
                     f"</code></h2>")
        parts.append(_manifest_summary(manifest))
        parts.append(_phase_bars(manifest, max_ms))
        parts.append(_selfprofile_section(manifest))
    parts.append("</body></html>")
    return "".join(parts)


# ---------------------------------------------------------------------
# live dashboard (the serve daemon's GET /dashboard)
# ---------------------------------------------------------------------

def _sparkline(values: Sequence[float], width: int = 280,
               height: int = 36) -> str:
    """An inline SVG sparkline (self-contained, no external assets)."""
    points = [float(v) for v in values]
    if not points:
        return "<span class='info'>no samples yet</span>"
    hi = max(points) or 1.0
    lo = min(points)
    span = (hi - lo) or 1.0
    n = len(points)
    step = width / max(1, n - 1)
    coords = " ".join(
        f"{i * step if n > 1 else width / 2:.1f},"
        f"{height - 2 - (height - 4) * (v - lo) / span:.1f}"
        for i, v in enumerate(points))
    return (f"<svg width='{width}' height='{height}' "
            f"viewBox='0 0 {width} {height}'>"
            f"<polyline points='{coords}' fill='none' "
            f"stroke='#5470c6' stroke-width='1.5'/></svg>"
            f"<span class='info'> {points[-1]:.1f} ms last, "
            f"{hi:.1f} ms peak ({n} sample(s))</span>")


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
    cells = "".join(
        f"<td><div class='info'>{html.escape(label)}</div>"
        f"<div class='stat'>{html.escape(value)}</div></td>"
        for label, value in tiles)
    return f"<table class='tiles'><tr>{cells}</tr></table>"


def _route_table(routes: Sequence[Dict[str, Any]]) -> str:
    if not routes:
        return "<p class='info'>no requests served yet</p>"
    rows = []
    for r in routes:
        count = float(r.get("count", 0)) or 1.0
        rows.append(
            f"<tr><td class='name'><code>"
            f"{html.escape(str(r.get('route')))}</code></td>"
            f"<td>{html.escape(str(r.get('code')))}</td>"
            f"<td>{int(r.get('count', 0))}</td>"
            f"<td>{float(r.get('total_ms', 0.0)) / count:.1f}</td>"
            f"<td>{float(r.get('max_ms', 0.0)):.1f}</td></tr>")
    return ("<table><tr><th class='name'>route</th><th>code</th>"
            "<th>requests</th><th>mean ms</th><th>max ms</th></tr>"
            + "".join(rows) + "</table>")


def _runs_table(runs: Sequence[Dict[str, Any]]) -> str:
    if not runs:
        return ("<p class='info'>no recorded runs (start the daemon "
                "with a ledger directory)</p>")
    rows = []
    for r in runs:
        delta = r.get("baseline_wall_delta_ms")
        regressions = r.get("baseline_regressions")
        if regressions is None:
            verdict = "<td class='info'>&mdash;</td>"
        elif regressions:
            verdict = f"<td class='bad'>{int(regressions)} regression(s)</td>"
        else:
            verdict = "<td class='ok'>ok</td>"
        rows.append(
            f"<tr><td class='name'><code>"
            f"{html.escape(str(r.get('run_id')))}</code></td>"
            f"<td class='name'>{html.escape(str(r.get('recorded')))}</td>"
            f"<td class='name'>{html.escape(str(r.get('analysis')))}</td>"
            f"<td class='name'>{html.escape(str(r.get('workload') or '-'))}"
            f"</td><td>{float(r.get('wall_ms', 0.0)):.0f}</td>"
            f"<td>{'' if delta is None else f'{delta:+.0f}'}</td>"
            f"{verdict}</tr>")
    return ("<table><tr><th class='name'>run</th>"
            "<th class='name'>recorded</th>"
            "<th class='name'>analysis</th>"
            "<th class='name'>workload</th><th>wall ms</th>"
            "<th>&Delta; vs baseline</th><th>verdict</th></tr>"
            + "".join(rows) + "</table>")


def render_dashboard_html(doc: Dict[str, Any]) -> str:
    """The live serve dashboard from one snapshot document.

    *doc* is :meth:`repro.serve.server.ReproServer.dashboard_doc`:
    ``{"url", "stats", "telemetry": {"routes", "samples_ms"},
    "runs", "baseline"}``.  Pure function of the snapshot so tests can
    render without a live daemon; self-contained HTML (inline CSS +
    SVG sparkline, no external assets), sharing the report stylesheet.
    """
    telemetry = doc.get("telemetry", {})
    baseline = doc.get("baseline")
    extra_css = """
.tiles td { border: 1px solid #d0d0e0; padding: 0.6em 1.2em;
            text-align: left; } .stat { font-size: 1.2em;
            font-weight: 600; } .info { color: #667; font-size: 0.85em; }
"""
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>"
        "<meta http-equiv='refresh' content='5'>"
        f"<title>repro serve dashboard</title>"
        f"<style>{_CSS}{extra_css}</style></head><body>"
        f"<h1>repro serve dashboard &mdash; "
        f"<code>{html.escape(str(doc.get('url', '')))}</code></h1>",
        _stat_tiles(doc.get("stats", {})),
        "<h2>Request latency</h2>",
        _sparkline(telemetry.get("samples_ms", ())),
        _route_table(telemetry.get("routes", ())),
        "<h2>Recent runs</h2>",
    ]
    if baseline:
        parts.append(f"<p class='info'>deltas vs pinned baseline "
                     f"<code>{html.escape(str(baseline))}</code></p>")
    parts.append(_runs_table(doc.get("runs", ())))
    parts.append("</body></html>")
    return "".join(parts)
