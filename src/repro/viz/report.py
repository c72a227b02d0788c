"""Self-contained HTML analysis reports.

One file, no external assets: breakdown table, stacked-bar and
interaction-matrix SVGs inline, the workload characterization line and
the machine configuration -- the artefact you attach to a design
review.  Everything is computed from a single simulation via the graph
provider, and the page is built from :mod:`repro.viz.page`.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.characterize import characterize_provider
from repro.analysis.matrix import interaction_matrix
from repro.core.breakdown import interaction_breakdown
from repro.core.categories import Category
from repro.session import AnalysisSession
from repro.uarch.config import MachineConfig
from repro.viz.charts import matrix_heatmap_svg, stacked_bar_svg
from repro.viz.page import Cell, esc, page, table
from repro.viz.timeline import pipeline_timeline_svg


def _percent_cell(entry) -> object:
    """A breakdown row's percent; interactions signed and coloured."""
    if entry.kind != "interaction":
        return f"{entry.percent:.1f}"
    tone = "serial" if entry.percent < -0.5 else (
        "parallel" if entry.percent > 0.5 else "")
    return Cell(f"{entry.percent:+.1f}", tone)


def html_report(trace, config: Optional[MachineConfig] = None,
                focus: Optional[Category] = Category.DL1,
                timeline_window: int = 48, session=None) -> str:
    """Render a full single-workload analysis as an HTML document.

    One simulation and one graph build, through *session* (the caller's
    :class:`AnalysisSession`, so its caches and engines) or a throwaway.
    """
    if session is None:
        session = AnalysisSession.for_trace(trace, config=config)
    provider = session.graph_provider(config=config, trace=trace)
    result = provider.result
    cfg = result.config
    breakdown = interaction_breakdown(provider, focus=focus,
                                      workload=trace.name)
    matrix = interaction_matrix(provider, workload=trace.name)
    fingerprint = characterize_provider(provider, trace.name)

    bar = stacked_bar_svg({trace.name: breakdown}).render()
    heat = matrix_heatmap_svg(matrix).render()
    start = min(len(result.events) // 2,
                max(0, len(result.events) - timeline_window))
    timeline = pipeline_timeline_svg(result, start=start,
                                     count=timeline_window).render()

    serial = matrix.strongest_serial()
    parallel = matrix.strongest_parallel()
    return page(
        f"icost report: {trace.name}",
        f"<h1>Interaction-cost report: {esc(trace.name)}</h1>"
        f"<p>{len(result.events)} instructions, {result.cycles} cycles\n"
        f"(IPC {result.ipc:.2f}).</p>"
        f"<div class='advice'>{esc(fingerprint.advice())}<br>\n"
        f"strongest serial pair: {serial[0].value}+{serial[1].value}\n"
        f"({serial[2]:+.1f}%);\n"
        f"strongest parallel pair: {parallel[0].value}+{parallel[1].value}\n"
        f"({parallel[2]:+.1f}%)</div>"
        "<h2>Breakdown</h2>",
        table(("category", "% of time", "cycles"),
              ((entry.label, _percent_cell(entry), f"{entry.cycles:.0f}")
               for entry in breakdown.entries),
              row_classes=[entry.kind for entry in breakdown.entries]),
        f"<figure>{bar}</figure><h2>Pairwise interactions</h2>"
        f"<figure>{heat}</figure>"
        f"<h2>Pipeline timeline (sample window)</h2>"
        f"<figure>{timeline}</figure><h2>Machine</h2>",
        table(("parameter", "value"), (
            ("window", cfg.window_size), ("width", cfg.issue_width),
            ("dl1 latency", cfg.dl1_latency), ("L2 latency", cfg.l2_latency),
            ("memory latency", cfg.memory_latency),
            ("recovery", cfg.mispredict_recovery),
            ("issue wakeup", cfg.issue_wakeup),
        )))


def save_report(trace, path, config: Optional[MachineConfig] = None,
                focus: Optional[Category] = Category.DL1,
                session=None) -> None:
    """Write :func:`html_report` output to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(html_report(trace, config, focus, session=session))
