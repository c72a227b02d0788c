"""Phase analysis: how the bottleneck mix evolves over an execution.

The paper's closing pitch is analysing "real workloads ... on real
hardware, such as large web servers running a database" -- long-running
programs whose bottlenecks change over time.  This module processes an
execution in segments, produces one cost vector per segment, detects
phase changes as jumps in that vector, and renders the result as an
SVG strip chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.adaptive import slice_trace
from repro.core.categories import BASE_CATEGORIES, Category
from repro.core.serialize import register_serializable
from repro.isa.trace import Trace
from repro.uarch.config import MachineConfig


@register_serializable
@dataclass
class SegmentProfile:
    """One segment's cost vector (percent of segment time)."""

    index: int
    start: int
    length: int
    cycles: int
    costs: Dict[str, float]

    def dominant(self) -> str:
        """The largest category in this segment's vector."""
        return max(self.costs, key=self.costs.get)


def segment_profiles(trace: Trace, segment_length: int = 500,
                     config: Optional[MachineConfig] = None,
                     categories: Sequence[Category] = BASE_CATEGORIES,
                     session=None) -> List[SegmentProfile]:
    """Per-segment cost vectors over the whole trace.

    Each segment is simulated through the session (ephemeral when none
    is given), so repeated phase analyses of the same execution reuse
    cached per-segment runs.
    """
    if session is None:
        from repro.session import AnalysisSession

        session = AnalysisSession.for_trace(trace, config=config)
    profiles: List[SegmentProfile] = []
    n = len(trace.insts)
    for index, start in enumerate(range(0, n, segment_length)):
        segment = slice_trace(trace, start, segment_length)
        provider = session.graph_provider(config=config, trace=segment)
        total = provider.total
        costs = {c.value: 100.0 * provider.cost([c]) / total
                 for c in categories}
        profiles.append(SegmentProfile(
            index=index, start=start, length=len(segment.insts),
            cycles=int(total), costs=costs))
    return profiles


def profile_distance(a: SegmentProfile, b: SegmentProfile) -> float:
    """L1 distance between two segments' cost vectors (pct points)."""
    keys = set(a.costs) | set(b.costs)
    return sum(abs(a.costs.get(k, 0.0) - b.costs.get(k, 0.0)) for k in keys)


def detect_phase_changes(profiles: Sequence[SegmentProfile],
                         threshold: float = 30.0) -> List[int]:
    """Segment indices whose cost vector jumped from the previous one."""
    changes: List[int] = []
    for prev, cur in zip(profiles, profiles[1:]):
        if profile_distance(prev, cur) > threshold:
            changes.append(cur.index)
    return changes


def render_phase_table(profiles: Sequence[SegmentProfile]) -> str:
    """One line per segment: cycles, dominant category, full vector."""
    if not profiles:
        return "(no segments)"
    cats = list(profiles[0].costs)
    header = f"{'seg':>4} {'insts':>7} {'cycles':>7} {'dominant':>9} " + \
        "".join(f"{c:>7}" for c in cats)
    lines = [header]
    for p in profiles:
        lines.append(
            f"{p.index:>4} {p.length:>7} {p.cycles:>7} {p.dominant():>9} "
            + "".join(f"{p.costs[c]:>7.1f}" for c in cats))
    return "\n".join(lines)


def phase_strip_svg(profiles: Sequence[SegmentProfile], width: int = 760,
                    height: int = 260):
    """A stacked strip chart: one column per segment, coloured by the
    cost composition -- phase changes are visible as colour shifts."""
    from repro.viz.svg import SvgDocument, color_for

    if not profiles:
        raise ValueError("no segments to draw")
    cats = list(profiles[0].costs)
    margin = 48
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    col_w = plot_w / len(profiles)
    peak = max(sum(max(v, 0.0) for v in p.costs.values()) for p in profiles)
    peak = max(peak, 1.0)

    doc = SvgDocument(width, height)
    doc.text(width / 2, 18, "bottleneck composition per segment",
             anchor="middle", size=12)
    for i, p in enumerate(profiles):
        x = margin + i * col_w
        y = height - margin
        for j, cat in enumerate(cats):
            value = max(0.0, p.costs[cat])
            h = value / peak * plot_h
            if h <= 0:
                continue
            y -= h
            doc.rect(x, y, max(1.0, col_w - 1), h, fill=color_for(j),
                     title=f"seg {p.index}: {cat} {p.costs[cat]:.1f}%")
        doc.text(x + col_w / 2, height - margin + 14, str(p.index),
                 anchor="middle", size=9)
    for j, cat in enumerate(cats):
        lx = margin + (j % 4) * 140
        ly = 30 + (j // 4) * 13
        doc.rect(lx, ly - 8, 9, 9, fill=color_for(j))
        doc.text(lx + 13, ly, cat, size=9)
    return doc
