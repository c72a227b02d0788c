"""Comparing analyses across machine configurations.

The designer workflow the Section 4 tutorial implies: change one
parameter, re-analyse, and ask *where the cycles moved*.  A
:class:`BreakdownDelta` lines two breakdowns up row by row (in cycles,
since percentages of different totals do not subtract meaningfully) and
summarises the migration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.breakdown import Breakdown, interaction_breakdown
from repro.core.categories import Category
from repro.core.serialize import register_serializable
from repro.isa.trace import Trace
from repro.uarch.config import MachineConfig


@register_serializable
@dataclass
class BreakdownDelta:
    """Row-by-row difference of two breakdowns of the same workload."""

    workload: str
    before_cycles: float
    after_cycles: float
    #: label -> (before cycles, after cycles)
    rows: Dict[str, Tuple[float, float]]

    @property
    def speedup_percent(self) -> float:
        if self.after_cycles <= 0:
            raise ValueError("non-positive cycle count")
        return 100.0 * (self.before_cycles - self.after_cycles) / \
            self.after_cycles

    def delta(self, label: str) -> float:
        """Cycle change of one row (after minus before)."""
        before, after = self.rows[label]
        return after - before

    def movers(self, top: int = 5) -> List[Tuple[str, float]]:
        """Labels whose cycle counts moved the most, largest first."""
        ranked = sorted(self.rows, key=lambda k: -abs(self.delta(k)))
        return [(label, self.delta(label)) for label in ranked[:top]]

    def render(self) -> str:
        """A before/after/delta text table."""
        lines = [f"{self.workload}: {self.before_cycles:.0f} -> "
                 f"{self.after_cycles:.0f} cycles "
                 f"({self.speedup_percent:+.1f}% speedup)",
                 f"{'category':>12} {'before':>9} {'after':>9} {'delta':>9}"]
        for label, (before, after) in self.rows.items():
            lines.append(f"{label:>12} {before:>9.0f} {after:>9.0f} "
                         f"{after - before:>+9.0f}")
        return "\n".join(lines)


def diff_breakdowns(before: Breakdown, after: Breakdown) -> BreakdownDelta:
    """Align two breakdowns by label (cycles, not percent)."""
    rows: Dict[str, Tuple[float, float]] = {}
    labels = [e.label for e in before.entries
              if e.kind in ("base", "interaction", "other")]
    for label in labels:
        try:
            after_cycles = after[label].cycles
        except KeyError:
            continue
        rows[label] = (before[label].cycles, after_cycles)
    return BreakdownDelta(
        workload=before.workload or after.workload,
        before_cycles=before.total_cycles,
        after_cycles=after.total_cycles,
        rows=rows,
    )


def compare_configs(trace: Trace, before: MachineConfig,
                    after: MachineConfig,
                    focus: Optional[Category] = None,
                    session=None) -> BreakdownDelta:
    """Analyse *trace* under two machines and diff the breakdowns.

    The classic check: after applying the fix an icost analysis
    recommended, did the targeted category's cycles actually leave --
    and where did the freed time reappear (the secondary bottleneck the
    paper says cost analysis reveals)?  Both analyses share one
    session, so a configuration already simulated (e.g. the baseline of
    an earlier breakdown) is reused.
    """
    if session is None:
        from repro.session import AnalysisSession

        session = AnalysisSession.for_trace(trace)
    a = interaction_breakdown(session.graph_provider(config=before),
                              focus=focus, workload=trace.name)
    b = interaction_breakdown(session.graph_provider(config=after),
                              focus=focus, workload=trace.name)
    return diff_breakdowns(a, b)
