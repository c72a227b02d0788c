"""Workload characterization through interaction costs.

Section 4.1 observes that interaction-cost magnitudes "could be useful
in workload characterization: their magnitude gives a designer early
insights into what optimizations would be most suitable for the most
important workloads."  This module distils a breakdown into exactly
that: the dominant bottleneck, its strongest serial partner (the
cheapest indirect mitigation) and its strongest parallel partner (the
co-requisite optimization), per workload and for a whole suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.categories import BASE_CATEGORIES, Category
from repro.core.icost import CachingCostProvider, icost_pair
from repro.core.serialize import register_serializable
from repro.uarch.config import MachineConfig
from repro.workloads.registry import WORKLOAD_NAMES, get_workload


@register_serializable
@dataclass(frozen=True)
class Characterization:
    """The icost fingerprint of one workload."""

    workload: str
    cycles: int
    #: base-category costs as percent of execution time
    costs: Dict[str, float]
    #: the largest base category
    dominant: str
    #: (category, icost %) most negative interaction with the dominant
    serial_partner: Optional[Tuple[str, float]]
    #: (category, icost %) most positive interaction with the dominant
    parallel_partner: Optional[Tuple[str, float]]

    def advice(self) -> str:
        """One sentence of design guidance, straight from the signs."""
        parts = [f"{self.workload}: bottleneck is {self.dominant} "
                 f"({self.costs[self.dominant]:.0f}%)"]
        if self.serial_partner and self.serial_partner[1] < -2:
            parts.append(
                f"serially tied to {self.serial_partner[0]} "
                f"({self.serial_partner[1]:+.0f}%) -- attacking either helps")
        if self.parallel_partner and self.parallel_partner[1] > 2:
            parts.append(
                f"in parallel with {self.parallel_partner[0]} "
                f"({self.parallel_partner[1]:+.0f}%) -- must fix both to win")
        return "; ".join(parts)


def characterize_trace(trace, config: Optional[MachineConfig] = None,
                       session=None) -> Characterization:
    """Fingerprint one trace: dominant bottleneck plus its partners."""
    if session is None:
        from repro.session import AnalysisSession

        session = AnalysisSession.for_trace(trace, config=config)
    return characterize_provider(
        session.graph_provider(config=config, trace=trace), trace.name)


def characterize_provider(provider, workload: str) -> Characterization:
    """Fingerprint *workload* from a cost provider over its run."""
    provider = CachingCostProvider(provider)
    total = provider.total
    costs = {c.value: 100.0 * provider.cost([c]) / total
             for c in BASE_CATEGORIES}
    dominant_name = max(costs, key=costs.get)
    dominant = Category(dominant_name)

    serial = parallel = None
    for other in BASE_CATEGORIES:
        if other is dominant:
            continue
        value = 100.0 * icost_pair(provider, dominant, other) / total
        if serial is None or value < serial[1]:
            serial = (other.value, value)
        if parallel is None or value > parallel[1]:
            parallel = (other.value, value)
    return Characterization(
        workload=workload,
        cycles=int(total),
        costs=costs,
        dominant=dominant_name,
        serial_partner=serial,
        parallel_partner=parallel,
    )


def characterize_suite(names: Sequence[str] = WORKLOAD_NAMES,
                       config: Optional[MachineConfig] = None,
                       scale: float = 1.0,
                       seed: int = 0,
                       session=None) -> List[Characterization]:
    """Fingerprint every workload in *names* (sharing one session)."""
    if session is None:
        from repro.session import AnalysisSession, RunConfig

        session = AnalysisSession(RunConfig(machine=config, scale=scale,
                                            seed=seed))
    return [characterize_trace(get_workload(name, scale=scale, seed=seed),
                               config, session=session)
            for name in names]


def render_suite_table(chars: Sequence[Characterization]) -> str:
    """A one-line-per-workload characterization table."""
    lines = [f"{'workload':<8} {'cycles':>8} {'dominant':>9} "
             f"{'serial partner':>20} {'parallel partner':>20}"]
    for ch in chars:
        serial = (f"{ch.serial_partner[0]} {ch.serial_partner[1]:+.1f}%"
                  if ch.serial_partner else "-")
        parallel = (f"{ch.parallel_partner[0]} {ch.parallel_partner[1]:+.1f}%"
                    if ch.parallel_partner else "-")
        lines.append(f"{ch.workload:<8} {ch.cycles:>8} "
                     f"{ch.dominant:>9} {serial:>20} {parallel:>20}")
    return "\n".join(lines)
