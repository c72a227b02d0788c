"""Dynamic reconfiguration driven by interaction costs.

The paper's conclusion: "Dynamic optimizers could save power by
intelligently reconfiguring hardware structures."  This module builds
that optimizer on top of the library's own measurement machinery:

- the execution is processed in fixed-size *segments*;
- each segment is simulated under the controller's current
  configuration and analysed with the (cheap, graph-based) cost
  provider;
- structures whose cost is ~zero are powered down for the next segment
  (halved window, narrowed width); structures whose cost climbed back
  above a restore threshold are re-enabled.

Cache/TLB/predictor state is carried between segments by the warm-up
machinery, so the episodic simulation approximates one continuous run;
the segment seams are the documented approximation.  A power *proxy*
(structure capacity x cycles) stands in for a real energy model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.graphsim import GraphCostProvider
from repro.core.categories import Category
from repro.isa.trace import Trace
from repro.uarch.config import MachineConfig


def slice_trace(trace: Trace, start: int, length: int) -> Trace:
    """A standalone sub-trace with producers re-indexed from zero."""
    end = min(start + length, len(trace.insts))
    return Trace(trace.program, trace.block.slice(start, end),
                 warm_l1_ranges=trace.warm_l1_ranges,
                 warm_l2_ranges=trace.warm_l2_ranges)


@dataclass
class SegmentDecision:
    """What the controller saw and chose for one segment."""

    index: int
    window_size: int
    width: int
    cycles: int
    win_cost_pct: float
    bw_cost_pct: float
    #: configuration chosen for the *next* segment
    next_window: int = 0
    next_width: int = 0


@dataclass
class AdaptiveResult:
    """Totals of one adaptive run vs the fixed-configuration baseline."""

    segments: List[SegmentDecision]
    adaptive_cycles: int
    baseline_cycles: int
    adaptive_power: float
    baseline_power: float

    @property
    def slowdown_pct(self) -> float:
        return 100.0 * (self.adaptive_cycles - self.baseline_cycles) \
            / self.baseline_cycles

    @property
    def power_saving_pct(self) -> float:
        return 100.0 * (self.baseline_power - self.adaptive_power) \
            / self.baseline_power


class AdaptiveController:
    """The icost-reading reconfiguration policy.

    ``shrink_below`` and ``restore_above`` are hysteresis thresholds in
    percent of segment execution time for each structure's category
    cost (win for the window, bw for the width).
    """

    def __init__(self, base: Optional[MachineConfig] = None,
                 shrink_below: float = 3.0,
                 restore_above: float = 8.0,
                 min_window: int = 16, min_width: int = 2) -> None:
        self.base = base or MachineConfig()
        self.shrink_below = shrink_below
        self.restore_above = restore_above
        self.min_window = min_window
        self.min_width = min_width

    def decide(self, win_pct: float, bw_pct: float, window: int,
               width: int) -> Tuple[int, int]:
        """Next segment's (window, width) from this segment's costs."""
        if win_pct < self.shrink_below:
            window = max(self.min_window, window // 2)
        elif win_pct > self.restore_above:
            window = self.base.window_size
        if bw_pct < self.shrink_below:
            width = max(self.min_width, width // 2)
        elif bw_pct > self.restore_above:
            width = self.base.issue_width
        return window, width


def _power_proxy(config: MachineConfig, cycles: int) -> float:
    """Capacity-cycles: what the powered-up structures cost to keep on."""
    return (config.window_size + 4 * config.issue_width) * cycles


def _graph_measure(segment: Trace, config: MachineConfig,
                   result, session=None) -> Tuple[float, float]:
    """(win %, bw %) of a segment via the in-simulator graph."""
    provider = GraphCostProvider(result)
    total = provider.total
    return (100.0 * provider.cost([Category.WIN]) / total,
            100.0 * provider.cost([Category.BW]) / total)


def _profiler_measure(segment: Trace, config: MachineConfig,
                      result, session=None) -> Tuple[float, float]:
    """(win %, bw %) via the shotgun profiler -- what real hardware has.

    A deployed controller would read performance-monitor samples; here
    the profiler pipeline plays that role on the segment, so the whole
    control loop runs on sampled information only.
    """
    from repro.profiler.monitor import MonitorConfig
    from repro.profiler.shotgun import profile_trace

    monitor = MonitorConfig(signature_length=min(400, len(segment.insts)),
                            signature_interval=200)
    provider = profile_trace(segment, config, monitor=monitor, fragments=4,
                             session=session)
    total = provider.total
    return (100.0 * provider.cost([Category.WIN]) / total,
            100.0 * provider.cost([Category.BW]) / total)


MEASURES = {"graph": _graph_measure, "profiler": _profiler_measure}


def run_adaptive(trace: Trace, controller: Optional[AdaptiveController] = None,
                 segment_length: int = 400,
                 measure: str = "graph", session=None) -> AdaptiveResult:
    """Run *trace* under the adaptive policy and under the fixed machine.

    *measure* selects the cost source the controller reads: ``"graph"``
    (in-simulator) or ``"profiler"`` (shotgun samples only -- the
    deployable version).  Segment simulations are content-addressed in
    the session, so a segment the adaptive run executed at the baseline
    configuration is not re-simulated by the baseline loop.
    """
    if session is None:
        from repro.session import AnalysisSession

        session = AnalysisSession.for_trace(trace)
    controller = controller or AdaptiveController()
    measure_fn = MEASURES[measure]
    base = controller.base
    window, width = base.window_size, base.issue_width
    segments: List[SegmentDecision] = []
    adaptive_cycles = 0
    adaptive_power = 0.0

    n = len(trace.insts)
    for index, start in enumerate(range(0, n, segment_length)):
        segment = slice_trace(trace, start, segment_length)
        config = base.with_(window_size=window, issue_width=width,
                            fetch_width=width, commit_width=width)
        result = session.simulate(config=config, trace=segment)
        win_pct, bw_pct = measure_fn(segment, config, result,
                                     session=session)
        next_window, next_width = controller.decide(
            win_pct, bw_pct, window, width)
        segments.append(SegmentDecision(
            index=index, window_size=window, width=width,
            cycles=result.cycles, win_cost_pct=win_pct, bw_cost_pct=bw_pct,
            next_window=next_window, next_width=next_width))
        adaptive_cycles += result.cycles
        adaptive_power += _power_proxy(config, result.cycles)
        window, width = next_window, next_width

    baseline_cycles = 0
    baseline_power = 0.0
    for start in range(0, n, segment_length):
        segment = slice_trace(trace, start, segment_length)
        result = session.simulate(config=base, trace=segment)
        baseline_cycles += result.cycles
        baseline_power += _power_proxy(base, result.cycles)

    return AdaptiveResult(segments=segments,
                          adaptive_cycles=adaptive_cycles,
                          baseline_cycles=baseline_cycles,
                          adaptive_power=adaptive_power,
                          baseline_power=baseline_power)
