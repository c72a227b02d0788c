"""Sampled in-simulator graph construction (Section 4, closing remark).

Building the dependence graph for every instruction roughly doubles
simulation time, the paper notes, but "using the same principles of
sampling that facilitate the profiling solution of Section 5, we found
that the overhead could be reduced to approximately 10% without
significantly impacting accuracy."

This provider implements that mode: the simulator runs normally, and
graphs are built only for evenly spread sample windows of the
execution.  Unlike the shotgun profiler there is no reconstruction --
the window contents are exact -- so this isolates the pure
*sampling* error, which the ablation benchmark compares against the
profiler's sampling-plus-reconstruction error.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Iterable, List, Optional

from repro.core.categories import EventSelection, normalize_targets
from repro.core.icost import Target
from repro.graph.builder import build_window_graph
from repro.graph.cost import GraphCostAnalyzer
from repro.isa.trace import InstView, Trace
from repro.uarch.config import MachineConfig
from repro.uarch.events import SimResult


class WindowedRun:
    """A contiguous slice of a simulated run, re-indexed from zero.

    Quacks like a ``SimResult`` for the graph builder: cross-window
    dependences (producers, fill partners before the window) become
    out-of-trace (-1), exactly like a profiler fragment's borders.
    """

    def __init__(self, result: SimResult, start: int, length: int) -> None:
        end = min(start + length, len(result.events))
        self.start = start
        self.config = result.config
        self.insts = InstView(result.trace.block.slice(start, end))
        self.events = []
        for ev in result.events[start:end]:
            copy = replace(ev, seq=ev.seq - start)
            if copy.pp_partner >= 0:
                copy.pp_partner = (copy.pp_partner - start
                                   if copy.pp_partner >= start else -1)
            self.events.append(copy)

    def __len__(self) -> int:
        return len(self.insts)

    @property
    def trace(self) -> "WindowedRun":
        return self


class SampledGraphProvider:
    """Cost provider over sampled exact windows of one simulation.

    ``graphed_fraction`` reports how much of the execution was graphed
    -- the knob behind the paper's 2x -> 10% overhead claim.
    """

    def __init__(self, result: SimResult, windows: int = 8,
                 window_length: int = 500, seed: int = 0) -> None:
        n = len(result.events)
        if n == 0:
            raise ValueError("cannot sample an empty run")
        window_length = min(window_length, n)
        starts = self._pick_starts(n, windows, window_length, seed)
        # the truncating columnar emitter builds each window straight
        # from the run's arrays -- semantically identical to
        # GraphBuilder().build(WindowedRun(...)) (the differential suite
        # pins it) without materializing re-indexed copies
        self._spans = [(s, min(s + window_length, n) - s) for s in starts]
        self._analyzers = [
            GraphCostAnalyzer(build_window_graph(result, s, length))
            for s, length in self._spans
        ]
        self.result = result
        self.graphed_instructions = sum(length for _, length in self._spans)
        self._windows: Optional[List[WindowedRun]] = None

    @property
    def windows(self) -> List[WindowedRun]:
        """The sampled fragments as re-indexed object windows.

        Materialized on first access only -- the analyzers are built
        columnar; this view exists for inspection and the border-case
        tests."""
        if self._windows is None:
            self._windows = [WindowedRun(self.result, s, length)
                             for s, length in self._spans]
        return self._windows

    @staticmethod
    def _pick_starts(n: int, windows: int, length: int,
                     seed: int) -> List[int]:
        latest = max(0, n - length)
        if windows <= 1 or latest == 0:
            return [0]
        rng = random.Random(seed)
        stride = latest // (windows - 1)
        return [min(latest, i * stride + rng.randrange(max(1, stride // 4)))
                for i in range(windows)]

    # ------------------------------------------------------------------

    def cost(self, targets: Iterable[Target]) -> float:
        """Summed idealization savings across the sampled windows."""
        key = normalize_targets(targets)
        for t in key:
            if isinstance(t, EventSelection):
                raise TypeError(
                    "sampled windows re-index instructions; per-instruction "
                    "selections only make sense on the full graph"
                )
        return float(sum(a.cost(key) for a in self._analyzers))

    @property
    def total(self) -> float:
        return float(sum(a.base_length for a in self._analyzers))

    @property
    def graphed_fraction(self) -> float:
        """Fraction of the execution whose graph was actually built."""
        return self.graphed_instructions / len(self.result.events)


def analyze_trace_sampled(trace: Trace,
                          config: Optional[MachineConfig] = None,
                          windows: int = 8, window_length: int = 500,
                          seed: int = 0,
                          session=None) -> SampledGraphProvider:
    """Simulate once (through the session) and analyse sampled windows."""
    if session is None:
        from repro.session import AnalysisSession

        session = AnalysisSession.for_trace(trace, config=config)
    result = session.simulate(config=config, trace=trace)
    return SampledGraphProvider(result, windows, window_length, seed)
