"""The full-dependence-graph cost provider ("fullgraph" in Table 7).

Simulates once, builds the microexecution graph, and answers every
cost query by graph idealization -- the efficient methodology the paper
advocates over 2^n re-simulations.  Simulation goes through an
:class:`repro.session.AnalysisSession`, so repeated analyses of the
same (trace, config) pair share one simulator run and the artifact
cache applies automatically.
"""

from __future__ import annotations

from typing import Iterable, Optional

import repro.obs as obs
from repro.core.icost import Target
from repro.graph.builder import GraphBuilder
from repro.graph.cost import GraphCostAnalyzer
from repro.graph.engine import DEFAULT_ENGINE
from repro.isa.trace import Trace
from repro.uarch.config import MachineConfig
from repro.uarch.events import SimResult


class GraphCostProvider:
    """Cost provider backed by one simulation and its dependence graph.

    *engine* selects the cost engine (``"naive"``, ``"batched"`` or an
    instance; ``None`` is the default, batched; see
    :mod:`repro.graph.engine`).
    """

    def __init__(self, result: SimResult,
                 model_taken_branch_breaks: bool = True,
                 engine=None) -> None:
        self.result = result
        self.graph = GraphBuilder(model_taken_branch_breaks).build(result)
        self._analyzer = GraphCostAnalyzer(self.graph, engine=engine)

    def cost(self, targets: Iterable[Target]) -> float:
        """Cycles saved by idealizing *targets* on the graph."""
        return self._analyzer.cost(targets)

    def prefetch(self, target_sets: Iterable[Iterable[Target]]) -> None:
        """Batch-measure many target sets (see the analyzer's method)."""
        self._analyzer.prefetch(target_sets)

    def close(self) -> None:
        """Release engine resources (worker pools, cached states)."""
        self._analyzer.close()

    @property
    def total(self) -> float:
        """Execution time of the simulated run (the breakdown denominator).

        The simulator's cycle count is used rather than the graph's CP
        length so that graph modelling error shows up in the breakdown
        (as the paper's does) instead of being silently renormalised.
        """
        return float(self.result.cycles)

    @property
    def analyzer(self) -> GraphCostAnalyzer:
        """The underlying :class:`GraphCostAnalyzer`."""
        return self._analyzer


def analyze_trace(trace: Trace, config: Optional[MachineConfig] = None,
                  model_taken_branch_breaks: bool = True,
                  engine=None, session=None) -> GraphCostProvider:
    """Simulate *trace* on *config* and wrap it in a graph cost provider.

    *session* optionally supplies the :class:`repro.session.AnalysisSession`
    whose memo/artifact cache the simulation goes through; without one an
    ephemeral session is created, which preserves the historical one-shot
    behaviour.
    """
    with obs.span("analysis.analyze_trace",
                  engine=getattr(engine, "name", engine) or DEFAULT_ENGINE):
        if session is None:
            from repro.session import AnalysisSession

            session = AnalysisSession.for_trace(
                trace, config=config,
                model_taken_branch_breaks=model_taken_branch_breaks)
        result = session.simulate(config=config, trace=trace)
        return GraphCostProvider(result, model_taken_branch_breaks,
                                 engine=engine)
