"""Graph-based cost measurement (the Tune et al. post-mortem algorithm).

``cost(S)`` is the critical-path shortening obtained by idealizing the
events in *S* on the graph -- the efficient alternative to re-running
the simulator, and the measurement the icost algebra of
:mod:`repro.core.icost` consumes.

The measurement itself is delegated to a pluggable *cost engine*
(:mod:`repro.graph.engine`): the naive full-sweep oracle, the
batched/incremental kernel, or the process-pool fan-out.  All engines
are bit-identical by contract (and by differential test).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Union

import repro.obs as obs
from repro.core.categories import Category, EventSelection, normalize_targets
from repro.graph.engine import make_engine
from repro.graph.idealize import GraphIdealizer
from repro.graph.model import DependenceGraph

Target = Union[Category, EventSelection]


class GraphCostAnalyzer:
    """Costs and critical-path lengths of one microexecution graph.

    Implements the :class:`repro.core.icost.CostProvider` protocol:
    ``cost(targets)`` and ``total``.  Critical-path lengths are memoised
    per target set, so the 2^n - 1 measurements of an n-way interaction
    cost reuse shared subsets across calls.

    *engine* selects how lengths are measured: an engine name
    (``"naive"`` or ``"batched"``), an engine factory, or a ready
    instance; ``None`` picks the default (batched) engine.
    """

    def __init__(self, graph: DependenceGraph, engine=None) -> None:
        self.graph = graph
        self._idealizer = GraphIdealizer(graph)
        self._engine = make_engine(engine, graph, self._idealizer)
        self._lengths: Dict[FrozenSet[Target], int] = {}
        self.base_length = self.cp_length(frozenset())

    # ------------------------------------------------------------------

    def cp_length(self, targets: Iterable[Target] = frozenset()) -> int:
        """Critical-path length with *targets* idealized."""
        key = normalize_targets(targets)
        cached = self._lengths.get(key)
        if cached is None:
            obs.count("analyzer.cp.measure")
            cached = self._engine.cp_length(key)
            self._lengths[key] = cached
        else:
            obs.count("analyzer.cp.memo_hit")
        return cached

    def prefetch(self, target_sets: Iterable[Iterable[Target]]) -> None:
        """Measure many target sets at once (batch friendly).

        Engines may evaluate the batch out of order or with subset-reuse
        scheduling; results land in the same memo
        ``cost``/``cp_length`` read, so prefetching is purely an
        optimization.
        """
        keys = []
        seen = set()
        for targets in target_sets:
            key = normalize_targets(targets)
            if key not in self._lengths and key not in seen:
                seen.add(key)
                keys.append(key)
        if not keys:
            return
        for key, length in zip(keys, self._engine.cp_lengths(keys)):
            self._lengths[key] = length

    def cost(self, targets: Iterable[Target]) -> float:
        """Cycles saved by idealizing *targets* together (aggregate cost)."""
        return float(self.base_length - self.cp_length(targets))

    @property
    def total(self) -> float:
        """Baseline execution time proxy: the unidealized CP length."""
        return float(self.base_length)

    @property
    def measurements(self) -> int:
        """How many distinct CP lengths have been computed (for tests)."""
        return len(self._lengths)

    @property
    def engine(self):
        """The underlying cost engine (exposes ``name`` for reporting)."""
        return self._engine

    def close(self) -> None:
        """Release engine resources (worker pools, cached states)."""
        self._engine.close()
