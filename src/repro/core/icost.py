"""The cost / interaction-cost algebra (Section 2 of the paper).

Definitions implemented here, for events or sets of events:

- ``cost(S) = t - t(S)``: execution-time reduction from idealizing S.
- ``icost({S1, S2}) = cost(S1 u S2) - cost(S1) - cost(S2)``.
- For n >= 2 groups, the recursive power-set definition:
  ``icost(U) = cost(union U) - sum of icost(V) over proper subsets V``.

The sign of an interaction cost classifies how the groups interact:
zero means independent, positive means a parallel interaction (cycles
removable only by optimizing both together), negative means a serial
interaction (the groups are in series with each other but in parallel
with something else, so fully optimizing both is not worthwhile).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from itertools import chain, combinations
from typing import Dict, FrozenSet, Iterable, Protocol, Union

import repro.obs as obs
from repro.core.categories import (
    Category,
    EventSelection,
    canonical_target_keys,
    normalize_targets,
)

Target = Union[Category, EventSelection]
Group = FrozenSet[Target]


class CostProvider(Protocol):
    """Anything that can measure aggregate costs of event sets.

    Implementations in this repository: graph analysis
    (:class:`repro.graph.cost.GraphCostAnalyzer`), re-simulation
    (:class:`repro.analysis.multisim.MultiSimCostProvider`) and the
    shotgun profiler (:class:`repro.profiler.shotgun.ShotgunCostProvider`).
    """

    def cost(self, targets: Iterable[Target]) -> float:
        """Aggregate cost of idealizing every target in *targets* together."""

    @property
    def total(self) -> float:
        """Baseline execution time, for normalising breakdowns."""


@dataclass
class CacheStats:
    """Hit/miss/prefetch accounting of one :class:`CachingCostProvider`."""

    hits: int = 0
    misses: int = 0
    prefetched: int = 0

    @property
    def queries(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.queries if self.queries else 0.0


class CachingCostProvider:
    """Memoising wrapper; also counts underlying measurements."""

    def __init__(self, provider: CostProvider) -> None:
        self._provider = provider
        # keyed by canonical_target_keys(...) -- order/name independent
        self._cache: Dict[tuple, float] = {}
        self._stats = CacheStats()

    @property
    def calls(self) -> int:
        """Underlying measurements made so far (= cache misses)."""
        return self._stats.misses

    def stats(self) -> CacheStats:
        """A snapshot of the cache accounting, also pushed to obs gauges."""
        s = self._stats
        obs.gauge("icost.cache.hits", s.hits)
        obs.gauge("icost.cache.misses", s.misses)
        obs.gauge("icost.cache.prefetched", s.prefetched)
        return replace(s)

    def clear(self) -> None:
        """Drop every memoised cost and reset the statistics."""
        self._cache.clear()
        self._stats = CacheStats()

    def cost(self, targets: Iterable[Target]) -> float:
        """Memoised pass-through to the wrapped provider.

        Memo entries are keyed by the *canonical* target identity
        (:func:`repro.core.categories.canonical_target_keys`), so any
        ordering or renaming of the same logical target set hits the
        same entry.
        """
        key = normalize_targets(targets)
        ckey = canonical_target_keys(key)
        if ckey not in self._cache:
            self._stats.misses += 1
            obs.count("icost.cache.miss")
            self._cache[ckey] = self._provider.cost(key)
        else:
            self._stats.hits += 1
            obs.count("icost.cache.hit")
        return self._cache[ckey]

    def prefetch(self, target_sets: Iterable[Iterable[Target]]) -> None:
        """Forward a batch hint to providers that can exploit it.

        Providers with a ``prefetch`` method (the graph engines, the
        multisim process pool) measure the whole batch up front; plain
        providers ignore the hint.  Either way ``cost`` semantics and
        the ``calls`` counter are unchanged -- each distinct target set
        is still requested from the provider exactly once.
        """
        fn = getattr(self._provider, "prefetch", None)
        if fn is None:
            return
        keys = [normalize_targets(ts) for ts in target_sets]
        todo = [key for key in keys
                if canonical_target_keys(key) not in self._cache]
        if not todo:
            return
        self._stats.prefetched += len(todo)
        obs.count("icost.cache.prefetch", len(todo))
        fn(todo)

    @property
    def total(self) -> float:
        return self._provider.total


def as_group(group: Union[Target, Iterable[Target]]) -> Group:
    """Normalise a bare target or an iterable of targets into a group."""
    if isinstance(group, (Category, EventSelection)):
        return frozenset((group,))
    return normalize_targets(group)


def _proper_subsets(groups: FrozenSet[Group]) -> Iterable[FrozenSet[Group]]:
    items = tuple(groups)
    return (
        frozenset(c)
        for size in range(len(items))
        for c in combinations(items, size)
    )


def icost(provider: CostProvider,
          groups: Iterable[Union[Target, Iterable[Target]]]) -> float:
    """Interaction cost of two or more (sets of) events.

    Each element of *groups* is one event set S_i (a bare
    :class:`Category`/:class:`EventSelection` or an iterable of them).
    Implements the recursive power-set definition; the icost of a
    single group degenerates to its cost, and of the empty collection
    to zero.  Groups must be disjoint -- overlapping groups make the
    union/sum decomposition ill-defined.
    """
    normalised = frozenset(as_group(g) for g in groups)
    _check_disjoint(normalised)
    return _icost_memo(provider, normalised, {})


def _icost_memo(provider: CostProvider, u: FrozenSet[Group],
                memo: Dict[FrozenSet[Group], float]) -> float:
    # a module-level recursion, not a self-referencing closure: such a
    # closure is a reference cycle that would keep *provider* (and its
    # engine's arrays) alive until the cyclic garbage collector ran
    if not u:
        return 0.0
    if u in memo:
        return memo[u]
    union: FrozenSet[Target] = frozenset(chain.from_iterable(u))
    value = provider.cost(union)
    for v in _proper_subsets(u):
        if v:
            value -= _icost_memo(provider, v, memo)
    memo[u] = value
    return value


def _check_disjoint(groups: FrozenSet[Group]) -> None:
    seen: set = set()
    for g in groups:
        overlap = seen & g
        if overlap:
            raise ValueError(f"groups overlap on {overlap}")
        seen |= g


def icost_pair(provider: CostProvider,
               a: Union[Target, Iterable[Target]],
               b: Union[Target, Iterable[Target]]) -> float:
    """``icost({a, b}) = cost(a u b) - cost(a) - cost(b)``."""
    return icost(provider, (a, b))


def icost_of_union(provider: CostProvider,
                   groups: Iterable[Union[Target, Iterable[Target]]]) -> float:
    """Sum of icosts over the whole power set = aggregate cost of the union.

    This is the identity the paper uses to argue that a breakdown over
    all interaction categories accounts for all (idealizable) cycles.
    """
    normalised = [as_group(g) for g in groups]
    union: FrozenSet[Target] = frozenset(chain.from_iterable(normalised))
    return provider.cost(union)


class Interaction(enum.Enum):
    """Classification of an interaction cost's sign."""

    INDEPENDENT = "independent"
    PARALLEL = "parallel"
    SERIAL = "serial"


def classify_interaction(value: float, epsilon: float = 1e-9) -> Interaction:
    """Classify an icost value: zero / positive / negative.

    *epsilon* absorbs floating-point noise from statistical providers
    (the shotgun profiler's fragment aggregation yields non-integers).
    """
    if value > epsilon:
        return Interaction.PARALLEL
    if value < -epsilon:
        return Interaction.SERIAL
    return Interaction.INDEPENDENT
