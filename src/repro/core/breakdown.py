"""Parallelism-aware performance breakdowns (Section 2.3, Table 4).

A breakdown maps execution time to categories.  The traditional method
assigns each cycle to exactly one cause and is therefore order
dependent and unable to account for overlap; the interaction-cost
method adds one explicit category per displayed interaction, with an
``Other`` row absorbing the interactions not displayed (which can be
negative, exactly as in Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import repro.obs as obs
from repro.core.categories import BASE_CATEGORIES, Category, EventSelection
from repro.core.icost import CachingCostProvider, CostProvider, as_group, icost

Target = Union[Category, EventSelection]


@dataclass(frozen=True)
class BreakdownEntry:
    """One row of a breakdown table."""

    label: str
    cycles: float
    percent: float
    #: "base", "interaction", "other" or "total"
    kind: str = "base"
    #: the event groups this row refers to (empty for other/total)
    groups: Tuple = ()


@dataclass
class Breakdown:
    """An ordered collection of breakdown rows for one workload."""

    workload: str
    total_cycles: float
    entries: List[BreakdownEntry] = field(default_factory=list)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, label: str) -> BreakdownEntry:
        for entry in self.entries:
            if entry.label == label:
                return entry
        raise KeyError(label)

    def labels(self) -> List[str]:
        """Row labels, in display order."""
        return [entry.label for entry in self.entries]

    def percent(self, label: str) -> float:
        """The percent-of-execution-time value of one row."""
        return self[label].percent

    def displayed_sum(self) -> float:
        """Percent accounted for by base + interaction rows."""
        return sum(
            e.percent for e in self.entries if e.kind in ("base", "interaction")
        )

    def as_dict(self) -> Dict[str, float]:
        """``{label: percent}`` for every row."""
        return {e.label: e.percent for e in self.entries}


def _label_of(group) -> str:
    targets = sorted(as_group(group), key=str)
    return "+".join(str(t) for t in targets)


def _prefetch_unions(cached: CachingCostProvider, group_sets) -> None:
    """Hint the provider about every union a breakdown will measure.

    The power-set identity means the same union is shared by many
    icost evaluations; prefetching each distinct union once lets the
    batched engine schedule subset reuse and the windowed pipeline fan
    the independent measurements across its window workers.
    """
    from itertools import chain

    unions = []
    for groups in group_sets:
        unions.append(frozenset(chain.from_iterable(groups)))
    cached.prefetch(unions)


def interaction_breakdown(
    provider: CostProvider,
    base: Sequence[Union[Target, Iterable[Target]]] = BASE_CATEGORIES,
    focus: Optional[Union[Target, Iterable[Target]]] = None,
    workload: str = "",
) -> Breakdown:
    """The Table 4 breakdown: base costs, focus interactions, Other, Total.

    Every category in *base* gets a cost row.  When *focus* is given,
    one interaction row ``focus+cat`` is added per other base category
    (the pairwise icosts the Section 4 tutorial reads).  ``Other`` is
    the remaining execution time -- the sum of all interaction costs
    not displayed plus the un-idealizable machine residual -- and may
    be negative because serial interactions are negative.
    """
    cached = CachingCostProvider(provider)
    total = cached.total
    if total <= 0:
        raise ValueError("provider reports non-positive execution time")
    entries: List[BreakdownEntry] = []

    base_groups = [as_group(g) for g in base]
    focus_group = as_group(focus) if focus is not None else None
    if focus_group is not None and focus_group not in base_groups:
        raise ValueError("focus must be one of the base categories")

    needed = [(g,) for g in base_groups]
    if focus_group is not None:
        needed += [(focus_group, g) for g in base_groups if g != focus_group]
    with obs.span("breakdown.interaction", workload=workload,
                  rows=len(needed)) as sp:
        _prefetch_unions(cached, needed)

        for group in base_groups:
            cycles = cached.cost(group)
            entries.append(BreakdownEntry(
                label=_label_of(group), cycles=cycles,
                percent=100.0 * cycles / total, kind="base", groups=(group,),
            ))

        if focus_group is not None:
            for group in base_groups:
                if group == focus_group:
                    continue
                obs.count("breakdown.icost.eval")
                cycles = icost(cached, (focus_group, group))
                label = f"{_label_of(focus_group)}+{_label_of(group)}"
                entries.append(BreakdownEntry(
                    label=label, cycles=cycles, percent=100.0 * cycles / total,
                    kind="interaction", groups=(focus_group, group),
                ))
        stats = cached.stats()
        sp.set(cache_hits=stats.hits, cache_misses=stats.misses)

    displayed = sum(e.cycles for e in entries)
    entries.append(BreakdownEntry(
        label="Other", cycles=total - displayed,
        percent=100.0 * (total - displayed) / total, kind="other",
    ))
    entries.append(BreakdownEntry(
        label="Total", cycles=total, percent=100.0, kind="total",
    ))
    return Breakdown(workload=workload, total_cycles=total, entries=entries)


def full_interaction_breakdown(
    provider: CostProvider,
    base: Sequence[Union[Target, Iterable[Target]]],
    workload: str = "",
    max_categories: int = 5,
) -> Breakdown:
    """The complete Section 2.3 breakdown: one row per nonempty subset.

    With base categories {a, b, c} the rows are a, b, c, a+b, a+c, b+c,
    a+b+c -- every possible overlap gets an explicit interaction
    category, so the displayed rows sum exactly to the aggregate cost
    of idealizing everything (the power-set identity), and ``Other``
    degenerates to the un-idealizable machine residual.  Exponential in
    the number of categories, hence *max_categories*.
    """
    from itertools import combinations

    from repro.core.icost import icost

    base_groups = [as_group(g) for g in base]
    if len(base_groups) > max_categories:
        raise ValueError(
            f"{len(base_groups)} categories would need "
            f"{2 ** len(base_groups) - 1} rows; raise max_categories to "
            f"confirm you mean it"
        )
    cached = CachingCostProvider(provider)
    total = cached.total
    if total <= 0:
        raise ValueError("provider reports non-positive execution time")

    entries: List[BreakdownEntry] = []
    with obs.span("breakdown.powerset", workload=workload,
                  categories=len(base_groups),
                  rows=2 ** len(base_groups) - 1) as sp:
        _prefetch_unions(cached, (
            combo for size in range(1, len(base_groups) + 1)
            for combo in combinations(base_groups, size)
        ))

        for size in range(1, len(base_groups) + 1):
            for combo in combinations(base_groups, size):
                obs.count("breakdown.icost.eval")
                cycles = icost(cached, combo)
                label = "+".join(sorted(_label_of(g) for g in combo))
                entries.append(BreakdownEntry(
                    label=label, cycles=cycles, percent=100.0 * cycles / total,
                    kind="base" if size == 1 else "interaction", groups=combo,
                ))
        stats = cached.stats()
        sp.set(cache_hits=stats.hits, cache_misses=stats.misses)
    displayed = sum(e.cycles for e in entries)
    entries.append(BreakdownEntry(
        label="Other", cycles=total - displayed,
        percent=100.0 * (total - displayed) / total, kind="other",
    ))
    entries.append(BreakdownEntry(
        label="Total", cycles=total, percent=100.0, kind="total",
    ))
    return Breakdown(workload=workload, total_cycles=total, entries=entries)


def traditional_breakdown(
    provider: CostProvider,
    base: Sequence[Union[Target, Iterable[Target]]] = BASE_CATEGORIES,
    workload: str = "",
) -> Breakdown:
    """A traditional single-blame breakdown, for the Figure 1 contrast.

    Categories are idealized cumulatively in the order given, and each
    is blamed for the marginal time reduction.  The result depends on
    the chosen order and systematically hides parallel interactions --
    which is precisely the deficiency interaction costs repair; a unit
    test demonstrates the order dependence.
    """
    cached = CachingCostProvider(provider)
    total = cached.total
    if total <= 0:
        raise ValueError("provider reports non-positive execution time")
    entries: List[BreakdownEntry] = []
    idealized: List[Target] = []
    prev_time = total
    with obs.span("breakdown.traditional", workload=workload):
        for group in (as_group(g) for g in base):
            idealized.extend(group)
            time_now = total - cached.cost(frozenset(idealized))
            cycles = prev_time - time_now
            entries.append(BreakdownEntry(
                label=_label_of(group), cycles=cycles,
                percent=100.0 * cycles / total, kind="base", groups=(group,),
            ))
            prev_time = time_now
    entries.append(BreakdownEntry(
        label="Other", cycles=prev_time, percent=100.0 * prev_time / total,
        kind="other",
    ))
    entries.append(BreakdownEntry(
        label="Total", cycles=total, percent=100.0, kind="total",
    ))
    return Breakdown(workload=workload, total_cycles=total, entries=entries)
