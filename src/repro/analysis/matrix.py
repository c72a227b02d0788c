"""The full pairwise interaction-cost matrix.

Tables 4a-4c each show one row of interactions (the focus category
against everything else); the complete picture is the symmetric matrix
of all pairwise icosts, which is what a designer scans to find every
serial shortcut and every parallel trap at once.  28 measurements for
the eight base categories -- cheap on a graph provider.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.categories import BASE_CATEGORIES, Category
from repro.core.icost import CachingCostProvider, CostProvider, icost_pair
from repro.core.serialize import register_serializable


@register_serializable
@dataclass
class InteractionMatrix:
    """Pairwise icosts (percent of execution time) plus the base costs."""

    workload: str
    categories: Tuple[Category, ...]
    costs: Dict[Category, float]
    pairs: Dict[Tuple[Category, Category], float]
    total_cycles: float

    def icost(self, a: Category, b: Category) -> float:
        """The pairwise interaction cost of *a* and *b* (symmetric)."""
        if a == b:
            raise ValueError("interaction of a category with itself")
        return self.pairs[(a, b) if a.value < b.value else (b, a)]

    def strongest_serial(self) -> Tuple[Category, Category, float]:
        """The most negative pair: the best indirect-mitigation lead."""
        pair = min(self.pairs, key=self.pairs.get)
        return pair[0], pair[1], self.pairs[pair]

    def strongest_parallel(self) -> Tuple[Category, Category, float]:
        """The most positive pair: the must-fix-both trap."""
        pair = max(self.pairs, key=self.pairs.get)
        return pair[0], pair[1], self.pairs[pair]

    def render(self) -> str:
        """Lower-triangular text matrix with the base costs on the
        diagonal."""
        cats = self.categories
        width = 7
        header = " " * 7 + "".join(c.value.rjust(width) for c in cats)
        lines = [f"{self.workload}: pairwise icosts "
                 f"(% of {self.total_cycles:.0f} cycles; diagonal = cost)",
                 header]
        for i, row_cat in enumerate(cats):
            row = row_cat.value.ljust(7)
            for j, col_cat in enumerate(cats):
                if j > i:
                    row += " " * width
                elif i == j:
                    row += f"{self.costs[row_cat]:{width}.1f}"
                else:
                    row += f"{self.icost(col_cat, row_cat):{width}.1f}"
            lines.append(row)
        return "\n".join(lines)


def interaction_matrix(provider: CostProvider,
                       categories: Sequence[Category] = BASE_CATEGORIES,
                       workload: str = "") -> InteractionMatrix:
    """Measure every base cost and pairwise icost on *provider*."""
    cached = CachingCostProvider(provider)
    total = cached.total
    cats = tuple(categories)
    costs = {c: 100.0 * cached.cost([c]) / total for c in cats}
    pairs: Dict[Tuple[Category, Category], float] = {}
    for i, a in enumerate(cats):
        for b in cats[i + 1:]:
            key = (a, b) if a.value < b.value else (b, a)
            pairs[key] = 100.0 * icost_pair(cached, a, b) / total
    return InteractionMatrix(workload=workload, categories=cats,
                             costs=costs, pairs=pairs, total_cycles=total)
