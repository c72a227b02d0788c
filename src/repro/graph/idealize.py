"""Edge-latency transforms implementing Table 1 idealizations on the graph.

An idealization never re-runs the simulator: it rewrites edge latencies
(subtracting the latency component tagged with the idealized category)
and removes the three structural edge kinds whose constraint disappears
outright -- CD under an infinite window, PD under perfect prediction,
PP under a perfect data cache.  Removed edges are marked with a large
negative latency, which the max-plus longest-path sweep can never
select.
"""

from __future__ import annotations

from typing import Iterable, List, Union

import numpy as np

from repro.core.categories import Category, EventSelection
from repro.graph.model import DependenceGraph, EdgeKind, NODES_PER_INST

#: Latency marking a removed edge; dwarfs any real path length.
REMOVED = -(1 << 40)

#: Categories whose idealization removes edge kinds entirely: the
#: window removes CD, perfect prediction removes PD, a perfect data
#: cache removes PP, and infinite bandwidth removes the FBW/CBW
#: bandwidth edges (their one-cycle latency is structural, so zeroing
#: a component is not enough -- the constraint itself disappears).
_REMOVAL_KINDS = {
    Category.WIN: (int(EdgeKind.CD),),
    Category.BMISP: (int(EdgeKind.PD),),
    Category.DMISS: (int(EdgeKind.PP),),
    Category.BW: (int(EdgeKind.FBW), int(EdgeKind.CBW)),
}

#: Categories that have no per-instruction meaning.
_WHOLE_MACHINE_ONLY = (Category.WIN, Category.BW)


class GraphIdealizer:
    """Vectorised latency rewriting for one graph.

    The per-edge arrays are materialised once; each call to
    :meth:`latencies` produces a fresh latency list for the requested
    target set, suitable for :func:`repro.graph.critical_path.longest_path`.
    """

    def __init__(self, graph: DependenceGraph) -> None:
        self.graph = graph
        col = graph.column_data
        self._lat = np.asarray(col("lat"), dtype=np.int64)
        self._kind = np.asarray(col("kind"), dtype=np.int16)
        self._cat1 = np.asarray(col("cat1"), dtype=np.int16)
        self._val1 = np.asarray(col("val1"), dtype=np.int64)
        self._cat2 = np.asarray(col("cat2"), dtype=np.int16)
        self._val2 = np.asarray(col("val2"), dtype=np.int64)
        # owning instruction of each edge, by destination and by
        # source; built on the first per-instruction selection
        self._dst_owner = self._src_owner = None
        # per-category latency deltas (the edges a category shortens,
        # and by how much) and removal masks, built lazily: whole-category
        # idealization then costs one scatter-subtract + one OR
        self._cat_delta: dict = {}
        self._cat_removed: dict = {}

    # ------------------------------------------------------------------

    def latencies(self, targets: Iterable[Union[Category, EventSelection]]
                  ) -> List[int]:
        """Edge latencies with every target in *targets* idealized."""
        return self.latencies_array(targets).tolist()

    def latencies_array(self, targets: Iterable[Union[Category, EventSelection]]
                        ) -> "np.ndarray":
        """Idealized edge latencies as a fresh int64 array.

        The array form feeds the batched engines directly (change
        detection against a reference latency vector is a single
        vectorized comparison); :meth:`latencies` is its list view for
        the naive sweep.
        """
        lat = self._lat.copy()
        removed = np.zeros(len(lat), dtype=bool)
        for target in targets:
            if isinstance(target, Category):
                self._apply_category(target, lat, removed)
            elif isinstance(target, EventSelection):
                self._apply_selection(target, lat, removed)
            else:
                raise TypeError(f"not an idealization target: {target!r}")
        lat[removed] = REMOVED
        return lat

    def seed(self, targets: Iterable[Union[Category, EventSelection]]) -> int:
        """Node-0 seed latency with *targets* idealized."""
        graph = self.graph
        value = graph.seed_lat
        for target in targets:
            if isinstance(target, Category):
                if target.index == graph.seed_cat:
                    value -= graph.seed_val
            elif isinstance(target, EventSelection):
                if target.category.index == graph.seed_cat and 0 in target.seqs:
                    value -= graph.seed_val
        return max(0, value)

    # ------------------------------------------------------------------

    def _apply_category(self, cat: Category, lat, removed) -> None:
        ci = cat.index
        if not self._cat_delta:
            self._build_category_deltas()
        mask = self._cat_removed.get(ci)
        if mask is None:
            mask = np.zeros(len(lat), dtype=bool)
            for kind in _REMOVAL_KINDS.get(cat, ()):
                mask |= self._kind == kind
            self._cat_removed[ci] = mask
        edges, deltas = self._cat_delta[ci]
        lat[edges] -= deltas  # exact: a category lists each edge once
        removed |= mask

    def _build_category_deltas(self) -> None:
        """Every category's nonzero per-edge latency deltas, as sorted
        edge ids and values: both components of all edges sorted by
        (category, edge) once, an edge tagged twice with one category
        summed.  Sparse, because each category shortens only its own
        events' edges."""
        n = len(self._lat)
        ncats = max(c.index for c in Category) + 1
        cat = np.concatenate((self._cat1, self._cat2))
        val = np.concatenate((self._val1, self._val2))
        edge = np.tile(np.arange(n, dtype=np.int64), 2)
        keep = (cat >= 0) & (val != 0)
        cat, val, edge = cat[keep], val[keep], edge[keep]
        order = np.lexsort((edge, cat))
        cat, val, edge = cat[order], val[order], edge[order]
        first = np.ones(len(edge), dtype=bool)
        first[1:] = (edge[1:] != edge[:-1]) | (cat[1:] != cat[:-1])
        starts = np.flatnonzero(first)
        if len(starts):
            val = np.add.reduceat(val, starts)
        cat, edge = cat[starts], edge[starts]
        bounds = np.searchsorted(cat, np.arange(ncats + 1))
        for ci in range(ncats):
            lo, hi = bounds[ci], bounds[ci + 1]
            self._cat_delta[ci] = (edge[lo:hi], val[lo:hi])

    def _owners(self):
        """Each edge's owning instruction, by destination and by source."""
        if self._dst_owner is None:
            col = self.graph.column_data
            # edges are CSR-sorted by destination, so this is one repeat
            csr = np.asarray(col("csr"), dtype=np.int64)
            self._dst_owner = np.repeat(
                np.arange(self.graph.num_nodes, dtype=np.int64)
                // NODES_PER_INST, np.diff(csr))
            self._src_owner = np.asarray(col("src"),
                                         dtype=np.int64) // NODES_PER_INST
        return self._dst_owner, self._src_owner

    def _apply_selection(self, sel: EventSelection, lat, removed) -> None:
        cat = sel.category
        if cat in _WHOLE_MACHINE_ONLY:
            raise ValueError(
                f"{cat} is a whole-machine constraint; per-instruction "
                f"selections are not meaningful for it"
            )
        ci = cat.index
        seqs = np.fromiter(sel.seqs, dtype=np.int64, count=len(sel.seqs))
        dst_owner, src_owner = self._owners()
        in_dst = np.isin(dst_owner, seqs)
        lat -= self._val1 * ((self._cat1 == ci) & in_dst)
        lat -= self._val2 * ((self._cat2 == ci) & in_dst)
        if cat is Category.DMISS:
            # the sharer's PP wait disappears when its miss is idealized
            removed |= (self._kind == int(EdgeKind.PP)) & in_dst
        elif cat is Category.BMISP:
            # recovery edges hang off the *branch* (the edge source)
            in_src = np.isin(src_owner, seqs)
            removed |= (self._kind == int(EdgeKind.PD)) & in_src
