"""Graph storage: five nodes per instruction, twelve edge kinds (Table 3).

The graph is stored in CSR form sorted by destination node.  Node
indices are ``inst_seq * 5 + kind`` with kinds ordered D, R, E, P, C;
because every Table 3 edge points from an earlier (instruction, kind)
pair to a later one, node-index order is a topological order, and the
longest-path DP is a single forward sweep.

Each edge carries up to two *latency components* tagged with the
breakdown category whose idealization removes them (e.g. a load's EP
edge has a DL1 component and a DMISS component).  Three edge kinds are
*removed outright* by an idealization rather than shortened: CD by an
infinite window, PD by perfect branch prediction, and PP by a perfect
data cache.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.core.categories import Category


class NodeKind(enum.IntEnum):
    """The five nodes per dynamic instruction (Table 3)."""

    D = 0  # dispatch into the window
    R = 1  # all data operands ready
    E = 2  # execution start
    P = 3  # execution complete
    C = 4  # commit


NODES_PER_INST = len(NodeKind)


class EdgeKind(enum.IntEnum):
    """The twelve dependence-edge kinds of Table 3."""

    DD = 0    # in-order dispatch (carries icache/ITLB miss latency)
    FBW = 1   # finite fetch bandwidth
    CD = 2    # finite re-order buffer (window); removed by WIN
    PD = 3    # control dependence (mispredict recovery); removed by BMISP
    DR = 4    # execution follows dispatch
    PR = 5    # data dependences (register and memory)
    RE = 6    # execute after ready (FU / issue-slot contention)
    EP = 7    # execution latency
    PP = 8    # cache-line sharing; removed by DMISS
    PC = 9    # commit follows completion
    CC = 10   # in-order commit (carries store-BW contention)
    CBW = 11  # commit bandwidth


#: Edge kinds an idealization removes entirely (kind -> category index).
REMOVAL_CATEGORY = {
    EdgeKind.CD: Category.WIN.index,
    EdgeKind.PD: Category.BMISP.index,
    EdgeKind.PP: Category.DMISS.index,
}

#: Sentinel meaning "this latency component belongs to no category".
NO_CATEGORY = -1


@dataclass(frozen=True)
class Edge:
    """A materialised view of one edge (for inspection and tests)."""

    src: int
    dst: int
    kind: EdgeKind
    latency: int
    cat1: int = NO_CATEGORY
    val1: int = 0
    cat2: int = NO_CATEGORY
    val2: int = 0

    @property
    def src_inst(self) -> int:
        return self.src // NODES_PER_INST

    @property
    def dst_inst(self) -> int:
        return self.dst // NODES_PER_INST

    @property
    def src_kind(self) -> NodeKind:
        return NodeKind(self.src % NODES_PER_INST)

    @property
    def dst_kind(self) -> NodeKind:
        return NodeKind(self.dst % NODES_PER_INST)


def node_id(seq: int, kind: NodeKind) -> int:
    """Flat node index of instruction *seq*'s node of *kind*."""
    return seq * NODES_PER_INST + int(kind)


#: List attribute -> column name in ``_col_arrays``.  For graphs
#: assembled from arrays (vectorized build, window graphs, cache
#: loads) the python lists are materialised lazily from these columns
#: on first attribute access; array consumers (the batched engine, the
#: idealizer, the artifact cache) go through :meth:`column_data` and
#: never pay the conversion.
LAZY_LIST_COLUMNS = {
    "edge_src": "src",
    "edge_kind": "kind",
    "edge_lat": "lat",
    "edge_cat1": "cat1",
    "edge_val1": "val1",
    "edge_cat2": "cat2",
    "edge_val2": "val2",
    "csr_start": "csr",
}


class DependenceGraph:
    """CSR-stored dependence graph of one microexecution.

    Construct through :class:`repro.graph.builder.GraphBuilder`; edges
    must be appended in nondecreasing destination-node order (the
    builder guarantees this by emitting each instruction's incoming
    edges in node order).
    """

    def __init__(self, num_insts: int) -> None:
        self.num_insts = num_insts
        self.num_nodes = num_insts * NODES_PER_INST
        self.edge_src: List[int] = []
        self.edge_kind: List[int] = []
        self.edge_lat: List[int] = []
        self.edge_cat1: List[int] = []
        self.edge_val1: List[int] = []
        self.edge_cat2: List[int] = []
        self.edge_val2: List[int] = []
        # csr_start[v] .. csr_start[v+1] index the edges into node v
        self.csr_start: List[int] = [0]
        self._cur_dst = 0
        self._finalized = False
        # Seed latency on the first D node: instruction 0 has no
        # incoming DD edge, so its cold-start fetch delay (icache/ITLB
        # miss) lives here, tagged with the category that removes it.
        self.seed_lat = 0
        self.seed_cat = NO_CATEGORY
        self.seed_val = 0
        # optional int64 column cache, populated when the graph was
        # materialised from arrays (vectorized build, window graphs,
        # cache loads); see column_data
        self._col_arrays = None

    def __getattr__(self, name: str):
        # Lazily rebuild a python edge list from the array columns.
        # Only reached when the attribute is absent from the instance
        # dict -- i.e. after from_arrays() dropped the eager lists.
        key = LAZY_LIST_COLUMNS.get(name)
        if key is not None:
            cols = self.__dict__.get("_col_arrays")
            if cols is not None and key in cols:
                value = cols[key].tolist()
                setattr(self, name, value)
                return value
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    @classmethod
    def from_arrays(cls, num_insts: int,
                    cols: Dict[str, object]) -> "DependenceGraph":
        """A finalized graph backed directly by int64 edge columns.

        *cols* maps every :data:`LAZY_LIST_COLUMNS` column name
        (including ``csr``) to a destination-sorted int64 array.  The
        arrays are adopted as-is; the python list views materialise
        only if something actually asks for them.
        """
        graph = cls(num_insts)
        for attr in LAZY_LIST_COLUMNS:
            delattr(graph, attr)
        graph._col_arrays = dict(cols)
        graph._cur_dst = graph.num_nodes
        graph._finalized = True
        return graph

    def column_data(self, name: str):
        """One edge column for array consumers.

        Returns the cached int64 numpy column when the graph was
        materialised from arrays, else the backing python list --
        either way something ``np.asarray(..., dtype=...)`` accepts.
        *name* is one of ``src``/``kind``/``lat``/``cat1``/``val1``/
        ``cat2``/``val2``/``csr``.
        """
        cols = self._col_arrays
        if cols is not None and name in cols:
            return cols[name]
        if name == "csr":
            return self.csr_start
        return getattr(self, "edge_" + name)

    def set_seed(self, latency: int, cat: int = NO_CATEGORY,
                 val: int = 0) -> None:
        """Set the start-time seed of node 0 (instruction 0's D node)."""
        if latency < 0 or val < 0:
            raise ValueError("negative seed latency")
        self.seed_lat = latency
        self.seed_cat = cat
        self.seed_val = val

    # ------------------------------------------------------------------

    def add_edge(self, src: int, dst: int, kind: EdgeKind, latency: int,
                 cat1: int = NO_CATEGORY, val1: int = 0,
                 cat2: int = NO_CATEGORY, val2: int = 0) -> None:
        """Append one edge; *dst* must be >= every previous edge's dst."""
        if self._finalized:
            raise RuntimeError("graph already finalized")
        if dst < self._cur_dst:
            raise ValueError("edges must be added in destination order")
        if not 0 <= src < dst:
            raise ValueError(f"edge {src}->{dst} is not forward")
        if dst >= self.num_nodes:
            raise ValueError(f"node {dst} out of range")
        if latency < 0:
            raise ValueError("negative edge latency")
        while self._cur_dst < dst:
            self.csr_start.append(len(self.edge_src))
            self._cur_dst += 1
        self.edge_src.append(src)
        self.edge_kind.append(int(kind))
        self.edge_lat.append(latency)
        self.edge_cat1.append(cat1)
        self.edge_val1.append(val1)
        self.edge_cat2.append(cat2)
        self.edge_val2.append(val2)

    def finalize(self) -> None:
        """Close the graph: pad CSR offsets for trailing edge-less nodes."""
        while len(self.csr_start) <= self.num_nodes:
            self.csr_start.append(len(self.edge_src))
        self._finalized = True

    # ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.column_data("src"))

    def edge(self, index: int, dst: Optional[int] = None) -> Edge:
        """Materialise the edge at CSR *index* directly, without scanning.

        *dst* may be supplied when the caller already knows the
        destination node (e.g. a critical-path backtrack); otherwise it
        is recovered from the CSR offsets by bisection.
        """
        if not 0 <= index < self.num_edges:
            raise IndexError(f"edge index {index} out of range")
        if dst is None:
            dst = bisect_right(self.csr_start, index) - 1
        return Edge(
            src=self.edge_src[index],
            dst=dst,
            kind=EdgeKind(self.edge_kind[index]),
            latency=self.edge_lat[index],
            cat1=self.edge_cat1[index],
            val1=self.edge_val1[index],
            cat2=self.edge_cat2[index],
            val2=self.edge_val2[index],
        )

    def in_edges(self, dst: int) -> Iterator[Edge]:
        """Materialised incoming edges of node *dst*."""
        for e in range(self.csr_start[dst], self.csr_start[dst + 1]):
            yield Edge(
                src=self.edge_src[e],
                dst=dst,
                kind=EdgeKind(self.edge_kind[e]),
                latency=self.edge_lat[e],
                cat1=self.edge_cat1[e],
                val1=self.edge_val1[e],
                cat2=self.edge_cat2[e],
                val2=self.edge_val2[e],
            )

    def edges(self) -> Iterator[Edge]:
        """All edges, in destination order."""
        for dst in range(self.num_nodes):
            yield from self.in_edges(dst)

    def edges_of_kind(self, kind: EdgeKind) -> Iterator[Edge]:
        """All edges of one kind, in destination order."""
        want = int(kind)
        for dst in range(self.num_nodes):
            for e in range(self.csr_start[dst], self.csr_start[dst + 1]):
                if self.edge_kind[e] == want:
                    yield Edge(
                        src=self.edge_src[e], dst=dst, kind=kind,
                        latency=self.edge_lat[e],
                        cat1=self.edge_cat1[e], val1=self.edge_val1[e],
                        cat2=self.edge_cat2[e], val2=self.edge_val2[e],
                    )

    def to_dot(self, max_insts: Optional[int] = 20) -> str:
        """Graphviz rendering of (a prefix of) the graph, for Figure 2-style
        visualisation."""
        limit = self.num_insts if max_insts is None else min(max_insts, self.num_insts)
        node_limit = limit * NODES_PER_INST
        lines = ["digraph microexecution {", "  rankdir=LR;"]
        for seq in range(limit):
            for kind in NodeKind:
                nid = node_id(seq, kind)
                lines.append(f'  n{nid} [label="{kind.name}{seq}"];')
        for dst in range(node_limit):
            for edge in self.in_edges(dst):
                if edge.src >= node_limit:
                    continue
                lines.append(
                    f'  n{edge.src} -> n{edge.dst} '
                    f'[label="{edge.kind.name}:{edge.latency}"];'
                )
        lines.append("}")
        return "\n".join(lines)
