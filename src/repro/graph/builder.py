"""Building the dependence graph of a simulated execution.

The builder consumes a :class:`repro.uarch.events.SimResult` and emits
the Table 3 edges, with measured latencies where Figure 5b marks them
dynamic, and configuration constants where it marks them static.  It
includes the three Table 2 refinements over prior work: five nodes per
instruction, explicit FBW/CBW bandwidth edges, and PP cache-line
sharing edges.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.core.categories import Category
from repro.graph.model import (
    NO_CATEGORY,
    NODES_PER_INST,
    DependenceGraph,
    EdgeKind,
    NodeKind,
    node_id,
)
from repro.isa.trace import InstView
from repro.uarch.events import LazyEvents, SimResult

#: Version of the graph-construction model.  Participates in the
#: content-addressed artifact-cache key (:mod:`repro.pipeline.artifacts`);
#: bump it whenever the emitted edges change meaning or shape, so stale
#: cached graphs can never be mistaken for current ones.
GRAPH_MODEL_VERSION = 1

_DL1 = Category.DL1.index
_BW = Category.BW.index
_DMISS = Category.DMISS.index
_SHALU = Category.SHALU.index
_LGALU = Category.LGALU.index
_IMISS = Category.IMISS.index

# the per-event fields object emission gathers, pulled through one
# tuple attrgetter per object (a single pass through the Python
# attribute machinery instead of one per field)
_EV_FIELDS = operator.attrgetter(
    "icache_delay", "mispredicted", "fu_contention", "store_bw_delay",
    "pp_partner", "dl1_component", "miss_component", "exec_latency")


class GraphBuilder:
    """Constructs a :class:`DependenceGraph` from simulator events.

    Parameters
    ----------
    model_taken_branch_breaks:
        When true (the default), a one-cycle DD latency is added after
        every taken branch, modelling the end of the fetch group.  The
        paper's model omits this; the ablation benchmark measures the
        accuracy it buys on our machine (whose fetch groups end at the
        first taken branch).
    """

    def __init__(self, model_taken_branch_breaks: bool = True,
                 vectorized: Optional[bool] = None) -> None:
        self.model_taken_branch_breaks = model_taken_branch_breaks
        # None = auto, the numpy path; the reference loop stays available
        # (vectorized=False) and the differential suite pins the two
        # paths edge-for-edge identical
        self.vectorized = True if vectorized is None else vectorized

    def build(self, result: SimResult) -> DependenceGraph:
        """Construct the Table 3 graph of one simulated run."""
        with obs.span("graph.build", insns=len(result.trace.insts)) as sp:
            if self.vectorized:
                graph = self._build_vectorized(result)
            else:
                graph = self._build(result)
            sp.set(edges=graph.num_edges)
        return graph

    def _build_vectorized(self, result: SimResult) -> DependenceGraph:
        """Array-at-a-time construction; identical output to :meth:`_build`."""
        insts = result.trace.insts
        cols, seed = emit_edge_arrays(
            insts, result.events, result.config,
            breaks=self.model_taken_branch_breaks,
            trace=result.trace)
        return graph_from_arrays(len(insts), cols, seed)

    def _build(self, result: SimResult) -> DependenceGraph:
        trace = result.trace
        events = result.events
        insts = list(trace.insts)  # indexed at random: materialize once
        cfg = result.config
        n = len(insts)
        graph = DependenceGraph(n)
        if n == 0:
            graph.finalize()
            return graph

        fbw = cfg.fetch_width
        cbw = cfg.commit_width
        window = cfg.window_size
        recovery = cfg.mispredict_recovery
        wakeup_extra = cfg.issue_wakeup - 1
        c2c = cfg.complete_to_commit
        breaks = self.model_taken_branch_breaks

        for i in range(n):
            ev = events[i]
            inst = insts[i]
            d_i = node_id(i, NodeKind.D)
            r_i = node_id(i, NodeKind.R)
            e_i = node_id(i, NodeKind.E)
            p_i = node_id(i, NodeKind.P)
            c_i = node_id(i, NodeKind.C)

            # ---- edges into D: DD, FBW, CD, PD ----
            if i == 0 and ev.icache_delay:
                graph.set_seed(ev.icache_delay, _IMISS, ev.icache_delay)
            if i > 0:
                prev = insts[i - 1]
                break_lat = 1 if (breaks and prev.is_branch and prev.taken) else 0
                icache = ev.icache_delay
                # two tagged components: the icache/ITLB delay belongs
                # to imiss, the fetch-group break to bw (an ideal front
                # end fetches past taken branches)
                graph.add_edge(
                    node_id(i - 1, NodeKind.D), d_i, EdgeKind.DD,
                    icache + break_lat,
                    cat1=_IMISS if icache else NO_CATEGORY, val1=icache,
                    cat2=_BW if break_lat else NO_CATEGORY, val2=break_lat,
                )
                if i >= fbw:
                    graph.add_edge(
                        node_id(i - fbw, NodeKind.D), d_i, EdgeKind.FBW, 1)
                if i >= window:
                    graph.add_edge(
                        node_id(i - window, NodeKind.C), d_i, EdgeKind.CD, 0)
                if events[i - 1].mispredicted:
                    graph.add_edge(
                        node_id(i - 1, NodeKind.P), d_i, EdgeKind.PD, recovery)

            # ---- edges into R: DR, PR ----
            graph.add_edge(d_i, r_i, EdgeKind.DR, 1)
            seen = set()
            for j in inst.src_producers:
                if j >= 0 and j not in seen:
                    seen.add(j)
                    graph.add_edge(
                        node_id(j, NodeKind.P), r_i, EdgeKind.PR, wakeup_extra)
            if inst.is_load and inst.mem_producer >= 0 \
                    and inst.mem_producer not in seen:
                graph.add_edge(
                    node_id(inst.mem_producer, NodeKind.P), r_i, EdgeKind.PR, 0)

            # ---- edge into E: RE ----
            graph.add_edge(r_i, e_i, EdgeKind.RE, ev.fu_contention,
                           cat1=_BW, val1=ev.fu_contention)

            # ---- edges into P: EP, PP ----
            graph.add_edge(e_i, p_i, EdgeKind.EP, *self._ep_latency(inst, ev))
            if 0 <= ev.pp_partner < i:
                # Table 2's cache-line sharing edge.  Out-of-order issue
                # occasionally lets a *younger* load initiate the fill an
                # older load then shares; the graph is in program order,
                # so those (rare) backward sharings are left unmodelled.
                graph.add_edge(
                    node_id(ev.pp_partner, NodeKind.P), p_i, EdgeKind.PP, 0)

            # ---- edges into C: PC, CC, CBW ----
            graph.add_edge(p_i, c_i, EdgeKind.PC, c2c)
            if i > 0:
                graph.add_edge(node_id(i - 1, NodeKind.C), c_i, EdgeKind.CC,
                               ev.store_bw_delay,
                               cat1=_BW, val1=ev.store_bw_delay)
                if i >= cbw:
                    graph.add_edge(
                        node_id(i - cbw, NodeKind.C), c_i, EdgeKind.CBW, 1)

        graph.finalize()
        return graph

    @staticmethod
    def _ep_latency(inst, ev):
        """EP edge latency plus its category components.

        For memory operations the latency decomposes into the dl1
        access loop and the miss penalty; for a fill-sharing load the
        wait for the in-flight line is carried by the PP edge instead,
        so the EP edge holds only the hit-path components.
        """
        cls = inst.opclass
        if cls.is_mem:
            lat = ev.dl1_component + ev.miss_component
            return (lat, _DL1, ev.dl1_component, _DMISS, ev.miss_component)
        lat = ev.exec_latency
        if cls.is_short_alu:
            return (lat, _SHALU, lat, NO_CATEGORY, 0)
        if cls.is_long_alu:
            return (lat, _LGALU, lat, NO_CATEGORY, 0)
        return (lat, NO_CATEGORY, 0, NO_CATEGORY, 0)  # branches


def build_graph(result: SimResult,
                model_taken_branch_breaks: bool = True) -> DependenceGraph:
    """Convenience wrapper around :class:`GraphBuilder`."""
    return GraphBuilder(model_taken_branch_breaks).build(result)


# ----------------------------------------------------------------------
# Vectorized edge emission (the fast path, and the truncating window
# builder of the windowed pipeline mode and the sampled provider)
# ----------------------------------------------------------------------

#: Column names of one emitted edge block, in DependenceGraph order.
EDGE_COLUMNS = ("src", "dst", "kind", "lat", "cat1", "val1", "cat2", "val2")


def emit_edge_arrays(insts: Sequence, events: Sequence, cfg,
                     breaks: bool = True, *,
                     start: int = 0,
                     trace=None) -> Tuple[Dict[str, "np.ndarray"],
                                          Optional[Tuple[int, int, int]]]:
    """Emit the Table 3 edges of a contiguous instruction range as arrays.

    *insts*/*events* cover instructions ``start .. start+len-1`` of a
    run.  At ``start=0`` over the whole run this is exactly
    :meth:`GraphBuilder._build`.  Any other range is a truncating
    window: a profiler-fragment-style local graph -- producers, fill
    partners and mispredict sources before *start* fall out of trace,
    node ids are window-local, and structural guards (fetch/commit
    bandwidth, window occupancy) use window-local positions, matching
    :class:`repro.analysis.sampled.WindowedRun` semantics edge for
    edge.

    The instruction facts come from the ``InstColumns`` block of
    *trace* or, for a stand-in without one, of the
    :class:`~repro.isa.trace.InstView` *insts* (which must start at
    *start*).  When *events* is a
    :class:`~repro.uarch.events.LazyEvents` facade whose offset matches
    *start*, emission reads whole event columns -- zero ``InstEvents``
    materialized; any other event sequence is gathered object by object.

    Returns ``(columns, seed)`` where *columns* maps
    :data:`EDGE_COLUMNS` to int64 arrays sorted in CSR (destination,
    emission-slot) order, and *seed* is the ``(latency, category,
    value)`` start seed of node 0, or None when node 0 has none.
    """
    n = len(insts)
    empty = {c: np.zeros(0, dtype=np.int64) for c in EDGE_COLUMNS}
    if n == 0:
        return empty, None

    fbw = cfg.fetch_width
    cbw = cfg.commit_width
    window = cfg.window_size
    recovery = cfg.mispredict_recovery
    wakeup_extra = cfg.issue_wakeup - 1
    c2c = cfg.complete_to_commit

    # producer references before *start* fall out of trace; the rest
    # map to window-local node ids
    local = np.arange(n, dtype=np.int64)
    abs_idx = local + start
    nid5 = local * 5

    # the instruction facts are the InstColumns block of the trace (in
    # absolute positions), or of the InstView a window stand-in holds;
    # the event facts are read from the columnar matrix when the event
    # facade's window lines up with [start, start+n), else gathered
    # from the objects (the reference core's list, WindowedRun copies)
    getter = getattr(trace, "inst_columns", None)
    icols = getter() if callable(getter) else None
    if icols is None or icols.n < start + n:
        if not (isinstance(insts, InstView) and insts.start == start):
            raise TypeError("edge emission needs a trace with "
                            "inst_columns() or an InstView at *start*")
        icols = insts.block.inst_columns
    opgroup = icols.opgroup[start:start + n]
    taken_br = icols.taken_br[start:start + n]
    if isinstance(events, LazyEvents) and len(events) == n \
            and events.offset == start:
        ecols = events.columns
        icache = ecols.column("icache_delay")
        misp = ecols.bool_column("mispredicted")
        fu = ecols.column("fu_contention")
        sbw = ecols.column("store_bw_delay")
        pp = ecols.column("pp_partner")
        dl1c = ecols.column("dl1_component")
        missc = ecols.column("miss_component")
        execl = ecols.column("exec_latency")
    else:
        ev_mat = np.array([_EV_FIELDS(ev) for ev in events], dtype=np.int64)
        icache, misp_i, fu, sbw, pp, dl1c, missc, execl = ev_mat.T
        misp = misp_i.astype(np.bool_)

    blocks: List[Tuple["np.ndarray", ...]] = []

    def block(src, dst, kind, lat, slot, cat1=None, val1=None,
              cat2=None, val2=None):
        m = len(src)
        if m == 0:
            return
        zeros = np.zeros(m, dtype=np.int64)
        none = np.full(m, NO_CATEGORY, dtype=np.int64)
        blocks.append((
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            np.full(m, int(kind), dtype=np.int64),
            np.asarray(lat, dtype=np.int64),
            none if cat1 is None else np.asarray(cat1, dtype=np.int64),
            zeros if val1 is None else np.asarray(val1, dtype=np.int64),
            none if cat2 is None else np.asarray(cat2, dtype=np.int64),
            zeros if val2 is None else np.asarray(val2, dtype=np.int64),
            np.full(m, slot, dtype=np.int64),
        ))

    D, R, E, P, C = range(5)

    # ---- edges into D: DD(0), FBW(1), CD(2), PD(3) ----
    if n > 1:
        break_lat = (taken_br[:-1].astype(np.int64) if breaks
                     else np.zeros(n - 1, dtype=np.int64))
        ic = icache[1:]
        block(nid5[:-1] + D, nid5[1:] + D, EdgeKind.DD, ic + break_lat, 0,
              cat1=np.where(ic > 0, _IMISS, NO_CATEGORY), val1=ic,
              cat2=np.where(break_lat > 0, _BW, NO_CATEGORY), val2=break_lat)
    sel = np.nonzero(local >= fbw)[0]
    block(nid5[sel] + D - 5 * fbw, nid5[sel] + D, EdgeKind.FBW,
          np.ones(len(sel), dtype=np.int64), 1)
    sel = np.nonzero(local >= window)[0]
    block(nid5[sel] + C - 5 * window, nid5[sel] + D, EdgeKind.CD,
          np.zeros(len(sel), dtype=np.int64), 2)
    sel = np.nonzero(misp[:-1])[0] + 1 if n > 1 else np.zeros(0, dtype=np.int64)
    block(nid5[sel - 1] + P, nid5[sel] + D, EdgeKind.PD,
          np.full(len(sel), recovery, dtype=np.int64), 3)

    # ---- edges into R: DR(0), PR (producer order, then the memory
    # producer), from the deduplicated-producer CSR filtered by *start*.
    # Slot numbers are first-occurrence positions (not renumbered over
    # the kept subset); the lexsort only consumes their relative order
    # within a destination, and the memory producer's slot (count+1)
    # stays strictly last ----
    block(nid5 + D, nid5 + R, EdgeKind.DR, np.ones(n, dtype=np.int64), 0)
    starts = icols.pr_start[start:start + n + 1]
    lo, hi = int(starts[0]), int(starts[n])
    prod = icols.pr_prod[lo:hi]
    counts = np.diff(starts)
    dst_local = np.repeat(local, counts)
    pos = np.arange(lo, hi, dtype=np.int64) - np.repeat(starts[:-1], counts)
    keep = prod >= start
    mem = icols.mem_extra[start:start + n]
    msel = np.nonzero(mem >= start)[0]
    pr_src = np.concatenate(((prod[keep] - start) * 5 + P,
                             (mem[msel] - start) * 5 + P))
    if len(pr_src):
        m = len(pr_src)
        ks = int(np.count_nonzero(keep))
        blocks.append((
            pr_src,
            np.concatenate((nid5[dst_local[keep]] + R, nid5[msel] + R)),
            np.full(m, int(EdgeKind.PR), dtype=np.int64),
            np.concatenate((np.full(ks, wakeup_extra, dtype=np.int64),
                            np.zeros(m - ks, dtype=np.int64))),
            np.full(m, NO_CATEGORY, dtype=np.int64),
            np.zeros(m, dtype=np.int64),
            np.full(m, NO_CATEGORY, dtype=np.int64),
            np.zeros(m, dtype=np.int64),
            np.concatenate((pos[keep] + 1, counts[msel] + 1)),
        ))

    # ---- edge into E: RE(0) ----
    block(nid5 + R, nid5 + E, EdgeKind.RE, fu, 0,
          cat1=np.full(n, _BW, dtype=np.int64), val1=fu)

    # ---- edges into P: EP(0), PP(1) ----
    is_mem = opgroup == 0
    ep_lat = np.where(is_mem, dl1c + missc, execl)
    ep_cat1 = np.select(
        [is_mem, opgroup == 1, opgroup == 2],
        [_DL1, _SHALU, _LGALU], NO_CATEGORY)
    ep_val1 = np.where(is_mem, dl1c, np.where(opgroup == 3, 0, execl))
    ep_cat2 = np.where(is_mem, _DMISS, NO_CATEGORY)
    ep_val2 = np.where(is_mem, missc, 0)
    block(nid5 + E, nid5 + P, EdgeKind.EP, ep_lat, 0,
          cat1=ep_cat1, val1=ep_val1, cat2=ep_cat2, val2=ep_val2)
    sel = np.nonzero((pp >= start) & (pp < abs_idx))[0]
    block((pp[sel] - start) * 5 + P, nid5[sel] + P, EdgeKind.PP,
          np.zeros(len(sel), dtype=np.int64), 1)

    # ---- edges into C: PC(0), CC(1), CBW(2) ----
    block(nid5 + P, nid5 + C, EdgeKind.PC,
          np.full(n, c2c, dtype=np.int64), 0)
    sel = np.nonzero(local >= 1)[0]
    block(nid5[sel] + C - 5, nid5[sel] + C, EdgeKind.CC, sbw[sel], 1,
          cat1=np.full(len(sel), _BW, dtype=np.int64), val1=sbw[sel])
    sel = np.nonzero(local >= cbw)[0]
    block(nid5[sel] + C - 5 * cbw, nid5[sel] + C, EdgeKind.CBW,
          np.ones(len(sel), dtype=np.int64), 2)

    if not blocks:
        return empty, None
    stacked = [np.concatenate([b[i] for b in blocks])
               for i in range(len(EDGE_COLUMNS) + 1)]
    order = np.lexsort((stacked[-1], stacked[1]))  # by (dst, slot)
    cols = {name: stacked[i][order] for i, name in enumerate(EDGE_COLUMNS)}

    seed = None
    if int(icache[0]):
        seed = (int(icache[0]), _IMISS, int(icache[0]))
    return cols, seed


def graph_from_arrays(num_insts: int, cols: Dict[str, "np.ndarray"],
                      seed: Optional[Tuple[int, int, int]]) -> DependenceGraph:
    """Assemble a finalized :class:`DependenceGraph` from edge columns.

    *cols* must already be in CSR (destination, emission) order --
    exactly what :func:`emit_edge_arrays` produces.
    """
    csr = np.searchsorted(
        cols["dst"], np.arange(num_insts * NODES_PER_INST + 1,
                               dtype=np.int64), side="left")
    # the graph adopts the int64 columns directly; the python list
    # views rebuild lazily if an object-plane consumer asks for them
    arrays = {
        name: np.ascontiguousarray(cols[name], dtype=np.int64)
        for name in ("src", "kind", "lat", "cat1", "val1", "cat2", "val2")
    }
    arrays["csr"] = np.ascontiguousarray(csr, dtype=np.int64)
    graph = DependenceGraph.from_arrays(num_insts, arrays)
    if seed is not None:
        graph.set_seed(*seed)
    return graph


def build_window_graph(result: SimResult, start: int, length: int,
                       model_taken_branch_breaks: bool = True
                       ) -> DependenceGraph:
    """The truncating window graph of ``result[start:start+length]``.

    Semantically identical to
    ``GraphBuilder().build(WindowedRun(result, start, length))`` --
    cross-window producers, fill partners and mispredict recoveries
    become out-of-trace -- but built directly from the original arrays,
    without materialising re-indexed instruction copies.
    """
    end = min(start + length, len(result.events))
    insts = result.trace.insts[start:end]
    events = result.events[start:end]
    cols, seed = emit_edge_arrays(
        insts, events, result.config, breaks=model_taken_branch_breaks,
        start=start, trace=result.trace)
    return graph_from_arrays(len(insts), cols, seed)
