"""Self-profiling: the paper's icost algebra over the tool's own spans.

The paper's thesis (Sections 2-3) is that flat time accounting lies
about parallel systems: a phase's measured duration says nothing about
what shortening it would buy, because other work may run in parallel
with it (``icost > 0``) or be forced to serialize around it
(``icost < 0``).  Our analysis pipeline is now such a system -- pool
workers analyze ``--approx`` windows while the parent waits, cache
stores overlap analysis, and the flat ``--metrics`` phase totals
cannot say which interaction bounds wall time.

This module closes the loop by *dogfooding* the cost model: the
collector's finished span forest (every span carries sid/parent/pid/tid
since the causal-identity change in :mod:`repro.obs.core`) is lowered
into the existing :class:`~repro.graph.model.DependenceGraph` and
measured with the existing :class:`~repro.graph.cost.GraphCostAnalyzer`
-- no second scheduler model, the same machinery that prices DL1 misses
prices our own pool spawns.

Lowering
--------
Each (pid, tid) timeline is swept into non-overlapping **segments**
attributed to the innermost enclosing span (interior gaps become
``other`` segments), so the segments of a timeline tile its extent.
One segment = one graph "instruction"; its E->P edge carries the
segment duration in nanoseconds, tagged as a
:class:`~repro.core.categories.Category` ``DL1`` per-instruction
latency -- the one idealization the
:class:`~repro.graph.idealize.GraphIdealizer` applies as pure latency
zeroing with no structural edit, which is exactly "this work takes no
time".  Zero-latency edges encode the schedule: P->E chains along each
timeline, a fork edge from the pool span's wait segment to each worker
timeline, and a join edge from each worker's last segment to the pool's
collect segment (the pool span is split at the last worker's finish
into *wait*, which costs nothing by itself, and *collect*).  A
synthetic ``spawn`` segment covers each worker's lag between pool start
and its first recorded span -- process spawn plus payload pickling,
the overhead a pool has to earn back.

With the main timeline tiling the measured run, the graph's critical
path equals the wall time, ``cost(category)`` is the wall time saved by
idealizing that category away, and the rows of
:func:`self_profile` -- per-category costs, pairwise icosts with the
paper's serial/parallel/independent classification, and one
higher-order remainder -- sum *exactly* to the modeled wall time
(``cost`` of everything): a parallelism-aware breakdown accounting for
100% of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.categories import Category, EventSelection
from repro.core.icost import (
    CachingCostProvider,
    Interaction,
    classify_interaction,
    icost_pair,
)
from repro.core.serialize import SerializableResult, register_serializable
from repro.graph.model import DependenceGraph, EdgeKind, NodeKind, node_id

__all__ = [
    "SelfProfile",
    "SelfProfileRow",
    "build_span_graph",
    "category_of",
    "render_self_profile",
    "self_profile",
]

#: Ordered (category, span-name prefix) rules; first match wins.
#: Anything unmatched -- umbrella spans, interior gaps -- is ``other``.
CATEGORY_RULES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("simulate", ("pipeline.simulate", "sim.", "workload.",
                  "session.sweep")),
    ("cache", ("pipeline.cache.",)),
    ("build", ("pipeline.build", "graph.build")),
    ("analyze", ("pipeline.analyze", "pipeline.pool_analyze",
                 "pipeline.window_analyze", "engine.", "breakdown.",
                 "icost.", "profiler.", "multisim.", "sensitivity.")),
)

#: Pool umbrella spans: their worker timelines fork from / join into
#: them, and their own time splits into wait + collect at the join.
POOL_SPAN_NAMES = ("pipeline.pool_analyze",)

#: Relative epsilon for serial/parallel classification: interactions
#: within this fraction of the modeled total are timing noise, not
#: schedule structure (floor: 1 microsecond).
EPSILON_FRACTION = 1e-3


def category_of(name: str) -> str:
    """The self-profile category of span *name* (``other`` = none)."""
    for category, prefixes in CATEGORY_RULES:
        for prefix in prefixes:
            if name.startswith(prefix):
                return category
    return "other"


# ----------------------------------------------------------------------
# Span forest -> timeline segments
# ----------------------------------------------------------------------


@dataclass
class _SpanNode:
    sid: int
    parent: int
    name: str
    pid: int
    tid: int
    start: int  # ns
    end: int    # ns


@dataclass
class _Segment:
    """One schedule slot: a maximal run of time owned by one span."""

    start: int
    end: int
    category: Optional[str]  # None = untagged (pool wait)
    name: str
    owner_sid: int
    keep: bool = False       # keep even at zero duration (join target)
    seq: int = -1            # assigned after the global sort

    @property
    def dur(self) -> int:
        return self.end - self.start


def _subtract(start: int, end: int,
              holes: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """``[start, end)`` minus *holes* (any order, may overlap)."""
    pieces = []
    cursor = start
    for h0, h1 in sorted(holes):
        h0, h1 = max(h0, start), min(h1, end)
        if h1 <= cursor:
            continue
        if h0 > cursor:
            pieces.append((cursor, h0))
        cursor = max(cursor, h1)
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def _timeline_segments(nodes: List[_SpanNode]) -> List[_Segment]:
    """Sweep one (pid, tid) timeline into innermost-owner segments."""
    sids = {n.sid for n in nodes}
    children: Dict[int, List[_SpanNode]] = {}
    for n in nodes:
        if n.parent in sids:
            children.setdefault(n.parent, []).append(n)
    segments: List[_Segment] = []
    top = sorted((n for n in nodes if n.parent not in sids),
                 key=lambda n: (n.start, -n.end))
    for n in sorted(nodes, key=lambda n: (n.start, -n.end)):
        holes = [(c.start, c.end) for c in children.get(n.sid, ())]
        for s, e in _subtract(n.start, n.end, holes):
            segments.append(_Segment(s, e, category_of(n.name), n.name,
                                     n.sid))
    # interior gaps between top-level spans: time the thread spent
    # outside any span still elapsed on this timeline
    if top:
        holes = [(n.start, n.end) for n in top]
        for s, e in _subtract(top[0].start, max(n.end for n in top),
                              holes):
            segments.append(_Segment(s, e, "other", "(gap)", 0))
    segments.sort(key=lambda s: (s.start, s.end))
    return segments


def _split_at(segments: List[_Segment], cut: int) -> None:
    """Split any segment strictly straddling *cut* in place."""
    for i, seg in enumerate(segments):
        if seg.start < cut < seg.end:
            left = _Segment(seg.start, cut, seg.category, seg.name,
                            seg.owner_sid)
            seg.start = cut
            segments.insert(i, left)
            return


# ----------------------------------------------------------------------
# Segments -> dependence graph
# ----------------------------------------------------------------------


def build_span_graph(collector):
    """Lower *collector*'s span forest into a dependence graph.

    Returns ``(graph, groups, segments)`` where *groups* maps category
    name to the list of instruction seqs carrying that category's
    duration tags, and *segments* is the globally ordered segment list
    (diagnostics / tests).  Raises ``ValueError`` on a collector with
    no spans.
    """
    nodes: List[_SpanNode] = []
    for name, ts, dur, tid, _args, sid, parent, pid in collector.spans:
        start = round(ts * 1000.0)
        nodes.append(_SpanNode(sid, parent, name, pid, tid, start,
                               start + round(dur * 1000.0)))
    if not nodes:
        raise ValueError("self-profile needs a collector with spans")
    pids = {n.pid for n in nodes}
    root_pid = collector.pid if collector.pid in pids else \
        min(nodes, key=lambda n: (n.start, -n.end)).pid

    by_timeline: Dict[Tuple[int, int], List[_SpanNode]] = {}
    for n in nodes:
        by_timeline.setdefault((n.pid, n.tid), []).append(n)
    timelines = {key: _timeline_segments(tl_nodes)
                 for key, tl_nodes in by_timeline.items()}

    pools = {n.sid: n for n in nodes if n.name in POOL_SPAN_NAMES}
    fork_edges: List[Tuple[_Segment, _Segment]] = []  # (src, dst)
    join_edges: List[Tuple[_Segment, _Segment]] = []
    for sid, pool in pools.items():
        pool_tl = timelines[(pool.pid, pool.tid)]
        workers = []  # anchored worker timelines, as segment lists
        for key, tl_nodes in by_timeline.items():
            if key == (pool.pid, pool.tid):
                continue
            if any(n.parent == sid for n in tl_nodes):
                segs = [s for s in timelines[key]
                        if pool.start <= s.start < pool.end]
                if segs:
                    workers.append((key, segs))
        if not workers:
            continue
        tjoin = min(pool.end,
                    max(s.end for _, segs in workers for s in segs))
        _split_at(pool_tl, tjoin)
        collect = None
        for seg in pool_tl:
            if seg.owner_sid == sid and seg.end <= tjoin:
                # waiting on the workers: holds no cost of its own, the
                # fork/join edges carry the workers' time instead
                seg.category = None
                seg.name = pool.name + " (wait)"
            if collect is None and seg.start >= tjoin:
                collect = seg
        if collect is None:  # pool time fully consumed before tjoin
            collect = _Segment(tjoin, tjoin, category_of(pool.name),
                               pool.name + " (collect)", sid, keep=True)
            pool_tl.append(collect)
            pool_tl.sort(key=lambda s: (s.start, s.end))
        fork_src = next((s for s in pool_tl if s.start >= pool.start),
                        None)
        for key, segs in workers:
            first = segs[0]
            if first.start > pool.start:
                spawn = _Segment(pool.start, first.start, "spawn",
                                 pool.name + " (spawn)", 0)
                tl = timelines[key]
                at = next(i for i, s in enumerate(tl) if s is first)
                tl.insert(at, spawn)
                first = spawn
            if fork_src is not None and fork_src is not first:
                fork_edges.append((fork_src, first))
            join_edges.append((segs[-1], collect))

    # global instruction order: by start time, root process first on
    # ties (fork targets must come after their source; join sources
    # always start strictly before the collect segment)
    keyed = []
    for (pid, tid), segs in timelines.items():
        for idx, seg in enumerate(segs):
            if seg.dur > 0 or seg.keep:
                keyed.append(((seg.start, pid != root_pid, pid, tid,
                               idx), seg))
    keyed.sort(key=lambda kv: kv[0])
    ordered = [seg for _, seg in keyed]
    for seq, seg in enumerate(ordered):
        seg.seq = seq

    groups: Dict[str, List[int]] = {}
    dl1 = int(Category.DL1.index)
    edges: List[Tuple[int, int, EdgeKind, int, int, int]] = []
    for seg in ordered:
        if seg.category is not None and seg.dur > 0:
            groups.setdefault(seg.category, []).append(seg.seq)
            edges.append((node_id(seg.seq, NodeKind.E),
                          node_id(seg.seq, NodeKind.P),
                          EdgeKind.EP, seg.dur, dl1, seg.dur))
        else:
            # untagged, zero-latency slot: a pool *wait* holds no time
            # of its own -- the fork/join path through the workers is
            # what stretches the schedule across it
            edges.append((node_id(seg.seq, NodeKind.E),
                          node_id(seg.seq, NodeKind.P),
                          EdgeKind.EP, 0, -1, 0))
    for segs in timelines.values():
        live = [s for s in segs if s.seq >= 0]
        for a, b in zip(live, live[1:]):
            edges.append((node_id(a.seq, NodeKind.P),
                          node_id(b.seq, NodeKind.E),
                          EdgeKind.PR, 0, -1, 0))
    for src, dst in fork_edges:
        if 0 <= src.seq < dst.seq:
            edges.append((node_id(src.seq, NodeKind.E),
                          node_id(dst.seq, NodeKind.E),
                          EdgeKind.DR, 0, -1, 0))
    for src, dst in join_edges:
        if 0 <= src.seq < dst.seq:
            edges.append((node_id(src.seq, NodeKind.P),
                          node_id(dst.seq, NodeKind.E),
                          EdgeKind.PC, 0, -1, 0))

    graph = DependenceGraph(len(ordered))
    for src, dst, kind, lat, cat1, val1 in sorted(
            edges, key=lambda e: (e[1], e[0], int(e[2]))):
        graph.add_edge(src, dst, kind, lat, cat1, val1)
    graph.finalize()
    return graph, groups, ordered


# ----------------------------------------------------------------------
# Profile result
# ----------------------------------------------------------------------


@register_serializable
@dataclass(frozen=True)
class SelfProfileRow(SerializableResult):
    """One breakdown row: a category cost, a pairwise interaction, or
    the higher-order remainder."""

    label: str
    kind: str              # "cost" | "interaction" | "residual"
    ms: float
    percent: float
    classification: str = ""  # serial/parallel/independent (interactions)


@register_serializable
@dataclass(frozen=True)
class SelfProfile(SerializableResult):
    """A parallelism-aware wall-time breakdown of one observed run."""

    total_ms: float             # modeled schedule length (critical path)
    wall_ms: float              # measured wall clock around the run
    coverage: float             # total_ms / wall_ms
    categories: Tuple[str, ...]
    rows: Tuple[SelfProfileRow, ...]
    spans: int
    segments: int
    processes: int

    def cost_rows(self) -> Tuple[SelfProfileRow, ...]:
        """The per-category ``cost(S)`` rows."""
        return tuple(r for r in self.rows if r.kind == "cost")

    def interaction_rows(self) -> Tuple[SelfProfileRow, ...]:
        """The pairwise ``icost({a, b})`` rows."""
        return tuple(r for r in self.rows if r.kind == "interaction")

    def classified(self, classification: str) -> Tuple[SelfProfileRow, ...]:
        """Interaction rows with the given classification."""
        return tuple(r for r in self.interaction_rows()
                     if r.classification == classification)

    def payload(self) -> Dict[str, Any]:
        """The JSON shape persisted in manifests and bench summaries."""
        return {
            "total_ms": round(self.total_ms, 3),
            "wall_ms": round(self.wall_ms, 3),
            "coverage": round(self.coverage, 4),
            "categories": list(self.categories),
            "spans": self.spans,
            "segments": self.segments,
            "processes": self.processes,
            "rows": [{
                "label": r.label,
                "kind": r.kind,
                "ms": round(r.ms, 3),
                "percent": round(r.percent, 2),
                "classification": r.classification,
            } for r in self.rows],
        }


def self_profile(collector, wall_ms: Optional[float] = None,
                 engine: str = "batched") -> SelfProfile:
    """Run the paper's cost/icost algebra over *collector*'s spans.

    *wall_ms* is the externally measured wall clock of the observed
    region (defaults to the span extent).  The returned rows --
    ``cost(category)`` per category, ``icost({a, b})`` per category
    pair, plus one higher-order remainder -- sum exactly to
    :attr:`SelfProfile.total_ms`, the modeled critical path.
    """
    from repro.graph.cost import GraphCostAnalyzer

    graph, groups, segments = build_span_graph(collector)
    extent_ms = (max(s.end for s in segments)
                 - min(s.start for s in segments)) / 1e6 if segments else 0.0
    if wall_ms is None:
        wall_ms = extent_ms
    analyzer = GraphCostAnalyzer(graph, engine=engine)
    try:
        provider = CachingCostProvider(analyzer)
        selections = {
            category: EventSelection(Category.DL1, frozenset(seqs),
                                     name=f"self.{category}")
            for category, seqs in groups.items()}
        categories = tuple(sorted(selections))
        total_ns = analyzer.total
        epsilon = max(1_000.0, total_ns * EPSILON_FRACTION)
        rows: List[SelfProfileRow] = []

        def pct(ns: float) -> float:
            return 100.0 * ns / total_ns if total_ns else 0.0

        costs: Dict[str, float] = {}
        for category in categories:
            costs[category] = provider.cost([selections[category]])
            rows.append(SelfProfileRow(
                label=category, kind="cost", ms=costs[category] / 1e6,
                percent=pct(costs[category])))
        pair_total = 0.0
        for a, b in combinations(categories, 2):
            value = icost_pair(provider, selections[a], selections[b])
            pair_total += value
            kind = classify_interaction(value, epsilon=epsilon)
            rows.append(SelfProfileRow(
                label=f"{a}+{b}", kind="interaction", ms=value / 1e6,
                percent=pct(value), classification=kind.value))
        union_cost = provider.cost(
            [selections[c] for c in categories]) if categories else 0.0
        residual = union_cost - sum(costs.values()) - pair_total
        rows.append(SelfProfileRow(
            label="higher-order", kind="residual", ms=residual / 1e6,
            percent=pct(residual)))
    finally:
        analyzer.close()

    rows.sort(key=lambda r: ({"cost": 0, "interaction": 1,
                              "residual": 2}[r.kind], -abs(r.ms)))
    processes = len({rec[7] for rec in collector.spans})
    total_ms = total_ns / 1e6
    return SelfProfile(
        total_ms=total_ms, wall_ms=float(wall_ms),
        coverage=total_ms / wall_ms if wall_ms else 0.0,
        categories=categories, rows=tuple(rows),
        spans=len(collector.spans), segments=len(segments),
        processes=processes)


def render_self_profile(profile: SelfProfile) -> str:
    """The self-profile as an aligned text table."""
    lines = [
        "self-profile: icost over the tool's own span schedule",
        f"  modeled schedule : {profile.total_ms:10.3f} ms  "
        f"({profile.segments} segments, {profile.spans} spans, "
        f"{profile.processes} process(es))",
        f"  measured wall    : {profile.wall_ms:10.3f} ms  "
        f"({100.0 * profile.coverage:.1f}% accounted)",
        "",
        "  category cost(S) -- wall time saved by idealizing S away",
    ]
    for row in profile.cost_rows():
        lines.append(f"    {row.label:<18} {row.ms:10.3f} ms "
                     f"{row.percent:6.1f}%")
    interactions = profile.interaction_rows()
    if interactions:
        lines.append("")
        lines.append("  pairwise icost({a,b}) -- parallel > 0, "
                     "serial < 0")
        for row in interactions:
            lines.append(f"    {row.label:<18} {row.ms:+10.3f} ms "
                         f"{row.percent:+6.1f}%  {row.classification}")
    residual = next(r for r in profile.rows if r.kind == "residual")
    lines.append("")
    lines.append(f"    {'higher-order':<18} {residual.ms:+10.3f} ms "
                 f"{residual.percent:+6.1f}%")
    lines.append("")
    lines.append("  rows sum to the modeled schedule exactly "
                 "(docs/OBSERVABILITY.md)")
    return "\n".join(lines)
