"""Per-instruction timing events recorded by the simulator.

``InstEvents`` is the contract between the simulator and everything
downstream: the dependence-graph builder reads node times and measured
edge latencies from it (Figure 5b's 'dynamic' column), the multisim
cost provider reads total cycles, and the shotgun profiler's detailed
samples are projections of it.

Two representations carry that contract:

- the **object plane** -- a plain ``List[InstEvents]``, produced by the
  reference simulator and consumed by the reference graph builder; the
  semantic oracle every differential suite pins against.
- the **columnar plane** -- :class:`EventColumns`, one int64 matrix in
  ``InstEvents`` field order (struct-of-arrays).  The fast core emits
  it directly, the artifact cache round-trips it npz <-> matrix, and
  the vectorized builder reads whole columns from it.  Results built on
  it expose :class:`LazyEvents` as ``result.events``: a sequence facade
  that materializes ``InstEvents`` objects only when legacy code
  actually indexes or iterates it, counting every materialization under
  the ``sim.events_materialized`` obs counter so the hot path can be
  gated to zero object churn (docs/ARCHITECTURE.md, "Columnar data
  plane").
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Sequence, Union

import numpy as np

import repro.obs as obs
from repro.isa.trace import Trace


@dataclass
class InstEvents:
    """Timing record of one dynamic instruction.

    Node times correspond to the graph model's five nodes per
    instruction (Table 3): ``d`` dispatch into the window, ``r`` all
    operands ready, ``e`` execution start, ``p`` execution complete,
    ``c`` commit.  ``f`` is the fetch cycle (folded into D in the graph
    model, kept here for inspection).
    """

    seq: int
    pc: int
    # node times
    f: int = 0
    d: int = 0
    r: int = 0
    e: int = 0
    p: int = 0
    c: int = 0
    # fetch-side events (attributed to the delayed instruction)
    icache_delay: int = 0
    l1i_miss: bool = False
    l2i_miss: bool = False
    itlb_miss: bool = False
    # execution-side events
    exec_latency: int = 0
    dl1_component: int = 0
    miss_component: int = 0
    l1d_miss: bool = False
    l2d_miss: bool = False
    dtlb_miss: bool = False
    #: sequence number of the load whose in-flight fill this load shares
    pp_partner: int = -1
    #: cycles spent waiting for an issue slot or functional unit (E - R)
    fu_contention: int = 0
    # control events
    mispredicted: bool = False
    #: extra commit delay charged to store-commit bandwidth
    store_bw_delay: int = 0


#: InstEvents field names in dataclass (= columnar row) order.
EVENT_FIELDS = tuple(f.name for f in fields(InstEvents))
#: The InstEvents fields whose values are booleans (stored 0/1).
EVENT_BOOL_FIELDS = frozenset(f.name for f in fields(InstEvents)
                              if isinstance(f.default, bool))
_FIELD_ROW = {name: i for i, name in enumerate(EVENT_FIELDS)}
_BOOL_ROWS = tuple(_FIELD_ROW[name] for name in EVENT_FIELDS
                   if name in EVENT_BOOL_FIELDS)


class EventColumns:
    """Struct-of-arrays timing events: one ``(F, n)`` int64 matrix.

    Row ``i`` is the ``InstEvents`` field ``EVENT_FIELDS[i]`` of every
    instruction (bool fields stored 0/1).  This is the canonical
    interchange format of the hot path: the fast core fills it straight
    from the kernel's output rows, the artifact cache maps it npz <->
    matrix with no per-instruction work, and the vectorized graph
    builder slices whole rows out of it.

    The matrix is owned by the producing ``SimResult`` and treated as
    immutable by every consumer; windows are numpy views, never copies.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        if matrix.ndim != 2 or matrix.shape[0] != len(EVENT_FIELDS):
            raise ValueError(
                f"EventColumns expects a ({len(EVENT_FIELDS)}, n) matrix, "
                f"got shape {matrix.shape}")
        self.matrix = matrix

    # -- construction ---------------------------------------------------

    @classmethod
    def from_events(cls, events: Sequence[InstEvents]) -> "EventColumns":
        """Gather an object list into columns (the slow direction)."""
        mat = np.empty((len(EVENT_FIELDS), len(events)), dtype=np.int64)
        for i, ev in enumerate(events):
            mat[:, i] = (ev.seq, ev.pc, ev.f, ev.d, ev.r, ev.e, ev.p,
                         ev.c, ev.icache_delay, ev.l1i_miss, ev.l2i_miss,
                         ev.itlb_miss, ev.exec_latency, ev.dl1_component,
                         ev.miss_component, ev.l1d_miss, ev.l2d_miss,
                         ev.dtlb_miss, ev.pp_partner, ev.fu_contention,
                         ev.mispredicted, ev.store_bw_delay)
        return cls(mat)

    # -- shape ----------------------------------------------------------

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.matrix.shape[1]

    def window(self, start: int, stop: int) -> "EventColumns":
        """A zero-copy view of instructions ``start .. stop-1``."""
        return EventColumns(self.matrix[:, start:stop])

    # -- column access --------------------------------------------------

    def column(self, name: str) -> "np.ndarray":
        """The int64 row of field *name* (a view, 0/1 for bools)."""
        return self.matrix[_FIELD_ROW[name]]

    def bool_column(self, name: str) -> "np.ndarray":
        """The row of a bool field as a boolean array."""
        return self.matrix[_FIELD_ROW[name]] != 0

    # -- materialization (the only place objects are built) -------------

    def materialize_one(self, i: int) -> InstEvents:
        """Build the ``InstEvents`` of instruction *i* (plain Python
        ints/bools, so the object is bit-identical to the eager list)."""
        row = self.matrix[:, i].tolist()
        for b in _BOOL_ROWS:
            row[b] = bool(row[b])
        return InstEvents(*row)

    def to_events(self) -> List[InstEvents]:
        """Materialize the whole run as an object list."""
        cols = []
        for row, name in enumerate(EVENT_FIELDS):
            if name in EVENT_BOOL_FIELDS:
                cols.append((self.matrix[row] != 0).tolist())
            else:
                cols.append(self.matrix[row].tolist())
        return [InstEvents(*vals) for vals in zip(*cols)]

    def event_counts(self) -> Dict[str, int]:
        """Vectorized equivalent of summing over the object list."""
        return {
            "l1d_misses": int(np.count_nonzero(self.column("l1d_miss"))),
            "l2d_misses": int(np.count_nonzero(self.column("l2d_miss"))),
            "dtlb_misses": int(np.count_nonzero(self.column("dtlb_miss"))),
            "l1i_misses": int(np.count_nonzero(self.column("l1i_miss"))),
            "mispredicts": int(np.count_nonzero(
                self.column("mispredicted"))),
            "partial_misses": int(np.count_nonzero(
                self.column("pp_partner") >= 0)),
        }

    def __reduce__(self):
        # views pickle compactly (the slice is copied, not the base)
        return (EventColumns, (np.ascontiguousarray(self.matrix),))


class LazyEvents:
    """Sequence facade over :class:`EventColumns`.

    Indexing or iterating builds ``InstEvents`` objects on demand --
    each construction bumps the ``sim.events_materialized`` obs counter,
    which the pipeline-smoke CI gate pins to zero on the breakdown hot
    path.  Slicing with step 1 stays columnar: it returns another
    ``LazyEvents`` viewing the same matrix, remembering its offset into
    the *root* columns so the graph builder can reach one instruction of
    left context without materializing anything.
    """

    __slots__ = ("columns", "root", "offset")

    def __init__(self, columns: EventColumns,
                 root: "EventColumns" = None, offset: int = 0) -> None:
        self.columns = columns
        self.root = root if root is not None else columns
        self.offset = offset

    def __len__(self) -> int:
        return self.columns.n

    def __getitem__(self, index) -> Union[InstEvents, "LazyEvents"]:
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1:
                return LazyEvents(self.columns.window(start, stop),
                                  self.root, self.offset + start)
            obs.count("sim.events_materialized", len(range(start, stop, step)))
            return [self.columns.materialize_one(i)
                    for i in range(start, stop, step)]
        i = index if index >= 0 else len(self) + index
        if not 0 <= i < len(self):
            raise IndexError(index)
        obs.count("sim.events_materialized")
        return self.columns.materialize_one(i)

    def __iter__(self):
        n = len(self)
        if n:
            obs.count("sim.events_materialized", n)
        return iter(self.columns.to_events())

    def __bool__(self) -> bool:
        return len(self) > 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (LazyEvents, list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    def __reduce__(self):
        # pool workers receive the matrix, never an object list; the
        # root/offset relationship survives, so a slice stays a view
        # of its root
        if self.root is self.columns:
            return (LazyEvents, (self.columns,))
        return (LazyEvents, (self.columns, self.root, self.offset))


@dataclass
class SimResult:
    """Everything one simulation run produced.

    ``cycles`` is total execution time; ``events`` is parallel to
    ``trace.insts`` -- either an eager ``List[InstEvents]`` (reference
    simulator) or a :class:`LazyEvents` facade over columns (fast core,
    warm artifact cache).  ``stats`` carries predictor/cache counters
    for workload characterisation.
    """

    trace: Trace
    config: object
    ideal: object
    events: Sequence[InstEvents]
    cycles: int
    stats: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_columns(cls, trace: Trace, config, ideal,
                     columns: EventColumns, cycles: int,
                     stats=None) -> "SimResult":
        """A result carrying the columnar plane natively."""
        return cls(trace, config, ideal, LazyEvents(columns), cycles,
                   stats if stats is not None else {})

    @property
    def columns(self) -> "EventColumns":
        """The event columns when this result is columnar, else None."""
        ev = self.events
        return ev.columns if isinstance(ev, LazyEvents) else None

    def event_columns(self) -> EventColumns:
        """Columns either way: native, or gathered from the object list."""
        cols = self.columns
        return cols if cols is not None else EventColumns.from_events(
            self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def ipc(self) -> float:
        return len(self.events) / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / len(self.events) if self.events else 0.0

    def event_counts(self) -> Dict[str, int]:
        """Counts of the stall-causing events, for characterisation."""
        cols = self.columns
        if cols is not None:  # columnar: no objects built
            return cols.event_counts()
        counts = {
            "l1d_misses": 0,
            "l2d_misses": 0,
            "dtlb_misses": 0,
            "l1i_misses": 0,
            "mispredicts": 0,
            "partial_misses": 0,
        }
        for ev in self.events:
            counts["l1d_misses"] += ev.l1d_miss
            counts["l2d_misses"] += ev.l2d_miss
            counts["dtlb_misses"] += ev.dtlb_miss
            counts["l1i_misses"] += ev.l1i_miss
            counts["mispredicts"] += ev.mispredicted
            counts["partial_misses"] += ev.pp_partner >= 0
        return counts
