"""Dynamic traces: the committed-path instruction stream plus statistics.

A trace's primary form is a :class:`TraceBlock`, a struct of arrays the
executor appends to directly.  Every bulk reader (the simulator's
columns, :class:`InstColumns`, :meth:`Trace.stats`, the content
fingerprint, the trace artifact) derives its arrays from it with
whole-array numpy.  ``trace.insts`` is a lazy :class:`InstView` that
builds ``DynInst`` objects only for the consumers that walk them,
billing each to the ``workload.insts_materialized`` counter.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.isa.instructions import DynInst, OpClass, Opcode
from repro.isa.program import Program

#: dense opcode / op-class codes (enum order) the static table stores
OPCODES: Tuple[Opcode, ...] = tuple(Opcode)
OPCLASSES: Tuple[OpClass, ...] = tuple(OpClass)
OPCLASS_CODE: Dict[OpClass, int] = {c: i for i, c in enumerate(OPCLASSES)}
_OPCODE_CODE = {op: i for i, op in enumerate(OPCODES)}
_LOAD, _STORE, _BRANCH, _IALU = (OPCLASS_CODE[c] for c in (
    OpClass.LOAD, OpClass.STORE, OpClass.BRANCH, OpClass.IALU))
_LONG_ALU = [OPCLASS_CODE[c] for c in OPCLASSES if c.is_long_alu]
#: the columns a block is built from (constructor order), stored as they
#: are by the trace artifact and saved results
BLOCK_COLUMNS = ("sidx", "next_pc", "taken", "addr", "has_addr", "prod",
                 "mem_producer")
#: op class -> EP-edge group (0 memory, 1 short ALU, 2 long ALU, 3 other)
_OPGROUP = np.asarray([0 if c.is_mem else 1 if c.is_short_alu else
                       2 if c.is_long_alu else 3 for c in OPCLASSES],
                      dtype=np.int64)


@dataclass(frozen=True)
class TraceStats:
    """Instruction-mix summary of a trace."""

    total: int
    loads: int
    stores: int
    branches: int
    taken_branches: int
    short_alu: int
    long_alu: int

    @property
    def load_frac(self) -> float:
        return self.loads / self.total if self.total else 0.0

    @property
    def branch_frac(self) -> float:
        return self.branches / self.total if self.total else 0.0


class TraceBlock:
    """The struct-of-arrays form of a committed trace.

    Per instruction ``i``: ``sidx[i]`` (its static instruction's index
    in ``program``), ``next_pc``, ``taken``, ``addr`` (unsigned 64-bit,
    meaningful where ``has_addr``) and ``mem_producer`` (a load's most
    recent earlier store to its address, else -1).  ``prod`` holds the
    register producers flattened and aligned with each ``static.srcs``:
    instruction ``i``'s are ``prod[prod_start[i]:prod_start[i + 1]]``.
    The offsets, ``pc``, ``opcode`` and ``opclass`` derive from the
    program's static table.  A block is immutable; its derived forms
    are memoized on it.
    """

    def __init__(self, program: Program, sidx, next_pc, taken, addr,
                 has_addr, prod, mem_producer) -> None:
        self.program = program
        self.sidx = np.asarray(sidx, dtype=np.int64)
        self.n = n = len(self.sidx)
        self.next_pc = np.asarray(next_pc, dtype=np.int64)
        self.taken = np.asarray(taken, dtype=np.bool_)
        self.addr = np.asarray(addr, dtype=np.uint64)
        self.has_addr = np.asarray(has_addr, dtype=np.bool_)
        self.prod = np.asarray(prod, dtype=np.int64)
        self.mem_producer = np.asarray(mem_producer, dtype=np.int64)
        self._objects: Optional[List[DynInst]] = None
        if any(len(c) != n for c in (self.next_pc, self.taken, self.addr,
                                     self.has_addr, self.mem_producer)) \
                or (n and not 0 <= self.sidx.min() <= self.sidx.max()
                    < len(program)) \
                or self.prod_start[-1] != len(self.prod):
            raise ValueError("trace block columns are inconsistent")

    def __reduce__(self):  # memoized forms are rebuilt, never shipped
        return TraceBlock, (self.program,
                            *(getattr(self, c) for c in BLOCK_COLUMNS))

    @cached_property
    def static(self) -> "np.ndarray":
        """``(pc, opcode, opclass, nsrc)`` rows over the program."""
        return np.asarray(
            [(s.pc, _OPCODE_CODE[s.opcode], OPCLASS_CODE[s.opclass],
              len(s.srcs)) for s in self.program],
            dtype=np.int64).reshape(-1, 4).T.copy()

    @cached_property
    def prod_start(self) -> "np.ndarray":
        return np.concatenate(([0], np.cumsum(self.static[3].take(
            self.sidx)))).astype(np.int64)

    @property
    def pc(self) -> "np.ndarray":
        return self.static[0].take(self.sidx)

    @property
    def opcode(self) -> "np.ndarray":
        return self.static[1].take(self.sidx)

    @property
    def opclass(self) -> "np.ndarray":
        return self.static[2].take(self.sidx)

    @cached_property
    def inst_columns(self) -> "InstColumns":
        return InstColumns(self)

    def slice(self, start: int, end: int) -> "TraceBlock":
        """A standalone block of instructions ``start .. end-1``, with
        producers re-indexed from zero (earlier ones become -1)."""
        end = min(end, self.n)
        start = min(start, end)
        prod = self.prod[self.prod_start[start]:self.prod_start[end]]
        mem = self.mem_producer[start:end]
        cut = (getattr(self, name)[start:end] for name in BLOCK_COLUMNS[:5])
        return TraceBlock(self.program, *cut,
                          np.where(prod >= start, prod - start, -1),
                          np.where(mem >= start, mem - start, -1))

    def _build(self, lo: int, hi: int) -> List[DynInst]:
        """The only place ``DynInst`` objects are built from columns."""
        obs.count("workload.insts_materialized", hi - lo)
        program = self.program
        starts = (self.prod_start[lo:hi + 1] - self.prod_start[lo]).tolist()
        prod = self.prod[self.prod_start[lo]:self.prod_start[hi]].tolist()
        addrs = [a if has else None for a, has in zip(
            self.addr[lo:hi].tolist(), self.has_addr[lo:hi].tolist())]
        return [DynInst(seq, program[k], nxt, tk, addr, tuple(prod[a:b]), m)
                for seq, k, nxt, tk, addr, a, b, m in zip(
                    range(lo, hi), self.sidx[lo:hi].tolist(),
                    self.next_pc[lo:hi].tolist(),
                    self.taken[lo:hi].tolist(), addrs, starts, starts[1:],
                    self.mem_producer[lo:hi].tolist())]


def block_from_insts(program: Program,
                     insts: Sequence[DynInst]) -> TraceBlock:
    """The block of a hand-built ``DynInst`` list (instruction ``i`` has
    ``seq == i``, a static instruction of *program* and one producer per
    source register): the one object-to-column conversion.  The list is
    kept as the block's materialized objects."""
    statics = list(program)
    at = {id(s): k for k, s in enumerate(statics)}
    cols = (array("q"), array("q"), array("B"), array("Q"), array("B"),
            array("q"), array("q"))
    sidx, next_pc, taken, addr, has_addr, prod, mem = cols
    for i, d in enumerate(insts):
        k = at.get(id(d.static), program.index_of(d.static.pc))
        if not (0 <= k < len(statics) and statics[k] == d.static
                and d.seq == i
                and len(d.src_producers) == len(d.static.srcs)):
            raise ValueError(f"instruction {i} ({d}) does not belong at "
                             f"position {i} of {program.name!r}")
        sidx.append(k)
        next_pc.append(d.next_pc)
        taken.append(bool(d.taken))
        addr.append(d.mem_addr or 0)
        has_addr.append(d.mem_addr is not None)
        prod.extend(d.src_producers)
        mem.append(d.mem_producer)
    block = TraceBlock(program, *cols)
    block._objects = list(insts)
    return block


class InstView:
    """Lazy sequence facade over instructions ``start .. stop-1`` of a
    :class:`TraceBlock`: ``len()`` and step-1 slices (views) build
    nothing, indexing builds one ``DynInst``, and iterating builds the
    block's whole list once."""

    __slots__ = ("block", "start", "stop")

    def __init__(self, block: TraceBlock, start: int = 0,
                 stop: Optional[int] = None) -> None:
        self.block = block
        self.start = start
        self.stop = block.n if stop is None else stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, index) -> Union[DynInst, "InstView",
                                          List[DynInst]]:
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1:
                return InstView(self.block, self.start + start,
                                self.start + max(start, stop))
            return [self[i] for i in range(start, stop, step)]
        i = index if index >= 0 else len(self) + index
        if not 0 <= i < len(self):
            raise IndexError(index)
        i += self.start
        objects = self.block._objects
        return objects[i] if objects else self.block._build(i, i + 1)[0]

    def __iter__(self) -> Iterator[DynInst]:
        block = self.block
        if block._objects is None and len(self):
            block._objects = block._build(0, block.n)  # memoized
        return iter((block._objects or [])[self.start:self.stop])


class InstColumns:
    """The per-instruction facts vectorized graph emission consumes.

    ``opgroup`` follows the EP-edge grouping (0 memory, 1 short ALU,
    2 long ALU, 3 branches/other); ``taken_br`` marks committed taken
    branches.  The deduplicated register producers of instruction ``i``
    occupy ``pr_prod[pr_start[i]:pr_start[i+1]]`` in first-occurrence
    order (out-of-trace ``-1`` references already dropped), and
    ``mem_extra[i]`` is the store that forwards to load ``i`` when it is
    not already among the register producers, else ``-1`` -- exactly the
    dedup the reference builder performs per instruction.
    """

    __slots__ = ("n", "opgroup", "taken_br", "pr_start", "pr_prod",
                 "mem_extra")

    def __init__(self, block: TraceBlock) -> None:
        self.n = block.n
        opclass = block.opclass
        self.opgroup = _OPGROUP.take(opclass)
        self.taken_br = (opclass == _BRANCH) & block.taken
        starts, prod = block.prod_start, block.prod
        counts = np.diff(starts)
        widest = int(counts.max()) if block.n else 0
        # a producer is kept unless it is out of trace or repeats one of
        # the (at most ``widest``) earlier producers of its instruction
        keep = prod >= 0
        pos = np.arange(len(prod)) - np.repeat(starts[:-1], counts)
        for d in range(1, widest):
            keep[d:] &= (pos[d:] < d) | (prod[d:] != prod[:-d])
        self.pr_start = np.concatenate(([0], np.cumsum(keep))).take(starts)
        self.pr_prod = prod[keep]
        # a load's memory producer joins unless a register producer is it
        mem = block.mem_producer
        extra = (opclass == _LOAD) & (mem >= 0)
        for d in range(widest):
            has = np.nonzero(extra & (counts > d))[0]
            extra[has] = prod.take(starts.take(has) + d) != mem.take(has)
        self.mem_extra = np.where(extra, mem, -1)


class Trace:
    """A committed dynamic instruction stream tied to its program binary.

    *insts* is the trace's :class:`TraceBlock`, a ``DynInst`` list (see
    :func:`block_from_insts`) or another trace's ``insts`` view; it
    reads back as a lazy :class:`InstView`.

    ``warm_l1_ranges`` / ``warm_l2_ranges`` carry the workload's
    steady-state-residency declarations (byte ranges) that the
    simulator pre-installs before timing; see
    :class:`repro.workloads.kernels.MemoryImage` for the rationale.

    ``identity`` is a tuple that determines the trace's content, when
    one is known (a suite trace's ``(workload, scale, seed, generator
    version)``); the artifact cache keys such a trace by it instead of
    hashing its instructions.
    """

    identity: Optional[tuple] = None

    def __init__(self, program: Program,
                 insts: Union[TraceBlock, InstView, Sequence[DynInst]],
                 warm_l1_ranges: Tuple = (), warm_l2_ranges: Tuple = ()) -> None:
        self.program = program
        if isinstance(insts, InstView) and insts.block.program is program \
                and (insts.start, insts.stop) == (0, insts.block.n):
            insts = insts.block
        self.block = insts if isinstance(insts, TraceBlock) \
            else block_from_insts(program, insts)
        self.warm_l1_ranges = tuple(warm_l1_ranges)
        self.warm_l2_ranges = tuple(warm_l2_ranges)

    @property
    def insts(self) -> InstView:
        return InstView(self.block)

    def inst_columns(self) -> InstColumns:
        """The trace's memoized :class:`InstColumns` block."""
        return self.block.inst_columns

    def __len__(self) -> int:
        return self.block.n

    def __iter__(self) -> Iterator[DynInst]:
        return iter(self.insts)

    def __getitem__(self, idx: int) -> DynInst:
        return self.insts[idx]

    @property
    def name(self) -> str:
        return self.program.name

    def stats(self) -> TraceStats:
        """Instruction-mix counts over the whole trace."""
        opclass = self.block.opclass
        per_class = np.bincount(opclass, minlength=len(OPCLASSES))
        return TraceStats(
            total=self.block.n,
            loads=int(per_class[_LOAD]),
            stores=int(per_class[_STORE]),
            branches=int(per_class[_BRANCH]),
            taken_branches=int(np.count_nonzero(
                self.block.taken & (opclass == _BRANCH))),
            short_alu=int(per_class[_IALU]),
            long_alu=int(per_class[_LONG_ALU].sum()),
        )

    def pc_histogram(self) -> Dict[int, int]:
        """Execution count of every static PC (hot-path inspection), in
        first-execution order."""
        sidx, first, counts = np.unique(self.block.sidx, return_index=True,
                                        return_counts=True)
        order = np.argsort(first)
        return dict(zip(self.block.static[0].take(sidx[order]).tolist(),
                        counts[order].tolist()))
