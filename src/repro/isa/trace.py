"""Dynamic traces: the committed-path instruction stream plus statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

try:  # numpy backs InstColumns; everything else here is pure Python
    import numpy as np
except ImportError:  # pragma: no cover - numpy ships with the package
    np = None

from repro.isa.instructions import DynInst, OpClass
from repro.isa.program import Program


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


class InstColumns:
    """The per-instruction facts vectorized graph emission consumes,
    gathered once per trace into flat arrays (struct-of-arrays).

    ``opgroup`` follows the EP-edge grouping (0 memory, 1 short ALU,
    2 long ALU, 3 branches/other); ``taken_br`` marks committed taken
    branches.  The deduplicated register producers of instruction ``i``
    occupy ``pr_prod[pr_start[i]:pr_start[i+1]]`` in first-occurrence
    order (out-of-trace ``-1`` references already dropped), and
    ``mem_extra[i]`` is the store that forwards to load ``i`` when it is
    not already among the register producers, else ``-1`` -- exactly the
    dedup the reference builder performs per instruction, hoisted into
    a one-time pass so every window emission reuses it.
    """

    __slots__ = ("n", "opgroup", "taken_br", "pr_start", "pr_prod",
                 "mem_extra")

    def __init__(self, insts: List[DynInst]) -> None:
        n = len(insts)
        self.n = n
        self.opgroup = np.empty(n, dtype=np.int64)
        self.taken_br = np.zeros(n, dtype=np.bool_)
        self.mem_extra = np.full(n, -1, dtype=np.int64)
        pr_start = np.empty(n + 1, dtype=np.int64)
        pr_start[0] = 0
        prods: List[int] = []
        for i, inst in enumerate(insts):
            cls = inst.opclass
            group = (0 if cls.is_mem else
                     1 if cls.is_short_alu else
                     2 if cls.is_long_alu else 3)
            self.opgroup[i] = group
            if group == 3 and inst.taken:
                self.taken_br[i] = True
            seen = set()
            for j in inst.src_producers:
                if j >= 0 and j not in seen:
                    seen.add(j)
                    prods.append(j)
            pr_start[i + 1] = len(prods)
            mem = inst.mem_producer
            if inst.is_load and mem >= 0 and mem not in seen:
                self.mem_extra[i] = mem
        self.pr_start = pr_start
        self.pr_prod = np.asarray(prods, dtype=np.int64)


class Trace:
    """A committed dynamic instruction stream tied to its program binary.

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

    def __init__(self, program: Program, insts: List[DynInst],
                 warm_l1_ranges: Tuple = (), warm_l2_ranges: Tuple = ()) -> None:
        self.program = program
        self.insts = insts
        self.warm_l1_ranges = tuple(warm_l1_ranges)
        self.warm_l2_ranges = tuple(warm_l2_ranges)
        self._inst_columns: Optional[InstColumns] = None

    def inst_columns(self) -> Optional[InstColumns]:
        """The cached :class:`InstColumns` block of this trace.

        Built on first use and memoized; ``None`` without numpy.  The
        instruction list is immutable once a trace is constructed, so
        the block can never go stale.
        """
        if np is None:  # pragma: no cover - numpy ships with the package
            return None
        if self._inst_columns is None:
            self._inst_columns = InstColumns(self.insts)
        return self._inst_columns

    def __len__(self) -> int:
        return len(self.insts)

    def __iter__(self) -> Iterator[DynInst]:
        return iter(self.insts)

    def __getitem__(self, idx: int) -> DynInst:
        return self.insts[idx]

    @property
    def name(self) -> str:
        return self.program.name

    def stats(self) -> TraceStats:
        """Instruction-mix counts over the whole trace."""
        loads = stores = branches = taken = short_alu = long_alu = 0
        for inst in self.insts:
            cls = inst.opclass
            if cls is OpClass.LOAD:
                loads += 1
            elif cls is OpClass.STORE:
                stores += 1
            elif cls is OpClass.BRANCH:
                branches += 1
                if inst.taken:
                    taken += 1
            elif cls.is_short_alu:
                short_alu += 1
            elif cls.is_long_alu:
                long_alu += 1
        return TraceStats(
            total=len(self.insts),
            loads=loads,
            stores=stores,
            branches=branches,
            taken_branches=taken,
            short_alu=short_alu,
            long_alu=long_alu,
        )

    def pc_histogram(self) -> Dict[int, int]:
        """Execution count of every static PC (hot-path inspection)."""
        hist: Dict[int, int] = {}
        for inst in self.insts:
            hist[inst.pc] = hist.get(inst.pc, 0) + 1
        return hist
