"""The twelve SPECint2000-named synthetic workloads.

Each factory composes kernels from :mod:`repro.workloads.kernels` into
a program whose bottleneck mix echoes its namesake's Table 4a profile
(the dominant categories and the headline interactions, not the exact
percentages -- see DESIGN.md for the substitution rationale).

All factories accept ``scale`` (multiplies trace length) and ``seed``
(controls random data), so the suite is deterministic.  At scale 1.0
each trace is roughly 4k-20k dynamic instructions -- long enough for
predictors, caches and the shotgun profiler's 1000-instruction
signature samples to reach steady state, short enough that the 2^n
multisim validation stays tractable in pure Python.

The ingredients map onto categories as follows:

==========================  =============================================
ingredient                  categories driven
==========================  =============================================
``emit_l1_chase``           dl1 (serial load-use), a little shalu
``emit_stream``             dmiss + win (independent misses fill the ROB)
gathers into big regions    dmiss (L2-hit or memory misses)
``emit_pointer_chase``      dmiss chains; with value branches, bmisp
``emit_random_branches``    bmisp (bias set by the data's ``hi``)
``emit_alu_chain``          shalu (serial), win via cross-iteration overlap
``emit_ilp_alu``            bw (wider than the 6-way machine)
``emit_fp_chain``           lgalu
call farms w/ big bodies    imiss (footprint beyond the 32 KiB L1I)
``emit_store_burst``        bw (store-commit bandwidth)
==========================  =============================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.isa.executor import Executor
from repro.isa.program import Program, ProgramBuilder
from repro.isa.trace import Trace
from repro.workloads import kernels as K
from repro.workloads.kernels import WORD, MemoryImage


@dataclass
class Workload:
    """A program plus its initial data-memory image and warmth info."""

    name: str
    description: str
    program: Program
    #: the initial data image: a MemoryImage, or a plain dict
    memory: Mapping[int, int] = field(default_factory=dict)
    warm_l1_ranges: tuple = ()
    warm_l2_ranges: tuple = ()
    #: the suite identity the registry built this workload under (see
    #: :func:`repro.workloads.registry.workload_identity`); its
    #: traces carry it, so the artifact cache keys them without hashing
    identity: Optional[tuple] = None

    def trace(self, max_insts: int = 2_000_000) -> Trace:
        """Execute the workload to its committed-path dynamic trace
        (a run past *max_insts* raises, so the trace is never cut)."""
        trace = Executor(self.program, max_insts=max_insts,
                         memory_init=self.memory).run()
        trace.warm_l1_ranges = self.warm_l1_ranges
        trace.warm_l2_ranges = self.warm_l2_ranges
        trace.identity = self.identity
        return trace


def _iters(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _load_address(b: ProgramBuilder, reg: int, addr: int) -> None:
    """Materialise a (possibly >16-bit) address constant into *reg*."""
    b.lui(reg, addr >> 16)
    low = addr & 0xFFFF
    if low:
        b.addi(reg, reg, low)


def _emit_gathers(b: ProgramBuilder, idx_reg: int, table_reg: int,
                  count: int, branch_tag: str = "", first_offset: int = 0
                  ) -> None:
    """*count* independent random gathers; optionally branch on each
    loaded value (nonzero-taken), then advance the index stream."""
    for i in range(count):
        b.ld(4, idx_reg, (first_offset + i) * WORD)
        b.add(4, 4, table_reg)
        b.ld(5, 4, 0)
        if branch_tag:
            label = f"ga_{branch_tag}_{i}"
            b.bne(5, 0, label)
            b.addi(16, 16, 1)
            b.label(label)
        else:
            b.add(17, 17, 5)
    b.addi(idx_reg, idx_reg, count * WORD)


# ----------------------------------------------------------------------


def make_mcf(scale: float = 1.0, seed: int = 0) -> Workload:
    """Pointer chasing over a multi-megabyte heap, branches fed by misses.

    Shape targets: dmiss dominates everything; bmisp substantial and
    *serially interacting* with dmiss (Table 4c); dl1 and win small.
    The structure makes the interaction real: each node's payload walks
    an L1 cost table and feeds a branch that gates two *independent*
    arc gathers -- a mispredict destroys that memory parallelism, and
    a faster miss resolves the branch sooner, so idealizing dmiss
    genuinely shrinks the mispredict cost.
    """
    rng = random.Random(seed ^ 0x6D6366)
    mem = MemoryImage()
    steps = _iters(550, scale)
    # the node list lives in the L2-resident part of the working set:
    # every hop is a 12-cycle L1 miss, the paper-mcf common case
    head = K.build_linked_list(mem, 30_000, rng, warmth="l2")
    # arcs: a multi-megabyte cold region scanned through random indices
    arc_words = 4 * 1024 * 1024 // WORD
    arcs = K.build_random_words(mem, arc_words, rng)
    arc_idx = K.build_index_array(mem, 2 * (steps + 2), arc_words, rng)
    # an L1-resident cost table indexed by node payloads: the dl1 hop
    # between the miss and the branch it feeds
    cost_tbl = K.build_random_words(mem, 128, rng, warmth="l1")

    b = ProgramBuilder("mcf")
    _load_address(b, 26, head)
    _load_address(b, 27, arc_idx)
    _load_address(b, 28, arcs)
    _load_address(b, 29, cost_tbl)
    chunk = 20
    b.addi(20, 0, max(1, steps // chunk))
    b.label("outer")
    for i in range(chunk):
        label = f"mc_{i}"
        b.ld(2, 26, WORD)            # node payload (memory-miss chain)
        b.ld(26, 26, 0)              # next node (dependent miss)
        b.sll(2, 2, 3)               # payload [0,100) -> table offset
        b.add(3, 29, 2)
        b.ld(4, 3, 0)                # dl1 hop fed by the miss
        b.slti(4, 4, 25)
        b.beq(4, 0, label)           # ~25% mispredict, fed by miss+dl1
        b.addi(16, 16, 1)
        b.label(label)
        # two independent arc gathers the branch gates
        for g in range(2):
            b.ld(5, 27, (2 * i + g) * WORD)
            b.add(5, 5, 28)
            b.ld(6, 5, 0)
            b.add(17, 17, 6)
    b.addi(27, 27, 2 * chunk * WORD)
    b.addi(20, 20, -1)
    b.bne(20, 0, "outer")
    b.halt()
    return Workload("mcf", make_mcf.__doc__.strip().splitlines()[0],
                    b.build(), mem.data,
                    mem.ranges("l1"), mem.ranges("l2"))


def make_perl(scale: float = 1.0, seed: int = 0) -> Workload:
    """Interpreter dispatch: indirect jumps on random opcodes, resident data.

    Shape targets: bmisp the largest (BTB-missing indirect branches),
    dl1 large, dmiss tiny, win small, healthy bw.
    """
    rng = random.Random(seed ^ 0x706572)
    mem = MemoryImage()
    iters = _iters(330, scale)
    case_count = 24
    table = mem.alloc(case_count, warmth="l1")
    selectors = mem.alloc(iters + 4, warmth="l1")
    # markov opcode stream: repeats keep the BTB right ~55% of the
    # time, like a real interpreter's skewed opcode mix
    sel_values, current = [], 0
    for _ in range(iters + 4):
        if rng.random() > 0.55:
            current = rng.randrange(case_count)
        sel_values.append(current * WORD)
    mem.fill(selectors, sel_values)
    chain = K.build_permutation_chain(mem, 512, rng)

    b = ProgramBuilder("perl")
    _load_address(b, 27, table)
    _load_address(b, 28, selectors)
    _load_address(b, 29, chain)
    b.addi(13, 0, 0)
    b.addi(24, 0, iters)

    def case_body(bb: ProgramBuilder, c: int) -> None:
        # each opcode runs a dl1 chain seeded at a case-specific node,
        # independent of other dispatches: the only cross-dispatch
        # serialization is the jr resolution itself (dl1+bmisp serial)
        bb.ld(2, 29, (c * 37 % 512) * WORD)
        for _ in range(2):
            bb.add(3, 29, 2)
            bb.ld(2, 3, 0)
        bb.add(16, 16, 2)
        K.emit_ilp_alu(bb, regs=[8, 9, 10], rounds=1)

    labels = K.emit_dispatch_table(b, table_reg=27, case_count=case_count,
                                   selector_base_reg=28, tag="p",
                                   case_body=case_body)
    b.halt()
    program = b.build()
    for i, label in enumerate(labels):
        mem.data[table + i * WORD] = program.label_pc(label)
    return Workload("perl", make_perl.__doc__.strip().splitlines()[0],
                    program, mem.data,
                    mem.ranges("l1"), mem.ranges("l2"))


# ----------------------------------------------------------------------
# The remaining ten workloads are MixSpec-driven; the knob values were
# tuned empirically against the Table 4a shape targets (see DESIGN.md).

from repro.workloads.mix import MixSpec, generate as _generate_mix

MIX_SPECS: Dict[str, MixSpec] = {
    "gzip": MixSpec(
        name="gzip",
        description="L1-resident compression loops: dl1 chains feeding "
                    "match/literal branches",
        iters=100,
        chase_count=2, chase_links=3, chase_branch=True, chase_threshold=88,
        gather_count=2, gather_kb=64, gather_warmth="l2",
        branch_count=1, branch_hi=8,
        alu_chain=14, ilp_rounds=4,
    ),
    "bzip": MixSpec(
        name="bzip",
        description="Sorting-style branches on gathered bytes over a "
                    "mid-size block",
        iters=95,
        chase_count=2, chase_links=3,
        gather_count=3, gather_kb=64, gather_branch=True, gather_hi=4,
        stream_count=4,
        alu_chain=12, ilp_rounds=1,
    ),
    "crafty": MixSpec(
        name="crafty",
        description="Bitboard search: small-table chases feeding branches, "
                    "wide ALU work",
        iters=95,
        chase_count=2, chase_links=2, chase_branch=True, chase_threshold=90,
        gather_count=1, gather_kb=64,
        branch_count=1, branch_hi=8,
        stream_count=1,
        alu_chain=8, ilp_rounds=4, store_count=2,
    ),
    "gcc": MixSpec(
        name="gcc",
        description="Compiler passes: branchy, missing, spread over many "
                    "functions",
        iters=7,
        functions=36, body_pad=30,
        chase_count=1, chase_links=1, chase_branch=True, chase_threshold=92,
        gather_count=1, gather_kb=512, gather_branch=True, gather_hi=16,
        stream_count=1,
        ilp_rounds=1,
    ),
    "gap": MixSpec(
        name="gap",
        description="Group-theory interpreter: streaming misses filling the "
                    "window, serial integer chains",
        iters=80,
        stream_count=10, stream_dep_alu=1,
        chase_count=1, chase_links=1,
        branch_count=1, branch_hi=2,
        alu_chain=30,
    ),
    "vortex": MixSpec(
        name="vortex",
        description="Object database: window-limited streams plus dl1 "
                    "chains, almost no mispredicts",
        iters=90,
        stream_count=3,
        chase_count=3, chase_links=2, chase_seed_warmth="l2",
        ilp_rounds=1,
    ),
    "parser": MixSpec(
        name="parser",
        description="Dictionary lookups: memory-missing gathers feeding "
                    "branches plus integer chains",
        iters=80,
        chase_count=2, chase_links=3,
        gather_count=2, gather_kb=1024, gather_warmth="l2",
        gather_branch=True, gather_hi=8,
        stream_count=1,
        alu_chain=18, ilp_rounds=1,
    ),
    "twolf": MixSpec(
        name="twolf",
        description="Placement annealing: netlist gathers with accept/"
                    "reject branches",
        iters=85,
        chase_count=1, chase_links=4,
        gather_count=3, gather_kb=512, gather_branch=True, gather_hi=16,
        stream_count=2,
        alu_chain=6, mul_count=1,
    ),
    "vpr": MixSpec(
        name="vpr",
        description="Routing: congestion-map gathers, branches and window "
                    "pressure",
        iters=85,
        chase_count=1, chase_links=4,
        gather_count=3, gather_kb=256, gather_branch=True, gather_hi=12,
        stream_count=3,
        alu_chain=6, mul_count=1, ilp_rounds=1,
    ),
    "eon": MixSpec(
        name="eon",
        description="Ray tracing: FP chains across a >32 KiB code footprint",
        iters=2,
        functions=56, body_pad=126,
        chase_count=1, chase_links=2, chase_branch=True, chase_threshold=75,
        fp_adds=22, fp_every=3, ilp_rounds=1,
    ),
}


def _mix_factory(name: str):
    def factory(scale: float = 1.0, seed: int = 0) -> Workload:
        return _generate_mix(MIX_SPECS[name], scale=scale, seed=seed)
    factory.__name__ = f"make_{name}"
    factory.__doc__ = MIX_SPECS[name].description
    return factory


make_gzip = _mix_factory("gzip")
make_bzip = _mix_factory("bzip")
make_crafty = _mix_factory("crafty")
make_gcc = _mix_factory("gcc")
make_gap = _mix_factory("gap")
make_vortex = _mix_factory("vortex")
make_parser = _mix_factory("parser")
make_twolf = _mix_factory("twolf")
make_vpr = _mix_factory("vpr")
make_eon = _mix_factory("eon")
