"""The parametrised workload generator behind most of the suite.

A :class:`MixSpec` describes one loop iteration as counts of
*ingredients*; :func:`generate` assembles the program, its data image
and warmth declarations.  The ingredients are wired the way real
integer codes wire them -- loads feed branches, chases are serial
within an iteration but independent across iterations -- because those
couplings are what produce the paper's serial/parallel interaction
signs (e.g. dl1+bmisp serial requires branches *fed by* dl1-latency
loads, not branches merely near them).

Ingredient -> category map:

- ``chase_*``: seeded L1-resident pointer chases -- dl1 (serial
  load-use); with ``chase_branch`` the final payload feeds a branch
  (dl1+bmisp serial).
- ``gather_*``: random gathers into a big region -- dmiss; with
  ``gather_branch`` the value feeds a branch (bmisp+dmiss serial).
- ``stream_count``: line-striding loads into an L2-warm buffer --
  independent 12-cycle misses that fill the window (win, dmiss).
- ``branch_count``: branches on streamed random decisions -- bmisp.
- ``alu_chain``: a serial one-cycle-op chain -- shalu.
- ``ilp_rounds``: wide independent integer work -- bw.
- ``store_count``: store bursts -- bw (store-commit bandwidth).
- ``mul_count`` / ``fp_adds``: multi-cycle operations -- lgalu.
- ``functions`` / ``body_pad``: spread the body over many padded
  functions -- imiss once the footprint exceeds the 32 KiB L1I.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from repro.isa.instructions import fp_reg
from repro.isa.program import ProgramBuilder
from repro.workloads import kernels as K
from repro.workloads.kernels import WORD, MemoryImage


@dataclass(frozen=True)
class MixSpec:
    """Per-iteration ingredient counts for one synthetic workload."""

    name: str
    description: str
    iters: int

    # dl1: seeded pointer chases, independent across iterations
    chase_count: int = 0
    chase_links: int = 3
    chase_branch: bool = False
    chase_threshold: int = 50    # payload in [0,100); min(t,100-t)% mispredict
    #: warmth of the seed array: "l1" makes chases pure dl1 chains;
    #: "l2" (or "cold") makes each chase *start* with a cache miss, so
    #: dmiss feeds dl1 serially (the object-traversal pattern)
    chase_seed_warmth: str = "l1"

    # dmiss: random gathers
    gather_count: int = 0
    gather_kb: int = 256
    gather_warmth: str = "l2"
    gather_branch: bool = False
    gather_hi: int = 2           # value range; P(taken) = 1 - 1/hi

    # win/dmiss: line-striding stream into an L2-warm buffer
    stream_count: int = 0
    stream_dep_alu: int = 0

    # bmisp: branches on streamed random decisions
    branch_count: int = 0
    branch_hi: int = 2
    branch_work: int = 2

    # shalu / bw / lgalu
    alu_chain: int = 0
    ilp_rounds: int = 0
    store_count: int = 0
    mul_count: int = 0
    fp_adds: int = 0
    #: with split bodies, only every k-th function gets the FP chain
    fp_every: int = 1

    # imiss: body spread over padded functions
    functions: int = 0
    body_pad: int = 0


def generate(spec: MixSpec, scale: float = 1.0, seed: int = 0):
    """Build the :class:`~repro.workloads.spec.Workload` for *spec*."""
    from repro.workloads.spec import Workload, _load_address

    # zlib.crc32, unlike hash(), is stable across processes -- workload
    # data must not depend on PYTHONHASHSEED
    rng = random.Random(seed ^ (zlib.crc32(spec.name.encode()) & 0xFFFFFF))
    mem = MemoryImage()
    iters = max(1, round(spec.iters * scale))

    # ---- data regions -------------------------------------------------
    # With a split body, every function consumes its own slice of each
    # per-iteration stream, so arrays are sized (and bases advanced) by
    # counts * bodies.
    bodies = max(1, spec.functions)
    chain_nodes = 256            # 2 words per node: 4 KiB, L1-resident
    chain = _build_payload_chain(mem, chain_nodes, rng)
    chase_seeds = None
    if spec.chase_count:
        per_iter = spec.chase_count * bodies
        # one seed per cache line when the seed array is miss-warm, so
        # every chase begins with its own fresh miss
        stride = K.WORDS_PER_LINE if spec.chase_seed_warmth != "l1" else 1
        chase_seeds = mem.alloc(per_iter * (iters + 1) * stride,
                                warmth=spec.chase_seed_warmth)
        mem.fill(chase_seeds, K.randrange_run(
            rng, per_iter * (iters + 1) * stride, 0, chain_nodes) * 2 * WORD)
    gather_region = gather_idx = None
    if spec.gather_count:
        words = spec.gather_kb * 1024 // WORD
        gather_region = K.build_random_words(
            mem, words, rng, lo=0, hi=spec.gather_hi,
            warmth=spec.gather_warmth)
        gather_idx = K.build_index_array(
            mem, spec.gather_count * bodies * (iters + 1), words, rng,
            warmth="l1")
    stream = None
    if spec.stream_count:
        words = spec.stream_count * bodies * K.WORDS_PER_LINE * (iters + 1)
        stream = K.build_random_words(mem, words, rng, warmth="l2")
    decisions = None
    if spec.branch_count:
        decisions = K.build_random_words(
            mem, spec.branch_count * bodies * (iters + 1), rng, lo=0,
            hi=spec.branch_hi, warmth="l1")
    store_region = None
    if spec.store_count:
        store_region = mem.alloc(
            max(spec.store_count * bodies * (iters + 1), 64), warmth="l1")

    # register plan: r21 chain base, r22 seeds, r23 gather idx,
    # r24 gather region, r25 stream, r26 decisions, r27 stores
    b = ProgramBuilder(spec.name)
    _load_address(b, 21, chain)
    if chase_seeds is not None:
        _load_address(b, 22, chase_seeds)
    if gather_idx is not None:
        _load_address(b, 23, gather_idx)
        _load_address(b, 24, gather_region)
    if stream is not None:
        _load_address(b, 25, stream)
    if decisions is not None:
        _load_address(b, 26, decisions)
    if store_region is not None:
        _load_address(b, 27, store_region)
    b.addi(20, 0, iters)
    b.label("outer")

    if spec.functions:
        for f in range(spec.functions):
            b.call(f"fn_{f}")
    else:
        _emit_iteration(b, spec, "i", body_index=0)
    _advance_streams(b, spec, bodies)
    b.addi(20, 20, -1)
    b.bne(20, 0, "outer")
    b.halt()

    if spec.functions:
        for f in range(spec.functions):
            b.label(f"fn_{f}")
            _emit_iteration(b, spec, f"f{f}", body_index=f)
            _emit_pad(b, spec.body_pad)
            b.ret()

    return Workload(spec.name, spec.description, b.build(), mem.data,
                    mem.ranges("l1"), mem.ranges("l2"))


# ----------------------------------------------------------------------


def _build_payload_chain(mem: MemoryImage, nodes: int,
                         rng: random.Random) -> int:
    """A cyclic chain of 2-word nodes: [next offset, random payload]."""
    import numpy as np

    order = K.shuffled_range(rng, nodes)
    base = mem.alloc(nodes * 2, warmth="l1")
    node_words = np.empty((nodes, 2), dtype=np.int64)
    node_words[order, 0] = np.roll(order, -1) * 2 * WORD
    node_words[order, 1] = K.randrange_run(rng, nodes, 0, 100)
    mem.fill(base, node_words.ravel())
    return base


def _emit_iteration(b: ProgramBuilder, spec: MixSpec, tag: str,
                    body_index: int = 0) -> None:
    """One iteration body (or one function body when split).

    *body_index* selects this body's slice of every streamed array so
    split bodies consume distinct data.
    """
    seed_stride = K.WORDS_PER_LINE if spec.chase_seed_warmth != "l1" else 1
    chase_base = body_index * spec.chase_count * seed_stride
    gather_base = body_index * spec.gather_count
    stream_base = body_index * spec.stream_count * K.WORDS_PER_LINE
    branch_base = body_index * spec.branch_count
    store_base = body_index * spec.store_count
    for c in range(spec.chase_count):
        # seed load: L1-resident, or a fresh miss when seeds are
        # line-strided through a colder region
        b.ld(2, 22, (chase_base + c * seed_stride) * WORD)
        for _ in range(spec.chase_links):
            b.add(3, 21, 2)
            b.ld(2, 3, 0)
        if spec.chase_branch:
            label = f"ch_{tag}_{c}"
            b.add(3, 21, 2)
            b.ld(4, 3, WORD)                 # payload, dl1-fed
            b.slti(4, 4, spec.chase_threshold)
            b.beq(4, 0, label)
            b.addi(16, 16, 1)
            b.label(label)
        else:
            b.add(16, 16, 2)

    for g in range(spec.gather_count):
        b.ld(4, 23, (gather_base + g) * WORD)
        b.add(4, 4, 24)
        b.ld(5, 4, 0)                        # the dmiss event
        if spec.gather_branch:
            label = f"gb_{tag}_{g}"
            b.bne(5, 0, label)               # bmisp fed by the miss
            b.addi(16, 16, 1)
            b.label(label)
        else:
            b.add(17, 17, 5)

    for i in range(spec.stream_count):
        b.ld(1, 25, (stream_base + i * K.WORDS_PER_LINE) * WORD)
        for _ in range(spec.stream_dep_alu):
            b.addi(1, 1, 1)
        b.add(17, 17, 1)

    for i in range(spec.branch_count):
        label = f"rb_{tag}_{i}"
        b.ld(2, 26, (branch_base + i) * WORD)
        b.bne(2, 0, label)
        for _ in range(spec.branch_work):
            b.addi(16, 16, 1)
        b.label(label)

    if spec.alu_chain:
        # Reset the chain head from r0: chains are local to one body,
        # independent across iterations.  This is what makes shalu and
        # the window *serially* interact (Table 4b): the in-window chain
        # serializes execution while the window serializes how many
        # chains can overlap -- removing either constraint dissolves
        # the same bottleneck.
        b.addi(18, 0, 1)
        K.emit_alu_chain(b, reg=18, length=spec.alu_chain)
    if spec.ilp_rounds:
        K.emit_ilp_alu(b, regs=[8, 9, 10, 11], rounds=spec.ilp_rounds)
    for s in range(spec.store_count):
        b.st(17, 27, (store_base + s) * WORD)
    for _ in range(spec.mul_count):
        b.mul(19, 19, 17)
    if spec.fp_adds and body_index % max(1, spec.fp_every) == 0:
        # a *local* serial FP chain: reseeded per body so it competes
        # with this body's other work instead of forming a cross-body
        # spine no idealization could expose
        f1, f2 = fp_reg(1), fp_reg(2)
        b.fcvt(f1, 17)
        b.fcvt(f2, 16)
        for _ in range(spec.fp_adds):
            b.fadd(f2, f2, f1)
        b.add(15, 15, f2)


def _advance_streams(b: ProgramBuilder, spec: MixSpec, bodies: int) -> None:
    """Advance every streamed region's base register once per iteration."""
    if spec.chase_count:
        stride = K.WORDS_PER_LINE if spec.chase_seed_warmth != "l1" else 1
        b.addi(22, 22, bodies * spec.chase_count * stride * WORD)
    if spec.gather_count:
        b.addi(23, 23, bodies * spec.gather_count * WORD)
    if spec.stream_count:
        b.addi(25, 25, bodies * spec.stream_count * K.WORDS_PER_LINE * WORD)
    if spec.branch_count:
        b.addi(26, 26, bodies * spec.branch_count * WORD)
    if spec.store_count:
        b.addi(27, 27, bodies * spec.store_count * WORD)


def _emit_pad(b: ProgramBuilder, pad: int) -> None:
    """Wide independent filler: inflates code footprint at high IPC.

    Every op writes from r0, so the filler carries no dependence chain
    at all -- it loads the fetch/issue bandwidth (and, through sheer
    footprint, the instruction cache) without adding shalu-chain cost.
    """
    regs = (5, 6, 8, 9, 10, 11)
    for i in range(pad):
        b.addi(regs[i % len(regs)], 0, i & 0x7FF)
