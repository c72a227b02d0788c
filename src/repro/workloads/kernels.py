"""Composable program fragments the workload suite is assembled from.

Each emitter appends instructions to a :class:`ProgramBuilder` and, when
it needs initialised data, writes into a shared memory image.  Register
conventions: r1-r15 kernel scratch, r16-r19 kernel-private accumulators,
r20-r25 loop counters, r26-r30 base addresses, r31 the link register.

Data-layout conventions: all arrays are 8-byte-word based, and the
memory regions of different kernels are disjoint so their cache/TLB
behaviours compose predictably.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Dict, List

from repro.isa.program import ProgramBuilder

#: Word size used by all kernels (one element per 8 bytes).
WORD = 8
#: One cache line holds this many words (64-byte lines).
WORDS_PER_LINE = 8


class MemoryImage:
    """An initial data-memory image under construction.

    Every region carries a *warmth* declaring its steady-state cache
    residency, which the simulator establishes before timing (the
    paper measures after an 8-billion-instruction warm-up, so hot
    structures are resident there too):

    - ``"l1"``: small hot structures (chase chains, decision oracles);
      resident in L1D, L2 and the DTLB.
    - ``"l2"``: working sets that are re-scanned but exceed the L1
      (streams, mid-size blocks); resident in L2 and the DTLB, so
      their accesses are steady-state 12-cycle L1 misses.
    - ``"cold"``: giant heaps touched once (mcf-style lists); their
      memory-latency misses *are* the steady state.

    Storage is flat: :meth:`fill` writes into one int64 array per
    region (allocated on first fill, so unfilled words read 0), and
    single-word writes (``image[addr] = v``) go to a sparse overlay.
    The last write to a word wins whichever path made it.  The image
    is a read-only mapping for the executor, which keeps its stores to
    itself, so one image can back any number of executions.
    """

    WARMTHS = ("cold", "l2", "l1")

    def __init__(self) -> None:
        self.regions: List[tuple] = []  # (base, bytes, warmth)
        self._next_region = 0x10_0000   # regions start at 1 MiB
        self._bases: List[int] = []     # region bases, ascending
        self._words: Dict[int, object] = {}   # region base -> int64 array
        self._overlay: Dict[int, int] = {}
        # the region of the last read: (start, end, memoryview or None)
        self._hit: tuple = (0, 0, None)

    @property
    def data(self) -> "MemoryImage":
        """The image as an address -> word mapping (the image itself)."""
        return self

    def alloc(self, words: int, align: int = 4096,
              warmth: str = "cold") -> int:
        """Reserve a fresh region of *words* 8-byte words; returns base."""
        if warmth not in self.WARMTHS:
            raise ValueError(f"unknown warmth {warmth!r}")
        base = self._next_region
        size = words * WORD
        self._next_region += size + (-size % align) + align
        self.regions.append((base, size, warmth))
        self._bases.append(base)
        return base

    def _region(self, addr: int):
        """(base, bytes) of the region holding *addr*, or None."""
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            base, size, _ = self.regions[i]
            if addr < base + size:
                return base, size
        return None

    def fill(self, base: int, values) -> None:
        """Write *values* (a sequence or array) as consecutive words
        starting at *base*, inside one allocated region."""
        import numpy as np

        values = np.asarray(values, dtype=np.int64)
        end = base + len(values) * WORD
        region = self._region(base)
        if region is None or end > region[0] + region[1]:
            raise ValueError(f"fill [{base:#x}, {end:#x}) leaves its region")
        start, size = region
        words = self._words.get(start)
        if words is None:
            words = self._words[start] = np.zeros(size // WORD, np.int64)
            self._hit = (0, 0, None)
        lo = (base - start) // WORD
        words[lo:lo + len(values)] = values
        if self._overlay:
            for addr in [a for a in self._overlay if base <= a < end]:
                del self._overlay[addr]

    def __setitem__(self, addr: int, value: int) -> None:
        self._overlay[addr - addr % WORD] = value

    def get(self, addr: int, default: int = 0) -> int:
        """The word at *addr*: 0 if unwritten inside a region, else
        *default* if outside every region."""
        value = self._overlay.get(addr)
        if value is not None:
            return value
        start, end, words = self._hit
        if not start <= addr < end:
            region = self._region(addr)
            if region is None:
                return default
            start, size = region
            end = start + size
            words = self._words.get(start)
            # a memoryview indexes to a plain int, 4x faster than numpy
            words = None if words is None else words.data
            self._hit = (start, end, words)
        return 0 if words is None else words[(addr - start) // WORD]

    def __getitem__(self, addr: int) -> int:
        value = self.get(addr, None)
        if value is None:
            raise KeyError(addr)
        return value

    def __eq__(self, other: object) -> bool:
        """Same regions, same filled words (an unfilled region equals
        an all-zero one) and same single-word writes."""
        if not isinstance(other, MemoryImage):
            return NotImplemented
        if self.regions != other.regions or self._overlay != other._overlay:
            return False
        import numpy as np

        for base in self._words.keys() | other._words.keys():
            mine, theirs = self._words.get(base), other._words.get(base)
            if mine is None or theirs is None:
                if np.any(mine if theirs is None else theirs):
                    return False
            elif not np.array_equal(mine, theirs):
                return False
        return True

    def ranges(self, warmth: str):
        """(start, end) byte ranges of all regions with *warmth*."""
        return tuple((base, base + size) for base, size, w in self.regions
                     if w == warmth)


# ----------------------------------------------------------------------
# random draws

#: Runs shorter than this draw through the ``randrange`` loop: the
#: numpy replay's fixed cost (~0.4 ms, mostly building and loading the
#: MT19937 state) matches ~1000 loop draws.
VECTOR_MIN_DRAWS = 1024


def randrange_run(rng: random.Random, count: int, lo: int, hi: int):
    """``[rng.randrange(lo, hi) for _ in range(count)]`` as an int64 array.

    Bit-exact and stream-exact: *rng* (a plain :class:`random.Random`)
    ends in the same state as after the loop.  Long runs replay its
    MT19937 stream in numpy instead of looping: load ``getstate()``
    into numpy's ``MT19937``, take raw 32-bit words, apply
    ``randrange``'s rejection rule (keep ``word >> (32 - k)`` when it is
    below the width, *k* the width's bit length) vectorized, then hand
    the advanced state back with ``setstate()``.  Short runs and widths
    over 32 bits, where one draw spans several words, take the loop.
    """
    import numpy as np

    width = hi - lo
    k = width.bit_length()
    if count < VECTOR_MIN_DRAWS or not 0 < k <= 32:
        return np.array([rng.randrange(lo, hi) for _ in range(count)],
                        dtype=np.int64)
    version, internal, gauss_next = rng.getstate()
    bitgen = np.random.MT19937(0)  # state replaced below
    bitgen.state = {"bit_generator": "MT19937",
                    "state": {"key": np.array(internal[:-1], np.uint32),
                              "pos": internal[-1]}}
    chunks, need = [], count
    while need:
        # every draw takes at least one word, so taking exactly `need`
        # words never reads past the loop's last one; the rejected
        # share (at most half) is drawn again next round
        r = bitgen.random_raw(need) >> (32 - k)
        r = r[r < width]
        chunks.append(r)
        need -= len(r)
    end = bitgen.state["state"]
    rng.setstate((version, tuple(end["key"].tolist()) + (int(end["pos"]),),
                  gauss_next))
    return np.concatenate(chunks).astype(np.int64) + lo


def shuffled_range(rng: random.Random, count: int):
    """``range(count)`` put through one ``rng.shuffle``, as an int64
    array."""
    import numpy as np

    order = list(range(count))
    rng.shuffle(order)
    return np.array(order, dtype=np.int64)


# ----------------------------------------------------------------------
# data builders


def build_linked_list(mem: MemoryImage, nodes: int, rng: random.Random,
                      value_fn=None, warmth: str = "cold") -> int:
    """A randomly-permuted singly linked list; returns the head address.

    Node layout: word 0 = next-node address (0 terminates), word 1 = a
    payload value.  The random permutation defeats spatial locality, so
    traversal produces dependent cache (and, for large lists, TLB)
    misses -- the mcf-style behaviour.
    """
    import numpy as np

    order = shuffled_range(rng, nodes)
    base = mem.alloc(nodes * 2, warmth=warmth)
    node_words = np.zeros((nodes, 2), dtype=np.int64)
    node_words[order[:-1], 0] = base + order[1:] * 2 * WORD
    node_words[order, 1] = ([value_fn(pos) for pos in range(nodes)]
                            if value_fn else randrange_run(rng, nodes, 0, 100))
    mem.fill(base, node_words.ravel())
    return base + int(order[0]) * 2 * WORD


def build_random_words(mem: MemoryImage, words: int, rng: random.Random,
                       lo: int = 0, hi: int = 100,
                       warmth: str = "cold") -> int:
    """An array of uniform random values; returns the base address."""
    base = mem.alloc(words, warmth=warmth)
    mem.fill(base, randrange_run(rng, words, lo, hi))
    return base


def build_permutation_chain(mem: MemoryImage, words: int,
                            rng: random.Random, warmth: str = "l1") -> int:
    """An array forming one full random cycle: ``a[i]`` holds the byte
    offset of the next element.  Chasing it produces strictly serial
    load-to-load dependences; sized to stay L1-resident it is the
    purest driver of dl1-loop cost."""
    import numpy as np

    order = shuffled_range(rng, words)
    base = mem.alloc(words, warmth=warmth)
    offsets = np.empty(words, dtype=np.int64)
    offsets[order] = np.roll(order, -1) * WORD
    mem.fill(base, offsets)
    return base


def build_index_array(mem: MemoryImage, entries: int, target_words: int,
                      rng: random.Random, warmth: str = "l1") -> int:
    """An array of random word indices into a *target_words*-sized array."""
    base = mem.alloc(entries, warmth=warmth)
    mem.fill(base, randrange_run(rng, entries, 0, target_words) * WORD)
    return base


# ----------------------------------------------------------------------
# code emitters


def emit_pointer_chase(b: ProgramBuilder, ptr_reg: int, value_reg: int,
                       steps: int, branch_on_value: bool = False,
                       tag: str = "", threshold: int = 50) -> None:
    """Walk *steps* linked-list nodes starting at the address in *ptr_reg*.

    Each step is a dependent load (the dmiss chain).  With
    *branch_on_value*, each node's payload (uniform in [0, 100)) feeds
    a conditional branch taken when ``payload < threshold`` --
    unpredictable in proportion to ``min(threshold, 100-threshold)``,
    producing the branch-after-missing-load pattern behind the paper's
    mcf/parser bmisp+dmiss serial interaction.
    """
    for i in range(steps):
        b.ld(value_reg, ptr_reg, WORD)      # payload
        b.ld(ptr_reg, ptr_reg, 0)           # next pointer (dependent miss)
        if branch_on_value:
            label = f"pc_{tag}_{i}"
            b.slti(value_reg, value_reg, threshold)
            b.beq(value_reg, 0, label)
            b.addi(16, 16, 1)               # then-side work
            b.label(label)
        else:
            b.add(16, 16, value_reg)


def emit_stream(b: ProgramBuilder, base_reg: int, count: int,
                stride_words: int, acc_reg: int = 17,
                dependent_alu: int = 0) -> None:
    """Load *count* elements at a fixed stride, accumulating into *acc_reg*.

    Independent loads overlap freely until the window fills, producing
    window-limited behaviour (the gap/vortex pattern).  Each loaded
    value optionally feeds a chain of *dependent_alu* one-cycle ops,
    putting dl1/dmiss latency in series with shalu work.
    """
    for i in range(count):
        b.ld(1, base_reg, i * stride_words * WORD)
        for _ in range(dependent_alu):
            b.addi(1, 1, 1)
        b.add(acc_reg, acc_reg, 1)


def emit_l1_chase(b: ProgramBuilder, base_reg: int, ptr_reg: int,
                  links: int) -> None:
    """Chase *links* steps of a permutation chain resident in L1.

    Each link is an address add plus a dependent load: with the
    Section 4.1 machine (four-cycle dl1) every link contributes five
    strictly serial cycles, one of them shalu -- which is where the
    paper's dl1+shalu serial interaction comes from.
    """
    for _ in range(links):
        b.add(3, base_reg, ptr_reg)
        b.ld(ptr_reg, 3, 0)


def emit_alu_chain(b: ProgramBuilder, reg: int, length: int,
                   op: str = "addi") -> None:
    """A serial chain of *length* dependent one-cycle integer ops."""
    for _ in range(length):
        if op == "addi":
            b.addi(reg, reg, 1)
        elif op == "xor":
            b.xor(reg, reg, reg)
        else:
            raise ValueError(op)


def emit_ilp_alu(b: ProgramBuilder, regs: List[int], rounds: int) -> None:
    """Independent ALU work across *regs*: bandwidth-bound, no chains."""
    for _ in range(rounds):
        for reg in regs:
            b.addi(reg, reg, 1)


def emit_fp_chain(b: ProgramBuilder, freg: int, length: int,
                  op: str = "fadd") -> None:
    """A serial chain of multi-cycle floating-point ops (lgalu)."""
    for _ in range(length):
        if op == "fadd":
            b.fadd(freg, freg, freg)
        elif op == "fmul":
            b.fmul(freg, freg, freg)
        elif op == "fdiv":
            b.fdiv(freg, freg, freg)
        else:
            raise ValueError(op)


def emit_random_branches(b: ProgramBuilder, data_reg: int,
                         count: int, tag: str, work: int = 2) -> None:
    """*count* branches whose directions come from random data in memory.

    Each branch loads the next word of a random array, advancing
    *data_reg*, and branches on it being nonzero.  History predictors
    cannot learn random directions: with values uniform in [0, hi) the
    per-branch mispredict rate is about ``min(1/hi, 1 - 1/hi)``, so the
    data builder's ``hi`` is the bias knob (hi=2 gives ~50%, hi=4 gives
    ~25%).  The factory must allocate fresh data for every execution of
    these branches -- re-reading the same words makes the directions
    per-PC constants the bimodal table learns perfectly.
    """
    for i in range(count):
        label = f"rb_{tag}_{i}"
        b.ld(2, data_reg, 0)
        b.addi(data_reg, data_reg, WORD)
        b.bne(2, 0, label)
        for _ in range(work):
            b.addi(16, 16, 1)
        b.label(label)
        b.addi(17, 17, 1)


def emit_biased_branches(b: ProgramBuilder, counter_reg: int, count: int,
                         modulus: int, tag: str) -> None:
    """Branches with a periodic pattern the combining predictor learns."""
    for i in range(count):
        label = f"bb_{tag}_{i}"
        b.addi(counter_reg, counter_reg, 1)
        b.slti(3, counter_reg, modulus)
        b.bne(3, 0, label)
        b.addi(counter_reg, 0, 0)
        b.label(label)


def emit_indexed_loads(b: ProgramBuilder, index_base_reg: int,
                       table_base_reg: int, count: int,
                       dependent_alu: int = 1) -> None:
    """Gather: load an index, then load through it (two-level load chain).

    The parser/twolf-style pattern: load-to-load dependences through a
    table, mixing dl1 latency chains with data-cache misses when the
    table exceeds the cache.
    """
    for i in range(count):
        b.ld(4, index_base_reg, i * WORD)
        b.add(4, 4, table_base_reg)
        b.ld(5, 4, 0)
        for _ in range(dependent_alu):
            b.addi(5, 5, 3)
        b.add(17, 17, 5)


def emit_store_burst(b: ProgramBuilder, base_reg: int, count: int,
                     stride_words: int = 1) -> None:
    """A burst of stores, stressing store-commit bandwidth (CC edges)."""
    for i in range(count):
        b.st(17, base_reg, i * stride_words * WORD)


def emit_call_farm(b: ProgramBuilder, names: List[str]) -> None:
    """Call each function in *names* once (functions emitted separately)."""
    for name in names:
        b.call(name)


def emit_function(b: ProgramBuilder, name: str, body) -> None:
    """Define function *name*: label, body emitter, return."""
    b.label(name)
    body(b)
    b.ret()


def emit_dispatch_table(b: ProgramBuilder, table_reg: int, case_count: int,
                        selector_base_reg: int, tag: str,
                        case_body=None) -> List[str]:
    """An interpreter-style indirect dispatch loop (the perl pattern).

    Loads the next case address from a jump table indexed by random
    selectors, then ``jr`` to it; indirect-target mispredicts dominate
    when selectors are random.  Case bodies fall through to a common
    continuation label; the loop runs until r24 reaches zero.

    Returns the case labels in table order -- after ``build()`` the
    factory resolves them to PCs and writes them into the jump table's
    memory image.
    """
    cont = f"disp_cont_{tag}"
    loop = f"disp_loop_{tag}"
    b.label(loop)
    b.ld(6, selector_base_reg, 0)            # selector: case index * WORD
    b.addi(selector_base_reg, selector_base_reg, WORD)
    b.add(6, 6, table_reg)
    b.ld(7, 6, 0)                            # case target PC
    b.jr(7)
    case_labels = []
    for c in range(case_count):
        label = f"disp_case_{tag}_{c}"
        case_labels.append(label)
        b.label(label)
        if case_body is not None:
            case_body(b, c)
        else:
            b.addi(16, 16, c + 1)
        b.j(cont)
    b.label(cont)
    b.addi(24, 24, -1)
    b.bne(24, 0, loop)
    return case_labels
