"""The kernel building blocks and the memory image."""

import random

import pytest

from repro.isa import Executor, ProgramBuilder
from repro.workloads import kernels as K
from repro.workloads.kernels import WORD, MemoryImage


class TestMemoryImage:
    def test_regions_disjoint(self):
        mem = MemoryImage()
        a = mem.alloc(100)
        b = mem.alloc(100)
        assert b >= a + 100 * WORD

    def test_warmth_recorded(self):
        mem = MemoryImage()
        a = mem.alloc(10, warmth="l1")
        b = mem.alloc(10, warmth="l2")
        mem.alloc(10)  # cold
        assert mem.ranges("l1") == ((a, a + 80),)
        assert mem.ranges("l2") == ((b, b + 80),)
        assert len(mem.ranges("cold")) == 1

    def test_bad_warmth_rejected(self):
        with pytest.raises(ValueError, match="warmth"):
            MemoryImage().alloc(10, warmth="toasty")

    def test_fill(self):
        mem = MemoryImage()
        base = mem.alloc(3)
        mem.fill(base, [7, 8, 9])
        assert mem.data[base + WORD] == 8


class TestDataBuilders:
    def test_linked_list_terminates_and_covers_all(self):
        mem = MemoryImage()
        rng = random.Random(0)
        head = K.build_linked_list(mem, 50, rng)
        seen = set()
        addr = head
        while addr:
            assert addr not in seen
            seen.add(addr)
            addr = mem.data[addr]
        assert len(seen) == 50

    def test_permutation_chain_is_one_cycle(self):
        mem = MemoryImage()
        base = K.build_permutation_chain(mem, 32, random.Random(1))
        offset = 0
        seen = set()
        for __ in range(32):
            assert offset not in seen
            seen.add(offset)
            offset = mem.data[base + offset]
        assert offset in seen  # closed the cycle
        assert len(seen) == 32

    def test_index_array_in_range(self):
        mem = MemoryImage()
        base = K.build_index_array(mem, 64, 100, random.Random(2))
        for i in range(64):
            value = mem.data[base + i * WORD]
            assert 0 <= value < 100 * WORD
            assert value % WORD == 0

    def test_random_words_respect_bounds(self):
        mem = MemoryImage()
        base = K.build_random_words(mem, 40, random.Random(3), lo=5, hi=9)
        for i in range(40):
            assert 5 <= mem.data[base + i * WORD] < 9


class TestEmitters:
    def _run(self, emit, mem=None):
        b = ProgramBuilder("k")
        b.addi(20, 0, 1)
        emit(b)
        b.halt()
        return Executor(b.build(), memory_init=(mem.data if mem else None)).run()

    def test_alu_chain_is_serial(self):
        trace = self._run(lambda b: K.emit_alu_chain(b, reg=18, length=5))
        chain = [i for i in trace if i.static.dst == 18]
        for prev, cur in zip(chain, chain[1:]):
            assert prev.seq in cur.src_producers

    def test_ilp_alu_is_parallel(self):
        trace = self._run(lambda b: K.emit_ilp_alu(b, regs=[8, 9, 10], rounds=1))
        body = [i for i in trace if i.static.dst in (8, 9, 10)]
        firsts = body[:3]
        for inst in firsts:
            assert all(p < 1 for p in inst.src_producers)

    def test_l1_chase_is_dependent_loads(self):
        mem = MemoryImage()
        base = K.build_permutation_chain(mem, 16, random.Random(4))
        def emit(b):
            b.lui(27, base >> 16)
            b.addi(27, 27, base & 0xFFFF)
            b.addi(13, 0, 0)
            K.emit_l1_chase(b, base_reg=27, ptr_reg=13, links=4)
        trace = self._run(emit, mem)
        loads = [i for i in trace if i.is_load]
        assert len(loads) == 4
        for prev, cur in zip(loads, loads[1:]):
            # each load's address depends on the previous load's value
            assert any(p >= prev.seq for p in cur.src_producers)

    def test_store_burst(self):
        def emit(b):
            b.addi(27, 0, 0x9000)
            K.emit_store_burst(b, base_reg=27, count=5)
        trace = self._run(emit)
        assert sum(1 for i in trace if i.is_store) == 5


class _CountingRandom(random.Random):
    """A plain MT19937 stream that counts ``randrange`` calls."""

    calls = 0

    def randrange(self, *args):
        self.calls += 1
        return super().randrange(*args)


class TestRandrangeReplay:
    """``randrange_run`` matches the ``randrange`` loop draw for draw
    and leaves the generator in the same state."""

    WIDTHS = (1, 2, 100, 1 << 19, 1 << 31)
    COUNTS = (0, 1, K.VECTOR_MIN_DRAWS - 1, K.VECTOR_MIN_DRAWS,
              5 * K.VECTOR_MIN_DRAWS + 3)

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("count", COUNTS)
    def test_matches_loop(self, seed, width, count):
        lo = 7
        oracle, fast = random.Random(seed), random.Random(seed)
        expected = [oracle.randrange(lo, lo + width) for _ in range(count)]
        got = K.randrange_run(fast, count, lo, lo + width)
        assert got.tolist() == expected
        assert fast.getstate() == oracle.getstate()
        assert fast.random() == oracle.random()

    def test_long_run_spans_many_state_blocks(self):
        oracle, fast = random.Random(99), random.Random(99)
        expected = [oracle.randrange(100) for _ in range(20_000)]
        assert K.randrange_run(fast, 20_000, 0, 100).tolist() == expected
        assert fast.getstate() == oracle.getstate()

    def test_pending_gauss_survives(self):
        oracle, fast = random.Random(5), random.Random(5)
        oracle.gauss(0, 1)
        fast.gauss(0, 1)      # leaves a cached second normal deviate
        K.randrange_run(fast, 1000, 0, 3)
        [oracle.randrange(3) for _ in range(1000)]
        assert fast.gauss(0, 1) == oracle.gauss(0, 1)

    def test_long_runs_take_the_replay(self):
        rng = _CountingRandom(0)
        K.randrange_run(rng, K.VECTOR_MIN_DRAWS, 0, 100)
        assert rng.calls == 0

    @pytest.mark.parametrize("width", [(1 << 32) + 1, 1 << 40])
    def test_wide_draws_take_the_loop(self, width):
        rng = _CountingRandom(0)
        got = K.randrange_run(rng, K.VECTOR_MIN_DRAWS, 0, width)
        assert rng.calls == K.VECTOR_MIN_DRAWS
        oracle = random.Random(0)
        assert got.tolist() == [oracle.randrange(width)
                                for _ in range(K.VECTOR_MIN_DRAWS)]


class TestImageSemantics:
    def test_unfilled_words_read_zero(self):
        mem = MemoryImage()
        untouched = mem.alloc(4)
        base = mem.alloc(10)
        mem.fill(base + 2 * WORD, [5])
        assert mem.data[base] == 0
        assert mem.data[base + 9 * WORD] == 0
        assert mem.data[untouched + WORD] == 0
        with pytest.raises(KeyError):
            mem.data[base - WORD]

    def test_overlay_write_after_fill_wins(self):
        mem = MemoryImage()
        base = mem.alloc(4)
        mem.fill(base, [1, 2, 3, 4])
        mem.data[base + WORD] = 20
        assert [mem.data[base + i * WORD] for i in range(4)] == [1, 20, 3, 4]

    def test_fill_after_overlay_write_wins(self):
        mem = MemoryImage()
        base = mem.alloc(4)
        mem.data[base + WORD] = 20
        mem.data[base + 3 * WORD] = 40
        mem.fill(base, [1, 2, 3])
        assert [mem.data[base + i * WORD] for i in range(4)] == [1, 2, 3, 40]

    def test_read_before_first_fill_sees_the_fill(self):
        mem = MemoryImage()
        base = mem.alloc(4)
        assert mem.data[base + WORD] == 0     # region not allocated yet
        mem.fill(base, [1, 2])
        assert mem.data[base + WORD] == 2

    def test_equality_compares_contents(self):
        def image(values, overlay=None):
            mem = MemoryImage()
            base = mem.alloc(4)
            mem.alloc(2)
            if values is not None:
                mem.fill(base, values)
            if overlay is not None:
                mem.data[base] = overlay
            return mem

        assert image([1, 2]) == image([1, 2])
        assert image([1, 2]) != image([1, 3])
        assert image(None) == image([0, 0, 0, 0])
        assert image(None) != image([0, 0, 0, 1])
        assert image([1, 2], overlay=5) != image([1, 2])
        assert image([1, 2], overlay=5) == image([1, 2], overlay=5)
        assert image(None) != {}

    def test_fill_must_stay_in_its_region(self):
        mem = MemoryImage()
        base = mem.alloc(2)
        with pytest.raises(ValueError, match="region"):
            mem.fill(base, [1, 2, 3])

    def test_executor_reads_through_without_writing(self):
        mem = MemoryImage()
        base = mem.alloc(2)
        mem.fill(base, [11, 0])
        b = ProgramBuilder("rw")
        b.lui(26, base >> 16)
        b.ld(1, 26, 0)
        b.addi(1, 1, 1)
        b.st(1, 26, 0)
        b.ld(2, 26, 0)
        b.ld(3, 26, WORD)
        b.halt()
        ex = Executor(b.build(), memory_init=mem.data)
        ex.run()
        assert ex.int_regs[2] == 12 and ex.int_regs[3] == 0
        assert mem.data[base] == 11      # the store stayed in the executor

    def test_trace_twice_is_identical(self):
        from repro.workloads.synthetic import random_program
        from tests.test_trace_golden import trace_digest
        workload = random_program(3, store_frac=0.3, load_frac=0.3)
        assert trace_digest(workload.trace()) == trace_digest(workload.trace())
