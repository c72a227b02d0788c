"""Architectural interpreter: executes a Program into a dynamic trace.

The executor models architectural state only (registers and data
memory); it produces the committed-path instruction stream that the
trace-driven timing model replays.  Alongside values it records the
dataflow facts the dependence-graph model needs: the dynamic producer
of every register operand and the most recent conflicting store for
every load (the PR edges of Table 3).  Each step appends these facts
to typed arrays that become the trace's
:class:`~repro.isa.trace.TraceBlock` without a copy; no ``DynInst`` is
built here.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Mapping, Optional, Tuple

from repro.isa.instructions import (
    INST_BYTES,
    REG_LINK,
    REG_ZERO,
    TOTAL_REG_COUNT,
    Opcode,
    StaticInst,
)
from repro.isa.program import Program
from repro.isa.trace import Trace, TraceBlock

#: Memory is tracked at this granularity for store-to-load dependences.
MEM_WORD = 8

#: 64-bit two's-complement masks for integer arithmetic.
_MASK = (1 << 64) - 1
_SIGN = 1 << 63


def _to_signed(value: int) -> int:
    value &= _MASK
    return value - (1 << 64) if value & _SIGN else value


class ExecutionLimitExceeded(RuntimeError):
    """Raised when a program does not halt within the instruction budget."""


class Executor:
    """Interprets a :class:`Program` into its committed-path trace.

    Parameters
    ----------
    program:
        The binary to execute.
    max_insts:
        Hard bound on committed instructions; exceeding it raises
        :class:`ExecutionLimitExceeded` so runaway workloads fail loudly
        instead of hanging a benchmark run.
    memory_init:
        Initial data memory.  A ``dict`` is copied into :attr:`memory`
        (addresses aligned down to words).  Any other mapping with a
        ``get(word, default)`` -- a workload's
        :class:`~repro.workloads.kernels.MemoryImage` -- is read through,
        once per word, for words the program has not stored to, and is
        never written.
    """

    def __init__(self, program: Program, max_insts: int = 2_000_000,
                 memory_init: Optional[Mapping[int, int]] = None) -> None:
        self.program = program
        self.max_insts = max_insts
        self.int_regs: List[int] = [0] * TOTAL_REG_COUNT
        self.memory: Dict[int, int] = {}
        self._image: Mapping[int, int] = {}
        if isinstance(memory_init, dict):
            for addr, value in memory_init.items():
                self.memory[addr - (addr % MEM_WORD)] = value
        elif memory_init is not None:
            self._image = memory_init
        self._last_writer: List[int] = [-1] * TOTAL_REG_COUNT
        self._last_store: Dict[int, int] = {}

    # ------------------------------------------------------------------

    def _read(self, reg: int):
        if reg == REG_ZERO:
            return 0
        return self.int_regs[reg]

    def _write(self, reg: Optional[int], value, seq: int) -> None:
        if reg is None or reg == REG_ZERO:
            return
        self.int_regs[reg] = _to_signed(int(value)) if not isinstance(value, float) else value
        self._last_writer[reg] = seq

    # ------------------------------------------------------------------

    def run(self) -> Trace:
        """Execute until HALT; return the committed dynamic trace."""
        program = self.program
        statics = list(program)
        index_at = {st.pc: k for k, st in enumerate(statics)}
        last_writer = self._last_writer
        step = self._step
        columns = (array("q"), array("q"), array("B"), array("Q"),
                   array("B"), array("q"), array("q"))
        (add_sidx, add_next_pc, add_taken, add_addr, add_has_addr,
         add_prod, add_mem_producer) = (c.append for c in columns)
        pc = program.start_pc
        seq = 0
        while True:
            if seq >= self.max_insts:
                raise ExecutionLimitExceeded(
                    f"{program.name}: exceeded {self.max_insts} instructions"
                )
            k = index_at.get(pc)
            if k is None:
                program.fetch(pc)  # raises the missing-instruction error
            static = statics[k]
            # producers are read before the step writes its destination
            for s in static.srcs:
                add_prod(-1 if s == REG_ZERO else last_writer[s])
            next_pc, taken, mem_addr, mem_producer = step(static, seq)
            add_sidx(k)
            add_next_pc(next_pc)
            add_taken(taken)
            add_addr(mem_addr or 0)
            add_has_addr(mem_addr is not None)
            add_mem_producer(mem_producer)
            seq += 1
            if static.opcode is Opcode.HALT:
                break
            pc = next_pc
        return Trace(program, TraceBlock(program, *columns))

    # ------------------------------------------------------------------

    def _step(self, st: StaticInst,
              seq: int) -> Tuple[int, bool, Optional[int], int]:
        """Execute one static instruction; return its ``(next_pc, taken,
        mem_addr, mem_producer)``."""
        op = st.opcode
        next_pc = st.pc + INST_BYTES
        taken = False
        mem_addr: Optional[int] = None
        mem_producer = -1

        if op is Opcode.ADD:
            self._write(st.dst, self._read(st.srcs[0]) + self._read(st.srcs[1]), seq)
        elif op is Opcode.ADDI:
            self._write(st.dst, self._read(st.srcs[0]) + st.imm, seq)
        elif op is Opcode.SUB:
            self._write(st.dst, self._read(st.srcs[0]) - self._read(st.srcs[1]), seq)
        elif op is Opcode.AND:
            self._write(st.dst, self._read(st.srcs[0]) & self._read(st.srcs[1]), seq)
        elif op is Opcode.OR:
            self._write(st.dst, self._read(st.srcs[0]) | self._read(st.srcs[1]), seq)
        elif op is Opcode.XOR:
            self._write(st.dst, self._read(st.srcs[0]) ^ self._read(st.srcs[1]), seq)
        elif op is Opcode.SLL:
            self._write(st.dst, self._read(st.srcs[0]) << (st.imm & 63), seq)
        elif op is Opcode.SRL:
            self._write(st.dst, (self._read(st.srcs[0]) & _MASK) >> (st.imm & 63), seq)
        elif op is Opcode.SLT:
            self._write(st.dst, int(self._read(st.srcs[0]) < self._read(st.srcs[1])), seq)
        elif op is Opcode.SLTI:
            self._write(st.dst, int(self._read(st.srcs[0]) < st.imm), seq)
        elif op is Opcode.LUI:
            self._write(st.dst, st.imm << 16, seq)
        elif op is Opcode.MUL:
            self._write(st.dst, self._read(st.srcs[0]) * self._read(st.srcs[1]), seq)
        elif op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV):
            a = float(self._read(st.srcs[0]))
            b = float(self._read(st.srcs[1]))
            if op is Opcode.FADD:
                result = a + b
            elif op is Opcode.FSUB:
                result = a - b
            elif op is Opcode.FMUL:
                result = a * b
            else:
                result = a / b if b else 0.0
            self._write(st.dst, result, seq)
        elif op is Opcode.FCVT:
            self._write(st.dst, float(self._read(st.srcs[0])), seq)
        elif op is Opcode.PREFETCH:
            mem_addr = (self._read(st.srcs[0]) + st.imm) & _MASK
            # architecturally a no-op: no register written, and it does
            # not order against stores (mem_producer stays -1)
        elif op is Opcode.LD:
            mem_addr = (self._read(st.srcs[0]) + st.imm) & _MASK
            word = mem_addr - (mem_addr % MEM_WORD)
            mem_producer = self._last_store.get(word, -1)
            value = self.memory.get(word)
            if value is None:
                # first read of an unstored word: ask the image once
                value = self.memory[word] = self._image.get(word, 0)
            self._write(st.dst, value, seq)
        elif op is Opcode.ST:
            mem_addr = (self._read(st.srcs[0]) + st.imm) & _MASK
            word = mem_addr - (mem_addr % MEM_WORD)
            value = self._read(st.srcs[1])
            self.memory[word] = int(value) if not isinstance(value, float) else value
            self._last_store[word] = seq
        elif op.is_cond_branch:
            a = self._read(st.srcs[0])
            b = self._read(st.srcs[1])
            if op is Opcode.BEQ:
                taken = a == b
            elif op is Opcode.BNE:
                taken = a != b
            elif op is Opcode.BLT:
                taken = a < b
            else:  # BGE
                taken = a >= b
            if taken:
                next_pc = st.target
        elif op is Opcode.J:
            taken = True
            next_pc = st.target
        elif op is Opcode.CALL:
            taken = True
            self._write(REG_LINK, st.pc + INST_BYTES, seq)
            next_pc = st.target
        elif op is Opcode.RET:
            taken = True
            next_pc = self._read(REG_LINK) & _MASK
        elif op is Opcode.JR:
            taken = True
            next_pc = self._read(st.srcs[0]) & _MASK
        elif op is Opcode.HALT:
            pass
        else:  # pragma: no cover - all opcodes handled above
            raise NotImplementedError(op)

        return next_pc, taken, mem_addr, mem_producer
