"""Post-mortem graph-fragment construction (Section 5.2, Figure 5a).

Given a signature skeleton and a database of detailed samples, the
reconstructor walks the program binary from the skeleton's start PC,
choosing at each position the detailed sample whose signature context
best matches the skeleton, inferring next-PCs statically (fallthrough,
direct targets via bit 1, a call/return stack) or from a sample's
recorded indirect target, and aborting on impossible signature
combinations.  The output fragment is a (DynInst, InstEvents) pair
list that the ordinary :class:`repro.graph.builder.GraphBuilder`
consumes -- fragments are analysed exactly as if a simulator had built
them, which is the point of the design.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import repro.obs as obs
from repro.isa.instructions import (
    INST_BYTES,
    REG_ZERO,
    TOTAL_REG_COUNT,
    DynInst,
    Opcode,
    StaticInst,
)
from repro.isa.program import Program
from repro.isa.trace import InstView, Trace
from repro.profiler.samples import DetailedSample, ProfileData, SignatureSample
from repro.profiler.signature import match_score
from repro.uarch.config import MachineConfig
from repro.uarch.events import InstEvents


@dataclass
class ReconstructionStats:
    """Bookkeeping across all fragments of one profiling run."""

    attempted: int = 0
    completed: int = 0
    aborted_inconsistent: int = 0
    aborted_control: int = 0
    positions_total: int = 0
    positions_defaulted: int = 0

    @property
    def default_rate(self) -> float:
        """Fraction of positions with no matching detailed sample.

        The paper reports under 2% on SPECint; hot loops make PC
        coverage cheap.
        """
        if not self.positions_total:
            return 0.0
        return self.positions_defaulted / self.positions_total

    @property
    def abort_rate(self) -> float:
        if not self.attempted:
            return 0.0
        return (self.aborted_inconsistent + self.aborted_control) / self.attempted


class Fragment:
    """A reconstructed microexecution fragment (its instructions are the
    lazy view of a trace built from the reconstructed ``DynInst`` list)."""

    def __init__(self, insts: InstView, events: List[InstEvents],
                 config: MachineConfig) -> None:
        self.insts = insts
        self.events = events
        self.config = config

    def __len__(self) -> int:
        return len(self.insts)

    # The graph builder reads result.trace.insts / .events / .config;
    # a fragment quacks accordingly.
    @property
    def trace(self) -> "Fragment":
        return self

    def __iter__(self):
        return iter(self.insts)


class FragmentReconstructor:
    """Implements the Figure 5a algorithm against a program binary."""

    def __init__(self, program: Program, data: ProfileData,
                 config: Optional[MachineConfig] = None,
                 seed: int = 0) -> None:
        self.program = program
        self.data = data
        self.config = config or MachineConfig()
        self.stats = ReconstructionStats()
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------

    def reconstruct(self, sample: SignatureSample) -> Optional[Fragment]:
        """Build one fragment from *sample*; None when aborted."""
        fragment = self._reconstruct(sample)
        if fragment is None:
            obs.count("profiler.fragment.abort")
        else:
            obs.count("profiler.fragment.built")
            obs.observe("profiler.fragment.len", len(fragment))
        return fragment

    def _reconstruct(self, sample: SignatureSample) -> Optional[Fragment]:
        self.stats.attempted += 1
        bits = sample.bits
        n = len(bits)
        pc = sample.start_pc
        call_stack: List[int] = []
        last_writer = [-1] * TOTAL_REG_COUNT
        insts: List[DynInst] = []
        events: List[InstEvents] = []

        for pos in range(n):
            static = self.program.at(pc)
            if static is None:
                self.stats.aborted_control += 1
                return None
            if not self._consistent(static, bits[pos]):
                self.stats.aborted_inconsistent += 1
                return None
            detail = self._select_detail(pc, bits, pos)
            self.stats.positions_total += 1
            if detail is None:
                self.stats.positions_defaulted += 1

            taken = self._infer_taken(static, bits[pos])
            next_pc, ok = self._next_pc(static, taken, detail, call_stack)
            if not ok:
                self.stats.aborted_control += 1
                return None

            insts.append(self._make_inst(pos, static, next_pc, taken,
                                         detail, last_writer))
            ev = self._make_events(pos, static, detail)
            if (static.opcode.is_cond_branch and detail is not None
                    and detail.taken != taken):
                # No sample of this branch going the skeleton's way was
                # available: this instance took the minority direction,
                # which a trained direction predictor almost certainly
                # got wrong -- infer the mispredict rather than replay
                # the majority instance's (correct) prediction.
                ev.mispredicted = True
            events.append(ev)
            if static.dst is not None and static.dst != REG_ZERO:
                last_writer[static.dst] = pos
            pc = next_pc

        self.stats.completed += 1
        return Fragment(Trace(self.program, insts).insts, events,
                        self.config)

    # ------------------------------------------------------------------

    @staticmethod
    def _consistent(static: StaticInst, bits) -> bool:
        """Figure 5a's impossible-signature check.

        Bit 1 can only be set by a taken branch or a load/store; a set
        bit over any other instruction type proves the inferred control
        path diverged from the one the signature recorded.
        """
        bit1, _ = bits
        if bit1 and not (static.opcode.is_branch or static.is_mem):
            return False
        return True

    @staticmethod
    def _infer_taken(static: StaticInst, bits) -> bool:
        if not static.opcode.is_branch:
            return False
        if static.opcode.is_cond_branch:
            return bool(bits[0])
        return True  # J, CALL, RET, JR always redirect

    def _next_pc(self, static: StaticInst, taken: bool,
                 detail: Optional[DetailedSample],
                 call_stack: List[int]) -> Tuple[int, bool]:
        """Steps 2d1-2d4 of Figure 5a.  Returns (next_pc, ok)."""
        op = static.opcode
        fall = static.pc + INST_BYTES
        if not op.is_branch:
            return fall, True
        if op.is_cond_branch:
            return (static.target if taken else fall), True
        if op is Opcode.J:
            return static.target, True
        if op is Opcode.CALL:
            call_stack.append(fall)
            return static.target, True
        if op is Opcode.RET:
            if call_stack:
                return call_stack.pop(), True
            if detail is not None and detail.indirect_target is not None:
                return detail.indirect_target, True
            return 0, False
        # JR: only a detailed sample knows the target
        if detail is not None and detail.indirect_target is not None:
            return detail.indirect_target, True
        return 0, False

    def _select_detail(self, pc: int, bits, pos: int
                       ) -> Optional[DetailedSample]:
        """Step 2b: the sample whose context best matches the skeleton."""
        candidates = self.data.detailed_by_pc.get(pc)
        if not candidates:
            return None
        before = list(bits[max(0, pos - 10):pos])
        after = list(bits[pos + 1:pos + 11])
        own = bits[pos]

        def score(cand: DetailedSample) -> int:
            cb = list(cand.context_before)[-len(before):] if before else []
            ca = list(cand.context_after)[:len(after)]
            value = match_score(cb, before) + match_score(ca, after)
            # The sampled instruction's own bits encode *this instance's*
            # events (miss vs hit, taken vs not): they discriminate
            # between instances sharing a context, so they outweigh the
            # 40 surrounding context bits.
            value += match_score([cand.own_bits], [own]) * 24
            return value

        best = max(score(c) for c in candidates)
        top = [c for c in candidates if score(c) == best]
        # Loop bodies make identical contexts common; always picking the
        # first top scorer would systematically replay one instance's
        # events.  A seeded random choice among the ties keeps fragment
        # event rates representative of the sampled population.
        return top[0] if len(top) == 1 else self._rng.choice(top)

    # ------------------------------------------------------------------

    def _make_inst(self, pos: int, static: StaticInst, next_pc: int,
                   taken: bool, detail: Optional[DetailedSample],
                   last_writer: List[int]) -> DynInst:
        producers = tuple(
            -1 if s == REG_ZERO else last_writer[s] for s in static.srcs
        )
        mem_producer = -1
        if detail is not None and detail.mem_dep_dist > 0:
            candidate = pos - detail.mem_dep_dist
            if candidate >= 0:
                mem_producer = candidate
        return DynInst(seq=pos, static=static, next_pc=next_pc, taken=taken,
                       mem_addr=None, src_producers=producers,
                       mem_producer=mem_producer)

    def _make_events(self, pos: int, static: StaticInst,
                     detail: Optional[DetailedSample]) -> InstEvents:
        ev = InstEvents(seq=pos, pc=static.pc)
        if detail is not None:
            ev.icache_delay = detail.icache_delay
            ev.mispredicted = detail.mispredicted
            ev.fu_contention = detail.fu_contention
            ev.exec_latency = detail.exec_latency
            ev.dl1_component = detail.dl1_component
            ev.miss_component = detail.miss_component
            ev.store_bw_delay = detail.store_bw_delay
            ev.l1d_miss = detail.l1d_miss
            ev.l2d_miss = detail.l2d_miss
            ev.dtlb_miss = detail.dtlb_miss
            ev.l1i_miss = detail.l1i_miss
            ev.l2i_miss = detail.l2i_miss
            ev.itlb_miss = detail.itlb_miss
            if detail.pp_dist > 0 and pos - detail.pp_dist >= 0:
                ev.pp_partner = pos - detail.pp_dist
        else:
            # Figure 5a: no sample for this PC -- infer from the binary
            # and machine description, defaults for the rest
            ev.exec_latency = self.config.exec_latency(static.opclass)
            if static.is_mem:
                ev.dl1_component = self.config.dl1_latency
        return ev
