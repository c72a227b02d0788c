"""The cycle-stepped out-of-order core.

This is the reproduction's substrate simulator (the paper used
SimpleScalar).  It is trace-driven: the architectural executor supplies
the committed-path instruction stream, and this model computes when
each instruction is fetched, dispatched, ready, issued, completed and
committed under the Table 6 machine, honouring every Table 1
idealization switch.

Pipeline model per cycle, in stage order chosen so that a freed ROB
entry can be reused the same cycle (matching the zero-latency CD edge
of the graph model):

1. **commit** -- up to ``commit_width`` instructions retire in order
   once ``complete_to_commit`` cycles past completion, with at most
   ``store_commit_width`` stores per cycle.
2. **issue** -- oldest-first selection from the ready pool, bounded by
   ``issue_width`` and functional-unit slots; loads/stores access the
   memory hierarchy at issue time; a mispredicted branch schedules the
   fetch redirect ``mispredict_recovery`` cycles after completion.
3. **dispatch** -- up to ``issue_width`` instructions move from the
   fetch queue into the window when ROB space allows.
4. **fetch** -- in-order, up to ``fetch_width`` per cycle, ending a
   group at an icache-line miss or a taken branch, and stalling behind
   unresolved mispredicted branches.

Wrong-path execution is not modelled (its cache/predictor pollution is
a documented approximation); mispredict penalty appears as the redirect
stall, exactly what the graph model's PD edge captures.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List, Optional

import repro.obs as obs
from repro.isa.instructions import DynInst, OpClass, Opcode
from repro.isa.trace import Trace
from repro.uarch.branch import BranchPredictor
from repro.uarch.cache import MemoryHierarchy
from repro.uarch.config import IdealConfig, MachineConfig
from repro.uarch.events import InstEvents, SimResult
from repro.uarch.funits import FUSlots

#: effectively-infinite width used by the bandwidth idealization
_HUGE = 1 << 30


class SimulationError(RuntimeError):
    """Raised when the simulation exceeds its cycle safety cap."""


class OutOfOrderCore:
    """One simulation run of *trace* on *config* with *ideal* switches."""

    def __init__(self, config: Optional[MachineConfig] = None,
                 ideal: Optional[IdealConfig] = None) -> None:
        self.config = config or MachineConfig()
        self.ideal = ideal or IdealConfig()

    # ------------------------------------------------------------------

    def run(self, trace: Trace) -> SimResult:
        """Simulate *trace* cycle by cycle; return timing and events."""
        cfg = self.config
        ideal = self.ideal
        insts = list(trace.insts)  # indexed at random: materialize once
        n = len(insts)
        if n == 0:
            return SimResult(trace, cfg, ideal, [], 0)

        window = cfg.window_size * (cfg.infinite_window_factor if ideal.win else 1)
        fetch_width = _HUGE if ideal.bw else cfg.fetch_width
        issue_width = _HUGE if ideal.bw else cfg.issue_width
        commit_width = _HUGE if ideal.bw else cfg.commit_width
        store_width = _HUGE if ideal.bw else cfg.store_commit_width
        # infinite bandwidth is a whole-front-end idealization: the
        # fetch queue and the taken-branch fetch-group break are also
        # bandwidth constraints (the graph model tags the break latency
        # with the BW category for the same reason)
        fetch_queue_size = _HUGE if ideal.bw else cfg.fetch_queue_size
        taken_limit = _HUGE if ideal.bw else cfg.taken_branches_per_fetch
        f2d = cfg.fetch_to_dispatch
        c2c = cfg.complete_to_commit
        recovery = cfg.mispredict_recovery
        wakeup_extra = cfg.issue_wakeup - 1
        line_bytes = cfg.line_bytes

        hierarchy = MemoryHierarchy(
            cfg, perfect_l1d=ideal.dmiss, perfect_l1i=ideal.imiss,
            zero_dl1=ideal.dl1,
        )
        predictor = None if ideal.bmisp else BranchPredictor(cfg)
        fu = FUSlots(cfg, infinite=ideal.bw)
        if cfg.warm_caches:
            hierarchy.warm_instruction_side(inst.pc for inst in insts)
            hierarchy.warm_data_side(
                getattr(trace, "warm_l1_ranges", ()),
                getattr(trace, "warm_l2_ranges", ()))

        events = [InstEvents(seq=i, pc=insts[i].pc) for i in range(n)]
        issued = [False] * n
        # dependence bookkeeping: producers an un-ready inst still waits on
        pending: List[int] = [0] * n
        ready_val: List[int] = [0] * n
        waiters: Dict[int, List[int]] = {}

        fetch_idx = 0
        fetch_stall_until = 0
        fetch_blocked_by: Optional[int] = None
        fetch_queue: deque = deque()  # (seq, earliest dispatch cycle)
        rob: deque = deque()
        pending_heap: List = []   # (ready cycle, seq) not yet issuable
        ready_heap: List = []     # (seq,) issuable, oldest first

        cycle = 0
        retired = 0
        max_cycles = 10_000 + 500 * n

        def exec_latency_of(inst: DynInst, ev: InstEvents) -> int:
            """Execution latency at issue time, applying idealizations."""
            cls = inst.opclass
            if cls is OpClass.BRANCH:
                return 1
            if cls.is_mem:
                acc = hierarchy.data_access(
                    inst.mem_addr, cycle, inst.seq, inst.is_store,
                    is_prefetch=inst.opcode is Opcode.PREFETCH)
                ev.dl1_component = acc.dl1_component
                ev.miss_component = acc.miss_component
                ev.l1d_miss = acc.l1_miss
                ev.l2d_miss = acc.l2_miss
                ev.dtlb_miss = acc.tlb_miss
                ev.pp_partner = acc.pp_partner
                return acc.latency
            if cls.is_short_alu:
                return 0 if ideal.shalu else 1
            # long ALU classes
            return 0 if ideal.lgalu else cfg.exec_latency(cls)

        def on_issue(seq: int) -> None:
            """Wake consumers of *seq* now that its completion is known."""
            p = events[seq].p
            for consumer in waiters.pop(seq, ()):
                extra = wakeup_extra if seq in insts[consumer].src_producers else 0
                value = p + extra
                if value > ready_val[consumer]:
                    ready_val[consumer] = value
                pending[consumer] -= 1
                if pending[consumer] == 0:
                    events[consumer].r = ready_val[consumer]
                    heapq.heappush(pending_heap, (ready_val[consumer], consumer))

        while True:
            if cycle > max_cycles:
                raise SimulationError(
                    f"{trace.name}: exceeded {max_cycles} cycles "
                    f"(retired {retired}/{n})"
                )
            work = 0

            # ---------------- commit ----------------
            committed = 0
            stores_committed = 0
            while rob and committed < commit_width:
                seq = rob[0]
                ev = events[seq]
                if not issued[seq] or ev.p + c2c > cycle:
                    break
                if insts[seq].is_store and stores_committed >= store_width:
                    break
                rob.popleft()
                ev.c = cycle
                committed += 1
                retired += 1
                if insts[seq].is_store:
                    stores_committed += 1
            work += committed

            # ---------------- issue ----------------
            # The outer loop lets a dependent issue in the same cycle as
            # a zero-latency producer (an idealized ALU completes at its
            # issue cycle, waking consumers immediately); with all
            # latencies >= 1 it runs exactly once, so baseline behaviour
            # keeps the one-cycle issue-wakeup recurrence.
            fu.new_cycle()
            issued_now = 0
            while True:
                while pending_heap and pending_heap[0][0] <= cycle:
                    __, seq = heapq.heappop(pending_heap)
                    heapq.heappush(ready_heap, seq)
                if not ready_heap or issued_now >= issue_width:
                    break
                progress = 0
                skipped: List[int] = []
                while ready_heap and issued_now < issue_width:
                    seq = heapq.heappop(ready_heap)
                    inst = insts[seq]
                    if not fu.try_claim(inst.opclass):
                        skipped.append(seq)
                        if fu.all_saturated():
                            break
                        continue
                    ev = events[seq]
                    ev.e = cycle
                    ev.fu_contention = cycle - ev.r
                    latency = exec_latency_of(inst, ev)
                    ev.exec_latency = latency
                    ev.p = cycle + latency
                    issued[seq] = True
                    issued_now += 1
                    progress += 1
                    if ev.mispredicted and fetch_blocked_by == seq:
                        fetch_stall_until = max(
                            fetch_stall_until, ev.p + recovery - f2d, cycle + 1)
                        fetch_blocked_by = None
                    on_issue(seq)
                for seq in skipped:
                    heapq.heappush(ready_heap, seq)
                if not progress:
                    break
            work += issued_now

            # ---------------- dispatch ----------------
            dispatched = 0
            while fetch_queue and dispatched < issue_width and len(rob) < window:
                seq, earliest = fetch_queue[0]
                if earliest > cycle:
                    break
                fetch_queue.popleft()
                rob.append(seq)
                ev = events[seq]
                ev.d = cycle
                base_ready = cycle + 1
                ready_val[seq] = base_ready
                deps = set()
                inst = insts[seq]
                for j in inst.src_producers:
                    if j >= 0:
                        deps.add(j)
                if inst.is_load and inst.mem_producer >= 0:
                    deps.add(inst.mem_producer)
                wait_count = 0
                for j in deps:
                    if issued[j]:
                        extra = wakeup_extra if j in inst.src_producers else 0
                        value = events[j].p + extra
                        if value > ready_val[seq]:
                            ready_val[seq] = value
                    else:
                        waiters.setdefault(j, []).append(seq)
                        wait_count += 1
                pending[seq] = wait_count
                if wait_count == 0:
                    ev.r = ready_val[seq]
                    heapq.heappush(pending_heap, (ready_val[seq], seq))
                dispatched += 1
            work += dispatched

            # ---------------- fetch ----------------
            fetched = 0
            if cycle >= fetch_stall_until and fetch_blocked_by is None:
                taken_seen = 0
                cur_line = -1
                while (fetch_idx < n and fetched < fetch_width
                       and len(fetch_queue) < fetch_queue_size):
                    inst = insts[fetch_idx]
                    line = inst.pc // line_bytes
                    if line != cur_line:
                        acc = hierarchy.fetch_access(inst.pc, cycle)
                        cur_line = line
                        if acc.delay:
                            ev = events[fetch_idx]
                            ev.icache_delay += acc.delay
                            ev.l1i_miss |= acc.l1_miss
                            ev.l2i_miss |= acc.l2_miss
                            ev.itlb_miss |= acc.tlb_miss
                            fetch_stall_until = cycle + acc.delay
                            break
                    ev = events[fetch_idx]
                    ev.f = cycle
                    fetch_queue.append((fetch_idx, cycle + f2d))
                    fetch_idx += 1
                    fetched += 1
                    if inst.is_branch:
                        if predictor is not None:
                            prediction = predictor.predict_and_update(inst)
                            if not prediction.correct:
                                ev.mispredicted = True
                                fetch_blocked_by = inst.seq
                                if cfg.model_wrong_path:
                                    self._fetch_wrong_path(
                                        hierarchy, trace.program, inst,
                                        prediction, cycle,
                                        limit=recovery * cfg.fetch_width)
                                break
                        if inst.taken:
                            taken_seen += 1
                            if taken_seen >= taken_limit:
                                break
            work += fetched

            # ---------------- advance ----------------
            if fetch_idx >= n and not rob and not fetch_queue:
                break
            if work == 0 and not ready_heap:
                cycle = self._next_event_cycle(
                    cycle, pending_heap, fetch_queue, rob, events, issued,
                    c2c, fetch_stall_until, fetch_blocked_by, fetch_idx, n)
            else:
                cycle += 1

        hierarchy.expire_inflight(cycle)
        self._assign_store_bw_delays(insts, events, cfg, ideal)
        cycles = events[-1].c + 1
        stats = self._collect_stats(trace, hierarchy, predictor, cycles)
        return SimResult(trace, cfg, ideal, events, cycles, stats)

    # ------------------------------------------------------------------

    @staticmethod
    def _fetch_wrong_path(hierarchy, program, inst, prediction, cycle,
                          limit) -> None:
        """Walk the mispredicted path, polluting the instruction side.

        The wrong path is whatever the predictor chose: the fallthrough
        of a predicted-not-taken branch, or the (possibly stale BTB)
        predicted target.  The walk follows the binary statically --
        fallthrough, direct targets, stopping at indirect jumps whose
        target the front end cannot know -- for at most *limit*
        instructions, roughly what a ``recovery``-cycle redirect lets
        the fetch engine consume.  Only icache/ITLB state is touched;
        timing of the redirect itself is unchanged.
        """
        from repro.isa.instructions import INST_BYTES, Opcode

        if prediction.taken:
            pc = prediction.target
        else:
            pc = inst.pc + INST_BYTES
        if pc is None or pc == inst.next_pc:
            return
        last_line = -1
        for __ in range(limit):
            static = program.at(pc)
            if static is None:
                return
            line = pc // hierarchy.config.line_bytes
            if line != last_line:
                hierarchy.fetch_access(pc, cycle)
                last_line = line
            op = static.opcode
            if op.is_indirect_branch:
                return
            if op in (Opcode.J, Opcode.CALL):
                pc = static.target
            else:
                # the front end predicts conditionals on the wrong path
                # too; fallthrough is the simple, common choice
                pc = static.pc + INST_BYTES

    @staticmethod
    def _next_event_cycle(cycle, pending_heap, fetch_queue, rob, events,
                          issued, c2c, fetch_stall_until, fetch_blocked_by,
                          fetch_idx, n) -> int:
        """Skip idle cycles to the next time any stage can make progress."""
        candidates = []
        if pending_heap:
            candidates.append(pending_heap[0][0])
        if fetch_queue:
            candidates.append(fetch_queue[0][1])
        if rob and issued[rob[0]]:
            candidates.append(events[rob[0]].p + c2c)
        if fetch_idx < n and fetch_blocked_by is None:
            candidates.append(fetch_stall_until)
        future = [c for c in candidates if c > cycle]
        return min(future) if future else cycle + 1

    @staticmethod
    def _assign_store_bw_delays(insts, events, cfg, ideal) -> None:
        """Post-hoc attribution of commit delay to store bandwidth.

        A store's CC-edge contention latency is the part of its commit
        delay not explained by in-order commit, commit bandwidth, or its
        own completion time -- the residual can only be the store-width
        limit, which the graph model carries as measured latency on the
        CC edge (Figure 5b).
        """
        cbw = cfg.commit_width if not ideal.bw else _HUGE
        c2c = cfg.complete_to_commit
        for i, ev in enumerate(events):
            if not insts[i].is_store:
                continue
            floor = ev.p + c2c
            if i >= 1:
                floor = max(floor, events[i - 1].c)
            if i >= cbw and cbw < _HUGE:
                floor = max(floor, events[i - cbw].c + 1)
            ev.store_bw_delay = max(0, ev.c - floor)

    @staticmethod
    def _collect_stats(trace, hierarchy, predictor, cycles) -> Dict[str, float]:
        stats = {
            "cycles": float(cycles),
            "l1d_miss_rate": _rate(hierarchy.l1d),
            "l1i_miss_rate": _rate(hierarchy.l1i),
            "l2_miss_rate": _rate(hierarchy.l2),
            "dtlb_miss_rate": _tlb_rate(hierarchy.dtlb),
            "itlb_miss_rate": _tlb_rate(hierarchy.itlb),
        }
        if predictor is not None:
            stats["mispredict_rate"] = predictor.mispredict_rate
        return stats


def _rate(cache) -> float:
    total = cache.hits + cache.misses
    return cache.misses / total if total else 0.0


def _tlb_rate(tlb) -> float:
    total = tlb.hits + tlb.misses
    return tlb.misses / total if total else 0.0


def simulate(trace: Trace, config: Optional[MachineConfig] = None,
             ideal: Optional[IdealConfig] = None) -> SimResult:
    """Convenience wrapper: run *trace* once and return the result."""
    with obs.span("sim.run", insns=len(trace.insts),
                  idealized=ideal is not None) as sp:
        result = OutOfOrderCore(config, ideal).run(trace)
        sp.set(cycles=result.cycles)
    return result
