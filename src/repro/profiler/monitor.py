"""Simulated performance-monitoring hardware (Section 5.1).

The monitor watches a simulated run's retire stream and fills a sample
buffer the way the proposed hardware would: detailed samples are taken
sparsely, for at most one dynamic instruction at a time (ProfileMe
style), and signature samples snapshot two bits per instruction for a
fixed-length window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import repro.obs as obs
from repro.profiler.samples import DetailedSample, ProfileData, SignatureSample
from repro.profiler.signature import signature_stream
from repro.uarch.events import SimResult

#: Signature context captured on each side of a detailed sample.
CONTEXT = 10


@dataclass(frozen=True)
class MonitorConfig:
    """Sampling parameters of the monitoring hardware.

    ``detailed_interval`` is the mean spacing between detailed samples
    (randomised so static code structure cannot alias with the sampling
    period -- the same trick hardware profilers use);
    ``signature_interval`` the spacing between signature-sample starts;
    ``signature_length`` the paper's 1000 instructions.
    """

    detailed_interval: int = 5
    signature_interval: int = 600
    signature_length: int = 1000
    seed: int = 0


class HardwareMonitor:
    """Collects signature and detailed samples from a simulated run."""

    def __init__(self, config: Optional[MonitorConfig] = None) -> None:
        self.config = config or MonitorConfig()

    def collect(self, result: SimResult) -> ProfileData:
        """Observe one run and return every sample the hardware took."""
        with obs.span("profiler.collect",
                      insns=len(result.trace.insts)) as sp:
            data = self._collect(result)
            sp.set(signatures=len(data.signature_samples),
                   detailed=data.detailed_count)
        return data

    def _collect(self, result: SimResult) -> ProfileData:
        cfg = self.config
        insts = list(result.trace.insts)  # indexed at random
        events = result.events
        n = len(insts)
        bits = signature_stream(insts, events)
        data = ProfileData(instructions_observed=n)
        rng = random.Random(cfg.seed)

        # ---- signature samples ----
        start = 0
        length = min(cfg.signature_length, n)
        while start + length <= n:
            data.signature_samples.append(SignatureSample(
                start_pc=insts[start].pc,
                bits=tuple(bits[start:start + length]),
                start_seq=start,
            ))
            start += cfg.signature_interval
        if not data.signature_samples and n:
            data.signature_samples.append(SignatureSample(
                start_pc=insts[0].pc, bits=tuple(bits), start_seq=0))

        # ---- detailed samples (one in flight at a time) ----
        i = rng.randrange(1, cfg.detailed_interval + 1)
        while i < n:
            data.add_detailed(self._detail(i, insts, events, bits))
            i += rng.randrange(1, 2 * cfg.detailed_interval)
        return data

    @staticmethod
    def _detail(i: int, insts, events, bits) -> DetailedSample:
        inst = insts[i]
        ev = events[i]
        mem_dist = -1
        if inst.is_load and inst.mem_producer >= 0:
            mem_dist = i - inst.mem_producer
        pp_dist = -1
        if 0 <= ev.pp_partner < i:
            pp_dist = i - ev.pp_partner
        return DetailedSample(
            pc=inst.pc,
            context_before=tuple(bits[max(0, i - CONTEXT):i]),
            context_after=tuple(bits[i + 1:i + 1 + CONTEXT]),
            own_bits=bits[i],
            icache_delay=ev.icache_delay,
            mispredicted=ev.mispredicted,
            fu_contention=ev.fu_contention,
            exec_latency=ev.exec_latency,
            dl1_component=ev.dl1_component,
            miss_component=ev.miss_component,
            store_bw_delay=ev.store_bw_delay,
            mem_dep_dist=mem_dist,
            pp_dist=pp_dist,
            taken=inst.taken,
            indirect_target=(inst.next_pc
                             if inst.opcode.is_indirect_branch else None),
            l1d_miss=ev.l1d_miss,
            l2d_miss=ev.l2d_miss,
            dtlb_miss=ev.dtlb_miss,
            l1i_miss=ev.l1i_miss,
            l2i_miss=ev.l2i_miss,
            itlb_miss=ev.itlb_miss,
        )
