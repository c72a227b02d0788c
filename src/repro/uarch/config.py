"""Machine configuration (Table 6) and idealization switches (Table 1)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from repro.isa.instructions import OpClass

#: Simulator engine names accepted by :func:`repro.uarch.fastcore.simulate`
#: and the ``--sim-engine`` CLI flag (declared here, with the rest of the
#: machine configuration, so the CLI can list them without loading a
#: simulator core).
SIM_ENGINE_NAMES = ("auto", "fast", "reference")


class FUKind(enum.Enum):
    """Functional-unit pools of the simulated core (Table 6)."""

    IALU = "int-alu"
    IMUL = "int-mul"
    FALU = "fp-alu"
    FMUL = "fp-mul-div"
    MEM = "ld-st-port"


#: Which pool each op class issues to.  FDIV shares the FP multiply/divide
#: units, and branches resolve on an integer ALU, matching Table 6.
OPCLASS_TO_FU: Dict[OpClass, FUKind] = {
    OpClass.IALU: FUKind.IALU,
    OpClass.BRANCH: FUKind.IALU,
    OpClass.IMUL: FUKind.IMUL,
    OpClass.FALU: FUKind.FALU,
    OpClass.FMUL: FUKind.FMUL,
    OpClass.FDIV: FUKind.FMUL,
    OpClass.LOAD: FUKind.MEM,
    OpClass.STORE: FUKind.MEM,
}


@dataclass(frozen=True)
class IdealConfig:
    """The Table 1 idealization switches.

    Each flag corresponds to one base breakdown category; the multisim
    cost provider re-runs the simulator with the union of flags for the
    event set being costed.  All flags default to off (the baseline
    machine).

    - ``dl1``: zero-cycle level-one data cache access (the dl1 loop).
    - ``win``: infinite instruction window (approximated as 20x the
      baseline size, as the paper does).
    - ``bw``: infinite fetch, issue and commit bandwidth.
    - ``bmisp``: perfect branch prediction (mispredicts become correct).
    - ``dmiss``: perfect L1 data cache and DTLB (misses become hits).
    - ``shalu``: zero-cycle one-cycle-integer operations.
    - ``lgalu``: zero-cycle multi-cycle integer and floating point.
    - ``imiss``: perfect instruction cache and ITLB.
    """

    dl1: bool = False
    win: bool = False
    bw: bool = False
    bmisp: bool = False
    dmiss: bool = False
    shalu: bool = False
    lgalu: bool = False
    imiss: bool = False

    @classmethod
    def none(cls) -> "IdealConfig":
        return cls()

    @classmethod
    def for_categories(cls, categories) -> "IdealConfig":
        """Build the switch set idealizing every category in *categories*."""
        valid = {f for f in cls.__dataclass_fields__}
        flags = {}
        for cat in categories:
            name = getattr(cat, "value", cat)
            if name not in valid:
                raise ValueError(f"unknown idealization category {cat!r}")
            flags[name] = True
        return cls(**flags)

    def active(self) -> Tuple[str, ...]:
        """Names of the switched-on idealizations."""
        return tuple(
            name for name in self.__dataclass_fields__ if getattr(self, name)
        )


@dataclass(frozen=True)
class MachineConfig:
    """Parameters of the simulated processor, defaulted to Table 6.

    The three experiment knobs of Section 4 are first-class parameters:
    ``dl1_latency`` (Section 4.1 raises it to 4), ``issue_wakeup``
    (Section 4.2 raises it to 2) and ``mispredict_recovery`` (the branch
    loop; Section 4.2 raises it to 15).
    """

    # dynamically scheduled core
    window_size: int = 64
    issue_width: int = 6
    fetch_width: int = 6
    commit_width: int = 6
    #: front-end depth: cycles from fetch to dispatch into the window
    fetch_to_dispatch: int = 5
    #: back-end depth: cycles from completed execution to earliest commit
    complete_to_commit: int = 2
    #: the branch-mispredict loop: cycles from branch resolution to the
    #: first fetch of corrected-path instructions
    mispredict_recovery: int = 7
    #: the issue-wakeup loop: cycles before a dependent may issue after
    #: its producer completes; 1 = back-to-back issue
    issue_wakeup: int = 1
    #: taken branches close a fetch group; a cycle may span at most this
    #: many taken branches.  The paper's machine fetches through one
    #: taken branch (stops at the second); the default here stops at the
    #: first so the dependence-graph model can capture the break exactly
    #: (documented deviation, ablated in benchmarks).
    taken_branches_per_fetch: int = 1
    #: capacity of the fetch/decode queue between fetch and dispatch
    fetch_queue_size: int = 32
    #: maximum stores retired per cycle (CC-edge store-BW contention)
    store_commit_width: int = 2

    # branch prediction
    bimodal_entries: int = 8192
    gshare_entries: int = 8192
    meta_entries: int = 8192
    ghr_bits: int = 13
    btb_sets: int = 2048
    btb_ways: int = 2
    ras_entries: int = 64

    # memory system
    line_bytes: int = 64
    l1i_bytes: int = 32 * 1024
    l1i_ways: int = 2
    l1d_bytes: int = 32 * 1024
    l1d_ways: int = 2
    #: the level-one data-cache access loop latency
    dl1_latency: int = 2
    l1i_latency: int = 2
    l2_bytes: int = 1024 * 1024
    l2_ways: int = 4
    l2_latency: int = 12
    memory_latency: int = 100
    dtlb_entries: int = 128
    itlb_entries: int = 64
    tlb_miss_latency: int = 30
    page_bytes: int = 4096

    # functional units: pool -> (count, latency).  MEM latency is the
    # dl1 access time and is taken from ``dl1_latency`` instead.
    int_alus: int = 6
    int_muls: int = 2
    fp_alus: int = 4
    fp_muls: int = 2
    mem_ports: int = 3
    imul_latency: int = 3
    falu_latency: int = 2
    fmul_latency: int = 4
    fdiv_latency: int = 12

    #: multiplier used to approximate an infinite window (Table 1 note)
    infinite_window_factor: int = 20

    #: Maximum outstanding data-cache fills (miss status holding
    #: registers).  0 means unlimited, the baseline model; a finite
    #: value bounds memory-level parallelism, so a miss arriving with
    #: all MSHRs busy waits for the oldest fill to complete before its
    #: own can start.  An ablation measures how this reshapes the
    #: win/dmiss interaction on miss-stream workloads.
    mshr_entries: int = 0

    #: Model wrong-path fetch after mispredicted branches: the front
    #: end walks the *predicted* path through the binary until the
    #: branch resolves, perturbing icache/ITLB state.  The effect cuts
    #: both ways -- pollution (evicting useful lines) and wrong-path
    #: *prefetching* (the fallthrough path often executes shortly
    #: afterwards anyway).  Off by default, as in the paper's model;
    #: the wrong-path tests measure both directions.  Wrong-path
    #: instructions never execute, so data-side effects are out of
    #: scope.
    model_wrong_path: bool = False

    #: Pre-establish steady-state cache/TLB residency before timing:
    #: the instruction side is replayed along the trace, and the data
    #: side installs the workload's declared warm regions (see
    #: ``repro.workloads.kernels.MemoryImage``).  The paper measures
    #: after skipping eight billion instructions, so its hot structures
    #: are resident; without this flag, cold-start misses on short
    #: synthetic traces would masquerade as steady-state miss cost.
    warm_caches: bool = True

    def fu_counts(self) -> Dict[FUKind, int]:
        """Units per functional-unit pool (Table 6)."""
        return {
            FUKind.IALU: self.int_alus,
            FUKind.IMUL: self.int_muls,
            FUKind.FALU: self.fp_alus,
            FUKind.FMUL: self.fp_muls,
            FUKind.MEM: self.mem_ports,
        }

    def exec_latency(self, opclass: OpClass) -> int:
        """Baseline execution latency of *opclass*, excluding cache misses."""
        if opclass is OpClass.IALU or opclass is OpClass.BRANCH:
            return 1
        if opclass is OpClass.IMUL:
            return self.imul_latency
        if opclass is OpClass.FALU:
            return self.falu_latency
        if opclass is OpClass.FMUL:
            return self.fmul_latency
        if opclass is OpClass.FDIV:
            return self.fdiv_latency
        if opclass in (OpClass.LOAD, OpClass.STORE):
            return self.dl1_latency
        raise ValueError(opclass)

    def with_(self, **kwargs) -> "MachineConfig":
        """A copy of this configuration with *kwargs* overridden."""
        return replace(self, **kwargs)
