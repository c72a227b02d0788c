"""Golden trace digests: trace generation is bit-identical across rewrites.

Every workload's dynamic trace is pinned by a sha256 over each
instruction's ``(seq, pc, next_pc, taken, mem_addr, src_producers,
mem_producer)`` and the trace's warm L1/L2 ranges.  The digests cover
the 12 suite workloads at seeds {0, 1} and scales {0.5, 1.0}, plus
``random_program`` and ``fuzz_program`` at seeds 0-5.  A change to the
memory image, the random-draw path or the executor that moves a single
address or producer fails here.

The digests were recorded before trace generation moved to flat
memory images and vectorized random draws.  Regenerate them only when
a workload is changed on purpose::

    PYTHONPATH=src python tests/test_trace_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.workloads.registry import WORKLOAD_NAMES, get_workload_object
from repro.workloads.synthetic import fuzz_program, random_program

GOLDEN = Path(__file__).parent / "data" / "golden_trace_digests.json"

SEEDS = (0, 1)
SCALES = (0.5, 1.0)
SYNTH_SEEDS = range(6)


def trace_digest(trace) -> str:
    """sha256 over the dataflow facts of every instruction of *trace*."""
    h = hashlib.sha256()
    for d in trace.insts:
        h.update(repr((d.seq, d.pc, d.next_pc, d.taken, d.mem_addr,
                       tuple(d.src_producers), d.mem_producer)).encode())
    h.update(repr((tuple(trace.warm_l1_ranges),
                   tuple(trace.warm_l2_ranges))).encode())
    return h.hexdigest()


def _cases():
    for name in WORKLOAD_NAMES:
        for seed in SEEDS:
            for scale in SCALES:
                yield (f"{name}/s{seed}/x{scale}",
                       lambda n=name, sc=scale, s=seed:
                       get_workload_object(n, sc, s))
    for seed in SYNTH_SEEDS:
        yield f"random_program/s{seed}", lambda s=seed: random_program(s)
        yield f"fuzz_program/s{seed}", lambda s=seed: fuzz_program(s)


CASES = dict(_cases())


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_golden(case):
    assert trace_digest(CASES[case]().trace()) == _golden()[case]


def test_golden_covers_every_case():
    assert set(_golden()) == set(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_trace_golden.py --record")
    GOLDEN.write_text(json.dumps(
        {case: trace_digest(make().trace())
         for case, make in sorted(CASES.items())}, indent=1) + "\n")
    print(f"recorded {len(CASES)} digests to {GOLDEN}")
