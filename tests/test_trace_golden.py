"""Golden trace digests: trace generation is bit-identical across rewrites.

Every workload's dynamic trace is pinned by a sha256 over each
instruction's ``(seq, pc, next_pc, taken, mem_addr, src_producers,
mem_producer)`` and the trace's warm L1/L2 ranges.  The digests cover
the 12 suite workloads at seeds {0, 1} and scales {0.5, 1.0}, plus
``random_program`` and ``fuzz_program`` at seeds 0-5.  A change to the
memory image, the random-draw path or the executor that moves a single
address or producer fails here.

The digests were recorded before trace generation moved to flat
memory images and vectorized random draws.  The file also records the
``TRACE_GENERATOR_VERSION`` they were recorded at: suite traces are
cached by ``(workload, scale, seed, version)``, so a generator change
must bump the version, and a test fails while the two differ.
Regenerate the digests only when a workload is changed on purpose,
after bumping :data:`repro.workloads.registry.TRACE_GENERATOR_VERSION`
(``--record`` refuses to change a digest at the recorded version)::

    PYTHONPATH=src python tests/test_trace_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.workloads.registry import (
    TRACE_GENERATOR_VERSION,
    WORKLOAD_NAMES,
    get_workload_object,
)
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


def _golden_file():
    return json.loads(GOLDEN.read_text())


def _golden():
    return _golden_file()["digests"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_golden(case):
    assert trace_digest(CASES[case]().trace()) == _golden()[case]


def test_golden_covers_every_case():
    assert set(_golden()) == set(CASES)


def test_golden_was_recorded_at_the_generator_version():
    """Identity cache keys hold only while the digests and the version
    move together: a changed digest needs a bumped version."""
    assert _golden_file()["trace_generator_version"] == \
        TRACE_GENERATOR_VERSION


def test_record_refuses_a_changed_digest_at_the_recorded_version():
    previous = _golden_file()
    assert record(dict(previous["digests"]), previous) == previous
    changed = dict(previous["digests"], **{"gcc/s0/x0.5": "0" * 64})
    with pytest.raises(ValueError, match="TRACE_GENERATOR_VERSION"):
        record(changed, previous)
    older = dict(previous,
                 trace_generator_version=TRACE_GENERATOR_VERSION - 1)
    assert record(changed, older)["digests"]["gcc/s0/x0.5"] == "0" * 64


def record(digests, previous):
    """The golden file's new content, or a ValueError when a digest
    would change without a bumped ``TRACE_GENERATOR_VERSION``."""
    if previous["trace_generator_version"] == TRACE_GENERATOR_VERSION:
        changed = sorted(case for case, digest in digests.items()
                         if previous["digests"].get(case, digest) != digest)
        if changed:
            raise ValueError(
                f"{len(changed)} digests changed (e.g. {changed[0]}) at "
                f"TRACE_GENERATOR_VERSION {TRACE_GENERATOR_VERSION}: bump "
                f"it in repro/workloads/registry.py, then record again")
    return {"trace_generator_version": TRACE_GENERATOR_VERSION,
            "digests": dict(sorted(digests.items()))}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_trace_golden.py --record")
    try:
        content = record({case: trace_digest(make().trace())
                          for case, make in CASES.items()}, _golden_file())
    except ValueError as exc:
        sys.exit(str(exc))
    GOLDEN.write_text(json.dumps(content, indent=1) + "\n")
    print(f"recorded {len(CASES)} digests to {GOLDEN}")
