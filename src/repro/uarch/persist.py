"""Persisting simulation results for later (or remote) analysis.

Real profiling flows separate the measurement machine from the analysis
machine; this module gives the simulator the same property: a
``SimResult`` round-trips through a compact JSON document, and the
reloaded result drives graph construction, breakdowns and icosts
exactly like a fresh run.

The trace's block columns (static index, branch outcomes, addresses,
producers) are stored alongside the timing events; the program binary
is rebuilt from its static instruction list, so the saved file is
self-contained.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import fields

from repro.isa.instructions import Opcode, StaticInst
from repro.isa.program import Program
from repro.isa.trace import BLOCK_COLUMNS, Trace, TraceBlock
from repro.uarch.config import IdealConfig, MachineConfig
from repro.uarch.events import EVENT_FIELDS, InstEvents, SimResult

#: File-format version; readers reject unknown majors.  Version 2
#: stores the trace as its block columns.
FORMAT_VERSION = 2


def static_to_dict(inst: StaticInst) -> dict:
    """JSON-ready fields of one static instruction."""
    return {
        "pc": inst.pc,
        "op": inst.opcode.name,
        "dst": inst.dst,
        "srcs": list(inst.srcs),
        "imm": inst.imm,
        "target": inst.target,
    }


def _static_from_dict(data: dict) -> StaticInst:
    return StaticInst(pc=data["pc"], opcode=Opcode[data["op"]],
                      dst=data["dst"], srcs=tuple(data["srcs"]),
                      imm=data["imm"], target=data["target"])


def result_to_dict(result: SimResult) -> dict:
    """A JSON-ready dictionary for one simulation result."""
    program = result.trace.program
    return {
        "version": FORMAT_VERSION,
        "name": result.trace.name,
        "cycles": result.cycles,
        "stats": dict(result.stats),
        "config": {f.name: getattr(result.config, f.name)
                   for f in fields(MachineConfig)},
        "ideal": list(result.ideal.active()) if result.ideal else [],
        "program": [static_to_dict(inst) for inst in program],
        "labels": program.labels,
        "trace": {name: getattr(result.trace.block, name).tolist()
                  for name in BLOCK_COLUMNS},
        "events": [
            [getattr(ev, name) for name in EVENT_FIELDS]
            for ev in result.events
        ],
        "event_fields": list(EVENT_FIELDS),
    }


def result_from_dict(data: dict) -> SimResult:
    """Inverse of :func:`result_to_dict`."""
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported result-file version {version!r}")
    statics = [_static_from_dict(d) for d in data["program"]]
    program = Program(statics, data["labels"], name=data["name"])
    trace = Trace(program, TraceBlock(program, **data["trace"]))
    saved_fields = data["event_fields"]
    events = []
    for row in data["events"]:
        ev = InstEvents(seq=0, pc=0)
        for name, value in zip(saved_fields, row):
            setattr(ev, name, value)
        events.append(ev)
    config = MachineConfig(**data["config"])
    ideal = IdealConfig.for_categories(data["ideal"]) if data["ideal"] \
        else IdealConfig()
    return SimResult(trace=trace, config=config, ideal=ideal,
                     events=events, cycles=data["cycles"],
                     stats=dict(data["stats"]))


def save_result(result: SimResult, path, compresslevel: int = 9) -> None:
    """Write *result* to *path* (gzip-compressed JSON).

    *compresslevel* trades disk for time; the artifact cache writes at
    level 1, where compression is a small fraction of a cold store.
    """
    payload = json.dumps(result_to_dict(result),
                         separators=(",", ":")).encode()
    with gzip.open(path, "wb", compresslevel=compresslevel) as handle:
        handle.write(payload)


def load_result(path) -> SimResult:
    """Read a result written by :func:`save_result`."""
    with gzip.open(path, "rb") as handle:
        return result_from_dict(json.loads(handle.read().decode()))
