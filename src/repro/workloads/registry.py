"""Name-based access to the workload suite, with trace caching."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

import repro.obs as obs
from repro.isa.program import Program
from repro.isa.trace import Trace
from repro.workloads import spec
from repro.workloads.spec import Workload

_FACTORIES: Dict[str, Callable[..., Workload]] = {
    "bzip": spec.make_bzip,
    "crafty": spec.make_crafty,
    "eon": spec.make_eon,
    "gap": spec.make_gap,
    "gcc": spec.make_gcc,
    "gzip": spec.make_gzip,
    "mcf": spec.make_mcf,
    "parser": spec.make_parser,
    "perl": spec.make_perl,
    "twolf": spec.make_twolf,
    "vortex": spec.make_vortex,
    "vpr": spec.make_vpr,
}

#: The full suite, in Table 4a's column order.
WORKLOAD_NAMES: Tuple[str, ...] = tuple(sorted(_FACTORIES))

#: The subset the paper shows for Tables 4b and 4c.
TABLE4BC_NAMES: Tuple[str, ...] = ("gap", "gcc", "gzip", "mcf", "parser")


def get_workload_object(name: str, scale: float = 1.0,
                        seed: int = 0) -> Workload:
    """The :class:`Workload` (program + memory image) for *name*."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}"
        ) from None
    return factory(scale=scale, seed=seed)


#: The trace cache holds at most this many dynamic instructions in
#: total (the 12-workload suite at scale 1.0 is ~82k), so a long-lived
#: daemon's memory stays flat however many distinct seeds it serves.
TRACE_CACHE_INSTS = 1 << 17


class _TraceCache:
    """A thread-safe LRU of traces bounded by total instruction count.

    Eviction drops the least recently used traces until the total fits
    the budget, but never the newest one, so a single trace larger
    than the budget is still cached until the next insertion.
    """

    def __init__(self, max_insts: int) -> None:
        self.max_insts = max_insts
        self._lock = threading.Lock()
        self._traces: "OrderedDict[tuple, Trace]" = OrderedDict()
        self.insts = 0

    def lookup(self, key: tuple) -> Optional[Trace]:
        with self._lock:
            trace = self._traces.get(key)
            if trace is not None:
                self._traces.move_to_end(key)
            return trace

    def insert(self, key: tuple, trace: Trace) -> Trace:
        """Cache *trace* under *key*; returns the cached trace, which is
        another thread's if it won the race to generate *key*."""
        evicted = 0
        with self._lock:
            if key in self._traces:
                self._traces.move_to_end(key)
                return self._traces[key]
            self._traces[key] = trace
            self.insts += len(trace.insts)
            while self.insts > self.max_insts and len(self._traces) > 1:
                __, old = self._traces.popitem(last=False)
                self.insts -= len(old.insts)
                evicted += 1
            cached = self.insts
        if evicted:
            obs.count("workload.trace.evicted", evicted)
        obs.gauge("workload.trace.cached_insts", cached)
        return trace


_TRACES = _TraceCache(TRACE_CACHE_INSTS)


def get_workload(name: str, scale: float = 1.0, seed: int = 0) -> Trace:
    """The committed-path dynamic trace of workload *name*.

    Traces are deterministic in (name, scale, seed) and cached, since
    benchmark tables re-simulate the same trace many times.
    """
    key = (name, scale, seed)
    trace = _TRACES.lookup(key)
    if trace is not None:
        obs.count("workload.trace.cache_hit")
        return trace
    with obs.span("workload.trace", workload=name, scale=scale,
                  seed=seed) as sp:
        trace = get_workload_object(name, scale, seed).trace()
        sp.set(insns=len(trace.insts))
    obs.count("workload.trace.generated")
    return _TRACES.insert(key, trace)


def get_program(name: str, scale: float = 1.0, seed: int = 0) -> Program:
    """The program binary of workload *name* (for profiler PC inference)."""
    return get_workload_object(name, scale, seed).program


def workload_description(name: str) -> str:
    """One-line behavioural description of workload *name*."""
    return get_workload_object(name, scale=0.01).description
