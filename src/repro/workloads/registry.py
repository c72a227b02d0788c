"""Name-based access to the workload suite, with trace caching.

A suite trace is deterministic in ``(workload, scale, seed)`` and the
generator's code, so every trace this module hands out carries that
:func:`workload_identity` as its ``identity``, and the artifact cache
keys it by the identity instead of hashing its instructions.  A
session's trace is a :class:`SuiteTrace`: it reads its instructions --
from the in-process LRU, the artifact cache's ``trace`` kind, or the
generator, in that order -- only when something needs them.  Ad hoc
traces (``for_trace``, ``random_program``, ``fuzz_program``) have no
identity and are keyed by their content.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Tuple

import repro.obs as obs
from repro.isa.program import Program
from repro.isa.trace import Trace, TraceBlock

if TYPE_CHECKING:  # the generator loads only when a trace is generated
    from repro.workloads.spec import Workload

#: The full suite, in Table 4a's column order; ``make_<name>`` in
#: :mod:`repro.workloads.spec` builds each one.
WORKLOAD_NAMES: Tuple[str, ...] = (
    "bzip", "crafty", "eon", "gap", "gcc", "gzip", "mcf", "parser",
    "perl", "twolf", "vortex", "vpr")

#: The subset the paper shows for Tables 4b and 4c.
TABLE4BC_NAMES: Tuple[str, ...] = ("gap", "gcc", "gzip", "mcf", "parser")

#: Version of everything that turns a workload identity into a trace:
#: the workload programs and memory images, their random draws and the
#: ISA executor.  A suite trace is keyed by ``(workload, scale, seed,
#: TRACE_GENERATOR_VERSION)``, not by content, so a
#: generator change that keeps this number would serve stale cached
#: artifacts.  Bump it whenever a golden trace digest
#: (``tests/test_trace_golden.py``) changes on purpose; the golden file
#: records the version it was recorded at, and a test fails while the
#: two differ.
TRACE_GENERATOR_VERSION = 1


def get_workload_object(name: str, scale: float = 1.0,
                        seed: int = 0) -> "Workload":
    """The :class:`Workload` (program + memory image) for *name*."""
    from repro.workloads import spec

    identity = workload_identity(name, scale, seed)  # validates the name
    workload = getattr(spec, f"make_{name}")(scale=scale, seed=seed)
    workload.identity = identity
    return workload


def workload_identity(name: str, scale: float = 1.0,
                      seed: int = 0) -> Tuple[str, float, int, int]:
    """The identity a suite trace is keyed by (KeyError when unknown)."""
    if name not in WORKLOAD_NAMES:
        raise KeyError(
            f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")
    return (name, float(scale), int(seed), TRACE_GENERATOR_VERSION)


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


class SuiteTrace(Trace):
    """A suite trace that reads its instructions on first access.

    It carries its :attr:`identity` from construction, so every cache
    key derives from it without reading the trace, and a run whose
    graph and meta artifacts are cached never does.  The first access
    to ``program``, ``block``, ``insts``, the warm ranges or
    :meth:`inst_columns` reads the trace: from the in-process trace
    cache, else the *cache*'s ``trace`` artifact, else by running the
    generator (storing the artifact when *cache* is enabled).
    """

    def __init__(self, name: str, scale: float = 1.0, seed: int = 0,
                 cache=None) -> None:
        # no Trace.__init__: the fields below resolve on first access
        self.identity = workload_identity(name, scale, seed)
        self._cache = cache
        self._trace: Optional[Trace] = None
        #: where the trace was read from: ``"cached"`` (the in-process
        #: LRU), ``"loaded"`` (the artifact cache) or ``"generated"``;
        #: ``None`` while unread
        self.source: Optional[str] = None

    def _read(self) -> Trace:
        if self._trace is None:
            self._trace, self.source = _read_trace(self.identity,
                                                   self._cache)
            self._cache = None
            obs.note("workload.trace.source", self.source)
        return self._trace

    @property
    def program(self) -> Program:
        return self._read().program

    @property
    def block(self) -> TraceBlock:
        return self._read().block

    @property
    def warm_l1_ranges(self) -> tuple:
        return self._read().warm_l1_ranges

    @property
    def warm_l2_ranges(self) -> tuple:
        return self._read().warm_l2_ranges

    def __reduce__(self):
        # pickled (for a pool child, say) as the trace itself: the
        # artifact cache handle stays in this process
        return _plain_trace, (dict(vars(self._read())),)


def _plain_trace(state: dict) -> Trace:
    """A :class:`Trace` with attributes *state* (unpickles a
    :class:`SuiteTrace`)."""
    trace = Trace.__new__(Trace)
    vars(trace).update(state)
    return trace


def _read_trace(identity: tuple, cache) -> Tuple[Trace, str]:
    """The trace of *identity* and where it came from (see
    :class:`SuiteTrace`)."""
    name, scale, seed, _version = identity
    key = (name, scale, seed)
    trace = _TRACES.lookup(key)
    if trace is not None:
        obs.count("workload.trace.cache_hit")
        return trace, "cached"
    artifact = None
    if cache is not None and cache.enabled:
        from repro.pipeline.artifacts import trace_key

        artifact = trace_key(identity)
        trace = cache.get_trace(artifact)
    source = "loaded"
    if trace is not None:
        trace.identity = identity
    else:
        source = "generated"
        with obs.span("workload.trace", workload=name, scale=scale,
                      seed=seed) as sp:
            trace = get_workload_object(name, scale, seed).trace()
            sp.set(insns=len(trace.insts))
        if artifact is not None:
            cache.put_trace(artifact, trace)
    obs.count(f"workload.trace.{source}")
    return _TRACES.insert(key, trace), source


def get_workload(name: str, scale: float = 1.0, seed: int = 0) -> Trace:
    """The committed-path dynamic trace of workload *name*.

    Traces are deterministic in (name, scale, seed) and cached, since
    benchmark tables re-simulate the same trace many times.  The trace
    carries its :attr:`~repro.isa.trace.Trace.identity`.
    """
    return _read_trace(workload_identity(name, scale, seed), None)[0]


def get_program(name: str, scale: float = 1.0, seed: int = 0) -> Program:
    """The program binary of workload *name* (for profiler PC inference)."""
    return get_workload_object(name, scale, seed).program


def workload_description(name: str) -> str:
    """One-line behavioural description of workload *name*."""
    return get_workload_object(name, scale=0.01).description
