"""Batched cost engines: fast, exact longest-path measurement.

An interaction-cost breakdown over *n* event groups needs ``2^n - 1``
cost measurements (Section 2.3), and each one is a full longest-path
sweep of the dependence graph.  This module provides two
interchangeable engines behind one small interface, bit-identical
to each other and to the naive sweep of
:func:`repro.graph.critical_path.longest_path` (the differential
harness in ``tests/test_engine_differential.py`` enforces that):

``naive``
    The reference oracle: one pure-Python CSR sweep per measurement,
    exactly the code path the rest of the test suite has always pinned.
    Only the differential tests and benchmarks select it, by name.

``batched``
    The default: a vectorized CSR kernel plus *incremental*
    recomputation.  The sweep runs in a tiny C routine compiled on
    demand with the system C compiler (loaded through :mod:`ctypes`);
    when no compiler is available it falls back to an optimized flat
    pure-Python relaxation that is still ~2.5x faster than the naive
    nested loop.  Because an
    idealization only perturbs edges of the affected kinds/categories,
    each measurement is evaluated as a *delta* against the
    closest already-measured subset of its target set: the unchanged
    node prefix is copied from the parent state, and when only a few
    edges change (per-instruction :class:`EventSelection` queries) a
    worklist re-relaxes just the nodes downstream of the affected-edge
    frontier instead of sweeping at all.  Measured states are retained
    for that reuse within a byte budget, each as its dist vector plus
    the sparse set of edges whose latency differs from the base.

Engines are selected through ``GraphCostAnalyzer(engine=...)`` or the
``--engine {naive,batched}`` CLI flag.  The process pools of the
pipeline and the session share this module's worker-environment
helpers (:func:`child_env`, :func:`apply_child_env`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import random
from heapq import heappop, heappush
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Union

try:  # numpy accelerates latency rewriting and change detection
    import numpy as np
except ImportError:  # pragma: no cover - numpy ships with the package
    np = None

import repro.obs as obs
from repro.core.categories import Category, EventSelection
from repro.graph.critical_path import longest_path
from repro.graph.idealize import GraphIdealizer
from repro.graph.model import DependenceGraph
from repro.native import NativeKernel, i64_ptr, reset_all

Target = Union[Category, EventSelection]
Key = FrozenSet[Target]

#: Engine names accepted by :func:`make_engine` and the CLI.
ENGINE_NAMES = ("naive", "batched")

#: The engine :func:`make_engine` builds when none is named.
DEFAULT_ENGINE = "batched"

# ----------------------------------------------------------------------
# The native kernel: one C function, compiled on demand, ctypes-loaded.
# ----------------------------------------------------------------------

_KERNEL_SOURCE = r"""
#include <stdint.h>

/* Relax nodes v0..n_nodes-1 of a CSR graph sorted by destination.
 * dist[0..v0) must be prefilled (the reusable prefix); node order is
 * topological, so a single forward pass is exact.  Max-plus semantics
 * with a floor of zero: nodes with no surviving in-edge start at 0. */
void cp_sweep(int64_t n_nodes, const int64_t *cs, const int64_t *src,
              const int64_t *lat, int64_t *dist, int64_t v0)
{
    int64_t v, e, best, t;
    if (v0 < 1)
        v0 = 1;
    for (v = v0; v < n_nodes; v++) {
        best = 0;
        for (e = cs[v]; e < cs[v + 1]; e++) {
            t = dist[src[e]] + lat[e];
            if (t > best)
                best = t;
        }
        dist[v] = best;
    }
}
"""


def _bind_sweep(lib):
    fn = lib.cp_sweep
    ptr = ctypes.POINTER(ctypes.c_int64)
    fn.argtypes = [ctypes.c_int64, ptr, ptr, ptr, ptr, ctypes.c_int64]
    fn.restype = None
    return fn


SWEEP_KERNEL = NativeKernel(
    "graph sweep", _KERNEL_SOURCE, ("-O3",),
    env_var="REPRO_ENGINE_NO_NATIVE", stem="repro-cp-kernel",
    bind=_bind_sweep,
    warning=("warning: native C sweep kernel unavailable ({reason}); "
             "the batched engine is using the slower pure-Python "
             "fallback. Set REPRO_ENGINE_NO_NATIVE=1 to silence."))
#: The process-wide compiled sweep function (or None), its
#: ``(available, reason)`` status, and the CLI's one-shot warning.
native_kernel = SWEEP_KERNEL.load
native_kernel_status = SWEEP_KERNEL.status
native_fallback_warning = SWEEP_KERNEL.fallback_warning


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------


class NaiveEngine:
    """The reference oracle: one full pure-Python sweep per measurement."""

    name = "naive"

    def __init__(self, graph: DependenceGraph,
                 idealizer: Optional[GraphIdealizer] = None) -> None:
        self.graph = graph
        self.idealizer = idealizer or GraphIdealizer(graph)

    def cp_length(self, key: Iterable[Target]) -> int:
        """Critical-path length with every target in *key* idealized."""
        key = frozenset(key)
        obs.count("engine.naive.sweep")
        if key:
            lat = self.idealizer.latencies(key)
            dist = longest_path(self.graph, lat,
                                seed=self.idealizer.seed(key))
        else:
            dist = longest_path(self.graph)
        return max(dist) if dist else 0

    def cp_lengths(self, keys: Sequence[Iterable[Target]]) -> List[int]:
        """Batch form of :meth:`cp_length`; the oracle has no fast path."""
        with obs.span("engine.cp_batch", engine=self.name, keys=len(keys)):
            obs.observe("engine.batch_size", len(keys))
            return [self.cp_length(key) for key in keys]

    def close(self) -> None:
        """The oracle retains no measurement state."""


class _State:
    """One measured idealization: its dist vector, seed and CP length,
    with its latencies kept as a sparse delta against the base: the
    sorted ids of the edges that differ (``idx``) and their values
    (``val``)."""

    __slots__ = ("key", "dist", "idx", "val", "seed", "cp")

    def __init__(self, key, dist, idx, val, seed, cp):
        self.key = key
        self.dist = dist
        self.idx = idx
        self.val = val
        self.seed = seed
        self.cp = cp

    @property
    def nbytes(self) -> int:
        """Bytes this state retains."""
        return self.dist.nbytes + self.idx.nbytes + self.val.nbytes


class BatchedEngine:
    """Vectorized CSR kernel + incremental critical-path recomputation.

    Parameters
    ----------
    native:
        ``None`` (default) uses the compiled C sweep when available,
        ``False`` forces the pure-Python flat kernel (exercised by the
        differential tests so the fallback stays correct).
    max_state_bytes:
        How many bytes of measured states to retain for delta reuse,
        beyond the baseline (which is never evicted).  ``None`` derives
        it from the graph: :data:`STATE_DISTS` dense dist vectors.  A
        state keeps its dist vector and only the edges whose latency
        differs from the base, so the bound is about that many states.
    incremental_max_edges:
        Delta sizes up to this many changed edges use the worklist
        re-relaxation; larger deltas use a prefix-reusing full sweep
        (broad category idealizations perturb so many edges that the
        cascade covers most of the graph and a sweep is cheaper).  The
        worklist also bails out to the sweep when its cascade grows
        past a fraction of the graph, so a pathological delta can never
        cost more than sweep + bounded probe.
    """

    name = "batched"

    #: The default state budget, in dense dist vectors (see
    #: ``max_state_bytes``).
    STATE_DISTS = 4

    def __init__(self, graph: DependenceGraph,
                 idealizer: Optional[GraphIdealizer] = None,
                 native: Optional[bool] = None,
                 max_state_bytes: Optional[int] = None,
                 incremental_max_edges: Optional[int] = None) -> None:
        if np is None:  # pragma: no cover - numpy ships with the package
            raise RuntimeError("the batched engine requires numpy")
        self.graph = graph
        self.idealizer = idealizer or GraphIdealizer(graph)
        if native in (None, True):
            self._native = native_kernel()
            status = native_kernel_status()[1]
        else:
            self._native = None
            status = "forced pure-Python (native=False)"
        obs.gauge("engine.native_kernel", 1 if self._native is not None else 0)
        obs.note("engine.native_kernel.status", status)
        n = graph.num_nodes
        self.max_state_bytes = (max_state_bytes if max_state_bytes is not None
                                else self.STATE_DISTS * 8 * n)
        self._cs = np.ascontiguousarray(graph.column_data("csr"),
                                        dtype=np.int64)
        self._src = np.ascontiguousarray(graph.column_data("src"),
                                         dtype=np.int64) \
            if graph.num_edges else np.zeros(0, dtype=np.int64)
        self._base_lat = np.ascontiguousarray(graph.column_data("lat"),
                                              dtype=np.int64) \
            if graph.num_edges else np.zeros(0, dtype=np.int64)
        # out-adjacency for the worklist and the pure-Python edge lists
        # (the engine's own, freed by close()), built on first use
        self._out_dst: Optional["np.ndarray"] = None
        self._out_start: Optional["np.ndarray"] = None
        self._src_list: Optional[List[int]] = None
        self._dst_list: Optional[List[int]] = None
        self._incremental_max_edges = (
            incremental_max_edges if incremental_max_edges is not None else 48)
        self._worklist_budget = max(1024, n // 16)
        # measured states in least-recently-used order; the baseline
        # is kept apart from the budget and never evicted
        self._states: Dict[Key, _State] = {}
        self._state_bytes = 0
        if n:
            base = self._sweep(self._base_lat, graph.seed_lat, None, 0)
            none = np.zeros(0, dtype=np.int64)
            self._states[frozenset()] = _State(
                frozenset(), base, none, none, graph.seed_lat,
                int(base.max()))

    # -- measurement ---------------------------------------------------

    def cp_length(self, key: Iterable[Target]) -> int:
        """Critical-path length for *key*, measured against the best
        available parent state (largest measured proper subset)."""
        key = frozenset(key)
        if self.graph.num_nodes == 0:
            return 0
        state = self._states.get(key)
        if state is None:
            state = self._measure(key)
        return state.cp

    def cp_lengths(self, keys: Sequence[Iterable[Target]]) -> List[int]:
        """Measure a batch, smallest target sets first (subset reuse)."""
        keys = [frozenset(key) for key in keys]
        with obs.span("engine.cp_batch", engine=self.name, keys=len(keys)):
            obs.observe("engine.batch_size", len(keys))
            # subset-reuse scheduling: measure smaller target sets first
            # so larger unions can be evaluated as one-group deltas
            lengths = {key: self.cp_length(key)
                       for key in sorted(set(keys), key=len)}
            return [lengths[key] for key in keys]

    def close(self) -> None:
        """Drop all cached measurement states and edge lists."""
        self._states.clear()
        self._state_bytes = 0
        self._src_list = self._dst_list = None

    # -- internals -----------------------------------------------------

    def _measure(self, key: Key) -> _State:
        lat = self.idealizer.latencies_array(key)
        seed = self.idealizer.seed(key)
        parent = self._parent_of(key)
        changed = np.flatnonzero(lat != self._lat_of(parent))
        if changed.size == 0 and seed == parent.seed:
            obs.count("engine.batched.reuse")
            dist = parent.dist
        elif changed.size <= self._incremental_max_edges:
            obs.count("engine.batched.worklist")
            obs.observe("engine.batched.delta_edges", int(changed.size))
            dist = self._relax_worklist(parent, lat, seed, changed)
        else:
            dist = self._relax_sweep(parent, lat, seed, changed)
        idx = np.flatnonzero(lat != self._base_lat)
        state = _State(key, dist, idx, lat[idx], seed, int(dist.max()))
        self._remember(state)
        return state

    def _lat_of(self, state: _State) -> "np.ndarray":
        """*state*'s dense latencies, rebuilt from its sparse delta."""
        lat = self._base_lat.copy()
        lat[state.idx] = state.val
        return lat

    def _parent_of(self, key: Key) -> _State:
        """The measured proper subset of *key* with the largest overlap,
        marked most recently used."""
        best = self._states[frozenset()]
        for state in self._states.values():
            if len(state.key) > len(best.key) and state.key <= key:
                best = state
        if best.key:
            self._states[best.key] = self._states.pop(best.key)
        return best

    def _remember(self, state: _State) -> None:
        """Retain *state*, evicting the least recently used states to
        stay within :attr:`max_state_bytes`; a state larger than the
        whole budget is not retained."""
        size = state.nbytes
        if size > self.max_state_bytes:
            return
        while self._state_bytes + size > self.max_state_bytes:
            old = next(key for key in self._states if key)
            self._state_bytes -= self._states.pop(old).nbytes
        self._states[state.key] = state
        self._state_bytes += size

    def _dst_of(self, edges) -> "np.ndarray":
        """The destination node of each edge id in *edges*."""
        return np.searchsorted(self._cs, edges, side="right") - 1

    def _relax_sweep(self, parent: _State, lat, seed: int, changed) -> "np.ndarray":
        """Full forward sweep, reusing the unchanged node prefix.

        Edges are CSR-sorted by destination and destinations are
        topologically ordered, so every node before the first changed
        edge's destination keeps its parent dist exactly.
        """
        v0 = int(self._dst_of(changed[0])) if changed.size else 1
        if seed != parent.seed:
            v0 = 1
        return self._sweep(lat, seed, parent.dist, v0)

    def _sweep(self, lat, seed: int, prefix, v0: int) -> "np.ndarray":
        n = self.graph.num_nodes
        v0 = max(1, v0)
        obs.count("engine.batched.sweep.full")
        if self._native is not None:
            dist = np.empty(n, dtype=np.int64)
            if prefix is not None and v0 > 1:
                dist[:v0] = prefix[:v0]
            dist[0] = seed
            self._native(n, i64_ptr(self._cs), i64_ptr(self._src),
                         i64_ptr(np.ascontiguousarray(lat)),
                         i64_ptr(dist), v0)
            return dist
        # optimized pure-Python fallback: one flat relaxation over the
        # destination-sorted edge list (no per-node range bookkeeping)
        if self._dst_list is None:
            self._src_list = self._src.tolist()
            self._dst_list = self._dst_of(
                np.arange(len(self._src))).tolist()
        if prefix is not None and v0 > 1:
            dist = prefix[:v0].tolist() + [0] * (n - v0)
        else:
            dist = [0] * n
        dist[0] = seed
        e0 = int(self._cs[v0])
        lat_list = lat.tolist()
        for s, l, d in zip(self._src_list[e0:], lat_list[e0:],
                           self._dst_list[e0:]):
            t = dist[s] + l
            if t > dist[d]:
                dist[d] = t
        return np.asarray(dist, dtype=np.int64)

    def _relax_worklist(self, parent: _State, lat, seed: int,
                        changed) -> "np.ndarray":
        """Re-relax only nodes downstream of the affected-edge frontier.

        Nodes are processed in index (= topological) order via a heap,
        so each affected node is recomputed exactly once, after all of
        its predecessors are final.  Nodes whose recomputed dist equals
        the parent's stop the cascade; if the cascade exceeds the node
        budget (the delta turned out not to be local after all), the
        partial work is discarded in favour of the prefix-reusing
        sweep.
        """
        dist = parent.dist.copy()
        if self._out_start is None:
            order = np.argsort(self._src, kind="stable")
            self._out_dst = self._dst_of(order)
            self._out_start = np.searchsorted(
                self._src[order], np.arange(self.graph.num_nodes + 1))
        # python-int views of single entries: the arrays stay arrays, so
        # the worklist materializes no per-edge python lists
        cs, src, lat_at = self._cs.item, self._src.item, lat.item
        out_start, out_dst = self._out_start.item, self._out_dst.item
        dist_at = dist.item
        heap: List[int] = sorted(set(self._dst_of(changed).tolist()))
        if seed != parent.seed:
            dist[0] = seed
            for k in range(out_start(0), out_start(1)):
                heappush(heap, out_dst(k))
        budget = self._worklist_budget
        while heap:
            v = heappop(heap)
            while heap and heap[0] == v:
                heappop(heap)
            budget -= 1
            if budget < 0:
                obs.count("engine.batched.worklist.bail")
                return self._relax_sweep(parent, lat, seed, changed)
            best = 0
            for e in range(cs(v), cs(v + 1)):
                t = dist_at(src(e)) + lat_at(e)
                if t > best:
                    best = t
            if best != dist_at(v):
                dist[v] = best
                for k in range(out_start(v), out_start(v + 1)):
                    heappush(heap, out_dst(k))
        return dist


# ----------------------------------------------------------------------
# Pool worker environment
# ----------------------------------------------------------------------

#: Environment that must survive into pool children.  ``fork`` children
#: inherit the parent's environment for free, but ``spawn``/``forkserver``
#: children re-import the module and may race a parent that changed
#: these variables after startup, so every pool in this repository
#: captures them explicitly at submission time and re-applies them in
#: the worker initializer.
CHILD_ENV_VARS = ("REPRO_ENGINE_NO_NATIVE", "REPRO_CACHE_DIR",
                  "REPRO_SIM_ENGINE", "REPRO_SIM_NO_NATIVE")


def derive_seed(tag: str, index: int = 0) -> int:
    """A deterministic per-worker seed.

    Derived by hashing rather than Python's ``hash`` builtin (which is
    salted per process via ``PYTHONHASHSEED``), so the same *(tag,
    index)* always yields the same seed in every process on every run.
    """
    blob = f"{tag}:{index}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def child_env() -> Dict[str, Optional[str]]:
    """Snapshot of :data:`CHILD_ENV_VARS` to ship to pool children.

    Unset variables are recorded as ``None`` so the child can *unset*
    them too -- propagation must be able to clear a stale setting, not
    just add ones.
    """
    return {name: os.environ.get(name) for name in CHILD_ENV_VARS}


def apply_child_env(env: Optional[Dict[str, Optional[str]]],
                    seed_tag: str = "pool") -> None:
    """Apply a parent environment snapshot inside a worker process.

    Re-arms every native kernel's load decision (so a child honours a
    ``REPRO_ENGINE_NO_NATIVE`` or ``REPRO_SIM_NO_NATIVE`` it did not
    inherit) and seeds :mod:`random` with a deterministic derived seed.
    """
    if env:
        for name, value in env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    # the compile-at-most-once kernels must re-decide under the applied
    # environment, not under whatever this process saw at import time
    reset_all()
    random.seed(derive_seed(seed_tag))


#: Engine registry, by CLI/API name.
ENGINES = {
    "naive": NaiveEngine,
    "batched": BatchedEngine,
}


def make_engine(spec, graph: DependenceGraph,
                idealizer: Optional[GraphIdealizer] = None):
    """Build (or pass through) a cost engine.

    *spec* may be ``None`` (:data:`DEFAULT_ENGINE`), an engine name from
    :data:`ENGINES`, an engine *class* / factory callable taking
    ``(graph, idealizer)``, or a ready engine instance.
    """
    if spec is None:
        spec = DEFAULT_ENGINE
    if isinstance(spec, str):
        try:
            cls = ENGINES[spec]
        except KeyError:
            raise ValueError(
                f"unknown engine {spec!r}; choose from {ENGINE_NAMES}"
            ) from None
        return cls(graph, idealizer)
    if isinstance(spec, type) or callable(spec):
        return spec(graph, idealizer)
    return spec
