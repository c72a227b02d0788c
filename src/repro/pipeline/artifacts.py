"""Content-addressed on-disk artifact cache for the analysis pipeline.

Artifacts are addressed by the inputs that produced them: the key of a
cached ``SimResult`` is a digest of the trace's fingerprint and the
full :class:`MachineConfig`; the key of a cached graph additionally
covers the builder options and :data:`GRAPH_MODEL_VERSION`.  Equal
inputs therefore always hit, and *any* change to a config field, the
workload spec, or the graph model changes the key -- stale artifacts
can never be returned, and invalidation is automatic (old entries are
simply never addressed again).

A trace's fingerprint (:func:`trace_fingerprint`) is its
``identity`` when it has one: every suite trace the workload registry
hands out is keyed by ``(workload, scale, seed,
TRACE_GENERATOR_VERSION)``, so a session whose graph and meta artifacts
are cached derives its keys without generating, loading or hashing a
single instruction.  An ad hoc trace (``for_trace``,
``random_program``, ``fuzz_program``) has no identity and is keyed by
a digest of its content.  Identity keys are only as safe as the
version: bump :data:`repro.workloads.registry.TRACE_GENERATOR_VERSION`
whenever a golden trace digest changes on purpose.

Layout on disk::

    <root>/<kind>/<key[:2]>/<key>.<ext>

with ``kind`` one of ``trace`` (``.npz``: a suite trace's block
columns and a JSON head with the program and warm ranges; keyed by
:func:`trace_key` and written when a trace is generated), ``sim``
(``.npz`` event matrix), ``graph`` (``.npz`` edge arrays), ``meta``
(JSON: cycles + instruction count, so a warm run can skip loading the
full result), and ``cycles`` (JSON: re-simulated cycle counts for
:mod:`repro.analysis.multisim`).
Writes go through a temporary file in the destination directory and an
atomic ``os.replace``, so concurrent runs sharing one cache directory
can only ever observe complete artifacts.

Concurrency model (the ``repro serve`` daemon shares one cache across
every in-flight session):

- **reads are lock-free** -- an artifact is either absent or complete
  (the tmp+rename invariant), so loads never block behind writers;
  a file evicted between the existence probe and the open is a miss.
- **writes take a per-key lock** so two threads producing the same
  artifact do the work once and never interleave inside one store;
  distinct keys store concurrently.  Cross-*process* writers stay safe
  through tmp+rename alone (last complete rename wins).
- **corrupt artifacts are quarantined, not raised**: a load that fails
  to parse renames the file to ``<name>.bad``, counts it
  (``cache.quarantined``) and reports a miss, so a torn or bit-rotted
  entry costs one re-simulation instead of a crashed request.
- **bounded size**: when ``max_bytes`` (or ``$REPRO_CACHE_MAX_BYTES``)
  is set, stores evict least-recently-used artifacts (hits bump the
  file mtime) until the cache fits, publishing ``cache.evictions`` and
  the ``cache.bytes`` gauge.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import fields
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.obs as obs
import repro.graph.builder
import repro.uarch.events
from repro.graph.model import DependenceGraph
from repro.isa.instructions import Opcode, StaticInst
from repro.isa.program import Program
from repro.isa.trace import BLOCK_COLUMNS, Trace, TraceBlock
from repro.uarch.config import IdealConfig, MachineConfig
from repro.uarch.events import EventColumns, SimResult
from repro.uarch.persist import static_to_dict

#: Environment variable supplying a default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable supplying a default size bound (bytes).
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: Suffix quarantined (unreadable) artifacts are renamed to.
QUARANTINE_SUFFIX = ".bad"

_EXT = {"trace": ".npz", "sim": ".npz", "graph": ".npz", "meta": ".json",
        "cycles": ".json"}

#: Version of the sim artifact's on-disk layout (a field-major
#: ``(F, n)`` "columns" matrix plus a JSON head).  :func:`sim_key`
#: digests it together with the event field names, so a layout change
#: or a changed field set addresses fresh artifacts and the reader only
#: ever sees the current layout.
SIM_KEY_VERSION = 2


#: Version of the trace artifact's on-disk layout, digested by
#: :func:`trace_key`.  The artifact holds only what the generator
#: produces (no graph-model product such as the InstColumns block), so
#: a graph-model change never needs it bumped; a layout change does.
#: Version 2 stores the trace block's columns (one npz array per
#: :data:`~repro.isa.trace.BLOCK_COLUMNS` entry).
TRACE_KEY_VERSION = 2


def _digest(payload: Any) -> str:
    """sha256 hex digest of *payload* rendered as canonical JSON."""
    blob = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def trace_fingerprint(trace) -> str:
    """Digest of a dynamic trace: its identity, or else its content.

    A suite trace carries an ``identity`` -- ``(workload, scale, seed,
    generator version)`` -- and is keyed by that alone, without reading
    its instructions.  Any other trace is keyed by its content: the
    static program (opcodes, operands, immediates, branch targets) and
    every dynamic fact graph construction consumes -- producers, memory
    producer, branch outcome, memory address, and the trace's warming
    annotations -- memoized on the trace object, since the pipeline
    fingerprints the same trace at several stages.
    """
    identity = getattr(trace, "identity", None)
    if identity is not None:
        return _digest({"kind": "trace", "identity": list(identity)})
    cached = getattr(trace, "_repro_fingerprint", None)
    if cached is not None:
        return cached
    header = {
        "name": trace.name,
        "program": [static_to_dict(s) for s in trace.program],
        "warm_l1": sorted(getattr(trace, "warm_l1_ranges", []) or []),
        "warm_l2": sorted(getattr(trace, "warm_l2_ranges", []) or []),
    }
    hasher = hashlib.sha256()
    hasher.update(json.dumps(header, sort_keys=True,
                             separators=(",", ":")).encode())
    # the per-instruction dynamic facts are hashed as little-endian
    # int64 bytes, read from the trace's columns: one ``(pc, next_pc,
    # taken, address or -1, memory producer, producer count)`` row per
    # instruction, then the flattened register producers (the explicit
    # counts keep the encoding unambiguous)
    block = trace.block
    rows = np.column_stack((
        block.pc, block.next_pc, block.taken,
        np.where(block.has_addr, block.addr.view(np.int64), -1),
        block.mem_producer, np.diff(block.prod_start)))
    hasher.update(rows.astype("<i8").tobytes())
    hasher.update(block.prod.astype("<i8").tobytes())
    digest = hasher.hexdigest()
    try:
        trace._repro_fingerprint = digest
    except AttributeError:  # pragma: no cover - slotted trace stand-ins
        pass
    return digest


def trace_key(identity: tuple) -> str:
    """Cache key of the stored suite trace of *identity*."""
    return _digest({"kind": "trace", "version": TRACE_KEY_VERSION,
                    "identity": list(identity)})


def config_fingerprint(config: MachineConfig) -> str:
    """Digest over *every* field of the machine configuration."""
    return _digest({f.name: getattr(config, f.name)
                    for f in fields(MachineConfig)})


def sim_key(trace, config: MachineConfig,
            ideal_categories=()) -> str:
    """Cache key of one simulation: workload x machine x idealization."""
    return _digest({
        "kind": "sim",
        "version": SIM_KEY_VERSION,
        # read through the module so a changed field set (even a
        # monkeypatched one) always reaches the key
        "fields": repro.uarch.events.EVENT_FIELDS,
        "trace": trace_fingerprint(trace),
        "config": config_fingerprint(config),
        "ideal": sorted(str(c) for c in ideal_categories),
    })


def graph_key(trace, config: MachineConfig, *,
              breaks: bool = True,
              window: Optional[tuple] = None,
              ideal_categories=()) -> str:
    """Cache key of a built graph (monolithic or one window of it)."""
    return _digest({
        "kind": "graph",
        # read through the module so a version bump (even a
        # monkeypatched one) always reaches the key
        "model": repro.graph.builder.GRAPH_MODEL_VERSION,
        "sim": sim_key(trace, config, ideal_categories),
        "breaks": bool(breaks),
        "window": list(window) if window else None,
    })


class ArtifactCache:
    """Content-addressed store of pipeline artifacts.

    *root* is the cache directory; ``None`` consults the
    :data:`CACHE_DIR_ENV` environment variable, and a cache with no
    root is *disabled*: every lookup misses and every store is a no-op,
    so callers never need to special-case ``--no-cache``.

    *max_bytes* bounds the on-disk footprint (``None`` consults
    :data:`CACHE_MAX_BYTES_ENV`; unset = unbounded): stores that push
    the cache over the bound evict least-recently-used artifacts.

    One instance may be shared by any number of threads; see the module
    docstring for the multi-reader/single-writer discipline.
    """

    def __init__(self, root: Optional[str] = None,
                 max_bytes: Optional[int] = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or None
        if max_bytes is None:
            env = os.environ.get(CACHE_MAX_BYTES_ENV)
            max_bytes = int(env) if env else None
        self.root = root
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.quarantined = 0
        self._stats_lock = threading.Lock()
        #: (kind, key) -> per-key write lock; the guard serializes
        #: creation only, never the stores themselves
        self._write_locks: Dict[Tuple[str, str], threading.Lock] = {}
        self._locks_guard = threading.Lock()
        #: total artifact bytes, scanned lazily on the first store
        self._bytes: Optional[int] = None

    @classmethod
    def disabled_cache(cls) -> "ArtifactCache":
        """A cache that is disabled even if the environment configures
        a directory (the ``--no-cache`` contract)."""
        cache = cls(root="", max_bytes=0)  # explicit: no env lookups
        cache.root = cache.max_bytes = None
        return cache

    @property
    def enabled(self) -> bool:
        return self.root is not None

    # -- stats (thread-safe) -------------------------------------------

    def _bump(self, attr: str, n: int = 1) -> None:
        with self._stats_lock:
            setattr(self, attr, getattr(self, attr) + n)

    # -- pathing -------------------------------------------------------

    def path_for(self, kind: str, key: str) -> str:
        """On-disk location of the *kind* artifact addressed by *key*."""
        if not self.enabled:
            raise RuntimeError("artifact cache is disabled")
        return os.path.join(self.root, kind, key[:2], key + _EXT[kind])

    # -- loading (lock-free, quarantine on corruption) -----------------

    def _load(self, kind: str, key: str,
              loader: Callable[[str], Any]) -> Optional[Any]:
        """Resolve, read and parse one artifact; ``None`` on any miss.

        Counts a hit only after *loader* succeeds, so a present-but-
        unreadable artifact is billed as a miss (and quarantined), and
        an artifact evicted between the existence probe and the open is
        a plain miss.  A successful load bumps the file mtime -- the
        recency signal :meth:`_evict` orders by.
        """
        if not self.enabled:
            return None
        path = self.path_for(kind, key)
        if not os.path.exists(path):
            self._bump("misses")
            obs.count(f"pipeline.cache.{kind}.miss")
            return None
        try:
            with obs.span("pipeline.cache.load", kind=kind):
                value = loader(path)
        except FileNotFoundError:  # lost a race with the evictor
            self._bump("misses")
            obs.count(f"pipeline.cache.{kind}.miss")
            return None
        except Exception as exc:  # corrupt/truncated: quarantine as miss
            self._quarantine(kind, path, exc)
            return None
        self._bump("hits")
        obs.count(f"pipeline.cache.{kind}.hit")
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - evicted right after load
            pass
        return value

    def _quarantine(self, kind: str, path: str, exc: Exception) -> None:
        """Move an unreadable artifact aside so it is never retried."""
        try:
            os.replace(path, path + QUARANTINE_SUFFIX)
        except OSError:  # pragma: no cover - concurrent quarantine/evict
            pass
        self._bump("quarantined")
        self._bump("misses")
        obs.count("cache.quarantined")
        obs.count(f"pipeline.cache.{kind}.miss")
        obs.get_logger("pipeline.cache").warning(
            "quarantined unreadable %s artifact %s (%s: %s)",
            kind, path, type(exc).__name__, exc)

    # -- storing (per-key write lock, tmp + atomic rename) -------------

    def _write_lock(self, kind: str, key: str) -> threading.Lock:
        with self._locks_guard:
            return self._write_locks.setdefault((kind, key),
                                                threading.Lock())

    def _store(self, kind: str, key: str, writer) -> None:
        """Atomically publish one artifact via tmp-file + rename.

        The per-key lock makes concurrent same-key stores do the work
        once (the second writer sees the published file and returns);
        distinct keys never contend.
        """
        if not self.enabled:
            return
        path = self.path_for(kind, key)
        with self._write_lock(kind, key):
            if os.path.exists(path):  # another writer already published
                obs.count(f"pipeline.cache.{kind}.store_dup")
                return
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       suffix=".tmp")
            os.close(fd)
            try:
                with obs.span("pipeline.cache.store", kind=kind):
                    writer(tmp)
                    os.replace(tmp, path)
                self._bump("stores")
                obs.count(f"pipeline.cache.{kind}.store")
            finally:
                if os.path.exists(tmp):  # writer failed before replace
                    os.unlink(tmp)
        try:
            size = os.path.getsize(path)
        except OSError:  # pragma: no cover - evicted immediately
            size = 0
        self._account(size)

    # -- size accounting and LRU eviction ------------------------------

    def _artifact_files(self) -> List[Tuple[float, int, str]]:
        """Every artifact on disk as ``(mtime, size, path)`` rows
        (quarantined ``.bad`` files included -- they hold bytes too)."""
        rows: List[Tuple[float, int, str]] = []
        for kind in _EXT:
            base = os.path.join(self.root, kind)
            if not os.path.isdir(base):
                continue
            for dirpath, _dirs, names in os.walk(base):
                for name in names:
                    if name.endswith(".tmp"):
                        continue  # in-flight writer temp, never evict
                    path = os.path.join(dirpath, name)
                    try:
                        stat = os.stat(path)
                    except OSError:
                        continue
                    rows.append((stat.st_mtime, stat.st_size, path))
        return rows

    def total_bytes(self) -> int:
        """Bytes the cache holds on disk (0 when disabled)."""
        if not self.enabled:
            return 0
        return sum(size for _mtime, size, _path in self._artifact_files())

    def _account(self, added: int) -> None:
        """Fold one store's bytes into the running total; evict when
        over budget.  The total is an in-process approximation (other
        processes sharing the directory are recounted on eviction)."""
        with self._stats_lock:
            if self._bytes is None:
                self._bytes = self.total_bytes()
            else:
                self._bytes += added
            current = self._bytes
        obs.gauge("cache.bytes", current)
        if self.max_bytes is not None and current > self.max_bytes:
            self._evict()

    def _evict(self) -> None:
        """Delete least-recently-used artifacts until under budget.

        Deleting a file a concurrent reader already opened is safe on
        POSIX (the handle survives); a reader racing the unlink before
        its open simply records a miss.
        """
        rows = sorted(self._artifact_files())
        total = sum(size for _mtime, size, _path in rows)
        evicted = 0
        for _mtime, size, path in rows:
            if total <= self.max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue  # concurrent evictor/quarantine got it first
            total -= size
            evicted += 1
        with self._stats_lock:
            self._bytes = total
            self.evictions += evicted
        if evicted:
            obs.count("cache.evictions", evicted)
        obs.gauge("cache.bytes", total)

    # -- suite traces ----------------------------------------------------

    def get_trace(self, key: str) -> Optional[Trace]:
        """The trace stored under *key* (see :func:`trace_key`), or
        None.  The stored columns become the trace's block as-is."""
        if not self.enabled:
            return None

        def loader(path: str) -> Trace:
            with np.load(path) as data:
                head = json.loads(bytes(bytearray(data["head"])).decode())
                columns = {name: data[name] for name in BLOCK_COLUMNS}
            opcodes = Opcode.__members__  # a dict: Opcode[...] is slow
            program = Program(
                [StaticInst(pc, opcodes[op], dst, tuple(srcs), imm, target,
                            label)
                 for pc, op, dst, srcs, imm, target, label
                 in head["program"]],
                head["labels"], name=head["name"])
            return Trace(program, TraceBlock(program, **columns),
                         tuple(tuple(r) for r in head["warm_l1"]),
                         tuple(tuple(r) for r in head["warm_l2"]))

        return self._load("trace", key, loader)

    def put_trace(self, key: str, trace: Trace) -> None:
        """Store *trace* under *key* (see :func:`trace_key`).

        The block's columns (see :class:`~repro.isa.trace.TraceBlock`)
        as they are, plus a JSON head with the program (one ``[pc,
        opcode, dst, srcs, imm, target, label]`` row per instruction)
        and warm ranges.
        """
        if not self.enabled:
            return

        def writer(tmp: str) -> None:
            program, block = trace.program, trace.block
            # one positional row per static instruction: encoding a
            # dict per row costs ~3x as much on large programs
            head = json.dumps({
                "name": program.name,
                "labels": program.labels,
                "program": [[s.pc, s.opcode.name, s.dst, s.srcs, s.imm,
                             s.target, s.label] for s in program],
                "warm_l1": trace.warm_l1_ranges,
                "warm_l2": trace.warm_l2_ranges,
            }, separators=(",", ":")).encode()
            with open(tmp, "wb") as handle:
                np.savez(handle, head=np.frombuffer(head, dtype=np.uint8),
                         **{name: getattr(block, name)
                            for name in BLOCK_COLUMNS})

        self._store("trace", key, writer)

    # -- simulation results --------------------------------------------
    #
    # Stored columnar (one int64 matrix of InstEvents fields) rather
    # than through repro.uarch.persist's self-contained gzip JSON: the
    # cache caller always holds the trace and config -- they are in the
    # key -- so the artifact only needs the timing events, and a cold
    # store costs milliseconds instead of rivalling the simulation it
    # is saving.

    def get_sim(self, key: str, trace=None,
                config: Optional[MachineConfig] = None
                ) -> Optional[SimResult]:
        """Reattach a cached simulation to *trace* x *config*.

        Both must be the objects the key was derived from (content
        addressing guarantees they describe the same run).
        """
        if not self.enabled:
            return None
        if trace is None or config is None:
            raise TypeError("get_sim needs the trace and config the "
                            "key was derived from")

        def loader(path: str) -> SimResult:
            with np.load(path) as data:
                head = json.loads(bytes(bytearray(data["head"])).decode())
                columns = EventColumns(np.ascontiguousarray(
                    data["columns"], dtype=np.int64))
            ideal = IdealConfig.for_categories(head["ideal"]) \
                if head["ideal"] else IdealConfig()
            return SimResult.from_columns(
                trace, config, ideal, columns,
                cycles=head["cycles"], stats=dict(head["stats"]))

        return self._load("sim", key, loader)

    def put_sim(self, key: str, result: SimResult) -> None:
        """Store *result*'s timing events columnar under *key*.

        A columnar result's matrix goes to disk as-is; an object-plane
        result (reference simulator) is gathered into columns first.
        """
        if not self.enabled:
            return

        def writer(tmp: str) -> None:
            mat = np.ascontiguousarray(result.event_columns().matrix,
                                       dtype=np.int64)
            head = json.dumps({
                "cycles": result.cycles,
                "stats": dict(result.stats),
                "ideal": list(result.ideal.active()) if result.ideal
                else [],
            }, sort_keys=True, separators=(",", ":")).encode()
            with open(tmp, "wb") as handle:
                np.savez(handle, columns=mat,
                         head=np.frombuffer(head, dtype=np.uint8))

        self._store("sim", key, writer)

    # -- built graphs --------------------------------------------------

    def get_graph(self, key: str) -> Optional[DependenceGraph]:
        """Rebuild the cached dependence graph under *key*, or None."""
        if not self.enabled:
            return None

        def loader(path: str) -> DependenceGraph:
            with np.load(path) as data:
                cols = {name: np.ascontiguousarray(data[name],
                                                   dtype=np.int64)
                        for name in ("src", "kind", "lat", "cat1", "val1",
                                     "cat2", "val2", "csr")}
                # npz -> columns, no per-edge rebuild: the python list
                # views stay lazy just like a freshly built graph's
                graph = DependenceGraph.from_arrays(int(data["num_insts"]),
                                                    cols)
                seed = data["seed"]
                graph.set_seed(int(seed[0]), int(seed[1]), int(seed[2]))
            return graph

        return self._load("graph", key, loader)

    def put_graph(self, key: str, graph: DependenceGraph) -> None:
        """Store *graph*'s edge columns and seed under *key*."""
        if not self.enabled:
            return

        def writer(tmp: str) -> None:
            col = graph.column_data
            arrays = {
                "num_insts": np.int64(graph.num_insts),
                "seed": np.asarray(
                    [graph.seed_lat, graph.seed_cat, graph.seed_val],
                    dtype=np.int64),
            }
            for name in ("src", "kind", "lat", "cat1", "val1", "cat2",
                         "val2", "csr"):
                arrays[name] = np.asarray(col(name), dtype=np.int64)
            # uncompressed: store time must stay small next to the
            # build it is caching.  np.savez appends .npz when missing;
            # write through a handle so the tmp path is honoured exactly
            with open(tmp, "wb") as handle:
                np.savez(handle, **arrays)

        self._store("graph", key, writer)

    # -- small JSON artifacts (meta, multisim cycles) ------------------

    def get_json(self, kind: str, key: str) -> Optional[Dict[str, Any]]:
        """Load the small JSON artifact of *kind* under *key*, or None."""

        def loader(path: str) -> Dict[str, Any]:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)

        return self._load(kind, key, loader)

    def put_json(self, kind: str, key: str, payload: Dict[str, Any]) -> None:
        """Store *payload* as the JSON artifact of *kind* under *key*."""
        def writer(tmp: str) -> None:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True,
                          separators=(",", ":"))

        self._store(kind, key, writer)
