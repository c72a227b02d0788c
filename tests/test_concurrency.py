"""Concurrency and graceful-degradation guarantees of the shared layers.

Stress-tests the invariants the ``repro serve`` daemon leans on: a
single :class:`~repro.pipeline.artifacts.ArtifactCache` hammered by
threads never loses an update or surfaces a partial artifact, corrupt
artifacts degrade to one re-simulation instead of a crash, the run
ledger stays readable under a concurrent appender, and racing native
-kernel compiles serialize on the advisory file lock (with the pinned
one-line stderr note).
"""

import json
import os
import threading

import pytest

from repro import obs
from repro.native import CONTENTION_NOTE, compile_lock
from repro.obs.ledger.store import RunLedger
from repro.pipeline.artifacts import QUARANTINE_SUFFIX, ArtifactCache
from repro.serve.client import ServeClient
from repro.serve.server import ReproServer
from repro.session.config import RunConfig
from repro.session.lifecycle import SessionManager
from repro.session.session import AnalysisSession


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


def _run_threads(workers):
    """Run *workers* (list of callables) concurrently; re-raise the
    first exception any of them hit."""
    errors = []

    def wrap(fn):
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(fn,))
               for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _payload(key: str) -> dict:
    """The canonical payload stored under *key* (content-addressed:
    one key always maps to exactly one value)."""
    return {"key": key, "value": sum(key.encode()) % 1000}


class TestSharedCacheStress:
    """One ArtifactCache, many threads, mixed load/store/evict."""

    KEYS = [format(i, "02x") * 32 for i in range(12)]

    def test_mixed_load_store_no_lost_updates(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path))
        rounds = 30

        def worker(offset):
            def run():
                for i in range(rounds):
                    key = self.KEYS[(i + offset) % len(self.KEYS)]
                    cache.put_json("meta", key, _payload(key))
                    got = cache.get_json("meta", key)
                    # content addressing: a hit is always bit-identical
                    # to the canonical payload, never torn or stale
                    assert got is None or got == _payload(key)
            return run

        _run_threads([worker(off) for off in range(8)])
        # no eviction configured: after the dust settles every key
        # must be present with its exact payload (no lost updates)
        for key in self.KEYS:
            assert cache.get_json("meta", key) == _payload(key)
        assert cache.quarantined == 0
        assert cache.stores == len(self.KEYS)  # per-key lock: once each

    def test_eviction_under_concurrent_load(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path), max_bytes=256)

        def worker(offset):
            def run():
                for i in range(20):
                    key = format((offset * 20 + i) % 40, "02x") * 32
                    cache.put_json("meta", key, _payload(key))
                    got = cache.get_json("meta", key)
                    # evicted-between-store-and-load is a legal miss;
                    # anything returned must still be exact
                    assert got is None or got == _payload(key)
            return run

        _run_threads([worker(off) for off in range(6)])
        assert cache.evictions > 0
        assert cache.total_bytes() <= 4 * cache.max_bytes  # bounded
        # the cache stays fully usable after heavy eviction churn
        cache.put_json("meta", "ff" * 32, _payload("ff" * 32))
        assert cache.get_json("meta", "ff" * 32) == _payload("ff" * 32)

    def test_concurrent_same_key_stores_do_the_work_once(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path))
        key = "ab" * 32
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            cache.put_json("meta", key, _payload(key))

        _run_threads([worker] * 8)
        assert cache.stores == 1
        assert cache.get_json("meta", key) == _payload(key)


class TestQuarantineAndResimulate:
    """Corrupt artifacts are quarantined as a miss, then re-produced."""

    def test_corrupt_json_is_quarantined_then_restorable(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path))
        key = "cd" * 32
        cache.put_json("meta", key, _payload(key))
        path = cache.path_for("meta", key)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json{")

        assert cache.get_json("meta", key) is None  # miss, not a crash
        assert cache.quarantined == 1
        assert os.path.exists(path + QUARANTINE_SUFFIX)
        assert not os.path.exists(path)

        # the caller re-produces and re-stores; the key works again
        cache.put_json("meta", key, _payload(key))
        assert cache.get_json("meta", key) == _payload(key)

    def test_corrupt_sim_artifact_forces_a_resimulation(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path / "cache"))
        run = RunConfig(workload="gzip", scale=0.2)
        cold = AnalysisSession(run, cache=cache)
        baseline = cold.simulate().cycles
        assert cache.stores >= 1

        # truncate the stored sim artifact to simulate bit-rot
        sim_files = [os.path.join(dirpath, name)
                     for dirpath, _dirs, names
                     in os.walk(str(tmp_path / "cache" / "sim"))
                     for name in names if name.endswith(".npz")]
        assert sim_files
        with open(sim_files[0], "wb") as handle:
            handle.write(b"\x00garbage")

        warm = AnalysisSession(run, cache=cache)  # fresh memo state
        assert warm.simulate().cycles == baseline  # re-simulated
        assert cache.quarantined == 1
        assert os.path.exists(sim_files[0] + QUARANTINE_SUFFIX)


def _manifest(run_id: str) -> dict:
    """A minimal manifest that passes ``validate_manifest``."""
    return {
        "schema": 1,
        "meta": {"run_id": run_id, "timestamp": "t", "host": "h"},
        "run": {"command": "breakdown", "config_digest": "d"},
        "phases": {},
        "counters": {},
        "metrics": {},
        "perf": {},
        "result": {},
    }


class TestLedgerUnderConcurrentWriter:
    def test_reads_tolerate_a_concurrent_appender(self, tmp_path):
        ledger = RunLedger(root=str(tmp_path))
        total = 60
        done = threading.Event()

        def appender():
            for i in range(total):
                ledger.append(_manifest(f"run{i:04d}"))
            done.set()

        def reader():
            # a second RunLedger over the same file, as a concurrent
            # process would hold
            mine = RunLedger(root=str(tmp_path))
            while not done.is_set():
                runs = mine.runs()
                assert not mine.read_errors  # whole lines only
                ids = [m["meta"]["run_id"] for m in runs]
                assert ids == sorted(ids)  # append order, no tearing

        _run_threads([appender, reader])
        assert len(ledger.runs()) == total

    def test_torn_line_is_skipped_and_reported(self, tmp_path):
        ledger = RunLedger(root=str(tmp_path))
        ledger.append(_manifest("run0"))
        # a torn write: half a JSON document, no closing brace
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "meta": {"run_id": "to')
            handle.write("\n")
        ledger.append(_manifest("run1"))

        runs = ledger.runs()
        assert [m["meta"]["run_id"] for m in runs] == ["run0", "run1"]
        assert len(ledger.read_errors) == 1
        assert "line 2" in ledger.read_errors[0]

    def test_paging_tolerates_a_concurrent_appender(self, tmp_path):
        # /v1/runs is this call over HTTP: the indexed page() path must
        # hold the same whole-lines-only guarantee runs() does
        ledger = RunLedger(root=str(tmp_path))
        total = 40
        done = threading.Event()

        def appender():
            for i in range(total):
                ledger.append(_manifest(f"run{i:04d}"))
            done.set()

        def pager():
            mine = RunLedger(root=str(tmp_path))
            while not done.is_set():
                page = mine.page(limit=5)
                ids = [r["run_id"] for r in page["runs"]]
                assert ids == sorted(ids, reverse=True)  # newest first
                assert len(ids) <= 5
                assert page["total"] >= len(ids)

        _run_threads([appender, pager])
        assert RunLedger(root=str(tmp_path)).page(limit=None)["total"] \
            == total

    def test_torn_line_pages_warm_without_rescanning(self, tmp_path):
        ledger = RunLedger(root=str(tmp_path))
        ledger.append(_manifest("run0"))
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "meta": {"run_id": "to\n')
        ledger.append(_manifest("run1"))
        ledger.page(limit=None)  # builds and persists the sidecar
        collector = obs.enable()
        try:
            warm = RunLedger(root=str(tmp_path))
            page = warm.page(limit=1)
            assert [r["run_id"] for r in page["runs"]] == ["run1"]
            assert page["total"] == 2
            assert page["skipped_lines"] == 1
            # the sidecar answered: zero ledger bytes rescanned, only
            # the page's own line read back -- the O(page) contract
            assert collector.counter("ledger.index.scan_bytes") == 0
            assert collector.counter("ledger.page.lines_read") == 1
        finally:
            obs.disable()

    def test_concurrent_appenders_never_interleave(self, tmp_path):
        ledger = RunLedger(root=str(tmp_path))

        def appender(tag):
            def run():
                mine = RunLedger(root=str(tmp_path))
                for i in range(20):
                    mine.append(_manifest(f"{tag}-{i:03d}"))
            return run

        _run_threads([appender(f"w{t}") for t in range(4)])
        runs = ledger.runs(strict=True)  # strict: any torn line raises
        assert len(runs) == 80
        assert len({m["meta"]["run_id"] for m in runs}) == 80


class TestCompileLock:
    def test_uncontended_lock_reports_no_wait(self, tmp_path, capsys):
        lib = str(tmp_path / "kernel.so")
        with compile_lock(lib, "simulator") as waited:
            assert waited is False
            assert os.path.exists(lib + ".lock")
        assert capsys.readouterr().err == ""

    def test_contended_lock_waits_and_notes_it(self, tmp_path, capsys):
        lib = str(tmp_path / "kernel.so")
        holder_in = threading.Event()
        release = threading.Event()
        waited_flags = []

        def holder():
            with compile_lock(lib, "simulator"):
                holder_in.set()
                assert release.wait(10.0)

        def waiter():
            assert holder_in.wait(10.0)
            with compile_lock(lib, "simulator") as waited:
                waited_flags.append(waited)

        threads = [threading.Thread(target=holder),
                   threading.Thread(target=waiter)]
        for t in threads:
            t.start()
        holder_in.wait(10.0)
        # give the waiter a beat to hit the non-blocking attempt
        # and print the contention note before we release the holder
        threads[1].join(0.2)
        release.set()
        for t in threads:
            t.join(10.0)

        assert waited_flags == [True]
        err = capsys.readouterr().err
        assert CONTENTION_NOTE.format(what="simulator",
                                      path=lib) in err

    def test_note_text_is_pinned(self):
        # the serve/ops runbooks grep for this exact line
        assert CONTENTION_NOTE == ("note: waiting for a concurrent "
                                   "{what} compile ({path})")


class TestServeConcurrency:
    """One daemon, concurrent clients: identical digests, no lost jobs."""

    @pytest.fixture()
    def server(self, tmp_path):
        srv = ReproServer(SessionManager(cache_dir=str(tmp_path / "c")),
                          port=0, workers=4, queue_size=64,
                          idle_reap_s=0)
        srv.start()
        yield srv
        srv.stop()

    def test_concurrent_identical_requests_share_one_digest(self, server):
        client = ServeClient(server.url, timeout=60.0)
        etags = []
        lock = threading.Lock()

        def worker():
            doc = client.run("workloads", [], timeout=60.0)
            with lock:
                etags.append(doc["etag"])

        _run_threads([worker] * 8)
        assert len(etags) == 8  # no lost updates
        assert len(set(etags)) == 1  # bit-identical result digests

    def test_reuse_false_still_agrees_on_the_digest(self, server):
        client = ServeClient(server.url, timeout=120.0)
        results = []
        lock = threading.Lock()

        def worker():
            doc = client.run("workloads", [], reuse=False,
                             timeout=120.0)
            with lock:
                results.append((doc["job"], doc["etag"]))

        _run_threads([worker] * 4)
        jobs = {job for job, _ in results}
        etags = {etag for _, etag in results}
        assert len(jobs) == 4  # each request truly executed
        assert len(etags) == 1  # and they all agree bit-for-bit

    def test_concurrent_distinct_requests_keep_distinct_digests(
            self, server):
        client = ServeClient(server.url, timeout=300.0)
        argvs = {
            "a": ["gzip", "--scale", "0.05"],
            "b": ["gzip", "--scale", "0.07"],
        }
        etags = {"a": [], "b": []}
        lock = threading.Lock()

        def worker(tag):
            def run():
                doc = client.run("breakdown", argvs[tag],
                                 timeout=300.0)
                with lock:
                    etags[tag].append(doc["etag"])
            return run

        _run_threads([worker("a"), worker("b"),
                      worker("a"), worker("b")])
        assert len(etags["a"]) == 2 and len(set(etags["a"])) == 1
        assert len(etags["b"]) == 2 and len(set(etags["b"])) == 1
        assert set(etags["a"]) != set(etags["b"])

    def test_shared_cache_warms_across_clients(self, server):
        client = ServeClient(server.url, timeout=300.0)
        argv = ["gzip", "--scale", "0.05"]
        cold = client.run("breakdown", argv, reuse=False,
                          timeout=300.0)
        warm = client.run("breakdown", argv, reuse=False,
                          timeout=300.0)
        assert cold["etag"] == warm["etag"]
        stats = client.stats()
        assert stats["cache"]["hits"] >= 1  # second run hit the cache

    def test_concurrent_jobs_keep_disjoint_trace_slices(self, tmp_path):
        # two jobs racing on the worker pool: each trace must carry
        # only its own spans, every one tagged with its own id
        obs.enable()
        srv = ReproServer(SessionManager(cache_dir=str(tmp_path / "t")),
                          port=0, workers=2, queue_size=16,
                          idle_reap_s=0)
        srv.start()
        try:
            client = ServeClient(srv.url, timeout=300.0)
            docs = [None, None]

            def runner(slot, argv):
                def go():
                    docs[slot] = client.run("breakdown", argv,
                                            reuse=False, timeout=300.0)
                return go

            _run_threads([
                runner(0, ["gzip", "--scale", "0.05"]),
                runner(1, ["mcf", "--scale", "0.05"]),
            ])
            traces = [client.trace(doc["job"]) for doc in docs]
            for doc, trace in zip(docs, traces):
                events = [e for e in trace["traceEvents"]
                          if e.get("ph") == "X"]
                assert events
                assert all(e["args"]["trace"] == doc["trace"]
                           for e in events)
            assert docs[0]["trace"] != docs[1]["trace"]
        finally:
            srv.stop()
            obs.disable()
