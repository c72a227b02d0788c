"""Suite traces keyed by identity and cached as ``trace`` artifacts.

A suite trace's cache keys derive from ``(workload, scale, seed,
TRACE_GENERATOR_VERSION)``, so a run whose graph and meta artifacts are
cached never reads its trace.  On a miss the trace comes from the
artifact cache's ``trace`` kind, bit-identical to a freshly generated
one, and a torn artifact is quarantined and regenerated.
"""

import pickle
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro import cli, obs
from repro.isa.trace import InstColumns, Trace
from repro.obs.ledger import open_ledger
from repro.pipeline import ArtifactCache, sim_key, trace_fingerprint
from repro.pipeline.artifacts import trace_key
from repro.session import AnalysisSession, RunConfig
from repro.uarch import MachineConfig
from repro.workloads import registry
from repro.workloads.registry import (
    WORKLOAD_NAMES,
    SuiteTrace,
    get_workload,
    get_workload_object,
    workload_identity,
)
from repro.workloads.spec import make_gzip
from repro.workloads.synthetic import random_program
from tests.test_trace_golden import _golden, trace_digest

#: golden-digest case every workload is checked at (scale 0.5, seed 0)
SCALE, SEED = 0.5, 0


@pytest.fixture(autouse=True)
def _fresh_trace_cache(monkeypatch):
    """An empty in-process trace LRU per test, so reads reach the
    artifact cache (or the generator) instead of a sibling test's
    trace."""
    monkeypatch.setattr(registry, "_TRACES",
                        registry._TraceCache(registry.TRACE_CACHE_INSTS))
    obs.disable()
    yield
    obs.disable()


def _clear_lru(monkeypatch):
    monkeypatch.setattr(registry, "_TRACES",
                        registry._TraceCache(registry.TRACE_CACHE_INSTS))


def _read(name, cache):
    """Read *name* through *cache*; returns (trace, source)."""
    trace = SuiteTrace(name, SCALE, SEED, cache=cache)
    len(trace.insts)
    return trace, trace.source


def _content_key(trace):
    """The content hash of *trace*, whatever its identity."""
    return trace_fingerprint(Trace(trace.program, trace.insts,
                                   trace.warm_l1_ranges,
                                   trace.warm_l2_ranges))


def _artifact_path(cache, name):
    return Path(cache.path_for(
        "trace", trace_key(workload_identity(name, SCALE, SEED))))


class TestLoadedTraces:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_loaded_trace_matches_a_fresh_one(self, name, tmp_path,
                                              monkeypatch):
        cache = ArtifactCache(str(tmp_path))
        generated, source = _read(name, cache)
        assert source == "generated"
        _clear_lru(monkeypatch)
        loaded, source = _read(name, cache)
        assert source == "loaded"
        assert loaded.insts is not generated.insts
        fresh = get_workload_object(name, SCALE, SEED).trace()
        golden = _golden()[f"{name}/s{SEED}/x{SCALE}"]
        assert trace_digest(loaded) == trace_digest(fresh) == golden
        assert trace_fingerprint(loaded) == trace_fingerprint(fresh)
        assert _content_key(loaded) == _content_key(fresh)
        assert list(loaded.program) == list(fresh.program)
        assert loaded.program.labels == fresh.program.labels
        # the graph builder's block, derived from the loaded instructions
        block, ref = loaded.inst_columns(), fresh.inst_columns()
        for field in InstColumns.__slots__[1:]:
            got, want = getattr(block, field), getattr(ref, field)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_artifact_stores_only_generator_output(self, tmp_path):
        # no graph-model product (the InstColumns block) is stored, so
        # a GRAPH_MODEL_VERSION bump can never meet a stale one
        cache = ArtifactCache(str(tmp_path))
        _read("gzip", cache)
        with np.load(_artifact_path(cache, "gzip")) as data:
            assert sorted(data.files) == [
                "addr", "has_addr", "head", "mem_producer", "next_pc",
                "prod", "sidx", "taken"]

    def test_trace_key_follows_the_versions(self, monkeypatch):
        from repro.pipeline import artifacts

        identity = workload_identity("gzip", SCALE, SEED)
        before = trace_key(identity)
        monkeypatch.setattr(artifacts, "TRACE_KEY_VERSION",
                            artifacts.TRACE_KEY_VERSION + 1)
        assert trace_key(identity) != before
        monkeypatch.undo()
        monkeypatch.setattr(registry, "TRACE_GENERATOR_VERSION",
                            registry.TRACE_GENERATOR_VERSION + 1)
        assert trace_key(workload_identity("gzip", SCALE, SEED)) != before

    def test_identity_keys_read_no_instructions(self):
        trace = SuiteTrace("gcc", SCALE, SEED)
        key = sim_key(trace, MachineConfig())
        assert trace.source is None  # never read
        assert key == sim_key(SuiteTrace("gcc", SCALE, SEED),
                              MachineConfig())
        assert trace_fingerprint(trace) != trace_fingerprint(
            SuiteTrace("gcc", SCALE, SEED + 1))

    def test_every_registry_trace_is_keyed_by_identity(self):
        fresh = get_workload_object("gzip", SCALE, SEED).trace()
        lru = get_workload("gzip", SCALE, SEED)
        suite = SuiteTrace("gzip", SCALE, SEED)
        assert fresh.identity == lru.identity == suite.identity
        assert trace_fingerprint(fresh) == trace_fingerprint(lru) == \
            trace_fingerprint(suite)
        assert suite.source is None
        session = AnalysisSession(RunConfig(workload="gzip", scale=SCALE))
        assert trace_fingerprint(session.trace) == trace_fingerprint(suite)
        assert session.trace_source == "skipped"

    def test_ad_hoc_traces_keep_the_content_hash(self):
        registry_trace = get_workload("gzip", SCALE, SEED)
        unregistered = make_gzip(scale=SCALE, seed=SEED).trace()
        assert unregistered.identity is None
        assert trace_fingerprint(unregistered) == _content_key(
            registry_trace)
        assert random_program(seed=1, iterations=2).trace().identity is None

    def test_a_pickled_suite_trace_is_the_trace_itself(self):
        trace = SuiteTrace("gzip", SCALE, SEED,
                           cache=ArtifactCache.disabled_cache())
        copy = pickle.loads(pickle.dumps(trace))
        assert type(copy) is Trace
        assert copy.identity == trace.identity
        assert trace_digest(copy) == trace_digest(trace)

    def test_unknown_workload_fails_before_anything_is_read(self):
        with pytest.raises(KeyError):
            SuiteTrace("nonsense")

    def test_disabled_cache_writes_nothing(self, tmp_path):
        _trace, source = _read("gzip", ArtifactCache.disabled_cache())
        assert source == "generated"
        assert list(tmp_path.iterdir()) == []


class TestTornArtifacts:
    @pytest.mark.parametrize("damage", ["truncate", "garbage"])
    def test_torn_artifact_is_quarantined_and_regenerated(
            self, damage, tmp_path, monkeypatch):
        cache = ArtifactCache(str(tmp_path))
        _read("gzip", cache)
        path = _artifact_path(cache, "gzip")
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2] if damage == "truncate"
                         else b"\x00not an npz" * 64)
        _clear_lru(monkeypatch)
        collector = obs.enable()
        trace, source = _read("gzip", cache)
        obs.disable()
        assert source == "generated"
        assert collector.counter("cache.quarantined") == 1
        assert collector.counter("workload.trace.generated") == 1
        assert Path(str(path) + ".bad").exists()
        assert trace_digest(trace) == _golden()[f"gzip/s{SEED}/x{SCALE}"]
        # the regenerated trace was stored again, whole
        _clear_lru(monkeypatch)
        again, source = _read("gzip", cache)
        assert source == "loaded"
        assert trace_digest(again) == trace_digest(trace)


ARGV = ["breakdown", "gcc", "--scale", str(SCALE), "--focus", "dl1",
        "--json", "--no-ledger"]


def _cli(capsys, *extra):
    assert cli.main(ARGV + list(extra)) == 0
    return capsys.readouterr().out


class TestWarmBreakdown:
    def test_warm_output_is_byte_identical_and_skips_the_trace(
            self, capsys, tmp_path, monkeypatch):
        reference = _cli(capsys, "--no-cache")
        cache_dir = str(tmp_path / "cache")
        _clear_lru(monkeypatch)
        cold = _cli(capsys, "--cache-dir", cache_dir)
        _clear_lru(monkeypatch)
        collector = obs.enable()
        warm = _cli(capsys, "--cache-dir", cache_dir)
        assert reference == cold == warm
        assert collector.counter("workload.trace.skipped") == 1
        for read in ("generated", "loaded", "cache_hit"):
            assert collector.counter(f"workload.trace.{read}") == 0
        assert "workload.trace" not in collector.span_names()
        assert collector.notes["workload.trace.source"] == "skipped"
        assert collector.notes["pipeline.cache.state"] == "warm"

    def test_a_new_config_loads_the_cached_trace(self, capsys, tmp_path,
                                                 monkeypatch):
        cache_dir = str(tmp_path / "cache")
        _cli(capsys, "--cache-dir", cache_dir)
        reference = _cli(capsys, "--no-cache", "--set", "dl1_latency=4")
        _clear_lru(monkeypatch)
        collector = obs.enable()
        got = _cli(capsys, "--cache-dir", cache_dir, "--set",
                   "dl1_latency=4")
        assert got == reference
        assert collector.counter("workload.trace.loaded") == 1
        assert collector.counter("workload.trace.generated") == 0
        assert collector.notes["workload.trace.source"] == "loaded"

    def test_manifest_records_the_trace_source(self, capsys, tmp_path,
                                               monkeypatch):
        cache_dir, ledger_dir = str(tmp_path / "cache"), tmp_path / "ledger"
        argv = [a for a in ARGV if a != "--no-ledger"]
        for _ in range(2):
            _clear_lru(monkeypatch)
            assert cli.main(argv + ["--cache-dir", cache_dir,
                                    "--ledger-dir", str(ledger_dir)]) == 0
        capsys.readouterr()
        cold, warm = open_ledger(str(ledger_dir)).runs()
        assert cold["perf"]["trace_source"] == "generated"
        assert warm["perf"]["trace_source"] == "skipped"
        assert cold["run"]["trace_fingerprint"] == \
            warm["run"]["trace_fingerprint"] == \
            trace_fingerprint(SuiteTrace("gcc", SCALE, SEED))
