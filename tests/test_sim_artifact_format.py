"""The sim artifact format (docs/PIPELINE.md, cache stage).

An artifact stores the field-major ``(F, n)`` event matrix verbatim, so
a warm load is npz -> :class:`EventColumns` with no per-instruction
rebuild.  There is one layout: ``sim_key`` digests the cache's
``SIM_KEY_VERSION`` and the event field names, so a layout or field-set
change addresses fresh artifacts instead of reading old ones through a
compat path.  This suite pins the round trip, the zero-materialization
load and that key discipline.
"""

import json

import pytest

np = pytest.importorskip("numpy")

import repro.obs as obs
from repro.pipeline import ArtifactCache, sim_key
from repro.uarch import MachineConfig, simulate
from repro.uarch.events import EVENT_FIELDS, LazyEvents
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def run():
    trace = get_workload("gzip", scale=0.5)
    config = MachineConfig(dl1_latency=4)
    return trace, config, simulate(trace, config)


class TestLayout2RoundTrip:
    def test_round_trip_is_bit_identical(self, run, tmp_path):
        trace, config, result = run
        cache = ArtifactCache(str(tmp_path))
        key = sim_key(trace, config)
        cache.put_sim(key, result)
        loaded = cache.get_sim(key, trace, config)
        assert loaded is not None
        assert loaded.cycles == result.cycles
        assert loaded.stats == result.stats
        assert list(loaded.events) == list(result.events)

    def test_artifact_stores_the_field_major_matrix(self, run, tmp_path):
        trace, config, result = run
        cache = ArtifactCache(str(tmp_path))
        key = sim_key(trace, config)
        cache.put_sim(key, result)
        with np.load(cache.path_for("sim", key)) as data:
            head = json.loads(bytes(bytearray(data["head"])).decode())
            assert set(head) == {"cycles", "stats", "ideal"}
            assert set(data.files) == {"columns", "head"}
            assert data["columns"].shape == (len(EVENT_FIELDS),
                                             len(result.events))

    def test_warm_load_materializes_nothing(self, run, tmp_path):
        trace, config, result = run
        cache = ArtifactCache(str(tmp_path))
        key = sim_key(trace, config)
        cache.put_sim(key, result)
        collector = obs.enable()
        try:
            loaded = cache.get_sim(key, trace, config)
        finally:
            obs.disable()
        assert isinstance(loaded.events, LazyEvents)
        assert collector.counter("sim.events_materialized") == 0


class TestSimKey:
    def test_sim_key_follows_the_event_fields(self, run, monkeypatch):
        """A changed field set changes the key by itself, so no artifact
        written under another field set is ever read."""
        trace, config, _ = run
        before = sim_key(trace, config)
        monkeypatch.setattr("repro.uarch.events.EVENT_FIELDS",
                            EVENT_FIELDS + ("new_field",))
        assert sim_key(trace, config) != before
        monkeypatch.undo()
        assert sim_key(trace, config) == before

    def test_sim_key_follows_the_cache_version(self, run, monkeypatch):
        trace, config, _ = run
        before = sim_key(trace, config)
        monkeypatch.setattr("repro.pipeline.artifacts.SIM_KEY_VERSION", 97)
        assert sim_key(trace, config) != before
