"""The global CLI observability flags: --trace, --metrics, -v."""

import json

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.graph import engine as engine_mod


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def _load_trace(path):
    doc = json.loads(path.read_text())
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert spans, "trace file holds no spans"
    for event in spans:
        assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(event)
    return {e["name"] for e in spans}


class TestTraceFlag:
    def test_breakdown_writes_valid_trace(self, run, tmp_path):
        out = tmp_path / "t.json"
        code, stdout, stderr = run("breakdown", "gzip", "--scale", "0.2",
                                   "--engine", "batched", "--focus", "dl1",
                                   "--trace", str(out))
        assert code == 0
        assert "Total" in stdout  # normal output unchanged
        assert str(out) in stderr
        names = _load_trace(out)
        # workload.trace only appears when the trace cache is cold, so
        # it is not required here (suite ordering must not matter)
        assert {"analysis.analyze_trace", "sim.run", "graph.build",
                "engine.cp_batch", "breakdown.interaction"} <= names
        assert len(names) >= 5

    def test_profile_writes_valid_trace(self, run, tmp_path):
        out = tmp_path / "t.json"
        code, stdout, _ = run("profile", "gzip", "--scale", "0.3",
                              "--fragments", "3", "--trace", str(out))
        assert code == 0
        names = _load_trace(out)
        assert {"profiler.collect", "profiler.reconstruct",
                "profiler.analyze"} <= names

    def test_critical_writes_valid_trace(self, run, tmp_path):
        out = tmp_path / "t.json"
        code, stdout, _ = run("critical", "gzip", "--scale", "0.2",
                              "--top", "3", "--trace", str(out))
        assert code == 0
        assert {"sim.run", "graph.build"} <= _load_trace(out)

    def test_collection_disabled_after_run(self, run, tmp_path):
        run("breakdown", "gzip", "--scale", "0.2",
            "--trace", str(tmp_path / "t.json"))
        assert not obs.enabled()

    def test_no_flags_means_no_collection(self, run):
        code, stdout, _ = run("breakdown", "gzip", "--scale", "0.2")
        assert code == 0
        assert not obs.enabled()
        assert "pipeline metrics" not in stdout


class TestMetricsFlag:
    def test_breakdown_metrics_summary(self, run):
        code, stdout, _ = run("breakdown", "gzip", "--scale", "0.2",
                              "--engine", "batched", "--focus", "dl1",
                              "--metrics")
        assert code == 0
        assert "pipeline metrics" in stdout
        assert "cost-query cache hit rate" in stdout
        assert "full sweep" in stdout and "worklist" in stdout
        assert "native C kernel" in stdout
        assert "engine.batched.sweep.full" in stdout

    def test_report_simulates_and_builds_once(self, run, tmp_path):
        """The report, its breakdown, matrix and characterization all
        read the CLI session's one simulation and one graph."""
        code, stdout, _ = run("report", "gzip", "--scale", "0.25",
                              "-o", str(tmp_path / "r.html"), "--metrics")
        assert code == 0
        rows = {line.split()[0]: line.split()[1:]
                for line in stdout.splitlines() if line.strip()}
        assert rows["session.simulate"] == ["1"]
        assert rows["graph.build"][0] == "1"  # the span's count

    def test_metrics_without_trace_writes_no_file(self, run, tmp_path):
        code, stdout, stderr = run("breakdown", "gzip", "--scale", "0.2",
                                   "--metrics")
        assert code == 0
        assert "wrote pipeline trace" not in stderr


class TestFlagsAcceptedEverywhere:
    COMMANDS = {
        "workloads": [],
        "breakdown": ["gzip"],
        "characterize": ["--workloads", "gzip"],
        "profile": ["gzip"],
        "matrix": ["gzip"],
        "report": ["gzip"],
        "sensitivity": ["gzip"],
        "phases": ["gzip"],
        "critical": ["gzip"],
        "compare": ["gzip"],
        "multisim": ["gzip"],
        "selfprofile": ["gzip"],
        "bench": [],
        "ledger": ["list"],
        "serve": [],
    }

    def test_covers_every_subcommand(self):
        parser = build_parser()
        action = next(a for a in parser._actions
                      if hasattr(a, "choices") and a.choices)
        assert set(self.COMMANDS) == set(action.choices)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_obs_flags_parse(self, command):
        argv = ([command] + self.COMMANDS[command]
                + ["--trace", "t.json", "--metrics", "-vv",
                   "--log-level", "debug"])
        args = build_parser().parse_args(argv)
        assert args.trace == "t.json"
        assert args.metrics is True
        assert args.verbose == 2
        assert args.log_level == "debug"

    def test_workloads_run_with_metrics(self, run):
        code, stdout, _ = run("workloads", "--metrics")
        assert code == 0
        assert "pipeline metrics" in stdout


class TestVerbosityFlag:
    def test_verbose_sets_logger_level(self, run):
        run("workloads", "-v")
        assert obs.get_logger().level == 20  # INFO
        run("workloads", "-vv")
        assert obs.get_logger().level == 10  # DEBUG
        run("workloads")
        assert obs.get_logger().level == 30  # WARNING default

    def test_log_level_overrides_verbose(self, run):
        run("workloads", "-vv", "--log-level", "error")
        assert obs.get_logger().level == 40


class TestNativeFallbackWarning:
    def test_cli_warns_once_on_silent_kernel_failure(self, run, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_NO_NATIVE", raising=False)
        monkeypatch.setattr(engine_mod.SWEEP_KERNEL, "fn", None)
        monkeypatch.setattr(engine_mod.SWEEP_KERNEL, "reason",
                            "compile/load failed: simulated")
        monkeypatch.setattr(engine_mod.SWEEP_KERNEL, "warned", False)
        code, _, stderr = run("breakdown", "gzip", "--scale", "0.2",
                              "--engine", "batched")
        assert code == 0
        assert "native C sweep kernel unavailable" in stderr
        assert "simulated" in stderr
        code, _, stderr = run("breakdown", "gzip", "--scale", "0.2",
                              "--engine", "batched")
        assert code == 0
        assert "unavailable" not in stderr  # only the first run warns

    def test_no_warning_when_kernel_loaded_or_disabled(self, run,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_NO_NATIVE", "1")
        monkeypatch.setattr(engine_mod.SWEEP_KERNEL, "fn", None)
        monkeypatch.setattr(engine_mod.SWEEP_KERNEL, "reason",
                            "disabled by REPRO_ENGINE_NO_NATIVE")
        monkeypatch.setattr(engine_mod.SWEEP_KERNEL, "warned", False)
        code, _, stderr = run("breakdown", "gzip", "--scale", "0.2",
                              "--engine", "batched")
        assert code == 0
        assert "unavailable" not in stderr
