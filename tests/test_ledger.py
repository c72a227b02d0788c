"""The run ledger: manifests, the JSONL store, diffs and the CLI.

Pins the tentpole's contracts: manifests validate against the shallow
schema and are **bit-identical across identical runs** once the
volatile sections (meta/phases/perf) are stripped; the store appends
atomically, tolerates torn lines, and resolves prefix/negative-index
references; ``diff`` flags exactly the regressions the thresholds
define; and the CLI wires it all end-to-end -- two runs with an
injected config change produce a report flagging the regressed
metrics.
"""

import json
import os

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.obs.ledger import (
    INDEX_FILENAME,
    LEDGER_DIR_ENV,
    LedgerError,
    RunLedger,
    Thresholds,
    build_manifest,
    diff_manifests,
    open_ledger,
    render_diff_table,
    render_html_report,
    run_summary,
    stable_view,
    validate_manifest,
)
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


def _run_analysis(argv):
    """Run one registered analysis; returns (session, result, collector)."""
    args = build_parser().parse_args(argv)
    collector = obs.enable()
    try:
        session = args.analysis.make_session(args)
        result = args.analysis.run(session, args)
    finally:
        obs.disable()
    return session, result, collector


def _breakdown_manifest():
    session, result, collector = _run_analysis(
        ["breakdown", "gzip", "--scale", "0.2", "--focus", "dl1"])
    return build_manifest("breakdown", session, result,
                          collector=collector, wall_s=0.25)


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------

class TestManifest:
    def test_manifest_passes_schema_and_carries_the_run(self):
        manifest = _breakdown_manifest()
        assert validate_manifest(manifest) == []
        assert manifest["run"]["command"] == "breakdown"
        assert manifest["run"]["config"]["workload"] == "gzip"
        assert manifest["run"]["trace_fingerprint"]
        assert len(manifest["run"]["config_digest"]) == 64
        assert manifest["meta"]["run_id"]
        assert manifest["counters"].get("session.simulate") == 1
        # breakdown rows land as pp metrics
        assert any(name.startswith("breakdown.") and name.endswith("_pp")
                   for name in manifest["metrics"])
        assert manifest["perf"]["wall_ms"] == pytest.approx(250.0)
        assert manifest["result"]["type"] == "BreakdownResult"

    def test_manifest_records_the_resolved_engine(self):
        assert _breakdown_manifest()["run"]["engine"] == "batched"
        session, result, collector = _run_analysis(
            ["breakdown", "gzip", "--scale", "0.2", "--focus", "dl1",
             "--engine", "naive"])
        manifest = build_manifest("breakdown", session, result,
                                  collector=collector)
        assert manifest["run"]["engine"] == "naive"
        assert manifest["counters"].get("engine.naive.sweep", 0) > 0

    def test_phase_timings_bucket_simulation_and_analysis(self):
        manifest = _breakdown_manifest()
        phases = manifest["phases"]
        assert set(phases) == {"simulate", "build", "analyze", "other"}
        assert phases["simulate"] > 0
        assert phases["analyze"] > 0

    def test_identical_runs_yield_bit_identical_stable_views(self):
        get_workload("gzip", scale=0.2, seed=0)  # warm the trace cache
        first = _breakdown_manifest()
        second = _breakdown_manifest()
        assert first["meta"]["run_id"] != second["meta"]["run_id"]
        assert (json.dumps(stable_view(first), sort_keys=True)
                == json.dumps(stable_view(second), sort_keys=True))

    def test_config_change_changes_the_digest(self):
        get_workload("gzip", scale=0.2, seed=0)
        base = _breakdown_manifest()
        session, result, collector = _run_analysis(
            ["breakdown", "gzip", "--scale", "0.2", "--focus", "dl1",
             "--set", "dl1_latency=4"])
        changed = build_manifest("breakdown", session, result,
                                 collector=collector)
        assert base["run"]["config_digest"] != changed["run"]["config_digest"]

    def test_stable_view_strips_exactly_the_volatile_sections(self):
        manifest = _breakdown_manifest()
        view = stable_view(manifest)
        assert set(manifest) - set(view) == {"meta", "phases", "perf"}

    def test_selfprofile_runs_carry_a_volatile_selfprofile_section(self):
        """A run that produced a self-profile persists it in the
        manifest; ordinary runs (above) have no such section, and the
        stable view strips it like any other volatile section."""
        session, result, collector = _run_analysis(
            ["selfprofile", "gzip", "--scale", "0.2", "--no-cache"])
        manifest = build_manifest("selfprofile", session, result,
                                  collector=collector, wall_s=0.25)
        assert validate_manifest(manifest) == []
        profile = manifest["selfprofile"]
        assert profile["coverage"] > 0.9
        assert profile["rows"]
        assert {row["kind"] for row in profile["rows"]} \
            >= {"cost", "residual"}
        assert manifest["perf"]["selfprof.coverage"] \
            == pytest.approx(profile["coverage"], abs=1e-4)
        assert "selfprofile" not in stable_view(manifest)

    def test_validate_manifest_reports_problems(self):
        assert validate_manifest([]) == ["manifest is list, not an object"]
        problems = validate_manifest({"schema": "1", "meta": {}})
        assert any("schema" in p for p in problems)
        assert any("missing section 'run'" in p for p in problems)
        assert any("missing meta.run_id" in p for p in problems)


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------

def _toy_manifest(run_id="aaaa00000001", command="breakdown",
                  digest="d" * 64, metrics=None, counters=None,
                  perf=None):
    return {
        "schema": 1,
        "meta": {"run_id": run_id, "timestamp": "2026-01-01T00:00:00",
                 "host": {"hostname": "test"}},
        "run": {"command": command, "config_digest": digest,
                "config": {"workload": "gzip"}},
        "phases": {"simulate": 1.0, "build": 1.0, "analyze": 1.0,
                   "other": 0.0},
        "counters": counters or {},
        "metrics": metrics or {},
        "perf": perf or {},
        "result": {"type": "BreakdownResult", "digest": "e" * 64},
    }


class TestStore:
    def test_append_and_read_round_trip(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        assert ledger.append(_toy_manifest("aaaa00000001")) \
            == "aaaa00000001"
        ledger.append(_toy_manifest("bbbb00000002"))
        runs = ledger.runs()
        assert [m["meta"]["run_id"] for m in runs] \
            == ["aaaa00000001", "bbbb00000002"]
        assert ledger.read_errors == []

    def test_get_resolves_prefix_and_negative_index(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        ledger.append(_toy_manifest("aaaa00000001"))
        ledger.append(_toy_manifest("bbbb00000002"))
        assert ledger.get("aaaa")["meta"]["run_id"] == "aaaa00000001"
        assert ledger.get("-1")["meta"]["run_id"] == "bbbb00000002"
        assert ledger.get("-2")["meta"]["run_id"] == "aaaa00000001"
        with pytest.raises(LedgerError):
            ledger.get("cccc")
        with pytest.raises(LedgerError):
            ledger.get("-3")

    def test_ambiguous_prefix_raises(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        ledger.append(_toy_manifest("abcd00000001"))
        ledger.append(_toy_manifest("abce00000002"))
        with pytest.raises(LedgerError, match="ambiguous"):
            ledger.get("abc")

    def test_malformed_lines_are_skipped_not_fatal(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        ledger.append(_toy_manifest("aaaa00000001"))
        with open(ledger.path, "a", encoding="utf-8") as fh:
            fh.write("{torn write\n")
            fh.write(json.dumps({"schema": 1}) + "\n")
        ledger.append(_toy_manifest("bbbb00000002"))
        runs = ledger.runs()
        assert len(runs) == 2
        assert len(ledger.read_errors) == 2
        with pytest.raises(LedgerError):
            ledger.runs(strict=True)

    def test_append_refuses_malformed_manifests(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        with pytest.raises(LedgerError, match="malformed"):
            ledger.append({"schema": 1})
        assert not os.path.exists(ledger.path)

    def test_disabled_ledger_is_a_no_op(self, tmp_path):
        ledger = open_ledger(str(tmp_path), disabled=True)
        assert not ledger.enabled
        assert ledger.append(_toy_manifest()) is None
        assert ledger.runs() == []
        with pytest.raises(RuntimeError):
            ledger.path

    def test_env_var_supplies_the_default_root(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv(LEDGER_DIR_ENV, str(tmp_path))
        ledger = RunLedger()
        assert ledger.enabled
        assert ledger.root == str(tmp_path)


# ----------------------------------------------------------------------
# the sidecar index (the /v1/runs read path)
# ----------------------------------------------------------------------

class TestSidecarIndex:
    def _fill(self, tmp_path, n=4):
        ledger = RunLedger(str(tmp_path))
        for i in range(n):
            ledger.append(_toy_manifest(f"aaaa{i:08d}"))
        return ledger

    def test_sidecar_reloads_without_rescanning_the_ledger(
            self, tmp_path):
        ledger = self._fill(tmp_path)
        ledger.page(limit=None)  # builds and persists the sidecar
        assert os.path.exists(os.path.join(str(tmp_path),
                                           INDEX_FILENAME))
        collector = obs.enable()
        try:
            warm = RunLedger(str(tmp_path))
            page = warm.page(limit=2)
            assert [r["run_id"] for r in page["runs"]] \
                == ["aaaa00000003", "aaaa00000002"]
            assert page["total"] == 4
            # the O(page) contract: zero ledger bytes rescanned, only
            # the page's own lines read back
            assert collector.counter("ledger.index.scan_bytes") == 0
            assert collector.counter("ledger.page.lines_read") == 2
        finally:
            obs.disable()

    def test_index_extends_incrementally_for_foreign_appends(
            self, tmp_path):
        ledger = self._fill(tmp_path)
        ledger.page(limit=None)
        # a second process appends behind this instance's back
        other = RunLedger(str(tmp_path))
        other.append(_toy_manifest("bbbb00000099"))
        collector = obs.enable()
        try:
            page = ledger.page(limit=1)
            assert page["runs"][0]["run_id"] == "bbbb00000099"
            scanned = collector.counter("ledger.index.scan_bytes")
            assert 0 < scanned < os.path.getsize(ledger.path)
        finally:
            obs.disable()

    def test_truncated_ledger_triggers_a_rebuild(self, tmp_path):
        ledger = self._fill(tmp_path)
        ledger.page(limit=None)
        # an operator rotated/truncated the ledger file underneath us
        with open(ledger.path, encoding="utf-8") as handle:
            first_line = handle.readline()
        with open(ledger.path, "w", encoding="utf-8") as handle:
            handle.write(first_line)
        fresh = RunLedger(str(tmp_path))
        page = fresh.page(limit=None)
        assert page["total"] == 1
        assert page["runs"][0]["run_id"] == "aaaa00000000"
        assert fresh.get("-1")["meta"]["run_id"] == "aaaa00000000"

    def test_deleted_sidecar_is_rebuilt_from_the_ledger(self, tmp_path):
        ledger = self._fill(tmp_path)
        ledger.page(limit=None)
        os.unlink(os.path.join(str(tmp_path), INDEX_FILENAME))
        fresh = RunLedger(str(tmp_path))
        assert fresh.page(limit=None)["total"] == 4
        assert fresh.get("-1")["meta"]["run_id"] == "aaaa00000003"

    def test_page_filters_on_the_index_alone(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        ledger.append(_toy_manifest("aaaa00000001", command="breakdown"))
        ledger.append(_toy_manifest("bbbb00000002", command="matrix"))
        collector = obs.enable()
        try:
            page = ledger.page(analysis="matrix")
            assert page["total"] == 1
            assert page["runs"][0]["analysis"] == "matrix"
            # the filtered-out manifest was never read back
            assert collector.counter("ledger.page.lines_read") == 1
        finally:
            obs.disable()

    def test_get_resolves_through_the_index(self, tmp_path):
        ledger = self._fill(tmp_path)
        assert ledger.get("aaaa00000002")["meta"]["run_id"] \
            == "aaaa00000002"
        with pytest.raises(LedgerError, match="ambiguous"):
            ledger.get("aaaa")
        with pytest.raises(LedgerError):
            ledger.get("ffff")

    def test_run_summary_row_shape(self):
        row = run_summary(_toy_manifest("cccc00000003",
                                        perf={"wall_ms": 12.5}))
        assert row == {
            "run_id": "cccc00000003",
            "recorded": "2026-01-01T00:00:00",
            "unix_time": 0.0,
            "analysis": "breakdown",
            "workload": "gzip",
            "config_digest": "d" * 12,
            "wall_ms": 12.5,
            "result_type": "BreakdownResult",
        }

    def test_disabled_ledger_pages_empty(self, tmp_path):
        ledger = open_ledger(str(tmp_path), disabled=True)
        page = ledger.page()
        assert page["enabled"] is False
        assert page["runs"] == [] and page["total"] == 0


# ----------------------------------------------------------------------
# diffs and reports
# ----------------------------------------------------------------------

class TestDiff:
    def _pair(self, before_metrics, after_metrics, **after_kwargs):
        a = _toy_manifest("aaaa00000001", metrics=before_metrics)
        b = _toy_manifest("bbbb00000002", metrics=after_metrics,
                          **after_kwargs)
        return a, b

    def test_breakdown_drift_beyond_pp_threshold_regresses(self):
        a, b = self._pair({"breakdown.dl1_pp": 20.0},
                          {"breakdown.dl1_pp": 22.5})
        diff = diff_manifests(a, b, Thresholds(breakdown_pp=1.0))
        assert [f.metric for f in diff.regressions] == ["breakdown.dl1_pp"]
        assert diff_manifests(
            a, b, Thresholds(breakdown_pp=5.0)).regressions == []

    def test_speedup_ratio_below_threshold_regresses(self):
        a = _toy_manifest("aaaa00000001",
                          perf={"engine.speedup_batched_vs_naive": 6.0})
        b = _toy_manifest("bbbb00000002",
                          perf={"engine.speedup_batched_vs_naive": 3.0})
        diff = diff_manifests(a, b, Thresholds(speedup_ratio=0.8))
        assert any(f.metric == "engine.speedup_batched_vs_naive"
                   for f in diff.regressions)
        assert diff_manifests(
            a, b, Thresholds(speedup_ratio=0.4)).regressions == []

    def test_cache_hit_rate_drop_regresses(self):
        a = _toy_manifest("aaaa00000001", counters={
            "session.simulate": 2, "session.simulate.memo_hit": 8})
        b = _toy_manifest("bbbb00000002", counters={
            "session.simulate": 8, "session.simulate.memo_hit": 2})
        diff = diff_manifests(a, b, Thresholds(cache_hit_drop=0.1))
        assert any(f.metric == "cache.hit_rate"
                   for f in diff.regressions)

    def test_simulate_count_growth_regresses_only_same_config(self):
        a = _toy_manifest("aaaa00000001",
                          counters={"session.simulate": 2})
        b = _toy_manifest("bbbb00000002",
                          counters={"session.simulate": 5})
        diff = diff_manifests(a, b, Thresholds(simulate_runs=0))
        assert any(f.metric == "session.simulate"
                   for f in diff.regressions)
        # with a different config the growth is informational
        b_other = _toy_manifest("bbbb00000002", digest="f" * 64,
                                counters={"session.simulate": 5})
        diff = diff_manifests(a, b_other, Thresholds(simulate_runs=0))
        assert not any(f.metric == "session.simulate"
                       for f in diff.regressions)

    def test_render_diff_table_lists_verdicts(self):
        a, b = self._pair({"breakdown.dl1_pp": 20.0},
                          {"breakdown.dl1_pp": 30.0})
        diff = diff_manifests(a, b)
        text = render_diff_table(diff)
        assert "breakdown.dl1_pp" in text
        assert "REGRESSION" in text
        assert "aaaa00000001" in text and "bbbb00000002" in text

    def test_html_report_is_self_contained(self):
        a, b = self._pair({"breakdown.dl1_pp": 20.0},
                          {"breakdown.dl1_pp": 30.0})
        diff = diff_manifests(a, b)
        html = render_html_report([a, b], diff)
        assert html.startswith("<!doctype html>")
        assert "aaaa00000001" in html and "bbbb00000002" in html
        assert "class='bar" in html      # per-phase timing bars
        assert "regression" in html
        assert "<script" not in html     # self-contained, no externals


# ----------------------------------------------------------------------
# CLI end to end
# ----------------------------------------------------------------------

class TestCliEndToEnd:
    def _bench(self, ledger_dir, tmp_path, extra=()):
        argv = ["bench", "--suite", "smoke", "--scale", "0.2",
                "-o", str(tmp_path / "bench.json"),
                "--ledger-dir", str(ledger_dir)] + list(extra)
        assert main(argv) == 0

    def test_bench_then_diff_flags_injected_regression(self, tmp_path,
                                                       capsys):
        """The acceptance path: two runs, one with an injected config
        change, diffed into a report flagging the regressed metrics."""
        ledger_dir = tmp_path / "ledger"
        self._bench(ledger_dir, tmp_path)
        self._bench(ledger_dir, tmp_path,
                    extra=["--set", "dl1_latency=4"])
        capsys.readouterr()

        assert main(["ledger", "list",
                     "--ledger-dir", str(ledger_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out and "bench" in out

        html = tmp_path / "diff.html"
        assert main(["ledger", "diff", "-2", "-1",
                     "--ledger-dir", str(ledger_dir),
                     "--html", str(html)]) == 0
        out = capsys.readouterr().out
        assert "configs DIFFER" in out
        assert "REGRESSION" in out          # dl1 metrics moved > 1pp
        assert html.exists()
        assert "regression" in html.read_text()

    def test_identical_cli_runs_record_identical_stable_views(
            self, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        get_workload("gzip", scale=0.2, seed=0)  # warm the trace cache
        for _ in range(2):
            assert main(["breakdown", "gzip", "--scale", "0.2",
                         "--focus", "dl1", "--no-cache",
                         "--ledger-dir", str(ledger_dir)]) == 0
        capsys.readouterr()
        runs = RunLedger(str(ledger_dir)).runs()
        assert len(runs) == 2
        views = [json.dumps(stable_view(m), sort_keys=True) for m in runs]
        assert views[0] == views[1]
        diff = diff_manifests(runs[0], runs[1])
        assert diff.same_config
        assert diff.regressions == []

    def test_no_ledger_flag_suppresses_recording(self, tmp_path,
                                                 capsys, monkeypatch):
        monkeypatch.setenv(LEDGER_DIR_ENV, str(tmp_path / "ledger"))
        assert main(["breakdown", "gzip", "--scale", "0.2",
                     "--no-ledger"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "ledger").exists()

    def test_ledger_subcommand_never_records_itself(self, tmp_path,
                                                    capsys):
        ledger_dir = tmp_path / "ledger"
        self._bench(ledger_dir, tmp_path)
        capsys.readouterr()
        assert main(["ledger", "list",
                     "--ledger-dir", str(ledger_dir)]) == 0
        assert len(RunLedger(str(ledger_dir)).runs()) == 1

    def test_report_writes_html_and_fails_on_malformed(self, tmp_path,
                                                       capsys):
        ledger_dir = tmp_path / "ledger"
        self._bench(ledger_dir, tmp_path)
        self._bench(ledger_dir, tmp_path)
        capsys.readouterr()
        html = tmp_path / "report.html"
        assert main(["ledger", "report", "--ledger-dir", str(ledger_dir),
                     "--html", str(html)]) == 0
        assert html.exists()
        # a malformed manifest line must fail the report (the CI gate)
        with open(RunLedger(str(ledger_dir)).path, "a",
                  encoding="utf-8") as fh:
            fh.write(json.dumps({"schema": 1}) + "\n")
        with pytest.raises(SystemExit, match="malformed"):
            main(["ledger", "report", "--ledger-dir", str(ledger_dir),
                  "--html", str(html)])

    def test_old_layout_manifests_list_diff_and_render(self, tmp_path,
                                                       capsys):
        """Manifests recorded before ``--approx N`` (a ``windows`` count
        beside a boolean ``approx``) still list, diff and render next to
        a current one."""
        ledger = RunLedger(str(tmp_path / "ledger"))
        old_run = {"engine": "batched", "jobs": 2, "windows": 4,
                   "approx": True}
        for run_id in ("aaaa00000001", "bbbb00000002"):
            manifest = _toy_manifest(run_id=run_id,
                                     metrics={"breakdown.dl1_pp": 20.0})
            manifest["run"].update(old_run)
            manifest["run"]["config"].update(windows=4, approx=True)
            ledger.append(manifest)
        exact = _toy_manifest(run_id="cccc00000003", digest="f" * 64,
                              metrics={"breakdown.dl1_pp": 20.0})
        exact["run"].update(engine="batched", jobs=1, approx=0)
        ledger.append(exact)
        ledger_dir = str(tmp_path / "ledger")
        capsys.readouterr()
        assert main(["ledger", "list", "--ledger-dir", ledger_dir]) == 0
        listed = capsys.readouterr().out
        assert "aaaa00000001" in listed and "cccc00000003" in listed
        assert main(["ledger", "diff", "aaaa", "bbbb",
                     "--ledger-dir", ledger_dir]) == 0
        assert "configs are identical" in capsys.readouterr().out
        assert main(["ledger", "diff", "bbbb", "cccc",
                     "--ledger-dir", ledger_dir]) == 0
        assert "configs DIFFER" in capsys.readouterr().out
        html = tmp_path / "report.html"
        assert main(["ledger", "report", "--ledger-dir", ledger_dir,
                     "--html", str(html)]) == 0
        page = html.read_text()
        assert "engine / jobs / approx" in page
        assert "batched / 2 / 4" in page     # old layout: 4 windows
        assert "batched / 1 / 0" in page     # current layout: exact

    def test_disabled_ledger_list_renders_guidance(self, capsys):
        assert main(["ledger", "list"]) == 0
        assert "disabled" in capsys.readouterr().out

    def test_bench_summary_file_has_cases_and_metrics(self, tmp_path,
                                                      capsys):
        self._bench(tmp_path / "ledger", tmp_path)
        capsys.readouterr()
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert payload["suite"] == "smoke"
        names = [case["name"] for case in payload["cases"]]
        assert names == ["table4a", "figure1"]
        assert all(case["metrics"] for case in payload["cases"])
