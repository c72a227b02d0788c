"""Import hygiene: an operation loads only the code it runs.

Package re-exports resolve lazily and the CLI configures only the
subcommand it runs, so a ``breakdown`` never imports the serve daemon,
the bench suites or the self-profiler, building the parser imports no
implementation (not even numpy), and a fully cached breakdown never
loads the trace generator.  Each check runs in a fresh interpreter,
since this test process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: never needed by a breakdown
FOREIGN = ("repro.serve", "repro.bench", "repro.obs.selfprof",
           "http.server")


def _modules_after(code: str):
    """The ``sys.modules`` names a fresh interpreter holds after *code*."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PYTHON"))}
    env["PYTHONPATH"] = SRC
    script = (code + "\nimport json, sys\n"
              "sys.stdout.write('\\n' + json.dumps(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _breakdown(*extra):
    argv = ["breakdown", "gzip", "--scale", "0.5", "--focus", "dl1",
            "--json", *extra]
    return f"from repro import cli\ncli.main({argv!r})"


def test_breakdown_imports_no_serve_bench_or_selfprofile_code():
    loaded = _modules_after(_breakdown())
    assert "repro.session.analyses" in loaded  # the run did happen
    assert not [m for m in FOREIGN if m in loaded]


def test_warm_breakdown_loads_no_trace_generator(tmp_path):
    cache = str(tmp_path / "cache")
    _modules_after(_breakdown("--cache-dir", cache))  # fill the cache
    loaded = _modules_after(_breakdown("--cache-dir", cache))
    assert "repro.pipeline.artifacts" in loaded
    assert not [m for m in FOREIGN if m in loaded]
    assert "repro.isa.executor" not in loaded
    assert "repro.workloads.spec" not in loaded
    # nothing simulates, so no simulator core is loaded either
    assert "repro.uarch.fastcore" not in loaded
    assert "repro.uarch.core" not in loaded


def test_building_the_parser_imports_no_implementation():
    loaded = _modules_after("from repro.cli import build_parser\n"
                            "build_parser()")
    assert "numpy" not in loaded
    assert "repro.session.session" not in loaded
    assert "repro.session.analyses" not in loaded


def test_lazy_package_exports_resolve():
    loaded = _modules_after("import repro, repro.session")
    assert "numpy" not in loaded
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    assert set(repro.__all__) <= set(dir(repro))


#: the simulator, graph and analysis layers, which an HTML page of
#: ledger manifests never needs
ANALYSIS_LAYERS = ("repro.analysis", "repro.graph", "repro.uarch")


def test_serve_daemon_loads_no_numpy():
    loaded = _modules_after("import repro.serve.server")
    assert "repro.obs.ledger.report" in loaded  # the dashboard renderer
    assert "numpy" not in loaded


def test_dashboard_render_loads_no_numpy():
    loaded = _modules_after(
        "from repro.obs.ledger import render_dashboard_html\n"
        "render_dashboard_html({'url': 'http://x', 'stats': {},"
        " 'telemetry': {}, 'runs': [], 'baseline': None})")
    assert "numpy" not in loaded


def test_ledger_report_render_loads_no_analysis_code():
    manifest = ("{'meta': {'run_id': %r, 'timestamp': 't',"
                " 'host': {'hostname': 'h'}},"
                " 'run': {'command': 'breakdown', 'config_digest': 'd' * 64,"
                " 'config': {'workload': 'gzip'}},"
                " 'phases': {'simulate': 1.0}, 'counters': {},"
                " 'metrics': {'breakdown.dl1_pp': %r}, 'perf': {}}")
    loaded = _modules_after(
        "from repro.obs.ledger import diff_manifests, render_html_report\n"
        f"a = {manifest % ('aaaa', 20.0)}\n"
        f"b = {manifest % ('bbbb', 30.0)}\n"
        "render_html_report([a, b], diff_manifests(a, b))")
    assert "repro.obs.ledger.report" in loaded
    assert "numpy" not in loaded
    assert not [m for m in loaded if m.startswith(ANALYSIS_LAYERS)]
