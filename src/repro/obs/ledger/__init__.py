"""Cross-run observability: the append-only run ledger.

:mod:`repro.obs` answers "where did *this* run spend its time"; the
ledger answers the longitudinal question -- did accuracy, throughput
or cache efficiency regress *between* runs?  Three pieces:

- :mod:`repro.obs.ledger.manifest` builds one run **manifest** (config
  digest, trace fingerprint, per-phase wall-clock, counters, result
  metrics + digest, host info), split into deterministic and volatile
  sections;
- :mod:`repro.obs.ledger.store` appends manifests atomically to a
  JSONL ledger (``$REPRO_LEDGER_DIR``) and resolves run references;
- :mod:`repro.obs.ledger.report` diffs two manifests under
  configurable thresholds and renders terminal / HTML reports.

See ``docs/OBSERVABILITY.md`` ("Run ledger & benchmarking").
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    **{name: "repro.obs.ledger.manifest" for name in (
        "MANIFEST_SCHEMA", "VOLATILE_SECTIONS", "build_manifest",
        "host_info", "phase_timings", "result_metrics", "stable_view")},
    **{name: "repro.obs.ledger.report" for name in (
        "Finding", "LedgerDiff", "Thresholds", "diff_manifests",
        "render_dashboard_html", "render_diff_table", "render_html_report")},
    **{name: "repro.obs.ledger.store" for name in (
        "INDEX_FILENAME", "LEDGER_DIR_ENV", "LEDGER_FILENAME", "LedgerError",
        "RunLedger", "open_ledger", "run_summary", "validate_manifest")},
})
