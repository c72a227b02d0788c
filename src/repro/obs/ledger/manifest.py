"""Building one run manifest: everything a run was, in one document.

A manifest is the ledger's unit of record, split into sections by
volatility so regression tooling (and the determinism test) can reason
about them uniformly:

``schema``, ``run``, ``counters``, ``metrics``, ``result``
    **Deterministic**: identical code + identical :class:`RunConfig` +
    identical cache state produce byte-identical sections.  ``run``
    carries the config payload, its content digest, the trace
    fingerprint and the engine/pipeline knobs; ``metrics`` carries the
    flat numeric headline values regression detection compares (e.g.
    breakdown percentages in pp); ``result`` digests the typed result.

``meta``, ``phases``, ``perf``, ``selfprofile``
    **Volatile**: run id, timestamp, host description, per-phase
    wall-clock (simulate/build/analyze, derived from the spans the
    pipeline already publishes), timing-derived result metrics
    (speedups, wall-clock per bench case) and -- when the run asked
    for one -- the icost self-profile of the tool's own schedule.

:func:`stable_view` strips the volatile sections -- the "bit-identical
modulo timestamps/host" contract ``tests/test_ledger.py`` pins.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import socket
import time
from typing import Any, Dict, Optional

from repro.obs.core import Collector

__all__ = [
    "MANIFEST_SCHEMA",
    "VOLATILE_SECTIONS",
    "build_manifest",
    "host_info",
    "phase_timings",
    "result_metrics",
    "stable_view",
]

#: Manifest schema version (bump on incompatible layout changes).
MANIFEST_SCHEMA = 1

#: Sections excluded from the determinism contract (and from
#: :func:`stable_view`).  ``selfprofile`` only appears on runs that
#: asked for one (``repro selfprofile``, ``repro bench --self-icost``).
VOLATILE_SECTIONS = ("meta", "phases", "perf", "selfprofile")

#: Monolithic-path span names folded into each manifest phase; the
#: pipeline's own stage spans come from
#: :data:`repro.pipeline.runner.STAGE_PHASES` so the mapping cannot
#: drift from the stage names the runner actually emits.
_PHASE_SPANS = {
    "workload.trace": "simulate",
    "sim.run": "simulate",
    "session.sweep": "simulate",
    "sensitivity.sweep": "simulate",
    "graph.build": "build",
    "engine.cp_batch": "analyze",
    "breakdown.interaction": "analyze",
    "breakdown.powerset": "analyze",
    "breakdown.traditional": "analyze",
    "profiler.collect": "analyze",
    "profiler.reconstruct": "analyze",
    "profiler.analyze": "analyze",
}

#: Process-wide uniqueness for run ids minted in the same microsecond.
_SEQUENCE = itertools.count()


def _phase_map() -> Dict[str, str]:
    from repro.pipeline.runner import STAGE_PHASES

    mapping = dict(_PHASE_SPANS)
    mapping.update(STAGE_PHASES)
    return mapping


def host_info() -> Dict[str, Any]:
    """A short description of where a run happened (volatile)."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "pid": os.getpid(),
    }


def phase_timings(collector: Optional[Collector]) -> Dict[str, float]:
    """Wall-clock milliseconds per phase, from the recorded spans.

    Spans are bucketed into ``simulate`` / ``build`` / ``analyze`` via
    the stage names the pipeline and the monolithic path already
    publish; anything unrecognised lands in ``other``.  Only top-level
    attribution is attempted: nested spans of the same phase double
    into their bucket, so the numbers are a per-phase activity profile,
    not a partition of the run's wall-clock.
    """
    phases = {"simulate": 0.0, "build": 0.0, "analyze": 0.0, "other": 0.0}
    if collector is None:
        return phases
    mapping = _phase_map()
    skip_prefixes = ("pipeline.run",)  # umbrella span: covered by stages
    for name, _ts, dur, *_rest in collector.spans:
        if name.startswith(skip_prefixes):
            continue
        phases[mapping.get(name, "other")] += dur / 1000.0
    return {phase: round(ms, 3) for phase, ms in phases.items()}


def result_metrics(result: Any) -> Dict[str, float]:
    """Flat deterministic numeric metrics of *result*.

    Results can publish their own (``stable_metrics()``, the bench
    results do); otherwise any embedded breakdown contributes its rows
    as ``breakdown.<label>_pp``.  These are the values
    ``repro ledger diff`` compares in percentage points.
    """
    stable = getattr(result, "stable_metrics", None)
    if callable(stable):
        return {name: float(value) for name, value in stable().items()}
    breakdown = getattr(result, "breakdown", None)
    metrics: Dict[str, float] = {}
    for entry in getattr(breakdown, "entries", ()) or ():
        if entry.kind in ("base", "interaction"):
            metrics[f"breakdown.{entry.label}_pp"] = round(entry.percent, 4)
    delta = getattr(result, "delta", None)
    if delta is not None:  # compare's (before, after) cycle rows
        for label, (before, after) in getattr(delta, "rows", {}).items():
            metrics[f"compare.{label}.delta_cycles"] = round(
                float(after) - float(before), 4)
    return metrics


def _perf_metrics(result: Any) -> Dict[str, float]:
    """Timing-derived result metrics (volatile; bench speedups)."""
    perf = getattr(result, "perf_metrics", None)
    if callable(perf):
        return {name: float(value) for name, value in perf().items()}
    return {}


def _result_digest(result: Any) -> str:
    """sha256 of the result's *stable* JSON rendering."""
    stable = getattr(result, "stable_json", None)
    text = stable() if callable(stable) else result.to_json()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _counters(collector: Optional[Collector]) -> Dict[str, float]:
    if collector is None:
        return {}
    return {name: (int(v) if float(v).is_integer() else v)
            for name, v in sorted(collector.counters.items())}


def _config_digest(payload: Dict[str, Any]) -> str:
    blob = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def build_manifest(command: str, session, result: Any,
                   collector: Optional[Collector] = None,
                   wall_s: float = 0.0,
                   extra_run: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """The manifest of one completed analysis run.

    *session* supplies the :class:`~repro.session.RunConfig` and (when
    it was resolved during the run) the trace whose fingerprint anchors
    the manifest; the trace is never resolved just to fingerprint it,
    and a suite trace's fingerprint is its identity, so recording a run
    never reads a trace either.  ``perf.trace_source`` says where the
    run's suite trace came from (see
    :attr:`repro.session.AnalysisSession.trace_source`).
    """
    from repro import __version__
    from repro.graph.engine import DEFAULT_ENGINE
    from repro.pipeline.artifacts import trace_fingerprint

    run_cfg = json.loads(session.run.to_json())
    fingerprint = None
    if getattr(session, "_trace", None) is not None:
        fingerprint = trace_fingerprint(session._trace)
    run_section: Dict[str, Any] = {
        "command": command,
        "version": __version__,
        "config": run_cfg,
        "config_digest": _config_digest(run_cfg),
        "trace_fingerprint": fingerprint,
        # the cost engine the run resolved to, not just the one named
        "engine": run_cfg.get("engine") or DEFAULT_ENGINE,
        "jobs": run_cfg.get("jobs"),
        # windows of the --approx mode (0 = exact)
        "approx": run_cfg.get("approx"),
    }
    if extra_run:
        run_section.update(extra_run)
    timestamp = time.time()
    run_id = hashlib.sha256(
        f"{run_section['config_digest']}:{command}:{timestamp!r}:"
        f"{os.getpid()}:{next(_SEQUENCE)}".encode()).hexdigest()[:12]
    selfprofile = getattr(result, "selfprofile_payload", None)
    selfprofile = selfprofile() if callable(selfprofile) else None
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "meta": {
            "run_id": run_id,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S",
                                       time.localtime(timestamp)),
            "unix_time": round(timestamp, 3),
            "host": host_info(),
        },
        "run": run_section,
        "phases": phase_timings(collector),
        "counters": _counters(collector),
        "metrics": result_metrics(result),
        "perf": {
            "wall_ms": round(wall_s * 1000.0, 3),
            **_perf_metrics(result),
        },
        "result": {
            "type": type(result).__name__,
            "digest": _result_digest(result),
        },
    }
    trace_source = getattr(session, "trace_source", None)
    if trace_source is not None:
        manifest["perf"]["trace_source"] = trace_source
    if selfprofile:
        manifest["selfprofile"] = selfprofile
    return manifest


def stable_view(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """*manifest* without its volatile sections.

    Two runs of identical code and configuration must agree on this
    view byte for byte -- the ledger's reproducibility contract.
    """
    return {key: value for key, value in manifest.items()
            if key not in VOLATILE_SECTIONS}
