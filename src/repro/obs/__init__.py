"""repro.obs: structured tracing and metrics for the analysis pipeline.

The paper's thesis is that you cannot tune what you cannot measure;
this package applies it to the reproduction's own machinery.  Every
hot layer (workload generation, simulation, graph building, the cost
engines, the icost cache, breakdowns, the shotgun profiler) calls into
this module, and by default **every call is a no-op** -- a module-level
``None`` check -- whose aggregate cost is bounded by the overhead
budget test (:mod:`repro.obs.overhead`).

Enable collection to get:

- **spans** (``with obs.span("graph.build", insns=n):``) exported as
  Chrome trace-event JSON that https://ui.perfetto.dev loads directly;
- **counters / gauges / histograms / notes**
  (``obs.count("engine.batched.sweep.full")``,
  ``obs.gauge("pipeline.jobs", 2)``,
  ``obs.observe("engine.batch_size", len(keys))``,
  ``obs.note("engine.native_kernel.status", reason)``);
- a human-readable summary via
  :func:`repro.obs.metrics.render_metrics_table`.

Typical library use::

    from repro import obs

    collector = obs.enable()
    try:
        ...                       # any analysis
    finally:
        obs.disable()
    obs.write_trace(collector, "trace.json")
    print(obs.render_metrics_table(collector))

The CLI wires this up behind global ``--trace FILE``, ``--metrics``
and ``-v/--log-level`` flags; see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import logging
from typing import Any, Optional, Union

from repro.obs.core import NOOP_SPAN, Collector, Span
from repro.obs.expo import encode_labels, render_prometheus
from repro.obs.metrics import render_metrics_table
from repro.obs import tracefile

__all__ = [
    "Collector",
    "Span",
    "enable",
    "disable",
    "enabled",
    "collector",
    "span",
    "count",
    "gauge",
    "observe",
    "note",
    "write_trace",
    "encode_labels",
    "render_prometheus",
    "render_metrics_table",
    "get_logger",
    "setup_logging",
]

#: The active collector, or None while observation is off.  Module
#: state (not a class) so the disabled fast path is one global load.
_active: Optional[Collector] = None


def enable(new: Optional[Collector] = None) -> Collector:
    """Start collecting (into *new* or a fresh collector) and return it."""
    global _active
    _active = new if new is not None else Collector()
    return _active


def disable() -> Optional[Collector]:
    """Stop collecting; returns the collector that was active, if any."""
    global _active
    previous, _active = _active, None
    return previous


def enabled() -> bool:
    """Whether a collector is currently active."""
    return _active is not None


def collector() -> Optional[Collector]:
    """The active collector, or None."""
    return _active


# ---- recording fast paths -------------------------------------------
# Each function body is the documented no-op contract: one load of the
# module global, one None test, return.  Keep them free of any other
# work -- the overhead budget test bills exactly this path.


def span(name: str, **args: Any):
    """A context manager timing the enclosed region (no-op when off)."""
    c = _active
    if c is None:
        return NOOP_SPAN
    return c.span(name, args)


def count(name: str, n: float = 1) -> None:
    """Increment counter *name* (no-op when off)."""
    c = _active
    if c is not None:
        c.count(name, n)


def gauge(name: str, value: float) -> None:
    """Set gauge *name* (no-op when off)."""
    c = _active
    if c is not None:
        c.gauge(name, value)


def observe(name: str, value: float) -> None:
    """Fold *value* into histogram *name* (no-op when off)."""
    c = _active
    if c is not None:
        c.observe(name, value)


def note(name: str, text: str) -> None:
    """Record a short named string (no-op when off)."""
    c = _active
    if c is not None:
        c.note(name, text)


# ---- export ----------------------------------------------------------


def write_trace(source: Union[Collector, None], dest) -> None:
    """Write *source* (default: the active collector) as trace JSON."""
    c = source if source is not None else _active
    if c is None:
        raise RuntimeError("no collector to export (obs was never enabled)")
    tracefile.write(c, dest)


# ---- logging ---------------------------------------------------------

_LOG_ROOT = "repro"


def get_logger(name: str = "") -> logging.Logger:
    """The pipeline logger (``repro`` or a dotted child of it)."""
    return logging.getLogger(f"{_LOG_ROOT}.{name}" if name else _LOG_ROOT)


def setup_logging(level: Union[int, str] = logging.WARNING) -> logging.Logger:
    """Point the ``repro`` logger at stderr with *level*; idempotent."""
    if isinstance(level, str):
        level = getattr(logging, level.upper())
    logger = logging.getLogger(_LOG_ROOT)
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)
    return logger
