"""Human-readable metrics summary (the ``--metrics`` table).

Renders everything a :class:`~repro.obs.core.Collector` accumulated --
counters, gauges, histograms, notes, per-span time totals -- plus a
short derived header answering the questions the instrumentation was
built for: what fraction of cost queries hit the cache, how many
measurements ran as full sweeps vs incremental worklist relaxations,
and whether the native C kernel is actually in use.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.core import Collector

__all__ = ["render_metrics_table", "derived_summary"]


def _fmt(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3f}"
    return f"{int(value)}"


def derived_summary(collector: Collector) -> List[str]:
    """The derived headline lines (cache hit rate, sweep mix, kernel)."""
    lines: List[str] = []
    hits = collector.counter("icost.cache.hit")
    misses = collector.counter("icost.cache.miss")
    if hits or misses:
        rate = hits / (hits + misses)
        lines.append(f"cost-query cache hit rate : {rate:.1%} "
                     f"({_fmt(hits)} hit / {_fmt(misses)} miss)")
    full = (collector.counter("engine.batched.sweep.full")
            + collector.counter("engine.naive.sweep"))
    worklist = collector.counter("engine.batched.worklist")
    reused = collector.counter("engine.batched.reuse")
    if full or worklist or reused:
        lines.append(f"cp measurements           : {_fmt(full)} full sweep, "
                     f"{_fmt(worklist)} worklist, {_fmt(reused)} reused")
    bails = collector.counter("engine.batched.worklist.bail")
    if bails:
        lines.append(f"worklist cascade bails    : {_fmt(bails)}")
    status = collector.notes.get("engine.native_kernel.status")
    if status is not None:
        lines.append(f"native C kernel           : {status}")
    lines.extend(_pipeline_summary(collector))
    return lines


def _pipeline_summary(collector: Collector) -> List[str]:
    """Derived pipeline lines: cache warmth, hit rate, window timing."""
    lines: List[str] = []
    state = collector.notes.get("pipeline.cache.state")
    art_hits = art_misses = 0.0
    for kind in ("sim", "graph", "meta", "cycles"):
        art_hits += collector.counter(f"pipeline.cache.{kind}.hit")
        art_misses += collector.counter(f"pipeline.cache.{kind}.miss")
    if state is None and (art_hits or art_misses):
        # paths that use the cache without the full pipeline (e.g.
        # sensitivity sweeps) derive warmth from the counters
        state = "warm" if not art_misses else \
            ("cold" if not art_hits else "mixed")
    if state is not None or art_hits or art_misses:
        rate = art_hits / (art_hits + art_misses) \
            if (art_hits or art_misses) else 0.0
        lines.append(f"artifact cache            : {state or 'off'} "
                     f"({rate:.0%} hit rate, {_fmt(art_hits)} hit / "
                     f"{_fmt(art_misses)} miss)")
    built = collector.counter("pipeline.window.built")
    hist = collector.histograms.get("pipeline.window_ms")
    if built and hist:
        count, total, lo, hi = hist
        mean = total / count if count else 0.0
        windows = collector.gauges.get("pipeline.windows", built)
        jobs = collector.gauges.get("pipeline.jobs", 1)
        lines.append(f"pipeline windows          : {_fmt(built)} window(s) "
                     f"built ({_fmt(windows)} configured, "
                     f"{_fmt(jobs)} job(s)), "
                     f"{mean:.1f} ms/window (min {lo:.1f}, max {hi:.1f})")
    util = collector.gauges.get("pipeline.shard_utilization")
    if util is not None:
        lines.append(f"window pool utilization   : {util:.0%}")
    fallback = collector.counter("pipeline.fallback_local")
    if fallback:
        lines.append(f"pipeline pool fallbacks   : {_fmt(fallback)} "
                     f"(ran serially in-process)")
    evictions = collector.counter("cache.evictions")
    quarantined = collector.counter("cache.quarantined")
    if evictions or quarantined:
        cache_bytes = collector.gauges.get("cache.bytes")
        size = (f", {cache_bytes / 1e6:.1f} MB resident"
                if cache_bytes is not None else "")
        lines.append(f"artifact cache pressure   : {_fmt(evictions)} "
                     f"evicted, {_fmt(quarantined)} quarantined{size}")
    served = collector.counter("serve.job.done")
    failed = collector.counter("serve.job.failed")
    rejected = collector.counter("serve.request.rejected")
    if served or failed or rejected:
        coalesced = collector.counter("serve.job.coalesced")
        lines.append(f"serve jobs                : {_fmt(served)} done, "
                     f"{_fmt(failed)} failed, {_fmt(rejected)} "
                     f"rejected (429), {_fmt(coalesced)} coalesced")
    lines.extend(_serve_latency_summary(collector))
    index_scanned = collector.counter("ledger.index.scan_bytes")
    index_reads = collector.counter("ledger.page.lines_read")
    if index_scanned or index_reads:
        lines.append(f"ledger index              : {_fmt(index_scanned)} "
                     f"byte(s) scanned, {_fmt(index_reads)} "
                     f"line(s) paged in")
    return lines


def _serve_latency_summary(collector: Collector) -> List[str]:
    """Aggregate the labeled per-route request histograms into one line."""
    from repro.obs.expo import parse_labeled

    count = total = 0.0
    worst = None
    for name, h in collector.histograms.items():
        base, _labels = parse_labeled(name)
        if base != "serve.request_ms":
            continue
        count += h[0]
        total += h[1]
        worst = h[3] if worst is None else max(worst, h[3])
    if not count:
        return []
    return [f"serve request latency     : {_fmt(count)} request(s), "
            f"{total / count:.1f} ms mean, {worst:.1f} ms max"]


def _span_totals(collector: Collector):
    totals = {}
    for name, _ts, dur, *_rest in collector.spans:
        count, time_us = totals.get(name, (0, 0.0))
        totals[name] = (count + 1, time_us + dur)
    return totals


def render_metrics_table(collector: Collector,
                         title: Optional[str] = "pipeline metrics") -> str:
    """The full ``--metrics`` table as a string."""
    out: List[str] = []
    if title:
        out.append(f"== {title} ==")
    out.extend(derived_summary(collector))

    totals = _span_totals(collector)
    if totals:
        out.append("")
        out.append(f"{'span':<32}{'count':>7}{'total ms':>10}")
        for name, (count, time_us) in sorted(
                totals.items(), key=lambda kv: -kv[1][1]):
            out.append(f"{name:<32}{count:>7}{time_us / 1000.0:>10.2f}")

    if collector.counters:
        out.append("")
        out.append(f"{'counter':<40}{'value':>10}")
        for name in sorted(collector.counters):
            out.append(f"{name:<40}{_fmt(collector.counters[name]):>10}")

    if collector.gauges:
        out.append("")
        out.append(f"{'gauge':<40}{'value':>10}")
        for name in sorted(collector.gauges):
            out.append(f"{name:<40}{_fmt(collector.gauges[name]):>10}")

    if collector.histograms:
        out.append("")
        out.append(f"{'histogram':<32}{'count':>7}{'mean':>9}"
                   f"{'min':>8}{'max':>8}")
        for name in sorted(collector.histograms):
            count, total, lo, hi = collector.histograms[name]
            mean = total / count if count else 0.0
            out.append(f"{name:<32}{_fmt(count):>7}{mean:>9.1f}"
                       f"{_fmt(lo):>8}{_fmt(hi):>8}")

    if collector.notes:
        out.append("")
        for name in sorted(collector.notes):
            if name == "engine.native_kernel.status":
                continue  # already in the derived header
            out.append(f"{name}: {collector.notes[name]}")
    return "\n".join(out)
