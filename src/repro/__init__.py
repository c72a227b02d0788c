"""repro: interaction-cost microarchitectural bottleneck analysis.

A from-scratch reproduction of Fields, Bodik, Hill & Newburn, "Using
Interaction Costs for Microarchitectural Bottleneck Analysis"
(MICRO-36, 2003): an out-of-order processor simulator, the
dependence-graph microexecution model, the cost/interaction-cost
algebra, parallelism-aware breakdowns, and the shotgun hardware
profiler -- plus the benchmark harness regenerating every table and
figure of the paper's evaluation.

Quickstart::

    from repro import quick_breakdown
    from repro.workloads import get_workload

    trace = get_workload("gzip")
    breakdown = quick_breakdown(trace, focus="dl1")
    print(breakdown.as_dict())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# the re-exports load on first use, so ``import repro`` (and every
# ``repro.*`` import, which runs this file first) stays numpy-free
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    **{name: "repro.core" for name in (
        "BASE_CATEGORIES", "Category", "EventSelection", "Interaction",
        "classify_interaction", "icost", "icost_pair",
        "interaction_breakdown", "traditional_breakdown",
        "render_breakdown_table", "render_stacked_bar")},
    **{name: "repro.uarch" for name in (
        "IdealConfig", "MachineConfig", "simulate")},
})
__all__ += ["quick_breakdown", "__version__"]


def quick_breakdown(trace, focus=None, config=None):
    """Simulate *trace*, build its graph, and return a Table 4 breakdown.

    *focus* may be a :class:`Category` or its string value (e.g.
    ``"dl1"``); when given, pairwise interaction rows with every other
    base category are included.  Runs through an ephemeral
    :class:`repro.session.AnalysisSession`, so a configured artifact
    cache (``$REPRO_CACHE_DIR``) applies here too.
    """
    from repro.core import Category, interaction_breakdown
    from repro.session import AnalysisSession

    if isinstance(focus, str):
        focus = Category(focus)
    session = AnalysisSession.for_trace(trace, config=config)
    provider = session.graph_provider()
    return interaction_breakdown(provider.analyzer, focus=focus,
                                 workload=trace.name)
