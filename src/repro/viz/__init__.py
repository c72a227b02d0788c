"""SVG visualizations of analyses -- no plotting dependencies.

The paper communicates through three visual forms: the stacked-bar
breakdown of Figure 1b (positive categories above 100%, serial
interactions below the axis), the sensitivity curves of Figure 3, and
the microexecution structure of Figure 2.  This package renders all
three (plus an interaction-matrix heat map) as standalone SVG
documents, generated by a small built-in SVG writer so the library
stays dependency-light; :mod:`repro.viz.page` is the one HTML emitter.
The re-exports resolve lazily, so a submodule import loads no numpy.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "SvgDocument": "repro.viz.svg",
    **{name: "repro.viz.charts" for name in (
        "stacked_bar_svg", "sensitivity_curves_svg", "matrix_heatmap_svg")},
    "pipeline_timeline_svg": "repro.viz.timeline",
    **{name: "repro.viz.report" for name in ("html_report", "save_report")},
})
