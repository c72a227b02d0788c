"""Experiment drivers: cost providers, sensitivity studies, validation.

This package connects the substrate (simulator), the graph model and
the icost algebra into the experiments of the paper's evaluation --
one driver per table and figure, used by both the benchmark harness
and the examples.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    **{name: "repro.analysis.graphsim" for name in (
        "GraphCostProvider", "analyze_trace")},
    "MultiSimCostProvider": "repro.analysis.multisim",
    **{name: "repro.analysis.sampled" for name in (
        "SampledGraphProvider", "analyze_trace_sampled")},
    **{name: "repro.analysis.characterize" for name in (
        "Characterization", "characterize_suite", "characterize_trace",
        "render_suite_table")},
    **{name: "repro.analysis.doe" for name in (
        "Factor", "full_factorial", "plackett_burman_fraction")},
    **{name: "repro.analysis.compare" for name in (
        "BreakdownDelta", "compare_configs", "diff_breakdowns")},
    **{name: "repro.analysis.adaptive" for name in (
        "AdaptiveController", "AdaptiveResult", "run_adaptive")},
    **{name: "repro.analysis.phases" for name in (
        "SegmentProfile", "detect_phase_changes", "segment_profiles")},
    **{name: "repro.analysis.prefetch" for name in (
        "best_subset_selection", "evaluate_plan", "greedy_joint_selection",
        "miss_selections_by_pc", "rank_by_individual_cost")},
    **{name: "repro.analysis.matrix" for name in (
        "InteractionMatrix", "interaction_matrix")},
    **{name: "repro.analysis.sensitivity" for name in (
        "window_speedup_curves", "wakeup_window_speedups")},
    **{name: "repro.analysis.validation" for name in (
        "breakdown_error", "category_errors",
        "paper_error_profiler_vs_graph", "paper_error_profiler_vs_multisim")},
    **{name: "repro.analysis.experiments" for name in (
        "table4a", "table4b", "table4c", "table7", "figure1", "figure3")},
})
