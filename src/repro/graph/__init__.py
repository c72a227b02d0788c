"""The dependence-graph model of a microexecution (Section 3 of the paper).

Five nodes per dynamic instruction (D, R, E, P, C) and twelve edge
kinds (Table 3) capture both architectural dependences and
microarchitectural resource constraints.  Costs and interaction costs
are computed by idealizing edges and re-measuring the critical path --
the efficient alternative to the 2^n idealized simulations.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    **{name: "repro.graph.model" for name in (
        "NodeKind", "EdgeKind", "DependenceGraph")},
    **{name: "repro.graph.builder" for name in (
        "GraphBuilder", "build_graph")},
    **{name: "repro.graph.critical_path" for name in (
        "longest_path", "critical_path_edges", "edge_kind_profile")},
    "GraphCostAnalyzer": "repro.graph.cost",
    **{name: "repro.graph.engine" for name in (
        "ENGINE_NAMES", "BatchedEngine", "NaiveEngine", "make_engine")},
    **{name: "repro.graph.slack" for name in (
        "edge_slacks", "instruction_cost", "instruction_icost",
        "instruction_slack", "top_critical_instructions")},
})
