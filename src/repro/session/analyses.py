"""The registered analyses: one Analysis subclass per subcommand.

Each class declares its CLI arguments, runs against an
:class:`repro.session.AnalysisSession`, and returns a typed ``*Result``
dataclass that round-trips through :mod:`repro.core.serialize`
(``to_json``/``from_json``).  ``render`` reproduces the historical CLI
output of each subcommand byte for byte, so the registry refactor is
invisible to shell users and scrapers.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.breakdown import Breakdown, BreakdownEntry
from repro.core.categories import BASE_CATEGORIES, Category, EventSelection
from repro.core.serialize import SerializableResult, register_serializable
from repro.session.config import machine_with_overrides
from repro.session.registry import Analysis, Arg, register
from repro.session.session import AnalysisSession

if TYPE_CHECKING:  # imported by the analyses that produce them
    from repro.analysis.characterize import Characterization
    from repro.analysis.compare import BreakdownDelta
    from repro.analysis.matrix import InteractionMatrix
    from repro.analysis.phases import SegmentProfile

# component types the results below embed (the analysis-specific ones,
# such as Characterization, register where they are defined, so this
# module need not import them)
register_serializable(Category)
register_serializable(EventSelection)
register_serializable(Breakdown)
register_serializable(BreakdownEntry)

_FOCUS_CHOICES = [c.value for c in BASE_CATEGORIES]


def _focus(args: argparse.Namespace) -> Optional[Category]:
    """The --focus flag as a Category (None when absent)."""
    value = getattr(args, "focus", None)
    return Category(value) if value else None


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

@register_serializable
@dataclass
class WorkloadsResult(SerializableResult):
    """The synthetic suite listing: (name, description) rows."""

    rows: Tuple[Tuple[str, str], ...]


@register
class WorkloadsAnalysis(Analysis):
    """``workloads``: list the synthetic suite with descriptions."""

    name = "workloads"
    workload_arg = False
    result_type = WorkloadsResult

    def run(self, session: AnalysisSession,
            args: argparse.Namespace) -> WorkloadsResult:
        """Collect every suite workload with its description."""
        from repro.workloads import WORKLOAD_NAMES, workload_description

        return WorkloadsResult(rows=tuple(
            (name, workload_description(name)) for name in WORKLOAD_NAMES))

    def render(self, result: WorkloadsResult,
               args: argparse.Namespace) -> str:
        """One aligned line per workload."""
        return "\n".join(f"{name:<8} {desc}" for name, desc in result.rows)


# ----------------------------------------------------------------------
# breakdown
# ----------------------------------------------------------------------

@register_serializable
@dataclass
class BreakdownResult(SerializableResult):
    """A Table 4-style (or power-set) breakdown of one workload."""

    workload: str
    breakdown: Breakdown


@register
class BreakdownAnalysis(Analysis):
    """``breakdown``: interaction-cost breakdown of one workload."""

    name = "breakdown"
    engine_arg = True
    pipeline_args = "approx"
    extra_args = (
        Arg("--focus", choices=_FOCUS_CHOICES,
            help="add pairwise interaction rows with this category"),
        Arg("--full", metavar="CATS",
            help="comma-separated categories for a full power-set "
                 "breakdown (max 6)"),
        Arg("--bars", action="store_true",
            help="also print the Figure 1b stacked bars"),
        Arg("--json", action="store_true",
            help="emit the breakdown as JSON"),
        Arg("--csv", action="store_true",
            help="emit the breakdown as CSV"),
    )
    result_type = BreakdownResult

    def run(self, session: AnalysisSession,
            args: argparse.Namespace) -> BreakdownResult:
        """Measure the breakdown on the session's cost provider."""
        from repro.core import full_interaction_breakdown, interaction_breakdown

        provider = session.provider()
        if args.full:
            cats = [Category(c.strip()) for c in args.full.split(",")]
            bd = full_interaction_breakdown(provider, cats,
                                            workload=args.workload,
                                            max_categories=6)
        else:
            bd = interaction_breakdown(provider, focus=_focus(args),
                                       workload=args.workload)
        return BreakdownResult(workload=args.workload, breakdown=bd)

    def render(self, result: BreakdownResult,
               args: argparse.Namespace) -> str:
        """Table (default), stacked bars, JSON or CSV per the flags."""
        from repro.core import (
            breakdown_to_json,
            breakdowns_to_csv,
            render_breakdown_table,
            render_stacked_bar,
        )

        if args.json:
            return breakdown_to_json(result.breakdown)
        if args.csv:
            return breakdowns_to_csv({result.workload: result.breakdown})
        out = render_breakdown_table(
            {result.workload: result.breakdown},
            f"{result.workload}: % of execution time")
        if args.bars:
            out += "\n\n" + render_stacked_bar(result.breakdown)
        return out


# ----------------------------------------------------------------------
# characterize
# ----------------------------------------------------------------------

@register_serializable
@dataclass
class CharacterizeResult(SerializableResult):
    """icost fingerprints of a set of workloads."""

    characterizations: Tuple[Characterization, ...]


@register
class CharacterizeAnalysis(Analysis):
    """``characterize``: icost fingerprint across the suite."""

    name = "characterize"
    workload_arg = False
    extra_args = (
        Arg("--workloads", metavar="NAMES",
            help="comma-separated subset (default: all twelve)"),
        Arg("--scale", type=float, default=1.0),
        Arg("--seed", type=int, default=0),
        Arg("--set", action="append", metavar="KEY=VALUE"),
    )
    result_type = CharacterizeResult

    def run(self, session: AnalysisSession,
            args: argparse.Namespace) -> CharacterizeResult:
        """Fingerprint every requested workload through the session."""
        from repro.analysis.characterize import characterize_suite
        from repro.workloads import WORKLOAD_NAMES

        names = (tuple(n.strip() for n in args.workloads.split(","))
                 if args.workloads else WORKLOAD_NAMES)
        chars = characterize_suite(names, config=session.machine,
                                   scale=args.scale, seed=args.seed,
                                   session=session)
        return CharacterizeResult(characterizations=tuple(chars))

    def render(self, result: CharacterizeResult,
               args: argparse.Namespace) -> str:
        """The suite table followed by one advice line per workload."""
        from repro.analysis.characterize import render_suite_table

        chars = list(result.characterizations)
        return (render_suite_table(chars) + "\n\n"
                + "\n".join(ch.advice() for ch in chars))


# ----------------------------------------------------------------------
# profile
# ----------------------------------------------------------------------

@register_serializable
@dataclass
class ProfileResult(SerializableResult):
    """Shotgun-profiler breakdown next to the full-graph reference."""

    workload: str
    #: row label -> {"fullgraph": percent, "profiler": percent}
    rows: Dict[str, Dict[str, float]]
    fragments: int
    abort_rate: float
    default_rate: float


@register
class ProfileAnalysis(Analysis):
    """``profile``: shotgun-profile a workload and compare to the graph."""

    name = "profile"
    engine_arg = True
    extra_args = (
        Arg("--focus", choices=_FOCUS_CHOICES),
        Arg("--fragments", type=int, default=12),
    )
    result_type = ProfileResult

    def run(self, session: AnalysisSession,
            args: argparse.Namespace) -> ProfileResult:
        """Profile through the session and line rows up with fullgraph."""
        from repro.core import interaction_breakdown

        focus = _focus(args)
        prof_provider = session.profile_provider(fragments=args.fragments,
                                                 seed=args.seed)
        prof = interaction_breakdown(prof_provider, focus=focus)
        full = interaction_breakdown(
            session.graph_provider(engine=args.engine), focus=focus)
        rows = {
            e.label: {"fullgraph": e.percent,
                      "profiler": prof.percent(e.label)}
            for e in full.entries if e.kind in ("base", "interaction")
        }
        stats = prof_provider.stats
        return ProfileResult(workload=args.workload, rows=rows,
                             fragments=prof_provider.fragment_count,
                             abort_rate=stats.abort_rate,
                             default_rate=stats.default_rate)

    def render(self, result: ProfileResult,
               args: argparse.Namespace) -> str:
        """The Table 7-style comparison plus the fragment statistics."""
        from repro.core.report import render_comparison

        return (render_comparison(
                    result.rows, ["fullgraph", "profiler"],
                    f"{result.workload}: graph vs shotgun profiler")
                + f"\n\nfragments={result.fragments} "
                  f"abort={result.abort_rate:.0%} "
                  f"defaults={result.default_rate:.1%}")


# ----------------------------------------------------------------------
# matrix
# ----------------------------------------------------------------------

@register_serializable
@dataclass
class MatrixResult(SerializableResult):
    """The full pairwise interaction-cost matrix of one workload."""

    workload: str
    matrix: InteractionMatrix


@register
class MatrixAnalysis(Analysis):
    """``matrix``: the full pairwise interaction-cost matrix."""

    name = "matrix"
    engine_arg = True
    pipeline_args = "approx"
    result_type = MatrixResult

    def run(self, session: AnalysisSession,
            args: argparse.Namespace) -> MatrixResult:
        """Measure every base cost and pairwise icost."""
        from repro.analysis.matrix import interaction_matrix

        matrix = interaction_matrix(session.provider(),
                                    workload=args.workload)
        return MatrixResult(workload=args.workload, matrix=matrix)

    def render(self, result: MatrixResult,
               args: argparse.Namespace) -> str:
        """The triangular matrix plus the strongest serial/parallel pairs."""
        matrix = result.matrix
        a, b, serial = matrix.strongest_serial()
        lines = [matrix.render(), "",
                 f"strongest serial  : {a.value}+{b.value} ({serial:+.1f}%)"]
        a, b, parallel = matrix.strongest_parallel()
        lines.append(
            f"strongest parallel: {a.value}+{b.value} ({parallel:+.1f}%)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

@register_serializable
@dataclass
class ReportResult(SerializableResult):
    """Where the self-contained HTML report was written."""

    workload: str
    output: str
    focus: str


@register
class ReportAnalysis(Analysis):
    """``report``: write a self-contained HTML analysis report."""

    name = "report"
    extra_args = (
        Arg("--focus", choices=_FOCUS_CHOICES),
        Arg("-o", "--output", default="report.html"),
    )
    result_type = ReportResult

    def run(self, session: AnalysisSession,
            args: argparse.Namespace) -> ReportResult:
        """Render and write the HTML report."""
        from repro.viz.report import save_report

        focus = _focus(args) or Category.DL1
        save_report(session.trace, args.output, config=session.machine,
                    focus=focus, session=session)
        return ReportResult(workload=args.workload, output=args.output,
                            focus=focus.value)

    def render(self, result: ReportResult,
               args: argparse.Namespace) -> str:
        """Confirm the output path."""
        return f"wrote {result.output}"


# ----------------------------------------------------------------------
# sensitivity
# ----------------------------------------------------------------------

@register_serializable
@dataclass
class SensitivityResult(SerializableResult):
    """The Figure 3 sweep: speedup curves per dl1 latency."""

    workload: str
    latencies: Tuple[int, ...]
    windows: Tuple[int, ...]
    #: dl1 latency -> ((window, speedup %), ...)
    curves: Dict[int, Tuple[Tuple[int, float], ...]]


@register
class SensitivityAnalysis(Analysis):
    """``sensitivity``: the Figure 3 window-size sweep."""

    name = "sensitivity"
    pipeline_args = "plain"
    extra_args = (
        Arg("--dl1", default="1,2,3,4",
            help="dl1 latencies, comma separated"),
        Arg("--windows", dest="window_sizes", default="64,80,96,112,128",
            help="window sizes, comma separated"),
    )
    result_type = SensitivityResult

    def run(self, session: AnalysisSession,
            args: argparse.Namespace) -> SensitivityResult:
        """Run the sweep grid through the session's cycle cache."""
        from repro.analysis.sensitivity import window_speedup_curves

        latencies = tuple(int(x) for x in args.dl1.split(","))
        windows = tuple(int(x) for x in args.window_sizes.split(","))
        curves = window_speedup_curves(session.trace, latencies, windows,
                                       config=session.machine,
                                       jobs=args.jobs, session=session)
        return SensitivityResult(
            workload=args.workload, latencies=latencies, windows=windows,
            curves={lat: tuple(curve) for lat, curve in curves.items()})

    def render(self, result: SensitivityResult,
               args: argparse.Namespace) -> str:
        """The speedup table: one row per window, one column per latency."""
        lines = [f"{result.workload}: window-size speedup (%) "
                 f"per dl1 latency",
                 f"{'window':>8}" + "".join(f"  lat={lat}"
                                            for lat in result.latencies)]
        for i, window in enumerate(result.windows):
            row = f"{window:>8}"
            for lat in result.latencies:
                row += f"{result.curves[lat][i][1]:7.1f}"
            lines.append(row)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------

@register_serializable
@dataclass
class PhasesResult(SerializableResult):
    """Per-segment cost vectors and the detected phase changes."""

    workload: str
    profiles: Tuple[SegmentProfile, ...]
    changes: Tuple[int, ...]


@register
class PhasesAnalysis(Analysis):
    """``phases``: per-segment cost vectors and phase-change detection."""

    name = "phases"
    extra_args = (
        Arg("--segment", type=int, default=500,
            help="instructions per segment (default 500)"),
        Arg("--threshold", type=float, default=40.0,
            help="L1 cost-vector jump marking a phase change"),
    )
    result_type = PhasesResult

    def run(self, session: AnalysisSession,
            args: argparse.Namespace) -> PhasesResult:
        """Profile every segment and detect cost-vector jumps."""
        from repro.analysis.phases import detect_phase_changes, segment_profiles

        profiles = segment_profiles(session.trace,
                                    segment_length=args.segment,
                                    config=session.machine,
                                    session=session)
        changes = detect_phase_changes(profiles, threshold=args.threshold)
        return PhasesResult(workload=args.workload,
                            profiles=tuple(profiles),
                            changes=tuple(changes))

    def render(self, result: PhasesResult,
               args: argparse.Namespace) -> str:
        """The segment table plus the phase-change verdict."""
        from repro.analysis.phases import render_phase_table

        out = render_phase_table(list(result.profiles))
        if result.changes:
            return out + ("\n\nphase changes at segments: "
                          f"{list(result.changes)}")
        return out + "\n\nno phase changes detected"


# ----------------------------------------------------------------------
# critical
# ----------------------------------------------------------------------

@register_serializable
@dataclass
class CriticalInstruction(SerializableResult):
    """One costly dynamic instruction of a critical ranking."""

    seq: int
    pc: int
    cost: float
    instruction: str


@register_serializable
@dataclass
class CriticalResult(SerializableResult):
    """Costliest instructions plus the critical-path edge profile."""

    workload: str
    rows: Tuple[CriticalInstruction, ...]
    #: (edge kind name, CP cycles), largest first
    edge_profile: Tuple[Tuple[str, int], ...]


@register
class CriticalAnalysis(Analysis):
    """``critical``: costliest instructions + critical-path profile."""

    name = "critical"
    engine_arg = True
    pipeline_args = "cache"
    extra_args = (Arg("--top", type=int, default=10),)
    result_type = CriticalResult

    def run(self, session: AnalysisSession,
            args: argparse.Namespace) -> CriticalResult:
        """Rank instructions by cost and profile the critical path."""
        from repro.graph.critical_path import edge_kind_profile
        from repro.graph.slack import top_critical_instructions

        # critical needs the monolithic graph: it declares no --approx
        provider = session.provider()
        result = provider.result
        ranked = top_critical_instructions(
            provider.analyzer, range(len(result.events)), top=args.top)
        rows = tuple(
            CriticalInstruction(seq=seq, pc=result.trace.insts[seq].pc,
                                cost=float(cost),
                                instruction=str(
                                    result.trace.insts[seq].static))
            for seq, cost in ranked)
        profile = tuple(
            (kind.name, int(cycles))
            for kind, cycles in sorted(
                edge_kind_profile(provider.graph).items(),
                key=lambda kv: -kv[1]))
        return CriticalResult(workload=args.workload, rows=rows,
                              edge_profile=profile)

    def render(self, result: CriticalResult,
               args: argparse.Namespace) -> str:
        """The ranking table plus the per-edge-kind CP cycles."""
        lines = [f"{result.workload}: costliest dynamic instructions",
                 f"{'seq':>6} {'pc':>8} {'cost':>6}  instruction"]
        for row in result.rows:
            lines.append(f"{row.seq:>6} {row.pc:>#8x} {row.cost:>6.0f}  "
                         f"{row.instruction}")
        lines.append("")
        lines.append("critical-path cycles by edge kind:")
        for kind, cycles in result.edge_profile:
            lines.append(f"  {kind:<4} {cycles}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

@register_serializable
@dataclass
class CompareResult(SerializableResult):
    """The before/after breakdown delta of one workload."""

    workload: str
    delta: BreakdownDelta


@register
class CompareAnalysis(Analysis):
    """``compare``: diff the breakdowns of two machine configurations."""

    name = "compare"
    extra_args = (
        Arg("--after", action="append", metavar="KEY=VALUE",
            help="MachineConfig override(s) defining the 'after' "
                 "machine (on top of --set); repeatable"),
        Arg("--focus", choices=_FOCUS_CHOICES,
            help="include pairwise interaction rows with this category"),
    )
    result_type = CompareResult

    def run(self, session: AnalysisSession,
            args: argparse.Namespace) -> CompareResult:
        """Analyse under both machines (one session) and diff."""
        from repro.analysis.compare import compare_configs

        before = session.machine
        after = machine_with_overrides(before, args.after)
        delta = compare_configs(session.trace, before, after,
                                focus=_focus(args), session=session)
        return CompareResult(workload=args.workload, delta=delta)

    def render(self, result: CompareResult,
               args: argparse.Namespace) -> str:
        """The before/after/delta table."""
        return result.delta.render()


# ----------------------------------------------------------------------
# multisim
# ----------------------------------------------------------------------

@register_serializable
@dataclass
class MultiSimResult(SerializableResult):
    """A ground-truth (re-simulation) breakdown plus its run count."""

    workload: str
    breakdown: Breakdown
    simulations: int


@register
class MultiSimAnalysis(Analysis):
    """``multisim``: the exact re-simulation breakdown (Section 3)."""

    name = "multisim"
    pipeline_args = "plain"
    extra_args = (
        Arg("--focus", choices=_FOCUS_CHOICES,
            help="add pairwise interaction rows with this category"),
    )
    result_type = MultiSimResult

    def run(self, session: AnalysisSession,
            args: argparse.Namespace) -> MultiSimResult:
        """Measure the breakdown by actual re-simulation."""
        from repro.core import interaction_breakdown

        provider = session.multisim_provider(
            max_workers=args.jobs if args.jobs > 1 else 1)
        bd = interaction_breakdown(provider, focus=_focus(args),
                                   workload=args.workload)
        return MultiSimResult(workload=args.workload, breakdown=bd,
                              simulations=provider.simulations)

    def render(self, result: MultiSimResult,
               args: argparse.Namespace) -> str:
        """The breakdown table plus the simulator-run count."""
        from repro.core import render_breakdown_table

        return (render_breakdown_table(
                    {result.workload: result.breakdown},
                    f"{result.workload}: % of execution time (multisim)")
                + f"\n\nsimulations: {result.simulations}")
