"""The declarative analysis registry behind every frontend.

Each analysis the toolkit offers (breakdown, matrix, profile, ...) is
one :class:`Analysis` subclass declaring its CLI surface (name, help,
argument specs) and implementing ``run(session, args) -> *Result`` plus
``render(result, args) -> str``.  The CLI builds its whole argparse
tree from this table; a batch or server frontend would iterate the very
same registry.  Results are typed dataclasses with uniform
``to_json``/``from_json`` via :mod:`repro.core.serialize`, so every
analysis is scriptable, not just printable.
"""

from __future__ import annotations

import argparse
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Type

from repro.session.config import RunConfig
from repro.session.session import AnalysisSession


class Arg:
    """One declarative ``add_argument`` spec of an analysis.

    Stores the flag strings and keyword arguments verbatim;
    :meth:`add_to` replays them onto a parser.
    """

    def __init__(self, *flags: str, **kwargs: Any) -> None:
        self.flags = flags
        self.kwargs = kwargs

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        """Attach this argument to *parser*."""
        parser.add_argument(*self.flags, **self.kwargs)


#: name -> Analysis instance, in registration (= display) order.
REGISTRY: Dict[str, "Analysis"] = {}


def register(cls: Type["Analysis"]) -> Type["Analysis"]:
    """Class decorator adding one instance of *cls* to the registry."""
    analysis = cls()
    if analysis.name in REGISTRY:
        raise ValueError(f"duplicate analysis name {analysis.name!r}")
    REGISTRY[analysis.name] = analysis
    return cls


def get_analysis(name: str) -> "Analysis":
    """The registered analysis called *name* (KeyError when unknown)."""
    return REGISTRY[name]


def all_analyses() -> List["Analysis"]:
    """Every registered analysis, in registration order."""
    return list(REGISTRY.values())


class Analysis:
    """Base class: one registered analysis with a declarative CLI shape.

    Subclasses set the class variables (what arguments exist) and
    implement :meth:`run` / :meth:`render` (what the analysis does and
    how its result prints).  ``configure``/``make_session`` are shared:
    the registry is what guarantees every analysis resolves workloads,
    machine overrides and pipeline knobs identically.
    """

    #: subcommand name
    name: ClassVar[str] = ""
    #: one-line help shown in the command list
    help: ClassVar[str] = ""
    #: positional workload + --scale/--seed/--set
    workload_arg: ClassVar[bool] = True
    #: add the --engine selector
    engine_arg: ClassVar[bool] = False
    #: pipeline flag group: None, "plain" (no --windows), "windows",
    #: or "approx" (windows + --approx)
    pipeline_args: ClassVar[Optional[str]] = None
    #: extra per-analysis arguments
    extra_args: ClassVar[Tuple[Arg, ...]] = ()
    #: the dataclass this analysis returns (for registry completeness
    #: checks and round-trip tests)
    result_type: ClassVar[Optional[type]] = None
    #: whether a run of this analysis appends a manifest to the run
    #: ledger when one is active (``repro ledger`` itself opts out --
    #: reading history must not rewrite it)
    ledger_record: ClassVar[bool] = True
    #: whether this analysis needs an obs collector even without
    #: --trace/--metrics (the serve daemon: per-job traces + /metrics)
    wants_collector: ClassVar[bool] = False

    def configure(self, parser: argparse.ArgumentParser) -> None:
        """Attach this analysis's declared arguments to *parser*."""
        if self.workload_arg:
            parser.add_argument(
                "workload", help="suite workload name (see 'workloads')")
            parser.add_argument(
                "--scale", type=float, default=1.0,
                help="trace-length multiplier (default 1.0)")
            parser.add_argument("--seed", type=int, default=0)
            parser.add_argument(
                "--set", action="append", metavar="KEY=VALUE",
                help="override a MachineConfig field, e.g. "
                     "--set dl1_latency=4")
            from repro.uarch.fastcore import SIM_ENGINE_NAMES

            parser.add_argument(
                "--sim-engine", choices=SIM_ENGINE_NAMES, default=None,
                dest="sim_engine",
                help="simulator core: 'fast' (batched columnar core "
                     "with the native kernel), 'reference' (the "
                     "original cycle-stepped core), or 'auto' "
                     "(default: $REPRO_SIM_ENGINE, then fast with "
                     "reference fallback); both are bit-identical")
        if self.engine_arg:
            from repro.graph.engine import ENGINE_NAMES

            parser.add_argument(
                "--engine", choices=ENGINE_NAMES, default=None,
                help="cost engine for graph measurements: the naive "
                     "reference sweep, the batched vectorized/"
                     "incremental kernel, or the process-pool fan-out")
        if self.pipeline_args is not None:
            group = parser.add_argument_group("pipeline (docs/PIPELINE.md)")
            group.add_argument(
                "--jobs", type=int, default=1, metavar="N",
                help="worker processes for sharded build/analysis "
                     "(default 1)")
            if self.pipeline_args in ("windows", "approx"):
                group.add_argument(
                    "--windows", type=int, default=1, metavar="N",
                    help="shard the run into N contiguous windows "
                         "(default 1; exact either way)")
            group.add_argument(
                "--cache-dir", metavar="DIR", default=None,
                help="content-addressed artifact cache directory "
                     "(default: $REPRO_CACHE_DIR)")
            group.add_argument(
                "--no-cache", action="store_true",
                help="disable the artifact cache even if "
                     "$REPRO_CACHE_DIR is set")
            if self.pipeline_args == "approx":
                group.add_argument(
                    "--approx", action="store_true",
                    help="bounded-error windowed analysis: sum "
                         "per-window costs over truncated window "
                         "graphs instead of stitching an exact graph")
        for arg in self.extra_args:
            arg.add_to(parser)

    def make_session(self, args: argparse.Namespace) -> AnalysisSession:
        """Build the :class:`AnalysisSession` this invocation runs in.

        Validates the workload name against the suite (matching the
        CLI's historical ``SystemExit``) before any simulation starts.
        """
        workload = getattr(args, "workload", None)
        if workload is not None:
            from repro.workloads import WORKLOAD_NAMES

            if workload not in WORKLOAD_NAMES:
                raise SystemExit(
                    f"unknown workload {workload!r}; "
                    f"see 'repro-icost workloads'")
        return AnalysisSession(RunConfig.from_args(args))

    def run(self, session: AnalysisSession, args: argparse.Namespace):
        """Execute the analysis; returns an instance of ``result_type``."""
        raise NotImplementedError

    def render(self, result, args: argparse.Namespace) -> str:
        """The stdout text for *result* under this invocation's flags."""
        raise NotImplementedError
