"""The declarative analysis registry behind every frontend.

Each analysis the toolkit offers (breakdown, matrix, profile, ...) is
declared once in :data:`DECLARED` -- its subcommand name, one-line help
and implementing module -- and implemented by one :class:`Analysis`
subclass in that module, declaring its argument specs and implementing
``run(session, args) -> *Result`` plus ``render(result, args) -> str``.
The CLI lists every subcommand from the declarations alone and imports
an implementation only for the subcommand it runs, so a ``breakdown``
never loads the serve, bench or self-profile code; a batch or server
frontend iterates the very same registry.  Results are typed
dataclasses with uniform ``to_json``/``from_json`` via
:mod:`repro.core.serialize`, so every analysis is scriptable, not just
printable.
"""

from __future__ import annotations

import argparse
import importlib
from collections.abc import Mapping
from typing import (TYPE_CHECKING, Any, ClassVar, Dict, Iterator, List,
                    NamedTuple, Optional, Tuple, Type)

if TYPE_CHECKING:  # imported by make_session only when a run starts
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


class Declaration(NamedTuple):
    """One registry entry: what the CLI lists without importing code."""

    #: subcommand name
    name: str
    #: one-line help shown in the command list
    help: str
    #: the module whose import registers the implementation
    module: str


_ANALYSES = "repro.session.analyses"
_BENCH = "repro.bench.analyses"

#: name -> declaration, in display order.
DECLARED: Dict[str, Declaration] = {d.name: d for d in (
    Declaration("workloads", "list the synthetic suite", _ANALYSES),
    Declaration("breakdown", "interaction-cost breakdown", _ANALYSES),
    Declaration("characterize", "icost fingerprint of the suite",
                _ANALYSES),
    Declaration("profile", "shotgun-profile and compare", _ANALYSES),
    Declaration("matrix", "pairwise interaction-cost matrix", _ANALYSES),
    Declaration("report", "self-contained HTML analysis report",
                _ANALYSES),
    Declaration("sensitivity", "window-size sweep (Figure 3)", _ANALYSES),
    Declaration("phases", "segment cost vectors + phase changes",
                _ANALYSES),
    Declaration("critical", "costliest instructions + CP profile",
                _ANALYSES),
    Declaration("compare", "diff breakdowns across two machine configs",
                _ANALYSES),
    Declaration("multisim", "ground-truth re-simulation breakdown",
                _ANALYSES),
    Declaration("selfprofile", "icost analysis of the tool's own pipeline",
                _BENCH),
    Declaration("bench",
                "run a benchmark suite (paper tables/figures, speedups)",
                _BENCH),
    Declaration("ledger", "run-ledger history: list/show/diff/report",
                _BENCH),
    Declaration("serve",
                "serve the analysis registry over HTTP/JSON (daemon)",
                "repro.serve.analysis"),
)}


class _Registry(Mapping):
    """name -> :class:`Analysis` instance over :data:`DECLARED`.

    Iterating, sizing and membership read the declarations only;
    looking a name up imports its implementing module the first time.
    """

    def __init__(self) -> None:
        self._instances: Dict[str, "Analysis"] = {}

    def __getitem__(self, name: str) -> "Analysis":
        declaration = DECLARED[name]
        if name not in self._instances:
            importlib.import_module(declaration.module)
        return self._instances[name]

    def __iter__(self) -> Iterator[str]:
        return iter(DECLARED)

    def __len__(self) -> int:
        return len(DECLARED)

    def add(self, analysis: "Analysis") -> None:
        """Record the implementation of a declared analysis."""
        if analysis.name not in DECLARED:
            raise ValueError(f"analysis {analysis.name!r} is not declared "
                             f"in repro.session.registry.DECLARED")
        if analysis.name in self._instances:
            raise ValueError(f"duplicate analysis name {analysis.name!r}")
        self._instances[analysis.name] = analysis


#: name -> Analysis instance, in declaration (= display) order.
REGISTRY = _Registry()


def register(cls: Type["Analysis"]) -> Type["Analysis"]:
    """Class decorator adding one instance of *cls* to the registry."""
    REGISTRY.add(cls())
    return cls


def get_analysis(name: str) -> "Analysis":
    """The registered analysis called *name* (KeyError when unknown)."""
    return REGISTRY[name]


def all_analyses() -> List["Analysis"]:
    """Every registered analysis, in declaration order (imports all)."""
    return [REGISTRY[name] for name in DECLARED]


def _window_count(text: str) -> int:
    """``--approx N``: a window count of at least 2, or 0 (exact)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value != 0 and value < 2:
        raise argparse.ArgumentTypeError(
            f"expects N >= 2 windows (or 0 for exact), got {text!r}")
    return value


class Analysis:
    """Base class: one registered analysis with a declarative CLI shape.

    Subclasses set the class variables (what arguments exist) and
    implement :meth:`run` / :meth:`render` (what the analysis does and
    how its result prints).  ``configure``/``make_session`` are shared:
    the registry is what guarantees every analysis resolves workloads,
    machine overrides and pipeline knobs identically.
    """

    #: subcommand name (its help lives in :data:`DECLARED`)
    name: ClassVar[str] = ""
    #: positional workload + --scale/--seed/--set
    workload_arg: ClassVar[bool] = True
    #: add the --engine selector
    engine_arg: ClassVar[bool] = False
    #: pipeline flag group: None, "cache" (--cache-dir/--no-cache),
    #: "plain" (cache + --jobs for sweeps), or "approx" (cache +
    #: --jobs for the windows of --approx N)
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

    @property
    def help(self) -> str:
        """The one-line help this analysis's declaration carries."""
        return DECLARED[self.name].help

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
            from repro.uarch.config import SIM_ENGINE_NAMES

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
                     "reference sweep or the batched vectorized/"
                     "incremental kernel (default)")
        if self.pipeline_args is not None:
            group = parser.add_argument_group("pipeline (docs/PIPELINE.md)")
            if self.pipeline_args != "cache":
                pooled = ("the --approx windows"
                          if self.pipeline_args == "approx"
                          else "the simulation sweep")
                group.add_argument(
                    "--jobs", type=int, default=1, metavar="N",
                    help=f"worker processes for {pooled} (default 1)")
            if self.pipeline_args == "approx":
                group.add_argument(
                    "--approx", type=_window_count, default=0,
                    metavar="N",
                    help="bounded-error windowed analysis: sum the costs "
                         "of N >= 2 truncated window graphs instead of "
                         "measuring the exact graph (default: exact)")
            group.add_argument(
                "--cache-dir", metavar="DIR", default=None,
                help="content-addressed artifact cache directory "
                     "(default: $REPRO_CACHE_DIR)")
            group.add_argument(
                "--no-cache", action="store_true",
                help="disable the artifact cache even if "
                     "$REPRO_CACHE_DIR is set")
        for arg in self.extra_args:
            arg.add_to(parser)

    def make_session(self, args: argparse.Namespace) -> "AnalysisSession":
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
        from repro.session.config import RunConfig
        from repro.session.session import AnalysisSession

        return AnalysisSession(RunConfig.from_args(args))

    def run(self, session: "AnalysisSession", args: argparse.Namespace):
        """Execute the analysis; returns an instance of ``result_type``."""
        raise NotImplementedError

    def render(self, result, args: argparse.Namespace) -> str:
        """The stdout text for *result* under this invocation's flags."""
        raise NotImplementedError
