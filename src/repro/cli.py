"""Command-line interface: interaction-cost analysis from a shell.

Subcommands mirror the library's main entry points::

    repro-icost workloads                      # list the synthetic suite
    repro-icost breakdown gzip --focus dl1     # Table 4-style breakdown
    repro-icost breakdown gzip --full dl1,win,dmiss   # power-set rows
    repro-icost profile twolf                  # shotgun profiler vs graph
    repro-icost sensitivity vortex             # Figure 3 window sweep
    repro-icost multisim gzip --focus dl1      # ground-truth re-simulation
    repro-icost compare gzip --after dl1_latency=4    # config diff
    repro-icost critical gzip --top 8          # costliest instructions

(also available as ``python -m repro ...``)

The command tree is built entirely from the declarative analysis
registry (:mod:`repro.session.registry`): each subcommand is one
registered :class:`~repro.session.Analysis`, and this module only
wires argparse, observability and process-level concerns around
``make_session`` / ``run`` / ``render``.

Every subcommand additionally understands the global observability
flags (``docs/OBSERVABILITY.md``): ``--trace FILE`` writes a
Perfetto-loadable Chrome trace of the analysis pipeline, ``--metrics``
prints a summary table of pipeline counters after the run, and
``-v``/``--log-level`` control diagnostic logging.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

import repro.obs as obs


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the global observability flags to one subcommand."""
    group = parser.add_argument_group("observability")
    group.add_argument("--trace", metavar="FILE", default=None,
                       help="write a Chrome trace-event JSON of the "
                            "analysis pipeline (load in ui.perfetto.dev)")
    group.add_argument("--metrics", action="store_true",
                       help="print a pipeline metrics summary after the run")
    group.add_argument("-v", "--verbose", action="count", default=0,
                       help="increase log verbosity (-v info, -vv debug)")
    group.add_argument("--log-level", default=None,
                       choices=["debug", "info", "warning", "error"],
                       help="explicit log level (overrides -v)")
    group.add_argument("--ledger-dir", metavar="DIR", default=None,
                       help="append a run manifest to the ledger in DIR "
                            "(default: $REPRO_LEDGER_DIR when set)")
    group.add_argument("--no-ledger", action="store_true",
                       help="do not record this run even if "
                            "$REPRO_LEDGER_DIR is set")


class _Subcommands(argparse._SubParsersAction):
    """Subparsers that configure a subcommand only once it is chosen.

    Listing the subcommands (``--help``, a usage error) needs only the
    registry's declarations.  The chosen subcommand's implementing
    module is imported, and its arguments attached, just before
    argparse parses them, so a run loads no other analysis's code.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        sub = self._name_parser_map.get(values[0])
        if sub is not None and sub.get_default("analysis") is None:
            from repro.session.registry import get_analysis

            analysis = get_analysis(values[0])
            _add_obs_flags(sub)
            analysis.configure(sub)
            sub.set_defaults(analysis=analysis)
        super().__call__(parser, namespace, values, option_string)


def _ledger_active(args: argparse.Namespace) -> bool:
    """Whether this invocation records a manifest to the run ledger."""
    from repro.obs.ledger import LEDGER_DIR_ENV

    if args.no_ledger or not args.analysis.ledger_record:
        return False
    return bool(args.ledger_dir or os.environ.get(LEDGER_DIR_ENV))


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree, generated from the analysis registry.

    Every declared subcommand is listed; only the one a parse selects
    is configured (see :class:`_Subcommands`), so building the parser
    imports no analysis implementation.
    """
    from repro import __version__
    from repro.session.registry import DECLARED

    parser = argparse.ArgumentParser(
        prog="repro-icost",
        description="Interaction-cost microarchitectural bottleneck analysis",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")

    sub = parser.add_subparsers(dest="command", required=True,
                                action=_Subcommands)
    for declaration in DECLARED.values():
        sub.add_parser(declaration.name, help=declaration.help)
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected analysis: session -> result -> rendered text."""
    analysis = args.analysis
    session = analysis.make_session(args)
    t0 = time.perf_counter()
    try:
        result = analysis.run(session, args)
        if _ledger_active(args):
            _record_run(args, session, result,
                        time.perf_counter() - t0)
    finally:
        session.close()
    out = analysis.render(result, args)
    print(out, end="" if out.endswith("\n") else "\n")
    return 0


def _record_run(args: argparse.Namespace, session, result,
                wall_s: float) -> None:
    """Append this run's manifest to the active ledger."""
    from repro.obs.ledger import build_manifest, open_ledger

    ledger = open_ledger(args.ledger_dir)
    manifest = build_manifest(args.analysis.name, session, result,
                              collector=obs.collector(), wall_s=wall_s)
    run_id = ledger.append(manifest)
    if run_id:
        print(f"recorded run {run_id} in {ledger.path}", file=sys.stderr)


def _log_level(args) -> str:
    if args.log_level:
        return args.log_level
    return {0: "warning", 1: "info"}.get(args.verbose, "debug")


def _warn_native_fallback() -> None:
    """Surface a silent C-kernel compile/load failure, once per process."""
    from repro.native import fallback_warnings

    for message in fallback_warnings():
        print(message, file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    obs.setup_logging(_log_level(args))
    # the ledger wants per-phase timings and counters in its manifest,
    # so an active ledger turns the collector on too; analyses can
    # also ask for one themselves (serve: traces + /metrics)
    collector = obs.enable() if (args.trace or args.metrics
                                 or args.analysis.wants_collector
                                 or _ledger_active(args)) else None
    try:
        code = _dispatch(args)
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    finally:
        if collector is not None:
            obs.disable()
    _warn_native_fallback()
    if collector is not None:
        if args.trace:
            obs.write_trace(collector, args.trace)
            print(f"wrote pipeline trace to {args.trace} "
                  f"(open in https://ui.perfetto.dev)", file=sys.stderr)
        if args.metrics:
            print()
            print(obs.render_metrics_table(collector))
    return code


if __name__ == "__main__":
    sys.exit(main())
