"""The session core: one object owning a whole analysis run.

:class:`AnalysisSession` unifies what every frontend used to hand-wire
-- trace resolution, cached/memoized simulation, graph and cost-provider
construction, pipeline delegation, observability spans -- behind one
typed surface configured by :class:`RunConfig`.  The declarative
analysis registry (:mod:`repro.session.registry`,
:mod:`repro.session.analyses`) sits on top: every CLI subcommand is one
registered :class:`Analysis` whose typed result serializes uniformly.

Quickstart::

    from repro.session import AnalysisSession, RunConfig

    session = AnalysisSession(RunConfig(workload="gzip"))
    provider = session.provider()          # graph cost provider
    cycles = session.cycles()              # cached baseline cycles

Importing this package loads none of it: each name below is imported on
first use, and the registry (:mod:`repro.session.registry`) declares
every analysis by name, help and implementing module, importing an
implementation only when its analysis is looked up.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "AnalysisSession": "repro.session.session",
    "SessionManager": "repro.session.lifecycle",
    "RunConfig": "repro.session.config",
    "machine_with_overrides": "repro.session.config",
    **{name: "repro.session.registry" for name in (
        "Analysis", "Arg", "REGISTRY", "register", "get_analysis",
        "all_analyses")},
})
