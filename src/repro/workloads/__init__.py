"""The synthetic workload suite.

Twelve programs named after the SPECint2000 suite the paper evaluates,
each engineered to echo its namesake's dominant bottleneck mix (e.g.
``mcf`` is a pointer chase over a multi-megabyte heap whose branches
depend on missing loads; ``vortex`` is window-limited with almost no
mispredicts).  Real Alpha binaries are unavailable offline, and the
shotgun profiler needs genuine binaries with reconstructable control
flow, so each workload is an actual TinyRISC program executed to a
committed-path trace -- not a statistical event stream.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    **{name: "repro.workloads.registry" for name in (
        "WORKLOAD_NAMES", "TABLE4BC_NAMES", "get_workload", "get_program",
        "workload_description")},
    **{name: "repro.workloads.synthetic" for name in (
        "fuzz_program", "random_program")},
})
