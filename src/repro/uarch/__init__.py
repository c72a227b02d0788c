"""The out-of-order processor substrate (Table 6 of the paper).

This package is the reproduction's stand-in for the authors'
SimpleScalar-based simulator: a cycle-stepped out-of-order core with a
finite instruction window, fetch/issue/commit bandwidth limits,
functional-unit pools, a combining branch predictor with BTB and return
address stack, a two-level cache hierarchy, and TLBs.

Every Table 1 idealization ("turn misses into hits", "zero-cycle ALU",
"infinite bandwidth", "perfect prediction", "infinite window") is a
switch on :class:`repro.uarch.config.IdealConfig`, so that the paper's
*multiple-simulations* cost baseline is genuine re-simulation rather
than graph manipulation.
"""

from repro._lazy import lazy_exports

# The package-level ``simulate`` is the engine dispatcher: it honours
# ``REPRO_SIM_ENGINE`` (auto/fast/reference) and is bit-identical to
# ``repro.uarch.core.simulate`` (the reference oracle) either way.

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    **{name: "repro.uarch.config" for name in (
        "MachineConfig", "IdealConfig", "FUKind")},
    **{name: "repro.uarch.events" for name in ("InstEvents", "SimResult")},
    "OutOfOrderCore": "repro.uarch.core",
    **{name: "repro.uarch.fastcore" for name in (
        "simulate", "simulate_many", "cycles_many")},
    **{name: "repro.uarch.persist" for name in ("load_result", "save_result")},
})
