"""A small RISC instruction set, assembler and architectural executor.

The reproduction needs a *real* ISA rather than a statistical trace
generator because the shotgun profiler (Section 5 of the paper)
reconstructs control flow by walking the program binary: it infers
fallthrough PCs, decodes direct-branch targets, and maintains a
call/return stack.  This package provides:

- :mod:`repro.isa.instructions` -- opcodes, operand classes and the
  static/dynamic instruction records shared by every other subsystem.
- :mod:`repro.isa.program` -- the ``Program`` binary image and an
  assembler-style ``ProgramBuilder``.
- :mod:`repro.isa.executor` -- an architectural interpreter producing
  the committed-path dynamic trace a trace-driven timing model consumes.
- :mod:`repro.isa.trace` -- the ``Trace`` container plus summary stats.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    **{name: "repro.isa.instructions" for name in (
        "OpClass", "Opcode", "StaticInst", "DynInst", "INT_REG_COUNT",
        "FP_REG_COUNT", "TOTAL_REG_COUNT", "REG_ZERO", "REG_LINK", "fp_reg")},
    **{name: "repro.isa.program" for name in ("Program", "ProgramBuilder")},
    **{name: "repro.isa.executor" for name in (
        "Executor", "ExecutionLimitExceeded")},
    **{name: "repro.isa.trace" for name in ("Trace", "TraceStats")},
})
