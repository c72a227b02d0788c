"""The typed configuration of one analysis run.

Before the session layer existed every frontend hand-plumbed the same
knobs -- workload name, scale, seed, machine overrides, engine choice,
windowed mode, cache directory -- through per-function keyword
arguments and argparse namespaces.  :class:`RunConfig` is the one
place those knobs live: the CLI builds one from parsed arguments, a
batch or server frontend builds one from a request payload, and both
hand it to :class:`repro.session.AnalysisSession`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Iterable, Optional

from repro.uarch.config import MachineConfig


def machine_with_overrides(base: Optional[MachineConfig],
                           overrides: Optional[Iterable[str]]) -> MachineConfig:
    """Apply ``key=value`` override strings to a machine configuration.

    This is the parser behind the CLI's repeated ``--set`` flag (and
    ``compare``'s ``--after``); unknown fields and malformed items
    raise ``SystemExit`` with the message the CLI has always printed.
    """
    config = base or MachineConfig()
    values: Dict[str, int] = {}
    for item in overrides or []:
        key, __, value = item.partition("=")
        if not value:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        field = key.strip()
        if field not in MachineConfig.__dataclass_fields__:
            raise SystemExit(f"unknown machine parameter {field!r}")
        values[field] = int(value)
    return config.with_(**values) if values else config


@dataclass(frozen=True)
class RunConfig:
    """Everything one analysis run depends on, in one typed record.

    The fields map 1:1 onto the CLI's global knobs; library callers
    construct it directly.  A ``RunConfig`` is immutable and
    JSON-serializable, so it can be logged, content-addressed, or
    shipped to a worker verbatim.
    """

    #: suite workload name (``None`` when the caller supplies a trace)
    workload: Optional[str] = None
    #: trace-length multiplier passed to the workload generator
    scale: float = 1.0
    #: workload generator seed
    seed: int = 0
    #: machine configuration (``None`` = the Table 6 baseline)
    machine: Optional[MachineConfig] = None
    #: cost engine name (``None`` = each path's historical default)
    engine: Optional[str] = None
    #: simulator engine (``auto``/``fast``/``reference``; ``None``
    #: consults ``$REPRO_SIM_ENGINE``, then defaults to ``auto``)
    sim_engine: Optional[str] = None
    #: worker processes for the windowed analysis and the sweeps
    jobs: int = 1
    #: artifact-cache directory; ``None`` consults ``$REPRO_CACHE_DIR``
    cache_dir: Optional[str] = None
    #: disable the artifact cache even if the environment configures one
    no_cache: bool = False
    #: windows of the bounded-error windowed analysis mode (0 = exact)
    approx: int = 0
    #: model the one-cycle fetch break after taken branches
    model_taken_branch_breaks: bool = True

    def machine_config(self) -> MachineConfig:
        """The machine this run simulates (baseline when unset)."""
        return self.machine or MachineConfig()

    def with_(self, **kwargs: Any) -> "RunConfig":
        """A copy with *kwargs* replaced (the dataclass idiom)."""
        return replace(self, **kwargs)

    def pipeline_requested(self) -> bool:
        """Whether any pipeline knob (or the cache env default) is engaged."""
        return bool(self.approx or self.cache_dir or self.no_cache
                    or os.environ.get("REPRO_CACHE_DIR"))

    def pipeline_options(self):
        """The :class:`repro.pipeline.PipelineOptions` this run maps to."""
        from repro.pipeline import PipelineOptions

        return PipelineOptions(
            jobs=self.jobs,
            cache_dir=self.cache_dir,
            no_cache=self.no_cache,
            approx=self.approx,
            engine=self.engine,
            sim_engine=self.sim_engine,
            model_taken_branch_breaks=self.model_taken_branch_breaks)

    @classmethod
    def from_args(cls, args: Any) -> "RunConfig":
        """Build a run configuration from a parsed argparse namespace.

        Only attributes that exist on *args* are consulted, so every
        subcommand -- whatever subset of flags it declares -- maps
        through this single constructor.
        """
        machine = machine_with_overrides(None, getattr(args, "set", None))
        return cls(
            workload=getattr(args, "workload", None),
            scale=getattr(args, "scale", 1.0),
            seed=getattr(args, "seed", 0),
            machine=machine,
            engine=getattr(args, "engine", None),
            sim_engine=getattr(args, "sim_engine", None),
            jobs=getattr(args, "jobs", 1),
            cache_dir=getattr(args, "cache_dir", None),
            no_cache=getattr(args, "no_cache", False),
            approx=getattr(args, "approx", 0))

    def to_json(self) -> str:
        """A self-describing JSON document for this run configuration."""
        machine = None
        if self.machine is not None:
            machine = {f.name: getattr(self.machine, f.name)
                       for f in fields(MachineConfig)}
        payload = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name != "machine"}
        payload["machine"] = machine
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """Inverse of :meth:`to_json`."""
        data = json.loads(text)
        machine = data.pop("machine", None)
        if machine is not None:
            machine = MachineConfig(**machine)
        return cls(machine=machine, **data)
