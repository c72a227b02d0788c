"""Shared machinery of the end-to-end benchmark (see README.md).

Everything here times whole user-visible operations from outside the
program: a ``python -m repro breakdown`` process, or one request to a
``repro serve`` daemon through :class:`repro.serve.client.ServeClient`.
The benchmark process is the only load generator and every workload is
a closed loop of one client: the next op starts when the previous one
returned.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: generated files (compiled kernels, caches, traces); never committed
WORK = ROOT / ".bench_build" / "e2e"

#: the benchmarks every mixed workload cycles through
MIX = ("mcf", "gcc", "eon", "gzip", "vortex")
#: set-up is repeated this often per run and its median reported
SETUP_REPEATS = 3
#: distinct trace seeds per benchmark that serve-cold draws from;
#: expected.json covers all of them, so every bench seed is checkable
SEED_POOL = 24
OP_TIMEOUT_S = 60.0
#: latency charged to a failed or refused op in the percentiles
FAILED_LATENCY_MS = OP_TIMEOUT_S * 1000.0
NATIVE_WARNING = "warning: native"


class BenchError(RuntimeError):
    """The run cannot produce a result: no sources, a failed set-up, or
    a native kernel that fell back to Python (a different program)."""


@dataclass(frozen=True)
class Spec:
    """One workload: how its ops reach the program (BENCHMARK.json says
    why each exists)."""

    kind: str                 # "cli" or "serve"
    mix: Sequence[str]
    cached: bool = False      # cli: --cache-dir on a cache set-up filled
    distinct: bool = False    # serve: a distinct --seed per request


WORKLOADS: Dict[str, Spec] = {
    "cli-cold": Spec("cli", MIX),
    "cli-cached": Spec("cli", MIX, cached=True),
    "serve-warm": Spec("serve", ("gcc",)),
    "serve-cold": Spec("serve", MIX, distinct=True),
}


# ----------------------------------------------------------------------
# Ops: what each workload sends, fixed by the bench seed
# ----------------------------------------------------------------------


def analysis_argv(bench: str, trace_seed: Optional[int] = None) -> List[str]:
    """The ``breakdown`` argv of one op (CLI defaults except --seed)."""
    argv = [bench, "--focus", "dl1", "--json"]
    if trace_seed is not None:
        argv += ["--seed", str(trace_seed)]
    return argv


def op_key(argv: Sequence[str]) -> str:
    """The expected.json key of one op's analysis argv."""
    return " ".join(["breakdown", *argv])


def rounds(workload: str, seed: int) -> Iterator[List[List[str]]]:
    """Endless rounds of *workload*'s mix, each in a seed-shuffled order.

    A round holds every benchmark of the mix once, so percentiles over
    whole rounds weigh the benchmarks equally whatever the seed.
    serve-cold gives the k-th request of a benchmark the k-th trace seed
    of a seed-shuffled pool, so requests within a run never repeat.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    pools = {bench: rng.sample(range(1, SEED_POOL + 1), SEED_POOL)
             for bench in spec.mix}
    used = dict.fromkeys(spec.mix, 0)
    while True:
        batch = []
        for bench in rng.sample(list(spec.mix), len(spec.mix)):
            trace_seed = None
            if spec.distinct:
                k = used[bench]
                used[bench] += 1
                trace_seed = pools[bench][k] if k < SEED_POOL else 1000 + k
            batch.append(analysis_argv(bench, trace_seed))
        yield batch


def expected_argvs() -> List[List[str]]:
    """Every argv any bench seed can send within the seed pool."""
    argvs = [analysis_argv(bench) for bench in MIX]
    argvs += [analysis_argv(bench, s) for bench in MIX
              for s in range(1, SEED_POOL + 1)]
    return argvs


class OpSource:
    """Hands out ops round by round to the client loop.

    The window of *seconds* opens with the first op.  The first round
    always runs; no later round starts after the window closes, and a
    started round always completes, so the measured ops are whole
    rounds.
    """

    def __init__(self, batches: Iterator[List[List[str]]],
                 seconds: float) -> None:
        self._batches = batches
        self._seconds = seconds
        self._deadline: Optional[float] = None
        self._pending: List[List[str]] = []

    def next(self) -> Optional[List[str]]:
        """The next op's argv, or None once the run is over."""
        if not self._pending:
            now = time.perf_counter()
            if self._deadline is None:
                self._deadline = now + self._seconds
            elif now >= self._deadline:
                return None
            self._pending = list(next(self._batches))
        return self._pending.pop(0)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The nearest-rank *pct* percentile of *values*."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


def scrubbed_env(base: Dict[str, str]) -> Dict[str, str]:
    """A child environment that runs the program with its defaults.

    Drops every ``REPRO_*`` knob (cache and ledger dirs, engine choices,
    native opt-outs) and every ``PYTHON*`` variable, then points
    ``PYTHONPATH`` at the checkout's sources and ``TMPDIR`` -- where the
    native kernels compile to -- inside the checkout.
    """
    env = {key: value for key, value in base.items()
           if not key.startswith(("REPRO_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    return env


@dataclass
class ProcResult:
    """One finished child process."""

    code: int
    stdout: str
    stderr: str
    start: float        # perf_counter at spawn
    end: float          # perf_counter once reaped
    maxrss_kb: int

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def run_process(cmd: Sequence[str], env: Dict[str, str],
                timeout: float = OP_TIMEOUT_S) -> ProcResult:
    """Run *cmd* from the checkout root; kill it after *timeout*.

    Reaped with ``wait4`` so the result carries this child's own peak
    RSS, not the maximum over every child so far.
    """
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(cmd), stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        reaped = threading.Event()
        lock = threading.Lock()

        def expire() -> None:
            with lock:
                if not reaped.is_set():
                    proc.kill()

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            with lock:
                reaped.set()
                proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        end = time.perf_counter()
        out.seek(0)
        err.seek(0)
        return ProcResult(proc.returncode,
                          out.read().decode("utf-8", "replace"),
                          err.read().decode("utf-8", "replace"),
                          start, end, usage.ru_maxrss)


def fresh_dir(prefix: str) -> str:
    """A new empty directory under the work area."""
    return tempfile.mkdtemp(prefix=prefix, dir=WORK)


def check_native(stderr: str) -> None:
    """Stop the run when the program reports a native-kernel fallback."""
    if NATIVE_WARNING in stderr:
        lines = [ln for ln in stderr.splitlines() if NATIVE_WARNING in ln]
        raise BenchError("; ".join(lines))


# ----------------------------------------------------------------------
# One op
# ----------------------------------------------------------------------


@dataclass
class Op:
    """One timed operation and what it returned."""

    argv: List[str]
    ok: bool
    latency_ms: float
    start: float
    end: float
    text: Optional[str] = None
    etag: Optional[str] = None
    job: Optional[str] = None
    rss_kb: int = 0
    error: str = ""


def cli_op(argv: List[str], env: Dict[str, str],
           cache_dir: Optional[str] = None) -> Op:
    """One ``python -m repro breakdown ARGV`` process."""
    cmd = [sys.executable, "-m", "repro", "breakdown", *argv]
    if cache_dir:
        cmd += ["--cache-dir", cache_dir]
    res = run_process(cmd, env)
    check_native(res.stderr)
    ok = res.code == 0
    return Op(list(argv), ok, res.ms, res.start, res.end,
              text=res.stdout if ok else None, rss_kb=res.maxrss_kb,
              error="" if ok else res.stderr.strip()[-300:])


def serve_op(client, argv: List[str]) -> Op:
    """One long-poll ``breakdown`` request with ``reuse=False``."""
    from repro.serve.client import ServeError

    start = time.perf_counter()
    try:
        doc = client.run("breakdown", argv, reuse=False,
                         timeout=OP_TIMEOUT_S)
    except (ServeError, OSError, TimeoutError, ValueError) as exc:
        end = time.perf_counter()
        return Op(list(argv), False, (end - start) * 1000.0, start, end,
                  error=f"{type(exc).__name__}: {exc}")
    end = time.perf_counter()
    return Op(list(argv), True, (end - start) * 1000.0, start, end,
              text=doc.get("rendered"), etag=doc.get("etag"),
              job=doc.get("job"))


class Daemon:
    """One ``repro serve`` process on an ephemeral port and empty cache,
    returned once ``/healthz`` answers.

    Use as a context manager so the process is always stopped and its
    cache directory removed.
    """

    def __init__(self, env: Dict[str, str]) -> None:
        from repro.serve.client import ServeClient

        self.cache_dir = fresh_dir("serve-")
        self._stderr = tempfile.TemporaryFile(dir=WORK)
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--cache-dir", self.cache_dir, "--no-ledger"],
            stdout=subprocess.PIPE, stderr=self._stderr, env=env,
            cwd=ROOT, text=True)
        watchdog = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"listening on (http://\S+)", line)
            if match is None:
                raise BenchError(f"daemon did not start: {line!r}")
            self.client = ServeClient(match.group(1), timeout=OP_TIMEOUT_S)
            while not self.client.health():
                if self.proc.poll() is not None:
                    raise BenchError("daemon exited during start-up")
                time.sleep(0.002)
        except BaseException:
            watchdog.cancel()
            self.close()
            raise
        watchdog.cancel()

    def peak_rss_mb(self) -> float:
        """The daemon's high-water resident set (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def close(self) -> None:
        """Stop the daemon, wait for it, and check its stderr."""
        if self.proc.poll() is None:
            client = getattr(self, "client", None)
            if client is not None:
                client.shutdown()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self._stderr.seek(0)
        stderr = self._stderr.read().decode("utf-8", "replace")
        self._stderr.close()
        check_native(stderr)

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def summarize(text: str) -> Dict[str, object]:
    """The checked part of one breakdown JSON document."""
    doc = json.loads(text)
    return {"total_cycles": float(doc["total_cycles"]),
            "cycles": {entry["label"]: float(entry["cycles"])
                       for entry in doc["entries"]}}


def load_expected() -> Dict[str, Dict[str, object]]:
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)["argv"]


def oracle_summary(argv: Sequence[str]) -> Dict[str, object]:
    """Recompute one op on the repo's oracles, in this process.

    The reference simulator core and the naive cost engine; the CLI's
    fast core and batched engine are pinned bit-identical to them.
    """
    from repro.analysis.graphsim import GraphCostProvider
    from repro.core import breakdown_to_json, interaction_breakdown
    from repro.core.categories import Category
    from repro.uarch.core import simulate
    from repro.workloads.registry import get_workload_object

    bench = argv[0]
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0
    trace = get_workload_object(bench, 1.0, seed).trace()
    provider = GraphCostProvider(simulate(trace), True, engine="naive")
    breakdown = interaction_breakdown(provider, focus=Category.DL1,
                                      workload=bench)
    return summarize(breakdown_to_json(breakdown))


class Checker:
    """Counts ops whose output differs from the expected breakdown.

    Within one run, every result for one argv must also carry the same
    serve ETag.  Argvs missing from expected.json are recomputed on the
    oracles in :meth:`finish`, after the timed window.
    """

    def __init__(self, expected: Dict[str, Dict[str, object]]) -> None:
        self.expected = expected
        self.mismatches = 0
        self._etags: Dict[str, str] = {}
        self._deferred: List = []

    def check(self, argv: Sequence[str], text: Optional[str],
              etag: Optional[str] = None) -> None:
        """Check one succeeded op's rendered breakdown (and ETag)."""
        key = op_key(argv)
        try:
            got = summarize(text) if text is not None else None
        except (ValueError, KeyError, TypeError):
            got = None
        if etag is not None and self._etags.setdefault(key, etag) != etag:
            self.mismatches += 1
            return
        want = self.expected.get(key)
        if want is None:
            self._deferred.append((list(argv), got))
        elif got != want:
            self.mismatches += 1

    def finish(self) -> int:
        """Resolve deferred checks; returns the mismatch count."""
        deferred, self._deferred = self._deferred, []
        oracle: Dict[str, Dict[str, object]] = {}
        for argv, got in deferred:
            key = op_key(argv)
            if key not in oracle:
                oracle[key] = oracle_summary(argv)
            if got != oracle[key]:
                self.mismatches += 1
        return self.mismatches


# ----------------------------------------------------------------------
# The timed workloads (tracing off)
# ----------------------------------------------------------------------


@dataclass
class RunResult:
    """One run of one workload."""

    attempted: int
    failed: int
    output_mismatches: int
    metrics: Dict[str, float]
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.output_mismatches == 0

    def as_dict(self) -> Dict[str, object]:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "output_mismatches": self.output_mismatches,
                "metrics": self.metrics, **self.extra}


def latency_metrics(ops: Sequence[Op]) -> Dict[str, float]:
    lat = [op.latency_ms if op.ok else FAILED_LATENCY_MS for op in ops]
    return {"p50_ms": nearest_rank(lat, 50), "p75_ms": nearest_rank(lat, 75)}


def _result(ops: List[Op], checker: Checker, setups: List[float],
            peak_mb: float) -> RunResult:
    wall = max(op.end for op in ops) - min(op.start for op in ops)
    done = sum(op.ok for op in ops)
    metrics = {**latency_metrics(ops),
               "ops_per_s": done / wall,
               "setup_s": statistics.median(setups),
               "peak_rss_mb": peak_mb}
    return RunResult(len(ops), len(ops) - done, checker.finish(), metrics,
                     {"ops": len(ops), "setup_samples_s": setups})


def measure(workload: str, seed: int, seconds: float,
            env: Dict[str, str], checker: Checker) -> RunResult:
    """One timed run of *workload* with tracing off."""
    spec = WORKLOADS[workload]
    if spec.kind == "cli":
        return _measure_cli(workload, spec, seed, seconds, env, checker)
    return _measure_serve(workload, spec, seed, seconds, env, checker)


def check_op(op: Op, checker: Checker) -> None:
    """Output-check *op* when it succeeded; a failed op only counts as
    failed."""
    if op.ok:
        checker.check(op.argv, op.text, op.etag)


def _setup_op(op: Op, checker: Checker) -> None:
    if not op.ok:
        raise BenchError(f"set-up op {op_key(op.argv)} failed: {op.error}")
    check_op(op, checker)


def fill_cache(spec: Spec, env: Dict[str, str], checker: Checker) -> str:
    """A new cache directory filled by one CLI run per benchmark."""
    cache_dir = fresh_dir("cache-")
    for bench in spec.mix:
        _setup_op(cli_op(analysis_argv(bench), env, cache_dir), checker)
    return cache_dir


def _timed_ops(workload: str, seed: int, seconds: float, send,
               checker: Checker) -> List[Op]:
    """The measured window: ``send(argv)`` for each op of the schedule."""
    source = OpSource(rounds(workload, seed), seconds)
    ops: List[Op] = []
    while (argv := source.next()) is not None:
        op = send(argv)
        check_op(op, checker)
        ops.append(op)
    return ops


def _measure_cli(workload: str, spec: Spec, seed: int, seconds: float,
                 env: Dict[str, str], checker: Checker) -> RunResult:
    setups: List[float] = []
    cache_dir = None
    try:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            if spec.cached:
                if cache_dir:
                    shutil.rmtree(cache_dir, ignore_errors=True)
                cache_dir = fill_cache(spec, env, checker)
            else:
                # one discarded warm-up process on the mix's median
                # member; it also leaves the bytecode cache written
                _setup_op(cli_op(analysis_argv("gcc"), env), checker)
            setups.append(time.perf_counter() - start)
        ops = _timed_ops(workload, seed, seconds,
                         lambda argv: cli_op(argv, env, cache_dir), checker)
    finally:
        if cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)
    peak_mb = max(op.rss_kb for op in ops if op.ok) / 1024.0 \
        if any(op.ok for op in ops) else 0.0
    return _result(ops, checker, setups, peak_mb)


def start_daemon(spec: Spec, env: Dict[str, str],
                 checker: Checker) -> Daemon:
    """A daemon on an empty cache; serve-warm also warms every argv."""
    daemon = Daemon(env)
    try:
        if not spec.distinct:
            for bench in dict.fromkeys(spec.mix):
                _setup_op(serve_op(daemon.client, analysis_argv(bench)),
                          checker)
    except BaseException:
        daemon.close()
        raise
    return daemon


def _measure_serve(workload: str, spec: Spec, seed: int, seconds: float,
                   env: Dict[str, str], checker: Checker) -> RunResult:
    setups: List[float] = []
    daemon = None
    try:
        for _ in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.close()
                daemon = None
            start = time.perf_counter()
            daemon = start_daemon(spec, env, checker)
            setups.append(time.perf_counter() - start)
        ops = _timed_ops(workload, seed, seconds,
                         lambda argv: serve_op(daemon.client, argv), checker)
        peak_mb = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.close()
    return _result(ops, checker, setups, peak_mb)
