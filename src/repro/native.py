"""On-demand native C kernels: compiled once per host, loaded once per process.

Both C kernels -- the graph sweep (:mod:`repro.graph.engine`) and the
simulator core (:mod:`repro.uarch.fastcore`) -- declare one
:class:`NativeKernel`.  Its library lives in the system temp directory
as ``<stem>-<digest>-<uid>.so``, the digest covering the C source *and*
the compiler flags, so changing either never loads a stale library.
Compiles are serialized across processes by :func:`compile_lock`, which
prints :data:`CONTENTION_NOTE` when it has to wait; the winner writes a
pid-unique tmp file and publishes it with ``os.replace``, and a waiter
re-checks under the lock and finds the published library.  After a
publish the winner prunes the stem's libraries of every other digest;
a process whose library was pruned before it loaded compiles again.  A
failure the user did not opt out of yields one stderr warning per
process, which the CLI collects from :data:`KERNELS`.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

import repro.obs as obs

#: The stderr line printed when a compile waits on a concurrent one
#: (``{what}``/``{path}`` filled in; tests pin this text).
CONTENTION_NOTE = ("note: waiting for a concurrent {what} compile "
                   "({path})")

#: Status reason of a kernel nothing has asked for yet.
NOT_ATTEMPTED = "not attempted"

#: Compilers tried in turn, and the flags every kernel is built with.
COMPILERS = ("cc", "gcc", "clang")
SHARED_FLAGS = ("-shared", "-fPIC")

#: How often a load compiles again when its library vanished before it
#: was loaded (pruned by a concurrent compile of another digest).
LOAD_ATTEMPTS = 3

#: Every kernel declared in this process, in declaration order.
KERNELS: List["NativeKernel"] = []


def _uid() -> int:
    return getattr(os, "getuid", lambda: 0)()


def i64_ptr(arr: Any) -> Any:
    """A contiguous int64 numpy array as an ``int64_t *`` argument."""
    return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))


@contextlib.contextmanager
def compile_lock(lib_path: str, what: str = "native kernel"
                 ) -> Iterator[bool]:
    """Hold an advisory exclusive flock on ``<lib_path>.lock``.

    Yields ``True`` when another compile held it (this process printed
    the note and waited), ``False`` otherwise -- including platforms
    without ``fcntl``, where the tmp + ``os.replace`` publish alone
    keeps a published library intact.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platform
        yield False
        return
    # an unwritable temp dir raises here, and the load reports it
    fd = os.open(lib_path + ".lock", os.O_CREAT | os.O_RDWR, 0o644)
    waited = False
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            waited = True
            print(CONTENTION_NOTE.format(what=what, path=lib_path),
                  file=sys.stderr)
            fcntl.flock(fd, fcntl.LOCK_EX)
        yield waited
    finally:
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)


class NativeKernel:
    """One C kernel, compiled on demand and loaded through ctypes.

    *label* names it in logs and the contention note; *flags* are its
    optimization flags (:data:`SHARED_FLAGS` are added); a set
    *env_var* opts out; *stem* prefixes the library name; *bind* gets
    the ``ctypes.CDLL``, sets the signatures and returns what
    :meth:`load` hands out; *warning* has a ``{reason}`` field.
    """

    def __init__(self, label: str, source: str, flags: Sequence[str],
                 env_var: str, stem: str, bind: Callable[[Any], Any],
                 warning: str) -> None:
        self.label = label
        self.source = source
        self.flags = tuple(flags)
        self.env_var = env_var
        self.stem = stem
        self.bind = bind
        self.warning = warning
        self.reset()
        KERNELS.append(self)

    def reset(self) -> None:
        """Forget the load decision (and whether it warned)."""
        self.fn: Any = None
        self.reason = NOT_ATTEMPTED
        self.warned = False

    def lib_path(self) -> str:
        """Where this kernel's library is (or will be) published."""
        blob = "\0".join((self.source,) + self.flags + SHARED_FLAGS)
        digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
        return os.path.join(tempfile.gettempdir(),
                            f"{self.stem}-{digest}-{_uid()}.so")

    def load(self) -> Any:
        """The bound kernel, or None; decided once until :meth:`reset`."""
        if self.reason == NOT_ATTEMPTED:
            self.fn, self.reason = self._open()
            if self.fn is None:
                obs.get_logger("native").info(
                    "native %s kernel unavailable: %s",
                    self.label, self.reason)
        return self.fn

    def status(self) -> Tuple[bool, str]:
        """``(available, reason)``; the reason is ``"not attempted"``
        until something first asks for the kernel."""
        return self.fn is not None, self.reason

    def fallback_warning(self) -> Optional[str]:
        """The warning, the first time it is asked for after the kernel
        failed for a reason other than the opt-out; None otherwise."""
        if (self.fn is not None or self.warned
                or self.reason == NOT_ATTEMPTED
                or os.environ.get(self.env_var)):
            return None
        self.warned = True
        return self.warning.format(reason=self.reason)

    def _open(self) -> Tuple[Any, str]:
        try:
            import numpy  # noqa: F401 - both kernels run on numpy arrays
        except ImportError:  # pragma: no cover - numpy ships with the package
            return None, "numpy unavailable"
        if os.environ.get(self.env_var):
            return None, f"disabled by {self.env_var}"
        lib_path = self.lib_path()
        try:
            for _ in range(LOAD_ATTEMPTS):
                if not os.path.exists(lib_path):
                    with compile_lock(lib_path, self.label):
                        reason = self._compile(lib_path)
                    if reason is not None:
                        return None, reason
                try:
                    lib = ctypes.CDLL(lib_path)
                except OSError:
                    if os.path.exists(lib_path):
                        raise
                    continue  # pruned by a compile of another digest
                return self.bind(lib), f"loaded ({lib_path})"
            return None, (f"compile/load failed: {lib_path} was removed "
                          f"{LOAD_ATTEMPTS} times before it loaded")
        except (OSError, subprocess.SubprocessError) as exc:
            return None, f"compile/load failed: {exc}"

    def _compile(self, lib_path: str) -> Optional[str]:
        """Publish *lib_path* (under the lock); the failure reason, or
        None once it exists -- possibly from a concurrent compile."""
        if os.path.exists(lib_path):
            return None
        src_path = lib_path[:-3] + ".c"
        with open(src_path, "w") as fh:
            fh.write(self.source)
        tmp_path = f"{lib_path}.{os.getpid()}.tmp"
        errors = []
        for compiler in COMPILERS:
            try:
                proc = subprocess.run(
                    [compiler, *self.flags, *SHARED_FLAGS, "-o", tmp_path,
                     src_path], capture_output=True, timeout=60)
            except (OSError, subprocess.SubprocessError) as exc:
                errors.append(f"{compiler}: {exc}")  # missing or hung
                continue
            if proc.returncode == 0:
                os.replace(tmp_path, lib_path)
                self._prune(lib_path)
                return None
            stderr = proc.stderr.decode(errors="replace").strip()
            detail = stderr.splitlines()[-1] if stderr \
                else f"exit {proc.returncode}"
            errors.append(f"{compiler}: {detail}")
        return "no working C compiler (" + "; ".join(errors) + ")"

    def _prune(self, lib_path: str) -> None:
        """Remove this stem's ``.so``/``.c``/``.so.lock`` files of every
        digest but *lib_path*'s; a file already gone is no error."""
        folder, own = os.path.split(lib_path[:-len(".so")])
        pattern = re.compile(re.escape(self.stem) + r"-[0-9a-f]{16}-"
                             + str(_uid()) + r"\.(so|c|so\.lock)")
        for name in os.listdir(folder):
            if pattern.fullmatch(name) and name.split(".")[0] != own:
                try:
                    os.remove(os.path.join(folder, name))
                except FileNotFoundError:
                    pass


def reset_all() -> None:
    """Re-arm every declared kernel (pool children call this)."""
    for kernel in KERNELS:
        kernel.reset()


def fallback_warnings() -> List[str]:
    """The pending one-shot fallback warnings of every declared kernel."""
    return [w for w in (k.fallback_warning() for k in KERNELS) if w]
