"""The append-only run ledger: persistent memory across analysis runs.

The in-process :mod:`repro.obs` collector dies with the process; the
ledger is what survives.  Every recorded run appends one **manifest**
-- a self-describing JSON document (:mod:`repro.obs.ledger.manifest`)
-- as one line of ``ledger.jsonl`` under the ledger directory
(``$REPRO_LEDGER_DIR`` or an explicit path).

Concurrency follows the :class:`repro.pipeline.artifacts.ArtifactCache`
discipline of never exposing a partial artifact: each manifest is
rendered to its line off to the side first, then published with a
*single* ``write(2)`` on an ``O_APPEND`` descriptor -- the append-only
analogue of the cache's tmp-file + atomic rename -- so concurrent
writers sharing one ledger can interleave whole lines but never split
one.  Readers tolerate (and report) trailing garbage from torn writes
on non-POSIX filesystems rather than refusing the whole ledger.

A ledger with no directory configured is *disabled*: every append is a
no-op and every read sees an empty ledger, so callers never
special-case ``--no-ledger`` (mirroring the disabled artifact cache).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

import repro.obs as obs

__all__ = [
    "LEDGER_DIR_ENV",
    "LEDGER_FILENAME",
    "INDEX_FILENAME",
    "LedgerError",
    "RunLedger",
    "open_ledger",
    "run_summary",
    "validate_manifest",
]

#: Environment variable supplying a default ledger directory.
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"

#: The append-only JSONL file inside the ledger directory.
LEDGER_FILENAME = "ledger.jsonl"

#: The byte-offset sidecar index next to it (a pure cache: deleting it
#: only costs one rescan).
INDEX_FILENAME = "ledger.index.jsonl"

#: Required top-level sections of a manifest and their types.  The
#: schema is deliberately shallow: deep content is versioned by
#: ``schema`` and digested into ``run``/``result``, so old readers can
#: always list/diff newer manifests.
_REQUIRED: Dict[str, type] = {
    "schema": int,
    "meta": dict,
    "run": dict,
    "phases": dict,
    "counters": dict,
    "metrics": dict,
    "perf": dict,
    "result": dict,
}

#: Required keys inside the sections the tooling navigates by.
_REQUIRED_META = ("run_id", "timestamp", "host")
_REQUIRED_RUN = ("command", "config_digest")


class LedgerError(ValueError):
    """A malformed manifest or an unresolvable run reference."""


def validate_manifest(manifest: Any) -> List[str]:
    """The list of schema problems of *manifest* (empty when valid)."""
    problems: List[str] = []
    if not isinstance(manifest, dict):
        return [f"manifest is {type(manifest).__name__}, not an object"]
    for key, kind in _REQUIRED.items():
        if key not in manifest:
            problems.append(f"missing section {key!r}")
        elif not isinstance(manifest[key], kind):
            problems.append(f"section {key!r} is "
                            f"{type(manifest[key]).__name__}, "
                            f"not {kind.__name__}")
    for key in _REQUIRED_META:
        if key not in manifest.get("meta", {}):
            problems.append(f"missing meta.{key}")
    for key in _REQUIRED_RUN:
        if key not in manifest.get("run", {}):
            problems.append(f"missing run.{key}")
    return problems


class RunLedger:
    """Append-only JSONL store of run manifests.

    *root* is the ledger directory; ``None`` consults
    :data:`LEDGER_DIR_ENV`, and a ledger with no root is disabled.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        if root is None:
            root = _ledger_dir_from_env()
        self.root = root
        #: one-line parse problems encountered by the last :meth:`runs`
        self.read_errors: List[str] = []
        # sidecar-index state: valid entries (append order), skipped
        # line count, and how many leading ledger bytes are covered
        self._index: List[Dict[str, Any]] = []
        self._index_skips = 0
        self._index_pos = 0
        self._index_loaded = False

    @property
    def enabled(self) -> bool:
        return self.root is not None

    @property
    def path(self) -> str:
        """The ledger file location (raises when disabled)."""
        if not self.enabled:
            raise RuntimeError("run ledger is disabled")
        return os.path.join(self.root, LEDGER_FILENAME)

    @property
    def index_path(self) -> str:
        """The sidecar index location (raises when disabled)."""
        if not self.enabled:
            raise RuntimeError("run ledger is disabled")
        return os.path.join(self.root, INDEX_FILENAME)

    # -- writing -------------------------------------------------------

    def append(self, manifest: Dict[str, Any]) -> Optional[str]:
        """Validate and publish *manifest*; returns its run id.

        The encoded line is written with one ``os.write`` on an
        ``O_APPEND`` descriptor so concurrent appenders never interleave
        within a line.  A disabled ledger returns ``None`` untouched.
        """
        if not self.enabled:
            return None
        problems = validate_manifest(manifest)
        if problems:
            raise LedgerError("refusing to append malformed manifest: "
                              + "; ".join(problems))
        line = json.dumps(manifest, sort_keys=True,
                          separators=(",", ":")) + "\n"
        os.makedirs(self.root, exist_ok=True)
        fd = os.open(self.path,
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        obs.count("ledger.append")
        return manifest["meta"]["run_id"]

    # -- reading -------------------------------------------------------

    def runs(self, strict: bool = False) -> List[Dict[str, Any]]:
        """Every manifest in append order (oldest first).

        Unparseable or schema-invalid lines are skipped and recorded in
        :attr:`read_errors` (``strict=True`` raises instead), so one
        torn write cannot take the history with it.
        """
        self.read_errors = []
        if not self.enabled or not os.path.exists(self.path):
            return []
        out: List[Dict[str, Any]] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    manifest = json.loads(line)
                except json.JSONDecodeError as exc:
                    self._problem(f"line {lineno}: {exc}", strict)
                    continue
                problems = validate_manifest(manifest)
                if problems:
                    self._problem(
                        f"line {lineno}: " + "; ".join(problems), strict)
                    continue
                out.append(manifest)
        return out

    def _problem(self, message: str, strict: bool) -> None:
        if strict:
            raise LedgerError(message)
        self.read_errors.append(message)
        obs.count("ledger.read_error")

    # -- the sidecar index ---------------------------------------------
    #
    # Listing a multi-thousand-run ledger must stay O(page), not
    # O(history): the index records, for every *valid* manifest line,
    # its byte offset + length plus the handful of fields listings and
    # filters navigate by (run id, command, workload, config digest,
    # time).  It is a pure cache with the ledger's own durability
    # discipline -- whole-line O_APPEND extension, torn/duplicate lines
    # tolerated on load -- and a contiguity check that rescans from the
    # first gap, so a corrupt or stale sidecar can only cost time,
    # never correctness.

    def _entry_for(self, offset: int, length: int,
                   line: str) -> Dict[str, Any]:
        """The index entry of one raw ledger line (skip entry if bad)."""
        try:
            manifest = json.loads(line)
        except json.JSONDecodeError:
            return {"o": offset, "l": length, "skip": True}
        if validate_manifest(manifest):
            return {"o": offset, "l": length, "skip": True}
        meta, run = manifest["meta"], manifest["run"]
        return {
            "o": offset,
            "l": length,
            "id": meta["run_id"],
            "ts": meta["timestamp"],
            "t": meta.get("unix_time", 0.0),
            "cmd": run["command"],
            "wl": (run.get("config") or {}).get("workload"),
            "cfg": run["config_digest"],
        }

    def _load_sidecar(self) -> None:
        """Adopt the longest contiguous prefix of the sidecar file."""
        self._index, self._index_skips, self._index_pos = [], 0, 0
        self._index_loaded = True
        if not os.path.exists(self.index_path):
            return
        raw: List[Dict[str, Any]] = []
        with open(self.index_path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.endswith("\n"):
                    break  # torn trailing sidecar line: ignore
                try:
                    raw.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # torn mid-file line: the gap check below
        seen: Dict[int, Dict[str, Any]] = {}
        for entry in raw:
            if isinstance(entry, dict) and isinstance(
                    entry.get("o"), int) and isinstance(
                    entry.get("l"), int):
                seen.setdefault(entry["o"], entry)
        expected = 0
        for offset in sorted(seen):
            entry = seen[offset]
            if offset != expected:
                break  # gap (lost/torn line): rescan from here
            expected += entry["l"]
            if entry.get("skip"):
                self._index_skips += 1
            else:
                self._index.append(entry)
        self._index_pos = expected
        obs.count("ledger.index.load")

    def _extend_index(self) -> None:
        """Scan (only) the ledger bytes the index does not cover yet."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        if size < self._index_pos:
            # the append-only contract was broken (rotation, manual
            # edit): the cache is worthless, rebuild it from scratch
            try:
                os.unlink(self.index_path)
            except OSError:
                pass
            self._load_sidecar()
        if size <= self._index_pos:
            return
        new_entries: List[Dict[str, Any]] = []
        scanned = 0
        with open(self.path, "rb") as handle:
            handle.seek(self._index_pos)
            offset = self._index_pos
            for raw in handle:
                if not raw.endswith(b"\n"):
                    break  # torn trailing line: index it once complete
                entry = self._entry_for(offset, len(raw),
                                        raw.decode("utf-8", "replace"))
                new_entries.append(entry)
                offset += len(raw)
                scanned += len(raw)
        if not new_entries:
            return
        lines = "".join(json.dumps(e, sort_keys=True,
                                   separators=(",", ":")) + "\n"
                        for e in new_entries)
        fd = os.open(self.index_path,
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, lines.encode("utf-8"))
        finally:
            os.close(fd)
        for entry in new_entries:
            if entry.get("skip"):
                self._index_skips += 1
            else:
                self._index.append(entry)
        self._index_pos = offset
        obs.count("ledger.index.extend")
        obs.count("ledger.index.scan_bytes", scanned)

    def refresh_index(self) -> List[Dict[str, Any]]:
        """The up-to-date index entries, oldest first (O(new bytes))."""
        if not self.enabled:
            return []
        if not self._index_loaded:
            self._load_sidecar()
        os.makedirs(self.root, exist_ok=True)
        self._extend_index()
        return self._index

    def read_at(self, offset: int, length: int) -> Dict[str, Any]:
        """The manifest published at ``[offset, offset+length)``."""
        with open(self.path, "rb") as handle:
            handle.seek(offset)
            raw = handle.read(length)
        try:
            manifest = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise LedgerError(
                f"stale ledger index at byte {offset}: {exc}")
        return manifest

    def page(self, limit: Optional[int] = 50, offset: int = 0,
             analysis: Optional[str] = None,
             workload: Optional[str] = None,
             since: Optional[Any] = None) -> Dict[str, Any]:
        """One page of run summaries, newest first, in O(page) reads.

        Filtering (*analysis* = the recorded command, *workload*,
        *since* = unix seconds or an ISO timestamp prefix) happens on
        the index alone; only the page's own manifest lines are read
        back from the ledger file.  Ordering is stable: descending
        append order, offset/limit over the filtered sequence.
        """
        if not self.enabled:
            return {"enabled": False, "total": 0, "limit": limit,
                    "offset": offset, "runs": []}
        with obs.span("ledger.page", limit=limit, offset=offset):
            entries = list(self.refresh_index())
            entries.reverse()  # newest first
            if analysis is not None:
                entries = [e for e in entries if e["cmd"] == analysis]
            if workload is not None:
                entries = [e for e in entries if e["wl"] == workload]
            if since is not None:
                try:
                    floor = float(since)
                    entries = [e for e in entries
                               if float(e.get("t") or 0.0) >= floor]
                except (TypeError, ValueError):
                    entries = [e for e in entries
                               if e.get("ts", "") >= str(since)]
            total = len(entries)
            window = entries[offset:] if limit is None \
                else entries[offset:offset + max(0, limit)]
            runs = [run_summary(self.read_at(e["o"], e["l"]))
                    for e in window]
            if window:
                obs.count("ledger.page.lines_read", len(window))
        return {"enabled": True, "total": total, "limit": limit,
                "offset": offset, "skipped_lines": self._index_skips,
                "runs": runs}

    def get(self, ref: str) -> Dict[str, Any]:
        """Resolve *ref* to one manifest, via the index (O(1) reads).

        *ref* may be a full run id, a unique run-id prefix, or a
        negative index (``-1`` = most recent append).  Ambiguous or
        unknown references raise :class:`LedgerError`.
        """
        entries = self.refresh_index()
        try:
            index = int(ref)
        except ValueError:
            index = None
        if index is not None and index < 0:
            if -index > len(entries):
                raise LedgerError(
                    f"ledger holds {len(entries)} run(s); no run {ref}")
            entry = entries[index]
            return self.read_at(entry["o"], entry["l"])
        matches = [e for e in entries if e["id"].startswith(ref)]
        if not matches:
            raise LedgerError(f"no run matching {ref!r} "
                              f"({len(entries)} run(s) in the ledger)")
        distinct = {e["id"] for e in matches}
        if len(distinct) > 1:
            raise LedgerError(
                f"run reference {ref!r} is ambiguous: "
                + ", ".join(sorted(distinct)))
        entry = matches[-1]  # identical re-runs: latest wins
        return self.read_at(entry["o"], entry["l"])


def run_summary(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """The listing row of one manifest (the ``/v1/runs`` item shape)."""
    meta, run = manifest["meta"], manifest["run"]
    return {
        "run_id": meta["run_id"],
        "recorded": meta["timestamp"],
        "unix_time": meta.get("unix_time", 0.0),
        "analysis": run["command"],
        "workload": (run.get("config") or {}).get("workload"),
        "config_digest": run["config_digest"][:12],
        "wall_ms": manifest.get("perf", {}).get("wall_ms", 0.0),
        "result_type": manifest.get("result", {}).get("type"),
    }


def _ledger_dir_from_env() -> Optional[str]:
    """``$REPRO_LEDGER_DIR``, or None when it is unset or empty.

    ``os.environ.get`` raises and catches two KeyErrors on an unset
    variable (~1.5 us, nearly all of a disabled :func:`open_ledger`),
    so the mapping behind ``os.environ``, which it keeps in step with
    every change, is asked directly.
    """
    try:
        raw = os.environ._data.get(_LEDGER_DIR_KEY)
    except AttributeError:  # pragma: no cover - not CPython's os.environ
        return os.environ.get(LEDGER_DIR_ENV) or None
    return os.environ.decodevalue(raw) if raw else None


try:
    _LEDGER_DIR_KEY = os.environ.encodekey(LEDGER_DIR_ENV)
except AttributeError:  # pragma: no cover - not CPython's os.environ
    _LEDGER_DIR_KEY = LEDGER_DIR_ENV


def open_ledger(root: Optional[str] = None,
                disabled: bool = False) -> RunLedger:
    """The run ledger an invocation should record into.

    ``disabled`` wins over everything, including a configured
    ``$REPRO_LEDGER_DIR`` -- it returns a ledger whose appends are
    no-ops (the ``--no-ledger`` contract).
    """
    if disabled:
        ledger = RunLedger.__new__(RunLedger)
        ledger.root = None
        ledger.read_errors = []
        ledger._index = []
        ledger._index_skips = 0
        ledger._index_pos = 0
        ledger._index_loaded = False
        return ledger
    return RunLedger(root)
