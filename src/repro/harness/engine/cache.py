"""Persistent on-disk result cache for sweep cells.

One JSON file per measurement, named by its cell fingerprint and sharded
into 256 two-hex-digit subdirectories.  Entries embed the export schema
version, :data:`~repro.harness.engine.fingerprint.CONSTANTS_VERSION`
and a SHA-256 content digest over the measurement payload; any mismatch
on read counts as an eviction (the bad file is deleted) and the cell is
recomputed.  Every corruption path self-heals the same way — a decode
failure, a stale version, a missing/incorrect digest and a semantically
broken payload all evict, count, and return a miss, so one bad byte on
disk can never kill a campaign.  ``repro fsck`` additionally quarantines
(rather than deletes) entries whose digest proves a bit-flip, for
post-mortem.

Writes are atomic (temp file + ``os.replace``) and the in-process
hit/miss/store/evict counters are lock-protected, so the cache is safe
to share across the daemon's threads.  The store is additionally safe
for *multi-process* writers (the ``--engine process`` fan-out): every
replace and eviction runs under a per-digest advisory file lock
(``fcntl.flock`` on a ``<entry>.lock`` sidecar, degrading to the
in-process lock where ``fcntl`` is unavailable), :meth:`ResultCache.put`
is compare-and-swap — it re-checks for a valid entry under the lock and
drops its own bytes if another writer already landed one — and
:meth:`ResultCache._evict` re-validates under the lock so it can never
unlink a fresh entry that a concurrent writer just produced.

A writer killed between ``mkstemp`` and ``os.replace`` leaves an
orphaned ``*.tmp`` file; :meth:`ResultCache.clear`, ``repro fsck`` and
:meth:`ResultCache.disk_stats` all account for those.  Cleanup only
touches temp files older than :data:`TMP_GRACE_SECONDS`, so it cannot
unlink another worker's in-flight temp file.  Lock sidecars abandoned
by SIGKILL'd workers are reaped the same way, behind the
:data:`LOCK_GRACE_SECONDS` age grace (``flock`` locks die with their
holder, so a *stale* sidecar is pure litter — but removing a *live*
one would hand two processes different inodes for the same digest).

Disk pressure: the cache is an accelerator, never a correctness
dependency, so a full disk must not kill a campaign.  An ``ENOSPC`` /
``EDQUOT`` during :meth:`ResultCache.put` triggers a best-effort
:meth:`ResultCache.reclaim_space` (aged temp orphans + stale locks) and
one retry; if the store is still full the cache flips into *read-only
degraded mode* — reads keep serving, every further store is counted and
skipped, and the campaign recomputes what it cannot cache.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from ...chaos.plan import chaos_strike
from ...core.types import Precision
from ...errors import CacheError
from ...ioutil import content_digest
from ..export import (
    SCHEMA_VERSION,
    measurement_from_dict,
    measurement_to_dict,
)
from ..results import Measurement
from .fingerprint import CONSTANTS_VERSION

__all__ = ["CacheStats", "ResultCache", "default_cache_dir",
           "TMP_GRACE_SECONDS", "LOCK_GRACE_SECONDS"]

#: Minimum age before an orphaned ``*.tmp`` file may be unlinked by
#: cleanup (:meth:`ResultCache.clear`, ``repro fsck``).  A concurrent
#: worker's in-flight temp file is at most milliseconds old; anything
#: past this window belongs to a writer that died mid-``put``.
TMP_GRACE_SECONDS = 60.0

#: Same age grace for ``*.lock`` sidecars: a live writer holds its lock
#: for milliseconds, so a sidecar this old belongs to a worker that was
#: SIGKILL'd mid-``put`` (the kernel released the ``flock`` with it).
LOCK_GRACE_SECONDS = 60.0


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro/results``."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return explicit
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro", "results")


@dataclass
class CacheStats:
    """In-process cache counters (one engine run or many)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, *, hits: int = 0, misses: int = 0, stores: int = 0,
               evictions: int = 0) -> None:
        """Atomically bump one or more counters."""
        with self._lock:
            self.hits += hits
            self.misses += misses
            self.stores += stores
            self.evictions += evictions

    def snapshot(self) -> Dict[str, int]:
        """Point-in-time copy of the counters."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "stores": self.stores, "evictions": self.evictions}

    def as_dict(self) -> Dict[str, int]:
        """Alias of :meth:`snapshot` for symmetry with the exporters."""
        return self.snapshot()


class ResultCache:
    """Fingerprint-keyed persistent store of :class:`Measurement` cells."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()
        self.stats = CacheStats()
        self._io_lock = threading.Lock()
        #: Degraded mode: a full disk flips the store read-only rather
        #: than crashing the campaign (reads keep serving).
        self.read_only = False
        self.pressure_reason = ""
        self._pressure_lock = threading.Lock()
        self._pressure = {"enospc": 0, "skipped_puts": 0, "reclaimed": 0}

    # -- paths ------------------------------------------------------------

    def _path(self, fingerprint: str) -> str:
        if len(fingerprint) < 3:
            raise CacheError(f"malformed fingerprint {fingerprint!r}")
        return os.path.join(self.root, fingerprint[:2], fingerprint + ".json")

    # -- locking ----------------------------------------------------------

    @contextlib.contextmanager
    def _digest_lock(self, path: str):
        """Advisory per-digest lock serialising replace/evict across
        processes.

        Taken on a ``<entry>.lock`` sidecar (never the entry itself, which
        ``os.replace`` swaps out from under an open descriptor).  Falls
        back to the in-process lock where ``fcntl`` is unavailable —
        single-process semantics are unchanged either way.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX
            with self._io_lock:
                yield
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(path + ".lock", os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    # -- read/write -------------------------------------------------------

    def _load_valid(self, path: str) -> "Tuple[str, Optional[Measurement]]":
        """Full validation of one entry file: ``(status, measurement)``.

        ``status`` is ``"missing"``, ``"invalid"`` (any corruption —
        undecodable bytes, stale versions, digest mismatch, semantically
        broken payload) or ``"ok"``.  Pure: touches no counters.
        """
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return "missing", None
        except (OSError, json.JSONDecodeError):
            return "invalid", None
        if (entry.get("schema") != SCHEMA_VERSION
                or entry.get("constants") != CONSTANTS_VERSION
                or "measurement" not in entry
                or entry.get("digest") != content_digest(entry["measurement"])):
            return "invalid", None
        try:
            raw_precision = entry["measurement"].get("precision", "fp64")
            m = measurement_from_dict(
                entry["measurement"],
                default_precision=Precision.parse(raw_precision))
        except (KeyError, TypeError, ValueError):
            return "invalid", None
        return "ok", m

    def get(self, fingerprint: str) -> Optional[Measurement]:
        """The cached measurement, or ``None`` on any miss/bad entry.

        Self-healing is uniform: undecodable files, stale schema or
        constants versions, digest mismatches and semantically corrupt
        payloads all evict the entry, bump the eviction counter and
        return ``None`` so the engine recomputes the cell.
        """
        path = self._path(fingerprint)
        status, m = self._load_valid(path)
        if status == "missing":
            self.stats.record(misses=1)
            return None
        if status == "invalid":
            self._evict(path)
            return None
        self.stats.record(hits=1)
        return m

    def put(self, fingerprint: str, measurement: Measurement,
            metadata: Optional[Dict[str, Any]] = None) -> bool:
        """Store one measurement atomically under its fingerprint.

        Compare-and-swap under the per-digest lock: if a concurrent
        writer already landed a valid entry, this writer's bytes are
        discarded (both raced the same pure cell, so the payloads agree)
        and the method returns ``False``.  Returns ``True`` when this
        call's entry is the one on disk.

        Disk pressure never propagates: ``ENOSPC``/``EDQUOT`` triggers
        one :meth:`reclaim_space` + retry, then flips the store into
        read-only degraded mode (skipped stores counted, reads still
        served) and returns ``False``.  Other ``OSError``\\ s raise.
        """
        if self.read_only:
            with self._pressure_lock:
                self._pressure["skipped_puts"] += 1
            return False
        path = self._path(fingerprint)
        payload = measurement_to_dict(measurement)
        entry = {
            "schema": SCHEMA_VERSION,
            "constants": CONSTANTS_VERSION,
            "fingerprint": fingerprint,
            "metadata": metadata or {},
            "measurement": payload,
            "digest": content_digest(payload),
        }
        directory = os.path.dirname(path)
        try:
            stored = self._write_entry(path, directory, entry, fingerprint)
        except OSError as exc:
            if exc.errno not in (errno.ENOSPC, errno.EDQUOT):
                raise
            self._note_pressure(exc)
            self.reclaim_space()
            try:
                stored = self._write_entry(path, directory, entry,
                                           fingerprint)
            except OSError as retry_exc:
                if retry_exc.errno not in (errno.ENOSPC, errno.EDQUOT):
                    raise
                self._note_pressure(retry_exc, flip=True)
                return False
        if stored:
            self.stats.record(stores=1)
        return stored

    def _write_entry(self, path: str, directory: str, entry: Dict[str, Any],
                     fingerprint: str) -> bool:
        # One atomic CAS write attempt; OSErrors propagate to put()'s
        # pressure handling.  Chaos strike point "cache-put": an armed
        # plan simulates a full disk here by raising ENOSPC.
        chaos_strike("cache-put", fingerprint)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh)
            with self._digest_lock(path):
                status, _ = self._load_valid(path)
                if status == "ok":
                    os.unlink(tmp)
                    return False
                os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return True

    def _note_pressure(self, exc: OSError, flip: bool = False) -> None:
        with self._pressure_lock:
            self._pressure["enospc"] += 1
            if flip and not self.read_only:
                self.read_only = True
                self.pressure_reason = exc.strerror or str(exc)
                print(f"repro: cache: disk pressure ({self.pressure_reason});"
                      " store is now read-only — reads still serve, new"
                      " results recompute instead of caching",
                      file=sys.stderr)

    def pressure_snapshot(self) -> Dict[str, Any]:
        """Point-in-time disk-pressure state and counters."""
        with self._pressure_lock:
            out: Dict[str, Any] = dict(self._pressure)
            out["read_only"] = self.read_only
            if self.pressure_reason:
                out["reason"] = self.pressure_reason
            return out

    def _evict(self, path: str) -> None:
        """Remove a bad entry — unless a concurrent writer already
        replaced it with a valid one (re-checked under the lock)."""
        with self._digest_lock(path):
            status, _ = self._load_valid(path)
            if status == "ok":
                # Our read raced a replace; the entry on disk is fine.
                # Count a plain miss and leave it for the next reader.
                self.stats.record(misses=1)
                return
            try:
                os.unlink(path)
            except OSError:
                pass
        self.stats.record(misses=1, evictions=1)

    # -- maintenance ------------------------------------------------------

    def clear(self) -> int:
        """Delete every entry (plus *aged* lock sidecars and orphaned
        temp files); returns how many *entries* were removed.

        Temp files younger than :data:`TMP_GRACE_SECONDS` and lock
        sidecars younger than :data:`LOCK_GRACE_SECONDS` are left
        alone: they may belong to another worker's in-flight write
        (unlinking a *held* lock file would hand the next locker a
        different inode — two owners for one digest).
        """
        removed = 0
        for path in self._entry_paths():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        for extra in list(self.orphan_tmp_paths(
                min_age_s=TMP_GRACE_SECONDS)) + list(self.stale_lock_paths()):
            try:
                os.unlink(extra)
            except OSError:
                pass
        return removed

    def reclaim_space(self) -> int:
        """Best-effort space recovery under disk pressure.

        Unlinks aged temp orphans and stale lock sidecars — the only
        store contents that are pure litter — and returns how many files
        were removed.  Called automatically by :meth:`put` on the first
        ``ENOSPC`` before the store degrades to read-only.
        """
        removed = 0
        for path in list(self.orphan_tmp_paths(
                min_age_s=TMP_GRACE_SECONDS)) + list(self.stale_lock_paths()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        with self._pressure_lock:
            self._pressure["reclaimed"] += removed
        return removed

    def _shard_dirs(self):
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            # Skip fsck's quarantine hold: quarantined entries must never
            # be served, cleared or counted as live store contents again.
            if shard == "quarantine":
                continue
            shard_dir = os.path.join(self.root, shard)
            if os.path.isdir(shard_dir):
                yield shard_dir

    def _entry_paths(self):
        for shard_dir in self._shard_dirs():
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    yield os.path.join(shard_dir, name)

    def orphan_tmp_paths(self, min_age_s: float = 0.0):
        """Temp files abandoned by writers killed mid-:meth:`put`.

        With ``min_age_s`` only temp files at least that old (by mtime)
        are yielded — cleanup callers pass :data:`TMP_GRACE_SECONDS` so a
        concurrent worker's in-flight temp file is never touched; stats
        callers pass 0 to count everything.
        """
        now = time.time()
        for shard_dir in self._shard_dirs():
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(".tmp"):
                    continue
                path = os.path.join(shard_dir, name)
                if min_age_s > 0.0:
                    try:
                        if now - os.path.getmtime(path) < min_age_s:
                            continue
                    except OSError:
                        continue
                yield path

    def _lock_paths(self):
        for shard_dir in self._shard_dirs():
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".lock"):
                    yield os.path.join(shard_dir, name)

    def stale_lock_paths(self, min_age_s: float = LOCK_GRACE_SECONDS):
        """Lock sidecars abandoned by workers killed mid-:meth:`put`.

        Only sidecars at least ``min_age_s`` old (by mtime) are yielded,
        mirroring :meth:`orphan_tmp_paths`'s grace: a live writer holds
        its lock for milliseconds, so anything past the window belongs
        to a SIGKILL'd worker.  Pass 0 to list every sidecar.
        """
        now = time.time()
        for path in self._lock_paths():
            if min_age_s > 0.0:
                try:
                    if now - os.path.getmtime(path) < min_age_s:
                        continue
                except OSError:
                    continue
            yield path

    def disk_stats(self) -> Dict[str, int]:
        """Entry count, total bytes, and orphaned temp files on disk."""
        entries = 0
        size = 0
        for path in self._entry_paths():
            try:
                size += os.path.getsize(path)
                entries += 1
            except OSError:
                pass
        tmp_orphans = sum(1 for _ in self.orphan_tmp_paths())
        return {"entries": entries, "bytes": size,
                "tmp_orphans": tmp_orphans}

    def render_stats(self) -> str:
        """Human-readable summary for ``repro cache stats``."""
        disk = self.disk_stats()
        counters = self.stats.snapshot()
        lines = [
            f"cache dir:  {self.root}",
            f"entries:    {disk['entries']}",
            f"disk bytes: {disk['bytes']}",
            f"schema:     v{SCHEMA_VERSION} "
            f"(constants {CONSTANTS_VERSION})",
            "this process: "
            f"{counters['hits']} hits, {counters['misses']} misses, "
            f"{counters['stores']} stores, "
            f"{counters['evictions']} evictions",
        ]
        if disk["tmp_orphans"]:
            lines.insert(3, f"tmp orphans: {disk['tmp_orphans']} "
                            "(writers killed mid-put; run `repro fsck`)")
        if self.read_only:
            pressure = self.pressure_snapshot()
            lines.append(
                f"DEGRADED: read-only under disk pressure "
                f"({self.pressure_reason}); {pressure['skipped_puts']} "
                f"store(s) skipped, {pressure['reclaimed']} file(s) "
                f"reclaimed")
        return "\n".join(lines)
