"""Persistent on-disk result cache for sweep cells.

One JSON file per measurement, named by its cell fingerprint and sharded
into 256 two-hex-digit subdirectories.  Entries embed the export schema
version, :data:`~repro.harness.engine.fingerprint.CONSTANTS_VERSION`,
the fingerprint they are filed under and a SHA-256 content digest over
the measurement payload.  :meth:`ResultCache.inspect` is the one rule
for what a valid entry is; :meth:`ResultCache.get` and ``repro fsck``
both apply it.  Every corruption path self-heals the same way on read —
a decode failure, a stale version, a misfiled entry, a missing or wrong
digest and a payload that does not decode all evict, count, and return
a miss, so one bad byte on disk can never kill a campaign.  ``repro
fsck`` quarantines (rather than deletes) the entries that lie about
themselves, for post-mortem.

Writes take no lock, so the store is safe for multi-process writers
(the ``--engine process`` fan-out) and the daemon's threads alike.
:meth:`ResultCache.put` writes a ``mkstemp`` temp file in the entry's
shard and publishes it with ``os.link(tmp, entry)``, an atomic
create-if-absent.  If an entry already exists and is valid, a racing
writer landed the same pure cell first and the put backs off; only an
invalid entry is overwritten, with ``os.replace``.  The temp file is
always unlinked, so a put that stores leaves one new file.
:meth:`ResultCache._evict` renames a bad entry aside to a unique
``*.tmp`` name in its shard and checks the moved file: if a concurrent
writer's fresh entry was what it moved, it links that entry back, so an
eviction can never lose a valid entry.  The store therefore needs a
filesystem with hard links (ext4, XFS, btrfs and tmpfs have them); it
takes no ``flock``.

A writer killed mid-``put`` leaves an orphaned ``*.tmp`` file, and
builds that locked each put left a ``<entry>.lock`` sidecar per entry.
:meth:`ResultCache.litter_paths` yields both; :meth:`ResultCache.clear`,
:meth:`ResultCache.reclaim_space`, :meth:`ResultCache.disk_stats` and
``repro fsck`` all use it.  Cleanup only touches files older than
:data:`TMP_GRACE_SECONDS`, so it cannot unlink another worker's
in-flight temp file.

Disk pressure: the cache is an accelerator, never a correctness
dependency, so a full disk must not kill a campaign.  An ``ENOSPC`` /
``EDQUOT`` during :meth:`ResultCache.put` triggers a best-effort
:meth:`ResultCache.reclaim_space` (aged litter) and one retry; if the
store is still full the cache flips into *read-only degraded mode* —
reads keep serving, every further store is counted and skipped, and the
campaign recomputes what it cannot cache.
"""

from __future__ import annotations

import errno
import json
import os
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ...chaos.plan import chaos_strike
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
           "TMP_GRACE_SECONDS"]

#: Minimum age before store litter (an orphaned ``*.tmp`` file or a
#: legacy ``*.lock`` sidecar) may be unlinked by cleanup.  A concurrent
#: worker's in-flight temp file is at most milliseconds old; anything
#: past this window belongs to a writer that died mid-``put``.
TMP_GRACE_SECONDS = 60.0


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


class ResultCache:
    """Fingerprint-keyed persistent store of :class:`Measurement` cells."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()
        self.stats = CacheStats()
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

    # -- read/write -------------------------------------------------------

    def inspect(self, path: str, fingerprint: str
                ) -> "Tuple[str, str, Optional[Measurement]]":
        """Check the entry file ``path`` filed under ``fingerprint``:
        ``(kind, detail, measurement)``.

        ``kind`` is ``"ok"`` (``measurement`` is the decoded cell),
        ``"missing"``, or one of the corruption kinds ``repro fsck``
        reports: ``cache-parse`` (undecodable file), ``cache-stale``
        (older schema/constants), ``cache-misfiled`` (names another
        fingerprint), ``cache-undigested`` (no content digest),
        ``cache-digest`` (digest mismatch) or ``cache-payload``
        (digest-valid but undecodable measurement).  ``detail`` says
        why, for reports.  Pure: touches no counters and no files.
        """
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return "missing", "", None
        except (OSError, ValueError) as exc:
            return "cache-parse", f"undecodable entry ({exc})", None
        if not isinstance(entry, dict):
            return "cache-parse", "entry is not a JSON object", None
        if (entry.get("schema") != SCHEMA_VERSION
                or entry.get("constants") != CONSTANTS_VERSION):
            return ("cache-stale",
                    f"schema/constants {entry.get('schema')!r}/"
                    f"{entry.get('constants')!r} predate this build", None)
        if entry.get("fingerprint") != fingerprint:
            return ("cache-misfiled",
                    f"entry names fingerprint {entry.get('fingerprint')!r}",
                    None)
        stated = entry.get("digest")
        if stated is None:
            return "cache-undigested", "entry predates content digests", None
        payload = entry.get("measurement")
        actual = content_digest(payload)
        if stated != actual:
            return ("cache-digest",
                    f"content digest mismatch (stated {str(stated)[:12]}..., "
                    f"actual {actual[:12]}...)", None)
        try:
            m = measurement_from_dict(payload)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return ("cache-payload",
                    f"digest-valid measurement does not decode ({exc!r})",
                    None)
        return "ok", "", m

    def get(self, fingerprint: str) -> Optional[Measurement]:
        """The cached measurement, or ``None`` on any miss/bad entry.

        Self-healing is uniform: every kind :meth:`inspect` reports
        other than ``ok`` and ``missing`` evicts the entry, bumps the
        eviction counter and returns ``None`` so the engine recomputes
        the cell.
        """
        path = self._path(fingerprint)
        kind, _, m = self.inspect(path, fingerprint)
        if kind == "ok":
            self.stats.record(hits=1)
        elif kind == "missing":
            self.stats.record(misses=1)
        else:
            self._evict(path)
        return m

    def put(self, fingerprint: str, measurement: Measurement,
            metadata: Optional[Dict[str, Any]] = None) -> bool:
        """Store one measurement atomically under its fingerprint.

        Create-if-absent: if a concurrent writer already landed a valid
        entry, this writer's bytes are discarded (both raced the same
        pure cell, so the payloads agree) and the method returns
        ``False``.  Returns ``True`` when this call's entry is the one
        on disk.

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
        # One atomic create-if-absent attempt; OSErrors propagate to
        # put()'s pressure handling.  Chaos strike point "cache-put": an
        # armed plan simulates a full disk here by raising ENOSPC.
        chaos_strike("cache-put", fingerprint)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh)
            try:
                os.link(tmp, path)
            except FileExistsError:
                if self.inspect(path, fingerprint)[0] == "ok":
                    return False
                os.replace(tmp, path)
            return True
        finally:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass  # os.replace moved it into place

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
        """Remove a bad entry — unless what sits at ``path`` by now is a
        concurrent writer's valid one, which is put back."""
        moved = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
        try:
            os.rename(path, moved)
        except OSError:
            # Another reader or fsck moved the bad entry first.
            self.stats.record(misses=1, evictions=1)
            return
        fingerprint = os.path.splitext(os.path.basename(path))[0]
        restored = self.inspect(moved, fingerprint)[0] == "ok"
        if restored:
            # Our read raced a writer; the moved entry is fine.  A newer
            # entry may already be in place, or cleanup may have reaped
            # the moved file (it keeps the entry's mtime): nothing to do.
            try:
                os.link(moved, path)
            except OSError:
                pass
        try:
            os.unlink(moved)
        except OSError:
            pass
        self.stats.record(misses=1, evictions=0 if restored else 1)

    # -- maintenance ------------------------------------------------------

    def clear(self) -> int:
        """Delete every entry (plus litter past its grace); returns how
        many *entries* were removed.

        Litter younger than :data:`TMP_GRACE_SECONDS` is left alone: it
        may be another worker's in-flight write.
        """
        removed = 0
        for path in self._entry_paths():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        self._unlink_all(self.litter_paths(TMP_GRACE_SECONDS))
        return removed

    def reclaim_space(self) -> int:
        """Best-effort space recovery under disk pressure.

        Unlinks aged litter — the only store contents that are not
        entries — and returns how many files were removed.  Called
        automatically by :meth:`put` on the first ``ENOSPC`` before the
        store degrades to read-only.
        """
        removed = self._unlink_all(self.litter_paths(TMP_GRACE_SECONDS))
        with self._pressure_lock:
            self._pressure["reclaimed"] += removed
        return removed

    @staticmethod
    def _unlink_all(paths) -> int:
        removed = 0
        for path in list(paths):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
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

    def litter_paths(self, min_age_s: float = 0.0):
        """Store files that are not entries: ``*.tmp`` files (writers
        killed mid-:meth:`put`) and the ``*.lock`` sidecars that builds
        with a locking put left behind.

        With ``min_age_s`` only files at least that old (by mtime) are
        yielded — cleanup callers pass :data:`TMP_GRACE_SECONDS` so a
        concurrent worker's in-flight temp file is never touched; stats
        callers pass 0 to count everything.
        """
        now = time.time()
        for shard_dir in self._shard_dirs():
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith((".tmp", ".lock")):
                    continue
                path = os.path.join(shard_dir, name)
                if min_age_s > 0.0:
                    try:
                        if now - os.path.getmtime(path) < min_age_s:
                            continue
                    except OSError:
                        continue
                yield path

    def disk_stats(self) -> Dict[str, int]:
        """Entry count, total bytes, and litter files on disk."""
        entries = 0
        size = 0
        for path in self._entry_paths():
            try:
                size += os.path.getsize(path)
                entries += 1
            except OSError:
                pass
        tmp_orphans = sum(1 for _ in self.litter_paths())
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
                            "(killed writers, older builds' locks; "
                            "run `repro fsck`)")
        if self.read_only:
            pressure = self.pressure_snapshot()
            lines.append(
                f"DEGRADED: read-only under disk pressure "
                f"({self.pressure_reason}); {pressure['skipped_puts']} "
                f"store(s) skipped, {pressure['reclaimed']} file(s) "
                f"reclaimed")
        return "\n".join(lines)
