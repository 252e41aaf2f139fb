"""``repro fsck``: integrity verification of the whole persistent store.

Three stores accumulate state across campaigns — the result cache, the
run-journal registry, and exported JSON artifacts — and all three live
on filesystems that bit-rot, fill up, and host processes that die
mid-write.  ``fsck_store`` walks them all:

* **cache entries** are checked by :meth:`ResultCache.inspect`, the
  same rule the cache's reads apply: they must parse, carry the current
  schema/constants versions, name the fingerprint they are filed under,
  match their embedded SHA-256 content digest and decode.  Entries that
  lie about themselves are *quarantined* (moved aside for post-mortem,
  never served again); stale-but-honest entries are evicted; aged
  litter (``*.tmp`` files from writers killed mid-``put``, ``*.lock``
  sidecars from older builds) is removed.
* **journals** must replay cleanly; a torn tail is recovered by
  truncating to the longest valid record prefix (the write-ahead
  guarantee makes that prefix trustworthy), unreadable journals are
  quarantined into ``<runs_root>/quarantine/`` (so ``repro runs list``
  stops tripping over them), and unclosed runs are reported as
  resumable.
* **artifacts** (paths passed explicitly) must match their embedded
  content digest.

The report distinguishes *corruption* (bit-flips, torn tails — data that
lies about itself) from *hygiene* findings (stale versions, orphaned
temp files, resumable runs); ``repro fsck`` exits non-zero only for the
former.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ...errors import JournalError
from ...ioutil import read_json_artifact
from ..engine.cache import TMP_GRACE_SECONDS, ResultCache
from .journal import load_journal, _truncate_to_valid_prefix
from .registry import RunRegistry

__all__ = ["FsckIssue", "FsckReport", "fsck_store"]


@dataclass(frozen=True)
class FsckIssue:
    """One finding: what was wrong where, and what fsck did about it."""

    severity: str   # "corrupt" | "warning"
    kind: str       # e.g. "cache-digest", "journal-tail", "tmp-orphan"
    path: str
    detail: str
    action: str     # what fsck did: "quarantined", "evicted", ...

    def render(self) -> str:
        """One report line for this finding."""
        flag = "CORRUPT" if self.severity == "corrupt" else "warning"
        return (f"  [{flag}] {self.kind}: {self.path}\n"
                f"          {self.detail} -> {self.action}")


@dataclass
class FsckReport:
    """Everything one ``fsck_store`` pass checked, found and repaired."""

    cache_root: str = ""
    runs_root: str = ""
    cache_entries: int = 0
    journals: int = 0
    artifacts: int = 0
    tmp_removed: int = 0
    #: Aged ``*.lock`` sidecars reaped (left by builds that locked puts).
    locks_removed: int = 0
    #: Journals owned by a live process (ACTIVE sidecar) — skipped, not
    #: findings: an in-flight journal legitimately ends mid-record.
    active_skipped: int = 0
    issues: List[FsckIssue] = field(default_factory=list)

    @property
    def corrupt(self) -> bool:
        """Whether any finding was actual corruption (non-zero exit)."""
        return any(i.severity == "corrupt" for i in self.issues)

    @property
    def clean(self) -> bool:
        """Whether the store came through without a single finding."""
        return not self.issues

    def add(self, severity: str, kind: str, path: str, detail: str,
            action: str) -> None:
        """Record one finding."""
        self.issues.append(FsckIssue(severity, kind, path, detail, action))

    def render(self) -> str:
        """The ``repro fsck`` report."""
        corrupt = sum(1 for i in self.issues if i.severity == "corrupt")
        warnings = len(self.issues) - corrupt
        lines = [
            f"fsck: cache {self.cache_root or '(skipped)'}",
            f"      runs  {self.runs_root or '(skipped)'}",
            f"checked {self.cache_entries} cache entries, "
            f"{self.journals} journals, {self.artifacts} artifacts"
            + (f"; removed {self.tmp_removed} orphaned tmp file(s)"
               if self.tmp_removed else "")
            + (f"; skipped {self.active_skipped} ACTIVE journal(s) "
               f"owned by live processes" if self.active_skipped else ""),
        ]
        lines += [issue.render() for issue in self.issues]
        lines.append(
            "store is clean" if self.clean else
            f"{corrupt} corrupt, {warnings} warning(s)"
            + (" — corrupt entries quarantined/recovered" if corrupt else ""))
        return "\n".join(lines)


# -- cache ----------------------------------------------------------------

def _quarantine_into(root: str, path: str) -> str:
    """Move a corrupt file into ``<root>/quarantine/`` for post-mortem."""
    qdir = os.path.join(root, "quarantine")
    os.makedirs(qdir, exist_ok=True)
    dest = os.path.join(qdir, os.path.basename(path))
    n = 1
    while os.path.exists(dest):
        dest = os.path.join(qdir, f"{os.path.basename(path)}.{n}")
        n += 1
    os.replace(path, dest)
    return dest


def _quarantine(cache: ResultCache, path: str) -> str:
    """Move a corrupt cache entry aside, never to be served again."""
    return _quarantine_into(cache.root, path)


#: Entry kinds (from :meth:`ResultCache.inspect`) that are honest but
#: out of date: evicted with a warning.  Every other bad kind lies about
#: itself and is quarantined as corruption.
_EVICTED_KINDS = frozenset({"cache-stale", "cache-undigested"})


def _fsck_cache(cache: ResultCache, report: FsckReport) -> None:
    report.cache_root = cache.root
    for path in list(cache._entry_paths()):
        report.cache_entries += 1
        fingerprint = os.path.splitext(os.path.basename(path))[0]
        kind, detail, _ = cache.inspect(path, fingerprint)
        if kind in ("ok", "missing"):
            continue
        if kind in _EVICTED_KINDS:
            os.unlink(path)
            report.add("warning", kind, path, detail, "evicted")
        else:
            dest = _quarantine(cache, path)
            report.add("corrupt", kind, path, detail,
                       f"quarantined to {dest}")
    # Only litter past the grace window: a younger temp file may be a
    # live worker's in-flight write (the process-pool engine races
    # fsck-able stores), and unlinking it would corrupt that worker's put.
    for path in list(cache.litter_paths(TMP_GRACE_SECONDS)):
        try:
            os.unlink(path)
        except OSError:
            continue
        if path.endswith(".lock"):
            report.locks_removed += 1
            report.add("warning", "lock-orphan", path,
                       "lock sidecar left by an older build", "removed")
        else:
            report.tmp_removed += 1
            report.add("warning", "tmp-orphan", path,
                       "writer died mid-put", "removed")


# -- journals -------------------------------------------------------------

def _fsck_runs(registry: RunRegistry, report: FsckReport) -> None:
    report.runs_root = registry.root
    for run_id in registry.run_ids():
        report.journals += 1
        path = registry.path_for(run_id)
        if registry.active_info(run_id) is not None:
            # A live owner is appending to this journal right now: its
            # tail may legitimately be mid-write, and truncating or
            # flagging it would fight the owner.  Leave it alone.
            report.active_skipped += 1
            continue
        try:
            state = load_journal(path)
        except JournalError as exc:
            dest = _quarantine_into(registry.root, path)
            report.add("corrupt", "journal-unreadable", path, str(exc),
                       f"quarantined to {dest}")
            continue
        if state.dropped:
            _truncate_to_valid_prefix(path, state.valid_lines)
            report.add("corrupt", "journal-tail", path,
                       f"{state.dropped} torn/corrupt trailing record(s)",
                       f"recovered: truncated to {state.valid_lines} "
                       f"valid record(s)")
        if state.status == "open":
            report.add("warning", "journal-unclosed", path,
                       f"run never closed ({state.done_cells}/"
                       f"{state.total_cells} cells journaled)",
                       f"resumable: repro run --resume {run_id}")


# -- artifacts ------------------------------------------------------------

def _fsck_artifacts(paths: Iterable[str], report: FsckReport) -> None:
    for path in paths:
        report.artifacts += 1
        try:
            read_json_artifact(path)
        except (OSError, json.JSONDecodeError) as exc:
            report.add("corrupt", "artifact-parse", path,
                       f"unreadable artifact ({exc})", "left in place")
        except ValueError as exc:
            severity = ("warning" if "no embedded content digest" in str(exc)
                        else "corrupt")
            report.add(severity, "artifact-digest", path, str(exc),
                       "left in place")


def fsck_store(cache: Optional[ResultCache] = None,
               registry: Optional[RunRegistry] = None,
               artifacts: Iterable[str] = ()) -> FsckReport:
    """Verify (and where safe, repair) the persistent store.

    ``cache``/``registry`` default to the process-wide locations; pass
    explicit instances to check relocated stores.  ``artifacts`` are
    extra exported-JSON paths to digest-verify.  Returns the
    :class:`FsckReport`; ``report.corrupt`` drives the non-zero exit.
    """
    report = FsckReport()
    _fsck_cache(cache if cache is not None else ResultCache(), report)
    _fsck_runs(registry if registry is not None else RunRegistry(), report)
    _fsck_artifacts(artifacts, report)
    return report
