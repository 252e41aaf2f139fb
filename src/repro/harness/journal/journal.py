"""The write-ahead run journal: crash-safe record of one sweep campaign.

A :class:`RunJournal` is an append-only JSONL log.  Every event of a
campaign — the opening manifest, each cell completing or failing, the
final close — is one line, fsync'd before the engine proceeds, so the
journal is always at most one *partial* line behind reality no matter
when the process dies.  Each record carries a checksum over its own
canonical rendering; on load the reader replays the longest valid prefix
and drops a torn tail (a record half-written at the instant of death)
instead of refusing the whole file.

Record types, in the order a run writes them::

    run-open    manifest (experiment dict), campaign fingerprint,
                resilience options, the planned cell list
    cell-start  a cell was executed (written just ahead of its outcome)
    cell-done   a cell completed; embeds the full measurement payload
    cell-failed a cell permanently failed; embeds the degraded payload
    campaign    service metadata: the campaign's scheduler state
                (queued/admitted/running/done/failed), tenant, priority
                and — on the first record — the full CampaignSpec
                payload, making the journal the daemon's durable queue
    run-resume  a later process picked the run back up
    run-close   status "complete" | "interrupted" | "failed"

(The ``campaign`` record type postdates PR 4; older readers skip unknown
types in their dispatch loop, so mixed-version stores stay readable.)

Because ``cell-done``/``cell-failed`` embed the full-fidelity
measurement (the same schema the result cache and exporters use), a
resumed run can replay completed cells *byte-identically* without
touching the simulator — and without depending on the cache, which may
be disabled, relocated or since evicted.

Write-failure policy (disk full, quota): the journal is a durability
aid, never a correctness dependency of the *running* process — results
live in memory until the run returns them.  So an ``OSError`` during
:meth:`RunJournal.append` flips the journal into *degraded* mode: the
failed record (and every later one) is dropped and counted, the file
handle is closed, one warning lands on stderr, and the run continues
to completion.  What is lost is exactly resumability — the on-disk
prefix stays a valid journal (the torn-tail truncation handles any
half-written line), but a crash after degradation re-executes the
un-journaled cells.  ``degraded`` / ``dropped_appends`` expose the
state to callers; ``repro fsck`` sees a clean, merely-short journal.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ...chaos.plan import chaos_strike
from ...core.types import Precision
from ...errors import JournalError
from ...ioutil import canonical_json
from ..export import measurement_from_dict, measurement_to_dict
from ..results import Measurement

__all__ = ["JOURNAL_FORMAT", "RunJournal", "JournalState", "load_journal"]

#: Version of the journal record format; bumped on incompatible changes.
JOURNAL_FORMAT = 1

#: Statuses a ``run-close`` record may carry.
_CLOSE_STATUSES = ("complete", "interrupted", "failed")


def _record_checksum(seq: int, rtype: str, data: Dict[str, Any]) -> str:
    """Truncated SHA-256 over the record's canonical rendering."""
    body = canonical_json({"seq": seq, "type": rtype, "data": data})
    return hashlib.sha256(body.encode()).hexdigest()[:16]


class RunJournal:
    """Append-only, fsync'd, per-record-checksummed log of one run.

    Writers are thread-safe: the engine's worker threads all funnel
    through one lock, and every append is flushed and fsync'd before
    returning, so a completed cell is durable the moment the engine
    moves on.
    """

    def __init__(self, path: str, run_id: str, *, _seq: int = 0) -> None:
        self.path = path
        self.run_id = run_id
        self._seq = _seq
        self._lock = threading.Lock()
        self._fh = None
        self._finalized = False
        self._degraded = False
        self._degrade_reason = ""
        self._dropped_appends = 0

    # -- constructors -----------------------------------------------------

    @classmethod
    def create(cls, path: str, run_id: str) -> "RunJournal":
        """A fresh journal; the file appears on the first append."""
        if os.path.exists(path):
            raise JournalError(f"journal {path} already exists")
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        return cls(path, run_id)

    @classmethod
    def reopen(cls, path: str) -> "RunJournal":
        """Continue an existing journal (the resume path).

        Loads the valid prefix to find the last sequence number; if the
        file carries a torn tail, the tail is truncated away first so
        appended records always follow a valid one.
        """
        state = load_journal(path)
        if state.dropped:
            _truncate_to_valid_prefix(path, state.valid_lines)
        return cls(path, state.run_id, _seq=state.records)

    # -- appends ----------------------------------------------------------

    def append(self, rtype: str, **data: Any) -> None:
        """Durably append one record (write + flush + fsync).

        A write failure (disk full, quota) degrades the journal instead
        of crashing the run: this and every later record are dropped
        and counted, the on-disk prefix stays valid, and the run merely
        loses resumability (see the module docstring for the policy).
        """
        with self._lock:
            if self._finalized:
                return
            if self._degraded:
                self._dropped_appends += 1
                return
            self._seq += 1
            record = {"seq": self._seq, "type": rtype, "data": data,
                      "chk": _record_checksum(self._seq, rtype, data)}
            try:
                # Chaos strike point "journal-append": an armed plan can
                # simulate the disk filling mid-campaign right here.
                chaos_strike("journal-append", rtype)
                if self._fh is None:
                    self._fh = open(self.path, "a")
                self._fh.write(json.dumps(record, sort_keys=True,
                                          separators=(",", ":")) + "\n")
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except OSError as exc:
                # The record never became durable; rewind the sequence
                # so state reflects exactly the on-disk valid prefix.
                self._seq -= 1
                self._degraded = True
                self._degrade_reason = str(exc)
                self._dropped_appends = 1
                if self._fh is not None:
                    with_fh = self._fh
                    self._fh = None
                    try:
                        with_fh.close()
                    except OSError:
                        pass
                print(f"repro: journal {self.run_id}: write failed "
                      f"({exc}); journaling disabled for the rest of "
                      f"this run — results are unaffected, but cells "
                      f"from here on would re-execute on resume",
                      file=sys.stderr)

    @property
    def degraded(self) -> bool:
        """Whether a write failure disabled journaling for this run."""
        return self._degraded

    @property
    def degrade_reason(self) -> str:
        """The error that degraded the journal ("" while healthy)."""
        return self._degrade_reason

    @property
    def dropped_appends(self) -> int:
        """Records dropped since the journal degraded."""
        return self._dropped_appends

    def open_run(self, manifest: Dict[str, Any], campaign: str,
                 options: Dict[str, Any],
                 cells: List[Dict[str, Any]]) -> None:
        """The write-ahead manifest: what this run is going to do."""
        self.append("run-open", format=JOURNAL_FORMAT, run_id=self.run_id,
                    created=time.time(), manifest=manifest,
                    campaign=campaign, options=options, cells=cells)

    def resume_run(self, completed: int, total: int) -> None:
        """Mark that a new process picked this run back up."""
        self.append("run-resume", resumed=time.time(),
                    completed=completed, total=total)

    def cell_start(self, index: int, model: str, shape: str,
                   fingerprint: str) -> None:
        """A cell executed; its done/failed record follows."""
        self.append("cell-start", index=index, model=model, shape=shape,
                    fingerprint=fingerprint)

    def cell_done(self, index: int, fingerprint: str,
                  measurement: Measurement, *, cached: bool,
                  wall_s: float, attempts: int = 1,
                  faults: int = 0) -> None:
        """A cell completed; the embedded payload makes it replayable."""
        self.append("cell-done", index=index, fingerprint=fingerprint,
                    cached=cached, wall_s=wall_s, attempts=attempts,
                    faults=faults,
                    measurement=measurement_to_dict(measurement))

    def cell_failed(self, index: int, fingerprint: str,
                    measurement: Measurement, *, attempts: int,
                    faults: int, reason: str) -> None:
        """A cell permanently failed; the degraded payload is replayable."""
        self.append("cell-failed", index=index, fingerprint=fingerprint,
                    attempts=attempts, faults=faults, reason=reason,
                    measurement=measurement_to_dict(measurement))

    def campaign_state(self, state: str, *, tenant: str = "",
                       priority: int = 0,
                       spec: Optional[Dict[str, Any]] = None,
                       **extra: Any) -> None:
        """One service-lifecycle transition of a submitted campaign.

        Written by the campaign service right after ``run-open`` (with
        the serialized :class:`~repro.service.spec.CampaignSpec` so a
        restarted daemon can rebuild its queue from journals alone) and
        again at every state change.  ``extra`` carries per-state detail —
        e.g. a failure reason.
        """
        data: Dict[str, Any] = dict(state=state, tenant=tenant,
                                    priority=priority, at=time.time())
        if spec is not None:
            data["spec"] = spec
        data.update(extra)
        self.append("campaign", **data)

    def close_run(self, status: str, completed: int, total: int) -> None:
        """Finalize the journal; further appends become no-ops."""
        if status not in _CLOSE_STATUSES:
            raise JournalError(f"unknown run-close status {status!r}")
        self.append("run-close", status=status, completed=completed,
                    total=total, closed=time.time())
        with self._lock:
            self._finalized = True
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    @property
    def opened(self) -> bool:
        """Whether a ``run-open`` record was written (or pre-existed)."""
        return self._seq > 0

    @property
    def finalized(self) -> bool:
        """Whether a ``run-close`` record has been written."""
        return self._finalized

    def close(self) -> None:
        """Release the file handle without finalizing the run."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


@dataclass
class JournalState:
    """The loaded, validated view of one journal file.

    Built by :func:`load_journal` from the longest valid record prefix.
    ``completed`` maps cell fingerprints to their replayable
    measurements — the input to a resumed engine run.
    """

    run_id: str
    path: str
    created: float = 0.0
    manifest: Dict[str, Any] = field(default_factory=dict)
    campaign: str = ""
    options: Dict[str, Any] = field(default_factory=dict)
    cells: List[Dict[str, Any]] = field(default_factory=list)
    completed: Dict[str, Measurement] = field(default_factory=dict)
    #: Latest ``campaign`` record's data (service-submitted runs only):
    #: scheduler state, tenant, priority, and the spec payload from the
    #: first such record.  Empty for plain ``repro run`` journals.
    service_meta: Dict[str, Any] = field(default_factory=dict)
    status: str = "open"
    records: int = 0
    valid_lines: int = 0
    dropped: int = 0
    resumes: int = 0

    @property
    def total_cells(self) -> int:
        """How many cells the campaign planned."""
        return len(self.cells)

    @property
    def done_cells(self) -> int:
        """How many planned cells have replayable results."""
        return len(self.completed)

    @property
    def remaining_cells(self) -> int:
        """How many planned cells still need executing."""
        return self.total_cells - self.done_cells

    @property
    def resumable(self) -> bool:
        """Whether ``repro run --resume`` has anything left to do."""
        return self.status != "complete"

    def describe(self) -> str:
        """One-line summary for ``repro runs list``."""
        exp = self.manifest.get("exp_id", "?")
        tail = f", {self.dropped} torn record(s)" if self.dropped else ""
        return (f"{self.run_id}  {self.status:<11s} "
                f"{self.done_cells}/{self.total_cells} cells  {exp}{tail}")


def _parse_record(line: str, expect_seq: int) -> Optional[Dict[str, Any]]:
    """One validated record, or ``None`` if the line is torn/corrupt."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict):
        return None
    seq = record.get("seq")
    rtype = record.get("type")
    data = record.get("data")
    chk = record.get("chk")
    if seq != expect_seq or not isinstance(rtype, str) \
            or not isinstance(data, dict):
        return None
    if chk != _record_checksum(seq, rtype, data):
        return None
    return record


def load_journal(path: str) -> JournalState:
    """Load a journal, replaying the longest valid record prefix.

    Torn-tail recovery: reading stops at the first record that fails to
    parse, breaks the sequence, or fails its checksum; everything after
    it is counted in ``dropped`` (a crash can only tear the tail, and a
    bit-flip invalidates exactly the records from the flip onward —
    either way the valid prefix is the trustworthy write-ahead history).
    Raises :class:`~repro.errors.JournalError` if the file is unreadable
    or does not begin with a valid ``run-open`` record.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    records: List[Dict[str, Any]] = []
    for i, line in enumerate(lines):
        record = _parse_record(line, expect_seq=i + 1)
        if record is None:
            break
        records.append(record)
    if not records or records[0]["type"] != "run-open":
        raise JournalError(
            f"journal {path} has no valid run-open record")
    head = records[0]["data"]
    state = JournalState(
        run_id=head.get("run_id", ""),
        path=path,
        created=head.get("created", 0.0),
        manifest=head.get("manifest", {}),
        campaign=head.get("campaign", ""),
        options=head.get("options", {}),
        cells=list(head.get("cells", [])),
        records=len(records),
        valid_lines=len(records),
        dropped=len(lines) - len(records),
    )
    default_precision = Precision.parse(
        state.manifest.get("precision", "fp64"))
    for record in records[1:]:
        rtype, data = record["type"], record["data"]
        if rtype in ("cell-done", "cell-failed"):
            m = measurement_from_dict(data["measurement"],
                                      default_precision=default_precision)
            state.completed[data["fingerprint"]] = m
        elif rtype == "campaign":
            # Later records carry state transitions but not the spec;
            # keep the spec from whichever record last carried one.
            spec = state.service_meta.get("spec")
            state.service_meta = dict(data)
            if "spec" not in state.service_meta and spec is not None:
                state.service_meta["spec"] = spec
        elif rtype == "run-close":
            state.status = data.get("status", "failed")
        elif rtype == "run-resume":
            state.resumes += 1
            state.status = "open"
    return state


def _truncate_to_valid_prefix(path: str, valid_lines: int) -> None:
    """Rewrite the journal keeping only its first ``valid_lines`` lines."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    from ...ioutil import atomic_write_text
    kept = lines[:valid_lines]
    atomic_write_text(path, "".join(line + "\n" for line in kept))
