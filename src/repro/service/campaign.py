"""One admitted campaign, executed a cell at a time for the scheduler.

A :class:`CampaignExecution` is the preemptible form of
:meth:`~repro.harness.engine.SweepEngine.run`: the same cell core
(:mod:`repro.harness.engine.cell` — replay, cache read, retrying
attempt, journal records) but driven *externally*, one
cell per :meth:`~CampaignExecution.step` call, so the fair-share
scheduler can interleave many tenants' campaigns at cell granularity.
The record stream each campaign's journal receives is identical to what
a dedicated engine run would have written, which is what keeps
per-campaign reports byte-identical however the daemon interleaved
them.

Cross-campaign sharing (deliberately scoped to the service): the
**result cache** is shared — a cell another tenant's campaign already
executed is served as a cache hit (journaled ``cached``, wall 0), so
overlapping submissions execute each distinct cell once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from ..errors import CellFailure
from ..harness.engine.cell import (
    CellOutcome,
    CellPlan,
    record_cell,
    run_cell,
)
from ..harness.engine.options import RunOptions
from ..harness.engine.worker import failed_measurement
from ..harness.results import ResultSet
from .spec import CampaignSpec

__all__ = ["CAMPAIGN_STATES", "TERMINAL_STATES", "Campaign",
           "CampaignExecution"]

#: Service-lifecycle states a campaign walks through, in order (FAILED
#: replaces DONE when a fail-fast cell aborts it; EXPIRED replaces DONE
#: when the spec's ``deadline_s`` lapsed before the cells did —
#: remaining cells are journaled as degraded e=0 failures so the
#: journal still closes complete; QUARANTINED is the supervisor's
#: terminal state for a campaign that kept crashing the stepping thread
#: past its restart budget).
CAMPAIGN_STATES = ("queued", "admitted", "running", "done", "failed",
                   "expired", "quarantined")

#: The states a campaign never leaves: the scheduler has retired it.
TERMINAL_STATES = ("done", "failed", "expired", "quarantined")


@dataclass
class Campaign:
    """Bookkeeping of one submitted campaign inside the service."""

    campaign_id: str          # == the journaled run id
    spec: CampaignSpec
    state: str = "queued"
    error: str = ""
    #: Whether this object was rebuilt from a journal after a restart.
    recovered: bool = False
    #: Wall-clock submission time the spec's ``deadline_s`` counts from
    #: (a recovered campaign keeps its original journal birth time, so
    #: daemon restarts never extend a deadline).
    submitted_at: float = 0.0
    #: Crash-supervision restarts this service-life (bounded; exceeding
    #: the budget quarantines the campaign instead of requeueing it).
    restarts: int = 0
    stats: Dict[str, int] = field(default_factory=lambda: {
        "executed": 0, "cached": 0, "deduped": 0, "replayed": 0,
        "failed": 0})
    results: Optional[ResultSet] = None
    cells_total: int = 0
    cells_done: int = 0

    def status_payload(self) -> Dict[str, Any]:
        """One campaign's row in the ``repro status`` document."""
        out: Dict[str, Any] = {
            "id": self.campaign_id,
            "tenant": self.spec.tenant,
            "priority": self.spec.priority,
            "state": self.state,
            "experiment": self.spec.experiment.exp_id,
            "cells": {"done": self.cells_done, "total": self.cells_total},
            "stats": dict(self.stats),
        }
        if self.error:
            out["error"] = self.error
        if self.recovered:
            out["recovered"] = True
        if self.restarts:
            out["restarts"] = self.restarts
        if self.spec.deadline_s is not None:
            out["deadline_s"] = self.spec.deadline_s
        if self.spec.submission_key is not None:
            out["submission_key"] = self.spec.submission_key
        return out

    def deadline_lapsed(self, now: Optional[float] = None) -> bool:
        """Whether the spec's wall-clock budget has run out."""
        deadline = self.spec.deadline_s
        if deadline is None or not self.submitted_at:
            return False
        return (now if now is not None else time.time()) \
            >= self.submitted_at + deadline


class CampaignExecution:
    """The cell-at-a-time executor of one campaign.

    Construction does no work; the first :meth:`step` lazily builds the
    cell plan (exactly as the engine would), loads any replay state a
    recovered journal carries, and transitions the campaign to
    ``admitted``.  Each subsequent ``step`` advances one cell and
    returns ``True`` while work remains; the step that completes the
    last cell finalizes the journal and returns ``False``.

    ``options`` are the campaign's :class:`RunOptions`, resolved once by
    the service: at submit, or from the journal on recovery (with the
    journal's replay maps).  ``service`` must provide the shared surface
    the execution leans on: ``cache`` (shared :class:`ResultCache` or
    ``None``) and ``note_executed``/``dedup_origin``/``note_dedup`` (cross-campaign
    dedup provenance).
    """

    def __init__(self, service, campaign: Campaign, journal,
                 options: RunOptions) -> None:
        self.service = service
        self.campaign = campaign
        self.journal = journal
        self.options = options
        self._plan: Optional[CellPlan] = None  # built by the first step
        self._next = 0

    # -- setup -------------------------------------------------------------

    def _start(self) -> None:
        opts = replace(self.options, journal=self.journal, profiler=None)
        cache = self.service.cache if opts.cache is not False else None
        plan = CellPlan.build(self.campaign.spec.experiment, opts, cache)
        self._plan = plan
        self.campaign.cells_total = len(plan.cells)
        self._set_state("admitted")

    def _set_state(self, state: str, **extra: Any) -> None:
        self.campaign.state = state
        self.journal.campaign_state(
            state, tenant=self.campaign.spec.tenant,
            priority=self.campaign.spec.priority, **extra)

    # -- stepping ----------------------------------------------------------

    def step(self) -> bool:
        """Advance one cell; ``True`` while the campaign has more work.

        A fail-fast cell failure finalizes the journal as ``failed``,
        marks the campaign failed, and returns ``False`` — the scheduler
        retires the campaign; other tenants are unaffected.
        """
        if self._plan is None:
            self._start()
        plan = self._plan
        if self.campaign.state == "admitted":
            self._set_state("running")
        i = self._next
        if i < len(plan.cells):
            # Deadline enforcement happens here and only here — at a cell
            # boundary, never mid-cell, and never inside a fingerprint.
            if self.campaign.deadline_lapsed():
                self._expire()
                return False
            try:
                outcome = run_cell(plan, i)
                record_cell(plan, i, outcome)
            except CellFailure as exc:
                self._fail(str(exc))
                return False
            self._count(plan.fingerprints[i], outcome)
            self._next = self.campaign.cells_done = i + 1
        if self._next < len(plan.cells):
            return True
        self._finish()
        return False

    def _count(self, fp: str, outcome: CellOutcome) -> None:
        # Campaign stats and cross-campaign dedup provenance, read off
        # the cell's status.
        stats = self.campaign.stats
        cid = self.campaign.campaign_id
        if outcome.executed:
            stats["executed"] += 1
        if outcome.status != "ok":
            stats[outcome.status] += 1
        if outcome.status == "cached":
            origin = self.service.dedup_origin(fp)
            if origin and origin != cid:
                stats["deduped"] += 1
                self.service.note_dedup(fp, cid)
        elif outcome.status == "ok" and self._plan.cache is not None:
            self.service.note_executed(fp, cid)

    # -- completion --------------------------------------------------------

    def _finish(self) -> None:
        if self.campaign.state not in ("done", "failed", "expired"):
            self._close("done", "complete")

    def _expire(self) -> None:
        """The deadline lapsed: degrade every remaining cell to e = 0.

        Runs the paper's degraded accounting, not an abort: each cell
        not yet measured is journaled as a ``failed`` measurement with a
        deterministic note (no wall-clock values — the report must stay
        byte-reproducible), so the journal closes ``complete`` and the
        result set renders through the ordinary DEGRADED path.  The
        campaign record lands in the terminal ``expired`` state.
        """
        plan = self._plan
        spec = self.campaign.spec
        note = (f"campaign deadline ({spec.deadline_s:g}s) expired "
                f"before this cell ran")
        for i, (model, shape) in enumerate(plan.cells):
            if plan.measurements[i] is None:
                m = failed_measurement(model, shape, spec.experiment, note)
                self.journal.cell_failed(i, plan.fingerprints[i], m,
                                         attempts=0, faults=0, reason=note)
                plan.measurements[i] = m
                self.campaign.stats["failed"] += 1
        # Every cell now carries a (possibly degraded) measurement, so
        # the journal closes complete and reports reconstruct normally.
        self.campaign.error = f"deadline {spec.deadline_s:g}s expired"
        self._close("expired", "complete", error=self.campaign.error)

    def _fail(self, reason: str) -> None:
        self.campaign.error = reason
        self._close("failed", "failed", error=reason)

    def _close(self, state: str, status: str, **extra: Any) -> None:
        # The campaign record must precede run-close: close_run finalizes
        # the journal and turns later appends into no-ops.
        done = self._plan.done()
        self.campaign.cells_done = done
        if status == "complete":
            self.campaign.results = self._plan.results()
        self._set_state(state, stats=dict(self.campaign.stats), **extra)
        if not self.journal.finalized:
            self.journal.close_run(status, completed=done,
                                   total=len(self._plan.cells))
        self.journal.close()
