"""Fair-share scheduling and admission control for the campaign service.

The daemon multiplexes many tenants' campaigns onto one simulator, one
cell at a time.  Two layers decide who runs next:

* **Admission control** (:class:`AdmissionPolicy`): a submission is
  either queued or refused *immediately* — per-tenant queue quotas and a
  global backlog cap bound the daemon's memory and keep one chatty
  tenant from monopolizing the queue.  Refusals raise
  :class:`~repro.errors.AdmissionError`, which is retryable by
  construction (the queue drains).

* **Stride scheduling** (:class:`FairShareScheduler`): every tenant
  carries a *pass* value that advances by ``1/weight`` per cell charged
  to it; the runnable tenant with the smallest pass runs next, ties
  broken by tenant name.  Over any window, tenant throughput converges
  to the weight ratio — weighted round-robin with O(1) state and no
  clocks, hence fully deterministic.  Within a tenant, campaigns order
  by (higher priority first, then submission order); the head campaign
  advances one cell per grant, so a high-priority submission preempts
  its tenant's in-flight campaign at the next cell boundary but never
  steals another tenant's share.

Everything here is pure bookkeeping — no threads, no time, no I/O — so
the scheduler's decisions replay identically from a rebuilt queue, which
is what makes daemon-restart recovery deterministic.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import AdmissionError, ServiceError

__all__ = ["TenantQuota", "AdmissionPolicy", "OverloadPolicy",
           "FairShareScheduler"]


@dataclass(frozen=True)
class TenantQuota:
    """Share weight and queue quota of one fair-share account.

    * ``weight`` — relative share of scheduler grants (2.0 gets twice
      the cells per window of a 1.0 tenant under contention);
    * ``max_queued`` — campaigns a tenant may have queued or running at
      once; further submissions are refused at admission.
    """

    weight: float = 1.0
    max_queued: int = 8

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ServiceError(f"tenant weight must be positive, "
                               f"got {self.weight}")
        if self.max_queued < 1:
            raise ServiceError(f"tenant max_queued must be >= 1, "
                               f"got {self.max_queued}")


@dataclass(frozen=True)
class AdmissionPolicy:
    """Queue quotas the daemon enforces before a campaign is journaled.

    ``quotas`` maps tenant names to explicit :class:`TenantQuota`;
    unlisted tenants get ``default_quota``.  ``max_total`` bounds the
    whole backlog across tenants.
    """

    max_total: int = 64
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    quotas: Tuple[Tuple[str, TenantQuota], ...] = ()

    def quota_for(self, tenant: str) -> TenantQuota:
        """The quota governing one tenant."""
        for name, quota in self.quotas:
            if name == tenant:
                return quota
        return self.default_quota

    def admit(self, tenant: str, tenant_backlog: int,
              total_backlog: int) -> None:
        """Refuse (raise) or return; called before anything is queued."""
        if total_backlog >= self.max_total:
            raise AdmissionError(
                f"service backlog full ({total_backlog} campaigns queued, "
                f"limit {self.max_total}); retry after the queue drains",
                tenant=tenant, limit=self.max_total)
        quota = self.quota_for(tenant)
        if tenant_backlog >= quota.max_queued:
            raise AdmissionError(
                f"tenant {tenant!r} is at its queue quota "
                f"({tenant_backlog}/{quota.max_queued} campaigns); "
                f"retry after its queue drains",
                tenant=tenant, limit=quota.max_queued)


@dataclass(frozen=True)
class OverloadPolicy:
    """When the daemon sheds submissions *before* admission refuses them.

    Admission control (:class:`AdmissionPolicy`) is a hard wall: at the
    cap, work is refused with a 409 and the client is on its own.  Load
    shedding is the soft slope in front of that wall — past
    ``shed_fraction`` of the global cap (or when the scheduler loop has
    stopped granting while work is queued) new submissions are shed
    with a 429 and a ``Retry-After`` hint derived from the backlog, so
    well-behaved clients back off *before* the queue saturates and
    starved 409s appear.

    * ``shed_fraction`` — fraction of ``AdmissionPolicy.max_total``
      beyond which submissions shed;
    * ``stall_s`` — seconds without a scheduler grant (while work is
      queued) after which the service is considered wedged and sheds;
    * ``drain_s_per_campaign`` — backlog-to-seconds factor behind the
      ``Retry-After`` hint;
    * ``min_retry_after_s``/``max_retry_after_s`` — hint clamp.
    """

    shed_fraction: float = 0.8
    stall_s: float = 60.0
    drain_s_per_campaign: float = 0.5
    min_retry_after_s: float = 1.0
    max_retry_after_s: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 < self.shed_fraction <= 1.0:
            raise ServiceError(f"shed_fraction must be in (0, 1], "
                               f"got {self.shed_fraction}")
        if self.stall_s <= 0:
            raise ServiceError(f"stall_s must be positive, "
                               f"got {self.stall_s}")
        if self.min_retry_after_s <= 0 \
                or self.max_retry_after_s < self.min_retry_after_s:
            raise ServiceError("retry-after clamp is inverted or negative")

    def shed_threshold(self, max_total: int) -> int:
        """Backlog size at which shedding starts (>= 1)."""
        return max(1, math.ceil(self.shed_fraction * max_total))

    def should_shed(self, backlog: int, max_total: int) -> bool:
        """Whether a new submission should be shed at this backlog."""
        return backlog >= self.shed_threshold(max_total)

    def retry_after_s(self, backlog: int) -> float:
        """The ``Retry-After`` hint for this backlog (whole seconds)."""
        estimate = max(1, backlog) * self.drain_s_per_campaign
        clamped = min(max(estimate, self.min_retry_after_s),
                      self.max_retry_after_s)
        return float(math.ceil(clamped))


class _TenantState:
    """Pass value and campaign queue of one tenant."""

    __slots__ = ("name", "weight", "passv", "heap", "started")

    def __init__(self, name: str, weight: float) -> None:
        self.name = name
        self.weight = weight
        self.passv = 0.0
        #: Min-heap of (-priority, submit_seq, campaign_id): highest
        #: priority first, FIFO within a priority level.  Campaigns stay
        #: here from submit to finish — running ones included, so
        #: ``select`` keeps finding them.
        self.heap: List[Tuple[int, int, str]] = []
        #: Campaign ids that have executed at least one cell.
        self.started: set = set()

    @property
    def backlog(self) -> int:
        return len(self.heap)


class FairShareScheduler:
    """Deterministic stride scheduler over tenants' campaign queues.

    The service drives it with four calls: :meth:`submit` queues a
    campaign (through admission control), :meth:`select` names the
    campaign that should advance next, :meth:`charge` bills one executed
    cell to a tenant's pass, and :meth:`finish` retires a campaign.
    ``select`` is a *peek* — the campaign stays queued until finished —
    so a higher-priority submission can take over its tenant's next
    grant at any cell boundary.
    """

    def __init__(self, policy: Optional[AdmissionPolicy] = None) -> None:
        self.policy = policy if policy is not None else AdmissionPolicy()
        self._tenants: Dict[str, _TenantState] = {}
        self._owner: Dict[str, str] = {}  # campaign_id -> tenant
        self._seq = 0

    # -- introspection -----------------------------------------------------

    @property
    def backlog(self) -> int:
        """Campaigns queued or running across every tenant."""
        return sum(t.backlog for t in self._tenants.values())

    def tenant_backlog(self, tenant: str) -> int:
        """Campaigns one tenant has queued or running."""
        state = self._tenants.get(tenant)
        return state.backlog if state is not None else 0

    def snapshot(self) -> List[Dict[str, object]]:
        """Per-tenant scheduler state for ``repro status``."""
        out: List[Dict[str, object]] = []
        for name in sorted(self._tenants):
            t = self._tenants[name]
            running = sum(1 for e in t.heap if e[2] in t.started)
            out.append({"tenant": name, "weight": t.weight,
                        "pass": round(t.passv, 9),
                        "queued": len(t.heap) - running, "running": running})
        return out

    # -- lifecycle ---------------------------------------------------------

    def submit(self, campaign_id: str, tenant: str, priority: int = 0,
               *, preadmitted: bool = False) -> None:
        """Queue one campaign, or raise :class:`AdmissionError`.

        ``preadmitted`` skips admission control for a campaign that
        already passed it: in a previous daemon life (the recovery path,
        where refusing it now would drop durable work), or through
        :meth:`admit` before its journal was written.

        A tenant seen for the first time starts at the *maximum* current
        pass of the other tenants (not zero): a newcomer gets its fair
        share from now on, not a retroactive credit for every cell it
        was not around to claim.
        """
        if campaign_id in self._owner:
            raise ServiceError(f"campaign {campaign_id!r} already queued")
        if not preadmitted:
            self.admit(tenant)
        state = self._tenants.get(tenant)
        if state is None:
            quota = self.policy.quota_for(tenant)
            state = _TenantState(tenant, quota.weight)
            others = [t.passv for t in self._tenants.values() if t.backlog]
            if others:
                state.passv = max(others)
            self._tenants[tenant] = state
        self._seq += 1
        heapq.heappush(state.heap, (-int(priority), self._seq, campaign_id))
        self._owner[campaign_id] = tenant

    def admit(self, tenant: str) -> None:
        """Raise :class:`AdmissionError` unless ``tenant`` may queue one
        more campaign now; queues nothing."""
        self.policy.admit(tenant, self.tenant_backlog(tenant), self.backlog)

    def select(self) -> Optional[str]:
        """The campaign that should advance one cell next, or ``None``.

        Pure and repeatable: among tenants with queued campaigns, the
        smallest (pass, name) wins, and its best-(priority, seq)
        campaign is named.  Nothing is dequeued.
        """
        best: Optional[_TenantState] = None
        for t in self._tenants.values():
            if not t.heap:
                continue
            if best is None or (t.passv, t.name) < (best.passv, best.name):
                best = t
        if best is None:
            return None
        return best.heap[0][2]

    def charge(self, campaign_id: str, cells: int = 1) -> None:
        """Bill ``cells`` scheduler grants to a campaign's tenant."""
        tenant = self._require_owner(campaign_id)
        state = self._tenants[tenant]
        state.passv += cells / state.weight

    def begin(self, campaign_id: str) -> None:
        """Note that a campaign executed its first cell (idempotent).

        The campaign keeps its heap slot — ``select`` must still find it
        — but ``snapshot`` now reports it as running rather than queued.
        """
        tenant = self._require_owner(campaign_id)
        self._tenants[tenant].started.add(campaign_id)

    def finish(self, campaign_id: str) -> None:
        """Retire a campaign (done or failed) from its tenant's queue."""
        tenant = self._require_owner(campaign_id)
        state = self._tenants[tenant]
        state.heap = [e for e in state.heap if e[2] != campaign_id]
        heapq.heapify(state.heap)
        state.started.discard(campaign_id)
        del self._owner[campaign_id]

    def _require_owner(self, campaign_id: str) -> str:
        tenant = self._owner.get(campaign_id)
        if tenant is None:
            raise ServiceError(f"campaign {campaign_id!r} is not queued")
        return tenant
