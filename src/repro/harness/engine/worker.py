"""Worker side of the process-pool engine: the frozen payload contract.

``--engine process`` dispatches each cache-missed cell to a worker
subprocess.  The parent ships two frozen, picklable values:

* a per-run :class:`RunPayload` — the experiment manifest as its
  canonical ``Experiment.to_dict()`` dict, the fault/retry configuration
  (frozen dataclasses), the ``fail_fast`` switch, whether the run is
  traced, and the cache root (``None`` when caching is off);
* a per-cell :class:`CellTask` — cell index, model name, shape triple
  and the cell fingerprint.

The worker re-derives everything locally — experiment, model, shape,
fault injector, private profiler — runs the *same* retry loop as an
inline cell (:func:`attempt_cell` is that loop, shared by both), writes
its own cache entry (the concurrency-safe :class:`ResultCache` makes
multi-process writers safe) and returns one plain dict: the measurement
as its export payload, attempt/fault counts, wall time, whether its cache
put landed, the private trace events, and — under ``fail_fast`` — a
structured error the parent re-raises as the original exception class.

Journal writes never happen here: the parent is the journal's single
writer, preserving WAL ordering and checksums.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from ...chaos.plan import chaos_strike
from ...core.types import MatrixShape
from ...errors import CellFailure, ReproError, RetryExhaustedError
from ...models.base import ProgrammingModel
from ...models.registry import model_by_name
from ...sim.faults import Fault, FaultConfig, FaultInjector
from ...trace.events import EventKind
from ...trace.profiler import Profiler
from ..experiment import Experiment
from ..export import measurement_to_dict
from ..health import HealthRegistry, resolve_hop
from ..results import Measurement
from ..runner import run_measurement
from .cache import ResultCache
from .options import RetryPolicy, RunOptions

__all__ = ["RunPayload", "CellTask", "attempt_cell", "serve_via_ladder",
           "execute_cell_payload"]


@dataclass(frozen=True)
class RunPayload:
    """Per-run frozen state shipped once to every worker."""

    experiment: Dict[str, Any]        # Experiment.to_dict()
    faults: FaultConfig
    retry: RetryPolicy
    fail_fast: bool
    traced: bool
    cache_root: Optional[str]         # None = caching off


@dataclass(frozen=True)
class CellTask:
    """One cell's coordinates, as dispatched to a worker."""

    index: int
    model: str
    shape: Tuple[int, int, int]       # (m, n, k)
    fingerprint: str


# -- the retry loop (shared by inline cells and pool workers) --------------

def attempt_cell(model: ProgrammingModel, shape: MatrixShape,
                 experiment: Experiment, opts: RunOptions,
                 injector: Optional[FaultInjector],
                 cell_prof: Optional[Profiler], *,
                 lane: str = "",
                 ) -> Tuple[Measurement, int, int, float]:
    """Run one cell under the retry policy.

    Returns ``(measurement, attempts, faults_hit, spent_s)`` where
    ``spent_s`` is the simulated seconds lost to faults and backoff
    (lane clocks charge it on top of the measured kernel time).  All
    timekeeping is simulated: each injected fault charges its class
    cost and each backoff its policy cost against the per-cell budget
    — nothing sleeps.  ``lane`` namespaces the fault stream: fallback
    serves pass the serving lane so rerouting never perturbs the
    faults any other attempt sees.  Raises :class:`CellFailure` (or
    the sharper :class:`RetryExhaustedError`) only under ``fail_fast``.
    """
    retry = opts.retry
    cell = f"{model.name}@{shape}"
    attempts = 0
    faults_hit = 0
    spent_s = 0.0
    while True:
        attempts += 1
        fault = (injector.probe(experiment.exp_id, model.name, shape,
                                attempts, lane=lane)
                 if injector is not None else None)
        if fault is None:
            try:
                m = run_measurement(model, experiment, shape, cell_prof)
            except ReproError as exc:
                # Cell-level isolation of real execution errors: a
                # deterministic simulator error would fail identically
                # on every retry, so it fails the cell immediately.
                reason = f"{type(exc).__name__}: {exc}"
                if opts.fail_fast:
                    raise CellFailure(
                        f"cell {cell} failed: {reason}", cell=cell,
                        attempts=attempts, reason=reason) from exc
                return (failed_measurement(model, shape, experiment, reason),
                        attempts, faults_hit, spent_s)
            return m, attempts, faults_hit, spent_s

        faults_hit += 1
        spent_s += fault.cost_s
        if cell_prof is not None:
            cell_prof.record(EventKind.FAULT,
                             f"{fault.kind.value}:{cell}", fault.cost_s,
                             attempt=attempts, permanent=fault.permanent)
        over_budget = (retry.max_cell_seconds is not None
                       and spent_s >= retry.max_cell_seconds)
        exhausted = attempts >= retry.max_attempts
        if fault.permanent or exhausted or over_budget:
            reason = failure_reason(fault, attempts, spent_s,
                                    exhausted, over_budget)
            if opts.fail_fast:
                err_cls = (RetryExhaustedError
                           if (exhausted or over_budget)
                           and not fault.permanent else CellFailure)
                raise err_cls(f"cell {cell} failed: {reason}",
                              cell=cell, attempts=attempts, reason=reason)
            return (failed_measurement(model, shape, experiment, reason),
                    attempts, faults_hit, spent_s)
        backoff = retry.backoff_s(attempts)
        spent_s += backoff
        if cell_prof is not None:
            cell_prof.record(EventKind.RETRY, f"backoff:{cell}", backoff,
                             attempt=attempts, next_attempt=attempts + 1)


def serve_via_ladder(model: ProgrammingModel, shape: MatrixShape,
                     experiment: Experiment, opts: RunOptions,
                     injector: Optional[FaultInjector],
                     cell_prof: Optional[Profiler],
                     health: HealthRegistry, origin: str,
                     native: Optional[Measurement],
                     ) -> Tuple[Measurement, float]:
    """Serve one cell of an OPEN lane via its fallback ladder.

    Walks the declared hops in order, skipping hops that resolve back
    to the origin or to a lane the registry currently tracks as OPEN.
    Hop attempts run under the same retry policy but on a *disjoint*
    fault stream (keyed by the serving lane) and never feed the
    serving lane's own health — serving is borrowing, not probing.

    Returns ``(measurement, serve_cost_s)``.  A served measurement keeps
    the origin cell's model/display with full substitution provenance,
    so Table III can price it honestly; when the ladder is exhausted it
    is a failed cell that extends ``native``'s failure reason (``None``
    when the lane was OPEN and no native attempt ran).
    """
    serve_cost = 0.0
    tried = 0
    cell = f"{model.name}@{shape}"
    for hop in health.ladder.hops_for(origin):
        serve_model, serve_device = resolve_hop(hop, experiment)
        hop_spec = f"{serve_model.name}@{serve_device.value}"
        if hop_spec == origin or health.is_open(hop_spec):
            continue
        serve_exp = (experiment if serve_device is experiment.device
                     else replace(experiment, device=serve_device))
        tried += 1
        sm, _, _, s_spent = attempt_cell(
            serve_model, shape, serve_exp, opts, injector, cell_prof,
            lane=hop_spec)
        serve_cost += s_spent
        if sm.failed or not sm.supported:
            continue
        serve_cost += sum(sm.times_s)
        if cell_prof is not None:
            cell_prof.record(EventKind.SUBSTITUTION,
                             f"{origin}->{hop_spec}:{cell}", serve_cost,
                             hops=tried)
        return (Measurement(
            model=model.name, display=model.display, shape=shape,
            precision=experiment.precision, times_s=sm.times_s,
            warmup_count=sm.warmup_count, supported=True,
            note=f"served by {hop_spec}; lane {origin} open",
            bound=sm.bound, substituted_from=origin, served_by=hop_spec,
            ladder_hops=tried), serve_cost)
    reason = native.note if native is not None else f"lane {origin} open"
    return (Measurement(
        model=model.name, display=model.display, shape=shape,
        precision=experiment.precision, supported=False, failed=True,
        note=(f"{reason}; fallback ladder exhausted "
              f"({tried} hop(s) tried)"),
        substituted_from=origin, ladder_hops=tried), serve_cost)


def failure_reason(fault: Fault, attempts: int, spent_s: float,
                   exhausted: bool, over_budget: bool) -> str:
    if fault.permanent:
        return f"{fault.describe()}; cell fails on every attempt"
    if over_budget:
        return (f"{fault.describe()}; per-cell budget exhausted after "
                f"{spent_s:g}s simulated across {attempts} attempts")
    if exhausted:
        return f"{fault.describe()}; retries exhausted ({attempts} attempts)"
    return fault.describe()  # pragma: no cover - defensive


def failed_measurement(model: ProgrammingModel, shape: MatrixShape,
                       experiment: Experiment, reason: str) -> Measurement:
    return Measurement(
        model=model.name, display=model.display, shape=shape,
        precision=experiment.precision, supported=False, failed=True,
        note=reason)


# -- worker entrypoint -----------------------------------------------------

def execute_cell_payload(payload: RunPayload, task: CellTask) -> Dict[str, Any]:
    """Re-derive one cell from its frozen payload and execute it.

    Runs in a worker subprocess.  Never raises on a cell failure: under
    ``fail_fast`` the would-be :class:`CellFailure` /
    :class:`RetryExhaustedError` comes back as a structured ``error``
    dict (exception classes do not survive pickling with their keyword
    state), and the parent re-raises the exact original.
    """
    experiment = Experiment.from_dict(payload.experiment)
    model = model_by_name(task.model)
    shape = MatrixShape(*task.shape)
    # Chaos strike point "worker-cell": an armed plan can SIGKILL or
    # hang this worker here, mid-cell — the uncooperative failures the
    # parent-side watchdog exists to recover from.
    chaos_strike("worker-cell", f"{task.model}@{shape}")
    injector = (FaultInjector(payload.faults) if payload.faults.enabled
                else None)
    cell_prof = Profiler() if payload.traced else None
    opts = RunOptions(retry=payload.retry, faults=payload.faults,
                      fail_fast=payload.fail_fast)
    t0 = time.perf_counter()
    try:
        m, attempts, faults_hit, _spent = attempt_cell(
            model, shape, experiment, opts, injector, cell_prof)
    except CellFailure as exc:  # fail_fast only; includes RetryExhaustedError
        return {"index": task.index,
                "error": {"type": type(exc).__name__,
                          "message": str(exc), "cell": exc.cell,
                          "attempts": exc.attempts, "reason": exc.reason}}
    wall = time.perf_counter() - t0
    stored = False
    if payload.cache_root is not None and not m.failed:
        # The worker writes its own entry; the CAS put makes concurrent
        # writers of the same digest safe (first valid entry wins).
        stored = ResultCache(payload.cache_root).put(
            task.fingerprint, m, metadata={"experiment": experiment.exp_id})
    events = None
    if cell_prof is not None:
        events = [(ev.kind.value, ev.name, ev.duration_s, dict(ev.metadata))
                  for ev in cell_prof.events]
    return {"index": task.index,
            "error": None,
            "measurement": measurement_to_dict(m),
            "attempts": attempts,
            "faults": faults_hit,
            "wall_s": wall,
            "stored": stored,
            "events": events}
