"""The cell core: what happens to one cell, whichever loop runs it.

A :class:`CellPlan` is built once per campaign: the cell list and its
fingerprints, the fault injector, the optional lane-health registry, the
replay maps of a resumed run, and the slots each cell's measurement,
record and trace land in.  Two functions act on it:

* :func:`run_cell` finds or produces a cell's :class:`CellOutcome`:
  replay, else cache read, else the retrying attempt
  (:func:`~repro.harness.engine.worker.attempt_cell`) and — when the
  cell's lane is OPEN — the fallback ladder
  (:func:`~repro.harness.engine.worker.serve_via_ladder`);
* :func:`record_cell` makes an outcome durable and visible: the cache
  put, the ``cell-start`` / ``breaker`` / ``cell-done`` /
  ``cell-failed`` journal records, and the :class:`CellRecord`.

Three execution paths call the pair: ``SweepEngine.run``'s inline loop, its
process pool (workers run the attempt; the parent decodes each result
and records it in cell order) and the campaign service's
one-cell-per-grant ``CampaignExecution.step``, so a cell's journal
records are the same however it was run.  A ``cell-start`` is
written with its outcome, not before the work: a cell without its done
record re-executes on resume either way.

Faults: with a :class:`~repro.sim.faults.FaultConfig` enabled, faulted
attempts retry under the :class:`~repro.harness.engine.RetryPolicy`
with backoff in *simulated* time; a cell that keeps failing becomes a
degraded ``failed`` measurement (the paper's e = 0 accounting) unless
``fail_fast`` aborts the campaign.  Failed cells are never cached.

Traces: a traced plan gives each executed cell a private profiler
(``FAULT`` and ``RETRY`` spans included) that the engine replays in cell
order, so the simulated timeline never depends on the execution path.

Breakers: an enabled :class:`~repro.harness.health.BreakerPolicy` adds
a :class:`~repro.harness.health.HealthRegistry`.  Lanes that keep
failing permanently trip OPEN and their cells are served down a
:class:`~repro.harness.health.FallbackLadder` with full provenance;
transitions are journaled and traced with the cell that caused them,
and the per-cell health metadata lets a resume walk every lane through
the same transitions.  Traced and breaker plans bypass cache reads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ...core.types import MatrixShape
from ...models.base import ProgrammingModel
from ...models.registry import model_by_name
from ...sim.faults import FaultInjector
from ...trace.events import EventKind
from ...trace.profiler import Profiler
from ..experiment import Experiment
from ..health import (
    BreakerState,
    BreakerTransition,
    FallbackLadder,
    HealthRegistry,
)
from ..results import Measurement, ResultSet
from .cache import ResultCache
from .fingerprint import campaign_fingerprint, cell_fingerprint
from .options import RunOptions
from .worker import attempt_cell, serve_via_ladder

__all__ = ["CellRecord", "CellOutcome", "CellPlan", "lookup_cell",
           "execute_cell", "run_cell", "record_cell"]

#: Trace event kind for each breaker state a lane can transition *into*.
BREAKER_EVENT = {
    BreakerState.OPEN: EventKind.BREAKER_OPEN,
    BreakerState.HALF_OPEN: EventKind.BREAKER_HALF_OPEN,
    BreakerState.CLOSED: EventKind.BREAKER_CLOSE,
}


@dataclass(frozen=True)
class CellRecord:
    """Observability record of one executed, served or failed cell."""

    model: str
    shape: str
    fingerprint: str
    cached: bool
    wall_s: float
    #: Wall-clock offset of this cell from the start of the run; pool
    #: cells sit at their submission offsets, so they may overlap.
    start_s: float = 0.0
    #: "ok" | "cached" | "replayed" | "failed" | "substituted"
    status: str = "ok"
    attempts: int = 1
    faults: int = 0
    #: Lane that actually served the cell when it was substituted ("").
    served_by: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    @property
    def replayed(self) -> bool:
        return self.status == "replayed"

    @property
    def substituted(self) -> bool:
        return self.status == "substituted"


@dataclass
class CellOutcome:
    """One cell's result before :func:`record_cell` stores it."""

    measurement: Measurement
    #: "replayed" | "cached" | "ok" | "failed" | "substituted"
    status: str
    start_s: float
    wall_s: float = 0.0
    attempts: int = 1
    faults: int = 0
    #: Per-cell health metadata journaled on breaker runs (else None).
    health: Optional[Dict[str, Any]] = None
    #: Breaker transitions this cell caused, journaled with it.
    transitions: List[BreakerTransition] = field(default_factory=list)
    trace: Optional[Profiler] = None

    @property
    def executed(self) -> bool:
        return self.status not in ("replayed", "cached")


def executed_status(m: Measurement) -> str:
    if m.failed:
        return "failed"
    return "substituted" if m.substituted else "ok"


@dataclass
class CellPlan:
    """Everything one campaign's cells share, plus their result slots."""

    experiment: Experiment
    opts: RunOptions
    cells: List[Tuple[ProgrammingModel, MatrixShape]]
    fingerprints: List[str]
    injector: Optional[FaultInjector]
    health: Optional[HealthRegistry]
    cache: Optional[ResultCache]
    measurements: List[Optional[Measurement]]
    records: List[Optional[CellRecord]]
    traces: List[Optional[Profiler]]
    t0: float = field(default_factory=time.perf_counter)

    @classmethod
    def build(cls, experiment: Experiment, opts: RunOptions,
              cache: Optional[ResultCache]) -> "CellPlan":
        """The plan of ``experiment`` under ``opts``.

        ``opts`` carries the journal, the replay maps and the profiler
        (its presence makes the run traced); ``cache`` is the store the
        cells read and write (``None`` = caching off).
        """
        cells = [(model_by_name(name), shape)
                 for name in experiment.models
                 for shape in experiment.shapes()]
        health = None
        if opts.breaker.enabled:
            ladder = (opts.fallback if opts.fallback is not None
                      else FallbackLadder.default_for(experiment))
            health = HealthRegistry(opts.breaker, ladder, experiment)
        n = len(cells)
        return cls(
            experiment=experiment, opts=opts, cells=cells,
            fingerprints=[cell_fingerprint(experiment, model.name, shape,
                                           faults=opts.faults)
                          for model, shape in cells],
            injector=(FaultInjector(opts.faults) if opts.faults.enabled
                      else None),
            health=health, cache=cache, measurements=[None] * n,
            records=[None] * n, traces=[None] * n)

    @property
    def traced(self) -> bool:
        return self.opts.profiler is not None

    @property
    def cache_reads(self) -> bool:
        # Breaker runs bypass cache reads: routing depends on lane state
        # accumulated across cells, so a hit would starve the state
        # machine of the native outcome that drives it.  Traced runs
        # bypass them too: a hit would leave no trace events.
        return (self.cache is not None and not self.traced
                and self.health is None)

    def open_run(self, journal) -> None:
        """Write ``journal``'s ``run-open`` record for this plan, so an
        engine run and a service campaign open it byte-compatibly."""
        journal.open_run(
            manifest=self.experiment.to_dict(),
            campaign=campaign_fingerprint(
                self.experiment, self.opts.faults, breaker=self.opts.breaker,
                fallback=(self.health.ladder if self.health is not None
                          else None)),
            options=self.opts.payload(),
            cells=[{"index": i, "model": model.name, "shape": str(shape),
                    "fingerprint": self.fingerprints[i]}
                   for i, (model, shape) in enumerate(self.cells)])

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def done(self) -> int:
        return sum(1 for m in self.measurements if m is not None)

    def results(self) -> ResultSet:
        results = ResultSet(self.experiment)
        for m in self.measurements:
            assert m is not None
            results.add(m)
        return results


def lookup_cell(plan: CellPlan, i: int) -> Optional[CellOutcome]:
    """Cell ``i`` served without the simulator (replay or cache hit), or
    ``None`` when it has to execute."""
    fp = plan.fingerprints[i]
    replayed = (plan.opts.replay or {}).get(fp)
    if replayed is not None:
        if plan.health is not None:
            # Walk the lane through the journaled outcome.  Transitions
            # replayed here were journaled by the original process; they
            # stay in the report history only.
            meta = plan.health.require_meta(
                (plan.opts.replay_meta or {}).get(fp), fp)
            lane = plan.health.lane_for(plan.cells[i][0].name)
            plan.health.feed_replay(lane, meta, i)
            plan.health.drain()
        return CellOutcome(replayed, "replayed", plan.elapsed())
    if plan.cache_reads:
        cached = plan.cache.get(fp)
        if cached is not None:
            return CellOutcome(cached, "cached", plan.elapsed())
    return None


def execute_cell(plan: CellPlan, i: int) -> CellOutcome:
    """Simulate cell ``i`` under the retry policy (and its lane's breaker)."""
    model, shape = plan.cells[i]
    prof = Profiler() if plan.traced else None
    t0 = time.perf_counter()
    start_s = t0 - plan.t0
    health = plan.health
    if health is None:
        m, attempts, faults, _ = attempt_cell(
            model, shape, plan.experiment, plan.opts, plan.injector, prof)
        return CellOutcome(m, executed_status(m), start_s,
                           time.perf_counter() - t0, attempts, faults,
                           trace=prof)
    # Breaker runs, in strict cell order: route -> native attempt (unless
    # the lane is OPEN) -> serve via the fallback ladder if the lane
    # is/just went OPEN -> charge simulated costs to the lane clock.  The
    # health metadata journaled with the cell makes resume byte-identical.
    lane = health.lane_for(model.name)
    meta = {"native": "none", "native_cost_s": 0.0, "serve_cost_s": 0.0}
    attempts = faults = 0
    m: Optional[Measurement] = None
    if lane.route(i) != "substitute":
        m, attempts, faults, spent_s = attempt_cell(
            model, shape, plan.experiment, plan.opts, plan.injector, prof)
        native_cost = spent_s + (0.0 if m.failed else sum(m.times_s))
        meta["native"] = "failed" if m.failed else "ok"
        meta["native_cost_s"] = native_cost
        lane.record_native(not m.failed, native_cost, i)
    serve_cost = 0.0
    if (m is None or m.failed) and lane.state is BreakerState.OPEN:
        m, serve_cost = serve_via_ladder(
            model, shape, plan.experiment, plan.opts, plan.injector, prof,
            health, lane.lane, native=m)
        meta["serve_cost_s"] = serve_cost
    lane.record_substituted(serve_cost)
    assert m is not None
    wall = time.perf_counter() - t0
    transitions = health.drain()
    if prof is not None:
        for tr in transitions:
            prof.record(BREAKER_EVENT[tr.to_state], tr.lane, 0.0,
                        cell=tr.cell_index, at_s=tr.at_s, reason=tr.reason)
    return CellOutcome(m, executed_status(m), start_s, wall, attempts,
                       faults, meta, transitions, prof)


def run_cell(plan: CellPlan, i: int) -> CellOutcome:
    """Cell ``i``'s outcome: replay, else cache hit, else execution."""
    found = lookup_cell(plan, i)
    return found if found is not None else execute_cell(plan, i)


def record_cell(plan: CellPlan, i: int, outcome: CellOutcome, *,
                store: bool = True) -> CellRecord:
    """Store cell ``i``'s outcome: cache put, journal records, slots.

    ``store=False`` skips the cache put for outcomes whose producer
    already wrote the cache (pool workers put their own entries).
    """
    model, shape = plan.cells[i]
    fp = plan.fingerprints[i]
    m = outcome.measurement
    if store and plan.cache is not None and outcome.status == "ok":
        # Only native successes are cached: a failure is a transient
        # condition of this run, and a substitution a routing outcome of
        # this run's lane state, not a property of the cell's key.
        plan.cache.put(fp, m, metadata={"experiment": plan.experiment.exp_id})
    journal = plan.opts.journal
    if journal is not None and outcome.status == "cached":
        journal.cell_done(i, fp, m, cached=True, wall_s=0.0)
    elif journal is not None and outcome.executed:
        journal.cell_start(i, model.name, str(shape), fp)
        for tr in outcome.transitions:
            journal.breaker(**tr.payload())
        if m.failed:
            journal.cell_failed(i, fp, m, attempts=outcome.attempts,
                                faults=outcome.faults, reason=m.note,
                                health=outcome.health)
        else:
            journal.cell_done(i, fp, m, cached=False, wall_s=outcome.wall_s,
                              attempts=outcome.attempts,
                              faults=outcome.faults, health=outcome.health)
    record = CellRecord(
        model=model.name, shape=str(shape), fingerprint=fp,
        cached=outcome.status == "cached", wall_s=outcome.wall_s,
        start_s=outcome.start_s, status=outcome.status,
        attempts=outcome.attempts, faults=outcome.faults,
        served_by=m.served_by)
    plan.measurements[i] = m
    plan.records[i] = record
    plan.traces[i] = outcome.trace
    return record
