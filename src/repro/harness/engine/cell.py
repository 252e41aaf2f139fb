"""The cell core: what happens to one cell, whichever loop runs it.

A :class:`CellPlan` is built once per campaign: the cell list and its
fingerprints, the fault injector, the replay map of a resumed run, and
the slots each cell's measurement, record and trace land in.  Two
functions act on it:

* :func:`run_cell` finds or produces a cell's :class:`CellOutcome`:
  replay, else cache read, else the retrying attempt
  (:func:`~repro.harness.engine.worker.attempt_cell`);
* :func:`record_cell` makes an outcome durable and visible: the cache
  put, the ``cell-start`` / ``cell-done`` / ``cell-failed`` journal
  records, and the :class:`CellRecord`.

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
``fail_fast`` aborts the campaign.  Failed cells are never cached, and
no other model or device stands in for them.

Traces: a traced plan gives each executed cell a private profiler
(``FAULT`` and ``RETRY`` spans included) that the engine replays in cell
order, so the simulated timeline never depends on the execution path.
Traced plans bypass cache reads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ...core.types import MatrixShape
from ...models.base import ProgrammingModel
from ...models.registry import model_by_name
from ...sim.faults import FaultInjector
from ...trace.profiler import Profiler
from ..experiment import Experiment
from ..results import Measurement, ResultSet
from .cache import ResultCache
from .fingerprint import campaign_fingerprint, cell_fingerprint
from .options import RunOptions
from .worker import attempt_cell

__all__ = ["CellRecord", "CellOutcome", "CellPlan", "lookup_cell",
           "execute_cell", "run_cell", "record_cell"]


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
    #: "ok" | "cached" | "replayed" | "failed"
    status: str = "ok"
    attempts: int = 1
    faults: int = 0

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    @property
    def replayed(self) -> bool:
        return self.status == "replayed"


@dataclass
class CellOutcome:
    """One cell's result before :func:`record_cell` stores it."""

    measurement: Measurement
    #: "replayed" | "cached" | "ok" | "failed"
    status: str
    start_s: float
    wall_s: float = 0.0
    attempts: int = 1
    faults: int = 0
    trace: Optional[Profiler] = None

    @property
    def executed(self) -> bool:
        return self.status not in ("replayed", "cached")


@dataclass
class CellPlan:
    """Everything one campaign's cells share, plus their result slots."""

    experiment: Experiment
    opts: RunOptions
    cells: List[Tuple[ProgrammingModel, MatrixShape]]
    fingerprints: List[str]
    injector: Optional[FaultInjector]
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
        n = len(cells)
        return cls(
            experiment=experiment, opts=opts, cells=cells,
            fingerprints=[cell_fingerprint(experiment, model.name, shape,
                                           faults=opts.faults)
                          for model, shape in cells],
            injector=(FaultInjector(opts.faults) if opts.faults.enabled
                      else None),
            cache=cache, measurements=[None] * n,
            records=[None] * n, traces=[None] * n)

    @property
    def traced(self) -> bool:
        return self.opts.profiler is not None

    @property
    def cache_reads(self) -> bool:
        # Traced runs bypass cache reads: a hit would leave no trace
        # events.
        return self.cache is not None and not self.traced

    def open_run(self, journal) -> None:
        """Write ``journal``'s ``run-open`` record for this plan, so an
        engine run and a service campaign open it byte-compatibly."""
        journal.open_run(
            manifest=self.experiment.to_dict(),
            campaign=campaign_fingerprint(self.experiment, self.opts.faults),
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
        return CellOutcome(replayed, "replayed", plan.elapsed())
    if plan.cache_reads:
        cached = plan.cache.get(fp)
        if cached is not None:
            return CellOutcome(cached, "cached", plan.elapsed())
    return None


def execute_cell(plan: CellPlan, i: int) -> CellOutcome:
    """Simulate cell ``i`` under the retry policy."""
    model, shape = plan.cells[i]
    prof = Profiler() if plan.traced else None
    t0 = time.perf_counter()
    m, attempts, faults = attempt_cell(
        model, shape, plan.experiment, plan.opts, plan.injector, prof)
    return CellOutcome(m, "failed" if m.failed else "ok", t0 - plan.t0,
                       time.perf_counter() - t0, attempts, faults,
                       trace=prof)


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
        # Only successes are cached: a failure is a transient condition
        # of this run, not a property of the cell's key.
        plan.cache.put(fp, m, metadata={"experiment": plan.experiment.exp_id})
    journal = plan.opts.journal
    if journal is not None and outcome.status == "cached":
        journal.cell_done(i, fp, m, cached=True, wall_s=0.0)
    elif journal is not None and outcome.executed:
        journal.cell_start(i, model.name, str(shape), fp)
        if m.failed:
            journal.cell_failed(i, fp, m, attempts=outcome.attempts,
                                faults=outcome.faults, reason=m.note)
        else:
            journal.cell_done(i, fp, m, cached=False, wall_s=outcome.wall_s,
                              attempts=outcome.attempts,
                              faults=outcome.faults)
    record = CellRecord(
        model=model.name, shape=str(shape), fingerprint=fp,
        cached=outcome.status == "cached", wall_s=outcome.wall_s,
        start_s=outcome.start_s, status=outcome.status,
        attempts=outcome.attempts, faults=outcome.faults)
    plan.measurements[i] = m
    plan.records[i] = record
    plan.traces[i] = outcome.trace
    return record
