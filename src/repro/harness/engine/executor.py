"""The sweep engine: two execution paths over the cell core, plus reports.

``SweepEngine.run`` is contractually bit-identical to the serial
reference loop.  Every cell goes through the cell core
(:mod:`repro.harness.engine.cell`, which also documents the fault,
trace and breaker semantics of a cell); the engine only schedules it.
``mode="serial"`` (the default) runs the cells inline in cell order.
``mode="process"`` (``--engine process`` / ``REPRO_ENGINE=process``)
dispatches each cache-missed cell to a ``ProcessPoolExecutor`` worker
carrying a frozen payload (see :mod:`repro.harness.engine.worker`),
scaling ``--jobs`` past one core; the parent stays the single writer of
the journal and the sole merge point, recording results in cell order,
while workers write the (multi-process-safe) result cache themselves.
Breaker-enabled runs always run inline: lane state crosses cells.

Observability: every run produces a :class:`SweepReport` with per-cell
wall-clock offsets/timings, attempt counts and cache outcomes,
renderable as an ASCII table (with a degraded-cell section) or as a
:mod:`repro.trace` timeline whose cell spans sit at their real
wall-clock offsets.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...core.types import Precision
from ...errors import (
    CellFailure,
    ConfigError,
    RetryExhaustedError,
    RunInterrupted,
    WorkerLost,
)
from ...trace.events import EventKind
from ...trace.profiler import Profiler
from ..experiment import Experiment
from ..export import measurement_from_dict, measurement_to_dict
from ..health import BreakerTransition
from ..journal.signals import graceful_shutdown
from ..results import ResultSet
from .cache import ResultCache
from .cell import (
    BREAKER_EVENT,
    CellOutcome,
    CellPlan,
    CellRecord,
    execute_cell,
    executed_status,
    lookup_cell,
    record_cell,
    run_cell,
)
from .options import RunOptions
from .worker import (
    CellTask,
    RunPayload,
    execute_cell_payload,
    failed_measurement,
)

__all__ = ["CellRecord", "SweepReport", "SweepEngine", "ENGINE_MODES"]

#: Executor modes ``SweepEngine`` accepts: cells inline in the calling
#: process, or fanned out over a multi-core process pool.
ENGINE_MODES = ("serial", "process")


@dataclass
class SweepReport:
    """What one engine run did: per-cell timings plus cache counters."""

    experiment_id: str
    cells: List[CellRecord] = field(default_factory=list)
    cache_stats: Dict[str, int] = field(default_factory=dict)
    parallel: bool = False
    workers: int = 1
    #: Which executor drove the cells: "serial" or "process".
    engine: str = "serial"
    wall_s: float = 0.0
    #: Run identity when the sweep is journaled ("" otherwise).
    run_id: str = ""
    #: Breaker transition history, in cell order (breaker runs only).
    transitions: List[BreakerTransition] = field(default_factory=list)
    #: Worker-pool kill/rebuild cycles the watchdog performed (process
    #: engine only; 0 on a healthy run).
    respawns: int = 0
    #: Cells the watchdog resubmitted after a pool crash or hang.
    redrives: int = 0

    @property
    def cached_cells(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def replayed_cells(self) -> int:
        return sum(1 for c in self.cells if c.replayed)

    @property
    def executed_cells(self) -> int:
        return sum(1 for c in self.cells if not c.cached and not c.replayed)

    @property
    def failed_cells(self) -> int:
        return sum(1 for c in self.cells if c.failed)

    @property
    def substituted_cells(self) -> int:
        return sum(1 for c in self.cells if c.substituted)

    @property
    def total_attempts(self) -> int:
        return sum(c.attempts for c in self.cells)

    @property
    def degraded(self) -> bool:
        return self.failed_cells > 0

    def timeline(self) -> Profiler:
        """The run as a :mod:`repro.trace` timeline.

        Cells are laid out at their *real* wall-clock offsets (concurrent
        cells overlap, exactly as they ran) rather than stacked end to
        end from t=0, so a Chrome-trace export shows the actual fan-out.
        """
        prof = Profiler()
        for cell in sorted(self.cells, key=lambda c: (c.start_s, c.model,
                                                      c.shape)):
            if cell.cached:
                kind = EventKind.CACHE_HIT
            elif cell.replayed:
                kind = EventKind.REPLAY
            else:
                kind = EventKind.CACHE_MISS
            prof.record_at(kind, f"{cell.model}@{cell.shape}", cell.start_s,
                           0.0, fingerprint=cell.fingerprint)
            prof.record_at(EventKind.CELL, f"{cell.model}@{cell.shape}",
                           cell.start_s, cell.wall_s, cached=cell.cached,
                           status=cell.status, attempts=cell.attempts)
            if cell.substituted:
                prof.record_at(EventKind.SUBSTITUTION,
                               f"{cell.model}@{cell.shape}<-{cell.served_by}",
                               cell.start_s, 0.0, served_by=cell.served_by)
        for tr in self.transitions:
            # Anchor each transition at its cell's wall-clock offset (the
            # breaker clock itself is simulated lane time).
            offset = (self.cells[tr.cell_index].start_s
                      if 0 <= tr.cell_index < len(self.cells) else 0.0)
            prof.record_at(BREAKER_EVENT[tr.to_state], tr.lane, offset, 0.0,
                           cell=tr.cell_index, at_s=tr.at_s,
                           reason=tr.reason)
        return prof

    def _fanout_label(self) -> str:
        return f"process x{self.workers}" if self.parallel else "serial"

    def render(self) -> str:
        """ASCII summary for ``repro run --engine-stats``."""
        lines = [
            f"sweep {self.experiment_id}: {len(self.cells)} cells "
            f"({self.cached_cells} cached, "
            + (f"{self.replayed_cells} replayed, " if self.replayed_cells
               else "")
            + f"{self.executed_cells} executed"
            + (f", {self.substituted_cells} SUBSTITUTED"
               if self.substituted_cells else "")
            + (f", {self.failed_cells} FAILED" if self.degraded else "")
            + f") in {self.wall_s * 1e3:.1f} ms wall "
            f"[{self._fanout_label()}]",
        ]
        if self.run_id:
            lines.append(f"run: {self.run_id} (journaled)")
        if self.cache_stats:
            lines.append(
                "cache: " + ", ".join(f"{v} {k}"
                                      for k, v in self.cache_stats.items()))
        if self.respawns or self.redrives:
            lines.append(f"watchdog: {self.respawns} pool respawn(s), "
                         f"{self.redrives} cell redrive(s)")
        for cell in self.cells:
            origin = {"cached": "cache", "failed": "FAILED",
                      "replayed": "replay",
                      "substituted": f"<- {cell.served_by}",
                      }.get(cell.status, "sim")
            retries = (f"  ({cell.attempts} attempts, {cell.faults} faults)"
                       if cell.attempts > 1 or cell.faults else "")
            lines.append(f"  {cell.model:>12s} @{cell.shape:<18s} "
                         f"{cell.wall_s * 1e3:9.3f} ms  [{origin}]{retries}")
        if self.degraded:
            lines.append("degraded cells (reported as e=0):")
            for cell in self.cells:
                if cell.failed:
                    lines.append(f"  {cell.model} @{cell.shape} failed after "
                                 f"{cell.attempts} attempts "
                                 f"({cell.faults} faults)")
        if self.transitions:
            lines.append("breaker transitions:")
            for tr in self.transitions:
                lines.append(f"  {tr.describe()}")
        return "\n".join(lines)


class SweepEngine:
    """Cached, fault-tolerant executor of experiment sweeps."""

    def __init__(self, *, cache: Optional[ResultCache] = None,
                 max_workers: Optional[int] = None,
                 mode: str = "serial") -> None:
        if mode not in ENGINE_MODES:
            raise ConfigError(
                f"engine mode must be one of {'/'.join(ENGINE_MODES)}, "
                f"got {mode!r}")
        self.cache = cache
        self.max_workers = max_workers
        self.mode = mode
        self.last_report: Optional[SweepReport] = None

    @property
    def parallel(self) -> bool:
        """Whether cache-missed cells may fan out over a worker pool."""
        return self.mode == "process" and self.max_workers != 1

    @staticmethod
    def _mp_context():
        """Start method for worker processes: ``fork`` where available.

        A spawned worker re-imports the whole package (~half the cost of
        a cold seed sweep, per worker); forking inherits the warm parent
        for ~milliseconds.  Workers never touch the parent's journal or
        thread state, so forking is safe here.
        """
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()  # pragma: no cover - non-POSIX

    # -- execution --------------------------------------------------------

    def run(self, experiment: Experiment,
            profiler: Optional[Profiler] = None,
            *, options: Optional[RunOptions] = None) -> ResultSet:
        """Run every cell; bit-identical to the serial reference loop.

        ``options`` threads the resilience layer through the run: fault
        injection, per-cell retries with simulated backoff, and the
        ``fail_fast`` abort switch.  Without options (or with the
        defaults) behaviour is the classic engine: any error propagates.

        Crash safety: with ``options.journal`` set, every event of the
        run lands in the write-ahead journal (fsync'd before the engine
        proceeds) and fingerprints found in ``options.replay`` are served
        from a prior run's journal without touching cache or simulator —
        the resume path.  SIGINT/SIGTERM are routed into
        ``KeyboardInterrupt`` (see
        :func:`~repro.harness.journal.graceful_shutdown`): in-flight
        cells finish and journal their results (the process drive drains
        its workers first), pending cells are cancelled, a
        ``run-close(interrupted)`` record is written, and
        :class:`~repro.errors.RunInterrupted` tells the caller how to
        resume.  ``fail_fast`` aborts close the journal as ``failed``
        before the :class:`CellFailure` propagates.
        """
        opts = (options if options is not None
                else RunOptions()).with_profiler(profiler)
        plan = CellPlan.build(experiment, opts, self.cache)
        journal = opts.journal
        run_id = (journal.run_id if journal is not None
                  else (opts.run_id or ""))
        if journal is not None and not journal.opened:
            plan.open_run(journal)

        counts = {"workers": 1, "respawns": 0, "redrives": 0}
        total = len(plan.cells)
        guard = (graceful_shutdown() if journal is not None
                 else contextlib.nullcontext())
        try:
            with guard:
                # Breaker state crosses cell boundaries, so breaker runs
                # always execute inline, in cell order.
                if self.parallel and plan.health is None:
                    self._drive_process(plan, counts)
                else:
                    for i in range(total):
                        record_cell(plan, i, run_cell(plan, i))
        except KeyboardInterrupt:
            done = plan.done()
            if journal is not None and not journal.finalized:
                journal.close_run("interrupted", completed=done, total=total)
            raise RunInterrupted(
                f"sweep interrupted after {done}/{total} cells"
                + (f"; resume with: repro run --resume {run_id}"
                   if run_id else ""),
                run_id=run_id, completed=done, total=total) from None
        except CellFailure:
            if journal is not None and not journal.finalized:
                journal.close_run("failed", completed=plan.done(),
                                  total=total)
            raise

        if opts.profiler is not None:
            # Deterministic replay: cell order, original durations — the
            # resulting timeline equals the serial run's byte for byte.
            for cell_prof in plan.traces:
                if cell_prof is None:
                    continue
                for ev in cell_prof.events:
                    opts.profiler.record(ev.kind, ev.name, ev.duration_s,
                                         **ev.metadata)

        if journal is not None and not journal.finalized:
            journal.close_run("complete", completed=len(plan.cells),
                              total=len(plan.cells))
        self.last_report = SweepReport(
            experiment_id=experiment.exp_id,
            cells=[r for r in plan.records if r is not None],
            cache_stats=(self.cache.stats.snapshot()
                         if self.cache is not None else {}),
            parallel=counts["workers"] > 1,
            workers=counts["workers"],
            engine=self.mode,
            wall_s=plan.elapsed(),
            run_id=run_id,
            transitions=(list(plan.health.transitions)
                         if plan.health is not None else []),
            respawns=counts["respawns"],
            redrives=counts["redrives"],
        )
        return plan.results()

    def _drive_process(self, plan: CellPlan, counts: Dict[str, int]) -> None:
        """Fan the cache-missed cells out over a supervised process pool.

        Lookups run in the parent first; misses go to workers, and every
        cell is recorded in cell order, so the journal stream equals the
        inline loop's.  The parent is the watchdog: it waits on the
        oldest outstanding cell; a worker that vanishes (SIGKILL,
        segfault: ``BrokenProcessPool`` on every pending future) or
        hangs past the deadline gets the pool killed and rebuilt,
        finished results harvested and unfinished cells resubmitted.  A
        cell over its redrive budget fails through the degraded-cell
        path, so the record stream stays deterministic either way.
        """
        n = len(plan.cells)
        found = [lookup_cell(plan, i) for i in range(n)]
        misses = [i for i in range(n) if found[i] is None]
        workers = min(len(misses), self.max_workers or (os.cpu_count() or 4))
        if workers < 2:
            for i in range(n):
                record_cell(plan, i, found[i] or execute_cell(plan, i))
            return
        counts["workers"] = workers
        opts = plan.opts
        wd = opts.watchdog
        payload = RunPayload(
            experiment=plan.experiment.to_dict(), faults=opts.faults,
            retry=opts.retry, fail_fast=opts.fail_fast, traced=plan.traced,
            cache_root=(self.cache.root if self.cache is not None
                        else None))
        pool = ProcessPoolExecutor(max_workers=workers,
                                   mp_context=self._mp_context())
        outstanding: Dict[int, object] = {}  # index -> future
        ready: Dict[int, dict] = {}          # index -> result dict
        drives: Dict[int, int] = {}          # index -> submissions
        starts: Dict[int, float] = {}        # index -> first submission

        def submit(i: int) -> None:
            model, shape = plan.cells[i]
            starts.setdefault(i, plan.elapsed())
            drives[i] = drives.get(i, 0) + 1
            task = CellTask(index=i, model=model.name,
                            shape=(shape.m, shape.n, shape.k),
                            fingerprint=plan.fingerprints[i])
            outstanding[i] = pool.submit(execute_cell_payload, payload, task)

        def absorb(result: dict) -> None:
            # Parent-side merge of one worker result: decode it (fail-fast
            # errors re-raise as their original class), mirror the
            # worker's cache store into the parent counters, and record
            # it through the single parent journal writer.
            i = result["index"]
            outcome = _decode_result(result, starts.get(i, 0.0))
            if self.cache is not None and result["stored"]:
                self.cache.stats.record(stores=1)
            record_cell(plan, i, outcome, store=False)

        def harvest() -> None:
            # Results that landed before the pool broke are still
            # good; keeping them means recovery never re-runs a
            # finished cell.
            for j, future in list(outstanding.items()):
                if not future.done() or future.cancelled():
                    continue
                try:
                    ready[j] = future.result(timeout=0)
                except Exception:
                    continue
                del outstanding[j]

        def lost_result(i: int, why: str) -> dict:
            # Synthetic worker result for a cell the watchdog gave
            # up on; flows through absorb() like any real failure.
            model, shape = plan.cells[i]
            cell = f"{model.name}@{shape}"
            attempts = drives.get(i, 1)
            if opts.fail_fast:
                return {"index": i,
                        "error": {"type": "WorkerLost",
                                  "message": f"cell {cell}: {why}",
                                  "cell": cell, "attempts": attempts,
                                  "reason": why}}
            m = failed_measurement(model, shape, plan.experiment, why)
            return {"index": i, "error": None,
                    "measurement": measurement_to_dict(m),
                    "attempts": attempts, "faults": 0, "wall_s": 0.0,
                    "stored": False, "events": None}

        def recover(why: str) -> None:
            nonlocal pool
            counts["respawns"] += 1
            harvest()
            # kill(), not terminate(): a hung worker may be blocked
            # in native code where SIGTERM never gets a look-in.
            for proc in list(dict(getattr(pool, "_processes", None)
                                  or {}).values()):
                with contextlib.suppress(Exception):
                    proc.kill()
            pool.shutdown(wait=False, cancel_futures=True)
            if counts["respawns"] > wd.max_respawns:
                print(f"repro: watchdog: {why}; respawn budget "
                      f"({wd.max_respawns}) exhausted, failing "
                      f"{len(outstanding)} unfinished cell(s)",
                      file=sys.stderr)
                for j in sorted(outstanding):
                    ready[j] = lost_result(
                        j, f"{why}; worker-pool respawn budget "
                           f"({wd.max_respawns}) exhausted")
                outstanding.clear()
                return
            print(f"repro: watchdog: {why}; respawning worker pool "
                  f"({counts['respawns']}/{wd.max_respawns})",
                  file=sys.stderr)
            pool = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=self._mp_context())
            resubmit = sorted(outstanding)
            outstanding.clear()
            for j in resubmit:
                if drives.get(j, 0) > wd.max_redrives:
                    ready[j] = lost_result(
                        j, f"{why}; cell re-driven "
                           f"{drives[j] - 1} time(s) without "
                           f"completing (redrive budget "
                           f"{wd.max_redrives})")
                else:
                    counts["redrives"] += 1
                    submit(j)

        timeout = wd.cell_timeout_s if wd.enabled else None
        i = 0
        try:
            for j in misses:
                submit(j)
            while i < n:  # cell order
                if found[i] is None and i not in ready:
                    try:
                        ready[i] = outstanding[i].result(timeout=timeout)
                    except FuturesTimeoutError:
                        recover(f"hung worker: no result for cell "
                                f"{misses.index(i) + 1}/{len(misses)} "
                                f"within {wd.cell_timeout_s:g}s")
                        continue
                    except BrokenProcessPool:
                        if not wd.enabled:
                            raise
                        recover("worker lost (killed or crashed)")
                        continue
                    del outstanding[i]
                if found[i] is not None:
                    record_cell(plan, i, found[i])
                else:
                    absorb(ready.pop(i))
                i += 1
        except KeyboardInterrupt:
            # Drain before the journal closes: cancel whatever never
            # started, wait out the in-flight workers, and record (and
            # journal) their results and the remaining lookups so
            # close_run('interrupted') counts them as completed.
            for j, future in list(outstanding.items()):
                if future.cancel():
                    del outstanding[j]
            for j in range(i, n):
                with contextlib.suppress(Exception):
                    if found[j] is not None:
                        record_cell(plan, j, found[j])
                    elif j in ready or j in outstanding:
                        absorb(ready.pop(j) if j in ready
                               else outstanding[j].result())
            raise
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def _decode_result(result: dict, start_s: float) -> CellOutcome:
    """A pool worker's result dict as a cell outcome.

    Fail-fast errors come back as structured dicts (exception classes
    do not survive pickling with their keyword state) and re-raise here
    as their original class.
    """
    err = result.get("error")
    if err is not None:
        err_cls = {"RetryExhaustedError": RetryExhaustedError,
                   "WorkerLost": WorkerLost}.get(err["type"], CellFailure)
        raise err_cls(err["message"], cell=err["cell"],
                      attempts=err["attempts"], reason=err["reason"])
    payload = result["measurement"]
    m = measurement_from_dict(payload, default_precision=Precision.parse(
        payload.get("precision", "fp64")))
    trace = None
    if result.get("events") is not None:
        trace = Profiler()
        for kind, name, duration_s, meta in result["events"]:
            trace.record(EventKind(kind), name, duration_s, **meta)
    return CellOutcome(m, executed_status(m), start_s, result["wall_s"],
                       result["attempts"], result["faults"], trace=trace)
