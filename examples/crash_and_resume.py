#!/usr/bin/env python3
"""Crash-safe campaigns: interrupt a journaled sweep, resume it exactly.

Walks the full robustness loop the harness provides:

1. run a campaign uninterrupted to establish the reference output;
2. run the same campaign with a write-ahead journal and kill it
   mid-sweep (a simulated SIGINT on the third cell);
3. inspect the journal the interrupt left behind — finalized, with
   every completed cell's measurement embedded;
4. resume from the journal: completed cells replay from their embedded
   payloads, the remainder executes, and the merged result is
   *byte-identical* to the uninterrupted reference;
5. fsck the store and confirm it is clean.

Run:  python examples/crash_and_resume.py
"""

import os
import tempfile

from repro.core.types import DeviceKind, Precision
from repro.errors import RunInterrupted
from repro.harness.engine import ResultCache, RunOptions, SweepEngine
from repro.harness.experiment import Experiment
from repro.harness.export import result_set_to_json
from repro.harness.journal import RunRegistry, fsck_store, resume_run
from repro.harness.runner import run_campaign
from repro.service import CampaignSpec

EXPERIMENT = Experiment(
    exp_id="resume-demo",
    title="crash/resume demonstration",
    node_name="Crusher",
    device=DeviceKind.CPU,
    precision=Precision.FP64,
    models=("c-openmp", "kokkos", "julia", "numba"),
    sizes=(256, 512),
    threads=64,
    reps=5,
)

INTERRUPT_AT_CELL = 3


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-resume-demo-")
    registry = RunRegistry(os.path.join(workdir, "runs"))

    print("== 1. uninterrupted reference run ==")
    reference = run_campaign(CampaignSpec(experiment=EXPERIMENT),
                             engine=SweepEngine(cache=None))
    print(f"   {len(reference.measurements)} cells measured")

    print(f"== 2. journaled run, killed at cell {INTERRUPT_AT_CELL} ==")
    import repro.harness.engine.worker as worker
    original = worker.run_measurement
    calls = {"count": 0}

    def dying_run_measurement(*args, **kwargs):
        calls["count"] += 1
        if calls["count"] == INTERRUPT_AT_CELL:
            raise KeyboardInterrupt  # what SIGINT delivers mid-sweep
        return original(*args, **kwargs)

    worker.run_measurement = dying_run_measurement
    journal = registry.create()
    try:
        run_campaign(CampaignSpec(experiment=EXPERIMENT),
                     engine=SweepEngine(cache=None),
                     options=RunOptions(journal=journal))
        raise SystemExit("expected the run to be interrupted")
    except RunInterrupted as exc:
        print(f"   interrupted: {exc}")
    finally:
        worker.run_measurement = original
        journal.close()

    print("== 3. the journal the crash left behind ==")
    state = registry.load(journal.run_id)
    print(f"   {state.describe()}")
    assert state.status == "interrupted" and state.resumable

    print("== 4. resume: replay + execute the remainder ==")
    engine = SweepEngine(cache=None)
    resumed = resume_run(journal.run_id, registry=registry, engine=engine)
    report = engine.last_report
    print(f"   {report.replayed_cells} cells replayed from the journal, "
          f"{report.executed_cells} executed")
    assert result_set_to_json(resumed) == result_set_to_json(reference)
    print("   resumed output is byte-identical to the reference")

    print("== 5. fsck ==")
    fsck = fsck_store(cache=ResultCache(os.path.join(workdir, "cache")),
                      registry=registry)
    print("   " + fsck.render().splitlines()[-1])
    assert not fsck.corrupt


if __name__ == "__main__":
    main()
