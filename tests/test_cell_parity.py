"""One cell, one record stream: every execution path journals alike.

The determinism contract says a cell gives the same bytes however it is
driven.  This suite pins it at the journal: the serial engine, the
process-pool engine and the campaign service stepping the same spec to
completion must write the same ``cell-start`` / ``cell-done`` /
``cell-failed`` / ``breaker`` record stream (wall clocks and run
identity aside), under retried faults and under breaker-driven
fallback serving alike.
"""

import multiprocessing

import pytest

from repro.core.types import DeviceKind, Precision
from repro.harness.engine import ResultCache, RunOptions, SweepEngine
from repro.harness.engine.options import RetryPolicy
from repro.harness.experiment import Experiment
from repro.harness.health import BreakerPolicy
from repro.harness.journal import RunRegistry
from repro.harness.runner import run_campaign
from repro.service import CampaignService, CampaignSpec
from repro.sim.faults import FaultConfig

from .test_journal import journal_record_stream

CELL_RECORDS = ("cell-start", "cell-done", "cell-failed", "breaker")

#: (a) transient and permanent faults under a retry budget;
#: (b) breakers on, with a lane that fails on every attempt until it
#: trips OPEN and its cells are served down the fallback ladder.
CASES = {
    "faults-retries": dict(
        models=("julia", "numba", "kokkos"),
        faults=FaultConfig.parse("rate=0.4,seed=11,always=numba@512"),
        retry=RetryPolicy(max_attempts=3)),
    "breaker-ladder": dict(
        models=("c-openmp", "julia"),
        faults=FaultConfig.parse("always=julia@256+julia@512+julia@1024"),
        breaker=BreakerPolicy(threshold=2, cooldown_s=1e5)),
}


def campaign_spec(case):
    kw = dict(CASES[case])
    experiment = Experiment(
        exp_id=f"parity-{case}", title="cell parity", node_name="Crusher",
        device=DeviceKind.CPU, precision=Precision.FP64,
        models=kw.pop("models"), sizes=(256, 512, 1024), threads=64, reps=3)
    return CampaignSpec(experiment=experiment, **kw)


def cell_stream(registry, run_id):
    return [(rtype, data)
            for rtype, data in journal_record_stream(registry, run_id)
            if rtype in CELL_RECORDS]


def engine_stream(registry, spec, engine):
    journal = registry.create()
    run_campaign(spec, engine=engine, options=RunOptions(journal=journal))
    journal.close()
    return cell_stream(registry, journal.run_id)


def service_stream(registry, spec, cache):
    svc = CampaignService(registry=registry, cache=cache)
    run_id = svc.submit(spec)
    svc.run_until_idle()
    assert svc.campaigns[run_id].state == "done"
    return cell_stream(registry, run_id)


@pytest.mark.parametrize("case", sorted(CASES))
def test_execution_paths_write_the_same_cell_record_stream(tmp_path, case):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    spec = campaign_spec(case)
    registry = RunRegistry(str(tmp_path / "runs"))
    serial = engine_stream(registry, spec, SweepEngine(
        cache=ResultCache(str(tmp_path / "c-serial")), max_workers=1))
    process = engine_stream(registry, spec, SweepEngine(
        cache=ResultCache(str(tmp_path / "c-process")), max_workers=2,
        mode="process"))
    service = service_stream(registry, spec,
                             ResultCache(str(tmp_path / "c-service")))

    # The case must exercise what it is named for.
    types = [rtype for rtype, _ in serial]
    if case == "faults-retries":
        assert "cell-failed" in types
        assert any(data.get("attempts", 1) > 1 for _, data in serial)
    else:
        assert "breaker" in types
        assert any(data["measurement"].get("served_by")
                   for rtype, data in serial if rtype == "cell-done")
    assert process == serial
    assert service == serial
