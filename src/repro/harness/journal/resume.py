"""Resume: complete an interrupted campaign from its write-ahead journal.

The contract is **byte-identity**: a resumed run must produce exactly
the output an uninterrupted run would have — same measurements, same
samples, same rendering.  Three properties make that possible:

* every completed cell's full-fidelity measurement is embedded in the
  journal, so replay needs neither the cache nor the simulator;
* the simulator is deterministic per cell, so the *remaining* cells
  compute the same values they would have computed the first time;
* the run-open record pins the campaign fingerprint (experiment
  manifest + fault model + cost-model constants version), and resume
  *refuses* to run if the current code would fingerprint the campaign
  differently — silently resuming across a constants bump would splice
  incompatible halves together.

The resilience options (fault config, retry policy, ``fail_fast``) are
restored from the journal rather than the environment: they decide
*which* cells fail, so honoring the CLI flags of the moment would break
identity with the original run.  A journal whose options name the
removed lane breaker is refused with :class:`~repro.errors.ConfigError`:
its replayed cells were routed by rules a plain run does not follow.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ...errors import JournalError, breaker_removed
from ...sim.faults import FaultConfig
from ..experiment import Experiment
from ..results import ResultSet
from ..engine.fingerprint import campaign_fingerprint
from ..engine.options import RetryPolicy, RunOptions
from .journal import JournalState
from .registry import RunRegistry

__all__ = ["restore_campaign", "resume_run"]


def restore_campaign(state: JournalState) -> Tuple[Experiment, RunOptions]:
    """Rebuild the experiment and resilience options a journal recorded.

    Verifies the campaign fingerprint: the experiment + fault model must
    fingerprint today exactly as they did when the run opened, otherwise
    the journal belongs to a different code/constants state and replayed
    cells could not be byte-identical — :class:`JournalError` is raised
    instead of producing a silently-spliced campaign.
    """
    if not state.manifest:
        raise JournalError(f"journal {state.path} carries no manifest")
    experiment = Experiment.from_dict(state.manifest)
    opt_payload = state.options or {}
    if "breaker" in opt_payload or "fallback" in opt_payload:
        raise breaker_removed(f"run {state.run_id}'s journal")
    faults = FaultConfig.from_payload(opt_payload.get("faults", {}))
    retry = RetryPolicy.from_payload(opt_payload.get("retry", {}))
    expected = campaign_fingerprint(experiment, faults)
    if state.campaign and state.campaign != expected:
        raise JournalError(
            f"run {state.run_id} was journaled under campaign fingerprint "
            f"{state.campaign[:12]}... but this build computes "
            f"{expected[:12]}... — the experiment, fault model or "
            f"cost-model constants changed; rerun instead of resuming")
    options = RunOptions(
        retry=retry, faults=faults,
        fail_fast=bool(opt_payload.get("fail_fast", False)),
    )
    return experiment, options


def resume_run(run_id: str, registry: Optional[RunRegistry] = None,
               engine=None, *, options: Optional[RunOptions] = None,
               ) -> ResultSet:
    """Complete (or re-emit) a journaled run; byte-identical output.

    Loads the journal, restores the recorded campaign, replays every
    completed cell from the embedded payloads and executes only the
    remainder, appending to the same journal.  A run that was already
    complete simply replays in full — still byte-identical, which makes
    resume idempotent.

    ``options`` may override *execution* knobs only (cache, jobs,
    profiler, watchdog); the resilience layer always comes from the
    journal.
    ``engine`` is forwarded to :func:`repro.harness.runner.run_campaign`.
    """
    from dataclasses import replace
    from ...service.spec import CampaignSpec
    from ..runner import run_campaign

    reg = registry if registry is not None else RunRegistry()
    state = reg.load(run_id)
    experiment, restored = restore_campaign(state)
    if options is not None:
        restored = replace(restored, cache=options.cache,
                           jobs=options.jobs, profiler=options.profiler,
                           watchdog=options.watchdog)
    journal = reg.reopen(run_id)
    journal.resume_run(completed=state.done_cells, total=state.total_cells)
    restored = replace(restored, journal=journal,
                       replay=dict(state.completed))
    try:
        return run_campaign(CampaignSpec(experiment=experiment),
                            engine=engine, options=restored)
    finally:
        journal.close()
