"""Chaos scenarios: inject a crash, drive recovery, assert byte-identity.

Each scenario in :data:`CHAOS_SCENARIOS` stages one of the failure modes
the stack claims to survive — a SIGKILL'd pool worker, a SIGKILL'd
campaign daemon mid-grant, a torn journal tail, a full disk under the
result cache, a submission storm at twice the daemon's admission
capacity — then drives the ordinary recovery machinery (watchdog
respawn, daemon restart + journal recovery, ``fsck`` truncation +
resume, read-only cache degradation, load shedding + idempotent client
retries) and checks the one invariant that matters: the finished
report is **byte-identical** to a failure-free run of the same
campaign.

``run_chaos_suite`` executes the scenarios and writes MTTR and recovery
counters to ``BENCH_robustness.json`` (``repro chaos`` /
``make chaos-smoke``).  Everything is deterministic: crash schedules
are :class:`~repro.chaos.plan.ChaosPlan` files with exact fire
ordinals, and the simulator under the campaigns is seeded.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ConfigError
from .plan import CHAOS_PLAN_ENV, ChaosEvent, ChaosPlan

__all__ = ["ChaosScenarioResult", "CHAOS_SCENARIOS", "run_chaos_suite"]

#: Seconds a scenario waits for a daemon to serve / campaigns to finish.
_SCENARIO_TIMEOUT_S = 180.0


@dataclass
class ChaosScenarioResult:
    """One scenario's verdict: did recovery reproduce the healthy run?"""

    #: Scenario name (a key of :data:`CHAOS_SCENARIOS`).
    name: str
    #: Whether the post-recovery report matched the failure-free run
    #: byte for byte (the pass/fail verdict).
    identical: bool
    #: Mean-time-to-recover: seconds from the crash being detectable to
    #: the campaign finishing (0 for pure degradation scenarios).
    mttr_s: float
    #: Scenario-specific recovery counters (respawns, restarts,
    #: pressure counters, torn records recovered, ...).
    metrics: Dict[str, object] = field(default_factory=dict)
    #: One-line human note (what was injected, what recovered it).
    detail: str = ""

    def render(self) -> str:
        """One report line for this scenario."""
        verdict = "ok" if self.identical else "FAILED"
        extras = ", ".join(f"{k}={v}" for k, v in sorted(self.metrics.items()))
        return (f"  [{verdict:>6s}] {self.name:12s} "
                f"mttr {self.mttr_s:6.2f}s  {extras}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready rendering for ``BENCH_robustness.json``."""
        return {"name": self.name, "identical": self.identical,
                "mttr_s": round(self.mttr_s, 3), "detail": self.detail,
                "metrics": dict(self.metrics)}


# -- shared plumbing -------------------------------------------------------

def _src_dir() -> str:
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))


def _clean_env(workdir: str, plan_path: Optional[str] = None) -> Dict[str, str]:
    """A subprocess environment pinned to ``workdir``'s private stores.

    Every ``REPRO_*`` variable of the calling process is stripped so an
    outer test harness (faults, watchdog, engine overrides) cannot leak
    into the scenario and break its byte-identity baseline.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["REPRO_RUNS_DIR"] = os.path.join(workdir, "runs")
    env["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    env["PYTHONPATH"] = _src_dir() + os.pathsep + env.get("PYTHONPATH", "")
    if plan_path:
        env[CHAOS_PLAN_ENV] = plan_path
    return env


def _solo_render(spec) -> str:
    """The report a failure-free, cache-less in-process run produces."""
    from ..harness.engine import SweepEngine
    from ..harness.report import render_result_set
    from ..harness.runner import run_campaign
    return render_result_set(run_campaign(
        spec, engine=SweepEngine(cache=None)))


def _chaos_spec(exp_id: str, models=("julia", "numba"),
                sizes=(256, 512), reps: int = 3, tenant: str = "default"):
    from ..core.types import DeviceKind, Precision
    from ..harness.experiment import Experiment
    from ..service.spec import CampaignSpec
    return CampaignSpec(experiment=Experiment(
        exp_id=exp_id, title="chaos drill", node_name="Crusher",
        device=DeviceKind.CPU, precision=Precision.FP64,
        models=models, sizes=sizes, threads=64, reps=reps), tenant=tenant)


def _wait_until(predicate: Callable[[], bool],
                timeout: float = _SCENARIO_TIMEOUT_S,
                interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# -- scenario: SIGKILL a pool worker mid-cell ------------------------------

def scenario_worker_kill(workdir: str) -> ChaosScenarioResult:
    """Kill one process-pool worker mid-cell; the watchdog must respawn
    the pool, redrive the lost cells and finish byte-identically."""
    run_args = [sys.executable, "-m", "repro", "run",
                "--engine", "process", "--jobs", "2",
                "--models", "julia,numba", "--sizes", "256,512",
                "--reps", "3", "--no-cache", "--no-journal"]

    base_dir = os.path.join(workdir, "baseline")
    os.makedirs(base_dir, exist_ok=True)
    t0 = time.monotonic()
    baseline = subprocess.run(run_args, env=_clean_env(base_dir),
                              capture_output=True, text=True,
                              timeout=_SCENARIO_TIMEOUT_S)
    baseline_s = time.monotonic() - t0
    if baseline.returncode != 0:
        raise ConfigError(f"worker-kill baseline run failed: "
                          f"{baseline.stderr.strip()}")

    chaos_dir = os.path.join(workdir, "chaos")
    os.makedirs(chaos_dir, exist_ok=True)
    plan_path = ChaosPlan((ChaosEvent("worker-cell", "kill", after=2),)) \
        .write(os.path.join(chaos_dir, "plan.json"))
    t0 = time.monotonic()
    chaotic = subprocess.run(run_args, env=_clean_env(chaos_dir, plan_path),
                             capture_output=True, text=True,
                             timeout=_SCENARIO_TIMEOUT_S)
    chaotic_s = time.monotonic() - t0

    respawns = chaotic.stderr.count("respawning worker pool")
    identical = (chaotic.returncode == 0
                 and chaotic.stdout == baseline.stdout
                 and respawns >= 1)
    return ChaosScenarioResult(
        name="worker-kill", identical=identical,
        mttr_s=max(0.0, chaotic_s - baseline_s),
        metrics={"respawns": respawns,
                 "exit_code": chaotic.returncode,
                 "stdout_bytes": len(chaotic.stdout)},
        detail="SIGKILL'd worker 3 cells in; watchdog respawned the pool "
               "and redrove the lost cells")


# -- scenario: SIGKILL the campaign daemon mid-grant -----------------------

def scenario_daemon_kill(workdir: str) -> ChaosScenarioResult:
    """SIGKILL ``repro serve`` mid-grant with two tenants queued; a
    restarted daemon must recover both from their journals, prune the
    dead pid's ACTIVE sidecars and finish byte-identically."""
    from ..harness.engine import ResultCache
    from ..harness.journal import RunRegistry
    from ..harness.report import render_result_set
    from ..service import CampaignService, ServiceClient

    os.makedirs(workdir, exist_ok=True)
    runs_dir = os.path.join(workdir, "runs")
    cache_dir = os.path.join(workdir, "cache")
    sock = os.path.join(workdir, "chaos.sock")
    # The daemon starts with an empty plan; the kill is armed only once
    # both campaigns are queued, so it cannot fire before the second
    # submit is answered.  Strike points reload the plan on every hit.
    plan_path = ChaosPlan().write(os.path.join(workdir, "plan.json"))
    spec_a = _chaos_spec("chaos-daemon-a", ("julia", "numba", "kokkos"),
                         (256, 512, 1024, 2048), reps=4, tenant="alice")
    spec_b = _chaos_spec("chaos-daemon-b", ("julia", "numba", "kokkos"),
                         (256, 512, 1024, 2048), reps=4, tenant="bob")
    serve_args = [sys.executable, "-m", "repro", "serve", "--socket", sock]

    def ping_ok() -> bool:
        from ..errors import ServiceError
        try:
            return ServiceClient(sock).ping().get("ok") is True
        except ServiceError:
            return False

    first = subprocess.Popen(serve_args, env=_clean_env(workdir, plan_path),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        if not _wait_until(ping_ok):
            raise ConfigError("chaos daemon never served")
        client = ServiceClient(sock)
        id_a = client.submit(spec_a)
        id_b = client.submit(spec_b)
        # Armed now, the plan SIGKILLs the daemon on its 9th grant from
        # here — no graceful unwind, no sidecar release, journals torn
        # mid-run.  The swap is atomic: a strike never reads half a plan.
        armed = ChaosPlan((ChaosEvent("daemon-grant", "kill", after=8),)) \
            .write(plan_path + ".armed")
        os.replace(armed, plan_path)
        first.wait(timeout=_SCENARIO_TIMEOUT_S)
    finally:
        if first.poll() is None:
            first.kill()
            first.wait(timeout=30)
    killed_by_sigkill = first.returncode == -9

    # The dead daemon's pid is still claimed in at least one ACTIVE
    # sidecar; recovery must prune it rather than wait out a lease.
    dead_sidecars = 0
    for name in os.listdir(runs_dir):
        if not name.endswith(".active"):
            continue
        try:
            with open(os.path.join(runs_dir, name)) as fh:
                if int(json.load(fh).get("pid", 0)) == first.pid:
                    dead_sidecars += 1
        except (OSError, ValueError):
            continue

    registry = RunRegistry(runs_dir)

    def both_complete() -> bool:
        try:
            return (registry.load(id_a).status == "complete"
                    and registry.load(id_b).status == "complete")
        except Exception:
            return False

    t_restart = time.monotonic()
    second = subprocess.Popen(serve_args, env=_clean_env(workdir),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
    try:
        if not _wait_until(ping_ok):
            raise ConfigError("restarted daemon never served")
        finished = _wait_until(both_complete)
        mttr = time.monotonic() - t_restart
    finally:
        from ..errors import ServiceError
        try:
            ServiceClient(sock).shutdown()
        except ServiceError:
            second.terminate()
        second.wait(timeout=60)

    sidecars_left = sum(1 for name in os.listdir(runs_dir)
                        if name.endswith(".active"))
    svc = CampaignService(registry=registry, cache=ResultCache(cache_dir))
    identical = bool(
        killed_by_sigkill and finished and dead_sidecars >= 1
        and sidecars_left == 0
        and render_result_set(svc.result_set(id_a)) == _solo_render(spec_a)
        and render_result_set(svc.result_set(id_b)) == _solo_render(spec_b))
    return ChaosScenarioResult(
        name="daemon-kill", identical=identical, mttr_s=mttr,
        metrics={"killed_by_sigkill": killed_by_sigkill,
                 "dead_pid_sidecars": dead_sidecars,
                 "sidecars_after_recovery": sidecars_left,
                 "campaigns_recovered": 2 if finished else 0},
        detail="SIGKILL'd the daemon on grant 9 of 24; the restart "
               "recovered both tenants' campaigns from their journals")


# -- scenario: tear the journal tail ---------------------------------------

def scenario_journal_tear(workdir: str) -> ChaosScenarioResult:
    """Tear a half-finished campaign's journal tail; ``fsck`` must
    truncate to the valid prefix and recovery must re-execute from
    there to a byte-identical report."""
    from ..harness.engine import ResultCache
    from ..harness.journal import RunRegistry, fsck_store
    from ..harness.report import render_result_set
    from ..service import CampaignService

    runs_dir = os.path.join(workdir, "runs")
    cache_dir = os.path.join(workdir, "cache")
    spec = _chaos_spec("chaos-tear")
    service = CampaignService(registry=RunRegistry(runs_dir),
                              cache=ResultCache(cache_dir))
    cid = service.submit(spec)
    for _ in range(2):          # 2 of the campaign's 4 cells
        service.step()
    service.suspend()

    path = RunRegistry(runs_dir).path_for(cid)
    with open(path, "r+b") as fh:
        fh.seek(0, os.SEEK_END)
        # A writer SIGKILL'd mid-append leaves exactly this: a valid
        # prefix followed by a truncated, newline-less record.
        fh.write(b'{"type": "cell-done", "seq": 999, "torn')

    t0 = time.monotonic()
    registry = RunRegistry(runs_dir)
    report = fsck_store(cache=ResultCache(cache_dir), registry=registry)
    torn = sum(1 for i in report.issues if i.kind == "journal-tail")
    svc2 = CampaignService(registry=registry, cache=ResultCache(cache_dir))
    recovered = svc2.recover()
    svc2.run_until_idle()
    mttr = time.monotonic() - t0

    identical = (torn == 1 and recovered == [cid]
                 and render_result_set(svc2.result_set(cid))
                 == _solo_render(spec))
    return ChaosScenarioResult(
        name="journal-tear", identical=identical, mttr_s=mttr,
        metrics={"torn_tails_recovered": torn,
                 "campaigns_recovered": len(recovered),
                 "cells_journaled_before_tear": 2},
        detail="tore the journal tail after 2 of 4 cells; fsck truncated "
               "to the valid prefix and recovery finished the rest")


# -- scenario: disk-full under the result cache ----------------------------

def scenario_disk_full(workdir: str) -> ChaosScenarioResult:
    """Exhaust the store under every cache put; the cache must degrade
    to read-only (counting what it skipped) while the campaign itself
    completes byte-identically."""
    from ..harness.engine import ResultCache, SweepEngine
    from ..harness.report import render_result_set
    from ..harness.runner import run_campaign

    os.makedirs(workdir, exist_ok=True)
    spec = _chaos_spec("chaos-disk-full")
    baseline = _solo_render(spec)

    cache = ResultCache(os.path.join(workdir, "cache"))
    plan_path = ChaosPlan((ChaosEvent("cache-put", "enospc",
                                      count=1_000_000),)) \
        .write(os.path.join(workdir, "plan.json"))
    os.environ[CHAOS_PLAN_ENV] = plan_path
    try:
        t0 = time.monotonic()
        results = run_campaign(spec, engine=SweepEngine(cache=cache))
        wall = time.monotonic() - t0
    finally:
        os.environ.pop(CHAOS_PLAN_ENV, None)

    pressure = cache.pressure_snapshot()
    identical = (render_result_set(results) == baseline
                 and bool(pressure.get("read_only"))
                 and int(pressure.get("enospc", 0)) >= 2)
    return ChaosScenarioResult(
        name="disk-full", identical=identical, mttr_s=0.0,
        metrics={"read_only": bool(pressure.get("read_only")),
                 "enospc_hits": int(pressure.get("enospc", 0)),
                 "skipped_puts": int(pressure.get("skipped_puts", 0)),
                 "degraded_wall_s": round(wall, 3)},
        detail="every cache put hit ENOSPC; the store flipped read-only "
               "and the campaign completed without caching")


# -- scenario: submission storm at 2x admission capacity -------------------

def scenario_overload(workdir: str) -> ChaosScenarioResult:
    """Storm a small-capacity daemon at twice its admission cap through
    retrying keyed clients, SIGKILL it mid-storm and restart it; every
    submission must land exactly once (shed requests converge via
    429/503 + ``Retry-After``, lost ACKs via the idempotency map, which
    must also survive the restart), every accepted campaign must finish
    byte-identically, and a tiny-deadline campaign must end
    ``expired`` — never ``done``, never wedged."""
    import dataclasses
    import threading

    from ..errors import DeadlineExpired, ServiceError
    from ..harness.engine import ResultCache
    from ..harness.journal import RunRegistry
    from ..harness.report import render_result_set
    from ..service import ClientPolicy, CampaignService, ServiceClient

    os.makedirs(workdir, exist_ok=True)
    runs_dir = os.path.join(workdir, "runs")
    cache_dir = os.path.join(workdir, "cache")
    sock = os.path.join(workdir, "chaos.sock")
    # SIGKILL on the 7th grant: the storm is still submitting, so some
    # ACKs are lost mid-flight and must converge through retried,
    # idempotency-keyed submits against the restarted daemon.
    plan_path = ChaosPlan((ChaosEvent("daemon-grant", "kill", after=6),)) \
        .write(os.path.join(workdir, "plan.json"))
    max_total = 6
    storm = 2 * max_total
    specs = [dataclasses.replace(
        _chaos_spec(f"chaos-ovl-{i:02d}", ("julia", "numba"),
                    (256, 512), reps=2, tenant=f"tenant{i % 3}"),
        submission_key=f"storm-{i:02d}") for i in range(storm)]
    serve_args = [sys.executable, "-m", "repro", "serve", "--socket", sock,
                  "--max-total", str(max_total)]
    policy = ClientPolicy(retries=24, backoff_max_s=0.5)

    def ping_ok() -> bool:
        try:
            return ServiceClient(sock).ping().get("ok") is True
        except ServiceError:
            return False

    def submit_converge(spec) -> "tuple[str, int]":
        """One storming client: submit until the keyed spec lands.

        The client policy already retries 429/503 and connection
        refusal; this outer loop additionally survives what the policy
        deliberately refuses to hide — a 409 from losing the
        check-overload/admit race to the hard admission wall, and a
        connection the SIGKILL tore mid-request.  Both re-submits are
        exactly-once because the spec carries a submission_key.
        """
        client = ServiceClient(sock, policy=policy)
        deadline = time.monotonic() + _SCENARIO_TIMEOUT_S
        while True:
            try:
                return client.submit(spec), client.retries_used
            except ServiceError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.2)

    ids: Dict[int, str] = {}
    retries: Dict[int, int] = {}
    errors: List[str] = []
    lock = threading.Lock()

    def storm_one(i: int) -> None:
        try:
            campaign_id, used = submit_converge(specs[i])
            with lock:
                ids[i] = campaign_id
                retries[i] = used
        except ServiceError as exc:
            with lock:
                errors.append(f"storm-{i:02d}: {exc}")

    first = subprocess.Popen(serve_args, env=_clean_env(workdir, plan_path),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    expired_id = ""
    try:
        if not _wait_until(ping_ok):
            raise ConfigError("overload daemon never served")
        t_storm = time.monotonic()
        threads = [threading.Thread(target=storm_one, args=(i,))
                   for i in range(storm)]
        for thread in threads:
            thread.start()
        # The armed plan SIGKILLs the daemon on its 7th grant — mid-storm,
        # so some submits lose their ACK mid-request.
        first.wait(timeout=_SCENARIO_TIMEOUT_S)
    finally:
        if first.poll() is None:
            first.kill()
            first.wait(timeout=30)
    killed_by_sigkill = first.returncode == -9

    t_restart = time.monotonic()
    second = subprocess.Popen(serve_args, env=_clean_env(workdir),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
    try:
        if not _wait_until(ping_ok):
            raise ConfigError("restarted overload daemon never served")
        # A 12-cell campaign under a 50 ms deadline: at ~10 ms a cell it
        # cannot finish in time even against an idle scheduler, so it
        # must end ``expired`` at a cell boundary — never ``done``.
        expired_spec = dataclasses.replace(
            _chaos_spec("chaos-ovl-deadline", ("julia", "numba", "kokkos"),
                        (256, 512, 1024, 2048), reps=2),
            submission_key="storm-deadline", deadline_s=0.05)
        expired_id, _ = submit_converge(expired_spec)
        for thread in threads:
            thread.join(timeout=_SCENARIO_TIMEOUT_S)
        convergence_s = time.monotonic() - t_storm
        # Replaying an already-ACKed submit against the *restarted*
        # daemon must answer the original id from the journal-rebuilt
        # idempotency map — exactly-once across daemon lives.
        dup_id = submit_converge(specs[0])[0] if 0 in ids else ""

        registry = RunRegistry(runs_dir)

        def storm_complete() -> bool:
            try:
                return all(registry.load(cid).status == "complete"
                           for cid in ids.values())
            except Exception:
                return False

        finished = len(ids) == storm and _wait_until(storm_complete)
        mttr = time.monotonic() - t_restart
        expired_ok = False
        if expired_id:
            try:
                ServiceClient(sock).wait(expired_id, timeout=60.0)
            except DeadlineExpired:
                expired_ok = True
            except ServiceError:
                expired_ok = False
        status = ServiceClient(sock).status()
    finally:
        try:
            ServiceClient(sock).shutdown()
        except ServiceError:
            second.terminate()
        second.wait(timeout=60)

    # Exactly-once on disk: every storm key owns exactly one journal.
    keys_seen: Dict[str, int] = {}
    for run_id in registry.run_ids():
        try:
            meta = registry.load(run_id).service_meta or {}
        except Exception:
            continue
        key = (meta.get("spec") or {}).get("submission_key")
        if key:
            keys_seen[str(key)] = keys_seen.get(str(key), 0) + 1
    exactly_once = (len(ids) == storm
                    and len(set(ids.values())) == storm
                    and dup_id == ids.get(0)
                    and all(keys_seen.get(f"storm-{i:02d}") == 1
                            for i in range(storm)))

    svc = CampaignService(registry=registry, cache=ResultCache(cache_dir))
    sampled = [specs[i] for i in (0, storm // 2, storm - 1)]
    identical = bool(
        killed_by_sigkill and finished and exactly_once and expired_ok
        and not errors
        and all(render_result_set(svc.result_set(ids[specs.index(s)]))
                == _solo_render(s) for s in sampled))
    overload = status.get("overload", {})
    return ChaosScenarioResult(
        name="overload", identical=identical, mttr_s=mttr,
        metrics={"killed_by_sigkill": killed_by_sigkill,
                 "storm_campaigns": storm,
                 "unique_ids": len(set(ids.values())),
                 "client_retries": sum(retries.values()),
                 "convergence_s": round(convergence_s, 3),
                 "duplicates_after_restart": int(
                     overload.get("duplicates", 0)),
                 "shed_after_restart": int(overload.get("shed", 0)),
                 "deadline_expired": expired_ok},
        detail=f"stormed {storm} keyed submissions at a {max_total}-slot "
               "daemon, SIGKILL'd it on grant 7 and restarted; shedding "
               "+ idempotent retries converged on exactly one campaign "
               "per key")


#: Scenario registry, in the order ``repro chaos`` runs them.
CHAOS_SCENARIOS: Dict[str, Callable[[str], ChaosScenarioResult]] = {
    "worker-kill": scenario_worker_kill,
    "daemon-kill": scenario_daemon_kill,
    "journal-tear": scenario_journal_tear,
    "disk-full": scenario_disk_full,
    "overload": scenario_overload,
}


def run_chaos_suite(out: Optional[str] = None,
                    scenarios: Optional[Sequence[str]] = None,
                    workdir: Optional[str] = None
                    ) -> List[ChaosScenarioResult]:
    """Run chaos scenarios and (optionally) write the robustness bench.

    ``scenarios`` selects a subset by name (default: all of
    :data:`CHAOS_SCENARIOS`, in order); ``workdir`` pins the scratch
    root (default: a private temp dir, removed afterwards); ``out``
    names the ``BENCH_robustness.json`` to write.
    """
    names = list(scenarios) if scenarios else list(CHAOS_SCENARIOS)
    unknown = [n for n in names if n not in CHAOS_SCENARIOS]
    if unknown:
        raise ConfigError(
            f"unknown chaos scenario(s) {', '.join(unknown)} "
            f"(known: {', '.join(CHAOS_SCENARIOS)})")
    own_root = workdir is None
    root = workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    results: List[ChaosScenarioResult] = []
    try:
        for name in names:
            scenario_dir = os.path.join(root, name)
            os.makedirs(scenario_dir, exist_ok=True)
            results.append(CHAOS_SCENARIOS[name](scenario_dir))
    finally:
        if own_root:
            shutil.rmtree(root, ignore_errors=True)
    if out:
        payload = {
            "benchmark": "robustness",
            "python": platform.python_version(),
            "host_cpus": os.cpu_count() or 1,
            "all_identical": all(r.identical for r in results),
            "scenarios": {r.name: r.to_dict() for r in results},
        }
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return results
