"""Crash-fault supervision: watchdog, chaos plans, degraded stores.

The robustness contract is byte-identity under fire: a SIGKILL'd pool
worker, a hung cell, a full disk or a torn journal must never change
result bytes — recovery re-derives exactly what an undisturbed run
would have produced, and budgets turn unrecoverable cells into the
normal degraded-cell accounting (e = 0) instead of a crashed process.
"""

import errno
import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from repro.chaos import (
    CHAOS_ACTIONS,
    CHAOS_PLAN_ENV,
    CHAOS_POINTS,
    ChaosEvent,
    ChaosPlan,
    chaos_armed,
    chaos_strike,
    run_chaos_suite,
)
from repro.core.types import DeviceKind, Precision
from repro.errors import ConfigError, WorkerLost
from repro.harness import Experiment
from repro.harness.engine import (
    LOCK_GRACE_SECONDS,
    ResultCache,
    RunOptions,
    SweepEngine,
    WatchdogPolicy,
)
from repro.harness.journal import RunJournal, RunRegistry, fsck_store
from repro.harness.report import render_result_set
from repro.service import CampaignDaemon, CampaignService, CampaignSpec
from repro.service.service import MAX_CAMPAIGN_RESTARTS


def small_exp(**kw):
    defaults = dict(
        exp_id="chaos-gemm", title="chaos test", node_name="Crusher",
        device=DeviceKind.CPU, precision=Precision.FP64,
        models=("julia", "numba"), sizes=(256, 512), threads=64, reps=3,
    )
    defaults.update(kw)
    return Experiment(**defaults)


def serial_baseline(exp):
    return SweepEngine(cache=None).run(exp)


def arm_plan(monkeypatch, tmp_path, *events):
    """Write a plan file and arm it for this test (and its children)."""
    path = ChaosPlan(tuple(events)).write(str(tmp_path / "plan.json"))
    monkeypatch.setenv(CHAOS_PLAN_ENV, path)
    return path


def process_engine(cache=None, workers=2):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    return SweepEngine(cache=cache, max_workers=workers,
                       mode="process")


# --------------------------------------------------------------------------
# WatchdogPolicy: spec grammar and validation
# --------------------------------------------------------------------------

class TestWatchdogPolicy:
    def test_defaults(self):
        wd = WatchdogPolicy()
        assert wd.enabled and wd.cell_timeout_s is None
        assert wd.max_respawns == 3 and wd.max_redrives == 2

    def test_parse_on_off(self):
        assert WatchdogPolicy.parse("").enabled
        assert WatchdogPolicy.parse("on").enabled
        for off in ("off", "0", "false", "no", "OFF"):
            assert not WatchdogPolicy.parse(off).enabled

    def test_parse_bare_number_is_timeout(self):
        assert WatchdogPolicy.parse("30").cell_timeout_s == 30.0
        assert WatchdogPolicy.parse("1.5").cell_timeout_s == 1.5

    def test_parse_key_values(self):
        wd = WatchdogPolicy.parse("timeout=30,respawns=2,redrives=1")
        assert wd.cell_timeout_s == 30.0
        assert wd.max_respawns == 2 and wd.max_redrives == 1
        assert WatchdogPolicy.parse("timeout=off").cell_timeout_s is None

    @pytest.mark.parametrize("bad", [
        "timeout=banana", "respawns=1.5", "banana=1", "timeout",
        "timeout=1,timeout=2", "timeout=-1", "respawns=-1", "redrives=-2",
    ])
    def test_parse_rejects_junk(self, bad):
        with pytest.raises(ConfigError):
            WatchdogPolicy.parse(bad)

    def test_describe(self):
        assert WatchdogPolicy.parse("off").describe() == "off"
        text = WatchdogPolicy.parse("timeout=30,respawns=2").describe()
        assert "timeout=30s" in text and "respawns<=2" in text


# --------------------------------------------------------------------------
# ChaosPlan: codec, arming, deterministic once-only firing
# --------------------------------------------------------------------------

class TestChaosPlan:
    def test_round_trip(self):
        plan = ChaosPlan((
            ChaosEvent("worker-cell", "kill", match="julia", after=2),
            ChaosEvent("cache-put", "enospc", count=5),
        ))
        assert ChaosPlan.from_json(plan.to_json()) == plan

    def test_validation(self):
        with pytest.raises(ConfigError):
            ChaosEvent("banana", "kill")
        with pytest.raises(ConfigError):
            ChaosEvent("worker-cell", "explode")
        with pytest.raises(ConfigError):
            ChaosEvent("worker-cell", "kill", after=-1)
        with pytest.raises(ConfigError):
            ChaosPlan.from_json("{not json")
        with pytest.raises(ConfigError):
            ChaosPlan.load("/nonexistent/plan.json")
        assert "kill" in CHAOS_ACTIONS and "worker-cell" in CHAOS_POINTS

    def test_unarmed_strike_is_noop(self, monkeypatch):
        monkeypatch.delenv(CHAOS_PLAN_ENV, raising=False)
        assert not chaos_armed()
        chaos_strike("worker-cell", "julia@256x256x256")  # must not raise

    def test_window_fires_exactly_once(self, monkeypatch, tmp_path):
        path = arm_plan(monkeypatch, tmp_path,
                        ChaosEvent("cache-put", "enospc", after=1, count=1))
        assert chaos_armed()
        chaos_strike("cache-put", "fp0")            # ordinal 0: pass
        with pytest.raises(OSError) as exc:
            chaos_strike("cache-put", "fp1")        # ordinal 1: fire
        assert exc.value.errno == errno.ENOSPC
        chaos_strike("cache-put", "fp2")            # ordinal 2: pass again
        chaos_strike("journal-append", "cell-done")  # other point: no-op
        fired = sorted(os.listdir(path + ".fired"))
        assert fired == ["e0.hit0", "e0.hit1", "e0.hit2"]

    def test_match_filters_labels(self, monkeypatch, tmp_path):
        arm_plan(monkeypatch, tmp_path,
                 ChaosEvent("worker-cell", "enospc", match="julia",
                            count=100))
        chaos_strike("worker-cell", "numba@256x256x256")  # no match: pass
        with pytest.raises(OSError):
            chaos_strike("worker-cell", "julia@256x256x256")


# --------------------------------------------------------------------------
# Process-engine watchdog: crash + hang recovery, budget exhaustion
# --------------------------------------------------------------------------

class TestWorkerCrashRecovery:
    def test_sigkill_mid_cell_recovers_byte_identically(
            self, monkeypatch, tmp_path):
        exp = small_exp()
        serial = serial_baseline(exp)
        arm_plan(monkeypatch, tmp_path,
                 ChaosEvent("worker-cell", "kill", after=1, count=1))
        engine = process_engine()
        survived = engine.run(exp)
        assert survived.measurements == serial.measurements
        assert render_result_set(survived) == render_result_set(serial)
        report = engine.last_report
        assert report.respawns >= 1 and report.redrives >= 1
        assert "respawn" in report.render()

    def test_hung_worker_times_out_and_recovers(self, monkeypatch, tmp_path):
        exp = small_exp()
        serial = serial_baseline(exp)
        arm_plan(monkeypatch, tmp_path,
                 ChaosEvent("worker-cell", "hang", count=1))
        engine = process_engine()
        opts = RunOptions(watchdog=WatchdogPolicy(cell_timeout_s=1.5))
        survived = engine.run(exp, options=opts)
        assert survived.measurements == serial.measurements
        assert engine.last_report.respawns >= 1

    def test_redrive_budget_exhaustion_fails_cells_degraded(
            self, monkeypatch, tmp_path):
        # Every execution of every cell is killed: once the per-cell
        # redrive budget is spent the cells must fail through the normal
        # degraded path (e = 0), not crash the run or loop forever.
        # (A single-cell sweep would fall back to the serial drive, so
        # two cells keep the pool — and the strike point — in play.)
        exp = small_exp(models=("julia",), sizes=(256, 512))
        arm_plan(monkeypatch, tmp_path,
                 ChaosEvent("worker-cell", "kill", count=1_000_000))
        engine = process_engine()
        opts = RunOptions(watchdog=WatchdogPolicy(max_redrives=1,
                                                  max_respawns=5))
        results = engine.run(exp, options=opts)
        assert len(results.measurements) == 2
        for m in results.measurements:
            assert m.failed and not m.supported
            assert "redrive budget" in m.note
        report = engine.last_report
        assert report.respawns == 2 and report.redrives == 2
        assert "DEGRADED" in render_result_set(results)

    def test_fail_fast_surfaces_worker_lost(self, monkeypatch, tmp_path):
        exp = small_exp(models=("julia",), sizes=(256, 512))
        arm_plan(monkeypatch, tmp_path,
                 ChaosEvent("worker-cell", "kill", count=1_000_000))
        engine = process_engine()
        opts = RunOptions(watchdog=WatchdogPolicy(max_redrives=0),
                          fail_fast=True)
        with pytest.raises(WorkerLost):
            engine.run(exp, options=opts)


# --------------------------------------------------------------------------
# ResultCache: disk pressure degrades to read-only, never crashes
# --------------------------------------------------------------------------

class TestCacheDiskPressure:
    def test_enospc_flips_read_only_and_results_unchanged(
            self, monkeypatch, tmp_path):
        exp = small_exp()
        baseline = render_result_set(serial_baseline(exp))
        cache = ResultCache(str(tmp_path / "cache"))
        arm_plan(monkeypatch, tmp_path,
                 ChaosEvent("cache-put", "enospc", count=1_000_000))
        results = SweepEngine(cache=cache).run(exp)
        assert render_result_set(results) == baseline
        assert cache.read_only
        snap = cache.pressure_snapshot()
        # first put: initial attempt + post-reclaim retry both ENOSPC
        assert snap["enospc"] >= 2
        assert snap["read_only"] is True
        assert "space" in snap["reason"].lower()
        # the remaining cells skipped their stores instead of retrying
        assert snap["skipped_puts"] >= 1
        assert cache.stats.snapshot()["stores"] == 0

    def test_read_only_is_per_process_not_persisted(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.read_only = True
        assert not ResultCache(str(tmp_path / "cache")).read_only


# --------------------------------------------------------------------------
# RunJournal: a full disk degrades the journal, never the run
# --------------------------------------------------------------------------

class TestJournalDegradation:
    def test_append_failure_degrades_and_keeps_valid_prefix(
            self, monkeypatch, tmp_path):
        path = str(tmp_path / "run.jsonl")
        journal = RunJournal.create(path, "run-chaos")
        arm_plan(monkeypatch, tmp_path,
                 ChaosEvent("journal-append", "enospc", after=1, count=1))
        journal.append("cell-start", index=0)       # durable
        assert not journal.degraded
        journal.append("cell-done", index=0)        # hits ENOSPC: dropped
        assert journal.degraded
        assert journal.dropped_appends == 1
        assert "space" in journal.degrade_reason.lower()
        journal.append("cell-start", index=1)       # degraded: dropped too
        assert journal.dropped_appends == 2
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        assert len(lines) == 1 and lines[0]["type"] == "cell-start"


# --------------------------------------------------------------------------
# Orphaned lock sidecars: age-graced reaping in clear() and fsck
# --------------------------------------------------------------------------

class TestLockReaping:
    def _locks(self, cache):
        shard = os.path.join(cache.root, "ab")
        os.makedirs(shard, exist_ok=True)
        stale = os.path.join(shard, "abdead.json.lock")
        young = os.path.join(shard, "abcafe.json.lock")
        for p in (stale, young):
            with open(p, "w"):
                pass
        past = time.time() - (LOCK_GRACE_SECONDS + 60.0)
        os.utime(stale, (past, past))
        return stale, young

    def test_stale_lock_paths_respects_grace(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        stale, young = self._locks(cache)
        assert list(cache.stale_lock_paths()) == [stale]
        assert sorted(cache.stale_lock_paths(min_age_s=0)) == \
            sorted([stale, young])

    def test_clear_reaps_only_stale_locks(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        stale, young = self._locks(cache)
        cache.clear()
        assert not os.path.exists(stale)
        assert os.path.exists(young)

    def test_fsck_reaps_stale_locks(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        stale, young = self._locks(cache)
        report = fsck_store(cache=cache,
                            registry=RunRegistry(str(tmp_path / "runs")))
        assert report.locks_removed == 1
        assert not os.path.exists(stale)
        assert os.path.exists(young)


# --------------------------------------------------------------------------
# Registry heartbeats: liveness age for `repro status`
# --------------------------------------------------------------------------

class TestHeartbeatAge:
    def test_live_owner_has_age(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "runs"))
        registry.create("hb-run")
        assert registry.heartbeat_age("hb-run") is None
        registry.mark_active("hb-run")
        age = registry.heartbeat_age("hb-run")
        assert age is not None and 0.0 <= age < 60.0
        registry.release_active("hb-run")
        assert registry.heartbeat_age("hb-run") is None

    def test_dead_owner_sidecar_pruned(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "runs"))
        registry.create("hb-dead")
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        registry.mark_active("hb-dead", pid=proc.pid)
        assert os.path.exists(registry.active_path("hb-dead"))
        assert registry.heartbeat_age("hb-dead") is None
        assert not os.path.exists(registry.active_path("hb-dead"))


# --------------------------------------------------------------------------
# Service supervision: crashed campaigns restart, then quarantine
# --------------------------------------------------------------------------

class TestServiceSupervision:
    def _service(self, tmp_path):
        return CampaignService(
            registry=RunRegistry(str(tmp_path / "runs")),
            cache=ResultCache(str(tmp_path / "cache")))

    def test_crashing_campaign_restarts_then_quarantines(
            self, tmp_path, monkeypatch):
        from repro.service.campaign import CampaignExecution
        svc = self._service(tmp_path)
        cid = svc.submit(CampaignSpec(experiment=small_exp(),
                                      tenant="alice"))

        def boom(self):
            raise RuntimeError("chaos: injected campaign crash")

        monkeypatch.setattr(CampaignExecution, "step", boom)
        for expected_restarts in range(1, MAX_CAMPAIGN_RESTARTS + 1):
            svc.step()
            campaign = svc.campaign(cid)
            assert campaign.restarts == expected_restarts
            assert campaign.state == "queued"
        svc.step()  # budget spent: quarantine, not a fourth attempt
        campaign = svc.campaign(cid)
        assert campaign.state == "quarantined"
        assert svc.restarts_total == MAX_CAMPAIGN_RESTARTS
        assert svc.quarantined_total == 1
        assert svc.health_state() == "degraded"
        assert svc.idle

        payload = svc.status_payload()
        assert payload["state"] == "degraded"
        assert payload["supervision"] == {
            "restarts": MAX_CAMPAIGN_RESTARTS, "quarantined": 1}

        # a fresh daemon life must not resurrect the quarantined campaign
        svc2 = self._service(tmp_path)
        assert svc2.recover() == []

    def test_healthy_service_reports_ready(self, tmp_path):
        svc = self._service(tmp_path)
        assert svc.health_state() == "ready"
        payload = svc.status_payload()
        assert payload["state"] == "ready"
        assert payload["uptime_s"] >= 0.0
        assert payload["supervision"] == {"restarts": 0, "quarantined": 0}

    def test_read_only_cache_degrades_health(self, tmp_path):
        svc = self._service(tmp_path)
        svc.cache.read_only = True
        assert svc.health_state() == "degraded"

    def test_ping_payload_states(self, tmp_path):
        svc = self._service(tmp_path)
        daemon = CampaignDaemon(service=svc,
                                socket_path=str(tmp_path / "d.sock"))
        try:
            ping = daemon.ping_payload()
            assert ping["ok"] is True
            assert ping["pid"] == os.getpid()
            assert ping["state"] == "ready"
            assert ping["uptime_s"] >= 0.0
            svc.cache.read_only = True
            assert daemon.ping_payload()["state"] == "degraded"
            daemon.request_shutdown()
            assert daemon.ping_payload()["state"] == "draining"
        finally:
            daemon.server.server_close()


# --------------------------------------------------------------------------
# The harness itself: scenario registry and the robustness bench
# --------------------------------------------------------------------------

class TestChaosSuite:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            run_chaos_suite(scenarios=["banana"])

    def test_cheap_scenarios_write_robustness_bench(self, tmp_path):
        out = str(tmp_path / "BENCH_robustness.json")
        results = run_chaos_suite(out=out,
                                  scenarios=["journal-tear", "disk-full"],
                                  workdir=str(tmp_path / "wd"))
        assert [r.name for r in results] == ["journal-tear", "disk-full"]
        assert all(r.identical for r in results)
        assert all(r.mttr_s >= 0.0 for r in results)
        with open(out) as fh:
            payload = json.load(fh)
        assert payload["benchmark"] == "robustness"
        assert payload["all_identical"] is True
        assert set(payload["scenarios"]) == {"journal-tear", "disk-full"}
        for doc in payload["scenarios"].values():
            assert {"identical", "mttr_s", "metrics"} <= set(doc)
