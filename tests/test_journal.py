"""Crash-safe campaigns: write-ahead journal, resume, shutdown, fsck."""

import json
import os
import signal
import threading

import pytest

from repro.core.types import DeviceKind, Precision
from repro.errors import JournalError, RunInterrupted
from repro.harness.engine import ResultCache, RunOptions, SweepEngine
from repro.harness.experiment import Experiment
from repro.harness.export import (
    result_set_to_json,
    write_result_set_artifact,
)
from repro.harness.journal import (
    EXIT_FSCK_CORRUPT,
    EXIT_INTERRUPTED,
    RunJournal,
    RunRegistry,
    fsck_store,
    graceful_shutdown,
    load_journal,
    restore_campaign,
    resume_run,
)
from repro.harness.runner import run_campaign
from repro.ioutil import (
    atomic_write_text,
    content_digest,
    read_json_artifact,
    write_json_artifact,
)
from repro.service import CampaignSpec


def small_exp(**kw):
    defaults = dict(
        exp_id="jr-cpu", title="journal test", node_name="Crusher",
        device=DeviceKind.CPU, precision=Precision.FP64,
        models=("julia", "numba"), sizes=(256, 512), threads=64, reps=5,
    )
    defaults.update(kw)
    return Experiment(**defaults)


@pytest.fixture
def registry(tmp_path):
    return RunRegistry(str(tmp_path / "runs"))


def serial_engine(cache=None):
    return SweepEngine(cache=cache)


def interrupt_on_call(n):
    """Make the n-th simulated cell raise KeyboardInterrupt.

    Returns a private MonkeyPatch; callers undo it before resuming (the
    shared ``monkeypatch`` fixture must not be used — undoing it would
    also drop the suite's REPRO_RUNS_DIR/REPRO_CACHE_DIR isolation).
    """
    import repro.harness.engine.worker as worker
    orig = worker.run_measurement
    calls = {"count": 0}

    def boom(*args, **kwargs):
        calls["count"] += 1
        if calls["count"] == n:
            raise KeyboardInterrupt
        return orig(*args, **kwargs)

    mp = pytest.MonkeyPatch()
    mp.setattr(worker, "run_measurement", boom)
    return mp


class TestIoutil:
    def test_atomic_write_replaces(self, tmp_path):
        path = str(tmp_path / "f.txt")
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        with open(path) as fh:
            assert fh.read() == "two"
        assert os.listdir(str(tmp_path)) == ["f.txt"]

    def test_artifact_roundtrip(self, tmp_path):
        path = str(tmp_path / "a.json")
        digest = write_json_artifact(path, {"x": [1, 2], "y": "z"})
        doc = read_json_artifact(path)
        assert doc["x"] == [1, 2] and doc["digest"] == digest

    def test_artifact_tamper_detected(self, tmp_path):
        path = str(tmp_path / "a.json")
        write_json_artifact(path, {"x": 1})
        doc = json.load(open(path))
        doc["x"] = 2
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ValueError, match="digest"):
            read_json_artifact(path)

    def test_artifact_without_digest_rejected(self, tmp_path):
        path = str(tmp_path / "a.json")
        with open(path, "w") as fh:
            json.dump({"x": 1}, fh)
        with pytest.raises(ValueError, match="digest"):
            read_json_artifact(path)


class TestJournalFile:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "run-1.jsonl")
        j = RunJournal.create(path, "run-1")
        j.open_run(manifest={"exp_id": "x", "precision": "fp64"},
                   campaign="c" * 64, options={}, cells=[{"index": 0}])
        j.close_run("complete", completed=0, total=1)
        state = load_journal(path)
        assert state.run_id == "run-1"
        assert state.status == "complete"
        assert state.total_cells == 1 and state.done_cells == 0
        assert not state.resumable

    def test_create_refuses_existing(self, tmp_path):
        path = str(tmp_path / "run-1.jsonl")
        RunJournal.create(path, "run-1").append("run-open", run_id="run-1")
        with pytest.raises(JournalError, match="already exists"):
            RunJournal.create(path, "run-1")

    def test_torn_tail_dropped(self, tmp_path):
        path = str(tmp_path / "run-1.jsonl")
        j = RunJournal.create(path, "run-1")
        j.open_run(manifest={"exp_id": "x"}, campaign="", options={},
                   cells=[])
        j.close()
        with open(path, "a") as fh:
            fh.write('{"seq": 2, "type": "cell-done", "data"')
        state = load_journal(path)
        assert state.records == 1 and state.dropped == 1
        assert state.status == "open"

    def test_checksum_corruption_truncates_from_flip(self, tmp_path):
        path = str(tmp_path / "run-1.jsonl")
        j = RunJournal.create(path, "run-1")
        j.open_run(manifest={"exp_id": "x"}, campaign="", options={},
                   cells=[])
        j.append("cell-start", index=0, model="julia", shape="256",
                 fingerprint="f0")
        j.append("cell-start", index=1, model="numba", shape="256",
                 fingerprint="f1")
        j.close()
        lines = open(path).read().splitlines()
        lines[1] = lines[1].replace('"julia"', '"jUlia"')
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        state = load_journal(path)
        assert state.records == 1 and state.dropped == 2

    def test_no_run_open_is_an_error(self, tmp_path):
        path = str(tmp_path / "run-1.jsonl")
        with open(path, "w") as fh:
            fh.write("not json\n")
        with pytest.raises(JournalError, match="run-open"):
            load_journal(path)

    def test_reopen_truncates_and_continues_sequence(self, tmp_path):
        path = str(tmp_path / "run-1.jsonl")
        j = RunJournal.create(path, "run-1")
        j.open_run(manifest={"exp_id": "x"}, campaign="", options={},
                   cells=[])
        j.close()
        with open(path, "a") as fh:
            fh.write("torn garba")
        j2 = RunJournal.reopen(path)
        j2.resume_run(completed=0, total=0)
        j2.close()
        state = load_journal(path)
        assert state.dropped == 0 and state.records == 2
        assert state.resumes == 1

    def test_close_status_validated(self, tmp_path):
        j = RunJournal.create(str(tmp_path / "r.jsonl"), "r")
        with pytest.raises(JournalError, match="status"):
            j.close_run("finished", completed=0, total=0)

    def test_appends_after_close_are_noops(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        j = RunJournal.create(path, "r")
        j.open_run(manifest={}, campaign="", options={}, cells=[])
        j.close_run("complete", completed=0, total=0)
        j.append("cell-start", index=0, model="m", shape="s",
                 fingerprint="f")
        assert len(open(path).read().splitlines()) == 2


class TestRegistry:
    def test_malformed_run_ids_rejected(self, registry):
        for bad in ("", "../x", ".hidden"):
            with pytest.raises(JournalError):
                registry.path_for(bad)

    def test_create_load_list(self, registry):
        j = registry.create()
        j.open_run(manifest={"exp_id": "x"}, campaign="", options={},
                   cells=[])
        j.close()
        assert registry.run_ids() == [j.run_id]
        assert registry.load(j.run_id).run_id == j.run_id
        assert j.run_id in registry.render_list()

    def test_unknown_run_id(self, registry):
        with pytest.raises(JournalError, match="no run"):
            registry.load("run-nope")

    def test_list_flags_unreadable_journal(self, registry):
        good = registry.create()
        good.open_run(manifest={"exp_id": "x"}, campaign="", options={},
                      cells=[])
        good.close()
        bad = registry.create()
        bad.open_run(manifest={"exp_id": "y"}, campaign="", options={},
                     cells=[])
        bad.close()
        atomic_write_text(registry.path_for(bad.run_id), "not a journal\n")
        # runs() skips the unreadable entry instead of raising
        assert [s.run_id for s in registry.runs()] == [good.run_id]
        # ...but the listing flags it rather than silently dropping it
        listing = registry.render_list()
        assert good.run_id in listing
        assert f"{bad.run_id}  UNREADABLE" in listing
        assert "repro fsck" in listing

    def test_list_flags_vanished_journal(self, registry, monkeypatch):
        j = registry.create()
        j.open_run(manifest={"exp_id": "x"}, campaign="", options={},
                   cells=[])
        j.close()
        # A journal can vanish between the listing and the load (e.g.
        # quarantined by a concurrent fsck).
        monkeypatch.setattr(registry, "run_ids",
                            lambda: [j.run_id, "run-ghost"])
        assert [s.run_id for s in registry.runs()] == [j.run_id]
        listing = registry.render_list()
        assert "run-ghost  MISSING" in listing


class TestJournaledSweep:
    def test_complete_run_is_journaled(self, registry):
        exp = small_exp()
        journal = registry.create()
        report_engine = serial_engine()
        rs = run_campaign(CampaignSpec(experiment=exp), engine=report_engine,
                            options=RunOptions(journal=journal))
        journal.close()
        state = registry.load(journal.run_id)
        assert state.status == "complete"
        assert state.done_cells == state.total_cells == 4
        assert rs.experiment.to_dict() == state.manifest
        report = report_engine.last_report
        assert report.run_id == journal.run_id
        assert "(journaled)" in report.render()

    def test_interrupt_finalizes_journal(self, registry):
        mp = interrupt_on_call(3)
        journal = registry.create()
        try:
            with pytest.raises(RunInterrupted) as err:
                run_campaign(CampaignSpec(experiment=small_exp()), engine=serial_engine(),
                               options=RunOptions(journal=journal))
        finally:
            mp.undo()
        journal.close()
        assert err.value.run_id == journal.run_id
        assert err.value.completed == 2 and err.value.total == 4
        state = registry.load(journal.run_id)
        assert state.status == "interrupted"
        assert state.done_cells == 2 and state.resumable

    def test_resume_is_byte_identical(self, registry):
        exp = small_exp()
        baseline = result_set_to_json(
            run_campaign(CampaignSpec(experiment=exp), engine=serial_engine()))
        mp = interrupt_on_call(3)
        journal = registry.create()
        try:
            with pytest.raises(RunInterrupted):
                run_campaign(CampaignSpec(experiment=exp), engine=serial_engine(),
                               options=RunOptions(journal=journal))
        finally:
            mp.undo()
        journal.close()
        engine = serial_engine()
        resumed = resume_run(journal.run_id, registry=registry,
                             engine=engine)
        assert result_set_to_json(resumed) == baseline
        report = engine.last_report
        assert report.replayed_cells == 2 and report.executed_cells == 2
        assert "replayed" in report.render()
        state = registry.load(journal.run_id)
        assert state.status == "complete" and state.resumes == 1

    def test_resume_byte_identical_under_faults_and_retries(self, registry):
        from repro.harness.engine import RetryPolicy
        from repro.sim.faults import FaultConfig
        opts = RunOptions(faults=FaultConfig.parse("rate=0.3,seed=7"),
                          retry=RetryPolicy(max_attempts=3))
        exp = small_exp()
        baseline = result_set_to_json(
            run_campaign(CampaignSpec(experiment=exp), engine=serial_engine(), options=opts))
        mp = interrupt_on_call(3)
        journal = registry.create()
        from dataclasses import replace
        try:
            with pytest.raises(RunInterrupted):
                run_campaign(CampaignSpec(experiment=exp), engine=serial_engine(),
                               options=replace(opts, journal=journal))
        finally:
            mp.undo()
        journal.close()
        # resume restores the fault model from the journal, not from us
        resumed = resume_run(journal.run_id, registry=registry,
                             engine=serial_engine())
        assert result_set_to_json(resumed) == baseline

    def test_resume_of_complete_run_is_idempotent(self, registry):
        exp = small_exp()
        journal = registry.create()
        rs = run_campaign(CampaignSpec(experiment=exp), engine=serial_engine(),
                            options=RunOptions(journal=journal))
        journal.close()
        replayed = resume_run(journal.run_id, registry=registry,
                              engine=serial_engine())
        assert result_set_to_json(replayed) == result_set_to_json(rs)

    def test_resume_refuses_fingerprint_mismatch(self, registry):
        journal = registry.create()
        run_campaign(CampaignSpec(experiment=small_exp()), engine=serial_engine(),
                       options=RunOptions(journal=journal))
        journal.close()
        state = registry.load(journal.run_id)
        state.campaign = "0" * 64
        with pytest.raises(JournalError, match="fingerprint"):
            restore_campaign(state)

    def test_journal_survives_parallel_execution(self, registry):
        journal = registry.create()
        engine = SweepEngine(cache=None, max_workers=2, mode="process")
        run_campaign(CampaignSpec(experiment=small_exp()), engine=engine,
                       options=RunOptions(journal=journal))
        journal.close()
        state = registry.load(journal.run_id)
        assert state.status == "complete" and state.done_cells == 4

    def test_failed_cells_are_journaled_and_replayed(self, registry):
        from repro.sim.faults import FaultConfig
        exp = small_exp()
        opts = RunOptions(faults=FaultConfig.parse("always=julia@512"))
        journal = registry.create()
        from dataclasses import replace
        rs = run_campaign(CampaignSpec(experiment=exp), engine=serial_engine(),
                            options=replace(opts, journal=journal))
        journal.close()
        assert rs.degraded
        state = registry.load(journal.run_id)
        assert state.done_cells == 4  # failed cells are still journaled
        replayed = resume_run(journal.run_id, registry=registry,
                              engine=serial_engine())
        assert result_set_to_json(replayed) == result_set_to_json(rs)

    def breaker_opts(self, **kw):
        from repro.harness.health import BreakerPolicy
        from repro.sim.faults import FaultConfig
        kw.setdefault("breaker", BreakerPolicy(threshold=2, cooldown_s=1e5))
        kw.setdefault("faults",
                      FaultConfig.parse("always=numba@256+numba@512"))
        return RunOptions(**kw)

    def gpu_exp(self):
        return Experiment(
            exp_id="jr-gpu", title="journal health test",
            node_name="Wombat", device=DeviceKind.GPU,
            precision=Precision.FP64, models=("cuda", "numba"),
            sizes=(256, 512, 1024), reps=5)

    def test_breaker_run_journals_health_metadata(self, registry):
        exp = self.gpu_exp()
        journal = registry.create()
        from dataclasses import replace
        rs = run_campaign(CampaignSpec(experiment=exp), engine=serial_engine(),
                            options=replace(self.breaker_opts(),
                                            journal=journal))
        journal.close()
        assert rs.substituted
        state = registry.load(journal.run_id)
        assert state.status == "complete" and state.done_cells == 6
        # every journaled cell carries its health metadata...
        assert len(state.outcomes) == 6
        assert all("native" in meta and "serve_cost_s" in meta
                   for meta in state.outcomes.values())
        # ...and the lane-open transition was journaled
        assert any(ev["to"] == "open" and ev["lane"] == "numba@gpu"
                   for ev in state.breaker_events)
        assert "breaker" in state.options and "fallback" not in state.options

    def test_resume_byte_identical_under_breakers(self, registry):
        exp = self.gpu_exp()
        opts = self.breaker_opts()
        baseline = result_set_to_json(
            run_campaign(CampaignSpec(experiment=exp), engine=serial_engine(), options=opts))
        mp = interrupt_on_call(4)
        journal = registry.create()
        from dataclasses import replace
        try:
            with pytest.raises(RunInterrupted):
                run_campaign(CampaignSpec(experiment=exp), engine=serial_engine(),
                               options=replace(opts, journal=journal))
        finally:
            mp.undo()
        journal.close()
        # resume restores breaker + ladder from the journal, replays the
        # completed cells' health metadata through the state machines,
        # and re-executes the rest — byte-identically
        resumed = resume_run(journal.run_id, registry=registry,
                             engine=serial_engine())
        assert result_set_to_json(resumed) == baseline
        state = registry.load(journal.run_id)
        assert state.status == "complete" and state.resumes == 1
        assert any(ev["to"] == "open" for ev in state.breaker_events)

    def test_resume_with_explicit_ladder_round_trips(self, registry):
        from repro.harness.health import FallbackLadder
        from dataclasses import replace
        exp = self.gpu_exp()
        opts = self.breaker_opts(
            fallback=FallbackLadder.parse("numba@gpu=reference"))
        journal = registry.create()
        rs = run_campaign(CampaignSpec(experiment=exp), engine=serial_engine(),
                            options=replace(opts, journal=journal))
        journal.close()
        state = registry.load(journal.run_id)
        assert "fallback" in state.options
        _, ropts = restore_campaign(state)
        assert ropts.fallback == opts.fallback
        assert ropts.breaker == opts.breaker
        replayed = resume_run(journal.run_id, registry=registry,
                              engine=serial_engine())
        assert result_set_to_json(replayed) == result_set_to_json(rs)


def process_engine(cache=None):
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    return SweepEngine(cache=cache, max_workers=2,
                       mode="process")


def journal_record_stream(registry, run_id):
    """The journal as (type, data) pairs with wall clocks stripped.

    The process-pool engine must produce the same record *stream* as the
    serial loop — same types, same order, same embedded measurements —
    differing only in host timestamps and run identity.
    """
    volatile = ("created", "closed", "wall_s", "run_id", "resumed")
    stream = []
    with open(registry.path_for(run_id)) as fh:
        for line in fh:
            record = json.loads(line)
            data = {k: v for k, v in record["data"].items()
                    if k not in volatile}
            stream.append((record["type"], data))
    return stream


class TestProcessEngineJournal:
    """The parent stays the journal's single writer under ``--engine
    process``: the WAL must be record-for-record identical to a serial
    run's (timestamps aside), and a serially-interrupted run must resume
    byte-identically on the process engine."""

    def test_journal_stream_identical_to_serial(self, registry):
        exp = small_exp()
        serial_j = registry.create()
        run_campaign(CampaignSpec(experiment=exp), engine=serial_engine(),
                       options=RunOptions(journal=serial_j))
        serial_j.close()
        proc_j = registry.create()
        run_campaign(CampaignSpec(experiment=exp), engine=process_engine(),
                       options=RunOptions(journal=proc_j))
        proc_j.close()
        assert (journal_record_stream(registry, proc_j.run_id)
                == journal_record_stream(registry, serial_j.run_id))

    def test_resume_on_process_engine_is_byte_identical(self, registry):
        exp = small_exp()
        baseline = result_set_to_json(
            run_campaign(CampaignSpec(experiment=exp), engine=serial_engine()))
        mp = interrupt_on_call(3)
        journal = registry.create()
        try:
            with pytest.raises(RunInterrupted):
                run_campaign(CampaignSpec(experiment=exp), engine=serial_engine(),
                               options=RunOptions(journal=journal))
        finally:
            mp.undo()
        journal.close()
        engine = process_engine()
        resumed = resume_run(journal.run_id, registry=registry,
                             engine=engine)
        assert result_set_to_json(resumed) == baseline
        report = engine.last_report
        assert report.replayed_cells == 2 and report.executed_cells == 2
        state = registry.load(journal.run_id)
        assert state.status == "complete" and state.resumes == 1


class TestGracefulShutdown:
    def test_sigterm_becomes_keyboard_interrupt(self):
        with pytest.raises(KeyboardInterrupt):
            with graceful_shutdown():
                os.kill(os.getpid(), signal.SIGTERM)
                signal.sigtimedwait([signal.SIGTERM], 1)

    def test_handlers_restored(self):
        before = signal.getsignal(signal.SIGTERM)
        with graceful_shutdown():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_noop_off_main_thread(self):
        outcome = {}

        def body():
            with graceful_shutdown():
                outcome["ok"] = True

        t = threading.Thread(target=body)
        t.start()
        t.join()
        assert outcome["ok"]


class TestCacheSelfHealing:
    @pytest.fixture
    def cache(self, tmp_path):
        return ResultCache(str(tmp_path / "cache"))

    def seeded(self, cache):
        exp = small_exp(models=("julia",), sizes=(256,))
        run_campaign(CampaignSpec(experiment=exp), engine=SweepEngine(cache=cache))
        (path,) = list(cache._entry_paths())
        from repro.harness.engine import cell_fingerprint
        return exp, path, cell_fingerprint(exp, "julia", exp.shapes()[0])

    def test_semantic_corruption_evicts_not_raises(self, cache):
        _, path, fp = self.seeded(cache)
        entry = json.load(open(path))
        entry["measurement"]["shape"] = {"m": "wide"}
        entry["digest"] = content_digest(entry["measurement"])
        with open(path, "w") as fh:
            json.dump(entry, fh)
        assert cache.get(fp) is None
        assert cache.stats.snapshot()["evictions"] == 1
        assert not os.path.exists(path)

    def test_digest_mismatch_evicts(self, cache):
        _, path, fp = self.seeded(cache)
        entry = json.load(open(path))
        entry["measurement"]["times_s"][0] += 1.0  # silent bit-flip
        with open(path, "w") as fh:
            json.dump(entry, fh)
        assert cache.get(fp) is None
        assert cache.stats.snapshot()["evictions"] == 1

    def test_orphan_tmp_reported_and_cleared(self, cache):
        _, path, _ = self.seeded(cache)
        shard = os.path.dirname(path)
        orphan = os.path.join(shard, "orphan.tmp")
        with open(orphan, "w") as fh:
            fh.write("junk")
        old = os.stat(orphan).st_mtime - 3600  # past the grace window
        os.utime(orphan, (old, old))
        stats = cache.disk_stats()
        assert stats["entries"] == 1 and stats["tmp_orphans"] == 1
        assert "tmp orphans: 1" in cache.render_stats()
        assert cache.clear() == 1
        assert cache.disk_stats() == {"entries": 0, "bytes": 0,
                                      "tmp_orphans": 0}


class TestFsck:
    @pytest.fixture
    def store(self, tmp_path, registry):
        cache = ResultCache(str(tmp_path / "cache"))
        journal = registry.create()
        rs = run_campaign(CampaignSpec(experiment=small_exp()), engine=SweepEngine(cache=cache),
            options=RunOptions(journal=journal))
        journal.close()
        return cache, registry, journal.run_id, rs

    def test_clean_store(self, store):
        cache, registry, _, _ = store
        report = fsck_store(cache=cache, registry=registry)
        assert report.clean and not report.corrupt
        assert "store is clean" in report.render()

    def test_bit_flip_quarantined(self, store):
        cache, registry, _, _ = store
        path = next(iter(cache._entry_paths()))
        raw = open(path).read()
        with open(path, "w") as fh:
            fh.write(raw.replace('"times_s"', '"times_x"', 1))
        report = fsck_store(cache=cache, registry=registry)
        assert report.corrupt
        assert any(i.kind == "cache-digest" for i in report.issues)
        assert not os.path.exists(path)
        quarantine = os.path.join(cache.root, "quarantine")
        assert os.listdir(quarantine)
        # quarantined entries are invisible to the live store
        assert cache.disk_stats()["entries"] == 3
        assert fsck_store(cache=cache, registry=registry).clean

    def test_torn_journal_recovered(self, store):
        cache, registry, run_id, _ = store
        with open(registry.path_for(run_id), "a") as fh:
            fh.write('{"torn')
        report = fsck_store(cache=cache, registry=registry)
        assert report.corrupt
        assert any(i.kind == "journal-tail" for i in report.issues)
        assert registry.load(run_id).dropped == 0  # recovered
        assert fsck_store(cache=cache, registry=registry).clean

    def test_tampered_artifact_flagged(self, store, tmp_path):
        cache, registry, _, rs = store
        good = str(tmp_path / "good.json")
        bad = str(tmp_path / "bad.json")
        write_result_set_artifact(good, rs)
        write_result_set_artifact(bad, rs)
        doc = json.load(open(bad))
        doc["degraded"] = True
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        report = fsck_store(cache=cache, registry=registry,
                            artifacts=(good, bad))
        assert report.corrupt
        assert any(i.kind == "artifact-digest" and i.path == bad
                   for i in report.issues)
        assert not any(i.path == good for i in report.issues)

    def test_unreadable_journal_quarantined(self, store):
        cache, registry, run_id, _ = store
        path = registry.path_for(run_id)
        atomic_write_text(path, "not a journal\n")
        report = fsck_store(cache=cache, registry=registry)
        assert report.corrupt
        [issue] = [i for i in report.issues
                   if i.kind == "journal-unreadable"]
        assert "quarantined to" in issue.action
        # moved aside, so the listing and a second pass are clean
        assert not os.path.exists(path)
        quarantine = os.path.join(registry.root, "quarantine")
        assert os.listdir(quarantine)
        assert registry.runs() == []
        assert fsck_store(cache=cache, registry=registry).clean

    def test_orphan_tmp_removed(self, store):
        cache, registry, _, _ = store
        shard = os.path.dirname(next(iter(cache._entry_paths())))
        dead = os.path.join(shard, "dead.tmp")
        with open(dead, "w") as fh:
            fh.write("junk")
        old = os.stat(dead).st_mtime - 3600  # past the grace window
        os.utime(dead, (old, old))
        report = fsck_store(cache=cache, registry=registry)
        assert not report.corrupt  # warning only
        assert report.tmp_removed == 1
        assert cache.disk_stats()["tmp_orphans"] == 0

    def test_young_tmp_survives_fsck(self, store):
        """A temp file younger than the grace window may be another
        worker's in-flight write: fsck must not unlink it."""
        cache, registry, _, _ = store
        shard = os.path.dirname(next(iter(cache._entry_paths())))
        with open(os.path.join(shard, "inflight.tmp"), "w") as fh:
            fh.write("junk")
        report = fsck_store(cache=cache, registry=registry)
        assert report.tmp_removed == 0
        assert cache.disk_stats()["tmp_orphans"] == 1


class TestJournalCLI:
    @pytest.fixture(autouse=True)
    def isolated(self, tmp_path, monkeypatch):
        from repro.harness.engine import (
            reset_default_engine,
            reset_default_run_options,
        )
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_default_engine()
        reset_default_run_options()
        yield
        reset_default_engine()
        reset_default_run_options()

    def run_cli(self, capsys, *argv):
        from repro.cli import main
        rc = main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_run_journals_by_default(self, capsys):
        rc, _, err = self.run_cli(capsys, "run", "--models", "julia",
                                  "--sizes", "256")
        assert rc == 0
        assert "journaling run run-" in err
        rc, out, _ = self.run_cli(capsys, "runs", "list")
        assert rc == 0 and "complete" in out and "1/1 cells" in out

    def test_no_journal_flag(self, capsys):
        rc, _, err = self.run_cli(capsys, "run", "--models", "julia",
                                  "--sizes", "256", "--no-journal")
        assert rc == 0 and "journaling" not in err
        rc, out, _ = self.run_cli(capsys, "runs", "list")
        assert "no journaled runs" in out

    def test_journal_env_opt_out(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL", "off")
        rc, _, err = self.run_cli(capsys, "run", "--models", "julia",
                                  "--sizes", "256")
        assert rc == 0 and "journaling" not in err

    def test_interrupt_exit_code_and_cli_resume(self, capsys):
        argv = ("run", "--models", "julia,numba", "--sizes", "256,512",
                "--serial", "--no-cache")
        rc, baseline, _ = self.run_cli(capsys, *argv)
        assert rc == 0
        mp = interrupt_on_call(3)
        try:
            rc, out, err = self.run_cli(capsys, *argv)
        finally:
            mp.undo()
        assert rc == EXIT_INTERRUPTED and out == ""
        assert "resume with: repro run --resume" in err
        run_id = err.split("--resume ")[-1].split()[0].strip()
        rc, resumed, err = self.run_cli(capsys, "run", "--resume", run_id,
                                        "--serial", "--no-cache")
        assert rc == 0
        assert resumed == baseline  # byte-identical stdout
        assert "resuming run" in err

    def test_resume_unknown_run(self, capsys):
        rc, _, err = self.run_cli(capsys, "run", "--resume", "run-nope")
        assert rc == 1 and "no run" in err

    def test_runs_show(self, capsys):
        rc, _, err = self.run_cli(capsys, "run", "--models", "julia",
                                  "--sizes", "256")
        run_id = err.split("journaling run ")[-1].split()[0]
        rc, out, _ = self.run_cli(capsys, "runs", "show", run_id)
        assert rc == 0
        assert "status:     complete" in out
        assert "1/1 journaled" in out

    def test_runs_show_requires_id(self, capsys):
        rc, out, _ = self.run_cli(capsys, "runs", "show")
        assert rc == 2

    def test_export_artifact_and_fsck(self, capsys, tmp_path):
        artifact = str(tmp_path / "out.json")
        rc, out, _ = self.run_cli(capsys, "run", "--models", "julia",
                                  "--sizes", "256", "--export", artifact)
        assert rc == 0 and f"[artifact: {artifact} sha256:" in out
        rc, out, _ = self.run_cli(
            capsys, "fsck", artifact,
            "--cache-dir", str(tmp_path / "cache"))
        assert rc == 0 and "store is clean" in out

    def test_fsck_exit_code_on_corruption(self, capsys, tmp_path,
                                          monkeypatch):
        cache_dir = str(tmp_path / "cache")
        rc, _, _ = self.run_cli(capsys, "run", "--models", "julia",
                                "--sizes", "256")
        cache = ResultCache(cache_dir)
        path = next(iter(cache._entry_paths()))
        raw = open(path).read()
        with open(path, "w") as fh:
            fh.write(raw.replace('"times_s"', '"times_x"', 1))
        rc, out, _ = self.run_cli(capsys, "fsck", "--cache-dir", cache_dir)
        assert rc == EXIT_FSCK_CORRUPT
        assert "CORRUPT" in out and "quarantined" in out
        # the store self-heals: a second pass is clean
        rc, _, _ = self.run_cli(capsys, "fsck", "--cache-dir", cache_dir)
        assert rc == 0
