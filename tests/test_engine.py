"""Tests for the sweep execution engine: execution paths, caching, determinism.

The engine's contract is bit-identity: process == serial, warm == cold,
traced == untraced.  Every test here pins some face of that contract.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.core.types import DeviceKind, Precision
from repro.errors import ConfigError, RetryExhaustedError
from repro.harness import Experiment, resolve_engine, run_campaign
from repro.harness.export import result_set_to_json
from repro.harness.engine import (
    CONSTANTS_VERSION,
    ResultCache,
    RunOptions,
    SweepEngine,
    cell_fingerprint,
    default_engine,
    reset_default_engine,
)
from repro.service import CampaignSpec
from repro.sim.variability import VariabilityModel
from repro.trace.events import EventKind
from repro.trace.profiler import Profiler


def small_exp(**kw):
    defaults = dict(
        exp_id="eng-cpu", title="engine test", node_name="Crusher",
        device=DeviceKind.CPU, precision=Precision.FP64,
        models=("c-openmp", "julia"), sizes=(256, 512), threads=64, reps=5,
    )
    defaults.update(kw)
    return Experiment(**defaults)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


def _race_put(root, fingerprint, payload, n):
    """Subprocess body: hammer one digest with repeated puts."""
    from repro.core.types import Precision
    from repro.harness.engine import ResultCache
    from repro.harness.export import measurement_from_dict

    m = measurement_from_dict(
        payload, default_precision=Precision.parse(
            payload.get("precision", "fp64")))
    store = ResultCache(root)
    for _ in range(n):
        store.put(fingerprint, m)


@pytest.fixture
def fresh_default_engine(tmp_path, monkeypatch):
    """A default engine pointed at a private tmp cache, reset afterwards."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-cache"))
    reset_default_engine()
    yield default_engine()
    reset_default_engine()


class TestDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self):
        exp = small_exp()
        engine = SweepEngine(cache=None, max_workers=2, mode="process")
        parallel = engine.run(exp)
        serial = run_campaign(CampaignSpec(experiment=exp), engine="serial",
                                options=RunOptions(cache=False))
        assert parallel.measurements == serial.measurements

    def test_cold_and_warm_cache_bit_identical(self, cache):
        exp = small_exp()
        engine = SweepEngine(cache=cache)
        cold = engine.run(exp)
        assert engine.last_report.executed_cells == len(cold.measurements)
        warm = engine.run(exp)
        assert engine.last_report.cached_cells == len(cold.measurements)
        assert cold.measurements == warm.measurements

    def test_warm_run_touches_no_simulator_code(self, cache, monkeypatch):
        exp = small_exp()
        engine = SweepEngine(cache=cache)
        engine.run(exp)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("simulator invoked on a warm run")

        import repro.harness.engine.worker as worker
        monkeypatch.setattr(worker, "run_measurement", boom)
        warm = engine.run(exp)
        assert all(m.supported for m in warm.measurements)

    def test_rendered_output_identical_cold_vs_warm(self, cache):
        from repro.harness.report import render_result_set
        exp = small_exp()
        engine = SweepEngine(cache=cache)
        cold = render_result_set(engine.run(exp))
        warm = render_result_set(engine.run(exp))
        assert cold == warm

    def test_traced_parallel_timeline_matches_serial(self):
        exp = small_exp(models=("numba", "julia"))
        serial_prof = Profiler()
        run_campaign(CampaignSpec(experiment=exp), engine="serial",
                       options=RunOptions(cache=False, profiler=serial_prof))
        engine_prof = Profiler()
        SweepEngine(cache=None, max_workers=2, mode="process").run(
            exp, profiler=engine_prof)
        assert engine_prof.events == serial_prof.events

    def test_trace_bypasses_cache_reads(self, cache):
        exp = small_exp(models=("numba",), sizes=(256,))
        engine = SweepEngine(cache=cache)
        engine.run(exp)  # warm the cache
        prof = Profiler()
        engine.run(exp, profiler=prof)
        assert prof.count(EventKind.JIT_COMPILE) >= 1
        assert prof.count(EventKind.PARALLEL_REGION) == exp.reps + exp.warmup

    def test_sample_prefix_stable_when_reps_grow(self):
        vm = VariabilityModel(seed=2023, sigma=0.03)
        short = vm.samples(1.0, "stability", 4, warmup_extra_seconds=0.5)
        long = vm.samples(1.0, "stability", 9, warmup_extra_seconds=0.5)
        assert short == long[:4]

    def test_measurement_prefix_stable_when_reps_grow(self, cache):
        engine = SweepEngine(cache=cache)
        few = engine.run(small_exp(reps=5)).measurements[0]
        many = engine.run(small_exp(reps=10)).measurements[0]
        assert few.times_s == many.times_s[:len(few.times_s)]


class TestFingerprint:
    def test_distinct_cells_distinct_keys(self):
        exp = small_exp()
        shapes = exp.shapes()
        keys = {cell_fingerprint(exp, m, s)
                for m in exp.models for s in shapes}
        assert len(keys) == len(exp.models) * len(shapes)

    def test_every_methodology_knob_changes_the_key(self):
        exp = small_exp()
        shape = exp.shapes()[0]
        base = cell_fingerprint(exp, "julia", shape)
        variants = [
            small_exp(seed=1),
            small_exp(reps=7),
            small_exp(warmup=2),
            small_exp(threads=16),
            small_exp(precision=Precision.FP32),
            small_exp(exp_id="other"),
            small_exp(node_name="Wombat", threads=80),
        ]
        for variant in variants:
            assert cell_fingerprint(variant, "julia", shape) != base

    def test_shape_full_rank_in_key(self):
        from repro.core.types import MatrixShape
        exp = small_exp()
        wide = MatrixShape(512, 2048, 128)
        deep = MatrixShape(512, 128, 2048)
        assert cell_fingerprint(exp, "julia", wide) != \
            cell_fingerprint(exp, "julia", deep)


class TestCache:
    def test_counters(self, cache):
        exp = small_exp()
        engine = SweepEngine(cache=cache)
        engine.run(exp)
        snap = cache.stats.snapshot()
        assert snap["misses"] == 4 and snap["stores"] == 4
        engine.run(exp)
        assert cache.stats.snapshot()["hits"] == 4

    def test_disk_stats_and_clear(self, cache):
        engine = SweepEngine(cache=cache)
        engine.run(small_exp())
        disk = cache.disk_stats()
        assert disk["entries"] == 4 and disk["bytes"] > 0
        assert cache.clear() == 4
        assert cache.disk_stats() == {"entries": 0, "bytes": 0,
                                      "tmp_orphans": 0}

    def test_stale_constants_version_evicts(self, cache):
        exp = small_exp(models=("c-openmp",), sizes=(256,))
        engine = SweepEngine(cache=cache)
        engine.run(exp)
        (path,) = list(cache._entry_paths())
        with open(path) as fh:
            entry = json.load(fh)
        assert entry["constants"] == CONSTANTS_VERSION
        entry["constants"] = "0.stale"
        with open(path, "w") as fh:
            json.dump(entry, fh)
        fp = cell_fingerprint(exp, "c-openmp", exp.shapes()[0])
        assert cache.get(fp) is None
        assert cache.stats.snapshot()["evictions"] == 1
        assert not os.path.exists(path)

    def test_corrupt_entry_evicts(self, cache):
        engine = SweepEngine(cache=cache)
        exp = small_exp(models=("c-openmp",), sizes=(256,))
        engine.run(exp)
        (path,) = list(cache._entry_paths())
        with open(path, "w") as fh:
            fh.write("{not json")
        fp = cell_fingerprint(exp, "c-openmp", exp.shapes()[0])
        assert cache.get(fp) is None
        assert cache.stats.snapshot()["evictions"] == 1

    def test_unsupported_cells_round_trip(self, cache):
        exp = Experiment(
            exp_id="eng-gpu", title="t", node_name="Crusher",
            device=DeviceKind.GPU, precision=Precision.FP64,
            models=("numba",), sizes=(256,))
        engine = SweepEngine(cache=cache)
        cold = engine.run(exp)
        warm = engine.run(exp)
        assert not warm.measurements[0].supported
        assert cold.measurements == warm.measurements

    def test_cacheless_engine_runs(self):
        engine = SweepEngine(cache=None)
        rs = engine.run(small_exp())
        assert len(rs.measurements) == 4
        assert engine.last_report.cache_stats == {}


class TestConcurrentCacheWriters:
    """The process-pool engine makes the on-disk store multi-writer:
    racing puts must converge to one valid entry, evictions must never
    unlink a concurrent writer's fresh entry, and cleanup must never
    touch an in-flight temp file."""

    def _seed(self, cache):
        exp = small_exp(models=("julia",), sizes=(256,))
        SweepEngine(cache=cache).run(exp)
        fp = cell_fingerprint(exp, "julia", exp.shapes()[0])
        (path,) = list(cache._entry_paths())
        with open(path) as fh:
            payload = json.load(fh)["measurement"]
        return fp, path, payload

    def test_racing_processes_converge_to_one_valid_entry(self, cache):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        fp, path, payload = self._seed(cache)
        os.unlink(path)  # cold start: both racers will write
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_race_put,
                             args=(cache.root, fp, payload, 25))
                 for _ in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
        assert all(p.exitcode == 0 for p in procs)
        assert len(list(cache._entry_paths())) == 1
        assert cache.get(fp) is not None
        from repro.harness.journal import fsck_store
        report = fsck_store(cache=cache)
        assert report.clean

    def test_put_is_compare_and_swap(self, cache):
        fp, path, _ = self._seed(cache)
        m = cache.get(fp)
        # a valid entry is already on disk: the second writer backs off
        assert cache.put(fp, m) is False
        assert cache.stats.snapshot()["stores"] == 1
        os.unlink(path)
        assert cache.put(fp, m) is True
        assert cache.get(fp) is not None

    def test_evict_revalidates_before_unlink(self, cache):
        """_evict on a path holding a *valid* entry (a concurrent writer
        replaced the bad bytes after our failed read) must not unlink."""
        fp, path, _ = self._seed(cache)
        before = cache.stats.snapshot()["evictions"]
        cache._evict(path)
        assert os.path.exists(path)
        assert cache.stats.snapshot()["evictions"] == before
        assert cache.get(fp) is not None

    def test_young_tmp_survives_clear(self, cache):
        fp, path, _ = self._seed(cache)
        shard = os.path.dirname(path)
        inflight = os.path.join(shard, "inflight.tmp")
        with open(inflight, "w") as fh:
            fh.write("partial write")
        cache.clear()
        assert os.path.exists(inflight)        # younger than the grace window
        old = os.stat(inflight).st_mtime - 3600
        os.utime(inflight, (old, old))
        cache.clear()
        assert not os.path.exists(inflight)    # aged out: true orphan


class TestProcessEngine:
    """``--engine process``: sharded worker execution must be
    bit-identical to the serial reference loop in every observable —
    measurements, rendered output, traces and error classes — while the
    workers themselves write the shared cache."""

    def _engine(self, cache=None, workers=2):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        return SweepEngine(cache=cache, max_workers=workers,
                           mode="process")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            SweepEngine(cache=None, mode="banana")

    def test_matches_serial_bit_for_bit(self):
        exp = small_exp()
        proc = self._engine().run(exp)
        serial = run_campaign(CampaignSpec(experiment=exp), engine="serial",
                                options=RunOptions(cache=False))
        assert proc.measurements == serial.measurements

    def test_exported_json_identical_to_serial(self):
        exp = small_exp(models=("numba", "julia"))
        proc = result_set_to_json(self._engine().run(exp))
        serial = result_set_to_json(
            run_campaign(CampaignSpec(experiment=exp), engine="serial",
                           options=RunOptions(cache=False)))
        assert proc == serial

    def test_byte_identical_under_faults_and_retries(self):
        from repro.harness.engine import RetryPolicy
        from repro.sim.faults import FaultConfig
        opts = RunOptions(faults=FaultConfig.parse("rate=0.3,seed=7"),
                          retry=RetryPolicy(max_attempts=3))
        exp = small_exp()
        proc = result_set_to_json(self._engine().run(exp, options=opts))
        serial = run_campaign(CampaignSpec(experiment=exp), engine="serial",
                                options=RunOptions(
                                    cache=False, faults=opts.faults,
                                    retry=opts.retry))
        assert proc == result_set_to_json(serial)

    def test_traced_timeline_matches_serial(self):
        exp = small_exp(models=("numba", "julia"))
        serial_prof = Profiler()
        run_campaign(CampaignSpec(experiment=exp), engine="serial",
                       options=RunOptions(cache=False,
                                          profiler=serial_prof))
        proc_prof = Profiler()
        self._engine().run(exp, profiler=proc_prof)
        assert proc_prof.events == serial_prof.events

    def test_fail_fast_raises_the_original_error(self):
        from repro.harness.engine import RetryPolicy
        from repro.sim.faults import FaultConfig
        exp = small_exp(models=("julia",), sizes=(256,))

        def opts():
            return RunOptions(cache=False,
                              faults=FaultConfig(rate=0.999999, seed=1),
                              retry=RetryPolicy(max_attempts=2),
                              fail_fast=True)

        with pytest.raises(RetryExhaustedError) as serial_exc:
            run_campaign(CampaignSpec(experiment=exp), engine="serial", options=opts())
        # the worker ships the failure as a structured dict; the parent
        # must re-raise the exact class with the exact message
        with pytest.raises(RetryExhaustedError) as proc_exc:
            self._engine().run(exp, options=opts())
        assert str(proc_exc.value) == str(serial_exc.value)
        assert proc_exc.value.cell == serial_exc.value.cell
        assert proc_exc.value.attempts == serial_exc.value.attempts

    def test_workers_write_the_shared_cache(self, cache):
        exp = small_exp()
        engine = self._engine(cache=cache)
        engine.run(exp)
        assert engine.last_report.executed_cells == 4
        assert cache.stats.snapshot()["stores"] == 4
        warm = engine.run(exp)
        assert engine.last_report.cached_cells == 4
        assert all(m.supported for m in warm.measurements)

    def test_report_labels_the_fanout(self):
        engine = self._engine()
        engine.run(small_exp())
        report = engine.last_report
        assert report.engine == "process"
        assert "process x2" in report.render()


class TestObservability:
    def test_report_cells_and_timings(self, cache):
        engine = SweepEngine(cache=cache)
        engine.run(small_exp())
        report = engine.last_report
        assert len(report.cells) == 4
        assert report.executed_cells == 4
        assert all(c.wall_s > 0 for c in report.cells)
        assert report.wall_s > 0
        engine.run(small_exp())
        assert engine.last_report.cached_cells == 4

    def test_report_timeline_uses_trace_events(self, cache):
        engine = SweepEngine(cache=cache)
        engine.run(small_exp())
        prof = engine.last_report.timeline()
        assert prof.count(EventKind.CACHE_MISS) == 4
        assert prof.count(EventKind.CELL) == 4
        engine.run(small_exp())
        assert engine.last_report.timeline().count(EventKind.CACHE_HIT) == 4

    def test_report_render(self, cache):
        engine = SweepEngine(cache=cache)
        engine.run(small_exp())
        out = engine.last_report.render()
        assert "4 cells" in out and "[sim]" in out
        engine.run(small_exp())
        assert "[cache]" in engine.last_report.render()


@pytest.fixture
def env_engine(monkeypatch):
    """The process-wide engine built from the given ``REPRO_*`` values."""
    def build(**env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        reset_default_engine()
        return default_engine()
    yield build
    reset_default_engine()


class TestEnvironmentConfig:
    """``REPRO_CACHE``/``REPRO_JOBS``/``REPRO_ENGINE`` through the one
    settings pass that builds the process-wide engine."""

    def test_cache_off(self, env_engine):
        assert env_engine(REPRO_CACHE="off").cache is None

    def test_jobs_one_forces_serial(self, env_engine):
        assert env_engine(REPRO_JOBS="1").parallel is False

    def test_engine_mode_from_env(self, env_engine):
        engine = env_engine(REPRO_ENGINE="process")
        assert engine.mode == "process"
        # an explicit mode beats the environment
        explicit = resolve_engine("serial", RunOptions())
        assert explicit.mode == "serial"

    def test_engine_mode_default_is_serial(self, env_engine, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        engine = env_engine()
        assert engine.mode == "serial" and engine.parallel is False

    def test_retired_thread_mode_rejected(self, env_engine):
        with pytest.raises(ConfigError, match="serial/process"):
            env_engine(REPRO_ENGINE="thread")

    def test_engine_mode_invalid_env_rejected(self, env_engine):
        with pytest.raises(ConfigError):
            env_engine(REPRO_ENGINE="quantum")

    def test_cache_dir_relocation(self, tmp_path, env_engine):
        engine = env_engine(REPRO_CACHE_DIR=str(tmp_path / "elsewhere"))
        assert engine.cache.root == str(tmp_path / "elsewhere")

    def test_default_engine_is_process_wide(self, fresh_default_engine):
        assert default_engine() is fresh_default_engine

    def test_run_experiment_uses_default_engine(self, fresh_default_engine):
        exp = small_exp(models=("c-openmp",), sizes=(256,))
        run_campaign(CampaignSpec(experiment=exp))
        assert fresh_default_engine.last_report is not None
        assert fresh_default_engine.last_report.experiment_id == "eng-cpu"


class TestWarmSpeedup:
    def test_warm_run_at_least_5x_faster_and_identical(self, cache):
        """The acceptance bar: warm >= 5x cold, output bit-identical."""
        exp = small_exp(models=("c-openmp", "kokkos", "julia", "numba"),
                        sizes=(512, 1024, 2048))
        engine = SweepEngine(cache=cache)
        t0 = time.perf_counter()
        cold = engine.run(exp)
        t_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = engine.run(exp)
        t_warm = time.perf_counter() - t0
        assert cold.measurements == warm.measurements
        assert t_cold / t_warm >= 5.0, (t_cold, t_warm)
