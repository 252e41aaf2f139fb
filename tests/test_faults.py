"""Tests for the resilience layer: fault injection, retries, degraded mode.

The contracts pinned here:

* determinism — same fault seed => same faults => same retry counts =>
  byte-identical ResultSet; a recoverable run equals a fault-free one;
* isolation — a permanently failing cell degrades to a ``failed``
  measurement (the paper's e = 0 accounting) instead of killing the
  sweep, unless ``fail_fast`` asks for the abort;
* hygiene — failed cells never enter the result cache, and fault-enabled
  runs fingerprint their cells apart from clean runs;
* the unified ``run_campaign`` entrypoint.
"""

import json

import pytest

from repro.core.types import DeviceKind, MatrixShape, Precision
from repro.errors import CellFailure, ConfigError, RetryExhaustedError
from repro.harness import Experiment, run_campaign
from repro.harness.engine import (
    ResultCache,
    RetryPolicy,
    RunOptions,
    SweepEngine,
    cell_fingerprint,
    default_run_options,
    reset_default_run_options,
)
from repro.harness.export import (
    result_set_from_dict,
    result_set_to_dict,
    result_set_to_json,
)
from repro.harness.report import render_result_set
from repro.service import CampaignSpec
from repro.sim.faults import (
    FAULT_COSTS,
    FaultConfig,
    FaultInjector,
    FaultKind,
)
from repro.trace.events import EventKind


def small_exp(**kw):
    defaults = dict(
        exp_id="flt-cpu", title="fault test", node_name="Crusher",
        device=DeviceKind.CPU, precision=Precision.FP64,
        models=("c-openmp", "julia"), sizes=(256, 512), threads=64, reps=5,
    )
    defaults.update(kw)
    return Experiment(**defaults)


def run_opts(**kw):
    kw.setdefault("cache", False)
    return RunOptions(**kw)


# --------------------------------------------------------------------------
# FaultConfig parsing and the injector
# --------------------------------------------------------------------------

class TestFaultConfig:
    def test_default_config_is_disabled(self):
        assert not FaultConfig().enabled

    def test_bare_float_shorthand(self):
        cfg = FaultConfig.parse("0.25")
        assert cfg.rate == 0.25 and cfg.enabled

    def test_full_spec(self):
        cfg = FaultConfig.parse(
            "rate=0.2,seed=7,kinds=oom|timeout,always=numba@512+julia@1024")
        assert cfg.rate == 0.2
        assert cfg.seed == 7
        assert cfg.kinds == (FaultKind.OOM, FaultKind.TIMEOUT)
        assert cfg.always == ("numba@512", "julia@1024")

    @pytest.mark.parametrize("spec", [
        "", "rate=lots", "seed=pi", "kinds=gremlins", "banana=1", "rate",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            FaultConfig.parse(spec)

    def test_rate_bounds_validated(self):
        with pytest.raises(ConfigError):
            FaultConfig(rate=1.5)
        with pytest.raises(ConfigError):
            FaultConfig(rate=-0.1)
        # The endpoints are legal per-attempt probabilities.
        assert FaultConfig(rate=1.0).rate == 1.0
        assert FaultConfig(rate=0.0).rate == 0.0

    def test_rate_bounds_checked_at_parse_time(self):
        with pytest.raises(ConfigError, match=r"outside \[0, 1\]"):
            FaultConfig.parse("rate=1.5")
        with pytest.raises(ConfigError, match=r"outside \[0, 1\]"):
            FaultConfig.parse("rate=-0.25")

    def test_duplicate_keys_rejected_at_parse_time(self):
        with pytest.raises(ConfigError, match="duplicate fault spec key"):
            FaultConfig.parse("rate=0.2,rate=0.3")
        with pytest.raises(ConfigError, match="duplicate fault spec key"):
            FaultConfig.parse("seed=1,kinds=oom,seed=2")

    def test_payload_is_canonical_json(self):
        cfg = FaultConfig.parse("rate=0.2,seed=7")
        assert json.dumps(cfg.payload(), sort_keys=True)  # serialisable
        assert cfg.payload() == FaultConfig.parse("seed=7,rate=0.2").payload()


class TestResilienceSpecGrammars:
    """The --breaker/--fallback grammars mirror FaultConfig.parse: same
    key=value idiom, same duplicate-key rejection, spec() round-trips."""

    @pytest.mark.parametrize("spec", [
        "3", "threshold=2", "threshold=2,cooldown=1e4",
        "threshold=5,cooldown=0.5",
    ])
    def test_breaker_spec_round_trips(self, spec):
        from repro.harness.health import BreakerPolicy
        policy = BreakerPolicy.parse(spec)
        assert BreakerPolicy.parse(policy.spec()) == policy

    @pytest.mark.parametrize("spec", [
        "numba@gpu=numba@cpu+reference",
        "numba@gpu=reference,julia@gpu=julia@cpu",
        "julia@cpu=reference",
    ])
    def test_fallback_spec_round_trips(self, spec):
        from repro.harness.health import FallbackLadder
        ladder = FallbackLadder.parse(spec)
        assert FallbackLadder.parse(ladder.spec()) == ladder

    def test_duplicate_keys_rejected_like_faults(self):
        from repro.harness.health import BreakerPolicy, FallbackLadder
        with pytest.raises(ConfigError, match="duplicate breaker spec key"):
            BreakerPolicy.parse("threshold=2,threshold=3")
        with pytest.raises(ConfigError, match="duplicate fallback spec key"):
            FallbackLadder.parse("numba@gpu=reference,numba@gpu=numba@cpu")


class TestFaultInjector:
    def test_probe_is_deterministic(self):
        inj = FaultInjector(FaultConfig(rate=0.5, seed=11))
        shape = MatrixShape.square(512)
        a = [inj.probe("e", "julia", shape, k) for k in range(1, 20)]
        b = [inj.probe("e", "julia", shape, k) for k in range(1, 20)]
        assert a == b
        assert any(f is not None for f in a)
        assert any(f is None for f in a)

    def test_always_pattern_is_permanent(self):
        inj = FaultInjector(FaultConfig(always=("numba@512",)))
        f = inj.probe("e", "numba", MatrixShape.square(512), 1)
        assert f is not None and f.permanent
        assert inj.probe("e", "numba", MatrixShape.square(256), 1) is None
        assert inj.probe("e", "julia", MatrixShape.square(512), 1) is None

    def test_full_shape_pattern(self):
        inj = FaultInjector(FaultConfig(always=("julia@512x256x128",)))
        assert inj.probe("e", "julia", MatrixShape(512, 256, 128), 1)
        assert inj.probe("e", "julia", MatrixShape(512, 256, 64), 1) is None

    def test_fault_costs_charged_by_kind(self):
        inj = FaultInjector(FaultConfig(always=("numba",),
                                        kinds=(FaultKind.TIMEOUT,)))
        f = inj.probe("e", "numba", MatrixShape.square(256), 1)
        assert f.kind is FaultKind.TIMEOUT
        assert f.cost_s == FAULT_COSTS[FaultKind.TIMEOUT] == 30.0


# --------------------------------------------------------------------------
# engine behaviour under faults
# --------------------------------------------------------------------------

class TestEngineResilience:
    def test_recovered_run_byte_identical_to_fault_free(self):
        exp = small_exp()
        clean = run_campaign(CampaignSpec(experiment=exp), options=run_opts())
        noisy = run_campaign(CampaignSpec(experiment=exp), options=run_opts(
            faults=FaultConfig(rate=0.4, seed=0),
            retry=RetryPolicy(max_attempts=8)))
        assert result_set_to_json(noisy) == result_set_to_json(clean)

    def test_same_seed_same_retry_counts(self):
        exp = small_exp()
        opts = run_opts(faults=FaultConfig(rate=0.4, seed=0),
                        retry=RetryPolicy(max_attempts=8))
        eng1 = SweepEngine(cache=None)
        eng1.run(exp, options=opts)
        eng2 = SweepEngine(cache=None, max_workers=2, mode="process")
        eng2.run(exp, options=opts)
        by_cell1 = {(c.model, c.shape): (c.attempts, c.faults)
                    for c in eng1.last_report.cells}
        by_cell2 = {(c.model, c.shape): (c.attempts, c.faults)
                    for c in eng2.last_report.cells}
        assert by_cell1 == by_cell2
        assert eng1.last_report.total_attempts > len(by_cell1)

    def test_permanent_failure_degrades_not_raises(self):
        exp = small_exp()
        rs = run_campaign(CampaignSpec(experiment=exp), options=run_opts(
            faults=FaultConfig(always=("julia@512",))))
        assert rs.degraded
        [bad] = rs.failed_cells()
        assert bad.model == "julia" and bad.shape.m == 512
        assert bad.status == "failed" and not bad.supported
        assert rs.status_counts() == {"ok": 3, "unsupported": 0,
                                      "failed": 1, "substituted": 0}
        # the other cells are untouched by the failure
        assert rs.cell("julia", 256).supported
        assert rs.supported("julia")  # some cells survive

    def test_retry_exhaustion_fails_cell(self):
        exp = small_exp(models=("julia",), sizes=(256,))
        rs = run_campaign(CampaignSpec(experiment=exp), options=run_opts(
            faults=FaultConfig(rate=0.999999, seed=1),
            retry=RetryPolicy(max_attempts=3)))
        [bad] = rs.failed_cells()
        assert "retries exhausted (3 attempts)" in bad.note

    def test_budget_exhaustion_fails_cell(self):
        exp = small_exp(models=("julia",), sizes=(256,))
        # every attempt times out (30 s simulated) against a 10 s budget:
        # the first fault alone exceeds it
        rs = run_campaign(CampaignSpec(experiment=exp), options=run_opts(
            faults=FaultConfig(rate=0.999999, seed=1,
                               kinds=(FaultKind.TIMEOUT,)),
            retry=RetryPolicy(max_attempts=100, max_cell_seconds=10.0)))
        [bad] = rs.failed_cells()
        assert "budget exhausted" in bad.note

    def test_fail_fast_raises_cell_failure(self):
        exp = small_exp()
        with pytest.raises(CellFailure):
            run_campaign(CampaignSpec(experiment=exp), options=run_opts(
                faults=FaultConfig(always=("julia@512",)), fail_fast=True))

    def test_fail_fast_retry_exhaustion_raises_sharper_error(self):
        exp = small_exp(models=("julia",), sizes=(256,))
        with pytest.raises(RetryExhaustedError):
            run_campaign(CampaignSpec(experiment=exp), options=run_opts(
                faults=FaultConfig(rate=0.999999, seed=1),
                retry=RetryPolicy(max_attempts=2), fail_fast=True))

    def test_failed_cells_never_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        engine = SweepEngine(cache=cache)
        exp = small_exp()
        opts = RunOptions(faults=FaultConfig(always=("julia@512",)))
        engine.run(exp, options=opts)
        warm = engine.run(exp, options=opts)
        report = engine.last_report
        by_cell = {(c.model, c.shape): c for c in report.cells}
        # ok cells were served from cache; the failed one re-executed
        assert by_cell[("c-openmp", "256x256x256")].cached
        assert not by_cell[("julia", "512x512x512")].cached
        assert by_cell[("julia", "512x512x512")].failed
        assert warm.degraded

    def test_fault_config_changes_fingerprint(self):
        exp = small_exp()
        shape = MatrixShape.square(256)
        clean = cell_fingerprint(exp, "julia", shape)
        disabled = cell_fingerprint(exp, "julia", shape, faults=FaultConfig())
        faulty = cell_fingerprint(exp, "julia", shape,
                                  faults=FaultConfig(rate=0.2))
        assert clean == disabled  # disabled config keeps old keys stable
        assert faulty != clean
        assert faulty != cell_fingerprint(exp, "julia", shape,
                                          faults=FaultConfig(rate=0.3))

    def test_injection_does_not_perturb_survivor_samples(self):
        # the fault streams are disjoint from the variability streams, so
        # a cell that recovers produces the exact fault-free samples
        exp = small_exp(models=("julia",), sizes=(256,))
        clean = run_campaign(CampaignSpec(experiment=exp), options=run_opts())
        noisy = run_campaign(CampaignSpec(experiment=exp), options=run_opts(
            faults=FaultConfig(rate=0.4, seed=0),
            retry=RetryPolicy(max_attempts=50)))
        assert (clean.cell("julia", 256).times_s
                == noisy.cell("julia", 256).times_s)


# --------------------------------------------------------------------------
# degraded-mode plumbing: reports, Table III, export
# --------------------------------------------------------------------------

class TestDegradedMode:
    def failed_rs(self):
        return run_campaign(CampaignSpec(experiment=small_exp()), options=run_opts(
            faults=FaultConfig(always=("julia@512",))))

    def test_render_marks_failed_cells(self):
        out = render_result_set(self.failed_rs())
        assert "FAIL" in out
        assert "DEGRADED: 1 of 4 cells failed" in out
        assert "failed -" in out

    def test_efficiency_series_charges_zero(self):
        rs = self.failed_rs()
        series = rs.efficiency_series("julia", "c-openmp")
        assert len(series) == 2 and series[1] == 0.0 and series[0] > 0.0

    def test_all_failed_model_gets_zero_not_dash(self):
        from repro.core.efficiency import efficiency_table_for
        rs = run_campaign(CampaignSpec(experiment=small_exp()), options=run_opts(
            faults=FaultConfig(always=("julia",))))
        [julia] = [c for c in efficiency_table_for(rs, ["julia"], "Epyc 7A53")]
        assert julia.value == 0.0
        assert julia.render() == "0.000"

    def test_export_roundtrip_preserves_status(self):
        rs = self.failed_rs()
        doc = result_set_to_dict(rs)
        assert doc["schema"] == 4 and doc["degraded"] is True
        loaded = result_set_from_dict(doc)
        assert loaded.measurements == rs.measurements
        assert loaded.degraded
        assert [m.status for m in loaded.measurements] \
            == [m.status for m in rs.measurements]

    def test_v2_documents_still_load(self):
        rs = run_campaign(CampaignSpec(experiment=small_exp()), options=run_opts())
        doc = result_set_to_dict(rs)
        doc["schema"] = 2
        doc.pop("degraded")
        for mdata in doc["measurements"]:
            mdata.pop("status")
        loaded = result_set_from_dict(doc)
        assert loaded.measurements == rs.measurements
        assert not loaded.degraded

    def test_sweep_report_lists_degraded_cells(self):
        engine = SweepEngine(cache=None)
        engine.run(small_exp(),
                   options=RunOptions(faults=FaultConfig(always=("julia@512",))))
        text = engine.last_report.render()
        assert "1 FAILED" in text
        assert "degraded cells (reported as e=0):" in text
        assert "[FAILED]" in text

    def test_trace_records_fault_and_retry_events(self):
        from repro.trace.profiler import Profiler
        exp = small_exp(models=("julia",), sizes=(256,))
        prof = Profiler()
        run_campaign(CampaignSpec(experiment=exp), profiler=prof, options=run_opts(
            faults=FaultConfig(rate=0.4, seed=0),
            retry=RetryPolicy(max_attempts=50)))
        kinds = {e.kind for e in prof.events}
        assert EventKind.FAULT in kinds and EventKind.RETRY in kinds
        # fault spans carry their simulated cost
        fault_ev = next(e for e in prof.events if e.kind is EventKind.FAULT)
        assert fault_ev.duration_s in FAULT_COSTS.values()


# --------------------------------------------------------------------------
# timeline layout
# --------------------------------------------------------------------------

class TestTimeline:
    def test_cells_laid_at_real_offsets(self):
        engine = SweepEngine(cache=None)
        engine.run(small_exp())
        report = engine.last_report
        spans = [e for e in report.timeline().events
                 if e.kind is EventKind.CELL]
        assert len(spans) == 4
        starts = [e.start_s for e in spans]
        # serial execution: cells start strictly after their predecessor,
        # not all stacked at t=0
        assert starts == sorted(starts)
        assert sum(1 for s in starts if s == 0.0) <= 1

    def test_timeline_round_trips_through_chrome_export(self):
        from repro.trace.chrome import chrome_trace_json
        engine = SweepEngine(cache=None)
        engine.run(small_exp(),
                   options=RunOptions(faults=FaultConfig(always=("julia@512",))))
        doc = json.loads(chrome_trace_json(engine.last_report.timeline().events))
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert spans
        assert {"Sweep cells", "Result cache"} <= {
            e["args"]["name"] for e in doc["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "thread_name"}


# --------------------------------------------------------------------------
# the unified entrypoint and RunOptions
# --------------------------------------------------------------------------

class TestUnifiedApi:
    def test_engine_strings(self):
        exp = small_exp()
        a = run_campaign(CampaignSpec(experiment=exp), engine="serial", options=run_opts())
        b = run_campaign(CampaignSpec(experiment=exp), engine="process", options=run_opts())
        assert a.measurements == b.measurements

    def test_engine_instance_accepted(self):
        engine = SweepEngine(cache=None)
        rs = run_campaign(CampaignSpec(experiment=small_exp()), engine=engine)
        assert engine.last_report is not None
        assert len(rs.measurements) == 4

    def test_bad_engine_rejected(self):
        with pytest.raises(ConfigError, match="engine"):
            run_campaign(CampaignSpec(experiment=small_exp()), engine="hyperspeed")

    def test_options_are_frozen(self):
        opts = RunOptions()
        with pytest.raises(Exception):
            opts.fail_fast = True
        with pytest.raises(Exception):
            RetryPolicy().max_attempts = 5

    def test_options_validate(self):
        with pytest.raises(ConfigError):
            RunOptions(jobs=0)
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(max_cell_seconds=-1.0)

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(max_attempts=4, backoff_base_s=0.5,
                             backoff_factor=2.0)
        assert [policy.backoff_s(k) for k in (1, 2, 3)] == [0.5, 1.0, 2.0]

    def test_options_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "rate=0.2,seed=9")
        monkeypatch.setenv("REPRO_RETRIES", "3")
        monkeypatch.setenv("REPRO_BACKOFF", "0.25")
        monkeypatch.setenv("REPRO_MAX_CELL_SECONDS", "60")
        monkeypatch.setenv("REPRO_FAIL_FAST", "1")
        reset_default_run_options()
        try:
            opts = default_run_options()
        finally:
            reset_default_run_options()
        assert opts.faults.rate == 0.2 and opts.faults.seed == 9
        assert opts.retry.max_attempts == 4
        assert opts.retry.backoff_base_s == 0.25
        assert opts.retry.max_cell_seconds == 60.0
        assert opts.fail_fast and opts.resilient

    def test_options_env_defaults_are_benign(self, monkeypatch):
        for var in ("REPRO_FAULTS", "REPRO_RETRIES", "REPRO_BACKOFF",
                    "REPRO_MAX_CELL_SECONDS", "REPRO_FAIL_FAST",
                    "REPRO_BREAKER", "REPRO_FALLBACK", "REPRO_WATCHDOG"):
            monkeypatch.delenv(var, raising=False)
        reset_default_run_options()
        try:
            opts = default_run_options()
        finally:
            reset_default_run_options()
        assert not opts.resilient
        assert opts == RunOptions()

    def test_bad_env_retries_rejected(self, monkeypatch):
        for raw in ("many", "-1"):
            monkeypatch.setenv("REPRO_RETRIES", raw)
            reset_default_run_options()
            try:
                with pytest.raises(ConfigError):
                    default_run_options()
            finally:
                reset_default_run_options()

    def test_default_run_options_process_wide(self, monkeypatch):
        from repro.harness.engine import set_default_run_options
        monkeypatch.setenv("REPRO_FAULTS", "0.1")
        reset_default_run_options()
        try:
            assert default_run_options().faults.rate == 0.1
            override = RunOptions(fail_fast=True)
            set_default_run_options(override)
            assert default_run_options() is override
        finally:
            reset_default_run_options()

    def test_run_experiment_inherits_env_options(self, monkeypatch,
                                                 tmp_path):
        from repro.harness.engine import reset_default_engine
        monkeypatch.setenv("REPRO_CACHE", "off")
        monkeypatch.setenv("REPRO_FAULTS", "always=julia@512")
        reset_default_engine()
        reset_default_run_options()
        try:
            rs = run_campaign(CampaignSpec(experiment=small_exp()))
            assert rs.degraded
        finally:
            reset_default_engine()
            reset_default_run_options()
