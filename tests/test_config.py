"""Tests for the environment-style run configuration."""

import pytest

from repro.config import KNOWN_VARIABLES, RunConfig
from repro.errors import ConfigError


class TestConstructors:
    def test_openmp_pins_by_default(self):
        cfg = RunConfig.openmp(64)
        assert cfg.get("OMP_NUM_THREADS") == "64"
        assert cfg.get("OMP_PROC_BIND") == "true"
        assert cfg.get("OMP_PLACES") == "threads"

    def test_openmp_unpinned(self):
        cfg = RunConfig.openmp(8, pin=False)
        assert "OMP_PROC_BIND" not in cfg.env

    def test_julia_exclusive(self):
        cfg = RunConfig.julia(80)
        assert cfg.get("JULIA_NUM_THREADS") == "80"
        assert cfg.get("JULIA_EXCLUSIVE") == "1"

    def test_numba_has_no_pinning_variable(self):
        """The paper: Numba exposes no binding/pinning mechanism."""
        cfg = RunConfig.numba(64)
        pin_vars = [k for k in cfg.env if "BIND" in k or "EXCLUSIVE" in k]
        assert pin_vars == []


class TestAccessors:
    def test_get_int(self):
        assert RunConfig({"X": "7"}).get_int("X", 1) == 7
        assert RunConfig({}).get_int("X", 5) == 5

    def test_get_int_rejects_garbage(self):
        with pytest.raises(ConfigError):
            RunConfig({"X": "lots"}).get_int("X", 1)

    def test_get_int_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            RunConfig({"X": "0"}).get_int("X", 1)

    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("true", True), ("close", True), ("spread", True),
        ("0", False), ("false", False), ("", False),
    ])
    def test_get_bool(self, raw, expected):
        assert RunConfig({"B": raw}).get_bool("B") is expected

    def test_get_bool_rejects_garbage(self):
        with pytest.raises(ConfigError):
            RunConfig({"B": "maybe"}).get_bool("B")


class TestSemantics:
    def test_threads_for_each_family(self):
        cfg = RunConfig({"OMP_NUM_THREADS": "4", "JULIA_NUM_THREADS": "8",
                         "NUMBA_NUM_THREADS": "16"})
        assert cfg.threads_for("openmp", 64) == 4
        assert cfg.threads_for("kokkos", 64) == 4
        assert cfg.threads_for("julia", 64) == 8
        assert cfg.threads_for("numba", 64) == 16

    def test_threads_default_all_cores(self):
        assert RunConfig().threads_for("openmp", 64) == 64

    def test_threads_unknown_family(self):
        with pytest.raises(ConfigError):
            RunConfig().threads_for("rust", 4)

    def test_pinning_numba_always_false(self):
        cfg = RunConfig({"OMP_PROC_BIND": "true", "JULIA_EXCLUSIVE": "1"})
        assert cfg.pinning_for("openmp") is True
        assert cfg.pinning_for("julia") is True
        assert cfg.pinning_for("numba") is False

    def test_pinning_defaults_off(self):
        assert RunConfig().pinning_for("openmp") is False
        assert RunConfig().pinning_for("julia") is False


class TestHygiene:
    def test_typo_detection(self):
        warnings = RunConfig({"OMP_NUM_THREAD": "4"}).validate()
        assert any("OMP_NUM_THREADS" in w for w in warnings)

    def test_known_variables_clean(self):
        cfg = RunConfig({k: "1" for k in KNOWN_VARIABLES})
        assert cfg.validate() == []

    def test_merged_overrides(self):
        cfg = RunConfig({"A": "1"}).merged({"A": "2", "B": "3"})
        assert cfg.get("A") == "2"
        assert cfg.get("B") == "3"

    def test_len_and_iter(self):
        cfg = RunConfig({"A": "1", "B": "2"})
        assert len(cfg) == 2
        assert sorted(cfg) == ["A", "B"]


# --------------------------------------------------------------------------
# the one settings pass: every reader of the REPRO_* run settings agrees
# --------------------------------------------------------------------------

#: Per run setting: one valid and one invalid value.
SETTING_VALUES = {
    "REPRO_CACHE": ("off", "maybe"),
    "REPRO_JOBS": ("2", "0"),
    "REPRO_ENGINE": ("process", "thread"),
    "REPRO_FAULTS": ("rate=0.2,seed=7", "rate=2"),
    "REPRO_RETRIES": ("3", "-1"),
    "REPRO_BACKOFF": ("0.25", "soon"),
    "REPRO_MAX_CELL_SECONDS": ("60", "-5"),
    "REPRO_FAIL_FAST": ("1", "maybe"),
    "REPRO_BREAKER": ("threshold=3,cooldown=60", "threshold=x"),
    "REPRO_FALLBACK": ("numba@gpu=numba@cpu+reference", "numba"),
    "REPRO_JOURNAL": ("off", "maybe"),
    "REPRO_WATCHDOG": ("timeout=30,respawns=2", "timeout=-1"),
    "REPRO_TENANT": ("ci", "a b"),
    "REPRO_PRIORITY": ("5", "urgent"),
    "REPRO_DEADLINE": ("600", "tomorrow"),
    "REPRO_SUBMISSION_KEY": ("key-1", "a b"),
    "REPRO_CLIENT_RETRIES": ("4", "many"),
}

#: REPRO_* variables read where they are used, not by the settings pass.
NOT_RUN_SETTINGS = {"REPRO_CACHE_DIR", "REPRO_RUNS_DIR",
                    "REPRO_SERVICE_SOCKET", "REPRO_CHAOS_PLAN"}


def test_every_run_setting_has_agreement_values():
    run_settings = {name for name in KNOWN_VARIABLES
                    if name.startswith("REPRO_")} - NOT_RUN_SETTINGS
    assert set(SETTING_VALUES) == run_settings


def _spec_side(environ):
    from repro.config import resolve_campaign_spec
    from repro.core.types import DeviceKind, Precision
    from repro.harness.experiment import Experiment
    exp = Experiment(exp_id="cfg", title="settings", node_name="Crusher",
                     device=DeviceKind.CPU, precision=Precision.FP64,
                     models=("julia",), sizes=(256,), threads=64, reps=3)
    return resolve_campaign_spec(exp, environ=environ)


def _process_side(name, raw, monkeypatch):
    from repro.harness.engine import (default_engine, default_run_options,
                                      reset_default_engine,
                                      reset_default_run_options)
    for var in SETTING_VALUES:
        monkeypatch.delenv(var, raising=False)
    if raw is not None:
        monkeypatch.setenv(name, raw)
    reset_default_engine()
    reset_default_run_options()
    try:
        return default_run_options(), default_engine()
    finally:
        reset_default_engine()
        reset_default_run_options()


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except ConfigError as exc:
        return None, exc


@pytest.mark.parametrize("which", ["empty", "valid", "invalid"])
@pytest.mark.parametrize("name", sorted(SETTING_VALUES))
def test_spec_and_process_defaults_agree(name, which, monkeypatch):
    from dataclasses import replace

    from repro.harness.engine import RunOptions

    raw = {"empty": "", "valid": SETTING_VALUES[name][0],
           "invalid": SETTING_VALUES[name][1]}[which]
    spec, spec_error = _outcome(_spec_side, {name: raw})
    process, process_error = _outcome(_process_side, name, raw, monkeypatch)
    assert (spec_error is None) == (process_error is None), \
        (spec_error, process_error)
    assert (spec_error is None) == (which != "invalid")
    if spec_error is not None:
        return
    options, engine = process
    assert spec.run_options(base=RunOptions(watchdog=options.watchdog)) \
        == replace(options, cache=spec.cache, jobs=spec.jobs)
    assert engine.mode == (spec.engine or "serial")
    assert engine.max_workers == spec.jobs
    assert (engine.cache is not None) == (spec.cache is not False)
    if which == "empty":
        # An empty value means unset, for every reader.
        assert spec == _spec_side({})
        unset_options, unset_engine = _process_side(name, None, monkeypatch)
        assert options == unset_options
        assert (engine.mode, engine.max_workers, engine.cache is None) == (
            unset_engine.mode, unset_engine.max_workers,
            unset_engine.cache is None)


@pytest.mark.parametrize("name", sorted(SETTING_VALUES))
def test_empty_value_means_unset(name):
    from repro.config import resolve_run_settings
    assert resolve_run_settings(environ={name: ""}) \
        == resolve_run_settings(environ={})
