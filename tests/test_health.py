"""Self-healing sweeps: breakers, fallback ladders, substitution.

The contracts pinned here:

* the :class:`LaneHealth` state machine walks the classic breaker cycle
  (CLOSED -> OPEN -> HALF_OPEN -> probe decides) on simulated time only;
* ``--breaker`` / ``--fallback`` grammars parse, reject garbage, and
  round-trip through their canonical spec strings and payloads;
* with breakers enabled, an open lane's cells are served by the ladder
  with full provenance (``substituted_from`` / ``served_by`` /
  ``ladder_hops``) surfaced by every rendering surface;
* substitution never inflates the score: same-model serves price their
  honest ratio, cross-model serves price e = 0, exhausted ladders leave
  the cell failed;
* with breakers *disabled* (the default) nothing changes: options
  payloads, fingerprints and exports are byte-identical to the
  pre-health behaviour.
"""

import json

import pytest

from repro.core.types import DeviceKind, Precision
from repro.errors import ConfigError
from repro.harness.engine import RunOptions, SweepEngine, campaign_fingerprint
from repro.harness.experiment import Experiment
from repro.harness.export import result_set_to_dict, result_set_to_json
from repro.harness.health import (
    BreakerPolicy,
    BreakerState,
    BreakerTransition,
    FallbackLadder,
    HealthRegistry,
    LaneHealth,
    resolve_hop,
)
from repro.harness.report import render_result_set
from repro.harness.runner import run_campaign
from repro.service import CampaignSpec
from repro.sim.faults import FaultConfig


def gpu_exp(**kw):
    defaults = dict(
        exp_id="hlt-gpu", title="health test", node_name="Wombat",
        device=DeviceKind.GPU, precision=Precision.FP64,
        models=("cuda", "numba"), sizes=(256, 512, 1024), reps=5,
    )
    defaults.update(kw)
    return Experiment(**defaults)


def cpu_exp(**kw):
    defaults = dict(
        exp_id="hlt-cpu", title="health test", node_name="Crusher",
        device=DeviceKind.CPU, precision=Precision.FP64,
        models=("c-openmp", "julia"), sizes=(256, 512), threads=64, reps=5,
    )
    defaults.update(kw)
    return Experiment(**defaults)


def serial_engine():
    return SweepEngine(cache=None)


def breaker_opts(**kw):
    kw.setdefault("cache", False)
    kw.setdefault("breaker", BreakerPolicy(threshold=2, cooldown_s=1e5))
    kw.setdefault("faults", FaultConfig.parse("always=numba@256+numba@512"))
    return RunOptions(**kw)


# --------------------------------------------------------------------------
# BreakerPolicy: grammar and round-trips
# --------------------------------------------------------------------------

class TestBreakerPolicy:
    def test_default_is_disabled(self):
        assert not BreakerPolicy().enabled
        assert BreakerPolicy().describe() == "breakers disabled"

    def test_bare_int_shorthand(self):
        p = BreakerPolicy.parse("3")
        assert p.threshold == 3 and p.enabled

    def test_full_grammar(self):
        p = BreakerPolicy.parse("threshold=2,cooldown=1e4")
        assert p.threshold == 2 and p.cooldown_s == 1e4

    def test_spec_round_trips(self):
        for spec in ("3", "threshold=2,cooldown=1e4", "threshold=5"):
            p = BreakerPolicy.parse(spec)
            assert BreakerPolicy.parse(p.spec()) == p

    def test_payload_round_trips(self):
        p = BreakerPolicy.parse("threshold=4,cooldown=60")
        assert BreakerPolicy.from_payload(
            json.loads(json.dumps(p.payload()))) == p

    @pytest.mark.parametrize("spec", [
        "", "0", "-1", "threshold=0", "threshold=x", "cooldown=60",
        "threshold=2,threshold=3", "banana=1", "threshold",
        "threshold=2,cooldown=pi",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            BreakerPolicy.parse(spec)

    def test_duplicate_key_message(self):
        with pytest.raises(ConfigError, match="duplicate breaker spec key"):
            BreakerPolicy.parse("threshold=2,threshold=3")

    def test_constructor_validates(self):
        with pytest.raises(ConfigError):
            BreakerPolicy(threshold=-1)
        with pytest.raises(ConfigError):
            BreakerPolicy(threshold=1, cooldown_s=0.0)


# --------------------------------------------------------------------------
# FallbackLadder: grammar, defaults and hop resolution
# --------------------------------------------------------------------------

class TestFallbackLadder:
    def test_parse_and_hops_for(self):
        lad = FallbackLadder.parse(
            "numba@gpu=numba@cpu+reference,julia@gpu=julia@cpu")
        assert lad.hops_for("numba@gpu") == ("numba@cpu", "reference")
        assert lad.hops_for("julia@gpu") == ("julia@cpu",)
        assert lad.hops_for("kokkos@gpu") == ()

    def test_spec_round_trips(self):
        spec = "numba@gpu=numba@cpu+reference,julia@gpu=reference"
        lad = FallbackLadder.parse(spec)
        assert FallbackLadder.parse(lad.spec()) == lad
        assert lad.spec() == spec

    def test_payload_round_trips(self):
        lad = FallbackLadder.parse("numba@gpu=numba@cpu+reference")
        assert FallbackLadder.from_payload(
            json.loads(json.dumps(lad.payload()))) == lad

    @pytest.mark.parametrize("spec", [
        "", "numba@gpu", "numba@gpu=", "numba=reference",
        "numba@tpu=reference", "gremlin@gpu=reference",
        "numba@gpu=gremlin@cpu", "numba@gpu=numba@gpu",
        "numba@gpu=reference,numba@gpu=numba@cpu",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            FallbackLadder.parse(spec)

    def test_default_gpu_ladder_prefers_same_model_cpu(self):
        lad = FallbackLadder.default_for(gpu_exp())
        assert lad.hops_for("numba@gpu") == ("numba@cpu", "reference")
        # the reference lane itself gets no ladder
        assert lad.hops_for("cuda@gpu") == ()

    def test_default_cpu_ladder_is_reference_only(self):
        lad = FallbackLadder.default_for(cpu_exp())
        assert lad.hops_for("julia@cpu") == ("reference",)
        assert lad.hops_for("c-openmp@cpu") == ()

    def test_resolve_hop(self):
        exp = gpu_exp()
        model, device = resolve_hop("numba@cpu", exp)
        assert model.name == "numba" and device is DeviceKind.CPU
        model, device = resolve_hop("reference", exp)
        assert model.name == "cuda" and device is DeviceKind.GPU


# --------------------------------------------------------------------------
# LaneHealth: the state machine on simulated time
# --------------------------------------------------------------------------

class TestLaneHealth:
    def lane(self, threshold=2, cooldown=100.0):
        return LaneHealth("numba@gpu",
                          BreakerPolicy(threshold=threshold,
                                        cooldown_s=cooldown))

    def test_closed_until_threshold(self):
        lane = self.lane()
        assert lane.route(0) == "run"
        lane.record_native(False, 1.0, 0)
        assert lane.state is BreakerState.CLOSED
        lane.record_native(False, 1.0, 1)
        assert lane.state is BreakerState.OPEN
        assert lane.route(2) == "substitute"

    def test_success_resets_consecutive_count(self):
        lane = self.lane()
        lane.record_native(False, 1.0, 0)
        lane.record_native(True, 1.0, 1)
        lane.record_native(False, 1.0, 2)
        assert lane.state is BreakerState.CLOSED

    def test_cooldown_earns_probe_and_success_recloses(self):
        lane = self.lane(cooldown=10.0)
        lane.record_native(False, 1.0, 0)
        lane.record_native(False, 1.0, 1)    # opens at clock 2.0
        assert lane.route(2) == "substitute"
        lane.record_substituted(50.0)        # simulated serve cost
        assert lane.route(3) == "probe"      # cooldown elapsed
        assert lane.state is BreakerState.HALF_OPEN
        lane.record_native(True, 1.0, 3)
        assert lane.state is BreakerState.CLOSED

    def test_probe_failure_reopens(self):
        lane = self.lane(cooldown=10.0)
        lane.record_native(False, 1.0, 0)
        lane.record_native(False, 1.0, 1)
        lane.record_substituted(50.0)
        assert lane.route(2) == "probe"
        lane.record_native(False, 1.0, 2)
        assert lane.state is BreakerState.OPEN
        # the re-open restarts the cooldown from the probe's clock
        assert lane.route(3) == "substitute"

    def test_transitions_drain_once(self):
        lane = self.lane()
        lane.record_native(False, 1.0, 0)
        lane.record_native(False, 1.0, 1)
        trs = lane.drain_transitions()
        assert [t.to_state for t in trs] == [BreakerState.OPEN]
        assert trs[0].cell_index == 1 and "threshold 2" in trs[0].reason
        assert lane.drain_transitions() == []

    def test_transition_payload_round_trips(self):
        lane = self.lane()
        lane.record_native(False, 1.0, 0)
        lane.record_native(False, 1.0, 1)
        [tr] = lane.drain_transitions()
        assert BreakerTransition.from_payload(
            json.loads(json.dumps(tr.payload()))) == tr

    def test_substitution_advances_clock_only(self):
        lane = self.lane()
        lane.record_native(False, 1.0, 0)
        lane.record_substituted(5.0)
        assert lane.clock_s == 6.0
        assert lane.consecutive_failures == 1
        assert lane.drain_transitions() == []


# --------------------------------------------------------------------------
# HealthRegistry
# --------------------------------------------------------------------------

class TestHealthRegistry:
    def registry(self, exp=None):
        exp = exp or gpu_exp()
        return HealthRegistry(BreakerPolicy(threshold=2),
                              FallbackLadder.default_for(exp), exp)

    def test_lanes_keyed_model_at_device(self):
        reg = self.registry()
        lane = reg.lane_for("numba")
        assert lane.lane == "numba@gpu"
        assert reg.lane_for("numba") is lane  # stable identity

    def test_untracked_lane_never_open(self):
        reg = self.registry()
        assert not reg.is_open("numba@cpu")

    def test_is_open_tracks_state(self):
        reg = self.registry()
        lane = reg.lane_for("numba")
        lane.record_native(False, 1.0, 0)
        lane.record_native(False, 1.0, 1)
        assert reg.is_open("numba@gpu")

    def test_require_meta_refuses_metadata_free_journals(self):
        from repro.errors import JournalError
        reg = self.registry()
        meta = {"native": "ok", "native_cost_s": 1.0, "serve_cost_s": 0.0}
        assert reg.require_meta(meta, "a" * 64) is meta
        with pytest.raises(JournalError, match="health metadata"):
            reg.require_meta(None, "a" * 64)


# --------------------------------------------------------------------------
# Engine: substitution end to end
# --------------------------------------------------------------------------

class TestEngineSubstitution:
    def healed_run(self, **kw):
        engine = serial_engine()
        rs = run_campaign(CampaignSpec(experiment=gpu_exp()), engine=engine,
                            options=breaker_opts(**kw))
        return rs, engine.last_report

    def test_open_lane_is_served_with_provenance(self):
        rs, report = self.healed_run()
        # numba@256 fails below the threshold: an honest failed cell
        m256 = rs.cell("numba", 256)
        assert m256.failed and not m256.substituted
        # numba@512 trips the breaker; its serve records the journey:
        # numba@cpu also faults (always= patterns are device-blind),
        # so the reference lane serves on the second hop
        m512 = rs.cell("numba", 512)
        assert m512.substituted and m512.status == "substituted"
        assert m512.substituted_from == "numba@gpu"
        assert m512.served_by == "cuda@gpu"
        assert m512.ladder_hops == 2
        assert m512.model == "numba"  # origin identity is preserved
        # numba@1024 is served first-hop by the same model on the CPU
        m1024 = rs.cell("numba", 1024)
        assert m1024.substituted
        assert m1024.served_by == "numba@cpu" and m1024.ladder_hops == 1
        # the reference lane is untouched
        assert all(rs.cell("cuda", s).status == "ok" for s in rs.sizes())
        assert rs.status_counts() == {"ok": 3, "unsupported": 0,
                                      "failed": 1, "substituted": 2}

    def test_breaker_transitions_in_report(self):
        _, report = self.healed_run()
        opens = [t for t in report.transitions
                 if t.to_state is BreakerState.OPEN]
        assert len(opens) == 1 and opens[0].lane == "numba@gpu"
        assert "threshold 2" in opens[0].reason
        rendered = report.render()
        assert "2 SUBSTITUTED" in rendered
        assert "breaker transitions:" in rendered
        assert "<- cuda@gpu" in rendered

    def test_explicit_ladder_overrides_default(self):
        rs, _ = self.healed_run(
            fallback=FallbackLadder.parse("numba@gpu=reference"))
        m1024 = rs.cell("numba", 1024)
        assert m1024.served_by == "cuda@gpu" and m1024.ladder_hops == 1

    def test_exhausted_ladder_leaves_cell_failed(self):
        # julia does not support this node's GPU? No — route everything
        # to a single rung that always faults at the served sizes.
        rs, _ = self.healed_run(
            faults=FaultConfig.parse(
                "always=numba@256+numba@512+numba@1024"),
            fallback=FallbackLadder.parse("numba@gpu=numba@cpu"))
        m1024 = rs.cell("numba", 1024)
        assert m1024.failed and not m1024.substituted
        assert "fallback ladder exhausted" in m1024.note
        assert m1024.ladder_hops == 1

    def test_cooldown_probe_recloses_lane(self):
        # A tiny cooldown: by the third numba cell the serve cost of the
        # second has expired it, the probe runs natively (1024 is not
        # faulted) and the lane re-closes.
        rs, report = self.healed_run(
            breaker=BreakerPolicy(threshold=2, cooldown_s=1e-6))
        m1024 = rs.cell("numba", 1024)
        assert m1024.status == "ok" and not m1024.substituted
        states = [t.to_state for t in report.transitions]
        assert states == [BreakerState.OPEN, BreakerState.HALF_OPEN,
                          BreakerState.CLOSED]

    def test_determinism(self):
        a, _ = self.healed_run()
        b, _ = self.healed_run()
        assert result_set_to_json(a) == result_set_to_json(b)

    def test_report_and_table_annotations(self):
        rs, _ = self.healed_run()
        text = render_result_set(rs, chart=False)
        assert "SUBSTITUTED: 2 of 6 cells" in text
        assert "*" in text
        assert "served by cuda@gpu" in text
        assert "served by numba@cpu" in text

    def test_timeline_has_breaker_and_substitution_events(self):
        from repro.trace.events import EventKind
        _, report = self.healed_run()
        kinds = {e.kind for e in report.timeline().events}
        assert EventKind.BREAKER_OPEN in kinds
        assert EventKind.SUBSTITUTION in kinds


# --------------------------------------------------------------------------
# Pricing: substitution never inflates the score
# --------------------------------------------------------------------------

class TestSubstitutionPricing:
    def test_efficiency_series_prices_serves_honestly(self):
        engine = serial_engine()
        rs = run_campaign(CampaignSpec(experiment=gpu_exp()), engine=engine,
                            options=breaker_opts())
        es = rs.efficiency_series("numba", "cuda")
        by_size = dict(zip(rs.sizes(), es))
        assert by_size[256] == 0.0          # failed: e = 0
        assert by_size[512] == 0.0          # cross-model serve: e = 0
        assert 0.0 < by_size[1024] < 1.0    # same-model serve: honest ratio

    def test_same_model_serve_prices_what_actually_ran(self):
        # The served ratio is the substituted measurement's own gflops
        # over the reference's — never the open lane's imagined native
        # number.
        rs = run_campaign(CampaignSpec(experiment=gpu_exp()), engine=serial_engine(),
                            options=breaker_opts())
        m1024 = rs.cell("numba", 1024)
        ref = rs.cell("cuda", 1024)
        e = dict(zip(rs.sizes(),
                     rs.efficiency_series("numba", "cuda")))[1024]
        assert e == pytest.approx(m1024.gflops / ref.gflops)


# --------------------------------------------------------------------------
# Disabled breakers change nothing (byte-identity with PR 3 / PR 4)
# --------------------------------------------------------------------------

class TestDisabledBreakersAreInert:
    def test_options_payload_unchanged(self):
        assert "breaker" not in RunOptions().payload()
        assert "fallback" not in RunOptions().payload()

    def test_fingerprint_unchanged(self):
        exp = cpu_exp()
        faults = FaultConfig.parse("rate=0.2,seed=7")
        assert campaign_fingerprint(exp, faults) == campaign_fingerprint(
            exp, faults, breaker=BreakerPolicy(), fallback=None)

    def test_export_has_no_provenance_keys(self):
        rs = run_campaign(CampaignSpec(experiment=cpu_exp()), engine=serial_engine(),
                            options=RunOptions(cache=False))
        doc = result_set_to_dict(rs)
        assert doc["substituted"] is False
        for mdata in doc["measurements"]:
            assert "substituted_from" not in mdata
            assert "served_by" not in mdata

    def test_runs_identical_with_and_without_health_fields(self):
        exp = cpu_exp()
        plain = run_campaign(CampaignSpec(experiment=exp), engine=serial_engine(),
                               options=RunOptions(cache=False))
        explicit = run_campaign(CampaignSpec(experiment=exp), engine=serial_engine(),
            options=RunOptions(cache=False, breaker=BreakerPolicy(),
                               fallback=None))
        assert result_set_to_json(plain) == result_set_to_json(explicit)


# --------------------------------------------------------------------------
# CLI: --breaker / --fallback / repro health
# --------------------------------------------------------------------------

class TestHealthCLI:
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

    BREAKER_ARGV = ("run", "--node", "wombat", "--device", "gpu",
                    "--models", "cuda,numba", "--sizes", "256,512,1024",
                    "--no-cache",
                    "--faults", "always=numba@256+numba@512",
                    "--breaker", "threshold=2,cooldown=1e5")

    def test_breaker_run_and_health_command(self, capsys):
        rc, out, err = self.run_cli(capsys, *self.BREAKER_ARGV)
        assert rc == 0
        assert "DEGRADED" in out and "SUBSTITUTED" in out
        run_id = err.split("journaling run ")[-1].split()[0]
        rc, out, _ = self.run_cli(capsys, "health", run_id)
        assert rc == 0
        assert "breakers: open after 2 consecutive failures" in out
        assert "fallbacks: registry defaults" in out
        assert "closed -> open" in out
        assert "numba@gpu: open" in out
        assert "<- cuda@gpu" in out

    def test_health_on_breakerless_run(self, capsys):
        rc, _, err = self.run_cli(capsys, "run", "--models", "julia",
                                  "--sizes", "256")
        run_id = err.split("journaling run ")[-1].split()[0]
        rc, out, _ = self.run_cli(capsys, "health", run_id)
        assert rc == 0 and "breakers were not enabled" in out

    def test_health_unknown_run(self, capsys):
        rc, _, err = self.run_cli(capsys, "health", "run-nope")
        assert rc == 1 and "no run" in err

    def test_bad_breaker_spec_is_usage_error(self, capsys):
        rc, _, err = self.run_cli(capsys, "run", "--models", "julia",
                                  "--sizes", "256", "--breaker", "banana=1")
        assert rc == 2 and "unknown breaker spec key" in err

    def test_bad_fallback_spec_is_usage_error(self, capsys):
        rc, _, err = self.run_cli(capsys, "run", "--models", "julia",
                                  "--sizes", "256", "--breaker", "2",
                                  "--fallback", "julia@cpu=julia@cpu")
        assert rc == 2 and "routes back to itself" in err

    def test_fallback_flag(self, capsys):
        argv = self.BREAKER_ARGV + ("--fallback", "numba@gpu=reference")
        rc, out, _ = self.run_cli(capsys, *argv)
        assert rc == 0 and "served by cuda@gpu" in out

    def test_env_knobs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BREAKER", "threshold=2,cooldown=1e5")
        monkeypatch.setenv("REPRO_FAULTS", "always=numba@256+numba@512")
        rc, out, _ = self.run_cli(
            capsys, "run", "--node", "wombat", "--device", "gpu",
            "--models", "cuda,numba", "--sizes", "256,512,1024",
            "--no-cache")
        assert rc == 0 and "SUBSTITUTED" in out
