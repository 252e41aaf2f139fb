"""Tests for the benchmark harness: experiments, runner, results, reports."""

import pytest

from repro.core.types import DeviceKind, MatrixShape, Precision
from repro.errors import ExperimentError
from repro.harness import (
    Experiment,
    QUICK_SIZES,
    run_campaign,
    run_measurement,
)
from repro.harness.figures import crusher_cpu_experiment, wombat_gpu_experiment
from repro.harness.report import ascii_chart, ascii_table, render_result_set
from repro.harness.results import Measurement, ResultSet
from repro.models import model_by_name
from repro.service import CampaignSpec
from repro.trace.events import EventKind
from repro.trace.profiler import Profiler


def small_cpu_exp(**kw):
    defaults = dict(
        exp_id="t-cpu", title="test", node_name="Crusher",
        device=DeviceKind.CPU, precision=Precision.FP64,
        models=("c-openmp", "julia"), sizes=(256, 512), threads=64, reps=5,
    )
    defaults.update(kw)
    return Experiment(**defaults)


class TestExperiment:
    def test_validation(self):
        with pytest.raises(ExperimentError):
            small_cpu_exp(models=())
        with pytest.raises(ExperimentError):
            small_cpu_exp(sizes=(0,))
        with pytest.raises(ExperimentError):
            small_cpu_exp(reps=0)

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            small_cpu_exp(node_name="Summit")

    def test_target_spec(self):
        assert small_cpu_exp().target_spec.name == "AMD EPYC 7A53"
        gpu = wombat_gpu_experiment(Precision.FP64)
        assert gpu.target_spec.name == "NVIDIA A100"

    def test_effective_threads_defaults_to_cores(self):
        e = small_cpu_exp(threads=None)
        assert e.effective_threads == 64

    def test_threads_meaningless_on_gpu(self):
        with pytest.raises(ExperimentError):
            wombat_gpu_experiment(Precision.FP64).effective_threads

    def test_with_sizes(self):
        e = small_cpu_exp().with_sizes((128,))
        assert e.sizes == (128,)


class TestRunner:
    def test_cpu_measurement_reps(self):
        exp = small_cpu_exp()
        m = run_measurement(model_by_name("c-openmp"), exp,
                            MatrixShape.square(256))
        assert m.supported
        assert len(m.times_s) == exp.reps + exp.warmup
        assert len(m.kernel_times) == exp.reps
        assert m.gflops > 0

    def test_warmup_is_slowest_for_jit_models(self):
        """The excluded first repetition carries JIT compilation."""
        exp = small_cpu_exp(models=("julia",))
        m = run_measurement(model_by_name("julia"), exp, MatrixShape.square(256))
        assert m.times_s[0] > max(m.kernel_times)

    def test_unsupported_cell(self):
        exp = wombat_gpu_experiment(Precision.FP64, sizes=(256,),
                                    models=("numba",))
        exp2 = Experiment(**{**exp.__dict__, "node_name": "Crusher"})
        m = run_measurement(model_by_name("numba"), exp2, MatrixShape.square(256))
        assert not m.supported
        assert "deprecated" in m.note
        with pytest.raises(ExperimentError):
            m.seconds

    def test_run_experiment_full_grid(self):
        exp = small_cpu_exp()
        rs = run_campaign(CampaignSpec(experiment=exp))
        assert len(rs.measurements) == len(exp.models) * len(exp.sizes)
        assert rs.models() == list(exp.models)
        assert rs.sizes() == sorted(exp.sizes)

    def test_determinism(self):
        """Same seed, same samples — bit-for-bit."""
        exp = small_cpu_exp()
        a = run_campaign(CampaignSpec(experiment=exp))
        b = run_campaign(CampaignSpec(experiment=exp))
        for ma, mb in zip(a.measurements, b.measurements):
            assert ma.times_s == mb.times_s

    def test_seed_changes_samples(self):
        a = run_campaign(CampaignSpec(experiment=small_cpu_exp(seed=1)))
        b = run_campaign(CampaignSpec(experiment=small_cpu_exp(seed=2)))
        assert a.measurements[0].times_s != b.measurements[0].times_s

    def test_gpu_trace_corroboration(self):
        """The nvprof check: kernel events == reps + warmup, plus both
        transfer directions."""
        exp = wombat_gpu_experiment(Precision.FP64, sizes=(1024,),
                                    models=("cuda",))
        prof = Profiler()
        rs = run_campaign(CampaignSpec(experiment=exp), profiler=prof)
        assert rs.measurements[0].supported
        assert prof.count(EventKind.KERNEL) == exp.reps + exp.warmup
        assert prof.count(EventKind.MEMCPY_H2D) == 1
        assert prof.count(EventKind.MEMCPY_D2H) == 1

    def test_jit_trace_event(self):
        exp = small_cpu_exp(models=("numba",))
        prof = Profiler()
        run_campaign(CampaignSpec(experiment=exp), profiler=prof)
        assert prof.count(EventKind.JIT_COMPILE) >= 1


class TestWarmupComposition:
    """Regression tests for the H2D double-count (see EXPERIMENTS.md,
    "Warm-up accounting"): the warm-up repetition carries JIT plus the
    one-time H2D copy in kernel-only mode, but in end-to-end mode every
    repetition already pays the full transfer, so the warm-up must add
    JIT only — H2D used to be charged a second time there."""

    def _components(self, exp, shape):
        from repro.gpu.transfer import gemm_transfer_estimate
        from repro.gpu.warp_sim import simulate_gpu_kernel
        from repro.sim.variability import VariabilityModel

        model = model_by_name("cuda")
        spec = exp.target_spec
        low = model.lower_gpu(spec, exp.precision)
        timing = simulate_gpu_kernel(low.kernel, low.launch, spec, shape,
                                     low.profile)
        transfers = gemm_transfer_estimate(spec, shape, exp.precision)
        jit = model.productivity(exp.device).jit_warmup_seconds
        noise = VariabilityModel.for_node(exp.node_name, seed=exp.seed)
        key = f"{exp.exp_id}:cuda:{shape}:{exp.precision.value}"
        return model, timing, transfers, jit, noise, key

    def test_kernel_only_warmup_carries_one_h2d(self):
        exp = wombat_gpu_experiment(Precision.FP64, sizes=(512,),
                                    models=("cuda",))
        shape = MatrixShape.square(512)
        model, timing, transfers, jit, noise, key = self._components(exp, shape)
        m = run_measurement(model, exp, shape)
        expected = noise.samples(timing.total_seconds, key,
                                 exp.reps + exp.warmup,
                                 warmup_extra_seconds=jit + transfers.h2d_seconds)
        assert m.times_s == tuple(expected)

    def test_end_to_end_warmup_adds_no_second_h2d(self):
        base = wombat_gpu_experiment(Precision.FP64, sizes=(512,),
                                     models=("cuda",))
        exp = Experiment(**{**base.__dict__, "include_transfers": True})
        shape = MatrixShape.square(512)
        model, timing, transfers, jit, noise, key = self._components(exp, shape)
        m = run_measurement(model, exp, shape)
        nominal = timing.total_seconds + transfers.total_seconds
        expected = noise.samples(nominal, key, exp.reps + exp.warmup,
                                 warmup_extra_seconds=jit)
        assert m.times_s == tuple(expected)

    def test_h2d_charged_exactly_once_per_mode(self):
        """Subtracting the two modes' warm-up samples isolates the transfer
        charge: it must be jitter0 * total - h2d, never total alone."""
        base = wombat_gpu_experiment(Precision.FP64, sizes=(512,),
                                     models=("cuda",))
        e2e = Experiment(**{**base.__dict__, "include_transfers": True})
        shape = MatrixShape.square(512)
        model, timing, transfers, jit, noise, key = self._components(base, shape)
        m_base = run_measurement(model, base, shape)
        m_e2e = run_measurement(model, e2e, shape)
        jitter0 = (m_base.times_s[0] - jit - transfers.h2d_seconds) \
            / timing.total_seconds
        delta = m_e2e.times_s[0] - m_base.times_s[0]
        expected_delta = jitter0 * transfers.total_seconds \
            - transfers.h2d_seconds
        assert delta == pytest.approx(expected_delta, rel=1e-12)


class TestResults:
    def test_series_skips_unsupported(self):
        exp = wombat_gpu_experiment(Precision.FP64, sizes=(512, 1024))
        exp = Experiment(**{**exp.__dict__, "node_name": "Crusher",
                            "exp_id": "t-gpu",
                            "models": ("hip", "numba")})
        rs = run_campaign(CampaignSpec(experiment=exp))
        xs, ys = rs.series("numba")
        assert xs == [] and ys == []
        xs, ys = rs.series("hip")
        assert xs == [512, 1024]

    def test_efficiency_series_and_mean(self):
        rs = run_campaign(CampaignSpec(experiment=small_cpu_exp()))
        es = rs.efficiency_series("julia", "c-openmp")
        assert len(es) == 2
        assert all(0.3 < e < 1.2 for e in es)
        assert rs.mean_efficiency("julia", "c-openmp") == pytest.approx(
            sum(es) / len(es))

    def test_mean_efficiency_none_when_unsupported(self):
        exp = Experiment(
            exp_id="t", title="t", node_name="Crusher", device=DeviceKind.GPU,
            precision=Precision.FP64, models=("hip", "numba"), sizes=(512,))
        rs = run_campaign(CampaignSpec(experiment=exp))
        assert rs.mean_efficiency("numba", "hip") is None

    def test_to_rows(self):
        rs = run_campaign(CampaignSpec(experiment=small_cpu_exp()))
        rows = rs.to_rows()
        assert len(rows) == 4
        assert {"experiment", "model", "size", "gflops"} <= set(rows[0])

    def test_cell_lookup_missing(self):
        rs = run_campaign(CampaignSpec(experiment=small_cpu_exp()))
        with pytest.raises(KeyError):
            rs.cell("julia", 9999)


class TestNonSquareKeys:
    """Regression tests for the shape-key collision: E17-style sweeps mix
    shapes with equal m but different n/k, and ``cell``/``series`` used to
    silently return the first m-match."""

    def _non_square_rs(self):
        exp = small_cpu_exp(models=("c-openmp",), sizes=(512,))
        model = model_by_name("c-openmp")
        wide = MatrixShape(512, 2048, 128)
        deep = MatrixShape(512, 128, 2048)
        rs = ResultSet(exp)
        rs.add(run_measurement(model, exp, wide))
        rs.add(run_measurement(model, exp, deep))
        return rs, wide, deep

    def test_cell_by_shape_distinguishes_colliding_m(self):
        rs, wide, deep = self._non_square_rs()
        assert rs.cell_by_shape("c-openmp", wide).shape == wide
        assert rs.cell_by_shape("c-openmp", deep).shape == deep
        assert rs.cell_by_shape("c-openmp", wide).times_s != \
            rs.cell_by_shape("c-openmp", deep).times_s

    def test_integer_key_is_ambiguous_on_collision(self):
        rs, _, _ = self._non_square_rs()
        with pytest.raises(KeyError, match="ambiguous"):
            rs.cell("c-openmp", 512)

    def test_cell_accepts_full_shape(self):
        rs, wide, _ = self._non_square_rs()
        assert rs.cell("c-openmp", wide).shape == wide

    def test_series_covers_every_shape(self):
        rs, _, _ = self._non_square_rs()
        xs, ys = rs.series("c-openmp")
        assert xs == [512, 512]
        assert len(set(ys)) == 2

    def test_shapes_listing(self):
        rs, wide, deep = self._non_square_rs()
        assert rs.shapes() == sorted([wide, deep],
                                     key=lambda s: (s.m, s.n, s.k))

    def test_square_sweep_api_unchanged(self):
        rs = run_campaign(CampaignSpec(experiment=small_cpu_exp()))
        assert rs.sizes() == [256, 512]
        m = rs.cell("c-openmp", 256)
        assert m.shape == MatrixShape.square(256)
        xs, _ = rs.series("c-openmp")
        assert xs == [256, 512]

    def test_efficiency_series_pairs_by_shape(self):
        exp = small_cpu_exp(sizes=(512,))
        wide = MatrixShape(512, 2048, 128)
        deep = MatrixShape(512, 128, 2048)
        rs = ResultSet(exp)
        for name in ("c-openmp", "julia"):
            model = model_by_name(name)
            for shape in (wide, deep):
                rs.add(run_measurement(model, exp, shape))
        es = rs.efficiency_series("julia", "c-openmp")
        assert len(es) == 2
        expected = [
            rs.cell_by_shape("julia", s).gflops
            / rs.cell_by_shape("c-openmp", s).gflops
            for s in rs.shapes()
        ]
        assert es == expected


class TestReport:
    def test_ascii_table_alignment(self):
        out = ascii_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "---" in lines[1]

    def test_ascii_chart_renders_all_series(self):
        out = ascii_chart({"one": ([1, 2, 3], [1.0, 2.0, 3.0]),
                           "two": ([1, 2, 3], [3.0, 2.0, 1.0])})
        assert "one" in out and "two" in out
        assert "o" in out and "x" in out

    def test_ascii_chart_empty(self):
        assert ascii_chart({}) == "(no data)"

    def test_render_result_set(self):
        rs = run_campaign(CampaignSpec(experiment=small_cpu_exp()))
        out = render_result_set(rs)
        assert "C/OpenMP" in out and "Julia" in out
        assert "256" in out and "512" in out

    def test_render_marks_unsupported(self):
        exp = Experiment(
            exp_id="t", title="t", node_name="Crusher", device=DeviceKind.GPU,
            precision=Precision.FP64, models=("hip", "numba"), sizes=(512,))
        out = render_result_set(run_campaign(CampaignSpec(experiment=exp)), chart=False)
        assert "n/a" in out
        assert "deprecated" in out
