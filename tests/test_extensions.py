"""Tests for the extension subsystems added beyond the paper's core grid:
PyOMP, KernelAbstractions.jl, scaling studies, roofline view, export,
pretty-printing, and end-to-end transfer accounting."""

import json

import pytest

from repro.core.types import DeviceKind, MatrixShape, Precision
from repro.errors import ExperimentError
from repro.harness import (
    Experiment,
    default_thread_counts,
    result_set_to_csv,
    result_set_to_dict,
    result_set_to_json,
    roofline_view,
    run_campaign,
    table3_to_dict,
    thread_scaling,
)
from repro.ir.pretty import render_kernel
from repro.machine import A100, AMPERE_ALTRA, EPYC_7A53, MI250X
from repro.models import (
    extension_models,
    model_by_name,
    all_models,
)
from repro.sched.affinity import PinPolicy
from repro.service import CampaignSpec


class TestExtensionRegistry:
    def test_extensions_listed(self):
        names = {m.name for m in extension_models()}
        assert names == {"pyomp", "kernelabstractions"}

    def test_extensions_resolvable_by_name(self):
        assert model_by_name("pyomp").display == "Python/PyOMP"
        assert model_by_name("kernelabstractions").language == "Julia"

    def test_core_grid_unchanged(self):
        """The paper's figures must not silently grow extension models."""
        assert {m.name for m in all_models()} == {
            "c-openmp", "cuda", "hip", "kokkos", "julia", "numba"}
        assert len(all_models(include_extensions=True)) == 8


class TestPyOMP:
    def test_pins_threads_unlike_numba(self):
        pyomp = model_by_name("pyomp").lower_cpu(EPYC_7A53, Precision.FP64)
        numba = model_by_name("numba").lower_cpu(EPYC_7A53, Precision.FP64)
        assert pyomp.pin is PinPolicy.COMPACT
        assert numba.pin is PinPolicy.NONE

    def test_same_codegen_residual_as_numba(self):
        pyomp = model_by_name("pyomp").lower_cpu(EPYC_7A53, Precision.FP64)
        numba = model_by_name("numba").lower_cpu(EPYC_7A53, Precision.FP64)
        assert pyomp.profile.issue_multiplier == numba.profile.issue_multiplier
        assert pyomp.kernel.loop_order == numba.kernel.loop_order

    def test_no_gpu(self):
        s = model_by_name("pyomp").supports(A100, Precision.FP64)
        assert not s.supported

    def test_closes_numa_share_of_numba_gap(self):
        """On the 4-NUMA EPYC, PyOMP (pinned) beats Numba (unpinned) by
        about the migration tax; on the 1-NUMA Altra they tie."""
        exp = Experiment(
            exp_id="pyomp-vs-numba", title="t", node_name="Crusher",
            device=DeviceKind.CPU, precision=Precision.FP64,
            models=("numba", "pyomp"), sizes=(2048,), threads=64, reps=5)
        rs = run_campaign(CampaignSpec(experiment=exp))
        ratio = rs.cell("pyomp", 2048).gflops / rs.cell("numba", 2048).gflops
        assert ratio == pytest.approx(1.30, abs=0.06)


class TestKernelAbstractions:
    def test_gpu_both_vendors(self):
        ka = model_by_name("kernelabstractions")
        assert ka.supports(A100, Precision.FP64).supported
        assert ka.supports(MI250X, Precision.FP32).supported
        assert not ka.supports(EPYC_7A53, Precision.FP64).supported

    def test_small_overhead_over_native_julia(self):
        from repro.gpu.warp_sim import simulate_gpu_kernel
        sh = MatrixShape.square(8192)
        for gpu in (A100, MI250X):
            ka = model_by_name("kernelabstractions").lower_gpu(gpu, Precision.FP64)
            native = model_by_name("julia").lower_gpu(gpu, Precision.FP64)
            t_ka = simulate_gpu_kernel(ka.kernel, ka.launch, gpu, sh, ka.profile)
            t_nat = simulate_gpu_kernel(native.kernel, native.launch, gpu, sh,
                                        native.profile)
            penalty = t_ka.total_seconds / t_nat.total_seconds
            assert 1.0 <= penalty < 1.12, gpu.name

    def test_same_launch_convention_as_julia(self):
        ka = model_by_name("kernelabstractions").lower_gpu(A100, Precision.FP64)
        assert ka.launch.x_axis == "i"
        assert ka.kernel.inner.unroll == 2  # same GPUCompiler pipeline


class TestThreadScaling:
    def test_default_counts(self):
        assert default_thread_counts(64) == (1, 2, 4, 8, 16, 32, 64)
        assert default_thread_counts(80) == (1, 2, 4, 8, 16, 32, 64, 80)

    def test_pinned_model_scales_nearly_ideally(self):
        r = thread_scaling("c-openmp", EPYC_7A53, MatrixShape.square(2048),
                           thread_counts=(1, 16, 64))
        assert r.point(64).parallel_efficiency > 0.95

    def test_unpinned_numba_scales_worse_on_numa(self):
        numba = thread_scaling("numba", EPYC_7A53, MatrixShape.square(2048),
                               thread_counts=(1, 64))
        ref = thread_scaling("c-openmp", EPYC_7A53, MatrixShape.square(2048),
                             thread_counts=(1, 64))
        assert numba.point(64).parallel_efficiency < \
            ref.point(64).parallel_efficiency - 0.1

    def test_numba_scales_fine_on_single_numa(self):
        r = thread_scaling("numba", AMPERE_ALTRA, MatrixShape.square(2048),
                           thread_counts=(1, 80))
        assert r.point(80).parallel_efficiency > 0.9

    def test_speedup_monotone(self):
        r = thread_scaling("julia", EPYC_7A53, MatrixShape.square(2048))
        speedups = [p.speedup for p in r.points]
        assert speedups == sorted(speedups)

    def test_unsupported_model_raises(self):
        with pytest.raises(ExperimentError):
            thread_scaling("cuda", EPYC_7A53, MatrixShape.square(512))

    def test_bad_thread_counts(self):
        with pytest.raises(ExperimentError):
            thread_scaling("julia", EPYC_7A53, MatrixShape.square(512),
                           thread_counts=(0,))

    def test_render(self):
        r = thread_scaling("julia", EPYC_7A53, MatrixShape.square(1024),
                           thread_counts=(1, 64))
        out = r.render()
        assert "speedup" in out and "Julia" in out


class TestWeakScaling:
    def test_flat_for_pinned_model(self):
        from repro.harness import weak_scaling
        r = weak_scaling("c-openmp", EPYC_7A53, MatrixShape.square(1024),
                         thread_counts=(1, 8, 64))
        # constant work per thread: runtime stays flat (efficiency ~ 1)
        assert r.points[-1].parallel_efficiency == pytest.approx(1.0,
                                                                 abs=0.1)

    def test_aggregate_gflops_scale_with_threads(self):
        from repro.harness import weak_scaling
        r = weak_scaling("julia", EPYC_7A53, MatrixShape.square(1024),
                         thread_counts=(1, 64))
        assert r.points[-1].speedup == pytest.approx(64, rel=0.15)

    def test_problem_grows_cuberoot(self):
        from repro.harness import weak_scaling
        r = weak_scaling("c-openmp", EPYC_7A53, MatrixShape.square(1000),
                         thread_counts=(1, 8))
        # n(8) = 1000 * 8^(1/3) = 2000: flops ratio 8 at equal gflops
        assert r.points[1].seconds == pytest.approx(r.points[0].seconds,
                                                    rel=0.1)

    def test_unsupported_raises(self):
        from repro.harness import weak_scaling
        with pytest.raises(ExperimentError):
            weak_scaling("hip", EPYC_7A53, MatrixShape.square(512))


class TestRooflineView:
    def test_cpu_view(self):
        v = roofline_view(EPYC_7A53, MatrixShape.square(4096),
                          models=("c-openmp", "numba"))
        assert len(v.points) == 2
        assert v.ridge_intensity == pytest.approx(
            EPYC_7A53.peak_gflops(Precision.FP64)
            / EPYC_7A53.total_bandwidth_gbs)
        for p in v.points:
            assert 0 < p.ceiling_fraction <= 1.0

    def test_gpu_view_skips_unsupported(self):
        v = roofline_view(MI250X, MatrixShape.square(4096),
                          models=("hip", "numba"))
        assert [p.label for p in v.points] == ["HIP"]

    def test_gpu_naive_kernel_compute_regime(self):
        """The naive GEMM sits right of the ridge but far below peak —
        the quantitative form of 'issue-bound, not DRAM-bound'."""
        v = roofline_view(A100, MatrixShape.square(8192), models=("cuda",))
        (p,) = v.points
        assert p.bound_kind == "compute"
        assert p.arithmetic_intensity > v.ridge_intensity
        assert p.ceiling_fraction < 0.2

    def test_render(self):
        v = roofline_view(A100, MatrixShape.square(4096), models=("cuda",))
        out = v.render()
        assert "ridge" in out and "CUDA" in out


class TestExport:
    def _rs(self):
        exp = Experiment(
            exp_id="exp-export", title="t", node_name="Wombat",
            device=DeviceKind.GPU, precision=Precision.FP32,
            models=("cuda", "numba"), sizes=(512, 1024), reps=5)
        return run_campaign(CampaignSpec(experiment=exp))

    def test_json_roundtrip(self):
        rs = self._rs()
        data = json.loads(result_set_to_json(rs))
        from repro.harness.export import SCHEMA_VERSION
        assert data["schema"] == SCHEMA_VERSION
        assert data["experiment"]["node"] == "Wombat"
        assert len(data["measurements"]) == 4
        m0 = data["measurements"][0]
        assert len(m0["times_s"]) == rs.experiment.reps + 1

    def test_dict_marks_unsupported(self):
        exp = Experiment(
            exp_id="x", title="t", node_name="Crusher",
            device=DeviceKind.GPU, precision=Precision.FP64,
            models=("numba",), sizes=(512,))
        data = result_set_to_dict(run_campaign(CampaignSpec(experiment=exp)))
        (m,) = data["measurements"]
        assert m["supported"] is False and m["gflops"] is None

    def test_csv_shape(self):
        out = result_set_to_csv(self._rs())
        lines = out.strip().splitlines()
        assert len(lines) == 5  # header + 4 cells
        assert lines[0].startswith("experiment,model,size")

    def test_table3_dict(self):
        from repro.harness import table3
        data = table3_to_dict(table3((1024, 4096)))
        assert len(data["rows"]) == 6  # 3 models x 2 precisions
        assert all("phi" in r for r in data["rows"])


class TestTransfersMode:
    def test_transfers_slow_small_sizes(self):
        base = Experiment(
            exp_id="no-tx", title="t", node_name="Wombat",
            device=DeviceKind.GPU, precision=Precision.FP64,
            models=("cuda",), sizes=(512,), reps=5)
        e2e = Experiment(
            exp_id="tx", title="t", node_name="Wombat",
            device=DeviceKind.GPU, precision=Precision.FP64,
            models=("cuda",), sizes=(512,), reps=5, include_transfers=True)
        t_base = run_campaign(CampaignSpec(experiment=base)).cell("cuda", 512).seconds
        t_e2e = run_campaign(CampaignSpec(experiment=e2e)).cell("cuda", 512).seconds
        assert t_e2e > 1.5 * t_base

    def test_transfer_bound_label_at_tiny_sizes(self):
        """At tiny sizes the fixed copy latency exceeds the kernel and the
        measurement is labelled transfer-bound."""
        exp = Experiment(
            exp_id="tx-tiny", title="t", node_name="Wombat",
            device=DeviceKind.GPU, precision=Precision.FP64,
            models=("cuda",), sizes=(128,), reps=3, include_transfers=True)
        assert run_campaign(CampaignSpec(experiment=exp)).cell("cuda", 128).bound == "transfer"

    def test_transfers_negligible_at_large_sizes(self):
        """O(n^2) transfers vs O(n^3) compute: the end-to-end mode matters
        less as the problem grows."""
        def overhead(n):
            base = Experiment(
                exp_id=f"b{n}", title="t", node_name="Wombat",
                device=DeviceKind.GPU, precision=Precision.FP64,
                models=("cuda",), sizes=(n,), reps=3)
            e2e = Experiment(
                exp_id=f"e{n}", title="t", node_name="Wombat",
                device=DeviceKind.GPU, precision=Precision.FP64,
                models=("cuda",), sizes=(n,), reps=3, include_transfers=True)
            tb = run_campaign(CampaignSpec(experiment=base)).cell("cuda", n).seconds
            te = run_campaign(CampaignSpec(experiment=e2e)).cell("cuda", n).seconds
            return te / tb
        assert overhead(8192) < overhead(512)


class TestPrettyPrinter:
    def test_cpu_kernel_shape(self):
        low = model_by_name("c-openmp").lower_cpu(EPYC_7A53, Precision.FP64)
        out = render_kernel(low.kernel)
        assert "parallel-threads" in out
        assert "hoisted temp" in out
        assert "vectorize x4" in out and "unroll x4" in out

    def test_gpu_kernel_shape(self):
        low = model_by_name("cuda").lower_gpu(A100, Precision.FP64)
        out = render_kernel(low.kernel)
        assert "# grid" in out
        assert "guard on C" in out
        assert "stored once, after the k loop" in out
        assert "acc = 0" in out

    def test_julia_vs_cuda_unroll_visible(self):
        """The Sec. IV-B PTX observation is visible in the listing."""
        cuda = render_kernel(model_by_name("cuda").lower_gpu(
            A100, Precision.FP64).kernel)
        julia = render_kernel(model_by_name("julia").lower_gpu(
            A100, Precision.FP64).kernel)
        assert "unroll x4" in cuda
        assert "unroll x2" in julia

    def test_fastmath_flag_shown(self):
        low = model_by_name("numba").lower_cpu(EPYC_7A53, Precision.FP64)
        assert "fastmath" in render_kernel(low.kernel)
