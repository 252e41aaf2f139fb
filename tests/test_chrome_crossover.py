"""Tests for Chrome trace export and the CPU/GPU crossover study."""

import json

import pytest

from repro.core.types import DeviceKind, Precision
from repro.errors import ExperimentError
from repro.harness import Experiment, device_crossover, run_campaign
from repro.machine import CRUSHER, WOMBAT
from repro.service import CampaignSpec
from repro.trace import EventKind, Profiler, chrome_trace_json, to_chrome_trace


class TestChromeTrace:
    def _events(self):
        p = Profiler()
        p.record(EventKind.MEMCPY_H2D, "A,B -> device", 0.001, bytes=1024)
        p.record(EventKind.KERNEL, "gemm", 0.002, grid=(4, 4))
        p.record(EventKind.MEMCPY_D2H, "C -> host", 0.0005)
        return p.events

    def test_event_structure(self):
        events = to_chrome_trace(self._events())
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        kernel = [e for e in complete if e["cat"] == "kernel"][0]
        assert kernel["ts"] == pytest.approx(1000.0)   # µs
        assert kernel["dur"] == pytest.approx(2000.0)
        assert kernel["args"]["grid"] == [4, 4]

    def test_metadata_rows(self):
        events = to_chrome_trace(self._events())
        names = [e["args"]["name"] for e in events if e["ph"] == "M"]
        assert "repro-sim" in names
        assert "Compute (kernels)" in names

    def test_json_loads_and_has_display_unit(self):
        doc = json.loads(chrome_trace_json(self._events()))
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) >= 4

    def test_distinct_rows_per_kind(self):
        events = to_chrome_trace(self._events())
        tids = {e["cat"]: e["tid"] for e in events if e["ph"] == "X"}
        assert len(set(tids.values())) == 3

    def test_end_to_end_from_runner(self):
        exp = Experiment(
            exp_id="chrome", title="t", node_name="Wombat",
            device=DeviceKind.GPU, precision=Precision.FP64,
            models=("cuda",), sizes=(512,), reps=3)
        prof = Profiler()
        run_campaign(CampaignSpec(experiment=exp), profiler=prof)
        doc = json.loads(chrome_trace_json(prof.events))
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"kernel", "memcpy-h2d", "memcpy-d2h"} <= cats


class TestCrossover:
    def test_structure(self):
        study = device_crossover(WOMBAT, "julia", sizes=(256, 1024))
        assert [p.size for p in study.points] == [256, 1024]
        for p in study.points:
            assert p.gpu_e2e_seconds > p.gpu_kernel_seconds

    def test_fp64_naive_cpu_competitive(self):
        """Within the model, a naive FP64 GEMM does not hand the GPU an
        automatic win over 64 pinned vectorised cores — the paper's point
        that naive kernels are a performance lower bound for GPUs."""
        study = device_crossover(CRUSHER, "julia", Precision.FP64,
                                 sizes=(512, 2048, 4096))
        assert study.crossover_size(end_to_end=True) is None

    def test_fp16_gpu_wins_on_crusher(self):
        """Julia FP16: software-emulated on the Zen3 CPU, native on the
        MI250X — the GPU wins decisively."""
        study = device_crossover(CRUSHER, "julia", Precision.FP16,
                                 sizes=(512, 2048, 4096))
        cross = study.crossover_size(end_to_end=True)
        assert cross is not None and cross <= 2048

    def test_fp16_cpu_wins_on_wombat(self):
        """...but on Wombat the Altra's native FP16 SIMD keeps the CPU in
        front of the A100 for this naive kernel."""
        study = device_crossover(WOMBAT, "julia", Precision.FP16,
                                 sizes=(2048, 4096))
        assert study.crossover_size(end_to_end=True) is None

    def test_transfers_push_crossover_out(self):
        study = device_crossover(CRUSHER, "julia", Precision.FP16,
                                 sizes=(256, 512, 1024, 2048, 4096))
        k = study.crossover_size(end_to_end=False)
        e = study.crossover_size(end_to_end=True)
        assert k is not None and e is not None
        assert e >= k

    def test_unsupported_model_raises(self):
        with pytest.raises(ExperimentError):
            device_crossover(CRUSHER, "numba")  # no AMD GPU backend

    def test_render(self):
        out = device_crossover(WOMBAT, "julia", sizes=(256,)).render()
        assert "winner(e2e)" in out and "crossover" in out
