"""Reproduction entry points: one function per table/figure of the paper.

Each ``figN()`` returns a :class:`FigureResult` whose panels are
:class:`~repro.harness.results.ResultSet` objects; ``table3()`` computes
the performance-portability table from the same simulations the figures
use.  ``PAPER_TABLE3`` holds the published numbers for comparison in
EXPERIMENTS.md and the regression tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.efficiency import efficiency_table_for
from ..core.metrics import phi_paper
from ..core.types import DeviceKind, Precision
from .experiment import Experiment, QUICK_SIZES
from .report import ascii_table, render_result_set
from .results import ResultSet
from .runner import run_campaign

__all__ = [
    "FigureResult",
    "Table3Row",
    "Table3Result",
    "PAPER_TABLE3",
    "CPU_MODELS",
    "crusher_cpu_experiment",
    "wombat_cpu_experiment",
    "crusher_gpu_experiment",
    "wombat_gpu_experiment",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table1",
    "table2",
    "table3",
]

#: Models of the CPU figures (Figs. 4-5), reference first.
CPU_MODELS: Tuple[str, ...] = ("c-openmp", "kokkos", "julia", "numba")

#: Table III as published, keyed by precision -> model -> platform -> e.
#: ``None`` is the paper's '-' (Numba on AMD GPUs).
PAPER_TABLE3: Dict[Precision, Dict[str, Dict[str, Optional[float]]]] = {
    Precision.FP64: {
        "kokkos": {"Epyc 7A53": 0.994, "Ampere Altra": 0.854,
                   "MI250x": 0.842, "A100": 0.260},
        "julia": {"Epyc 7A53": 0.912, "Ampere Altra": 0.907,
                  "MI250x": 0.903, "A100": 0.867},
        "numba": {"Epyc 7A53": 0.550, "Ampere Altra": 0.713,
                  "MI250x": None, "A100": 0.130},
    },
    Precision.FP32: {
        "kokkos": {"Epyc 7A53": 1.014, "Ampere Altra": 0.836,
                   "MI250x": 0.677, "A100": 0.208},
        "julia": {"Epyc 7A53": 0.976, "Ampere Altra": 0.900,
                  "MI250x": 1.050, "A100": 0.600},
        "numba": {"Epyc 7A53": 0.655, "Ampere Altra": 0.400,
                  "MI250x": None, "A100": 0.095},
    },
}

#: Published Phi_M values (Table III bottom rows).
PAPER_PHI: Dict[Precision, Dict[str, float]] = {
    Precision.FP64: {"kokkos": 0.738, "julia": 0.897, "numba": 0.348},
    Precision.FP32: {"kokkos": 0.684, "julia": 0.882, "numba": 0.288},
}

_PLATFORM_ORDER = ("Epyc 7A53", "Ampere Altra", "MI250x", "A100")


def _sweep(experiment: Experiment) -> ResultSet:
    """One figure panel through the unified campaign API."""
    from ..service.spec import CampaignSpec
    return run_campaign(CampaignSpec(experiment=experiment))


# --------------------------------------------------------------------------
# experiment builders
# --------------------------------------------------------------------------

def crusher_cpu_experiment(precision: Precision,
                           sizes: Sequence[int] = QUICK_SIZES) -> Experiment:
    """Fig. 4 setup: 64 threads across 4 NUMA regions."""
    return Experiment(
        exp_id=f"crusher-cpu-{precision.value}",
        title="Crusher multithreaded CPU performance (64 threads, 4 NUMA)",
        node_name="Crusher", device=DeviceKind.CPU, precision=precision,
        models=CPU_MODELS, sizes=tuple(sizes), threads=64,
    )


def wombat_cpu_experiment(precision: Precision,
                          sizes: Sequence[int] = QUICK_SIZES,
                          models: Tuple[str, ...] = CPU_MODELS) -> Experiment:
    """Fig. 5 setup: 80 threads, single NUMA."""
    return Experiment(
        exp_id=f"wombat-cpu-{precision.value}",
        title="Wombat multithreaded CPU performance (80 threads)",
        node_name="Wombat", device=DeviceKind.CPU, precision=precision,
        models=models, sizes=tuple(sizes), threads=80,
    )


def crusher_gpu_experiment(precision: Precision,
                           sizes: Sequence[int] = QUICK_SIZES,
                           models: Tuple[str, ...] = ("hip", "kokkos", "julia"),
                           ) -> Experiment:
    """Fig. 6 setup: MI250X, 32x32 thread blocks."""
    return Experiment(
        exp_id=f"crusher-gpu-{precision.value}",
        title="Simple GEMM on Crusher AMD MI250X (32x32 blocks)",
        node_name="Crusher", device=DeviceKind.GPU, precision=precision,
        models=models, sizes=tuple(sizes),
    )


def wombat_gpu_experiment(precision: Precision,
                          sizes: Sequence[int] = QUICK_SIZES,
                          models: Tuple[str, ...] = ("cuda", "kokkos", "julia",
                                                     "numba"),
                          ) -> Experiment:
    """Fig. 7 setup: A100, 32x32 thread blocks."""
    return Experiment(
        exp_id=f"wombat-gpu-{precision.value}",
        title="Simple GEMM on Wombat NVIDIA A100 (32x32 blocks)",
        node_name="Wombat", device=DeviceKind.GPU, precision=precision,
        models=models, sizes=tuple(sizes),
    )


# --------------------------------------------------------------------------
# figures
# --------------------------------------------------------------------------

@dataclass
class FigureResult:
    """All panels of one paper figure."""

    figure_id: str
    caption: str
    panels: Dict[str, ResultSet] = field(default_factory=dict)

    def render(self, charts: bool = True, efficiencies: bool = False) -> str:
        """Render all panels; ``efficiencies=True`` appends each panel's
        per-size ratio table against its architecture reference — the
        quantities behind the paper's 'constant overhead' prose."""
        from ..models.registry import reference_model_for
        from .report import efficiency_table

        parts = [f"=== {self.figure_id}: {self.caption} ==="]
        for label, rs in self.panels.items():
            parts.append(f"--- panel ({label}) ---")
            parts.append(render_result_set(rs, chart=charts))
            if efficiencies:
                ref = reference_model_for(rs.experiment.target_spec)
                if ref.name in rs.models():
                    parts.append(efficiency_table(rs, ref.name))
        return "\n\n".join(parts)


def fig4(sizes: Sequence[int] = QUICK_SIZES) -> FigureResult:
    """Fig. 4: Crusher CPU, double (a) and single (b) precision."""
    return FigureResult(
        figure_id="Fig. 4",
        caption="Crusher multithreaded CPU performance using 64 threads "
                "across 4 NUMA regions",
        panels={
            "a: double": _sweep(crusher_cpu_experiment(Precision.FP64, sizes)),
            "b: single": _sweep(crusher_cpu_experiment(Precision.FP32, sizes)),
        },
    )


def fig5(sizes: Sequence[int] = QUICK_SIZES) -> FigureResult:
    """Fig. 5: Wombat CPU; panel (c) is the Julia-only FP16 run."""
    return FigureResult(
        figure_id="Fig. 5",
        caption="Wombat multithreaded CPU performance using 80 threads",
        panels={
            "a: double": _sweep(wombat_cpu_experiment(Precision.FP64, sizes)),
            "b: single": _sweep(wombat_cpu_experiment(Precision.FP32, sizes)),
            "c: half (Julia)": _sweep(
                wombat_cpu_experiment(Precision.FP16, sizes, models=("julia",))),
        },
    )


def fig6(sizes: Sequence[int] = QUICK_SIZES) -> FigureResult:
    """Fig. 6: Crusher MI250X; (c) is Julia AMDGPU.jl at half precision."""
    return FigureResult(
        figure_id="Fig. 6",
        caption="Simple GEMM performance on Crusher AMD MI250X GPU using "
                "32x32 thread block sizes",
        panels={
            "a: double": _sweep(crusher_gpu_experiment(Precision.FP64, sizes)),
            "b: single": _sweep(crusher_gpu_experiment(Precision.FP32, sizes)),
            "c: half (Julia)": _sweep(
                crusher_gpu_experiment(Precision.FP16, sizes, models=("julia",))),
        },
    )


def fig7(sizes: Sequence[int] = QUICK_SIZES) -> FigureResult:
    """Fig. 7: Wombat A100; (c) compares Julia and Numba at half precision."""
    return FigureResult(
        figure_id="Fig. 7",
        caption="Simple GEMM performance on Wombat NVIDIA A100 using "
                "32x32 thread block sizes",
        panels={
            "a: double": _sweep(wombat_gpu_experiment(Precision.FP64, sizes)),
            "b: single": _sweep(wombat_gpu_experiment(Precision.FP32, sizes)),
            "c: half (Julia, Numba)": _sweep(
                wombat_gpu_experiment(Precision.FP16, sizes,
                                      models=("julia", "numba"))),
        },
    )


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------

def table1() -> str:
    """Table I: CPU experiment specs (static configuration data)."""
    rows = [
        ["Model", "Ampere Altra 80-core, 1-NUMA", "AMD Epyc 7A53 64-core, 4-NUMA"],
        ["C OpenMP compiler", "ArmClang22", "AMDClang14"],
        ["C OpenMP flags", "-O3 -fopenmp", "-O3 -fopenmp -march=native"],
        ["Kokkos", "v3.6.01 (OpenMP backend)", "v3.6.01 (OpenMP backend)"],
        ["KOKKOS_ARCH", "Armv8-TX2", "Zen 3"],
        ["Julia", "v1.7.2", "v1.8.0-rc1"],
        ["Julia ENV", "JULIA_EXCLUSIVE=1", "JULIA_EXCLUSIVE=1"],
        ["Python / Numba", "v3.9.9 / v0.55.1", "v3.9.9 / v0.55.1"],
        ["Numba ENV", "NUMBA_OPT=3 (default)", "NUMBA_OPT=3 (default)"],
    ]
    return ascii_table(["Programming/System", "Wombat (Arm)", "Crusher (AMD)"], rows)


def table2() -> str:
    """Table II: GPU experiment specs (static configuration data)."""
    rows = [
        ["Model", "A100 Ampere", "MI250X"],
        ["C compiler", "nvcc v11.5.1", "hipcc v14.0.0"],
        ["C flags", "-arch=sm_80", "-amdgpu-target=gfx908"],
        ["Kokkos", "v3.6.01 (Cuda backend)", "v3.6.01 (Hip backend)"],
        ["KOKKOS_ARCH", "Ampere80", "Vega908"],
        ["Julia", "v1.7.2 + CUDA.jl", "v1.8.0-rc1 + AMDGPU.jl"],
        ["Python / Numba", "v3.9.9 / v0.55.1", "Not supported"],
    ]
    return ascii_table(["Programming/System", "Wombat (NVIDIA)", "Crusher (AMD)"], rows)


@dataclass(frozen=True)
class Table3Row:
    """One model's row group: efficiencies per platform plus Phi."""

    model: str
    precision: Precision
    efficiencies: Dict[str, Optional[float]]
    phi: float


@dataclass
class Table3Result:
    rows: List[Table3Row] = field(default_factory=list)
    #: ``"model @shape (platform, precision)"`` labels of permanently
    #: failed cells, when the table was computed from a degraded campaign.
    degraded_cells: List[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_cells)

    @property
    def substituted(self) -> bool:
        # Always False: no other lane stands in for a failed cell any
        # more.  Kept because callers outside the package still read it.
        return False

    def row(self, model: str, precision: Precision) -> Table3Row:
        for r in self.rows:
            if r.model == model and r.precision == precision:
                return r
        raise KeyError(f"no Table III row for ({model}, {precision})")

    def render(self) -> str:
        headers = ["Architecture", "Kokkos", "Julia", "Python/Numba"]
        body: List[List[object]] = []
        for precision in (Precision.FP64, Precision.FP32):
            body.append([f"{precision.label.capitalize()} precision", "", "", ""])
            for platform in _PLATFORM_ORDER:
                row: List[object] = [f"e_{platform}"]
                for model in ("kokkos", "julia", "numba"):
                    e = self.row(model, precision).efficiencies.get(platform)
                    row.append(f"{e:.3f}" if e is not None else "-")
                body.append(row)
            row = ["Phi_M"]
            for model in ("kokkos", "julia", "numba"):
                row.append(f"{self.row(model, precision).phi:.3f}")
            body.append(row)
        text = ascii_table(headers, body)
        if self.degraded:
            lines = [text, "",
                     f"DEGRADED: {len(self.degraded_cells)} cells failed and "
                     "contribute e=0 to their panel means:"]
            lines += [f"  {label}" for label in self.degraded_cells]
            text = "\n".join(lines)
        return text


def table3(sizes: Sequence[int] = QUICK_SIZES) -> Table3Result:
    """Table III: per-platform efficiencies and Phi_M for both precisions."""
    result = Table3Result()
    portable = ["kokkos", "julia", "numba"]
    for precision in (Precision.FP64, Precision.FP32):
        panels = {
            "Epyc 7A53": _sweep(crusher_cpu_experiment(precision, sizes)),
            "Ampere Altra": _sweep(wombat_cpu_experiment(precision, sizes)),
            "MI250x": _sweep(crusher_gpu_experiment(
                precision, sizes, models=("hip", "kokkos", "julia", "numba"))),
            "A100": _sweep(wombat_gpu_experiment(precision, sizes)),
        }
        per_model: Dict[str, Dict[str, Optional[float]]] = {m: {} for m in portable}
        for platform, rs in panels.items():
            for cell in efficiency_table_for(rs, portable, platform):
                per_model[cell.model][platform] = cell.value
            result.degraded_cells += [
                f"{m.model} @{m.shape} ({platform}, {precision.value})"
                for m in rs.failed_cells()
            ]
        for model in portable:
            effs = [per_model[model].get(p) for p in _PLATFORM_ORDER]
            result.rows.append(Table3Row(
                model=model,
                precision=precision,
                efficiencies=per_model[model],
                phi=phi_paper(effs),
            ))
    return result
