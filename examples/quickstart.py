#!/usr/bin/env python3
"""Quickstart: benchmark four programming models on one simulated node.

Runs the paper's hand-rolled GEMM across C/OpenMP, Kokkos, Julia and
Python/Numba on Crusher's AMD EPYC 7A53 (64 threads, 4 NUMA regions),
prints the GFLOP/s table and chart, and computes each portable model's
performance efficiency against the vendor reference — one panel of the
study, end to end.

Run:  python examples/quickstart.py
"""

from repro import CampaignSpec, Experiment, Precision, run_campaign
from repro.core.types import DeviceKind
from repro.harness.report import render_result_set
from repro.models import model_by_name, reference_model_for

def main() -> None:
    experiment = Experiment(
        exp_id="quickstart",
        title="Hand-rolled GEMM on Crusher's CPU",
        node_name="Crusher",
        device=DeviceKind.CPU,
        precision=Precision.FP64,
        models=("c-openmp", "kokkos", "julia", "numba"),
        sizes=(1024, 2048, 4096, 8192),
        threads=64,
        reps=10,
    )

    results = run_campaign(CampaignSpec(experiment=experiment))
    print(render_result_set(results))
    print()

    reference = reference_model_for(experiment.target_spec)
    print(f"Performance efficiency vs {reference.display} (Eq. 2):")
    for name in experiment.models:
        if name == reference.name:
            continue
        e = results.mean_efficiency(name, reference.name)
        display = model_by_name(name).display
        print(f"  e({display:13s}) = {e:.3f}")

    print()
    print("Things to try next:")
    print("  * precision=Precision.FP32 — watch every model ~double")
    print("  * node_name='Wombat', threads=80 — the Arm CPU (Fig. 5)")
    print("  * device=DeviceKind.GPU — the A100/MI250X panels (Figs. 6-7)")


if __name__ == "__main__":
    main()
