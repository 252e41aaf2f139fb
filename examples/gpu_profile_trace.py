#!/usr/bin/env python3
"""nvprof-style corroboration of simulated GPU activity.

The paper verified that Kokkos and Numba really were executing on the GPU
with nvprof before trusting their (poor) numbers.  This example does the
analogous thing against the simulator: run Fig. 7's double-precision panel
with the tracer attached, then print the profiler summary and timeline —
JIT compilation, host-to-device transfers, every kernel repetition, and
the copy back.

Run:  python examples/gpu_profile_trace.py
"""

from repro import CampaignSpec, Precision
from repro.core.types import DeviceKind
from repro.harness import Experiment, run_campaign
from repro.harness.report import render_result_set
from repro.trace.profiler import Profiler
from repro.trace.timeline import render_timeline, summary_table


def main() -> None:
    experiment = Experiment(
        exp_id="fig7a-traced",
        title="A100 double precision with tracing",
        node_name="Wombat",
        device=DeviceKind.GPU,
        precision=Precision.FP64,
        models=("cuda", "julia", "numba"),
        sizes=(4096,),
        reps=5,
    )

    profiler = Profiler()
    results = run_campaign(CampaignSpec(experiment=experiment),
                           profiler=profiler)

    print(render_result_set(results, chart=False))

    print("\n=== profiler summary (nvprof analogue) ===\n")
    print(summary_table(profiler.events))

    print("\n=== timeline ===\n")
    print(render_timeline(profiler.events, width=64))

    kernels = [e for e in profiler.events if e.kind.value == "kernel"]
    print(f"\ncorroboration: {len(kernels)} kernel executions recorded "
          f"({experiment.reps} reps + {experiment.warmup} warm-up, "
          f"x {len([m for m in results.measurements if m.supported])} models)")
    jits = [e for e in profiler.events if e.kind.value == "jit-compile"]
    print(f"JIT compilations (excluded by the warm-up methodology): "
          f"{[e.name for e in jits]}")


if __name__ == "__main__":
    main()
