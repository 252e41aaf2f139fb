"""The experiment runner: lowers, simulates, samples, traces.

Methodology transcribed from Sec. IV: each kernel runs ``reps`` times
(at least 5-10); the first, warm-up repetition — which carries JIT
compilation for Julia/Numba, device allocation and H2D transfers — is
excluded from the reported statistics but *is* recorded in the trace, so
the nvprof-style summary shows everything that actually happened.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.types import DeviceKind, MatrixShape
from ..errors import ConfigError
from ..gpu.transfer import gemm_transfer_estimate
from ..gpu.warp_sim import simulate_gpu_kernel
from ..models.base import ProgrammingModel
from ..sim.executor import simulate_cpu_kernel
from ..sim.variability import VariabilityModel
from ..trace.events import EventKind
from ..trace.profiler import Profiler
from .experiment import Experiment
from .results import Measurement, ResultSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..service.spec import CampaignSpec
    from .engine import RunOptions, SweepEngine

__all__ = ["run_campaign", "run_measurement", "resolve_engine"]


def run_measurement(
    model: ProgrammingModel,
    experiment: Experiment,
    shape: MatrixShape,
    profiler: Optional[Profiler] = None,
) -> Measurement:
    """Simulate one (model, size) cell of an experiment."""
    spec = experiment.target_spec
    precision = experiment.precision
    support = model.supports(spec, precision)
    if not support.supported:
        return Measurement(
            model=model.name, display=model.display, shape=shape,
            precision=precision, supported=False, note=support.reason,
        )

    prof = profiler if profiler is not None else Profiler()
    noise = VariabilityModel.for_node(experiment.node_name,
                                      seed=experiment.seed)
    key = f"{experiment.exp_id}:{model.name}:{shape}:{precision.value}"
    productivity = model.productivity(experiment.device)
    warmup_extra = productivity.jit_warmup_seconds

    if experiment.device is DeviceKind.CPU:
        lowering = model.lower_cpu(spec, precision)
        timing = simulate_cpu_kernel(
            lowering.kernel, spec, shape,
            threads=experiment.effective_threads,
            pin=lowering.pin, profile=lowering.profile,
        )
        nominal = timing.total_seconds
        bound = timing.bound
        if warmup_extra:
            prof.record(EventKind.JIT_COMPILE, f"{model.name}-jit",
                        warmup_extra)
        times = noise.samples(nominal, key, experiment.reps + experiment.warmup,
                              warmup_extra_seconds=warmup_extra)
        for rep, t in enumerate(times):
            prof.record(EventKind.PARALLEL_REGION,
                        f"{lowering.kernel.name}", t,
                        rep=rep, threads=experiment.effective_threads,
                        size=shape.m)
    else:
        lowering = model.lower_gpu(spec, precision)
        timing = simulate_gpu_kernel(lowering.kernel, lowering.launch, spec,
                                     shape, lowering.profile)
        nominal = timing.total_seconds
        bound = timing.bound
        transfers = gemm_transfer_estimate(spec, shape, precision)
        if experiment.include_transfers:
            # end-to-end mode: every repetition moves A, B in and C out
            nominal += transfers.total_seconds
            if transfers.total_seconds > timing.total_seconds:
                bound = "transfer"
        if warmup_extra:
            prof.record(EventKind.JIT_COMPILE, f"{model.name}-jit",
                        warmup_extra)
        prof.record(EventKind.MEMCPY_H2D, "A,B -> device",
                    transfers.h2d_seconds, bytes=transfers.h2d_bytes)
        # Warm-up composition (see EXPERIMENTS.md, "Warm-up accounting"):
        # in the paper's kernel-only mode the warm-up repetition carries the
        # one-time H2D copy on top of JIT; in end-to-end mode every
        # repetition (warm-up included) already pays the full transfer via
        # ``nominal``, so adding H2D again would double-count it.
        warmup_total = warmup_extra
        if not experiment.include_transfers:
            warmup_total += transfers.h2d_seconds
        times = noise.samples(nominal, key, experiment.reps + experiment.warmup,
                              warmup_extra_seconds=warmup_total)
        for rep, t in enumerate(times):
            prof.record(EventKind.KERNEL, lowering.kernel.name, t,
                        rep=rep, grid=lowering.launch.grid(shape),
                        block=(lowering.launch.block_x, lowering.launch.block_y),
                        size=shape.m)
        prof.record(EventKind.MEMCPY_D2H, "C -> host",
                    transfers.d2h_seconds, bytes=transfers.d2h_bytes)

    return Measurement(
        model=model.name,
        display=model.display,
        shape=shape,
        precision=precision,
        times_s=tuple(times),
        warmup_count=experiment.warmup,
        supported=True,
        note=support.reason,
        bound=bound,
    )


def resolve_engine(engine: Optional[object], opts: "RunOptions",
                   mode: Optional[str] = None) -> "SweepEngine":
    """The executor a campaign resolves to.

    * a ready-made :class:`~repro.harness.engine.SweepEngine` passes
      through untouched;
    * the mode strings ``"serial"`` / ``"process"`` force that executor;
    * ``None`` with ``mode`` set (a :class:`CampaignSpec`'s ``engine``
      field) behaves like the matching string;
    * ``None`` with every engine knob unset (``mode``, ``opts.cache``,
      ``opts.jobs`` all ``None``) returns the process-wide default
      engine, keeping the zero-configuration path shared and warm;
    * otherwise a fresh engine takes each knob from ``mode``/``opts`` if
      set, else from the process-wide engine.
    """
    from .engine import ENGINE_MODES, ResultCache, SweepEngine, default_engine
    if isinstance(engine, SweepEngine):
        return engine
    if engine is None:
        engine = mode
    if engine is not None and engine not in ENGINE_MODES:
        raise ConfigError(
            f"engine must be None, {', '.join(map(repr, ENGINE_MODES))} or "
            f"a SweepEngine, got {engine!r}")
    base = default_engine()
    if engine is None and opts.cache is None and opts.jobs is None:
        return base
    cache = base.cache is not None if opts.cache is None else opts.cache
    return SweepEngine(
        cache=ResultCache() if cache else None,
        max_workers=base.max_workers if opts.jobs is None else opts.jobs,
        mode=engine or base.mode)


def run_campaign(spec: "CampaignSpec",
                 profiler: Optional[Profiler] = None,
                 engine: Optional[object] = None,
                 *, options: Optional["RunOptions"] = None) -> ResultSet:
    """The one entrypoint: run every cell a :class:`CampaignSpec` asks for.

    Delegates to :mod:`repro.harness.engine`: cells run on the selected
    executor and hit the persistent result cache, with a
    deterministic merge that makes the output bit-identical to a serial
    reference loop.

    * ``spec`` is the frozen request object every surface (CLI, env,
      daemon wire API) resolves into — see
      :func:`repro.config.resolve_campaign_spec` for the precedence pass.
    * ``options`` is the *base* :class:`~repro.harness.engine.RunOptions`
      the spec's non-``None`` resilience fields overlay; ``None`` means
      the process-wide default, itself resolved from the ``REPRO_FAULTS``
      family of run settings.  Callers that carry run state the
      spec cannot express (a journal, a replay map — the resume path)
      pass it here.
    * ``engine`` overrides the spec's executor selection (instance or
      mode string); ``None`` resolves it from ``spec.engine`` /
      ``opts.cache`` / ``opts.jobs`` via :func:`resolve_engine`.
    * ``profiler`` is a convenience shorthand for
      ``options.with_profiler(profiler)``.
    """
    opts = spec.run_options(base=options).with_profiler(profiler)
    eng = resolve_engine(engine, opts, mode=spec.engine)
    return eng.run(spec.experiment, options=opts)
