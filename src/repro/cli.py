"""Command-line interface: ``repro <command>`` / ``python -m repro``.

Commands mirror the deliverables:

* ``repro machines`` — print the machine catalog (Crusher, Wombat).
* ``repro models`` — the programming models and their support matrix.
* ``repro fig 4|5|6|7`` — regenerate a figure (tables + ASCII charts).
* ``repro table 1|2|3`` — regenerate a table.
* ``repro run`` — one custom experiment (node/device/precision/models/sizes).
* ``repro productivity`` — the Sec. V productivity comparison.
* ``repro lint`` — static-analysis sweep of every model lowering.
* ``repro audit`` — per-lane performance-portability audit: memory,
  occupancy and precision hazards plus a predicted efficiency band for
  every (model, target, precision) lane, without running the simulator.
* ``repro cache stats|clear`` — inspect/empty the sweep result cache.
* ``repro runs list|show`` — journaled campaigns (``repro run`` journals
  by default; ``repro run --resume <run-id>`` completes an interrupted
  one byte-identically).
* ``repro serve`` — the campaign daemon: concurrent submissions over a
  local Unix socket, fair-share scheduled across tenants, with
  cross-campaign dedup and crash recovery from the run journals.
* ``repro submit`` — send a campaign (run-style flags or a serialized
  CampaignSpec) to the daemon; ``--wait`` prints the same report
  ``repro run`` would have.
* ``repro status`` — the daemon's scheduler/tenant/dedup snapshot.
* ``repro fsck`` — verify the cache, run journals and export artifacts;
  quarantine/recover corruption (exit 3 if any was found).
* ``repro chaos`` — deterministic crash-fault drills (worker SIGKILL,
  daemon SIGKILL mid-grant, torn journal tail, disk-full store); each
  must recover to a byte-identical report, and MTTR/recovery counters
  land in ``BENCH_robustness.json`` (exit 1 on any mismatch).

Crash supervision: ``--watchdog 'timeout=30,respawns=2,redrives=1'``
(or ``REPRO_WATCHDOG``) bounds each process-pool cell's wall-clock time
and caps pool respawns/cell redrives after a worker is killed or hangs;
crash supervision (respawn on a vanished worker) is on by default,
hang detection arms with a timeout, ``--watchdog off`` disables both.

Degraded cells: a cell that keeps failing under ``--faults`` and
``--retries`` is reported as e = 0, as Table III counts a platform a
model cannot run on; no other model or device stands in for it.

Exit codes: 0 success, 1 aborted campaign (``--fail-fast``), journal
error, a ``chaos`` drill that did not recover byte-identically,
or ``lint``/``audit`` findings at gating severity, 2 usage
(including an unknown precision or model name, and a journal or
``REPRO_BREAKER``/``REPRO_FALLBACK`` setting that names the removed
lane breaker), 3 ``fsck`` found
corruption, 130 interrupted by SIGINT/SIGTERM (the journal is finalized
first; resume with ``repro run --resume <run-id>``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .config import resolve_campaign_spec, resolve_run_settings
from .core.types import DeviceKind, Precision
from .errors import (
    CellFailure,
    ConfigError,
    JournalError,
    RunInterrupted,
    ServiceError,
)
from .harness import (
    Experiment,
    PAPER_SIZES,
    QUICK_SIZES,
    fig4,
    fig5,
    fig6,
    fig7,
    resolve_engine,
    run_campaign,
    table1,
    table2,
    table3,
)
from .harness.report import ascii_table, render_result_set
from .machine import NODE_CATALOG
from .models import all_models
from .core.productivity import productivity_report

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Performance-portability study of Julia, Python/Numba "
                    "and Kokkos on simulated exascale nodes",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="print the machine catalog")
    sub.add_parser("models", help="print models and their support matrix")
    sub.add_parser("productivity", help="print the productivity comparison")

    fig = sub.add_parser("fig", help="regenerate a paper figure")
    fig.add_argument("number", type=int, choices=(4, 5, 6, 7))
    fig.add_argument("--full", action="store_true",
                     help="use the paper's full size sweep")
    fig.add_argument("--no-chart", action="store_true")
    fig.add_argument("--efficiencies", action="store_true",
                     help="append per-size efficiency tables per panel")

    tab = sub.add_parser("table", help="regenerate a paper table")
    tab.add_argument("number", type=int, choices=(1, 2, 3))
    tab.add_argument("--full", action="store_true")

    run = sub.add_parser("run", help="run a custom experiment")
    _add_experiment_flags(run)
    run.add_argument("--include-transfers", action="store_true",
                     help="charge H2D/D2H to every GPU repetition")
    run.add_argument("--format", choices=("text", "json", "csv"),
                     default="text")
    run.add_argument("--config", default=None,
                     help="JSON experiment definition (overrides other flags)")
    run.add_argument("--gnuplot-dir", default=None,
                     help="also write <exp_id>.dat/.gp into this directory")
    run.add_argument("--efficiency", default=None, metavar="REFERENCE",
                     help="append per-size efficiencies vs this model")
    run.add_argument("--no-cache", action="store_true",
                     help="bypass the sweep result cache for this run")
    run.add_argument("--serial", action="store_true",
                     help="run every cell inline (same as --engine serial)")
    run.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="process-pool width for --engine process "
                          "(default: cpu count)")
    run.add_argument("--engine", choices=("serial", "process"), default=None,
                     help="sweep executor: cells inline (default) or "
                          "a sharded process pool (REPRO_ENGINE)")
    run.add_argument("--engine-stats", action="store_true",
                     help="append per-cell timings and cache hit/miss stats")
    run.add_argument("--resume", default=None, metavar="RUN_ID",
                     help="complete an interrupted journaled run "
                          "byte-identically (other experiment flags are "
                          "ignored; the journal pins them)")
    run.add_argument("--no-journal", action="store_true",
                     help="skip the write-ahead run journal "
                          "(also: REPRO_JOURNAL=off)")
    run.add_argument("--export", default=None, metavar="FILE",
                     help="also write the result set as a digest-carrying "
                          "JSON artifact (verified by `repro fsck FILE`)")
    run.add_argument("--watchdog", default=None, metavar="SPEC",
                     help="supervise process-pool workers, e.g. '30' "
                          "(per-cell wall-clock deadline in seconds) or "
                          "'timeout=30,respawns=2,redrives=1'; 'off' "
                          "disables crash supervision (REPRO_WATCHDOG)")
    _add_resilience_flags(run)

    kern = sub.add_parser("kernel",
                          help="show what a model lowers the GEMM to")
    kern.add_argument("model", help="model name, e.g. julia, kokkos, cuda")
    kern.add_argument("--device", choices=("cpu", "gpu"), default="cpu")
    kern.add_argument("--target", default=None,
                      help="machine name (defaults per device)")
    kern.add_argument("--precision", default="fp64")
    kern.add_argument("--source", action="store_true",
                      help="also show the paper's real-language listing")

    scal = sub.add_parser("scaling", help="strong-scaling study on a CPU")
    scal.add_argument("--model", default="julia")
    scal.add_argument("--cpu", default="epyc-7a53")
    scal.add_argument("--size", type=int, default=4096)
    scal.add_argument("--precision", default="fp64")
    scal.add_argument("--threads", default=None,
                      help="comma-separated thread counts")

    xov = sub.add_parser("crossover",
                         help="CPU vs GPU placement for one model on a node")
    xov.add_argument("--node", choices=sorted(NODE_CATALOG), default="wombat")
    xov.add_argument("--model", default="julia")
    xov.add_argument("--precision", default="fp64")
    xov.add_argument("--sizes", default="256,512,1024,2048,4096")

    strm = sub.add_parser("stream",
                          help="BabelStream bandwidth table on one machine")
    strm.add_argument("--target", default="epyc-7a53")
    strm.add_argument("--n", type=int, default=1 << 25)
    strm.add_argument("--precision", default="fp64")
    strm.add_argument("--models", default=None)
    strm.add_argument("--host", action="store_true",
                      help="also measure the NumPy kernels on this host")

    casc = sub.add_parser("cascade",
                          help="portability cascade (metric vs platform set)")
    casc.add_argument("--precision", default="fp64")

    rep = sub.add_parser("report",
                         help="full Markdown study report (all artifacts)")
    rep.add_argument("--full", action="store_true")
    rep.add_argument("--out", default=None, help="write to file")
    rep.add_argument("--charts", action="store_true")
    _add_resilience_flags(rep)

    ver = sub.add_parser("verify",
                         help="compare reproduced Table III to the paper")
    ver.add_argument("--full", action="store_true")

    roof = sub.add_parser("roofline", help="roofline view of one machine")
    roof.add_argument("--target", default="a100",
                      help="machine name (cpu or gpu catalog key)")
    roof.add_argument("--size", type=int, default=8192)
    roof.add_argument("--precision", default="fp64")
    roof.add_argument("--models", default=None,
                      help="comma-separated; defaults per device")

    lint = sub.add_parser(
        "lint", help="lint every registered model lowering (exit 1 on errors)")
    lint.add_argument("--models", default=None,
                      help="comma-separated model names (default: all, "
                           "extensions included)")
    lint.add_argument("--device", choices=("cpu", "gpu", "all"),
                      default="all")
    lint.add_argument("--precision", default=None,
                      help="restrict to one precision (default: all)")
    lint.add_argument("--strict", action="store_true",
                      help="also exit 1 on warning-severity findings")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="json emits the shared static-analysis schema")

    audit = sub.add_parser(
        "audit",
        help="performance-portability audit of every lane: hazards plus "
             "a predicted efficiency band (exit 1 on gating findings)")
    audit.add_argument("--models", default=None,
                       help="comma-separated model names (default: all, "
                            "extensions included)")
    audit.add_argument("--device", choices=("cpu", "gpu", "all"),
                       default="all")
    audit.add_argument("--precision", default=None,
                       help="restrict to one precision (default: all)")
    audit.add_argument("--strict", action="store_true",
                       help="also exit 1 on warning-severity findings")
    audit.add_argument("--format", choices=("text", "json"), default="text",
                       help="json emits the shared static-analysis schema")
    audit.add_argument("--consistency", action="store_true",
                       help="also run the seed sweep and verify the static "
                            "verdicts agree with the measured efficiencies "
                            "(exit 1 on contradiction)")

    cache = sub.add_parser(
        "cache", help="inspect or empty the persistent sweep result cache")
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument("--dir", default=None,
                       help="cache directory (default: $REPRO_CACHE_DIR or "
                            "$XDG_CACHE_HOME/repro/results)")

    runs = sub.add_parser(
        "runs", help="list or inspect journaled runs")
    runs.add_argument("action", choices=("list", "show"))
    runs.add_argument("run_id", nargs="?", default=None,
                      help="run id (required for `show`)")
    runs.add_argument("--dir", default=None,
                      help="runs directory (default: $REPRO_RUNS_DIR or "
                           "$XDG_CACHE_HOME/repro/runs)")
    runs.add_argument("--format", choices=("text", "json"), default="text",
                      help="json emits the machine-readable run document")

    serve = sub.add_parser(
        "serve", help="run the campaign daemon: accept concurrent "
                      "submissions over a local socket, schedule them "
                      "fair-share across tenants")
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="Unix socket path (default: "
                            "$REPRO_SERVICE_SOCKET or <runs dir>/"
                            "service.sock)")
    serve.add_argument("--max-total", type=int, default=None, metavar="N",
                       help="global campaign backlog cap (default: 64)")
    serve.add_argument("--max-queued", type=int, default=None, metavar="N",
                       help="per-tenant campaign quota (default: 8)")
    serve.add_argument("--stop", action="store_true",
                       help="ask the daemon on --socket to shut down "
                            "gracefully instead of serving")

    submit = sub.add_parser(
        "submit", help="submit a campaign to the daemon (see `repro "
                       "serve`); experiment flags mirror `repro run`")
    submit.add_argument("--socket", default=None, metavar="PATH",
                        help="daemon socket (default: as for `repro serve`)")
    submit.add_argument("--spec", default=None, metavar="FILE",
                        help="serialized CampaignSpec JSON (overrides the "
                             "experiment flags; '-' reads stdin)")
    _add_experiment_flags(submit)
    submit.add_argument("--exp-id", default="cli-run",
                        help="experiment id (cells dedup across campaigns "
                             "with equal ids and methodology)")
    submit.add_argument("--tenant", default=None,
                        help="fair-share account (default: $REPRO_TENANT "
                             "or 'default')")
    submit.add_argument("--priority", type=int, default=None,
                        help="rank within the tenant's queue (higher runs "
                             "first; default: $REPRO_PRIORITY or 0)")
    submit.add_argument("--deadline", type=float, default=None, metavar="S",
                        help="wall-clock budget in seconds; a campaign "
                             "still unfinished past it expires through "
                             "the degraded path (default: $REPRO_DEADLINE "
                             "or none)")
    submit.add_argument("--submission-key", default=None, metavar="KEY",
                        help="client-generated idempotency key: a retried "
                             "submit with the same key returns the "
                             "original campaign id (default: "
                             "$REPRO_SUBMISSION_KEY or none)")
    submit.add_argument("--client-retries", type=int, default=None,
                        metavar="N",
                        help="retry a shed (429/503) or connection-refused "
                             "submit up to N times with capped exponential "
                             "backoff; POST retries need --submission-key "
                             "(default: $REPRO_CLIENT_RETRIES or 0)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the campaign finishes and print "
                             "its report (byte-identical to `repro run`)")
    submit.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format with --wait")
    _add_resilience_flags(submit)

    status = sub.add_parser(
        "status", help="one snapshot of the campaign daemon: tenants, "
                       "queue, dedup and cache counters")
    status.add_argument("--socket", default=None, metavar="PATH",
                        help="daemon socket (default: as for `repro serve`)")
    status.add_argument("--format", choices=("text", "json"),
                        default="text")

    fsck = sub.add_parser(
        "fsck", help="verify cache entries, run journals and export "
                     "artifacts; quarantine/recover corruption (exit 3 "
                     "if any found)")
    fsck.add_argument("artifacts", nargs="*", metavar="ARTIFACT",
                      help="digest-carrying JSON artifacts to verify")
    fsck.add_argument("--cache-dir", default=None,
                      help="cache directory (default: the process cache)")
    fsck.add_argument("--runs-dir", default=None,
                      help="runs directory (default: $REPRO_RUNS_DIR or "
                           "$XDG_CACHE_HOME/repro/runs)")

    chaos = sub.add_parser(
        "chaos", help="deterministic crash-fault drills: SIGKILL a pool "
                      "worker, SIGKILL the daemon mid-grant, tear a "
                      "journal tail, fill the disk, storm the daemon at "
                      "2x admission capacity — then assert byte-identical "
                      "recovery (exit 1 on any mismatch)")
    chaos.add_argument("--scenario", action="append", default=None,
                       metavar="NAME",
                       help="run only this scenario (repeatable; default: "
                            "all of worker-kill, daemon-kill, journal-tear, "
                            "disk-full, overload)")
    chaos.add_argument("--out", default="BENCH_robustness.json",
                       metavar="FILE",
                       help="MTTR/recovery-counter bench output "
                            "(default BENCH_robustness.json; '-' skips)")
    chaos.add_argument("--workdir", default=None, metavar="DIR",
                       help="scratch root for the drills (default: a "
                            "private temp dir, removed afterwards)")

    return p


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    """The experiment flags ``repro run`` and ``repro submit`` share."""
    p.add_argument("--node", choices=sorted(NODE_CATALOG), default="crusher")
    p.add_argument("--device", choices=("cpu", "gpu"), default="cpu")
    p.add_argument("--precision", default="fp64")
    p.add_argument("--models", default="c-openmp,kokkos,julia,numba",
                   help="comma-separated model names")
    p.add_argument("--sizes", default=",".join(map(str, QUICK_SIZES)))
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--reps", type=int, default=10)


def _experiment_from_args(args: argparse.Namespace) -> Experiment:
    """The :class:`Experiment` the shared experiment flags describe."""
    return Experiment(
        exp_id=getattr(args, "exp_id", "cli-run"),
        title="custom CLI experiment",
        node_name=args.node,
        device=DeviceKind.CPU if args.device == "cpu" else DeviceKind.GPU,
        precision=Precision.parse(args.precision),
        models=tuple(s.strip() for s in args.models.split(",") if s.strip()),
        sizes=tuple(int(s) for s in args.sizes.split(",")),
        threads=args.threads,
        reps=args.reps,
        include_transfers=getattr(args, "include_transfers", False),
    )


def _add_resilience_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="inject deterministic faults, e.g. '0.2' or "
                        "'rate=0.2,seed=7,always=numba@512'")
    p.add_argument("--retries", type=int, default=None, metavar="N",
                   help="retries per cell after a fault (default: 0)")
    p.add_argument("--max-cell-seconds", type=float, default=None,
                   metavar="S",
                   help="per-cell simulated-time budget for retries")
    p.add_argument("--fail-fast", action="store_true",
                   help="abort on the first permanent cell failure "
                        "(exit 1) instead of degrading to e=0")


def _cmd_machines() -> str:
    return "\n\n".join(node.describe() for node in NODE_CATALOG.values())


def _cmd_models() -> str:
    from .machine import A100, AMPERE_ALTRA, EPYC_7A53, MI250X
    targets = [EPYC_7A53, AMPERE_ALTRA, MI250X, A100]
    headers = ["model", "version"] + [t.name for t in targets]
    rows = []
    for m in all_models():
        row: List[str] = [m.display, m.paper_version]
        for t in targets:
            marks = []
            for prec in (Precision.FP64, Precision.FP32, Precision.FP16):
                s = m.supports(t, prec)
                marks.append(prec.value[2:] if s.supported and not s.degraded
                             else ("~" + prec.value[2:] if s.supported else "-"))
            row.append("/".join(marks))
        rows.append(row)
    legend = "(cell: fp64/fp32/fp16 support; '~' = degraded, '-' = unsupported)"
    return ascii_table(headers, rows) + "\n" + legend


def _cmd_productivity() -> str:
    rows = productivity_report(all_models())
    return ascii_table(
        ["model", "kernel LoC", "ceremony LoC", "compile step",
         "JIT warm-up (s)", "divergence"],
        [[r.model, r.kernel_lines, r.ceremony_lines,
          "yes" if r.needs_compile_step else "no",
          f"{r.jit_warmup_seconds:.1f}", f"{r.divergence:.2f}"]
         for r in rows],
    )


def _cmd_fig(number: int, full: bool, chart: bool,
             efficiencies: bool = False) -> str:
    sizes = PAPER_SIZES if full else QUICK_SIZES
    fn = {4: fig4, 5: fig5, 6: fig6, 7: fig7}[number]
    return fn(sizes).render(charts=chart, efficiencies=efficiencies)


def _cmd_table(number: int, full: bool) -> str:
    if number == 1:
        return table1()
    if number == 2:
        return table2()
    sizes = PAPER_SIZES if full else QUICK_SIZES
    return table3(sizes).render()


def _cmd_run(args: argparse.Namespace) -> str:
    if getattr(args, "resume", None):
        from .harness.engine import RunOptions
        from .harness.journal import RunRegistry, resume_run
        reg = RunRegistry()
        state = reg.load(args.resume)
        print(f"repro: resuming run {args.resume}: "
              f"{state.done_cells}/{state.total_cells} cells journaled, "
              f"{state.remaining_cells} to execute", file=sys.stderr)
        settings = resolve_run_settings(cli=_cli_overrides(args))
        options = RunOptions(cache=settings["cache"], jobs=settings["jobs"],
                             watchdog=settings["watchdog"])
        engine = resolve_engine(None, options, mode=settings["engine"])
        results = resume_run(args.resume, registry=reg, engine=engine,
                             options=options)
        return _render_run(args, results, engine)
    if args.config:
        import json as _json
        with open(args.config) as fh:
            exp = Experiment.from_dict(_json.load(fh))
        return _finish_run(args, exp)
    return _finish_run(args, _experiment_from_args(args))


def _cli_overrides(args: argparse.Namespace) -> dict:
    """The CLI layer of the one precedence pass (CLI > env > defaults).

    Keys mirror :func:`repro.config.resolve_run_settings`'s ``cli``
    mapping; ``None`` means "flag not given, let the environment or the
    defaults decide".  Shared by every subcommand that takes run flags
    so the surfaces cannot drift.
    """
    return {
        "faults": getattr(args, "faults", None),
        "retries": getattr(args, "retries", None),
        "max_cell_seconds": getattr(args, "max_cell_seconds", None),
        "fail_fast": bool(getattr(args, "fail_fast", False)),
        "cache": False if getattr(args, "no_cache", False) else None,
        "jobs": getattr(args, "jobs", None),
        "engine": ("serial" if getattr(args, "serial", False)
                   else getattr(args, "engine", None)),
        "tenant": getattr(args, "tenant", None),
        "priority": getattr(args, "priority", None),
        "deadline": getattr(args, "deadline", None),
        "submission_key": getattr(args, "submission_key", None),
        # The watchdog supervises *this process's* worker pool: it is
        # never journaled or fingerprinted, so it stays out of the spec.
        "watchdog": getattr(args, "watchdog", None),
        "journal": False if getattr(args, "no_journal", False) else None,
        "client_retries": getattr(args, "client_retries", None),
    }


def _finish_run(args: argparse.Namespace, exp: Experiment) -> str:
    from .harness.engine import RunOptions

    overrides = _cli_overrides(args)
    spec = resolve_campaign_spec(exp, cli=overrides)
    settings = resolve_run_settings(cli=overrides)
    journal = None
    registry = None
    if settings["journal"]:
        from .harness.journal import RunRegistry
        registry = RunRegistry()
        journal = registry.create()
        # The ACTIVE sidecar tells `repro runs list`, `repro fsck` and a
        # recovering daemon that a live process owns this journal.
        registry.mark_active(journal.run_id)
        # The notice goes to stderr so stdout stays byte-identical
        # between an uninterrupted run and an interrupt + --resume.
        print(f"repro: journaling run {journal.run_id} "
              f"(resume with: repro run --resume {journal.run_id})",
              file=sys.stderr)
    base = RunOptions(journal=journal, watchdog=settings["watchdog"])
    engine = resolve_engine(None, spec.run_options(base=base),
                            mode=spec.engine)
    try:
        results = run_campaign(spec, engine=engine, options=base)
    finally:
        if journal is not None:
            journal.close()
            registry.release_active(journal.run_id)
    return _render_run(args, results, engine)


def _render_run(args: argparse.Namespace, results, engine) -> str:
    extra = ""
    if getattr(args, "engine_stats", False) and engine is not None \
            and engine.last_report is not None:
        extra = "\n\n" + engine.last_report.render()
    if getattr(args, "gnuplot_dir", None):
        from .harness.gnuplot import write_gnuplot_bundle
        dat, gp = write_gnuplot_bundle(results, args.gnuplot_dir)
        extra += f"\n[gnuplot bundle: {dat}, {gp}]"
    if getattr(args, "export", None):
        from .harness.export import write_result_set_artifact
        digest = write_result_set_artifact(args.export, results)
        extra += f"\n[artifact: {args.export} sha256:{digest[:12]}]"
    if args.format == "json":
        from .harness.export import result_set_to_json
        return result_set_to_json(results) + extra
    if args.format == "csv":
        from .harness.export import result_set_to_csv
        return result_set_to_csv(results) + extra
    out = render_result_set(results)
    if getattr(args, "efficiency", None):
        from .harness.report import efficiency_table
        out += "\n\n" + efficiency_table(results, args.efficiency)
    return out + extra


def _cmd_kernel(args: argparse.Namespace) -> str:
    from .ir.pretty import render_kernel
    from .machine import cpu_by_name, gpu_by_name
    from .models import model_by_name

    model = model_by_name(args.model)
    precision = Precision.parse(args.precision)
    if args.device == "cpu":
        spec = cpu_by_name(args.target or "epyc-7a53")
        lowering = model.lower_cpu(spec, precision)
        extra = (f"threads: {lowering.threads}, pinning: "
                 f"{lowering.pin.value}, "
                 f"codegen quality x{lowering.profile.issue_multiplier:g}")
    else:
        spec = gpu_by_name(args.target or "a100")
        lowering = model.lower_gpu(spec, precision)
        extra = (f"launch: {lowering.launch.describe()}, "
                 f"codegen quality x{lowering.profile.issue_multiplier:g}, "
                 f"+{lowering.profile.extra_int_per_iter:g} int ops/iter")
    lines = [
        f"{model.display} lowering for {spec.name} "
        f"({precision.label} precision)",
        "",
        render_kernel(lowering.kernel),
        "",
        "passes: " + " -> ".join(
            f"{r.name}{'*' if r.changed else ''}" for r in lowering.pass_records),
        extra,
    ]
    if getattr(args, "source", False):
        from .core.types import DeviceKind as _DK
        from .models.listings import listing_for
        device = _DK.CPU if args.device == "cpu" else _DK.GPU
        src = listing_for(model.name, device)
        if src:
            lines += ["", "--- paper listing " + "-" * 40, src]
        else:
            lines += ["", "(no paper listing for this model/device)"]
    return "\n".join(lines)


def _cmd_scaling(args: argparse.Namespace) -> str:
    from .core.types import MatrixShape
    from .harness.scaling import thread_scaling
    from .machine import cpu_by_name

    cpu = cpu_by_name(args.cpu)
    counts = (tuple(int(t) for t in args.threads.split(","))
              if args.threads else None)
    result = thread_scaling(args.model, cpu, MatrixShape.square(args.size),
                            Precision.parse(args.precision), counts)
    return result.render()


def _parse_cli_precision(text: Optional[str]) -> "Optional[List[Precision]]":
    """``--precision`` for lint/audit; unknown labels are usage errors."""
    if not text:
        return None
    try:
        return [Precision.parse(text)]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_lint(args: argparse.Namespace) -> "tuple[str, int]":
    from .ir.lint import Severity, lint_registry, sweep_to_json
    from .ir.pretty import render_diagnostics

    models = (tuple(m.strip() for m in args.models.split(",") if m.strip())
              if args.models else None)
    precisions = _parse_cli_precision(args.precision)
    results = lint_registry(models=models, device=args.device,
                            precisions=precisions)

    total_errors = sum(r.error_count for r in results)
    total_warnings = sum(
        sum(1 for d in r.diagnostics if d.severity is Severity.WARNING)
        for r in results)
    failed = total_errors > 0 or (args.strict and total_warnings > 0)
    if args.format == "json":
        return sweep_to_json("lint", results), 1 if failed else 0

    lines: List[str] = []
    errors = warnings = 0
    for r in results:
        if r.skipped:
            continue
        findings = [d for d in r.diagnostics
                    if d.severity is not Severity.INFO]
        errors += r.error_count
        warnings += sum(1 for d in findings
                        if d.severity is Severity.WARNING)
        if findings:
            lines.append(f"{r.model} / {r.target} / {r.precision}:")
            lines.append(render_diagnostics(findings))
    linted = sum(1 for r in results if not r.skipped)
    skipped = len(results) - linted
    lines.append(f"linted {linted} lowerings ({skipped} unsupported "
                 f"combinations skipped): {errors} errors, "
                 f"{warnings} warnings")
    return "\n".join(lines), 1 if failed else 0


def _cmd_audit(args: argparse.Namespace) -> "tuple[str, int]":
    from .ir.audit import (
        audit_registry,
        check_consistency,
        render_audit_findings,
        render_audit_matrix,
    )
    from .ir.lint import Severity, sweep_to_json

    models = (tuple(m.strip() for m in args.models.split(",") if m.strip())
              if args.models else None)
    precisions = _parse_cli_precision(args.precision)
    results = audit_registry(models=models, device=args.device,
                             precisions=precisions)

    errors = sum(r.error_count for r in results)
    warnings = sum(r.warning_count for r in results)
    failed = errors > 0 or (args.strict and warnings > 0)

    consistency = check_consistency() if args.consistency else None
    if consistency is not None and not consistency.consistent:
        failed = True

    if args.format == "json":
        return sweep_to_json("audit", results), 1 if failed else 0

    lines: List[str] = [render_audit_matrix(results)]
    findings = render_audit_findings(results)
    if findings:
        lines.append("")
        lines.append(findings)
    audited = sum(1 for r in results if not r.skipped)
    skipped = len(results) - audited
    lines.append("")
    lines.append(f"audited {audited} lanes ({skipped} unsupported "
                 f"combinations skipped): {errors} errors, "
                 f"{warnings} warnings")
    if consistency is not None:
        lines.append("")
        lines.append("static vs measured (seed GEMM sweep):")
        lines.append(consistency.render())
    return "\n".join(lines), 1 if failed else 0


def _cmd_cache(args: argparse.Namespace) -> str:
    from .harness.engine import ResultCache, default_engine

    if args.dir:
        cache = ResultCache(args.dir)
    else:
        cache = default_engine().cache or ResultCache()
    if args.action == "stats":
        return cache.render_stats()
    removed = cache.clear()
    return f"cleared {removed} cached measurements from {cache.root}"


def _run_document(reg, st) -> dict:
    """One run as the machine-readable ``runs --format json`` document."""
    owner = reg.active_info(st.run_id)
    doc = {
        "run": st.run_id,
        "journal": st.path,
        "status": st.status,
        "experiment": st.manifest.get("exp_id"),
        "node": st.manifest.get("node"),
        "campaign": st.campaign or None,
        "cells": {"done": st.done_cells, "total": st.total_cells,
                  "remaining": st.remaining_cells},
        "resumes": st.resumes,
        "resumable": st.resumable,
        "torn_records": st.dropped,
        "active": (None if owner is None
                   else {"pid": owner.get("pid"),
                         "heartbeat": owner.get("heartbeat")}),
    }
    if st.service_meta:
        doc["service"] = dict(st.service_meta)
    return doc


def _cmd_runs(args: argparse.Namespace) -> "tuple[str, int]":
    import json as _json

    from .harness.journal import RunRegistry

    reg = RunRegistry(args.dir)
    if args.action == "list":
        if args.format == "json":
            rows = [_run_document(reg, st) for st in reg.runs()]
            return _json.dumps({"runs_dir": reg.root, "runs": rows},
                               indent=2, sort_keys=True), 0
        return reg.render_list(), 0
    if not args.run_id:
        return "repro runs show: a run id is required", 2
    st = reg.load(args.run_id)
    if args.format == "json":
        return _json.dumps(_run_document(reg, st),
                           indent=2, sort_keys=True), 0
    exp = st.manifest.get("exp_id", "?")
    node = st.manifest.get("node", "?")
    lines = [
        f"run:        {st.run_id}",
        f"journal:    {st.path}",
        f"status:     {st.status}",
        f"experiment: {exp} on {node}",
        f"campaign:   {st.campaign[:16]}..." if st.campaign
        else "campaign:   (unfingerprinted)",
        f"cells:      {st.done_cells}/{st.total_cells} journaled "
        f"({st.remaining_cells} remaining)",
        f"resumes:    {st.resumes}",
    ]
    if st.dropped:
        lines.append(f"torn tail:  {st.dropped} invalid trailing record(s) "
                     "(run `repro fsck` to truncate)")
    if st.resumable:
        lines.append(f"resume with: repro run --resume {st.run_id}")
    return "\n".join(lines), 0


def _cmd_serve(args: argparse.Namespace) -> "tuple[str, int]":
    import os

    from .service import (
        AdmissionPolicy,
        CampaignDaemon,
        CampaignService,
        ServiceClient,
        TenantQuota,
        default_socket_path,
    )

    socket_path = args.socket or default_socket_path()
    if args.stop:
        ServiceClient(socket_path).shutdown()
        return f"asked the campaign daemon on {socket_path} to stop", 0
    service = None
    if args.max_total is not None or args.max_queued is not None:
        defaults = AdmissionPolicy()
        quota = (TenantQuota(max_queued=args.max_queued)
                 if args.max_queued is not None
                 else defaults.default_quota)
        policy = AdmissionPolicy(
            max_total=(args.max_total if args.max_total is not None
                       else defaults.max_total),
            default_quota=quota)
        service = CampaignService(policy=policy)
    daemon = CampaignDaemon(service=service, socket_path=socket_path)
    print(f"repro: serving campaigns on {socket_path} "
          f"(pid {os.getpid()}; stop with: repro serve "
          f"--stop --socket {socket_path})", file=sys.stderr)
    recovered = daemon.serve()
    return (f"campaign daemon on {socket_path} stopped "
            f"({recovered} campaign(s) recovered at startup)"), 0


def _cmd_submit(args: argparse.Namespace) -> "tuple[str, int]":
    import json as _json

    from .errors import DeadlineExpired
    from .service import ClientPolicy, ServiceClient, spec_from_dict

    # A client knob, not a spec field: how persistently *this* submit
    # retries shed/refused requests never changes what the campaign
    # computes, so it stays out of the journaled spec.
    settings = resolve_run_settings(cli=_cli_overrides(args))
    client = ServiceClient(args.socket, policy=ClientPolicy(
        retries=settings["client_retries"]))
    if args.spec:
        try:
            if args.spec == "-":
                raw = sys.stdin.read()
            else:
                with open(args.spec) as fh:
                    raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"--spec {args.spec}: {exc}") from exc
        try:
            payload = _json.loads(raw)
        except _json.JSONDecodeError as exc:
            raise ConfigError(
                f"--spec {args.spec}: not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"--spec {args.spec}: expected a JSON object")
        # Validated locally so a bad document fails with a sharp message
        # before it crosses the wire.
        spec = spec_from_dict(payload)
    else:
        spec = resolve_campaign_spec(_experiment_from_args(args),
                                     cli=_cli_overrides(args))
    campaign_id = client.submit(spec)
    print(f"repro: campaign {campaign_id} queued as tenant "
          f"{spec.tenant!r} (priority {spec.priority})", file=sys.stderr)
    if not args.wait:
        return campaign_id, 0
    try:
        row = client.wait(campaign_id)
    except DeadlineExpired as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return campaign_id, 1
    if row.get("state") == "failed":
        print(f"repro: campaign {campaign_id} failed: "
              f"{row.get('error', 'unknown error')}", file=sys.stderr)
        return campaign_id, 1
    # Stdout carries exactly the report `repro run` would have printed
    # for the same spec — byte-identical, stderr has the rest.
    return client.report(campaign_id, fmt=args.format).rstrip("\n"), 0


def _cmd_status(args: argparse.Namespace) -> str:
    from .harness.report import ascii_table as _table
    from .service import ServiceClient

    payload = ServiceClient(args.socket).status()
    if args.format == "json":
        import json as _json
        return _json.dumps(payload, indent=2, sort_keys=True)
    header = (f"campaign daemon: pid {payload.get('pid')}, "
              f"{payload.get('backlog', 0)} queued campaign(s), "
              f"{payload.get('steps', 0)} scheduler step(s)")
    if payload.get("uptime_s") is not None:
        header += f", up {payload['uptime_s']:.0f}s"
    if payload.get("state"):
        header += f" [{payload['state']}]"
    lines = [header]
    supervision = payload.get("supervision") or {}
    if supervision.get("restarts") or supervision.get("quarantined"):
        lines.append(f"supervision: {supervision.get('restarts', 0)} "
                     f"campaign restart(s), "
                     f"{supervision.get('quarantined', 0)} quarantined")
    overload = payload.get("overload") or {}
    if overload.get("shed") or overload.get("duplicates"):
        lines.append(f"overload: {overload.get('shed', 0)} submission(s) "
                     f"shed, {overload.get('duplicates', 0)} idempotent "
                     f"duplicate(s) answered "
                     f"(retry-after {overload.get('retry_after_s', 1):g}s)")
    tenants = payload.get("tenants") or []
    if tenants:
        lines.append("")
        lines.append(_table(
            ["tenant", "weight", "pass", "queued", "running"],
            [[t.get("tenant"), f"{t.get('weight', 1.0):g}",
              f"{t.get('pass', 0.0):g}", t.get("queued", 0),
              t.get("running", 0)] for t in tenants]))
    campaigns = payload.get("campaigns") or []
    if campaigns:
        rows = []
        for c in campaigns:
            cells = c.get("cells") or {}
            stats = c.get("stats") or {}
            note = ", ".join(f"{k}={v}" for k, v in sorted(stats.items())
                             if v) or "-"
            if c.get("restarts"):
                note = f"restarts={c['restarts']}, " + note
            if c.get("heartbeat_age_s") is not None:
                beat = f"{c['heartbeat_age_s']:.0f}s"
                if c.get("stale"):
                    beat += " STALE"
            else:
                beat = "-"
            rows.append([c.get("id"), c.get("tenant"), c.get("priority"),
                         c.get("state"),
                         f"{cells.get('done', 0)}/{cells.get('total', '?')}",
                         beat, note])
        lines.append("")
        lines.append(_table(
            ["campaign", "tenant", "prio", "state", "cells", "beat",
             "stats"],
            rows))
    dedup = payload.get("dedup") or {}
    lines.append("")
    lines.append(f"dedup: {dedup.get('hits', 0)} hit(s) across "
                 f"{dedup.get('executed_cells', 0)} executed cell(s)")
    return "\n".join(lines)


def _cmd_fsck(args: argparse.Namespace) -> "tuple[str, int]":
    from .harness.engine import ResultCache
    from .harness.journal import EXIT_FSCK_CORRUPT, RunRegistry, fsck_store

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    registry = RunRegistry(args.runs_dir) if args.runs_dir else None
    report = fsck_store(cache=cache, registry=registry,
                        artifacts=tuple(args.artifacts))
    return report.render(), EXIT_FSCK_CORRUPT if report.corrupt else 0


def _cmd_chaos(args: argparse.Namespace) -> "tuple[str, int]":
    from .chaos import run_chaos_suite

    out = None if args.out == "-" else args.out
    results = run_chaos_suite(out=out, scenarios=args.scenario,
                              workdir=args.workdir)
    lines = ["chaos drills (deterministic crash schedules, "
             "byte-identity asserted):"]
    lines += [r.render() for r in results]
    failed = [r.name for r in results if not r.identical]
    if failed:
        lines.append(f"FAILED: {', '.join(failed)} did not recover "
                     f"byte-identically")
    else:
        lines.append("all scenarios recovered byte-identically")
    if out:
        lines.append(f"wrote {out}")
    return "\n".join(lines), 1 if failed else 0


def _cmd_roofline(args: argparse.Namespace) -> str:
    from .core.types import MatrixShape
    from .harness.roofline_view import roofline_view
    from .machine import CPU_CATALOG, cpu_by_name, gpu_by_name

    key = args.target.strip().lower()
    is_cpu = key in CPU_CATALOG
    spec = cpu_by_name(key) if is_cpu else gpu_by_name(key)
    if args.models:
        models = tuple(m.strip() for m in args.models.split(","))
    elif is_cpu:
        models = ("c-openmp", "kokkos", "julia", "numba")
    else:
        models = ("cuda", "hip", "kokkos", "julia", "numba")
    view = roofline_view(spec, MatrixShape.square(args.size),
                         Precision.parse(args.precision), models)
    return view.render()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except CellFailure as exc:
        # --fail-fast: a permanently failing cell aborts the campaign.
        print(f"repro: aborted: {exc}", file=sys.stderr)
        return 1
    except RunInterrupted as exc:
        # SIGINT/SIGTERM mid-sweep: the journal was finalized before the
        # engine unwound, so the run is resumable.  128+SIGINT convention.
        from .harness.journal import EXIT_INTERRUPTED
        print(f"repro: interrupted: {exc}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except JournalError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    except ServiceError as exc:
        # No daemon on the socket, an admission refusal (AdmissionError
        # subclasses this), an unknown campaign id, a wait timeout, ...
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        # Bad --faults/--retries/... grammar, or an input naming the
        # removed lane breaker: a usage error.
        print(f"repro: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    rc = 0
    if args.command == "machines":
        out = _cmd_machines()
    elif args.command == "models":
        out = _cmd_models()
    elif args.command == "productivity":
        out = _cmd_productivity()
    elif args.command == "fig":
        out = _cmd_fig(args.number, args.full, not args.no_chart,
                       getattr(args, "efficiencies", False))
    elif args.command == "table":
        out = _cmd_table(args.number, args.full)
    elif args.command == "run":
        out = _cmd_run(args)
    elif args.command == "kernel":
        out = _cmd_kernel(args)
    elif args.command == "scaling":
        out = _cmd_scaling(args)
    elif args.command == "roofline":
        out = _cmd_roofline(args)
    elif args.command == "lint":
        out, rc = _cmd_lint(args)
    elif args.command == "audit":
        out, rc = _cmd_audit(args)
    elif args.command == "cache":
        out = _cmd_cache(args)
    elif args.command == "runs":
        out, rc = _cmd_runs(args)
    elif args.command == "serve":
        out, rc = _cmd_serve(args)
    elif args.command == "submit":
        out, rc = _cmd_submit(args)
    elif args.command == "status":
        out = _cmd_status(args)
    elif args.command == "fsck":
        out, rc = _cmd_fsck(args)
    elif args.command == "chaos":
        out, rc = _cmd_chaos(args)
    elif args.command == "crossover":
        from .harness.crossover import device_crossover
        from .machine import node_by_name
        study = device_crossover(
            node_by_name(args.node), args.model,
            Precision.parse(args.precision),
            tuple(int(x) for x in args.sizes.split(",")))
        out = study.render()
    elif args.command == "stream":
        from .core.types import Precision as _P
        from .machine import CPU_CATALOG, cpu_by_name, gpu_by_name
        from .stream import measure_host_stream, stream_table
        key = args.target.strip().lower()
        is_cpu = key in CPU_CATALOG
        spec = cpu_by_name(key) if is_cpu else gpu_by_name(key)
        if args.models:
            models = tuple(m.strip() for m in args.models.split(","))
        elif is_cpu:
            models = ("c-openmp", "kokkos", "julia", "numba")
        elif "NVIDIA" in spec.name.upper():
            models = ("cuda", "kokkos", "julia", "numba")
        else:
            models = ("hip", "kokkos", "julia", "numba")
        parts = [stream_table(spec, models, args.n,
                              _P.parse(args.precision)).render()]
        if args.host:
            parts.append("")
            parts.append("measured on this host (NumPy kernels):")
            for kernel, bw in measure_host_stream(n=1 << 22, reps=3).items():
                parts.append(f"  {kernel.value:6s} {bw:7.1f} GB/s")
        out = "\n".join(parts)
    elif args.command == "cascade":
        from .core.cascade import cascade, render_cascades
        from .harness import table3
        t3 = table3(QUICK_SIZES)
        prec = Precision.parse(args.precision)
        cascades = [cascade(m, t3.row(m, prec).efficiencies)
                    for m in ("kokkos", "julia", "numba")]
        lines = [render_cascades(cascades), ""]
        for c in cascades:
            cliff = c.cliff_platform
            lines.append(
                f"{c.model}: final Phi {c.final_phi:.3f}; strict PP "
                + (f"collapses when {cliff} joins the set" if cliff
                   else "survives the full platform set"))
        out = "\n".join(lines)
    elif args.command == "report":
        from .config import resolve_run_options
        from .harness.engine import (reset_default_run_options,
                                     set_default_run_options)
        from .harness.report_all import full_report
        # Campaign-level commands run many experiments through the
        # default entrypoint; resilience flags install as the
        # process-wide options so every panel inherits them.
        set_default_run_options(resolve_run_options(cli=_cli_overrides(args)))
        try:
            text = full_report(PAPER_SIZES if args.full else QUICK_SIZES,
                               charts=args.charts)
        finally:
            reset_default_run_options()
        if args.out:
            from .ioutil import atomic_write_text
            atomic_write_text(args.out, text)
            out = f"report written to {args.out} ({len(text.splitlines())} lines)"
        else:
            out = text
    elif args.command == "verify":
        from .harness.verify import verify_table3
        report = verify_table3(PAPER_SIZES if args.full else QUICK_SIZES)
        out = report.render()
    else:  # pragma: no cover - argparse enforces choices
        return 2
    try:
        print(out)
    except BrokenPipeError:  # e.g. `repro fig 7 | head`
        return rc
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
