"""Campaign-service throughput: scheduler grants, submissions, dedup.

Times the three hot paths of the multi-tenant campaign daemon — the
fair-share scheduler's select/charge cycle (pure in-memory bookkeeping
that runs once per cell), campaign submission (admission + durable
journal open), and an overlapping two-tenant workload end to end (where
cross-campaign dedup should serve the second tenant's shared cells from
the first tenant's results) — plus the overload-robustness paths: the
shed decision a saturated daemon takes per submission attempt, the
idempotent answer a retried keyed submit converges on, and the latency
of expiring a deadline-lapsed campaign through the degraded path, and
the wake latency of a long-polling ``wait`` — and writes the numbers to
``BENCH_service.json`` (re-run via ``make bench-service`` after touching
``src/repro/service`` to see regressions).

The dedup section records the hit rate alongside cells/sec: a regression
that silently stops deduping would *look* fine on wall time for small
matrices while doubling the executed-cell count, so both numbers gate.

Standalone on purpose: ``python benchmarks/bench_service.py`` works with
or without the package installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time

if __package__ in (None, ""):
    _src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if _src not in sys.path:
        sys.path.insert(0, _src)

from repro.core.types import DeviceKind, Precision          # noqa: E402
from repro.harness.engine import ResultCache                # noqa: E402
from repro.harness.experiment import Experiment             # noqa: E402
from repro.harness.journal import RunRegistry               # noqa: E402
from repro.service import (                                 # noqa: E402
    AdmissionPolicy,
    CampaignDaemon,
    CampaignService,
    CampaignSpec,
    FairShareScheduler,
    ServiceClient,
    TenantQuota,
)


def bench_experiment(exp_id: str, models=("julia", "numba")) -> Experiment:
    return Experiment(
        exp_id=exp_id, title="service throughput benchmark",
        node_name="Crusher", device=DeviceKind.CPU, precision=Precision.FP64,
        models=models, sizes=(256, 512, 1024), threads=64, reps=5,
    )


def bench_scheduler(grants: int, reps: int) -> "dict[str, object]":
    """Best-of-``reps`` time for ``grants`` select/charge cycles across
    an 8-tenant, 32-campaign backlog — the per-cell scheduling cost."""
    best = float("inf")
    for _ in range(reps):
        policy = AdmissionPolicy(
            max_total=64,
            quotas=tuple((f"t{i}", TenantQuota(weight=float(1 + i % 3)))
                         for i in range(8)))
        sched = FairShareScheduler(policy)
        for i in range(32):
            sched.submit(f"c{i}", f"t{i % 8}", priority=i % 4)
        t0 = time.perf_counter()
        for _ in range(grants):
            sched.charge(sched.select())
        best = min(best, time.perf_counter() - t0)
    return {
        "grants": grants,
        "tenants": 8,
        "backlog": 32,
        "seconds": round(best, 6),
        "grants_per_s": round(grants / best, 2),
    }


def bench_submissions(count: int, reps: int,
                      workdir: str) -> "dict[str, object]":
    """Submission latency: admission check plus the durable journal open
    that makes a queued campaign survive a daemon crash."""
    best = float("inf")
    for rep in range(reps):
        root = os.path.join(workdir, f"submit-{rep}")
        service = CampaignService(
            registry=RunRegistry(os.path.join(root, "runs")),
            cache=ResultCache(os.path.join(root, "cache")),
            policy=AdmissionPolicy(max_total=count + 1,
                                   default_quota=TenantQuota(
                                       max_queued=count + 1)))
        specs = [CampaignSpec(experiment=bench_experiment(f"sub-{i}"),
                              tenant=f"tenant-{i % 4}")
                 for i in range(count)]
        t0 = time.perf_counter()
        for spec in specs:
            service.submit(spec)
        best = min(best, time.perf_counter() - t0)
        service.suspend()
        shutil.rmtree(root, ignore_errors=True)
    return {
        "campaigns": count,
        "seconds": round(best, 6),
        "submissions_per_s": round(count / best, 2),
    }


def bench_dedup(reps: int, workdir: str) -> "dict[str, object]":
    """Two tenants with overlapping sweeps, end to end: cells/sec
    through the cell-at-a-time executor plus the dedup hit rate."""
    best = float("inf")
    hits = total = 0
    for rep in range(reps):
        root = os.path.join(workdir, f"dedup-{rep}")
        service = CampaignService(
            registry=RunRegistry(os.path.join(root, "runs")),
            cache=ResultCache(os.path.join(root, "cache")))
        shared = f"dedup-{rep}"
        spec_a = CampaignSpec(
            experiment=bench_experiment(shared, ("julia", "numba")),
            tenant="alice")
        spec_b = CampaignSpec(
            experiment=bench_experiment(shared, ("julia", "kokkos")),
            tenant="bob")
        t0 = time.perf_counter()
        service.submit(spec_a)
        service.submit(spec_b)
        service.run_until_idle()
        best = min(best, time.perf_counter() - t0)
        hits = service.dedup_hits
        total = sum(c.cells_total for c in service.campaigns.values())
        shutil.rmtree(root, ignore_errors=True)
    return {
        "cells": total,
        "dedup_hits": hits,
        "dedup_hit_rate": round(hits / total, 4) if total else 0.0,
        "seconds": round(best, 6),
        "cells_per_s": round(total / best, 2),
    }


def bench_shedding(attempts: int, reps: int,
                   workdir: str) -> "dict[str, object]":
    """Load-shedding decision rate on a saturated service: every
    ``check_overload`` against a backlog past the shed threshold must
    answer 429-with-``Retry-After`` without touching disk, so a storm
    costs the daemon microseconds per refusal, not a journal write."""
    from repro.errors import OverloadError

    best = float("inf")
    shed = 0
    retry_after = 0.0
    for rep in range(reps):
        root = os.path.join(workdir, f"shed-{rep}")
        service = CampaignService(
            registry=RunRegistry(os.path.join(root, "runs")),
            cache=ResultCache(os.path.join(root, "cache")),
            policy=AdmissionPolicy(max_total=8,
                                   default_quota=TenantQuota(max_queued=8)))
        for i in range(8):      # saturate: backlog 8 >= shed threshold 7
            service.submit(CampaignSpec(
                experiment=bench_experiment(f"shed-{rep}-{i}"),
                tenant=f"tenant-{i % 4}"))
        shed = 0
        service.shed_total = 0
        t0 = time.perf_counter()
        for _ in range(attempts):
            try:
                service.check_overload()
            except OverloadError as exc:
                shed += 1
                retry_after = exc.retry_after_s
        best = min(best, time.perf_counter() - t0)
        service.suspend()
        shutil.rmtree(root, ignore_errors=True)
    return {
        "attempts": attempts,
        "shed": shed,
        "shed_rate": round(shed / attempts, 4) if attempts else 0.0,
        "retry_after_s": retry_after,
        "seconds": round(best, 6),
        "sheds_per_s": round(attempts / best, 2),
    }


def bench_idempotent_retry(retries: int, reps: int,
                           workdir: str) -> "dict[str, object]":
    """Retried-submit convergence: after one keyed submission, every
    retry of the same spec must answer the original id from the
    in-memory idempotency map — no admission, no journal, no disk."""
    import dataclasses

    best = float("inf")
    converged = False
    first_retry_s = 0.0
    for rep in range(reps):
        root = os.path.join(workdir, f"idem-{rep}")
        service = CampaignService(
            registry=RunRegistry(os.path.join(root, "runs")),
            cache=ResultCache(os.path.join(root, "cache")))
        spec = dataclasses.replace(
            CampaignSpec(experiment=bench_experiment(f"idem-{rep}")),
            submission_key=f"idem-{rep}")
        original = service.submit(spec)
        t0 = time.perf_counter()
        answer = service.submit(spec)
        first_retry_s = min(first_retry_s or float("inf"),
                            time.perf_counter() - t0)
        converged = answer == original
        t0 = time.perf_counter()
        for _ in range(retries):
            service.submit(spec)
        best = min(best, time.perf_counter() - t0)
        converged = converged and service.duplicates_total == retries + 1
        service.suspend()
        shutil.rmtree(root, ignore_errors=True)
    return {
        "retries": retries,
        "converged": converged,
        "first_retry_s": round(first_retry_s, 6),
        "seconds": round(best, 6),
        "duplicates_per_s": round(retries / best, 2),
    }


def bench_deadline(reps: int, workdir: str) -> "dict[str, object]":
    """Deadline-expiry latency: seconds from the scheduler granting a
    deadline-lapsed campaign to its terminal ``expired`` state — the
    degraded path journals one failed measurement per remaining cell,
    so this scales with campaign size and gates how fast a stormed
    daemon clears doomed work."""
    import dataclasses

    best = float("inf")
    cells = 0
    for rep in range(reps):
        root = os.path.join(workdir, f"deadline-{rep}")
        service = CampaignService(
            registry=RunRegistry(os.path.join(root, "runs")),
            cache=ResultCache(os.path.join(root, "cache")))
        spec = dataclasses.replace(
            CampaignSpec(experiment=bench_experiment(
                f"deadline-{rep}", ("julia", "numba", "kokkos"))),
            submission_key=f"deadline-{rep}", deadline_s=0.001)
        cid = service.submit(spec)
        time.sleep(0.002)       # let the deadline lapse before the grant
        t0 = time.perf_counter()
        service.run_until_idle()
        elapsed = time.perf_counter() - t0
        campaign = service.campaigns[cid]
        if campaign.state != "expired":
            raise RuntimeError(f"deadline campaign ended {campaign.state!r},"
                               " expected 'expired'")
        best = min(best, elapsed)
        cells = campaign.cells_total
        shutil.rmtree(root, ignore_errors=True)
    return {
        "cells": cells,
        "seconds": round(best, 6),
        "expiries_per_s": round(cells / best, 2),
    }


class _WakeTimedService(CampaignService):
    """Stamps every wake-up of long-polls (each follows a retiring
    grant as soon as it releases the service lock)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.woken_at = 0.0

    def wake_waiters(self) -> None:
        self.woken_at = time.perf_counter()
        super().wake_waiters()


class _PollCountingClient(ServiceClient):
    """Counts ``campaign()`` calls: the polls one ``wait`` makes."""

    polls = 0

    def campaign(self, campaign_id, wait=None):
        self.polls += 1
        return super().campaign(campaign_id, wait=wait)


def bench_wake(campaigns: int, reps: int,
               workdir: str) -> "dict[str, object]":
    """Wake latency of ``wait``: from the grant that retires a campaign
    to the client's ``wait`` returning, through a live daemon on a Unix
    socket (same process, its own scheduler thread).  A long-polling
    client is answered when the campaign finishes, so this is a round
    trip, not a poll interval; ``polls_per_wait`` stays at 1."""
    import statistics
    import threading

    lags = []
    polls = waits = 0
    for rep in range(reps):
        root = os.path.join(workdir, f"wake-{rep}")
        service = _WakeTimedService(
            registry=RunRegistry(os.path.join(root, "runs")),
            cache=ResultCache(os.path.join(root, "cache")))
        daemon = CampaignDaemon(service=service,
                                socket_path=os.path.join(root, "wake.sock"))
        loop = threading.Thread(target=daemon.serve,
                                kwargs={"install_signals": False},
                                daemon=True)
        loop.start()
        client = _PollCountingClient(daemon.socket_path)
        try:
            for i in range(campaigns):
                spec = CampaignSpec(experiment=Experiment(
                    exp_id=f"wake-{rep}-{i}", title="wake benchmark",
                    node_name="Crusher", device=DeviceKind.CPU,
                    precision=Precision.FP64, models=("julia",),
                    sizes=(256 + 64 * i,), threads=64, reps=3))
                row = client.wait(client.submit(spec), timeout=60)
                returned = time.perf_counter()
                if row["state"] != "done":
                    raise RuntimeError(f"wake campaign ended "
                                       f"{row['state']!r}, expected 'done'")
                lags.append(returned - service.woken_at)
                waits += 1
            polls += client.polls
        finally:
            daemon.request_shutdown()
            loop.join(timeout=30)
        shutil.rmtree(root, ignore_errors=True)
    return {
        "waits": waits,
        "polls_per_wait": round(polls / waits, 3) if waits else 0.0,
        "wake_ms_p50": round(statistics.median(lags) * 1e3, 3),
        "wake_ms_max": round(max(lags) * 1e3, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions; best-of is recorded (default 3)")
    parser.add_argument("--grants", type=int, default=20000,
                        help="scheduler select/charge cycles (default 20000)")
    parser.add_argument("--submissions", type=int, default=32,
                        help="campaigns per submission rep (default 32)")
    parser.add_argument("--out", default="BENCH_service.json",
                        help="output path (default BENCH_service.json)")
    args = parser.parse_args(argv)

    payload = {"benchmark": "service",
               "python": platform.python_version(),
               "host_cpus": os.cpu_count() or 1,
               "reps": args.reps,
               "sections": {}}
    workdir = tempfile.mkdtemp(prefix="bench-service-")
    try:
        result = bench_scheduler(args.grants, args.reps)
        payload["sections"]["scheduler"] = result
        print(f"scheduler   {result['grants_per_s']:>12} grants/s "
              f"({result['backlog']} campaigns, {result['tenants']} tenants)")

        result = bench_submissions(args.submissions, args.reps, workdir)
        payload["sections"]["submissions"] = result
        print(f"submit      {result['submissions_per_s']:>12} campaigns/s "
              f"(durable journal per submission)")

        result = bench_dedup(args.reps, workdir)
        payload["sections"]["dedup"] = result
        print(f"dedup       {result['cells_per_s']:>12} cells/s "
              f"(hit rate {result['dedup_hit_rate']:.0%})")

        result = bench_shedding(args.submissions * 100, args.reps, workdir)
        payload["sections"]["shedding"] = result
        print(f"shed        {result['sheds_per_s']:>12} refusals/s "
              f"(shed rate {result['shed_rate']:.0%}, "
              f"retry-after {result['retry_after_s']:g}s)")

        result = bench_idempotent_retry(args.submissions * 10, args.reps,
                                        workdir)
        payload["sections"]["idempotent_retry"] = result
        print(f"idempotent  {result['duplicates_per_s']:>12} retries/s "
              f"(first retry converged in {result['first_retry_s']*1e6:.0f}"
              f" us)")

        result = bench_deadline(args.reps, workdir)
        payload["sections"]["deadline"] = result
        print(f"deadline    {result['expiries_per_s']:>12} cell expiries/s "
              f"({result['cells']} cells expired in "
              f"{result['seconds']*1e3:.1f} ms)")

        result = bench_wake(10, args.reps, workdir)
        payload["sections"]["wake"] = result
        print(f"wake        {result['wake_ms_p50']:>12} ms p50 "
              f"(grant retiring a campaign -> wait() returns; "
              f"{result['polls_per_wait']:g} polls/wait)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
