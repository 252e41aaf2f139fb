"""One benchmark workload, run in its own process by ``run.py``.

The process imports ``repro``, sets up (private directories; the cache
fill for ``table3-warm``; the daemon for ``service-mixed``), reports how
long that took since ``run.py`` spawned it, runs the timed phase, checks
every output against a reference made outside the timed region, and
prints one JSON line with its figures.  With ``--trace 1`` it runs an
untraced phase and a traced phase of half the time each and reports the
per-layer figures of the traced one (see README.md).

Inputs come from ``--seed`` alone: the same seed gives the same argv
lists and campaign specs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

import spans

from repro import cli                                        # noqa: E402
from repro.errors import ReproError                          # noqa: E402
from repro.harness import PAPER_SIZES, figures               # noqa: E402
from repro.harness import engine as engine_mod               # noqa: E402
from repro.harness.experiment import Experiment              # noqa: E402
from repro.core.types import DeviceKind, Precision           # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

#: Latency percentiles need this many samples so that ten lie beyond p90;
#: a slow run keeps going past ``--seconds`` (up to twice) to reach it.
MIN_CAMPAIGNS = 100

#: Phi_M that ``table3(PAPER_SIZES)`` renders for (kokkos, julia, numba).
#: The 0.733/0.898/0.349 headline is the QUICK_SIZES table.
PHI_PAPER_SIZES = {Precision.FP64: ("0.732", "0.896", "0.349"),
                   Precision.FP32: ("0.678", "0.883", "0.287")}

CPU_MODELS = ("c-openmp", "kokkos", "julia", "numba")
GPU_MODELS = {"crusher": ("hip", "kokkos", "julia", "numba"),
              "wombat": ("cuda", "kokkos", "julia", "numba")}
PRECISIONS = ("fp64", "fp32")

#: What ``service-mixed`` resolves to: the daemon executes cells itself.
SERVICE_ENGINE = "daemon, one cell per scheduler grant"

#: Flags that turn a timed ``repro run`` argv into its serial reference.
REFERENCE_FLAGS = ["--serial", "--no-cache", "--no-journal"]


@dataclasses.dataclass
class Op:
    """One timed campaign and what its correctness check needs."""

    latency_s: float
    cells: int
    failure: str = ""
    check: Any = None


def reset_process_defaults() -> None:
    engine_mod.reset_default_engine()
    engine_mod.reset_default_run_options()


def run_cli(argv: List[str]) -> "tuple[int, str, str]":
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def engine_mode() -> str:
    eng = engine_mod.default_engine()
    workers = eng.last_report.workers if eng.last_report else None
    return f"{eng.mode} (parallel={eng.parallel}, workers={workers})"


# -- workloads ----------------------------------------------------------------

class ColdRuns:
    """``repro run`` campaigns whose cells never repeat within a run.

    CPU: two of the four CPU models at two fresh sizes; three campaigns
    in four on Crusher (64 threads), one on Wombat (80 threads), in a
    fixed rotation so the latency mix does not depend on the seed.
    GPU: all four models of the node at two fresh sizes, MI250X and A100
    alternating; Numba on MI250X is an unsupported cell (a correct
    ``n/a``, not a failure).
    """

    def __init__(self, device: str, seed: int) -> None:
        self.device = device
        self.rng = random.Random(f"{device}-cold:{seed}")
        self.used_sizes: set = set()
        self.index = 0

    def setup(self) -> None:
        pass

    def _fresh_sizes(self, count: int) -> List[int]:
        sizes: List[int] = []
        while len(sizes) < count:
            size = self.rng.randrange(256, 20481)
            if size not in self.used_sizes:
                self.used_sizes.add(size)
                sizes.append(size)
        return sorted(sizes)

    def next_argv(self) -> List[str]:
        i = self.index
        self.index += 1
        if self.device == "cpu":
            node = "wombat" if i % 4 == 3 else "crusher"
            models = self.rng.sample(CPU_MODELS, 2)
        else:
            node = ("crusher", "wombat")[i % 2]
            models = list(GPU_MODELS[node])
        return ["run", "--device", self.device, "--node", node,
                "--precision", self.rng.choice(PRECISIONS),
                "--models", ",".join(models),
                "--sizes", ",".join(map(str, self._fresh_sizes(2)))]

    def op(self) -> Op:
        argv = self.next_argv()
        cells = len(argv[argv.index("--models") + 1].split(",")) * 2
        t0 = time.perf_counter()
        try:
            rc, out, err = run_cli(argv)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed op
            return Op(time.perf_counter() - t0, 0,
                      f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        if rc != 0:
            return Op(latency, 0, f"{' '.join(argv)}: exit {rc}: {err}")
        if "DEGRADED:" in out:
            return Op(latency, 0, f"{' '.join(argv)}: degraded cells")
        return Op(latency, cells, check=(argv, out))

    def verify(self, op: Op) -> str:
        argv, out = op.check
        rc, ref, err = run_cli(argv + REFERENCE_FLAGS)
        if rc != 0:
            return f"reference {' '.join(argv)}: exit {rc}: {err}"
        if ref != out:
            return f"{' '.join(argv)}: stdout differs from the serial reference"
        return ""

    def close(self) -> None:
        pass


class Table3Warm:
    """``table3(PAPER_SIZES)`` regenerated from a cache the set-up filled.

    The input is the paper's fixed sweep, so the seed changes nothing.
    """

    def __init__(self) -> None:
        self.reference = ""
        self.cells = 0

    def setup(self) -> None:
        cold = figures.table3(PAPER_SIZES)
        self.reference = cold.render()
        stats = engine_mod.default_engine().cache.stats.snapshot()
        self.cells = stats["hits"] + stats["misses"]
        reset_process_defaults()
        problems = []
        if cold.degraded or cold.substituted:
            problems.append("the cold Table III pass is degraded")
        for precision, expected in PHI_PAPER_SIZES.items():
            got = tuple(f"{cold.row(m, precision).phi:.3f}"
                        for m in ("kokkos", "julia", "numba"))
            if got != expected:
                problems.append(f"Phi_M {precision.value} is {got}, "
                                f"expected {expected}")
        if problems:
            raise SystemExit("table3-warm set-up: " + "; ".join(problems))

    def op(self) -> Op:
        t0 = time.perf_counter()
        try:
            result = figures.table3(PAPER_SIZES)
            text = result.render()
        except Exception as exc:  # noqa: BLE001 - a crash is a failed op
            return Op(time.perf_counter() - t0, 0,
                      f"table3: {type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        if result.degraded or result.substituted:
            return Op(latency, 0, "table3: degraded or substituted cells")
        return Op(latency, self.cells, check=text)

    def verify(self, op: Op) -> str:
        if op.check != self.reference:
            return "table3: warm render differs from the cold pass"
        return ""

    def close(self) -> None:
        pass


class ServiceMixed:
    """Two tenants in a closed loop against a ``repro serve`` daemon.

    Each campaign is one cell.  Campaign ``k`` of tenant ``alice`` and
    campaign ``k`` of tenant ``bob`` ask for the same cell when ``k`` is
    even and for different models at the same size otherwise, so the
    daemon should serve a quarter of all cells by cross-campaign dedup.
    Pairs rotate through Crusher and Wombat CPUs (8 threads) and MI250X
    and A100.  Campaigns are small on purpose: they finish well inside
    the client's first 50 ms poll, so the latency percentiles do not
    straddle a poll boundary.
    """

    TENANTS = ("alice", "bob")
    KINDS = (("wombat", "cpu"), ("crusher", "gpu"), ("crusher", "cpu"),
             ("wombat", "gpu"))
    CPU_THREADS = 8

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.next_k = [0, 0]
        self.proc: Optional[subprocess.Popen] = None
        self.socket = ""
        self.spans_path = ""
        self.status: Dict[str, Any] = {}
        self.daemons = 0

    def spec_for(self, tenant: int, k: int):
        from repro.service.spec import CampaignSpec
        rng = random.Random(f"service-mixed:{self.seed}:{k}")
        node, device = self.KINDS[k % len(self.KINDS)]
        pool = CPU_MODELS if device == "cpu" else GPU_MODELS[node]
        models = rng.sample(pool, 2)
        experiment = Experiment(
            exp_id=f"svc-{k}", title="benchmark tenant campaign",
            node_name=node,
            device=DeviceKind.CPU if device == "cpu" else DeviceKind.GPU,
            precision=Precision.parse(rng.choice(PRECISIONS)),
            models=(models[0 if k % 2 == 0 else tenant],),
            sizes=(rng.randrange(256, 8193),),
            threads=self.CPU_THREADS if device == "cpu" else None)
        return CampaignSpec(experiment=experiment,
                            tenant=self.TENANTS[tenant])

    def start_daemon(self, traced: bool) -> None:
        from repro.service import ServiceClient
        self.daemons += 1
        tag = f"d{self.daemons}"
        self.socket = os.path.join(self.workdir, f"{tag}.sock")
        if traced:
            self.spans_path = os.path.join(self.workdir, f"{tag}.spans.json")
            argv = [sys.executable, os.path.join(HERE, "traced_daemon.py"),
                    "--socket", self.socket, "--spans-out", self.spans_path]
        else:
            argv = [sys.executable, "-m", "repro", "serve",
                    "--socket", self.socket]
        with open(os.path.join(self.workdir, f"{tag}.log"), "w") as log:
            self.proc = subprocess.Popen(argv, stdout=log, stderr=log)
        client = ServiceClient(self.socket)
        give_up = time.monotonic() + 60.0
        while True:
            try:
                client.ping()
                return
            except ReproError:
                if self.proc.poll() is not None or time.monotonic() > give_up:
                    self.stop_daemon()
                    raise SystemExit(f"daemon on {self.socket} never "
                                     f"answered a ping")
                time.sleep(0.005)

    def stop_daemon(self) -> None:
        from repro.service import ServiceClient
        if self.proc is None:
            return
        if self.proc.poll() is None:
            client = ServiceClient(self.socket)
            try:
                self.status = client.status()
                client.shutdown()
            except ReproError:
                self.proc.kill()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None

    def setup(self) -> None:
        self.start_daemon(traced=False)

    def close(self) -> None:
        self.stop_daemon()

    def dedup_ratio(self, cells: int) -> float:
        hits = self.status.get("dedup", {}).get("hits", 0)
        return hits / cells if cells else 0.0

    def tenant_loop(self, tenant: int, ops: List[Op], keep_going: Callable,
                    rec: Optional[spans.Recorder]) -> None:
        from repro.service import ServiceClient
        client = ServiceClient(self.socket)
        k = self.next_k[tenant]
        while keep_going():
            spec = self.spec_for(tenant, k)
            k += 1
            cells = len(spec.experiment.models) * len(spec.experiment.sizes)
            root = rec.open("campaign", cid=f"{tenant}-{k}") if rec else None
            t0 = time.perf_counter()
            failure, report, cid = "", "", ""
            try:
                cid = client.submit(spec)
                row = client.wait(cid)
                if row.get("state") != "done":
                    failure = f"campaign {cid}: state {row.get('state')}"
                else:
                    report = client.report(cid, fmt="json")
            except Exception as exc:  # noqa: BLE001 - a crash is a failed op
                failure = f"campaign {cid or '?'}: {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if root is not None:
                rec.close(root, cid)
            if not failure and json.loads(report).get("degraded"):
                failure = f"campaign {cid}: degraded cells"
            ops.append(Op(latency, 0 if failure else cells, failure,
                          check=(spec, report)))
        self.next_k[tenant] = k

    def run_ops(self, keep_going: Callable, rec: Optional[spans.Recorder],
                ops: List[Op]) -> None:
        threads = [threading.Thread(target=self.tenant_loop,
                                    args=(t, ops, keep_going, rec))
                   for t in range(len(self.TENANTS))]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

    def verify(self, op: Op) -> str:
        from repro.harness.export import result_set_to_json
        from repro.harness.runner import run_campaign
        spec, report = op.check
        ref = run_campaign(dataclasses.replace(spec, engine="serial",
                                               cache=False))
        if report != result_set_to_json(ref) + "\n":
            return (f"{spec.experiment.exp_id}/{spec.tenant}: report differs "
                    f"from the serial reference")
        return ""


# -- phases -------------------------------------------------------------------

def run_phase(workload, seconds: float, min_ops: int,
              rec: Optional[spans.Recorder]) -> Dict[str, Any]:
    """Time campaigns for ``seconds`` (longer, up to twice, until
    ``min_ops`` are done); the load comes from this process alone."""
    ops: List[Op] = []
    start_ns = spans.now_ns()
    t0 = time.perf_counter()
    deadline, hard = t0 + seconds, t0 + 2 * seconds

    def keep_going() -> bool:
        now = time.perf_counter()
        return now < deadline or (len(ops) < min_ops and now < hard)

    if isinstance(workload, ServiceMixed):
        workload.run_ops(keep_going, rec, ops)
    else:
        while keep_going():
            if rec is not None:
                rec.campaign = str(len(ops))
                root = rec.open("campaign")
                ops.append(workload.op())
                rec.close(root)
            else:
                ops.append(workload.op())
    wall = time.perf_counter() - t0
    return {"ops": ops, "wall_s": wall, "start_ns": start_ns,
            "end_ns": spans.now_ns()}


def percentile_ms(latencies: List[float], q: int) -> float:
    """The ``q``-th percentile in ms (``statistics.quantiles``, n=100)."""
    if len(latencies) < 2:
        return latencies[0] * 1e3 if latencies else 0.0
    return statistics.quantiles(latencies, n=100)[q - 1] * 1e3


def end_to_end(phase: Dict[str, Any]) -> Dict[str, float]:
    ops = phase["ops"]
    latencies = [op.latency_s for op in ops]
    return {"cells_per_s": sum(op.cells for op in ops) / phase["wall_s"],
            "campaign_ms_p50": percentile_ms(latencies, 50),
            "campaign_ms_p90": percentile_ms(latencies, 90)}


# -- per-layer figures ----------------------------------------------------------

def layer_metrics(rows: List[list], daemon_rows: List[list],
                  phase: Dict[str, Any], service: Optional[ServiceMixed],
                  ) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from one traced phase."""
    s = spans.summarize(rows + daemon_rows)
    ops = phase["ops"]
    cells = sum(op.cells for op in ops) or 1
    campaigns = len(ops) or 1

    def get(name: str, key: str) -> float:
        return s.get(name, {}).get(key, 0)

    def self_ms(name: str) -> float:
        return get(name, "self_ns") / 1e6

    def total_ms(name: str) -> float:
        return get(name, "total_ns") / 1e6

    def tag(name: str, value: str) -> int:
        return s.get(name, {}).get("tags", {}).get(value, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "sched.thread_sim.ms_per_cell": self_ms("sched.thread_sim") / cells,
        "sim.cpu.ms_per_cell": self_ms("sim.cpu") / cells,
        "sim.fluid.ms_per_cell": self_ms("sim.fluid") / cells,
        "sim.roofline.ms_per_cell": self_ms("sim.roofline") / cells,
        "sim.variability.ms_per_cell": self_ms("sim.variability") / cells,
        "gpu.warp_sim.ms_per_cell": self_ms("gpu.warp_sim") / cells,
        "models.lower.calls_per_cell": get("models.lower", "outer") / cells,
        "models.lower.ms_per_cell": self_ms("models.lower") / cells,
        "ir.passes.ms_per_cell": self_ms("ir.passes") / cells,
        "ir.analysis.ms_per_cell": self_ms("ir.analysis") / cells,
        "engine.run.ms_per_cell": self_ms("engine.run") / cells,
        "engine.fingerprint.ms_per_cell":
            self_ms("engine.fingerprint") / cells,
        "cache.get.calls_per_cell": get("cache.get", "count") / cells,
        "cache.get.ms_per_call": ratio(total_ms("cache.get"),
                                       get("cache.get", "count")),
        "cache.hit_ratio": ratio(tag("cache.get", "hit"),
                                 get("cache.get", "count")),
        "cache.put.calls_per_cell": get("cache.put", "count") / cells,
        "cache.put.ms_per_call": ratio(total_ms("cache.put"),
                                       get("cache.put", "count")),
        "cache.put.stored_ratio": ratio(tag("cache.put", "stored"),
                                        get("cache.put", "count")),
        "journal.append.calls_per_cell":
            get("journal.append", "count") / cells,
        "journal.fsyncs_per_cell": get("journal.fsync", "count") / cells,
        "journal.append.ms_per_cell": total_ms("journal.append") / cells,
        "harness.render.ms_per_campaign":
            total_ms("harness.render") / campaigns,
        "harness.decode.ms_per_cell": self_ms("harness.decode") / cells,
        "harness.table3.ms_per_pass": ratio(self_ms("harness.table3"),
                                            get("harness.table3", "count")),
    }
    m.update(service_metrics(rows, daemon_rows, s, campaigns, service,
                             cells if ops else 0))
    roots = [(r[1], r[2]) for r in rows if r[0] == "campaign"]
    uncovered = (phase["end_ns"] - phase["start_ns"]) - spans.union_ns(roots)
    m["other.ms_per_cell"] = (uncovered + get("campaign", "self_ns")) \
        / 1e6 / cells
    return m


def service_metrics(rows: List[list], daemon_rows: List[list],
                    s: Dict[str, Dict[str, Any]], campaigns: int,
                    service: Optional[ServiceMixed],
                    cells: int) -> Dict[str, float]:
    names = ("service.client.requests_per_campaign",
             "service.client.polls_per_campaign",
             "service.client.shed_retries", "service.submit.ms_p50",
             "service.queue_wait_ms_p50", "service.step.ms_per_call",
             "service.notify_lag_ms_p50", "service.dedup.hit_ratio")
    if service is None:
        return {name: 0.0 for name in names}

    def median_ms(values: List[float]) -> float:
        return statistics.median(values) / 1e6 if values else 0.0

    accepted = {r[5]: r[2] for r in daemon_rows if r[0] == "service.accept"}
    first_step: Dict[str, int] = {}
    last_step: Dict[str, int] = {}
    for r in daemon_rows:
        if r[0] == "service.campaign_step":
            first_step[r[4]] = min(first_step.get(r[4], r[1]), r[1])
            last_step[r[4]] = max(last_step.get(r[4], r[2]), r[2])
    waits = {r[4]: r[2] for r in rows if r[0] == "service.client.wait"}
    grants = [r[2] - r[1] for r in daemon_rows
              if r[0] == "service.step" and r[5] == "grant"]
    request = s.get("service.client.request", {})
    return {
        "service.client.requests_per_campaign":
            request.get("count", 0) / campaigns,
        "service.client.polls_per_campaign":
            s.get("service.client.poll", {}).get("count", 0) / campaigns,
        "service.client.shed_retries":
            float(request.get("tags", {}).get("OverloadError", 0)),
        "service.submit.ms_p50": median_ms(
            [r[2] - r[1] for r in rows if r[0] == "service.client.submit"]),
        "service.queue_wait_ms_p50": median_ms(
            [first_step[c] - accepted[c] for c in waits
             if c in accepted and c in first_step]),
        "service.step.ms_per_call":
            statistics.mean(grants) / 1e6 if grants else 0.0,
        "service.notify_lag_ms_p50": median_ms(
            [waits[c] - last_step[c] for c in waits if c in last_step]),
        "service.dedup.hit_ratio": service.dedup_ratio(cells),
    }


def self_checks(name: str, m: Dict[str, float],
                s: Dict[str, Dict[str, Any]]) -> List[str]:
    """Each workload must keep stressing the layer it was chosen for."""
    problems = []
    selfs = {k: v["self_ns"] for k, v in s.items()}

    def layer_self(*prefixes: str) -> int:
        return sum(v for k, v in selfs.items() if k.startswith(prefixes))

    if name in ("cpu-cold", "gpu-cold") and (
            m["cache.hit_ratio"] != 0 or m["cache.get.calls_per_cell"] == 0):
        problems.append(f"cache.hit_ratio is {m['cache.hit_ratio']}, "
                        f"expected 0 on a cold workload")
    if name == "table3-warm":
        if m["cache.hit_ratio"] != 1:
            problems.append(f"cache.hit_ratio is {m['cache.hit_ratio']}, "
                            f"expected 1")
        busy = sorted(k for k in s if k.startswith(
            ("sim.", "sched.", "gpu.", "journal.")))
        if busy:
            problems.append(f"warm passes ran {', '.join(busy)}")
    if name == "cpu-cold":
        top = max(selfs, key=selfs.get)
        if top != "sched.thread_sim":
            problems.append(f"largest self time is {top}, expected "
                            f"sched.thread_sim")
    if name == "gpu-cold":
        durable = layer_self("cache.put", "journal.")
        compute = layer_self("sim.", "gpu.", "ir.")
        if durable <= compute:
            problems.append(f"cache.put + journal self time "
                            f"({durable / 1e6:.1f} ms) does not exceed sim + "
                            f"gpu + ir ({compute / 1e6:.1f} ms)")
    if name == "service-mixed" and m["service.dedup.hit_ratio"] <= 0:
        problems.append("no cell was served by cross-campaign dedup")
    return problems


# -- main -----------------------------------------------------------------------

def make_workload(name: str, seed: int, workdir: str):
    if name == "cpu-cold":
        return ColdRuns("cpu", seed)
    if name == "gpu-cold":
        return ColdRuns("gpu", seed)
    if name == "table3-warm":
        return Table3Warm()
    return ServiceMixed(seed, workdir)


def verify_ops(workload, ops: List[Op]) -> None:
    reset_process_defaults()
    for op in ops:
        if not op.failure:
            op.failure = workload.verify(op)


def peak_rss_mb(workload) -> float:
    who = (resource.RUSAGE_CHILDREN if isinstance(workload, ServiceMixed)
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(args: argparse.Namespace, workload) -> Dict[str, Any]:
    """The timed phase(s) after set-up; the figures ``run.py`` reports."""
    result: Dict[str, Any] = {}
    info = {"workload": args.workload, "seed": args.seed,
            "host_cpus": os.cpu_count(),
            "python": platform.python_version()}
    service = workload if isinstance(workload, ServiceMixed) else None
    if args.trace == 0:
        phase = run_phase(workload, args.seconds, MIN_CAMPAIGNS, None)
        info["engine"] = (SERVICE_ENGINE if service else engine_mode())
        workload.close()
        result["end_to_end"] = dict(end_to_end(phase),
                                    peak_rss_mb=peak_rss_mb(workload))
        if service:
            info["dedup_share"] = service.dedup_ratio(
                sum(op.cells for op in phase["ops"]))
        phases = [phase]
    else:
        plain = run_phase(workload, args.seconds / 2, 1, None)
        info["engine"] = (SERVICE_ENGINE if service else engine_mode())
        rec = spans.Recorder()
        rec.active = False
        spans.install(rec)
        daemon_rows: List[list] = []
        if service:
            service.stop_daemon()
            service.start_daemon(traced=True)
        reset_process_defaults()
        rec.active = True
        traced = run_phase(workload, args.seconds / 2, 1, rec)
        rec.active = False
        if service:
            service.stop_daemon()
            daemon_rows = spans.load_spans(service.spans_path)
        rows = rec.rows()
        per_layer = layer_metrics(rows, daemon_rows, traced, service)
        plain_cps = end_to_end(plain)["cells_per_s"]
        traced_cps = end_to_end(traced)["cells_per_s"]
        per_layer["trace.overhead_frac"] = (1 - traced_cps / plain_cps
                                            if plain_cps else 0.0)
        result["per_layer"] = per_layer
        result["self_check_problems"] = self_checks(
            args.workload, per_layer, spans.summarize(rows + daemon_rows))
        info["traced_spans"] = len(rows) + len(daemon_rows)
        phases = [plain, traced]

    ops = [op for phase in phases for op in phase["ops"]]
    verify_ops(workload, ops)
    failures = [op.failure for op in ops if op.failure]
    result.update({"attempted": len(ops), "failed": len(failures),
                   "failures": failures[:5], "info": info,
                   "campaigns": len(phases[-1]["ops"])})
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=int, required=True,
                        help="CLOCK_MONOTONIC ns at which run.py spawned us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    for sub in ("cache", "runs", "xdg"):
        os.makedirs(os.path.join(args.workdir, sub), exist_ok=True)
    reset_process_defaults()
    workload = make_workload(args.workload, args.seed, args.workdir)
    try:
        workload.setup()
        setup_s = (spans.now_ns() - args.spawned_at) / 1e9
        result = {} if args.setup_only else measure(args, workload)
    finally:
        workload.close()
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
