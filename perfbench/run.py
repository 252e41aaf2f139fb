"""The repo's benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: ``cpu-cold``, ``gpu-cold``,
``table3-warm`` and ``service-mixed``; ``BENCHMARK.json`` lists the two
steady enough to gate on (README.md says why each exists).
The workload runs in a process of its own with a private cache, runs
directory and daemon socket under ``.perfbench-work/``, which is removed
afterwards; every inherited ``REPRO_*`` variable is dropped.  With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
the per-layer ones.  The last line of stdout is the JSON result; the
exit code is nonzero when any output was wrong or a workload self-check
failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("cpu-cold", "gpu-cold", "table3-warm", "service-mixed")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Every child must be done by then, so the run ends within 180 s.
CHILD_TIMEOUT_S = 120.0
SETUP_TIMEOUT_S = 25.0

HERE = os.path.dirname(os.path.abspath(__file__))


def units(kind: str) -> "dict[str, str]":
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    with open("BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def child_env(workdir: str) -> "dict[str, str]":
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    # The build step compiled the sources; children read the bytecode.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = os.path.abspath(os.path.join(workdir, "cache"))
    env["REPRO_RUNS_DIR"] = os.path.abspath(os.path.join(workdir, "runs"))
    env["REPRO_SERVICE_SOCKET"] = os.path.join(workdir, "service.sock")
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(workdir, "xdg"))
    return env


def spawn(args: argparse.Namespace, workdir: str, setup_only: bool,
          timeout: float) -> dict:
    """Run one workload process; returns the JSON object it printed."""
    os.makedirs(workdir, exist_ok=True)
    argv = [sys.executable, os.path.join(HERE, "workload.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", workdir]
    if setup_only:
        argv.append("--setup-only")
    spawned_at = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    # A session of its own, so a timeout also takes down its daemon.
    proc = subprocess.Popen(argv + ["--spawned-at", str(spawned_at)],
                            env=child_env(workdir), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {args.workload} did not finish within "
                         f"{timeout:g}s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {args.workload} process exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2

    # The build: bytecode for the package and the benchmark, so set-up
    # time measures imports, not compilation.
    if not (compileall.compile_dir("src", quiet=1)
            and compileall.compile_dir(HERE, quiet=1)):
        print("perfbench: src/ does not compile", file=sys.stderr)
        return 2

    work = os.path.join(".perfbench-work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        main_result = spawn(args, os.path.join(work, "main"), False,
                            CHILD_TIMEOUT_S)
        setups = [main_result["setup_s"]]
        if args.trace == 0:
            for i in range(1, SETUPS):
                setups.append(spawn(args, os.path.join(work, f"setup-{i}"),
                                    True, SETUP_TIMEOUT_S)["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".perfbench-work")
        except OSError:
            pass

    attempted = main_result["attempted"]
    failed = main_result["failed"]
    problems = main_result.get("self_check_problems", [])
    if args.trace == 0:
        values = dict(main_result["end_to_end"],
                      setup_s=statistics.median(setups))
        wanted = units("end_to_end")
    else:
        values = main_result["per_layer"]
        wanted = units("per_layer")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in wanted.items()}

    info = main_result["info"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    print(f"  {'failed_frac':40s} {failed / max(1, attempted):14.4f} "
          f"({failed} of {attempted} campaigns)")
    print(f"  latency samples: {main_result['campaigns']}; "
          f"set-ups: {', '.join(f'{s:.3f}' for s in setups)} s")
    print("  " + ", ".join(f"{k}={v}" for k, v in info.items()))
    for failure in main_result["failures"]:
        print(f"  FAILED: {failure}", file=sys.stderr)
    for problem in problems:
        print(f"  SELF-CHECK: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
