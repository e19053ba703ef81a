"""Benchmark of surfdarcy on three workloads, run from the root of a checkout:

    python3 surfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: converge-p1-export, converge-p2-normal, positioning-sweep (see
README.md).  The program is imported from the checkout's `src/`.  One
worker process plays the workload; this process times the set-up in fresh
interpreters, measures the worker's peak memory, and prints every metric by
name with its unit, the problems attempted and failed, and as its last line
one JSON object.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones from a traced run.

Exit codes: 0 all checks passed, 1 a correctness check failed, 2 bad
arguments or no program to run, 3 the worker failed or no round completed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("converge-p1-export", "converge-p2-normal", "positioning-sweep")
SETUP_REPEATS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _environment():
    """Cap BLAS and OpenMP threads at the number of usable cores."""
    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    env.update({name: cores for name in THREAD_VARS})
    return env


def _setup_seconds(args, outdir, env):
    """Median time for a fresh interpreter to import and make the inputs."""
    command = [sys.executable, str(WORKER), *_worker_args(args, outdir), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _worker_args(args, outdir):
    return [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(outdir),
    ]  # fmt: skip


def _run_worker(args, outdir, env):
    """Play the workload in one process; returns (exit code, peak RSS in MB)."""
    with open(outdir / "worker.log", "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), *_worker_args(args, outdir)],
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss counts the worker and every descendant it waited for, in KiB
    return proc.returncode, usage.ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "surfdarcy" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'surfdarcy'} is missing", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    outdir = BENCH / "out" / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    env = _environment()

    setup_s = _setup_seconds(args, outdir, env)
    code, peak_mb = _run_worker(args, outdir, env)
    result_path = outdir / "result.json"
    if code != 0 or not result_path.is_file():
        print(f"worker exited with {code}; see {outdir / 'worker.log'}", file=sys.stderr)
        return 3
    result = json.loads(result_path.read_text())
    if not result["walls"]:
        print("no round completed: " + "; ".join(result["errors"]), file=sys.stderr)
        return 3

    if args.trace:
        wanted = spec["per_layer"]
        values = result["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(result["walls"]),
            "setup_s": setup_s,
            "peak_rss_mb": peak_mb,
            "unknowns_per_s": statistics.median(result["unknowns"] / w for w in result["walls"]),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not result["failed_checks"]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for ok, msg in result["checks"]:
        print(f"  [{'ok' if ok else 'FAILED'}] {msg}")
    for msg in result["failed_checks"]:
        print(f"  check failed: {msg}")
    for msg in result["errors"]:
        print(f"  problem failed: {msg}")
    print(f"problems attempted {result['attempted']}, failed {result['failed']}")
    print("untraced rounds: " + ", ".join(f"{w:.3f} s" for w in result["walls"]))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
