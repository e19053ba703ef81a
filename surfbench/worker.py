"""One workload in one process: make the inputs, play whole rounds until the
timed work fills the run length, check every round's outputs, and write the
result as JSON.  Started by run.py, which measures this process's memory.

With --setup-only it stops after making the inputs; run.py times that in a
fresh interpreter as the set-up cost.  With --trace 1 it plays untraced
rounds for half the run length and then traced rounds for the other half.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import surfdarcy  # noqa: E402  (imports NumPy and SciPy)

if not Path(surfdarcy.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"surfdarcy was imported from {surfdarcy.__file__}, not from {ROOT / 'src'}")

from tracing import Tracer  # noqa: E402
from workloads import NUMERICAL_FAILURES, WORKLOADS, RoundFailed  # noqa: E402


def play(workload, inputs, seconds, tracer=None):
    """Whole rounds until their timed total reaches `seconds` (at least one)."""
    played = {
        "walls": [],
        "attempted": 0,
        "failed": 0,
        "errors": [],
        "checks": [],
        "failed_checks": [],
    }
    elapsed = 0.0
    while elapsed < seconds or played["attempted"] == 0:
        start = time.perf_counter()
        try:
            if tracer is None:
                output = workload.run(inputs)
            else:
                output = tracer.run_round(workload.entry, workload.run, inputs)
        except (RoundFailed, *NUMERICAL_FAILURES) as exc:
            output = exc
        wall = time.perf_counter() - start
        elapsed += wall
        played["attempted"] += workload.problems
        if isinstance(output, Exception):
            played["failed"] += workload.problems
            played["errors"].append(f"{type(output).__name__}: {output}")
            continue
        played["walls"].append(wall)
        played["checks"] = [(bool(ok), msg) for ok, msg in workload.check(inputs, output)]
        played["failed_checks"] += [msg for ok, msg in played["checks"] if not ok]
    return played


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.out)
    if args.setup_only:
        return 0

    # a traced run splits its length between the untraced and traced rounds
    seconds = args.seconds / 2 if args.trace else args.seconds
    result = play(workload, inputs, seconds)
    result["unknowns"] = workload.unknowns(inputs) if result["walls"] else 0
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = play(workload, inputs, seconds, tracer)
        finally:
            tracer.remove()
        tracer.dump(args.out / "trace.json")
        rounds = tracer.round_metrics()
        layers = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
        layers["trace.overhead_s"] = statistics.median(traced["walls"]) - statistics.median(
            result["walls"]
        )
        result["layers"] = layers
        for key in ("attempted", "failed", "errors", "failed_checks"):
            result[key] += traced[key]
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
