"""dosfl benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn and prints one report each.

``--trace 0`` times set-up in fresh probe processes, then measures the
workload untraced in a fresh worker process and prints the end-to-end
metrics.  ``--trace 1`` runs the traced worker and prints the per-layer
metrics.  Every line before the last is for people; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when a correctness check failed and 2 when a worker could not run
(for instance when the dosfl sources are not next to this directory).

The loop is closed: one process runs one experiment at a time.  BLAS threads
in the workers are capped at the number of usable cores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 3
DEADLINE_S = 170  # the whole command, probes and workers, ends within this


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> tuple[dict[str, str], int]:
    cores = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cores)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every probe pays the same compile cost
    return env, cores


def run_worker(args: list[str], env: dict[str, str], deadline: float) -> tuple[dict, float]:
    """Run worker.py to completion; returns its JSON line and the start time."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                              timeout=max(deadline - started, 1.0),
                              capture_output=True, text=True, check=False)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {args[0]} ran past the {DEADLINE_S} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1]), started


def setup_seconds(workload: str, seed: int, env: dict[str, str],
                  deadline: float) -> list[float]:
    """Process start through import, to_setup and the first prepare_shards."""
    times = []
    for _ in range(SETUP_PROBES):
        out, started = run_worker(["probe", "--workload", workload, "--seed", str(seed)],
                                  env, deadline)
        times.append(out["done"] - started)
    return times


def workload_names() -> list[str]:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from workloads import WORKLOADS
    return sorted(WORKLOADS)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    """Measure one workload and print its report; returns the exit code."""
    deadline = time.monotonic() + DEADLINE_S
    env, cores = worker_env()
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        if trace:
            result, _ = run_worker(["traced", *common], env, deadline)
        else:
            probes = setup_seconds(workload, seed, env, deadline)
            result, _ = run_worker(["measure", *common], env, deadline)
            result["metrics"]["setup_s"] = (statistics.median(probes), "s", len(probes))
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 2

    print(f"workload {workload} seed {seed} seconds {seconds:g} trace {trace} "
          f"(closed loop, one experiment at a time, BLAS threads {cores})")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, (value, unit, samples) in sorted(result["metrics"].items()):
        print(f"  {name:42s} {value:14.6f} {unit:12s} n={samples}")
    for name in result.get("absent", []):
        print(f"  {name:42s} {'absent':>14s}   (span expected on this workload never fired)")
    for error in result["errors"]:
        print(f"FAILED {error}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in sorted(result["metrics"].items())},
    }), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workload_names() if args.workload == "all" else [args.workload]
    return max(run_one(name, args.seed, args.seconds, args.trace) for name in names)


if __name__ == "__main__":
    sys.exit(main())
