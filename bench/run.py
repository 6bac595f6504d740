"""Benchmark of normwave: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout (it imports normwave from ./src):

    python3 bench/run.py --workload normalized_solves --seed 1 --seconds 30 --trace 0

Workloads: radial_ground_states, normalized_solves, cli_subcommands (see
bench/README.md). Every number comes from fresh interpreters started here
one at a time, with BLAS and OpenMP pinned to one thread:

* set-up: SETUP_SAMPLES interpreters each import normwave and build the
  workload's inputs; ``setup_s`` is the median time from spawn to ready.
  The last of them goes on to run the workload.
* --trace 0: whole rounds of the operation list for at most --seconds (or
  one round, where a round is longer); prints setup_s, wall_s, op_p50_s,
  op_tail_s and peak_rss_mb. The three operation times are scaled to the
  reference speed by the host speed measured between the operations
  (calibrate.py), so that a slow spell of the shared host does not move
  them; the unscaled times are printed on the line before the result.
* --trace 1: one round untraced, one round traced (the CLI workload calls
  cli.main in-process); prints every per-layer metric and writes the spans
  under bench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when a result was
printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing  # stdlib only, so normwave stays out of this process

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("radial_ground_states", "normalized_solves", "cli_subcommands")
SETUP_SAMPLES = 5
TAIL_MIN_BEYOND = 10  # a tail percentile needs this many samples beyond it
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it. With fewer than 40 samples that would be no tail, and
    the median is reported with percentile 50."""
    xs = sorted(samples)
    n = len(xs)
    if n < 4 * TAIL_MIN_BEYOND:
        return 50.0, statistics.median(xs)
    for q in range(99, 49, -1):
        k = math.ceil(q / 100.0 * n) - 1  # inverted-CDF percentile index
        if n - 1 - k >= TAIL_MIN_BEYOND:
            return float(q), xs[k]
    raise AssertionError("unreachable for n >= 40")


class Worker:
    """One worker.py interpreter; ``ready_s`` is its time from spawn to ready."""

    def __init__(self, args, mode: str, deadline: float, trace_file=None):
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode,
               "--out-dir", str(OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}")]
        if trace_file:
            cmd += ["--trace-file", str(trace_file)]
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     cwd=ROOT, env=child_env())
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        if line.strip() != "ready":
            self.finish()
            raise BenchError(f"worker did not get ready ({mode})")

    def finish(self) -> str:
        """Wait for the worker; return its last line of output."""
        try:
            out, _ = self.proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("worker ran past the deadline") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        lines = [ln for ln in out.splitlines() if ln.strip()]
        return lines[-1] if lines else ""


def measure(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        worker = Worker(args, "trace", deadline, trace_file)
        data = json.loads(worker.finish())
        metrics = {name: {"value": data["layers"][name], "unit": unit}
                   for name, unit in tracing.metric_names()}
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            probe = Worker(args, "setup", deadline)
            probe.finish()
            setups.append(probe.ready_s)
        worker = Worker(args, "run", deadline)
        setups.append(worker.ready_s)
        data = json.loads(worker.finish())
        metrics = end_to_end(data, setups)
    rounds = data["rounds"]
    problems = sorted({p for r in rounds for p in r["problems"]})
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    return {"correct": not problems,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics}


def end_to_end(data: dict, setups: list[float]) -> dict:
    rounds = data["rounds"]
    # Every round repeats the same operations, so an operation's time is the
    # median of its repeats, and the percentiles are taken over operations:
    # they do not shift with the number of rounds a run fits in.
    per_op = []
    for repeats in zip(*(r["times"] for r in rounds)):
        done = [t for t in repeats if t is not None]
        if done:
            per_op.append(statistics.median(done))
    q, op_tail = tail(per_op)
    wall = statistics.median(r["total"] for r in rounds)
    p50 = statistics.median(per_op)
    # Operation times are scaled to the reference speed of calibrate.py by
    # the speed the host had during this run.
    factor = data["speed_factor"]
    print(f"{len(rounds)} round(s) of {len(per_op)} timed operations; "
          f"op_tail_s is percentile {q:g}; set-up samples "
          + ", ".join(f"{s:.3f}" for s in setups)
          + f"; speed factor {factor:.4f}; unscaled wall_s {wall:.4f}, "
          f"op_p50_s {p50:.5f}, op_tail_s {op_tail:.5f}")
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall * factor, "s"),
        "op_p50_s": (p50 * factor, "s"),
        "op_tail_s": (op_tail * factor, "s"),
        "peak_rss_mb": (data["peak_rss_mb"], "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "normwave" / "__init__.py").is_file():
        print(f"bench: no normwave sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except (BenchError, ValueError) as exc:  # ValueError: unreadable result
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
