"""One fresh interpreter of the benchmark: set up a workload, then run it.

Started by run.py, never by hand. It prints ``ready`` once normwave is
imported and the inputs are built, so the parent can time set-up, then

  --mode setup   exits at once;
  --mode run     runs whole rounds of the operation list for as long as
                 another round should end within --seconds, samples the
                 host's speed between operations (calibrate.py), and prints
                 one JSON line of timings and checks;
  --mode trace   runs one round untraced and one traced, and prints the
                 per-layer metrics; the spans go to --trace-file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

START = time.perf_counter()
import normwave  # noqa: E402,F401  (the first import is what set-up measures)

IMPORT_S = time.perf_counter() - START

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_round(wl, log, reference=None) -> dict:
    """Run the operation list once; time each operation, then check it.

    ``times`` follows the order of ``wl.ops``, with None for a failed
    operation; ``total`` is the sum of the others. A ``calibrate.Reference``
    gets its chance to sample after each operation, outside the timing.
    """
    times, summaries, problems, failed = [], [], [], 0
    for op in wl.ops:
        wl.prepare(op)
        t0 = time.perf_counter()
        try:
            result = wl.run(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            times.append(None)
            log(f"FAILED {op.label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            if reference is not None:
                reference.maybe_sample()
            continue
        times.append(time.perf_counter() - t0)
        if reference is not None:
            reference.maybe_sample()
        summary, found = wl.check(op, result)
        del result
        summaries.append(summary)
        problems += found
    problems += wl.check_round(summaries)
    return {"times": times, "total": sum(t for t in times if t is not None),
            "attempted": len(wl.ops), "failed": failed, "problems": problems}


def run_rounds(wl, seconds: float, log, children: bool = False):
    """Whole rounds for at most ``seconds``, or one round if that is longer.

    Another round starts only if it should end within ``seconds``, judged by
    the slowest round so far. Returns the rounds, the peak memory after the
    first one, so that it does not grow with the number of rounds a fast
    machine fits in (``children``: of the largest child process), and the
    host's speed factor over the run (see calibrate.py).
    """
    reference = calibrate.Reference()
    start = time.perf_counter()
    rounds = [run_round(wl, log, reference)]
    rss = peak_rss_mb(children)
    longest = time.perf_counter() - start
    while time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        rounds.append(run_round(wl, log, reference))
        longest = max(longest, time.perf_counter() - t0)
    return rounds, rss, reference.speed_factor()


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)

    in_process = args.mode == "trace"
    wl = workloads.build(args.workload, args.seed, Path(args.out_dir),
                         in_process=in_process)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    try:
        if args.mode == "run":
            rounds, rss, factor = run_rounds(
                wl, args.seconds, log, args.workload == "cli_subcommands")
            out = {"rounds": rounds, "peak_rss_mb": rss,
                   "speed_factor": factor}
        else:
            plain = run_round(wl, log)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_round(wl, log)
            finally:
                tracer.uninstall()
            if args.trace_file:
                tracer.dump(args.trace_file)
            layers = tracer.metrics()
            layers["import.normwave.s"] = IMPORT_S
            layers["trace.overhead_s"] = traced["total"] - plain["total"]
            out = {"rounds": [plain, traced], "layers": layers}
    finally:
        wl.close()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
