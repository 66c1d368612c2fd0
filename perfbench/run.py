"""Benchmark of the rzk pipeline through its command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of demo, sweep, sampled, halanay (see README.md).  The run
writes the workload's inputs from the seed under .perfbench_out/, times
the set-up in fresh interpreters, runs whole rounds of the workload's rzk
commands, each in a fresh worker process, for S seconds, checks the
outputs against
oracles.py, and prints one JSON object as its last line of standard
output.  With --trace 0 the metrics are the end-to-end ones (setup_s,
run_s, peak_rss_mb); with --trace 1 the worker records spans around each
rzk layer and the metrics are the per-layer ones.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import speed
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_out"
# fresh interpreters per run for setup_s; the first also writes the
# bytecode caches and is not counted
SETUP_PROBES = 9
# no round starts after `seconds`, but the first round runs until this
# many seconds from the start of the run, so that a slow program is
# still measured; a round cut at this limit is reported, not timed
RUN_TIMEOUT = 170.0


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread: the box has 2 cores and the runs are single-lane
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("RZK_LOG", None)
    return env


def setup_seconds(argv, env):
    """Reference-speed set-up time of one fresh interpreter, scaled by the
    speed kernel timed just before it."""
    kern = speed.kernel_median(5)
    spawn = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), repr(spawn),
         json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) * speed.REF_S / kern


def run_worker(spec, work, env, deadline):
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           spec_path], env=env, stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(spec["result"]) as f:
        return json.load(f)


def run_rounds(spec, work, env, seconds, deadline):
    """Whole rounds, each in a fresh worker process, until `seconds` have
    passed; at least one, unless the first is cut at the deadline.  A
    later round cut at the deadline is dropped.  No round inherits
    another's memory layout or warmed-up state: each is a first call, as
    a user's rzk command is."""
    rounds = []
    t_end = time.monotonic() + seconds
    while not rounds or time.monotonic() < t_end:
        k = len(rounds)
        spec = dict(spec, trace_file=os.path.join(work, f"spans_{k}.npz"))
        try:
            rounds.append(run_worker(spec, work, env, deadline))
        except subprocess.TimeoutExpired:
            print(f"round {k} cut at the {RUN_TIMEOUT:.0f} s limit",
                  file=sys.stderr)
            break
    return rounds


def cut_result(args, metrics, started):
    """The result of a run whose first round was cut: the round's wall
    time so far, a lower bound, and the peak memory of the cut worker;
    nothing was checked, so it is not correct."""
    if args.trace:
        metrics = {"trace.run_s": {"value": time.monotonic() - started,
                                   "unit": "s"}}
    else:
        metrics["run_s"] = {"value": time.monotonic() - started, "unit": "s"}
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rzk", "__init__.py")):
        print(f"no rzk package under {src}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = os.path.join(root, WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env(src)
    inputs = wl.make_inputs(args.workload, args.seed, work)

    metrics = {}
    if not args.trace:
        probe_out = os.path.join(work, "probe")
        times = [setup_seconds(wl.setup_argv(inputs, probe_out), env)
                 for _ in range(SETUP_PROBES + 1)][1:]
        metrics["setup_s"] = {"value": statistics.median(times), "unit": "s"}

    spec = {"src": src, "commands": inputs.commands, "out": inputs.out,
            "trace": bool(args.trace),
            "result": os.path.join(work, "result.json")}
    started = time.monotonic()
    rounds = run_rounds(spec, work, env, args.seconds, deadline)
    if not rounds:
        print(json.dumps(cut_result(args, metrics, started)))
        return 0
    run_s = statistics.median(r["ref_s"] for r in rounds)

    outputs = rounds[0]["outputs"]
    verdicts = wl.CHECKS[args.workload](inputs, outputs)
    differing = sum(r["outputs"] != outputs for r in rounds)
    verdicts.need(differing == 0, f"{differing} rounds differ from the first")
    for line in verdicts.failed:
        print(f"failed operation: {line}", file=sys.stderr)
    for line in verdicts.problems:
        print(f"incorrect: {line}", file=sys.stderr)

    if args.trace:
        for name, (_, unit) in rounds[0]["layers"].items():
            value = statistics.mean(r["layers"][name][0] for r in rounds)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.run_s"] = {"value": run_s, "unit": "s"}
    else:
        metrics["run_s"] = {"value": run_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": max(r["peak_rss_mb"] for r in rounds),
                                  "unit": "MB"}
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds; wall s, "
          "speed kernel ms: " + ", ".join(
              f"{r['round_s']:.3f} {1e3 * r['kernel_s']:.3f}" for r in rounds),
          file=sys.stderr)
    print(json.dumps({"correct": not verdicts.problems,
                      "attempted": len(rounds) * verdicts.attempted,
                      "failed": len(rounds) * len(verdicts.failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
