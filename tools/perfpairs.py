"""Interleaved pairs of benchmark runs on two checkouts, with the figures
perfbench/run.py does not report.

Usage, from anywhere:

    python3 tools/perfpairs.py BEFORE AFTER --workload NAME --seeds 1-10 \
        [--seconds 6] [--rounds 3] [--out pairs.json]

BEFORE and AFTER are roots of checkouts without bytecode caches (copies
made with `git archive`, say).  For each seed, each side runs
`perfbench/run.py --workload NAME --seed SEED --seconds S --trace 0`,
BEFORE first on odd seeds and AFTER first on even ones.  Each side then
runs ROUNDS more rounds of the workload's commands, each in a fresh
process that calls perfbench's worker and afterwards reads getrusage: the
round's raw wall time (`round_s`, not scaled to reference speed), the CPU
seconds of the worker process and of the children it forked and reaped,
and the largest peak RSS of those children.  perfbench's own
`peak_rss_mb` is the worker's `RUSAGE_SELF` and its tracer runs in the
worker, so neither sees a forked child.  Every process runs with
PYTHONDONTWRITEBYTECODE=1, so no side gains bytecode caches the other
lacks.

Prints one line per pair and side, then per metric the medians of both
sides, the change in per cent, the pairs in which AFTER is lower, and the
spread between BEFORE's quartiles, and per side the runs perfbench found
incorrect and the share of its operations that failed; with --out, writes
all of it as JSON, each side of a pair with perfbench's `correct`,
`failed` and `attempted`.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

METRICS = ("setup_s", "run_s", "peak_rss_mb", "round_s", "worker_cpu_s",
           "children_cpu_s", "children_peak_rss_mb")


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


def measured_round(spec_path):
    """Run one round of perfbench's worker in this process, then print its
    raw wall time and the getrusage figures as JSON."""
    sys.path.insert(0, os.path.join(os.getcwd(), "perfbench"))
    import worker
    worker.main(spec_path)
    with open(spec_path) as f:
        result_path = json.load(f)["result"]
    with open(result_path) as f:
        result = json.load(f)
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({"round_s": result["round_s"], "worker_cpu_s": _cpu(own),
                      "children_cpu_s": _cpu(kids),
                      "children_peak_rss_mb": kids.ru_maxrss / 1024.0}))


def write_spec(workload, seed):
    """Write the inputs and the worker spec of one round, as run.py does,
    and print the spec's path."""
    sys.path.insert(0, os.path.join(os.getcwd(), "perfbench"))
    import workloads as wl
    work = os.path.join(os.getcwd(), ".perfbench_out", "pairs")
    os.makedirs(work, exist_ok=True)
    inputs = wl.make_inputs(workload, seed, work)
    spec = {"src": os.path.join(os.getcwd(), "src"),
            "commands": inputs.commands, "out": inputs.out, "trace": False,
            "result": os.path.join(work, "result.json")}
    path = os.path.join(work, "spec.json")
    with open(path, "w") as f:
        json.dump(spec, f)
    print(path)


def _env(root):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("RZK_LOG", None)
    return env


def _last_line(args, root):
    proc = subprocess.run([sys.executable] + args, cwd=root, env=_env(root),
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()[-1]


def one_side(root, workload, seed, seconds, rounds):
    """The metrics of one side of a pair."""
    bench = json.loads(_last_line(
        ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"], root))
    out = {k: v["value"] for k, v in bench["metrics"].items()}
    out.update((k, bench[k]) for k in ("correct", "failed", "attempted"))
    me = os.path.abspath(__file__)
    spec = _last_line([me, "--spec", workload, str(seed)], root)
    raw = [json.loads(_last_line([me, "--round", spec], root))
           for _ in range(rounds)]
    for key in raw[0]:
        out[key] = statistics.median(r[key] for r in raw)
    return out


def _seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def _has_bytecode(root):
    return any("__pycache__" in dirs for sub in ("src", "perfbench")
               for _, dirs, _ in os.walk(os.path.join(root, sub)))


def summary(pairs):
    """Per metric: medians of both sides, change in per cent, pairs with
    AFTER lower, and the spread between BEFORE's quartiles.  Per side:
    the incorrect runs and the share of operations that failed."""
    out = {}
    for side in ("before", "after"):
        runs = [p[side] for p in pairs]
        tried = sum(r["attempted"] for r in runs)
        out[side] = {"incorrect": sum(not r["correct"] for r in runs),
                     "failed_share": (sum(r["failed"] for r in runs) / tried
                                      if tried else None)}
    for key in METRICS:
        before = [p["before"][key] for p in pairs if key in p["before"]]
        after = [p["after"][key] for p in pairs if key in p["after"]]
        if not before or len(before) != len(after):
            continue
        q = statistics.quantiles(before, n=4) if len(before) > 1 else [0, 0, 0]
        mb, ma = statistics.median(before), statistics.median(after)
        out[key] = {"before": mb, "after": ma,
                    "change_pct": 100.0 * (ma - mb) / mb if mb else None,
                    "after_lower": sum(a < b for a, b in zip(after, before)),
                    "pairs": len(before), "before_iqr": q[2] - q[0]}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before", nargs="?")
    ap.add_argument("after", nargs="?")
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--out")
    ap.add_argument("--spec", nargs=2, help=argparse.SUPPRESS)
    ap.add_argument("--round", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.spec:
        return write_spec(args.spec[0], int(args.spec[1]))
    if args.round:
        return measured_round(args.round)
    if not (args.before and args.after and args.workload):
        ap.error("BEFORE, AFTER and --workload are required")
    roots = {"before": os.path.abspath(args.before),
             "after": os.path.abspath(args.after)}
    for root in roots.values():
        if _has_bytecode(root):
            ap.error(f"{root} holds bytecode caches: use a fresh copy")
    pairs = []
    for seed in _seeds(args.seeds):
        order = ("before", "after") if seed % 2 else ("after", "before")
        pair = {"seed": seed}
        for side in order:
            t0 = time.monotonic()
            pair[side] = one_side(roots[side], args.workload, seed,
                                  args.seconds, args.rounds)
            print(f"seed {seed} {side}: " + ", ".join(
                f"{k} {pair[side][k]:.4g}" for k in METRICS
                if k in pair[side]) + f" ({time.monotonic() - t0:.0f} s)",
                flush=True)
        pairs.append(pair)
    table = summary(pairs)
    for key, row in table.items():
        if key not in METRICS:
            print(f"{key}: {row['incorrect']} incorrect runs, failed share "
                  f"{row['failed_share']}")
            continue
        pct = row["change_pct"]
        print(f"{key}: {row['before']:.4g} -> {row['after']:.4g} ("
              + ("n/a" if pct is None else f"{pct:+.1f} %")
              + f"), lower in {row['after_lower']}/{row['pairs']}, "
              f"before IQR {row['before_iqr']:.3g}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "roots": roots,
                       "seconds": args.seconds, "pairs": pairs,
                       "summary": table}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
