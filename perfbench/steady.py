"""Steadiness study: run the benchmark on several seeds per workload and
report, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median); also one traced run per
workload, for the tracing overhead.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Runs every workload of BENCHMARK.json for its run_seconds, on seeds
first-seed to first-seed + runs - 1.  Writes
.perfbench_out/steady_<first-seed>.json and prints a Markdown table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["log"] = proc.stderr.strip().splitlines()[-1]
    return out


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    print("| workload | metric | q1 | median | q3 | spread | bound | failed/attempted |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for w in (wl["name"] for wl in spec["workloads"]):
        runs = [bench(w, args.first_seed + k, seconds, 0)
                for k in range(args.runs)]
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        rep = {"runs": runs, "metrics": {}}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3, sp = spread(vals)
            rep["metrics"][name] = {"values": vals, "q1": q1, "median": med,
                                    "q3": q3, "spread": sp}
            unit = runs[0]["metrics"][name]["unit"]
            print(f"| {w} | {name} ({unit}) | {q1:.4g} | {med:.4g} | {q3:.4g} "
                  f"| {sp:.3f} | {bounds.get(name)} | "
                  f"{', '.join(f'{a}/{b}' for a, b in shares)} |", flush=True)
        traced = bench(w, args.first_seed, seconds, 1)
        rep["traced"] = traced
        t_run = traced["metrics"]["trace.run_s"]["value"]
        base = rep["metrics"]["run_s"]["median"]
        rep["trace_overhead_s"] = t_run - base
        print(f"| {w} | tracing overhead (s) | | {t_run - base:.3f} | | "
              f"{(t_run - base) / base:.3f} | | |", flush=True)
        report[w] = rep
    os.makedirs(".perfbench_out", exist_ok=True)
    with open(os.path.join(".perfbench_out", f"steady_{args.first_seed}.json"),
              "w") as f:
        json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
