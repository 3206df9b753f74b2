#!/usr/bin/env python3
"""Steadiness runner: repeat each workload N times with different seeds and
report, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median), as `statistics.quantiles(n=4)`
gives them.

A metric whose spread exceeds its bound in BENCHMARK.json is flagged
`OVER`; one above a third of its bound is flagged `near`. `setup_s` is
reported but never flagged by spread (its bound guards the median only).

Run from the repository root:

    python3 perfbench/steady.py --runs 10                # every workload
    python3 perfbench/steady.py --runs 5 --workload commit_chain
    python3 perfbench/steady.py --runs 10 --out .bench_out/steady.json
    python3 perfbench/steady.py --runs 10 --compare .bench_out/steady.json

`--compare` checks a second set of runs against a saved first set: a
median worse than the first set's by more than the metric's bound (in the
metric's direction) is flagged `WORSE`.

Exits 1 if a run fails or reports `correct: false`, a spread is over its
bound, or a median is `WORSE`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correct is false")
    return result, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--out", help="also write the summary as JSON here")
    ap.add_argument("--compare", help="summary JSON of an earlier set of runs")
    opts = ap.parse_args()
    if opts.runs < 2:
        ap.error("--runs must be at least 2")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}
    earlier = {}
    if opts.compare:
        with open(opts.compare) as f:
            earlier = json.load(f)
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]

    summary, bad = {}, False
    for workload in workloads:
        values, walls = {name: [] for name in bounds}, []
        for i in range(opts.runs):
            seed = opts.first_seed + i
            result, wall = run_once(bench["command"], workload, seed,
                                    bench["run_seconds"])
            walls.append(wall)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s wall", flush=True)
        summary[workload] = {"wall_s": max(walls), "metrics": {}}
        print(f"\n{workload}: {opts.runs} runs, slowest {max(walls):.1f} s")
        print(f"{'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}{'vs first':>10}")
        for name, bound in bounds.items():
            s = summarize(values[name])
            s["values"] = values[name]
            summary[workload]["metrics"][name] = s
            flag = ""
            if name != "setup_s":
                if s["spread"] > bound:
                    flag, bad = "OVER", True
                elif s["spread"] > bound / 3:
                    flag = "near"
            change = ""
            first = earlier.get(workload, {}).get("metrics", {}).get(name)
            if first:
                worse = (s["median"] - first["median"]) / first["median"]
                if name in higher:
                    worse = -worse
                change = f"{worse:+.4f}"
                if worse > bound:
                    flag, bad = (flag + " WORSE").strip(), True
            print(f"{name:<24}{s['median']:>14.6g}{s['q1']:>14.6g}"
                  f"{s['q3']:>14.6g}{s['spread']:>9.4f}{bound:>7}{change:>10}"
                  f"  {flag}")
        print()
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(summary, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
