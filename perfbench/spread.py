#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each workload (from the
repository root) and prints, per metric, the median of the runs and the
distance between their first and third quartile as a share of the median,
next to the metric's bound. `--save` writes every value to a JSON file;
`--against` reads such a file from an earlier set of runs and also checks
that no median got worse than the earlier one by more than the bound:

    python3 perfbench/spread.py --seeds 0-9 [--workload sweep-cold] [--trace 1]
        [--save first.json] [--against first.json]
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    saved = {}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        values = saved.setdefault(workload, {})
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: incorrect: {result}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(median) if median else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and not spread < bound / 3:
                flag = "  <-- above a third of the bound"
                ok = ok and spread <= bound
            print(f"  {workload:<11} {name:<34} median {median:<12.6g} spread {spread:.4f}"
                  f" bound {bound}{flag}")
            before = earlier.get(workload, {}).get(name)
            if before and bound is not None:
                before = statistics.median(before)
                worse = (median - before) / before
                if not lower_is_better[name]:
                    worse = -worse
                regressed = worse > bound
                ok = ok and not regressed
                print(f"  {'':<11} {'':<34} earlier median {before:<12.6g} worse by {worse:+.4f}"
                      + ("  <-- beyond the bound" if regressed else ""))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
