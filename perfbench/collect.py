"""Run the benchmark once per seed on each workload and summarise the runs.

    python3 perfbench/collect.py --seeds 0-9 [--trace 0|1] [--workloads A,B]
                                 [--out FILE]

Reads the command, run length and metrics from BENCHMARK.json.  For every
workload and metric it reports the median, the quartiles of
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median, next to
the metric's bound; with --out the summary and every run's result are written
as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--out")
    args = p.parse_args(argv)
    declared = bench["per_layer" if args.trace else "end_to_end"]

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["run_s"] = seed, time.perf_counter() - t0
            runs.append(result)
            print(workload, seed, f"{result['run_s']:.1f}s", result["correct"],
                  f"{result['failed']}/{result['attempted']} failed",
                  {k: f"{v['value']:.6g}" for k, v in result["metrics"].items()
                   if args.trace == 0}, flush=True)
        metrics = {m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in runs])
                   for m in declared}
        summary[workload] = {"metrics": metrics, "runs": runs}
        for m in declared:
            s = metrics[m["name"]]
            print(f"  {workload} {m['name']}: median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}"
                  + (f" bound {m['bound']}" if "bound" in m else ""), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
