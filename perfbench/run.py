"""Benchmark of the `bwlab` command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client calls the public entry
point `bwlab.cli.main([...])` in this process in a closed loop: the next op
starts when the previous one has returned and its output has been checked.
The workloads and their output checks are in workloads.py.

--trace 0 reports the end-to-end metrics, with `bwlab` imported unpatched:
    wall_s        median seconds per op (one main() call: config parse,
                  compute, JSON render); a failed op counts as +inf
    setup_s       median wall time of SETUP_REPEATS fresh interpreters that
                  import bwlab.cli and parse the workload config
    peak_rss_mb   peak RSS of this process, which is fresh and has run only
                  the ops (the harness adds about 1 MB)
    success_rate  passing ops / attempted ops (= 1 - error rate)
--trace 1 alternates untraced and traced ops (spans.py) and reports the
per-layer metrics: self times and counts per traced op (medians), and
trace.overhead_s = median traced op - median untraced op.

An op fails if main() raises, returns a non-zero exit code, or its output
fails the check.  The last stdout line is the JSON result; details of every
op and the environment go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 11
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha():
    """HEAD of the checkout's own git repository; None in a checkout without one."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_seconds(config):
    """Wall time of a fresh interpreter that imports bwlab.cli and parses config."""
    t0 = perf_counter()
    # no timeout: with one, Popen.wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), config],
                   cwd=ROOT, check=True)
    return perf_counter() - t0


def closed_loop(seconds, op):
    """Call op() until `seconds` have passed (at least once); returns its results."""
    results = []
    t_end = perf_counter() + seconds
    while not results or perf_counter() < t_end:
        results.append(op())
    return results


def measure_end_to_end(workload, config, seed, seconds, run_op):
    setup = [setup_seconds(config) for _ in range(SETUP_REPEATS)]
    ops = closed_loop(seconds, lambda: run_op(workload, config, seed))
    errors = [err for _, err in ops]
    failed = sum(err is not None for err in errors)
    walls = [t if err is None else float("inf") for t, err in ops]
    # this process is a fresh interpreter that has run nothing but the ops
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "success_rate": ((len(ops) - failed) / len(ops), "ratio"),
    }
    detail = {"op_seconds": [t for t, _ in ops], "setup_seconds": setup}
    return metrics, errors, detail


def measure_per_layer(workload, config, seed, seconds, run_op, trace_path):
    from spans import Tracer

    tracer = Tracer()
    untraced, traced, summaries = [], [], []

    def pair():
        untraced.append(run_op(workload, config, seed))
        mark = tracer.mark()
        tracer.patch()
        try:
            traced.append(run_op(workload, config, seed))
        finally:
            tracer.unpatch()
        summaries.append(tracer.summary(mark))

    closed_loop(seconds, pair)
    tracer.save(trace_path)
    errors = [err for _, err in untraced + traced]
    traced_wall = statistics.median(t for t, _ in traced)

    metrics = {}
    for name in summaries[0]["layer_self_s"]:
        metrics[name] = (statistics.median(s["layer_self_s"][name] for s in summaries), "s")
    for name in summaries[0]["counts"]:
        unit = "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (statistics.median(s["counts"][name] for s in summaries), unit)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(t for t, _ in untraced), "s")
    detail = {
        "untraced_seconds": [t for t, _ in untraced],
        "traced_seconds": [t for t, _ in traced],
        "self_time_sums": [sum(s["layer_self_s"].values()) for s in summaries],
        "spans_per_op": [s["spans"] for s in summaries],
        "spans_file": os.path.relpath(trace_path, ROOT),
    }
    return metrics, errors, detail


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bwlab", "cli.py")):
        print(f"error: no bwlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, run_op

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    config = workload.write_config(args.seed, OUT)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        metrics, errors, detail = measure_per_layer(
            workload, config, args.seed, args.seconds, run_op, stem + ".spans.npz")
    else:
        metrics, errors, detail = measure_end_to_end(
            workload, config, args.seed, args.seconds, run_op)
    failed = sum(err is not None for err in errors)
    result = {
        "correct": failed == 0,
        "attempted": len(errors),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"environment": environment(args), "result": result,
              "errors": [e for e in errors if e is not None], **detail}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"# details: {os.path.relpath(stem + '.json', ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
