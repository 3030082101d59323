"""Self-test of the benchmark harness (not of the program).

    python3 perfbench/selftest.py

Checks, on the cheap scan workload:
  * two traced runs give identical counts for residues.pole_integrals,
    propagators.xj_builds, bw.iterations and bw.resolvent_solves;
  * per traced op, the summed layer self times do not exceed the op's wall;
  * both modes print exactly the metrics BENCHMARK.json declares;
  * one injected failing op is recorded with its exception type and lowers
    success_rate (and sets correct to false), instead of crashing the run;
  * the scan check passes the program's output and rejects it once one
    difference has moved by 1e-8 relative, or the fitted exponent by 1e-8.
It also reports, without asserting, what the harness records for two inputs
on which the program raises today: jittered verify at seed 6 (the quadrature
oracle aborts) and scan with a zero delta coupling (NaN ratio).
"""

import contextlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from bwlab import cli  # noqa: E402
from workloads import VERIFY_JITTERED, WORKLOADS, CheckFailed, run_op  # noqa: E402

STABLE_COUNTS = ("residues.pole_integrals", "propagators.xj_builds",
                 "bw.iterations", "bw.resolvent_solves")
WORKLOAD = "scan-d4-k1"


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def details(seed, trace):
    with open(os.path.join(run.OUT, f"{WORKLOAD}-seed{seed}-trace{trace}.json")) as fh:
        return json.load(fh)


def rejects(workload, report, seed):
    try:
        workload.check(report, seed)
    except CheckFailed:
        return True
    return False


def check(cond, message):
    print(("ok    " if cond else "FAIL  ") + message)
    return bool(cond)


def main():
    ok = True
    first = bench("--workload", WORKLOAD, "--seed", "5", "--seconds", "1", "--trace", "1")
    d1 = details(5, 1)
    second = bench("--workload", WORKLOAD, "--seed", "5", "--seconds", "1", "--trace", "1")
    for name in STABLE_COUNTS:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        ok &= check(a == b and a > 0, f"{name} repeats across traced runs: {a} / {b}")
    for total, wall in zip(d1["self_time_sums"], d1["traced_seconds"]):
        ok &= check(total <= wall, f"self times {total:.6f} s <= traced wall {wall:.6f} s")
    ok &= check(set(first["metrics"]) == declared("per_layer"),
                "--trace 1 prints exactly the declared per_layer metrics")
    plain = bench("--workload", WORKLOAD, "--seed", "5", "--seconds", "1", "--trace", "0")
    ok &= check(set(plain["metrics"]) == declared("end_to_end"),
                "--trace 0 prints exactly the declared end_to_end metrics")
    ok &= check(plain["correct"] and plain["failed"] == 0, "untraced run passes its checks")

    # the first op raises, every later op runs the program
    original = cli.main

    def injected(argv=None):
        cli.main = original
        raise RuntimeError("injected failure")

    cli.main = injected
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = run.main(["--workload", WORKLOAD, "--seed", "7", "--seconds", "1"])
    finally:
        cli.main = original
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    rate = result["metrics"]["success_rate"]["value"]
    ok &= check(rc == 0 and result["failed"] == 1 and not result["correct"] and rate < 1.0,
                f"injected failures counted: failed {result['failed']}/"
                f"{result['attempted']}, success_rate {rate:.3f}")
    ok &= check(details(7, 0)["errors"] == ["RuntimeError: injected failure"],
                "the failed op is recorded with its exception type")

    scan = WORKLOADS[WORKLOAD]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(scan.argv(scan.write_config(5, run.OUT), 5))
    report = json.loads(out.getvalue())
    ok &= check(not rejects(scan, report, 5), "scan check passes the program's output")
    report["scan"]["rows"][-1][1] *= 1.0 + 1e-8
    ok &= check(rejects(scan, report, 5), "scan check rejects a difference moved by 1e-8")
    report["scan"]["rows"][-1][1] /= 1.0 + 1e-8
    report["scan"]["fitted_exponent"] += 1e-8
    ok &= check(rejects(scan, report, 5), "scan check rejects a fitted exponent moved by 1e-8")

    config = VERIFY_JITTERED.write_config(6, run.OUT)
    _, error = run_op(VERIFY_JITTERED, config, 6)
    print(f"info  jittered verify, seed 6: {error or 'passed'}")
    zero_delta = os.path.join(run.OUT, "scan-zero-delta.ini")
    with open(zero_delta, "w") as fh:
        fh.write("[interaction.delta]\nscale = 0.0\n")
    _, error = run_op(WORKLOADS[WORKLOAD], zero_delta, 0)
    print(f"info  scan with zero delta coupling: {error or 'passed'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
