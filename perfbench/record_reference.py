"""Record, for every seed in workloads.REFERENCE_SEEDS, the outputs that
run.py holds later runs against: compare's BW energy and convention values,
and scan's per-lambda differences and fitted exponent.

    python3 perfbench/record_reference.py

Re-record only on purpose (for instance when the numbers are meant to change),
and say so where the change is described.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from bwlab import cli  # noqa: E402
from run import OUT, git_sha  # noqa: E402
from workloads import (  # noqa: E402
    COMPARE_FIELDS, REFERENCE_PATH, REFERENCE_SEEDS, WORKLOADS, _load_reference,
)


def compare_values(report):
    return {"E": report["energy"]["E"],
            **{name: report["controversy"][name] for name in COMPARE_FIELDS}}


def scan_values(report):
    return {"difference": [row[1] for row in report["scan"]["rows"]],
            "fitted_exponent": report["scan"]["fitted_exponent"]}


RECORDERS = {"compare-d36-k2": compare_values, "scan-d4-k1": scan_values}


def main():
    reference = {"recorded_at": git_sha()}
    reports = []
    for name, values_of in RECORDERS.items():
        workload = WORKLOADS[name]
        reference[name] = {}
        for seed in REFERENCE_SEEDS:
            config = workload.write_config(seed, OUT)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(workload.argv(config, seed))
            if rc != 0:
                raise SystemExit(f"{name} seed {seed}: exit {rc}")
            report = json.loads(out.getvalue())
            reference[name][str(seed)] = values_of(report)
            reports.append((workload, report, seed))
            print(name, seed, flush=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    # the recorded outputs must pass every check, the reference-free ones too
    _load_reference.cache_clear()
    for workload, report, seed in reports:
        workload.check(report, seed)


if __name__ == "__main__":
    main()
