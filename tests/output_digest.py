"""Digest of the program's outputs over the benchmark inputs and the config
sweep: a byte-identity check for a change that must not move a number.

Prints one line per run: its label, its exit code, the SHA-256 of its
stdout with timings_ms removed (the only part that differs between two runs
of one config) and its stderr.  The runs, all in-process and JSON:

- seeds 0-63 of the benchmark workloads compare-d36-k2, scan-d4-k1 and
  verify-d16-k2 and of workloads.VERIFY_JITTERED, each on the config that
  perfbench/workloads.py writes for that seed;
- sweep seeds 0-599 (test_sweep.sweep_config) through verify, compare and
  scan --scan-points 4.

Not a test: pytest does not collect it.  It takes no options.  To compare
two trees, run it from the repository root on each tree's src and diff:

    PYTHONPATH=/path/to/parent/src python tests/output_digest.py > parent.txt
    PYTHONPATH=src python tests/output_digest.py > change.txt
    diff parent.txt change.txt
"""

import contextlib
import hashlib
import importlib.util
import io
import re
import sys
import tempfile
from pathlib import Path

from bwlab.cli import main
from test_sweep import COMMANDS, run_command, sweep_config

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
BENCH_SEEDS = range(64)
SWEEP_SEEDS = range(600)
TIMINGS = re.compile(r',"timings_ms":\{[^{}]*\}')


def load_workloads():
    """perfbench/workloads.py as a module, without writing its bytecode."""
    name = "bwlab_bench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[name] = module  # @dataclass resolves the module's annotations
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[name]
    return module


def line(label, code, out, err):
    digest = hashlib.sha256(TIMINGS.sub("", out).encode()).hexdigest()
    code = code if isinstance(code, int) else f"raised {type(code).__name__}"
    return f"{label}\t{code}\t{digest}\t{err!r}"


def bench_run(workload, seed, directory):
    path = workload.write_config(seed, directory)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(workload.argv(path, seed))
    return code, out.getvalue(), err.getvalue()


def main_digest():
    workloads = load_workloads()
    with tempfile.TemporaryDirectory() as directory:
        for workload in (*workloads.WORKLOADS.values(), workloads.VERIFY_JITTERED):
            for seed in BENCH_SEEDS:
                print(line(f"{workload.name} seed {seed}",
                           *bench_run(workload, seed, directory)), flush=True)
    for seed in SWEEP_SEEDS:
        text = sweep_config(seed)
        for command in COMMANDS:
            print(line(f"sweep {seed} {command[0]}", *run_command(text, command)), flush=True)


if __name__ == "__main__":
    main_digest()
