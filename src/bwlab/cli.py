"""Command-line interface: verify / compare / scan.

Each command studies the reference state of one RunConfig, the no-pair
state [solve] state_index: verify checks the identities there (drawing its
samples from the interaction seed), compare and scan run the pipeline on
it.  A command maps (cfg, args) to its timing key, report sections and
exit code.  _run loads the config, times the command (sections and scan's
--csv file included) and prints the report; main maps an abort to its
stderr label and exit code through the one table ABORTS.

Exit codes: 0 success, 1 verify with a residual out of tolerance, 2 a usage
error (for scan, fewer than 4 points, a lambda range whose ends are not two
different finite numbers > 0, or a --csv file that cannot be written) or a
config error (a file that cannot be read or is not UTF-8, a bad key or
value, a model that cannot be built, a coupling whose matrix overflows), 3
numerical degeneracy (scan: any point failed), 4 nonconvergence (of the BW
fixed point or of the quadrature oracle), 5 the model oracle lost the
reference state (compare only), 6 stdout closed before the whole report was
written (the reader of a pipe went away).  An abort prints one stderr line
and no report; scan's exit 3 prints its report, which lists each failure.

scan reports an undefined value (None from coupling_scan) as null; the
--csv file leaves such a ratio's field empty.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .config import RunConfig, parse_config
from .controversy import coupling_scan
from .errors import (
    BwlabError,
    ConfigError,
    ConvergenceError,
    DegenerateDenominatorError,
    OracleTrackingError,
)
from .identities import TOLERANCES, identity_suite, suite_passes
from .pipeline import run_pipeline
from .report import (
    base_report,
    controversy_section,
    energy_section,
    render_json,
    render_table,
    write_csv,
)

EXIT_OK = 0
EXIT_DEGENERATE = 3
EXIT_STDOUT_CLOSED = 6


class UsageError(Exception):
    """A command argument the command cannot run with (exit 2)."""


#: class -> (stderr label, exit code) of an abort; an error takes the row of
#: the first class in its MRO that has one
ABORTS = {
    UsageError: ("error", 2),
    ConfigError: ("config error", 2),
    DegenerateDenominatorError: ("degenerate denominator", EXIT_DEGENERATE),
    ConvergenceError: ("nonconvergence", 4),
    OracleTrackingError: ("model oracle", 5),
}


def _load(args) -> RunConfig:
    cfg = parse_config("[spectrum]\n" if args.config is None else args.config)
    if args.seed is not None:
        cfg = replace(cfg, model=replace(cfg.model, seed=args.seed))
    return cfg


def cmd_verify(cfg, args):
    residuals = identity_suite(cfg)
    passed = suite_passes(residuals)
    sections = {"identity_residuals": residuals, "tolerances": dict(TOLERANCES), "passed": passed}
    return "identities", sections, EXIT_OK if passed else 1


def cmd_compare(cfg, args):
    result = run_pipeline(cfg)
    sections = {
        "energy": energy_section(result.ledger),
        "controversy": controversy_section(result.controversy),
        "identity_residuals": result.controversy.identity_residuals,
        "oracle_energy": result.oracle_energy,
    }
    return "pipeline", sections, EXIT_OK


def cmd_scan(cfg, args):
    if args.scan_points < 4:
        raise UsageError("scan requires >= 4 points")
    ends = (args.scan_from, args.scan_to)
    if not (np.all(np.isfinite(ends)) and min(ends) > 0 and ends[0] != ends[1]):
        raise UsageError("scan range needs two different finite ends > 0")
    schedule = list(np.geomspace(args.scan_from, args.scan_to, args.scan_points))
    rows, slope, r2, failures = coupling_scan(cfg, schedule)
    if args.csv:
        try:
            write_csv(args.csv, rows)
        except OSError as exc:
            raise UsageError(f"cannot write --csv file: {exc}") from exc
    sections = {"scan": {"rows": rows, "fitted_exponent": slope, "r_squared": r2,
                         "failures": failures}}
    return "scan", sections, EXIT_OK if not failures else EXIT_DEGENERATE


COMMANDS = {"verify": cmd_verify, "compare": cmd_compare, "scan": cmd_scan}


def _run(args) -> int:
    """Load the config, run the command under the timer, and print its
    report: base_report, the command's sections, then timings_ms."""
    cfg = _load(args)
    t0 = time.perf_counter()
    key, sections, code = COMMANDS[args.command](cfg, args)
    elapsed = 1000.0 * (time.perf_counter() - t0)
    report = {**base_report(args.command, cfg), **sections, "timings_ms": {key: elapsed}}
    print(render_json(report) if args.format == "json" else render_table(report))
    sys.stdout.flush()  # a closed pipe fails here, inside main's handlers
    return code


@functools.cache
def build_parser():
    """The argparse tree, built once per process: parse_args leaves it
    unchanged, so every main() call reuses it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a config file (INI sections)")
    common.add_argument("--format", choices=("json", "table"), default="table")
    common.add_argument("--seed", type=int, default=None, help="override interaction seed")
    p = argparse.ArgumentParser(
        prog="bwlab",
        description="Effective two-particle Hamiltonian laboratory: "
        "no-pair solves, Brillouin-Wigner expansions, and the "
        "sign-convention comparison of the combined correction.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[common],
                   help="run the identity suite and report residuals")
    sub.add_parser("compare", parents=[common],
                   help="full pipeline: both conventions and the difference")
    scan = sub.add_parser("scan", parents=[common],
                          help="coupling scan with power-law fit")
    scan.add_argument("--scan-from", type=float, default=0.02)
    scan.add_argument("--scan-to", type=float, default=0.16)
    scan.add_argument("--scan-points", type=int, default=4)
    scan.add_argument("--csv", help="write scan rows to this CSV path")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (UsageError, BwlabError) as exc:
        label, code = next(ABORTS[c] for c in type(exc).__mro__ if c in ABORTS)
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    except BrokenPipeError:
        # what is left in the buffer goes to devnull, so the flush at exit
        # does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before the report was written", file=sys.stderr)
        return EXIT_STDOUT_CLOSED


if __name__ == "__main__":
    sys.exit(main())
