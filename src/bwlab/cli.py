"""Command-line interface: verify / compare / scan.

Each command parses one RunConfig and studies its reference state, the
no-pair state [solve] state_index: verify checks the identities there
(drawing its samples from the interaction seed), compare and scan run the
pipeline on it.

Exit codes: 0 success, 1 verify with a residual out of tolerance, 2 config
error, 3 numerical degeneracy (scan: any point failed), 4 nonconvergence (of
the BW fixed point or of the quadrature oracle), 5 the model oracle lost the
reference state (compare only; scan does not run it).  Codes 2 to 5 from an
abort print one stderr line.  Exit 2 covers a config value that is not a
finite number (nan, inf) and, for scan, fewer than 4 points or a lambda
range whose ends are not two different finite numbers > 0.

scan reports an undefined value as null: a row's ratio when its predicted
difference is zero, and the fitted exponent and R^2 when fewer than two
differences are nonzero (for instance with zero delta coupling).  The
--csv file leaves such a ratio's field empty.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import replace

import numpy as np

from .config import RunConfig, parse_config
from .controversy import coupling_scan
from .errors import (
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
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_NONCONVERGENT = 4
EXIT_ORACLE = 5


def _default_config() -> RunConfig:
    return parse_config("[spectrum]\n")


def _load(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else _default_config()
    if args.seed is not None:
        cfg = replace(cfg, model=replace(cfg.model, seed=args.seed))
    return cfg


def _emit(report, fmt):
    if fmt == "json":
        print(render_json(report))
    else:
        print(render_table(report))


def cmd_verify(args) -> int:
    cfg = _load(args)
    t0 = time.perf_counter()
    residuals = identity_suite(cfg)
    elapsed = 1000.0 * (time.perf_counter() - t0)
    report = base_report("verify", cfg)
    report["identity_residuals"] = residuals
    report["tolerances"] = dict(TOLERANCES)
    report["passed"] = suite_passes(residuals)
    report["timings_ms"] = {"identities": elapsed}
    _emit(report, args.format)
    return EXIT_OK if report["passed"] else 1


def cmd_compare(args) -> int:
    cfg = _load(args)
    timings = {}
    t0 = time.perf_counter()
    result = run_pipeline(cfg)
    timings["pipeline"] = 1000.0 * (time.perf_counter() - t0)
    report = base_report("compare", cfg)
    report["energy"] = energy_section(result.ledger)
    report["controversy"] = controversy_section(result.controversy)
    report["identity_residuals"] = result.controversy.identity_residuals
    report["oracle_energy"] = result.oracle_energy
    report["timings_ms"] = timings
    _emit(report, args.format)
    return EXIT_OK


def _defined(value):
    """None for an undefined (NaN) scan value, which the report shows as null."""
    return None if np.isnan(value) else value


def cmd_scan(args) -> int:
    cfg = _load(args)
    if args.scan_points < 4:
        print("error: scan requires >= 4 points", file=sys.stderr)
        return EXIT_CONFIG
    ends = (args.scan_from, args.scan_to)
    if not (np.all(np.isfinite(ends)) and min(ends) > 0 and ends[0] != ends[1]):
        print("error: scan range needs two different finite ends > 0", file=sys.stderr)
        return EXIT_CONFIG
    schedule = list(
        np.geomspace(args.scan_from, args.scan_to, args.scan_points)
    )
    timings = {}
    t0 = time.perf_counter()
    rows, slope, r2, failures = coupling_scan(cfg, schedule)
    timings["scan"] = 1000.0 * (time.perf_counter() - t0)
    report = base_report("scan", cfg)
    report["scan"] = {
        "rows": [[lam, diff, pred, _defined(ratio)] for lam, diff, pred, ratio in rows],
        "fitted_exponent": _defined(slope),
        "r_squared": _defined(r2),
        "failures": [list(f) for f in failures],
    }
    report["timings_ms"] = timings
    if args.csv:
        write_csv(args.csv, rows)
    _emit(report, args.format)
    return EXIT_OK if not failures else EXIT_DEGENERATE


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
    handlers = {"verify": cmd_verify, "compare": cmd_compare, "scan": cmd_scan}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateDenominatorError as exc:
        print(f"degenerate denominator: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ConvergenceError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENT
    except OracleTrackingError as exc:
        print(f"model oracle: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
