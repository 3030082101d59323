"""Workload definitions: seeded config generation, CLI arguments and output
checks for the three `bwlab` commands the benchmark drives.

Each workload writes one INI config from its seed; the program sees only that
file (and the same seed passed as `--seed`).  The compare and scan spectra
come from `numpy.random.default_rng([seed, n_each])`: positive level k is
1.0 + 0.5 k + U(0, 0.1), negative level k is b - 0.5 k - U(0, 0.1).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from bwlab import cli
from bwlab.identities import TOLERANCES

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: seeds whose outputs reference.json records (record_reference.py);
#: other seeds get only the checks that need no reference
REFERENCE_SEEDS = range(64)
#: relative tolerance of compare and scan outputs against the reference; the
#: scan's fitted exponent, which is near 0, is held to it as an absolute one
REFERENCE_RTOL = 1e-9
#: the BW tolerance the program uses when, as here, the config sets no [bw] tol
BW_TOL = 1e-12
#: a converged BW residual must be below this many times BW_TOL * max(1, |E_c|)
#: (the solver stops on the step size, so the residual can exceed the tolerance)
BW_RESIDUAL_FACTOR = 10.0
#: distance from 1 allowed for each scan row's measured/predicted ratio
SCAN_RATIO_TOL = 1e-9
#: identity residuals that the compare command reports and must keep in bound
COMPARE_IDENTITIES = ("central_claim", "chain_sum", "E2b_vs_E2b2", "Dm1_route")
#: compare's controversy fields held to the reference, besides energy.E
COMPARE_FIELDS = (
    "dE1_direct", "dE2b_direct", "combined_lindgren", "combined_dkz",
    "combined_dkz_dc_approx", "difference", "predicted_difference",
    "dm1_error_term",
)


def jittered_levels(seed, n_each, b):
    rng = np.random.default_rng([seed, n_each])
    positives = [1.0 + 0.5 * k + rng.uniform(0.0, 0.1) for k in range(n_each)]
    negatives = [b - 0.5 * k - rng.uniform(0.0, 0.1) for k in range(n_each)]
    return positives, negatives


def default_levels(seed, n_each, b):
    """The shipped default spectrum {1.0, 1.5} / {-1.0, -1.5}; the seed
    reaches the program through `--seed` only."""
    return [1.0 + 0.5 * k for k in range(n_each)], [b - 0.5 * k for k in range(n_each)]


def config_text(positives, negatives, j_order):
    return (
        "[spectrum]\n"
        f"positive_energies = {', '.join(repr(float(e)) for e in positives)}\n"
        f"negative_energies = {', '.join(repr(float(e)) for e in negatives)}\n"
        "\n[integration]\n"
        f"j_order = {j_order}\n"
    )


class CheckFailed(Exception):
    """An op finished with exit code 0 but its output is wrong."""


@functools.cache
def _load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _reference(workload_name, seed):
    """The recorded outputs for seed, or None for a seed outside REFERENCE_SEEDS."""
    if seed not in REFERENCE_SEEDS:
        return None
    return _load_reference()[workload_name][str(seed)]


def _close(name, got, expected, abs_tol=0.0):
    if not math.isclose(got, expected, rel_tol=REFERENCE_RTOL, abs_tol=abs_tol):
        raise CheckFailed(f"{name} = {got!r}, reference {expected!r}")


def check_compare(report, seed):
    res = report["identity_residuals"]
    for name in COMPARE_IDENTITIES:
        if not res[name] <= TOLERANCES[name]:
            raise CheckFailed(f"{name} residual {res[name]!r} above {TOLERANCES[name]!r}")
    energy = report["energy"]
    bound = BW_RESIDUAL_FACTOR * BW_TOL * max(1.0, abs(energy["E_c"]))
    if not energy["residual"] <= bound:
        raise CheckFailed(f"BW residual {energy['residual']!r} above {bound!r}")
    ref = _reference("compare-d36-k2", seed)
    if ref is None:
        return
    _close("energy.E", energy["E"], ref["E"])
    got = report["controversy"]
    for name in COMPARE_FIELDS:
        _close(name, got[name], ref[name])


def check_scan(report, seed):
    scan = report["scan"]
    if scan["failures"]:
        raise CheckFailed(f"scan failures: {scan['failures'][:2]}")
    for lam, _, _, ratio in scan["rows"]:
        if not abs(ratio - 1.0) <= SCAN_RATIO_TOL:
            raise CheckFailed(f"ratio {ratio!r} at lambda {lam!r}")
    ref = _reference("scan-d4-k1", seed)
    if ref is None:
        return
    if len(scan["rows"]) != len(ref["difference"]):
        raise CheckFailed(f"{len(scan['rows'])} rows, reference {len(ref['difference'])}")
    for (lam, difference, _, _), expected in zip(scan["rows"], ref["difference"]):
        _close(f"difference at lambda {lam!r}", difference, expected)
    _close("fitted_exponent", scan["fitted_exponent"], ref["fitted_exponent"],
           abs_tol=REFERENCE_RTOL)


def check_verify(report, seed):
    if report["passed"] is not True:
        bad = {k: v for k, v in report["identity_residuals"].items()
               if not v <= report["tolerances"][k]}
        raise CheckFailed(f"identities out of tolerance: {bad}")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n_each: int
    b: float
    j_order: int
    levels: object
    check: object
    extra_args: tuple = ()

    def write_config(self, seed, directory):
        positives, negatives = self.levels(seed, self.n_each, self.b)
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.name}-seed{seed}.ini")
        with open(path, "w") as fh:
            fh.write(config_text(positives, negatives, self.j_order))
        return path

    def argv(self, config_path, seed):
        return [self.command, "--config", config_path, "--format", "json",
                "--seed", str(seed), *self.extra_args]


# Each workload puts one layer that later work targets at the centre:
# compare is bound by the X_J chain engine, scan by the BW fixed point and
# the ladder kernel, verify is the only command that runs the quadrature
# oracle.  verify keeps the shipped default spectrum: jittered 2+2 spectra
# abort in the oracle on some seeds (6, 9 and 11 of 0-11; see selftest.py),
# and a workload's timings are comparable only when all of its ops pass.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("compare-d36-k2", "compare", 3, -1.0, 2, jittered_levels, check_compare),
        Workload("scan-d4-k1", "scan", 1, -1.2, 1, jittered_levels, check_scan,
                 ("--scan-points", "64")),
        Workload("verify-d16-k2", "verify", 2, -1.0, 2, default_levels, check_verify),
    )
}

#: a jittered verify input on which the quadrature oracle aborts today
VERIFY_JITTERED = Workload("verify-d16-k2-jittered", "verify", 2, -1.0, 2,
                           jittered_levels, check_verify)


def run_op(workload, config_path, seed):
    """One op: a `bwlab.cli.main` call, then its output check.

    Returns (seconds, error).  error is None for a passing op, else a one-line
    reason that starts with the exception type, the exit code or "check".
    Only the main() call is timed.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(workload.argv(config_path, seed))
    except (Exception, SystemExit) as exc:  # a failed op is data, not a crash
        return perf_counter() - t0, f"{type(exc).__name__}: {exc}"[:300]
    seconds = perf_counter() - t0
    if rc != 0:
        return seconds, f"exit {rc}: {err.getvalue().strip()}"[:300]
    try:
        workload.check(json.loads(out.getvalue()), seed)
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:
        return seconds, f"check: {type(exc).__name__}: {exc}"[:300]
    return seconds, None
