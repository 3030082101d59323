"""Coverage table of the seeded config sweep: how much of the input space
verify and compare cover, and where they stop.

Runs verify and compare in-process on sweep seeds 0 .. N-1 (the configs of
test_sweep.sweep_config, N = 600 by default) and prints three tables:

1. verify's exit and reason on the configs where compare exits 0: for
   exit 1 the identities over tolerance, for an abort its stderr line with
   every number written as #;
2. compare's chain residuals over their tolerance in identities.TOLERANCES,
   on the configs where it exits 0;
3. the configs by spectral scale max|e| and by coupling bin, the decade of
   coulomb / max|e|, with how many of them compare and verify pass.

Not a test: pytest does not collect it.  From the repository root:

    PYTHONPATH=src python tests/sweep_coverage.py [N]
"""

import collections
import json
import re
import sys

from bwlab.config import parse_config
from bwlab.identities import TOLERANCES
from test_sweep import run_command, sweep_config

NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)(e[-+]?\d+)?")
SCALE_BINS = (1e-2, 1.0, 1e2)
COUPLING_BINS = (1e-6, 1e-3, 1.0)


def reason(code, out, err):
    """What a verify run ended on."""
    if code == 0:
        return "pass"
    if code == 1:
        report = json.loads(out)
        over = [name for name, value in report["identity_residuals"].items()
                if value > report["tolerances"][name]]
        return "over tolerance: " + ", ".join(over)
    return NUMBER.sub("#", err.strip())


def bin_label(k, edges):
    """Bin k of edges (the values below edges[k], at or above edges[k - 1])
    as text."""
    lo = f"{edges[k - 1]:g}" if k else "0"
    hi = f"{edges[k]:g}" if k < len(edges) else "inf"
    return f"[{lo}, {hi})"


def table(title, header, rows):
    print(f"\n{title}")
    widths = [max(len(str(row[i])) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(cell).rjust(w) if isinstance(cell, int) else str(cell).ljust(w)
                        for cell, w in zip(row, widths)).rstrip())


def main(n_seeds=600):
    verify_reasons = collections.Counter()
    over = collections.Counter()
    bins = collections.defaultdict(lambda: [0, 0, 0])
    compare_passes = 0
    for seed in range(n_seeds):
        text = sweep_config(seed)
        compare = run_command(text, ("compare",))
        verify = run_command(text, ("verify",))
        model = parse_config(text).model
        scale = max(map(abs, model.positive_energies + model.negative_energies))
        cell = bins[sum(scale >= e for e in SCALE_BINS),
                    sum(model.coulomb_scale / scale >= e for e in COUPLING_BINS)]
        cell[0] += 1
        cell[2] += verify[0] == 0
        if compare[0] != 0:
            continue
        compare_passes += 1
        cell[1] += 1
        verify_reasons[verify[0], reason(*verify)] += 1
        residuals = json.loads(compare[1])["identity_residuals"]
        over.update(name for name, value in residuals.items() if value > TOLERANCES[name])
        over["any"] += any(value > TOLERANCES[name] for name, value in residuals.items())

    print(f"sweep seeds 0-{n_seeds - 1}: compare exits 0 on {compare_passes}")
    table("1. verify where compare exits 0", ("exit", "configs", "reason"),
          [(code, count, why) for (code, why), count in sorted(verify_reasons.items())])
    table("2. compare residuals over tolerance (compare exit 0)",
          ("residual", "tolerance", "over"),
          [(name, f"{TOLERANCES[name]:g}", over[name])
           for name in ("E2b_vs_E2b2", "chain_sum", "central_claim", "Dm1_route")]
          + [("any", "", over["any"])])
    table("3. configs by scale max|e| and coupling coulomb/max|e|",
          ("scale", "coupling", "configs", "compare 0", "verify 0"),
          [(bin_label(s, SCALE_BINS), bin_label(c, COUPLING_BINS), *cell)
           for (s, c), cell in sorted(bins.items())])
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
