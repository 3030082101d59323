"""A seeded sweep of small configs through the three commands: the failure
contract of the command-line program, checked on inputs that no one picked.

Config s comes from numpy.random.default_rng(s) (sweep_config):
- a scale 10^U(-4, 4);
- 1-3 positive levels scale (1 + U(0, 2)) and 1-3 negative ones mirrored
  the same way;
- with probability 0.2, one more positive level a relative 10^U(-14, -3)
  above the lowest, which reaches the pole merge and near-coincidence rules
  of residues.clustered_poles;
- coulomb scale 10^U(-9, 1) scale, delta scale the same way or, with
  probability 0.1, zero; each coupling matrix a random preset;
- interaction seed 0-49, j_order 1-3, [bw] order 1-3 and a state_index
  below the number of doubly-positive states.

verify, compare and scan --scan-points 4 run on each config in-process,
with every warning an error.  Nothing may raise out of cli.main.  An exit
with a report (0; 1 from verify, a residual out of tolerance; 3 from scan,
which lists its failed points) prints a JSON report and no stderr; every
other exit prints exactly one stderr line and no stdout.
"""

import contextlib
import io
import json
import warnings

import numpy as np

from bwlab.cli import main
from bwlab.model import PRESETS

SWEEP_SEEDS = range(100)
COMMANDS = (("verify",), ("compare",), ("scan", "--scan-points", "4"))
REPORT_EXITS = {"verify": (0, 1), "compare": (0,), "scan": (0, 3)}


def sweep_config(seed):
    """The config text of sweep seed `seed` (see the module docstring)."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-4, 4)
    positives = list(scale * (1 + rng.uniform(0, 2, rng.integers(1, 4))))
    negatives = list(-scale * (1 + rng.uniform(0, 2, rng.integers(1, 4))))
    if rng.random() < 0.2:
        positives.append(min(positives) * (1 + 10.0 ** rng.uniform(-14, -3)))
    coulomb, delta = 10.0 ** rng.uniform(-9, 1, 2) * scale
    if rng.random() < 0.1:
        delta = 0.0
    coulomb_preset, delta_preset = rng.choice(PRESETS, 2)
    return (
        "[spectrum]\n"
        f"positive_energies = {', '.join(repr(float(e)) for e in sorted(positives))}\n"
        f"negative_energies = {', '.join(repr(float(e)) for e in sorted(negatives))}\n"
        f"[interaction]\nseed = {rng.integers(0, 50)}\n"
        f"[interaction.coulomb]\nscale = {float(coulomb)!r}\npreset = {coulomb_preset}\n"
        f"[interaction.delta]\nscale = {float(delta)!r}\npreset = {delta_preset}\n"
        f"[integration]\nj_order = {rng.integers(1, 4)}\n"
        f"[bw]\norder = {rng.integers(1, 4)}\n"
        f"[solve]\nstate_index = {rng.integers(0, len(positives) ** 2)}\n"
    )


def run_command(text, command):
    """(exit code, stdout, stderr) of one in-process cli.main call on config
    text, with warnings as errors; an exception out of main is returned in
    place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main([*command, "--config", text, "--format", "json"])
        except (Exception, SystemExit) as exc:  # the contract is that nothing escapes
            code = exc
    return code, out.getvalue(), err.getvalue()


def contract_breach(command, code, out, err):
    """How one run breaks the failure contract, or None."""
    if not isinstance(code, int):
        return f"raised {type(code).__name__}: {code}"
    if code in REPORT_EXITS[command]:
        try:
            json.loads(out)
        except ValueError:
            return f"exit {code} without a JSON report"
        return f"exit {code} with stderr {err!r}" if err else None
    if out or err.count("\n") != 1 or not err.endswith("\n"):
        return f"exit {code}: stdout {out[:80]!r}, stderr {err!r}"
    return None


def test_seeded_sweep_keeps_the_failure_contract():
    breaches = []
    for seed in SWEEP_SEEDS:
        text = sweep_config(seed)
        for command in COMMANDS:
            breach = contract_breach(command[0], *run_command(text, command))
            if breach:
                breaches.append(f"seed {seed}, {command[0]}: {breach}\n{text}")
    assert not breaches, "\n".join(breaches)
