"""The sampled identity checks draw all their rows in one call and evaluate
them in one broadcast.  They must reproduce, bit for bit, the
one-sample-at-a-time loop kept here, which draws from the same generator
in the same order and skips a sample near a pole after drawing it."""

from dataclasses import replace

import numpy as np
import pytest

from bwlab import build_basis, build_spectrum, parse_config, propagator_S
from bwlab.identities import TOLERANCES, identity_suite

JITTERED_3P3 = """
[spectrum]
positive_energies = 1.0312, 1.5741, 2.0633
negative_energies = -1.0208, -1.5867, -2.0419
"""


def sequential_sampled_checks(spectrum, basis, seed):
    """g0mod_pointwise and dm1_diagonal, one sample per loop iteration."""
    rng = np.random.default_rng([seed, 421])
    emax = max(abs(e) for e in spectrum.energies)
    lo, hi = -3 * emax, 3 * emax

    worst = 0.0
    for _ in range(128):
        E, eps = rng.uniform(lo, hi), rng.uniform(lo, hi)
        s1 = propagator_S(basis, E, eps, 1)
        s2 = propagator_S(basis, E, eps, 2)
        if np.min(np.abs(1.0 / s1)) < 0.05 or np.min(np.abs(1.0 / s2)) < 0.05:
            continue
        d = E - basis.pair_energies()
        if np.min(np.abs(d)) < 0.05:
            continue
        worst = max(worst, float(np.max(np.abs(s1 * s2 - (1.0 / d) * (s1 + s2)))))
    g0mod = worst

    worst = 0.0
    for _ in range(128):
        E, Ec = rng.uniform(lo, hi), rng.uniform(lo, hi)
        d = E - basis.pair_energies()
        dc = Ec - basis.pair_energies()
        if np.min(np.abs(d)) < 0.05 or np.min(np.abs(dc)) < 0.05:
            continue
        dE = E - Ec
        worst = max(worst, float(np.max(np.abs(1.0 / d - (1.0 / dc - dE / (dc * d))))))
    return g0mod, worst


@pytest.mark.parametrize("seed", [0, 3, 17])
@pytest.mark.parametrize("text", ["[spectrum]\n", JITTERED_3P3], ids=["default", "jittered3+3"])
def test_sampled_checks_match_sequential_loop(text, seed):
    cfg = parse_config(text)
    model = replace(cfg.model, seed=seed)
    spectrum = build_spectrum(model)
    basis = build_basis(spectrum)
    res = identity_suite(replace(cfg, model=model))
    g0mod, dm1 = sequential_sampled_checks(spectrum, basis, seed)
    assert res["g0mod_pointwise"] == g0mod
    assert res["dm1_diagonal"] == dm1


def test_identity_suite_builds_its_sandwiches_in_one_call(monkeypatch):
    """g, A, B, 0.3 A + 1.7 B and S take one stacked sandwich_integral call."""
    import bwlab.identities

    calls, build = [], bwlab.identities.sandwich_integral

    def counted(basis, E, A):
        calls.append(np.shape(A))
        return build(basis, E, A)

    monkeypatch.setattr(bwlab.identities, "sandwich_integral", counted)
    res = identity_suite(parse_config("[spectrum]\n"))
    assert calls == [(5, 16, 16)]
    assert res["sandwich_linearity"] <= TOLERANCES["sandwich_linearity"]
