"""The sampled identity checks evaluate all their samples in one broadcast.
They must reproduce, bit for bit, the one-sample-at-a-time loop kept here,
which draws from the same generator in the same order."""

from dataclasses import replace

import numpy as np
import pytest

from bwlab import build_basis, build_spectrum, parse_config, propagator_S
from bwlab.identities import _uniform, identity_suite

JITTERED_3P3 = """
[spectrum]
positive_energies = 1.0312, 1.5741, 2.0633
negative_energies = -1.0208, -1.5867, -2.0419
"""


def sample_away_from_poles(rng, spectrum, lo, hi, min_gap=0.05):
    pair_sums = {e1 + e2 for e1 in spectrum.energies for e2 in spectrum.energies}
    for _ in range(1000):
        x = rng.uniform(lo, hi)
        if all(abs(x - s) > min_gap for s in pair_sums):
            return x
    raise RuntimeError("could not sample away from poles")


def sequential_sampled_checks(spectrum, basis, seed):
    """g0mod_pointwise and dm1_diagonal, one sample per loop iteration."""
    rng = np.random.default_rng([seed, 421])
    emax = max(abs(e) for e in spectrum.energies)

    worst = 0.0
    for _ in range(100):
        E = sample_away_from_poles(rng, spectrum, -3 * emax, 3 * emax)
        eps = rng.uniform(-3 * emax, 3 * emax)
        s1 = propagator_S(spectrum, basis, E, eps, 1, 0.0)
        s2 = propagator_S(spectrum, basis, E, eps, 2, 0.0)
        if np.min(np.abs(1.0 / s1)) < 0.05 or np.min(np.abs(1.0 / s2)) < 0.05:
            continue
        d = E - basis.pair_energies()
        if np.min(np.abs(d)) < 0.05:
            continue
        worst = max(worst, float(np.max(np.abs(s1 * s2 - (s1 + s2) / d))))
    g0mod = worst

    worst = 0.0
    for _ in range(100):
        E = sample_away_from_poles(rng, spectrum, -3 * emax, 3 * emax)
        Ec = sample_away_from_poles(rng, spectrum, -3 * emax, 3 * emax)
        d = E - basis.pair_energies()
        dc = Ec - basis.pair_energies()
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


def test_uniform_draw_is_numpy_uniform_bit_for_bit():
    """_uniform and rng.uniform give the same doubles from one seeded stream."""
    ours, numpys = np.random.default_rng([7, 421]), np.random.default_rng([7, 421])
    for lo, hi in [(-4.5, 4.5), (2.1, 4.0), (-1e-3, 7.25), (3.0, 3.0)] * 500:
        x, y = _uniform(ours, lo, hi), numpys.uniform(lo, hi)
        assert np.float64(x).tobytes() == np.float64(y).tobytes()
