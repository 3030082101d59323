import os

# numpy's BLAS starts one thread per core, and the tests' small matrix
# products slow tenfold when another process holds a core; this runs before
# numpy is first imported, so the setting takes effect
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

from bwlab import ModelConfig, build_basis, build_interaction, build_spectrum


@pytest.fixture
def dim4_config():
    """Canonical dim-4 fixture: spectrum {+1.0, -1.2}, ones presets."""
    return ModelConfig(
        positive_energies=(1.0,),
        negative_energies=(-1.2,),
        coulomb_scale=0.1,
        delta_scale=0.05,
    )


@pytest.fixture
def dim4(dim4_config):
    spectrum = build_spectrum(dim4_config)
    basis = build_basis(spectrum)
    I_c = build_interaction(dim4_config, "coulomb")
    g = build_interaction(dim4_config, "delta")
    return spectrum, basis, I_c, g


def random_spectrum(rng, max_each=3):
    """Well-separated random spectrum with n <= 2 * max_each states."""
    n_pos = int(rng.integers(1, max_each + 1))
    n_neg = int(rng.integers(1, max_each + 1))
    pos = np.sort(rng.uniform(0.5, 3.0, size=n_pos))
    neg = -np.sort(rng.uniform(0.5, 3.0, size=n_neg))
    pos = pos + 0.01 * np.arange(n_pos)  # enforce distinctness
    neg = neg - 0.01 * np.arange(n_neg)
    return tuple(pos), tuple(neg)


def energy_away_from_poles(rng, spectrum, lo=-4.0, hi=6.0, min_gap=0.3):
    sums = {a + b for a in spectrum.energies for b in spectrum.energies}
    while True:
        E = float(rng.uniform(lo, hi))
        if all(abs(E - s) > min_gap for s in sums):
            return E


def jittered_dim36():
    """3 + 3 levels with the jitter of the benchmark's compare spectrum."""
    rng = np.random.default_rng([0, 3])
    pos = [1.0 + 0.5 * k + rng.uniform(0.0, 0.1) for k in range(3)]
    neg = [-1.0 - 0.5 * k - rng.uniform(0.0, 0.1) for k in range(3)]
    return ModelConfig(positive_energies=tuple(pos), negative_energies=tuple(neg))
