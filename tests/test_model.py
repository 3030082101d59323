import numpy as np
import pytest

from bwlab import (
    ConfigError,
    ModelConfig,
    SingleParticleSpectrum,
    build_basis,
    build_interaction,
    build_spectrum,
)


def test_build_spectrum_two_states():
    cfg = ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,))
    s = build_spectrum(cfg)
    assert s.n == 2
    assert s.energies == (1.0, -1.2)
    assert s.signs == (1, -1)


def test_build_spectrum_four_states_order():
    cfg = ModelConfig(positive_energies=(1.0, 1.5), negative_energies=(-1.2, -1.7))
    s = build_spectrum(cfg)
    assert s.n == 4
    assert build_basis(s).dim == 16
    assert s.energies == (1.0, 1.5, -1.2, -1.7)


@pytest.mark.parametrize(
    "pos,neg",
    [
        ((1.0, 1.0), (-1.2,)),      # duplicate
        ((1.0, -0.5), (-1.2,)),     # wrong-sign in positive list
        ((0.0,), (-1.2,)),          # zero energy
        ((), (-1.2,)),              # empty class
        ((1.0,), ()),               # empty class
    ],
)
def test_build_spectrum_rejects(pos, neg):
    with pytest.raises(ConfigError):
        build_spectrum(ModelConfig(positive_energies=pos, negative_energies=neg))


@pytest.mark.parametrize("energies", [(1.0, 0.0), (1.0, float("nan")), (float("-inf"),)])
def test_spectrum_rejects_zero_or_non_finite_energy(energies):
    with pytest.raises(ConfigError, match="is zero or not finite"):
        SingleParticleSpectrum(energies)


def test_spectrum_rejects_no_states():
    with pytest.raises(ConfigError, match="^spectrum must contain at least one state$"):
        SingleParticleSpectrum(())


@pytest.mark.parametrize("matrix", [((1.0, 0.0, 0.0, 0.0),) * 3, (1.0, 0.0, 0.0, 0.0)],
                         ids=["3x4", "1-d"])
def test_model_config_rejects_a_non_square_matrix(matrix):
    """A matrix given in code, which no parser has checked, must be square."""
    with pytest.raises(ConfigError, match="^explicit interaction matrix must be square$"):
        ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,), delta_matrix=matrix)


def test_build_interaction_rejects_an_unknown_kind():
    cfg = ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,))
    with pytest.raises(ConfigError, match="^unknown interaction kind 'quark'$"):
        build_interaction(cfg, "quark")


@pytest.mark.parametrize("energies", [(1e150, -1.0), (1e160, 2.0, -1.0),
                                      (1e200, 2e200, -1.0), (1.0, -1e308)])
def test_spectrum_rejects_level_of_max_level_or_more(energies):
    with pytest.raises(ConfigError, match=r"is not below 1e\+150 in magnitude"):
        SingleParticleSpectrum(energies)
    assert SingleParticleSpectrum((9.9e149, -9.9e149)).n == 2


def test_signs_follow_the_energies():
    s = SingleParticleSpectrum((1.5, -1.2, 1.0, -2.0))
    assert s.signs == (1, -1, 1, -1)
    b = build_basis(s)
    assert b.patterns[:4] == ("pp", "pm", "pp", "pm")
    assert np.array_equal(b.unmixed_sign, 0.5 * np.add.outer(s.signs, s.signs).ravel())


def test_basis_patterns_dim4():
    s = build_spectrum(ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,)))
    b = build_basis(s)
    assert b.patterns == ("pp", "pm", "mp", "mm")
    assert b.pairs == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_basis_single_state():
    s = SingleParticleSpectrum.from_lists([1.0], [])
    b = build_basis(s)
    assert b.dim == 1
    assert b.patterns == ("pp",)


def test_basis_pattern_counts_n3():
    s = SingleParticleSpectrum.from_lists([1.0, 1.5], [-1.2])
    b = build_basis(s)
    counts = {p: b.patterns.count(p) for p in ("pp", "pm", "mp", "mm")}
    assert counts == {"pp": 4, "pm": 2, "mp": 2, "mm": 1}


def test_interaction_ones_scaling():
    cfg = ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                      coulomb_scale=0.1)
    m = build_interaction(cfg, "coulomb")
    assert m.shape == (4, 4)
    assert np.all(m == 0.1)


def test_interaction_zero_coupling():
    cfg = ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                      delta_scale=0.0)
    assert not np.any(build_interaction(cfg, "delta"))


def test_interaction_seeded_determinism():
    cfg = ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                      delta_matrix="random-symmetric", seed=7)
    m1 = build_interaction(cfg, "delta")
    m2 = build_interaction(cfg, "delta")
    assert np.array_equal(m1, m2)
    other = ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                        delta_matrix="random-symmetric", seed=8)
    assert not np.array_equal(m1, build_interaction(other, "delta"))


def test_interaction_channels_differ_same_seed():
    cfg = ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                      coulomb_matrix="random-symmetric",
                      delta_matrix="random-symmetric", seed=7)
    a = build_interaction(cfg, "coulomb") / cfg.coulomb_scale
    b = build_interaction(cfg, "delta") / cfg.delta_scale
    assert not np.allclose(a, b)


def test_interaction_symmetry_and_linearity():
    rng = np.random.default_rng(3)
    for seed in range(5):
        cfg = ModelConfig(positive_energies=(1.0, 1.5), negative_energies=(-1.2,),
                          delta_matrix="random-symmetric", seed=seed,
                          delta_scale=0.05)
        m = build_interaction(cfg, "delta")
        assert np.max(np.abs(m - m.T)) < 1e-14
        doubled = ModelConfig(positive_energies=(1.0, 1.5), negative_energies=(-1.2,),
                              delta_matrix="random-symmetric", seed=seed,
                              delta_scale=0.1)
        assert np.array_equal(build_interaction(doubled, "delta"), 2.0 * m)
    _ = rng


def test_interaction_rejects_bad_matrices():
    base = dict(positive_energies=(1.0,), negative_energies=(-1.2,))
    with pytest.raises(ConfigError):
        build_interaction(
            ModelConfig(**base, coulomb_matrix=((0.0, 1.0), (0.5, 0.0))), "coulomb"
        )
    with pytest.raises(ConfigError):
        build_interaction(
            ModelConfig(**base, coulomb_matrix=((1.0, 0.0), (0.0, 1.0))), "coulomb"
        )  # 2x2 against a 4-dim basis


def test_negative_couplings_rejected():
    with pytest.raises(ConfigError, match="coulomb_scale"):
        ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                    coulomb_scale=-1.0)
