import numpy as np
import pytest

from bwlab import (
    IntegrationSettings,
    QuadratureConvergenceError,
    build_basis,
    contour_integral_Finv,
    quadrature_finv,
    quadrature_oracle,
    sandwich_integral,
)
from bwlab.quadrature import quadrature_chain
from bwlab import quadrature
from bwlab.model import SingleParticleSpectrum
from conftest import energy_away_from_poles, random_spectrum


def test_finv_oracle_dim4(dim4, settings):
    spectrum, basis, _, _ = dim4
    exact = contour_integral_Finv(spectrum, basis, 2.1)
    quad = quadrature_finv(spectrum, basis, 2.1, settings)
    assert np.max(np.abs(quad - exact)) < 1e-6 * np.max(np.abs(exact))


def test_finv_oracle_random_spectra(settings):
    rng = np.random.default_rng(101)
    for _ in range(5):
        pos, neg = random_spectrum(rng)
        spectrum = SingleParticleSpectrum.from_lists(pos, neg)
        basis = build_basis(spectrum)
        E = energy_away_from_poles(rng, spectrum)
        exact = contour_integral_Finv(spectrum, basis, E)
        quad = quadrature_finv(spectrum, basis, E, settings)
        assert np.max(np.abs(quad - exact)) < 1e-6 * max(1.0, np.max(np.abs(exact)))


def test_oracle_zero_matrix(dim4, settings):
    spectrum, basis, _, _ = dim4
    out = quadrature_oracle(spectrum, basis, 2.1, np.zeros((4, 4)), settings)
    assert not np.any(out)


def test_oracle_imaginary_part_small():
    """Extrapolated imaginary part of the sandwich is a pure diagnostic;
    for a real symmetric A on a well-separated fixture it sits below 1e-8."""
    spectrum = SingleParticleSpectrum.from_lists([1.0], [-1.2])
    basis = build_basis(spectrum)
    settings = IntegrationSettings()
    A = np.full((4, 4), 0.3)
    re, im = quadrature_oracle(spectrum, basis, 2.7, A, settings, return_imag=True)
    assert np.max(np.abs(im)) < 1e-8
    assert np.max(np.abs(re - sandwich_integral(spectrum, basis, 2.7, A))) < 1e-6


def test_oracle_nonconvergence_raises(dim4):
    """A pinched configuration (E on a pair energy) cannot extrapolate."""
    spectrum, basis, _, _ = dim4
    settings = IntegrationSettings()
    with pytest.raises(QuadratureConvergenceError):
        quadrature_finv(spectrum, basis, 2.0, settings)


def test_refined_settings_tighter(dim4, settings):
    spectrum, basis, _, g = dim4
    exact = sandwich_integral(spectrum, basis, 2.1, g)
    coarse = quadrature_oracle(spectrum, basis, 2.1, g, settings)
    fine = quadrature_oracle(spectrum, basis, 2.1, g, settings.refined())
    err_coarse = np.max(np.abs(coarse - exact))
    err_fine = np.max(np.abs(fine - exact))
    assert err_fine < err_coarse


def test_extrapolate_imaginary_part_odd_in_eta():
    """Re = a + polynomial in eta^2 and Im = c + odd polynomial in eta, each
    with one term per extra level, are extrapolated to a and c exactly; a
    one-level ladder returns its value."""
    etas = np.array(IntegrationSettings().refined().eta_sequence)
    a = np.array([[1.5, -2.0], [0.0, 4e-3]])
    c = np.array([[0.0, 2.5e-5], [-1.0, 3.0]])
    t = etas ** 2
    even = t * 0.7 - t ** 2 * 3e2 + t ** 3 * 2e6 - t ** 4 * 1e10
    odd = etas * 0.4 - etas ** 3 * 8e2 + etas ** 5 * 3e6 - etas ** 7 * 2e10
    values = [a + v + 1j * (c + o) for v, o in zip(even, odd)]
    re, im = quadrature._extrapolate(etas, values)
    assert np.allclose(re, a, rtol=0, atol=1e-13)
    assert np.allclose(im, c, rtol=0, atol=1e-13)
    re, im = quadrature._extrapolate(etas[:1], values[:1])
    assert np.array_equal(re, values[0].real) and np.array_equal(im, values[0].imag)


# -- the oracle against a plain per-pair reference -----------------------------


def scalar_finv_levels(spectrum, basis, E, settings):
    """Per eta level, F^-1 = S1 S2 of every pair at the nodes, computed one
    pair at a time: the per-pair form the oracle factors away.  Returns
    (weights, [(dim, nodes) array per level])."""
    nodes, weights = quadrature._nodes_weights(spectrum, E, settings)
    e = np.asarray(spectrum.energies)
    levels = []
    for eta in settings.eta_sequence:
        f = np.empty((basis.dim, nodes.size), dtype=complex)
        for k, (i, j) in enumerate(basis.pairs):
            s1 = 1.0 / (E / 2 + nodes - e[i] + 1j * eta * np.sign(e[i]))
            s2 = 1.0 / (E / 2 - nodes - e[j] + 1j * eta * np.sign(e[j]))
            f[k] = s1 * s2
        levels.append(f)
    return weights, levels


def reference_chain(weights, levels, etas, mats):
    """i int deps/2pi F^-1 M_1 F^-1 ... M_k F^-1, one node at a time, and
    the largest absolute node sum int |...| deps/2pi over the levels: the
    node sum cancels by orders of magnitude, so its rounding scales with
    that, not with the result."""
    per_eta, node_scale = [], 0.0
    for f in levels:
        acc = np.zeros((f.shape[0], f.shape[0]), dtype=complex)
        size = np.zeros((f.shape[0], f.shape[0]))
        for t in range(f.shape[1]):
            m = np.diag(f[:, t])
            for M in mats:
                m = m @ M @ np.diag(f[:, t])
            acc += weights[t] * m
            size += weights[t] * np.abs(m)
        per_eta.append(1j * acc / (2 * np.pi))
        node_scale = max(node_scale, np.max(size) / (2 * np.pi))
    return quadrature._extrapolate(etas, per_eta)[0], node_scale


def _jittered_3p3():
    rng = np.random.default_rng([7, 3])
    pos = [1.0 + 0.5 * k + rng.uniform(0.0, 0.1) for k in range(3)]
    neg = [-1.0 - 0.5 * k - rng.uniform(0.0, 0.1) for k in range(3)]
    return SingleParticleSpectrum.from_lists(pos, neg), 2.0 * pos[0] + 0.13


@pytest.fixture(params=["dim4", "jittered 3+3"])
def reference_case(request):
    """(spectrum, basis, E, settings, weights, per-level F^-1) of one case."""
    if request.param == "dim4":
        spectrum, E = SingleParticleSpectrum.from_lists([1.0], [-1.2]), 2.25
    else:
        spectrum, E = _jittered_3p3()
    basis = build_basis(spectrum)
    settings = IntegrationSettings()
    return (spectrum, basis, E, settings) + scalar_finv_levels(spectrum, basis, E, settings)


def assert_close(got, want, scale):
    """Agreement to 1e-13 of the given scale."""
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_oracle_matches_per_pair_reference(reference_case):
    """The factored node sums reproduce the per-pair evaluation to rounding;
    the imaginary diagnostic is held to the scale of the real part."""
    spectrum, basis, E, settings, weights, levels = reference_case
    etas = settings.eta_sequence
    A = np.random.default_rng(5).uniform(-1, 1, size=(basis.dim, basis.dim))

    re, im = quadrature._extrapolate(
        etas, [1j * (f @ weights) / (2 * np.pi) for f in levels]
    )
    got_re, got_im = quadrature_finv(spectrum, basis, E, settings, return_imag=True)
    scale = max(1.0, np.max(np.abs(re)))
    assert_close(got_re, np.diag(re), scale)
    assert_close(got_im, np.diag(im), scale)

    re, im = quadrature._extrapolate(
        etas, [1j * ((f * weights) @ f.T) / (2 * np.pi) for f in levels]
    )
    got_re, got_im = quadrature_oracle(spectrum, basis, E, A, settings, return_imag=True)
    scale = max(1.0, np.max(np.abs(A * re)))
    assert_close(got_re, A * re, scale)
    assert_close(got_im, A * im, scale)


def test_chain_oracle_one_matrix_is_the_sandwich(dim4, settings):
    spectrum, basis, _, _ = dim4
    A = np.random.default_rng(8).uniform(-1, 1, size=(4, 4))
    chain = quadrature_chain(spectrum, basis, 2.1, [A], settings)
    sandwich = quadrature_oracle(spectrum, basis, 2.1, A, settings)
    assert_close(chain, sandwich, max(1.0, np.max(np.abs(sandwich))))


def test_chain_oracle_two_matrices_matches_reference(dim4, settings):
    spectrum, basis, _, _ = dim4
    E = 2.25
    weights, levels = scalar_finv_levels(spectrum, basis, E, settings)
    A, B = np.random.default_rng(9).uniform(-1, 1, size=(2, basis.dim, basis.dim))
    want, node_scale = reference_chain(weights, levels, settings.eta_sequence, [A, B])
    got = quadrature_chain(spectrum, basis, E, [A, B], settings)
    assert_close(got, want, node_scale)
