import numpy as np
import pytest

from bwlab import (
    DegenerateDenominatorError,
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


def test_finv_oracle_dim4(dim4):
    spectrum, basis, _, _ = dim4
    exact = contour_integral_Finv(basis, 2.1)
    quad = quadrature_finv(spectrum, 2.1)
    assert np.max(np.abs(quad - exact)) < 1e-6 * np.max(np.abs(exact))


def test_finv_oracle_random_spectra():
    rng = np.random.default_rng(101)
    for _ in range(5):
        pos, neg = random_spectrum(rng)
        spectrum = SingleParticleSpectrum.from_lists(pos, neg)
        basis = build_basis(spectrum)
        E = energy_away_from_poles(rng, spectrum)
        exact = contour_integral_Finv(basis, E)
        quad = quadrature_finv(spectrum, E)
        assert np.max(np.abs(quad - exact)) < 1e-6 * max(1.0, np.max(np.abs(exact)))


def test_oracle_odd_point_count(monkeypatch):
    """The breaks are symmetric about 0, so a panel centred on 0 puts a node
    of an odd rule (17 and 25 points) at t = 0; the tail map must not divide
    by it (numpy warnings fail the suite)."""
    spectrum = SingleParticleSpectrum.from_lists([1.0, 1.5], [-1.0, -1.5])
    basis = build_basis(spectrum)
    exact = contour_integral_Finv(basis, 2.25)
    monkeypatch.setattr(quadrature, "COARSE_POINTS", 17)
    quad = quadrature_finv(spectrum, 2.25)
    assert np.max(np.abs(quad - exact)) < 1e-12 * np.max(np.abs(exact))


def test_oracle_zero_matrix(dim4):
    spectrum = dim4[0]
    out = quadrature_oracle(spectrum, 2.1, np.zeros((4, 4)))
    assert not np.any(out)


def test_oracle_imaginary_part_small():
    """The imaginary part of the sandwich is a pure diagnostic; for a real
    symmetric A on a well-separated fixture it sits below 1e-8."""
    spectrum = SingleParticleSpectrum.from_lists([1.0], [-1.2])
    basis = build_basis(spectrum)
    A = np.full((4, 4), 0.3)
    re, im = quadrature_oracle(spectrum, 2.7, A, return_imag=True)
    assert np.max(np.abs(im)) < 1e-8
    assert np.max(np.abs(re - sandwich_integral(basis, 2.7, A))) < 1e-6


def test_oracle_nonconvergence_raises(dim4, monkeypatch):
    """Four points per panel leave the two contour rules (4 and 12 points)
    about 1e-3 apart, beyond CONVERGENCE_TOL."""
    spectrum = dim4[0]
    monkeypatch.setattr(quadrature, "COARSE_POINTS", 4)
    with pytest.raises(QuadratureConvergenceError, match="contour rules of 4 and 12 points differ"):
        quadrature_finv(spectrum, 2.1)


@pytest.mark.parametrize("positives, E", [([1.0], 2.0), ([1.0, 1.5], 2.5)],
                         ids=["e1+e1", "e1+e2"])
def test_oracle_pinch_raises(positives, E):
    """At a pp pair energy E = e_i + e_j the lower pole e_i - E/2 of S1 and
    the upper pole E/2 - e_j of S2 coincide: the oracle's own pinch check
    raises (it calls nothing of the residue engine)."""
    spectrum = SingleParticleSpectrum.from_lists(positives, [-1.2])
    with pytest.raises(DegenerateDenominatorError, match="^pinched contour at E = "):
        quadrature_finv(spectrum, E)


def test_oracle_raises_where_path_cannot_separate_poles():
    """At E = 2.4 + 1e-5, levels 1.0 and 1.4 put a lower and an upper pole
    1e-5 apart at x = -0.2.  The wider dip of the upper pole at x = -0.9,
    whose nearest lower pole lies 0.7 away, outweighs theirs there, so the
    path would pass the pair on the wrong side: the check raises.  At
    E = 2.4 + 1e-4 the path clears the pair."""
    spectrum = SingleParticleSpectrum.from_lists([1.0, 1.4, 2.1], [-1.2])
    basis = build_basis(spectrum)
    with pytest.raises(DegenerateDenominatorError, match="cannot pass the pole at x = -0.2"):
        quadrature_finv(spectrum, 2.4 + 1e-5)
    exact = contour_integral_Finv(basis, 2.4 + 1e-4)
    quad = quadrature_finv(spectrum, 2.4 + 1e-4)
    assert np.max(np.abs(quad - exact)) < 1e-12 * np.max(np.abs(exact))


# -- the oracle against a plain per-pair reference -----------------------------


def nodes_weights(spectrum, E):
    """Every node and weight of the finer rule, as two arrays."""
    blocks = [b[1:3] for b in quadrature._node_blocks(spectrum, E, quadrature.BLOCK_NODES)
              if b[0] == 1]
    return tuple(map(np.concatenate, zip(*blocks)))


def scalar_finv(spectrum, basis, E):
    """F^-1 = S1 S2 of every pair at the finer rule's contour nodes,
    computed one pair at a time: the per-pair form the oracle factors
    away.  Returns (weights, (dim, nodes) array)."""
    nodes, weights = nodes_weights(spectrum, E)
    e = np.asarray(spectrum.energies)
    f = np.empty((basis.dim, nodes.size), dtype=complex)
    for k, (i, j) in enumerate(basis.pairs):
        f[k] = 1.0 / (E / 2 + nodes - e[i]) / (E / 2 - nodes - e[j])
    return weights, f


def reference_chain(weights, f, mats):
    """i int deps/2pi F^-1 M_1 F^-1 ... M_k F^-1, one node at a time, and
    the absolute node sum int |...| |deps|/2pi: the node sum cancels by
    orders of magnitude, so its rounding scales with that, not with the
    result."""
    acc = np.zeros((f.shape[0], f.shape[0]), dtype=complex)
    size = np.zeros((f.shape[0], f.shape[0]))
    for t in range(f.shape[1]):
        m = np.diag(f[:, t])
        for M in mats:
            m = m @ M @ np.diag(f[:, t])
        acc += weights[t] * m
        size += np.abs(weights[t]) * np.abs(m)
    return (1j * acc / (2 * np.pi)).real, np.max(size) / (2 * np.pi)


def _jittered_3p3():
    rng = np.random.default_rng([7, 3])
    pos = [1.0 + 0.5 * k + rng.uniform(0.0, 0.1) for k in range(3)]
    neg = [-1.0 - 0.5 * k - rng.uniform(0.0, 0.1) for k in range(3)]
    return SingleParticleSpectrum.from_lists(pos, neg), 2.0 * pos[0] + 0.13


@pytest.fixture(params=["dim4", "jittered 3+3"])
def reference_case(request):
    """(spectrum, basis, E, weights, F^-1 at the nodes) of one case."""
    if request.param == "dim4":
        spectrum, E = SingleParticleSpectrum.from_lists([1.0], [-1.2]), 2.25
    else:
        spectrum, E = _jittered_3p3()
    basis = build_basis(spectrum)
    return (spectrum, basis, E) + scalar_finv(spectrum, basis, E)


def assert_close(got, want, scale):
    """Agreement to 1e-13 of the given scale."""
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_oracle_matches_per_pair_reference(reference_case):
    """The factored node sums reproduce the per-pair evaluation to rounding;
    the imaginary diagnostic is held to the scale of the real part."""
    spectrum, basis, E, weights, f = reference_case
    A = np.random.default_rng(5).uniform(-1, 1, size=(basis.dim, basis.dim))

    want = 1j * (f @ weights) / (2 * np.pi)
    got_re, got_im = quadrature_finv(spectrum, E, return_imag=True)
    scale = max(1.0, np.max(np.abs(want.real)))
    assert_close(got_re, np.diag(want.real), scale)
    assert_close(got_im, np.diag(want.imag), scale)

    want = 1j * ((f * weights) @ f.T) / (2 * np.pi)
    got_re, got_im = quadrature_oracle(spectrum, E, A, return_imag=True)
    scale = max(1.0, np.max(np.abs(A * want.real)))
    assert_close(got_re, A * want.real, scale)
    assert_close(got_im, A * want.imag, scale)


def test_chain_oracle_one_matrix_is_the_sandwich(dim4):
    spectrum = dim4[0]
    A = np.random.default_rng(8).uniform(-1, 1, size=(4, 4))
    chain = quadrature_chain(spectrum, 2.1, [A])
    sandwich = quadrature_oracle(spectrum, 2.1, A)
    assert_close(chain, sandwich, max(1.0, np.max(np.abs(sandwich))))


def test_chain_oracle_two_matrices_matches_reference(dim4):
    spectrum, basis, _, _ = dim4
    E = 2.25
    weights, f = scalar_finv(spectrum, basis, E)
    A, B = np.random.default_rng(9).uniform(-1, 1, size=(2, basis.dim, basis.dim))
    want, node_scale = reference_chain(weights, f, [A, B])
    got = quadrature_chain(spectrum, E, [A, B])
    assert_close(got, want, node_scale)
