"""The quadrature oracles sum their integrands over blocks of nodes: the
working set does not grow with the node count, the block length changes
the sums only by rounding, and oracles that share a NodeSums share its
one pass."""

import tracemalloc

import numpy as np

from bwlab import IntegrationSettings, build_basis, quadrature_finv, quadrature_oracle
from bwlab import quadrature
from bwlab.model import SingleParticleSpectrum
from bwlab.quadrature import NodeSums

DEFAULT_2P2 = SingleParticleSpectrum.from_lists([1.0, 1.5], [-1.0, -1.5])
E = 2.25


def oracle_peak(points):
    """tracemalloc peak of one sandwich oracle at dim 16, after a first call
    has filled the Gauss-Legendre cache."""
    basis = build_basis(DEFAULT_2P2)
    settings = IntegrationSettings(quadrature_points=points)
    A = np.random.default_rng(3).uniform(-1, 1, size=(basis.dim, basis.dim))
    quadrature_oracle(DEFAULT_2P2, basis, E, A, settings)
    tracemalloc.start()
    try:
        quadrature_oracle(DEFAULT_2P2, basis, E, A, settings)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_memory_does_not_grow_with_nodes():
    small, large = oracle_peak(24), oracle_peak(96)
    assert abs(large - small) < 0.1 * small


def test_block_length_changes_only_rounding(monkeypatch):
    basis = build_basis(DEFAULT_2P2)
    settings = IntegrationSettings().refined()
    A = np.random.default_rng(4).uniform(-1, 1, size=(basis.dim, basis.dim))
    want = quadrature_oracle(DEFAULT_2P2, basis, E, A, settings)
    monkeypatch.setattr(quadrature, "BLOCK_BYTES", 1)  # one BLOCK_NODES chunk per block
    got = quadrature_oracle(DEFAULT_2P2, basis, E, A, settings)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_shared_node_sums_match_separate_oracles():
    basis = build_basis(DEFAULT_2P2)
    settings = IntegrationSettings().refined()
    A = np.random.default_rng(5).uniform(-1, 1, size=(basis.dim, basis.dim))
    sums = NodeSums(DEFAULT_2P2, E, settings)
    finv = quadrature_finv(DEFAULT_2P2, basis, E, settings, sums=sums)
    sandwich = quadrature_oracle(DEFAULT_2P2, basis, E, A, settings, sums=sums)
    assert np.array_equal(finv, quadrature_finv(DEFAULT_2P2, basis, E, settings))
    assert np.array_equal(sandwich, quadrature_oracle(DEFAULT_2P2, basis, E, A, settings))
