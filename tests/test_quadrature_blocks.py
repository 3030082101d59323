"""The quadrature oracles sum their integrands over blocks of nodes: the
working set does not grow with the node count, the block length changes
the sums only by rounding, and oracles that share a NodeSums share its
one pass."""

import tracemalloc

import numpy as np
import pytest

from bwlab import build_basis, quadrature_finv, quadrature_oracle
from bwlab import quadrature
from bwlab.model import SingleParticleSpectrum
from bwlab.quadrature import NodeSums

DEFAULT_2P2 = SingleParticleSpectrum.from_lists([1.0, 1.5], [-1.0, -1.5])
E = 2.25


def oracle_peak(monkeypatch, points):
    """tracemalloc peak of one sandwich oracle at dim 16 with a coarser rule
    of the given points, after a first call has filled the Gauss-Legendre
    cache."""
    basis = build_basis(DEFAULT_2P2)
    monkeypatch.setattr(quadrature, "COARSE_POINTS", points)
    A = np.random.default_rng(3).uniform(-1, 1, size=(basis.dim, basis.dim))
    quadrature_oracle(DEFAULT_2P2, E, A)
    tracemalloc.start()
    try:
        quadrature_oracle(DEFAULT_2P2, E, A)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_memory_does_not_grow_with_nodes(monkeypatch):
    small, large = oracle_peak(monkeypatch, 24), oracle_peak(monkeypatch, 96)
    assert abs(large - small) < 0.1 * small


def test_block_length_changes_only_rounding(monkeypatch):
    basis = build_basis(DEFAULT_2P2)
    A = np.random.default_rng(4).uniform(-1, 1, size=(basis.dim, basis.dim))
    want = quadrature_oracle(DEFAULT_2P2, E, A)
    monkeypatch.setattr(quadrature, "BLOCK_BYTES", 1)  # one BLOCK_NODES chunk per block
    got = quadrature_oracle(DEFAULT_2P2, E, A)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_shared_node_sums_match_separate_oracles():
    basis = build_basis(DEFAULT_2P2)
    A = np.random.default_rng(5).uniform(-1, 1, size=(basis.dim, basis.dim))
    sums = NodeSums(DEFAULT_2P2, E)
    finv = quadrature_finv(DEFAULT_2P2, E, sums=sums)
    sandwich = quadrature_oracle(DEFAULT_2P2, E, A, sums=sums)
    assert np.array_equal(finv, quadrature_finv(DEFAULT_2P2, E))
    assert np.array_equal(sandwich, quadrature_oracle(DEFAULT_2P2, E, A))


def test_node_sums_for_another_problem_are_rejected():
    """An oracle given node sums made for another energy or spectrum raises
    instead of returning their integral."""
    basis = build_basis(DEFAULT_2P2)
    A = np.ones((basis.dim, basis.dim))
    other = SingleParticleSpectrum.from_lists([1.0, 1.6], [-1.0, -1.5])
    for sums in (NodeSums(DEFAULT_2P2, E + 0.35), NodeSums(other, E)):
        for oracle in (lambda: quadrature_finv(DEFAULT_2P2, E, sums=sums),
                       lambda: quadrature_oracle(DEFAULT_2P2, E, A, sums=sums)):
            with pytest.raises(ValueError, match="^sums were made for E = "):
                oracle()
