"""Residue-engine behavior against hand-derived values and the quadrature
oracle.  The dim-4 sandwich entries below are exact rationals obtained by
closing the contour by hand (double poles included); the quadrature oracle
reproduced every one of them independently before they were frozen here.
"""

import itertools
import re

import numpy as np
import pytest

from bwlab import (
    DegenerateDenominatorError,
    RunConfig,
    build_basis,
    contour_integral_Finv,
    j_series,
    propagator_S,
    quadrature_oracle,
    sandwich_integral,
    xj_matrix,
    xj_matrix_ssum_route,
)
from bwlab.quadrature import quadrature_chain
from bwlab.model import SingleParticleSpectrum, dirac_like_energies
from bwlab import propagators
from bwlab.propagators import ChainIntegrator
from bwlab.residues import (
    LOWER, MERGE_TOL, PINCH_TOL, UPPER, _series_coeffs, clustered_poles, pole_product_integral,
)
from conftest import energy_away_from_poles, random_spectrum


def as_clusters(x, start):
    """[(position, multiplicity)] of one item's side from clustered_poles."""
    return [(float(x[c]), int(m))
            for c, m in zip(np.flatnonzero(start), np.bincount(start.cumsum() - 1))]


def pole_by_pole_clusters(poles):
    """The clustering rule applied one sorted pole at a time, the reference
    for clustered_poles: (upper, lower) [(position, multiplicity)] of the
    given (position, side) poles, or the message of the abort."""
    scale = max(1.0, max(abs(p) for p, _ in poles))
    clusters = ([], [])
    for side, out in zip((UPPER, LOWER), clusters):
        for p in sorted(p for p, s in poles if s == side):
            if out and abs(p - out[-1][0]) <= MERGE_TOL * max(1.0, abs(p)):
                out[-1] = (out[-1][0], out[-1][1] + 1)
            else:
                out.append((p, 1))
    upper, lower = clusters
    if upper and lower:
        for pu, _ in upper:
            if any(abs(pu - pl) < PINCH_TOL * scale for pl, _ in lower):
                return f"pinched pole pair at eps = {pu:.6g} (opposite half-planes)"
        for side in clusters:
            for (p1, _), (p2, _) in zip(side, side[1:]):
                if abs(p1 - p2) < PINCH_TOL * scale:
                    return f"near-coincident poles at eps = {p1:.6g} (ill-conditioned)"
    return clusters


def residue_sum_check(poles, prefactor=1.0):
    """Difference between the two closures (zero for a correct engine when
    the integrand decays at least like eps^-2)."""
    pos, sides = zip(*poles)
    upper, lower = (as_clusters(x[0], start[0])
                    for x, start in clustered_poles(np.array([pos]), np.equal(sides, UPPER)))
    if not upper or not lower:
        return 0.0
    merged_u = upper + lower
    tot_u = sum(
        _series_coeffs(merged_u, i, upper[i][1])[upper[i][1] - 1] for i in range(len(upper))
    )
    merged_l = lower + upper
    tot_l = sum(
        _series_coeffs(merged_l, i, lower[i][1])[lower[i][1] - 1] for i in range(len(lower))
    )
    return prefactor * (-tot_u) - prefactor * tot_l


def test_propagator_S_value(dim4):
    spectrum, basis, _, _ = dim4
    s1 = propagator_S(basis, 2.1, 0.0, 1)
    assert s1[0] == pytest.approx(1.0 / 0.05, rel=1e-6)


def test_propagator_sum_is_D(dim4):
    spectrum, basis, _, _ = dim4
    rng = np.random.default_rng(0)
    for _ in range(20):
        E, eps = rng.uniform(-3, 3, size=2)
        s1 = propagator_S(basis, E, eps, 1)
        s2 = propagator_S(basis, E, eps, 2)
        d = E - basis.pair_energies()
        assert np.max(np.abs(1.0 / s1 + 1.0 / s2 - d)) < 1e-12


def test_g0mod_pointwise_identity():
    """F^-1 = S1 S2 = D^-1 (S1 + S2) at 100 random samples away from poles."""
    rng = np.random.default_rng(42)
    pos, neg = random_spectrum(rng)
    spectrum = SingleParticleSpectrum.from_lists(pos, neg)
    basis = build_basis(spectrum)
    checked = 0
    while checked < 100:
        E = energy_away_from_poles(rng, spectrum)
        eps = float(rng.uniform(-5, 5))
        s1 = propagator_S(basis, E, eps, 1)
        s2 = propagator_S(basis, E, eps, 2)
        if np.min(np.abs(1.0 / s1)) < 0.05 or np.min(np.abs(1.0 / s2)) < 0.05:
            continue
        d = E - basis.pair_energies()
        assert np.max(np.abs(s1 * s2 - (s1 + s2) / d)) < 1e-12
        checked += 1


def test_pole_product_basic_cases():
    # single F^-1, ++ pair at E = 2.1: 1/(E - 2e) = 10
    val = pole_product_integral([(-0.05, LOWER), (0.05, UPPER)], -1.0)
    assert val == pytest.approx(10.0, abs=1e-12)
    # both poles one side: contour closes in the empty half-plane
    assert pole_product_integral([(-0.05, LOWER), (2.25, LOWER)], -1.0) == 0.0
    # double pole residue: sandwich all-ground value 2/(E-2e)^3
    val = pole_product_integral(
        [(-0.05, LOWER), (-0.05, LOWER), (0.05, UPPER), (0.05, UPPER)], 1.0
    )
    assert val == pytest.approx(2000.0, rel=1e-12)


def test_pole_product_closure_consistency():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        poles = []
        for _ in range(n):
            poles.append((float(rng.uniform(-3, 3)), UPPER if rng.random() < 0.5 else LOWER))
        try:
            gap = residue_sum_check(poles)
        except DegenerateDenominatorError:
            continue
        assert abs(gap) < 1e-9


def test_pole_product_pinch_aborts():
    with pytest.raises(DegenerateDenominatorError):
        pole_product_integral([(0.5, LOWER), (0.5 + 1e-12, UPPER)])


def test_clustered_poles_merge_from_the_first_pole():
    """Three same-side poles, each within MERGE_TOL of its neighbour but the
    outer two farther apart: the third is too far from its cluster's first
    pole, so it starts a cluster of its own, which the first one crowds.  A
    fourth pole close to the third joins the third's cluster, not a new one."""
    pos = np.array([[0.0, 0.8 * MERGE_TOL, 1.6 * MERGE_TOL]])
    (_, start), (_, lower) = clustered_poles(pos, np.array([True, True, True]))
    assert start.tolist() == [[True, False, True]] and lower.shape == (1, 0)
    (_, start), _ = clustered_poles(np.array([[0.0, 0.6, 1.2, 1.8]]) * MERGE_TOL, np.ones(4, bool))
    assert start.tolist() == [[True, False, True, False]]
    with pytest.raises(DegenerateDenominatorError, match="near-coincident poles at eps = 0 "):
        clustered_poles(np.append(pos, [[5.0]], axis=1), np.array([True, True, True, False]))


def test_clustered_poles_equals_the_pole_by_pole_rule():
    """Random stacks of pole sets a few MERGE_TOL, tens of them or far apart:
    each item's clusters, or the first failing item's message, are those of
    the rule applied one pole at a time."""
    rng = np.random.default_rng(3)
    raised = 0
    for _ in range(400):
        k, items = rng.integers(2, 7), rng.integers(1, 4)
        base = rng.choice([0.0, -3.0, 1e3])
        steps = rng.choice([0.0, 0.6, 1.2, 30.0, 1e3], (items, k)) * rng.choice([1, -1], k)
        pos = base + np.cumsum(steps, axis=1) * MERGE_TOL * max(1.0, abs(base))
        upper = rng.random(k) < 0.6
        want = [pole_by_pole_clusters([*zip(row.tolist(), np.where(upper, UPPER, LOWER))])
                for row in pos]
        failed = [w for w in want if isinstance(w, str)]
        if failed:
            with pytest.raises(DegenerateDenominatorError) as aborted:
                clustered_poles(pos, upper)
            assert str(aborted.value) == failed[0]
            raised += 1
        else:
            got = clustered_poles(pos, upper)
            assert [tuple(as_clusters(x[p], start[p]) for x, start in got)
                    for p in range(items)] == want
    assert 50 < raised < 350


def test_clustered_poles_pinch_before_near_coincidence():
    """Within an item a pinch is raised before a near-coincidence, also one
    at a lower position; across a stack the first failing item raises."""
    upper = np.array([True, True, True, False])
    near = [0.0, 30 * MERGE_TOL, 3.0, 7.0]  # two upper poles closer than PINCH_TOL
    pinch = [-4.0, 0.0, 5.0, 5.0 + MERGE_TOL]  # an upper and a lower pole at 5
    both = [0.0, 30 * MERGE_TOL, 5.0, 5.0 + MERGE_TOL]
    assert 30 * MERGE_TOL < PINCH_TOL
    for stack, message in (([both], "pinched pole pair at eps = 5 "),
                           ([near, pinch], "near-coincident poles at eps = 0 "),
                           ([pinch, near], "pinched pole pair at eps = 5 ")):
        with pytest.raises(DegenerateDenominatorError, match=message):
            clustered_poles(np.array(stack), upper)


def test_contour_integral_values(dim4):
    spectrum, basis, _, _ = dim4
    got = np.diag(contour_integral_Finv(basis, 2.1))
    assert np.allclose(got, [10.0, 0.0, 0.0, -1.0 / 4.5], atol=1e-14)


def test_contour_integral_degenerate(dim4):
    spectrum, basis, _, _ = dim4
    with pytest.raises(DegenerateDenominatorError):
        contour_integral_Finv(basis, 2.0)


DIM4_I4_TABLE = np.array([
    [2000.0, 500 / 11, 500 / 11, 200 / 99],
    [500 / 11, 0.0, 200 / 99, 20 / 891],
    [500 / 11, 200 / 99, 0.0, 20 / 891],
    [200 / 99, 20 / 891, 20 / 891, -2.0 / 4.5 ** 3],
])


def test_sandwich_dim4_frozen_table(dim4):
    """Exact dim-4 table at E = 2.1 (hand residues, quadrature-confirmed).

    The (mm, mm) entry is the doubly-negative double pole -2/(E - 2e)^3
    with e = -1.2: the lower-half closure flips the sign twice.
    """
    spectrum, basis, _, _ = dim4
    X = sandwich_integral(basis, 2.1, np.ones((4, 4)))
    assert np.allclose(X, DIM4_I4_TABLE, rtol=1e-12)


def test_sandwich_scales_with_entry(dim4):
    spectrum, basis, _, _ = dim4
    A = np.zeros((4, 4))
    A[0, 0] = 3.5
    X = sandwich_integral(basis, 2.1, A)
    assert X[0, 0] == pytest.approx(3.5 * 2000.0, rel=1e-12)
    assert np.count_nonzero(X) == 1


def test_sandwich_zero_and_linearity(dim4):
    spectrum, basis, _, _ = dim4
    assert not np.any(sandwich_integral(basis, 2.1, np.zeros((4, 4))))
    rng = np.random.default_rng(1)
    A = rng.uniform(-1, 1, size=(4, 4))
    B = rng.uniform(-1, 1, size=(4, 4))
    lhs = sandwich_integral(basis, 2.1, 0.7 * A - 2.0 * B)
    rhs = 0.7 * sandwich_integral(basis, 2.1, A) - 2.0 * sandwich_integral(basis, 2.1, B)
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(rhs))


def test_sandwich_exchange_symmetry():
    rng = np.random.default_rng(9)
    pos, neg = random_spectrum(rng)
    spectrum = SingleParticleSpectrum.from_lists(pos, neg)
    basis = build_basis(spectrum)
    E = energy_away_from_poles(rng, spectrum)
    A = rng.uniform(-1, 1, size=(basis.dim, basis.dim))
    A = 0.5 * (A + A.T)
    X = sandwich_integral(basis, E, A)
    assert np.max(np.abs(X - X.T)) < 1e-12 * max(1.0, np.max(np.abs(X)))


def test_sandwich_vs_quadrature(dim4):
    spectrum, basis, _, g = dim4
    X = sandwich_integral(basis, 2.1, g)
    Xq = quadrature_oracle(spectrum, 2.1, g)
    assert np.max(np.abs(X - Xq)) < 1e-6 * np.max(np.abs(X))


def test_j_series_first_term_is_sandwich(dim4):
    spectrum, basis, _, g = dim4
    terms = j_series(basis, 2.25, g, 1)
    assert len(terms) == 1
    assert np.array_equal(terms[0], sandwich_integral(basis, 2.25, g))


@pytest.mark.parametrize("E", [2.07, 0.3])  # 0.3: a mixed pair's energy, a double pole
def test_sandwich_stack_equals_per_matrix_calls(E):
    """sandwich_integral and j_series over a stack of matrices at one E give,
    item by item, the per-matrix calls bit for bit: dense matrices, a zero
    matrix and a sparse coupling, whose active pairs differ."""
    spectrum = SingleParticleSpectrum.from_lists((1.0, 1.5), (-1.2,))
    basis = build_basis(spectrum)
    rng = np.random.default_rng(5)
    A = rng.uniform(-1.0, 1.0, size=(basis.dim, basis.dim))
    sparse = np.zeros_like(A)
    sparse[6, 1] = sparse[1, 6] = sparse[6, 6] = 0.04
    stack = np.array([A, np.zeros_like(A), sparse, 0.5 * (A + A.T)])
    got = sandwich_integral(basis, E, stack)
    assert got.shape == stack.shape
    assert [X.tobytes() for X in got] == [
        sandwich_integral(basis, E, M).tobytes() for M in stack]
    assert not np.any(got[1])
    terms = j_series(basis, E, stack, 2)
    for p, M in enumerate(stack):
        assert [T[p].tobytes() for T in terms] == [
            T.tobytes() for T in j_series(basis, E, M, 2)]


def test_j_series_zero_coupling(dim4):
    spectrum, basis, _, _ = dim4
    terms = j_series(basis, 2.1, np.zeros((4, 4)), 3)
    assert len(terms) == 3
    assert not any(np.any(t) for t in terms)


def test_j_series_second_term_dim1():
    """Single positive state e = 1 at E = 3: the second term is the
    six-propagator integral gamma^2 * 6 / (E - 2e)^5 = 6 gamma^2."""
    spectrum = SingleParticleSpectrum.from_lists([1.0], [])
    basis = build_basis(spectrum)
    gamma = 0.3
    g = np.array([[gamma]])
    terms = j_series(basis, 3.0, g, 2)
    assert terms[1][0, 0] == pytest.approx(6.0 * gamma ** 2, rel=1e-12)


def test_j_series_vs_chain_quadrature(dim4):
    spectrum, basis, _, g = dim4
    terms = j_series(basis, 2.25, g, 2)
    q1 = quadrature_chain(spectrum, 2.25, [g])
    q2 = quadrature_chain(spectrum, 2.25, [g, g])
    assert np.max(np.abs(terms[0] - q1)) < 1e-6 * np.max(np.abs(terms[0]))
    assert np.max(np.abs(terms[1] - q2)) < 1e-6 * np.max(np.abs(terms[1]))


def test_ssum_route_matches_direct():
    rng = np.random.default_rng(17)
    for _ in range(5):
        pos, neg = random_spectrum(rng, max_each=2)
        spectrum = SingleParticleSpectrum.from_lists(pos, neg)
        basis = build_basis(spectrum)
        E = energy_away_from_poles(rng, spectrum)
        g = rng.uniform(-0.2, 0.2, size=(basis.dim, basis.dim))
        g = 0.5 * (g + g.T)
        X1 = xj_matrix(basis, E, g, 2)
        X2 = xj_matrix_ssum_route(basis, E, g, 2)
        assert np.max(np.abs(X1 - X2)) < 1e-10 * max(1.0, np.max(np.abs(X1)))


def chain_enumeration(basis, E, g, order, dinv=None):
    """Kernel-series terms by enumerating every index chain, one scalar
    residue integral each: W_k = sum over chains p_0 .. p_{k+1} of
    g[p_0, p_1] ... g[p_k, p_{k+1}] times the joint integral of F^-1 factors
    (dinv None) or of S1 + S2 factors with dinv on the inner pairs.

    Also returns, per term, the sum of the absolute chain contributions:
    the scale of the rounding error of any evaluation that sums them.
    """
    chain = ChainIntegrator(basis, E)
    integral = chain.finv_product if dinv is None else chain.ssum_product
    terms, scales = [], []
    for k in range(order):
        T = np.zeros((basis.dim, basis.dim))
        A = np.zeros_like(T)
        for links in itertools.product(range(basis.dim), repeat=k + 2):
            idx = np.array(links)
            w = np.prod(g[idx[:-1], idx[1:]])
            if dinv is not None:
                w *= np.prod(dinv[idx[1:-1]])
            if w:
                c = w * integral(links)
                T[links[0], links[-1]] += c
                A[links[0], links[-1]] += abs(c)
        terms.append(T)
        scales.append(A)
    return terms, scales


def separated_spectrum(rng, max_each=2, min_gap=0.25):
    """Random spectrum whose same-sign levels are at least min_gap apart.

    Closer levels put same-side poles close together; the residue sums of
    either evaluation then cancel and lose digits to rounding.
    """
    n_pos, n_neg = rng.integers(1, max_each + 1, size=2)
    pos = 0.5 + np.cumsum(rng.uniform(min_gap, 1.0, size=n_pos))
    neg = -0.5 - np.cumsum(rng.uniform(min_gap, 1.0, size=n_neg))
    return tuple(pos), tuple(neg)


def test_laurent_engine_matches_chain_enumeration():
    """Both routes against the chain-by-chain sum on random spectra of at
    most 2 + 2 levels, j_order 1 to 3; agreement to 1e-12 of the summed
    absolute chain contributions."""
    rng = np.random.default_rng(23)
    for case in range(9):
        pos, neg = separated_spectrum(rng)
        spectrum = SingleParticleSpectrum.from_lists(pos, neg)
        basis = build_basis(spectrum)
        E = energy_away_from_poles(rng, spectrum)
        order = 1 + case % 3
        while basis.dim ** (order + 1) > 10 ** 4:
            order -= 1
        g = rng.uniform(-0.2, 0.2, size=(basis.dim, basis.dim))
        g = 0.5 * (g + g.T)

        ref, scales = chain_enumeration(basis, E, g, order)
        for T, R, A in zip(j_series(basis, E, g, order), ref, scales):
            assert np.max(np.abs(T - R)) < 1e-12 * np.max(A)

        dinv = 1.0 / (E - basis.pair_energies())
        ref, scales = chain_enumeration(basis, E, g, order, dinv)
        outer = np.outer(dinv, dinv)
        X = xj_matrix_ssum_route(basis, E, g, order)
        assert np.max(np.abs(X - outer * sum(ref))) < 1e-12 * np.max(np.abs(outer) * sum(scales))


@pytest.mark.parametrize("pos, neg", [
    ((1.0,), (-1.2,)),
    ((1.0, 1.5), (-1.25, -1.75)),
    ((1.0, 1.6), (-1.2, -1.7)),
])
def test_laurent_engine_same_side_confluent_pole(pos, neg):
    """At E = e_p + e_m both poles of the mixed pairs meet on one side: a
    double pole for the direct route, a zero denominator for the S-sum
    route, which aborts.  In the last case a second mixed pair sits 0.1 from
    E, so its two poles are close on one side; closing every chain upwards
    misses the reference there by 7.5e-10 of the scale."""
    spectrum = SingleParticleSpectrum.from_lists(pos, neg)
    basis = build_basis(spectrum)
    E = pos[0] + neg[0]
    g = np.random.default_rng(1).uniform(-0.1, 0.1, size=(basis.dim, basis.dim))
    g = g + g.T
    ref, scales = chain_enumeration(basis, E, g, 2)
    for T, R, A in zip(j_series(basis, E, g, 2), ref, scales):
        assert np.max(np.abs(T - R)) < 1e-12 * np.max(A)
    with pytest.raises(DegenerateDenominatorError):
        xj_matrix_ssum_route(basis, E, g, 2)


@pytest.mark.parametrize("E", [2.0, 2.0 + 1e-12])
def test_laurent_engine_pinch_aborts(dim4, E):
    spectrum, basis, _, g = dim4
    with pytest.raises(DegenerateDenominatorError):
        sandwich_integral(basis, E, g)
    with pytest.raises(DegenerateDenominatorError):
        xj_matrix(basis, E, g, 2)


def test_laurent_engine_dim64_routes_agree():
    """dim 64, j_order 3, out of reach of chain enumeration."""
    pos, neg = dirac_like_energies(n_each=4)
    spectrum = SingleParticleSpectrum.from_lists(pos, neg)
    basis = build_basis(spectrum)
    g = np.random.default_rng(5).uniform(-0.02, 0.02, size=(basis.dim, basis.dim))
    g = g + g.T
    X1 = xj_matrix(basis, 2.07, g, 3)
    X2 = xj_matrix_ssum_route(basis, 2.07, g, 3)
    assert np.max(np.abs(X1 - X2)) < 1e-10 * np.max(np.abs(X1))


def test_settings_validation(dim4_config):
    with pytest.raises(Exception):
        RunConfig(dim4_config, j_order=0)
    s = RunConfig(dim4_config)
    assert s.j_order == 2


def assert_applied_matches(basis, E, g, order, v,
                           routes=(xj_matrix, xj_matrix_ssum_route)):
    """X v from the applied path against the matrix X times v, within 1e-13
    of max(1, |X v|)."""
    for route in routes:
        Xv = route(basis, E, g, order) @ v
        got = route(basis, E, g, order, v=v)
        assert got.shape == Xv.shape
        assert np.max(np.abs(got - Xv)) < 1e-13 * max(1.0, np.max(np.abs(Xv)))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_applied_path_matches_matrix(order):
    """Random spectra of dim 4 to 64, symmetric and nonsymmetric g (the
    latter exercises X_J[g]^T = X_J[g^T])."""
    rng = np.random.default_rng(100 + order)
    dims = set()
    for case in range(6):
        pos, neg = random_spectrum(rng, max_each=4)
        if case == 0:
            pos, neg = dirac_like_energies(n_each=4)
        spectrum = SingleParticleSpectrum.from_lists(pos, neg)
        basis = build_basis(spectrum)
        dims.add(basis.dim)
        E = energy_away_from_poles(rng, spectrum, min_gap=0.1)
        g = rng.uniform(-0.05, 0.05, size=(basis.dim, basis.dim))
        for gg in (g + g.T, g):
            assert_applied_matches(basis, E, gg, order, rng.standard_normal(basis.dim))
    assert 64 in dims and min(dims) < 64


def test_applied_path_partially_active_g():
    """Only pairs with a nonzero row or column of g take part; the applied
    path scatters the active block back like the matrix path."""
    rng = np.random.default_rng(7)
    pos, neg = dirac_like_energies(n_each=3)
    spectrum = SingleParticleSpectrum.from_lists(pos, neg)
    basis = build_basis(spectrum)
    act = rng.choice(basis.dim, size=basis.dim // 3, replace=False)
    g = np.zeros((basis.dim, basis.dim))
    g[np.ix_(act, act)] = rng.uniform(-0.1, 0.1, size=(act.size, act.size))
    v = rng.standard_normal(basis.dim)
    for order in (1, 2, 3):
        assert_applied_matches(basis, 2.07, g, order, v)


@pytest.mark.parametrize("pos, neg", [
    ((1.0,), (-1.2,)),
    ((1.0, 1.5), (-1.25, -1.75)),
    ((1.0, 1.6), (-1.2, -1.7)),
])
def test_applied_path_same_side_confluent_pole(pos, neg):
    """At the mixed-pair energy the direct route's applied path agrees with
    the matrix path; the S-sum route aborts with v as without it."""
    spectrum = SingleParticleSpectrum.from_lists(pos, neg)
    basis = build_basis(spectrum)
    E = pos[0] + neg[0]
    g = np.random.default_rng(1).uniform(-0.1, 0.1, size=(basis.dim, basis.dim))
    g = g + g.T
    v = np.random.default_rng(2).standard_normal(basis.dim)
    assert_applied_matches(basis, E, g, 2, v, routes=(xj_matrix,))
    with pytest.raises(DegenerateDenominatorError):
        xj_matrix_ssum_route(basis, E, g, 2, v=v)


@pytest.mark.parametrize("E", [2.0, 2.0 + 1e-12])
def test_applied_path_pinch_aborts(dim4, E):
    spectrum, basis, _, g = dim4
    with pytest.raises(DegenerateDenominatorError) as matrix:
        xj_matrix(basis, E, g, 2)
    with pytest.raises(DegenerateDenominatorError) as applied:
        xj_matrix(basis, E, g, 2, v=np.ones(basis.dim))
    assert str(applied.value) == str(matrix.value)


def test_applied_path_rejects_wrong_shape(dim4):
    spectrum, basis, _, g = dim4
    for route in (xj_matrix, xj_matrix_ssum_route):
        with pytest.raises(ValueError, match="v has shape"):
            route(basis, 2.25, g, 2, v=np.ones(basis.dim + 1))


#: engine calls with an argument that they reject, each with its ValueError
#: (g is the dim-4 delta coupling)
BAD_ARGUMENTS = {
    "propagator_S particle 3": (lambda b, g: propagator_S(b, 2.25, 0.0, 3),
                                "particle must be 1 or 2"),
    "j_series order 0": (lambda b, g: j_series(b, 2.25, g, 0), "order must be >= 1"),
    "xj_stack order 0": (lambda b, g: propagators.xj_stack(b, [2.25], g[None], 0),
                         "order must be >= 1"),
    "xj_stack E longer than g": (lambda b, g: propagators.xj_stack(b, [2.3, 2.4], g[None], 2),
                                 "E has shape (2,) and g (1, 4, 4): not one item each"),
    "xj_stack g longer than E": (lambda b, g: propagators.xj_stack(b, [2.3], [g, g], 2),
                                 "E has shape (1,) and g (2, 4, 4): not one item each"),
    "xj_matrix g 3x3": (lambda b, g: xj_matrix(b, 2.25, g[:3, :3], 2),
                        "g has shape (3, 3), basis needs (4, 4)"),
    "pole_product_integral no poles": (lambda b, g: pole_product_integral([]),
                                       "empty pole product"),
}


@pytest.mark.parametrize("name", BAD_ARGUMENTS)
def test_engine_rejects_bad_arguments(dim4, name):
    spectrum, basis, _, g = dim4
    call, message = BAD_ARGUMENTS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(basis, g)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_xj_stack_items_equal_one_point_builds(order):
    """xj_stack over a stack of energies gives, item by item, the one-point
    builds bit for bit, matrix and applied, on both routes at once or one
    at a time.  The stack holds two mixed-pair energies, where the direct
    route has a double pole and fewer pole clusters, among generic ones,
    and couplings that differ in their active pairs or vanish, so that the
    engine splits it into pole groups; the S-sum route takes only the items
    where D^-1 exists."""
    spectrum = SingleParticleSpectrum.from_lists((1.0, 1.5), (-1.2,))
    basis = build_basis(spectrum)
    rng = np.random.default_rng(11)
    m = rng.uniform(-1.0, 1.0, size=(basis.dim, basis.dim))
    g0 = 0.05 * (m + m.T)
    positive = g0 * np.outer(*[basis.unmixed_sign > 0] * 2)  # no pole of the -1.2 state
    # pairs (-1.2, 1.0) and (1.0, 1.5) only: upper poles of -1.2 and 1.5 merge
    # at 0.3 as those of -1.2 and 1.0 do at -0.2, but only at -0.2 into the
    # double pole of an active pair
    two = np.zeros_like(g0)
    two[6, 1] = two[1, 6] = two[6, 6] = 0.04
    E = np.array([2.07, 0.3, 2.31, -0.2, 2.2, 1.93, 2.6, 0.3, -0.2])  # 0.3, -0.2: mixed pairs
    g = np.array([g0, 1.3 * g0, 0.7 * g0, g0, positive, 0.0 * g0, 0.9 * g0, two, two])
    v = rng.uniform(-1.0, 1.0, size=(len(E), basis.dim))
    groups = propagators._pole_groups(spectrum, E, g)
    assert sorted(items.tolist() for items, *_ in groups) == [[0, 2, 6], [1], [3], [4], [7], [8]]
    assert sorted(up.size for *_, up in groups) == [2, 3, 3, 4, 4, 6]  # clusters
    with pytest.raises(DegenerateDenominatorError):
        xj_matrix_ssum_route(basis, E[1], g[1], order)
    ssum = np.array([0, 2, 4, 5, 6])
    for vecs in (None, v):
        def one(route, p):
            return route(basis, E[p], g[p], order, v=None if vecs is None else vecs[p])

        def stack(items, routes=("direct", "ssum")):
            return propagators.xj_stack(basis, E[items], g[items], order,
                                        None if vecs is None else vecs[items], routes)

        def bits(arrays):
            return [a.tobytes() for a in arrays]

        every = np.arange(len(E))
        assert bits(stack(every, ("direct",))[0]) == bits(one(xj_matrix, p) for p in every)
        direct, alt = stack(ssum)
        assert bits(direct) == bits(one(xj_matrix, p) for p in ssum)
        assert bits(alt) == bits(one(xj_matrix_ssum_route, p) for p in ssum)
        assert bits(stack(ssum, ("ssum",))[0]) == bits(alt)


def test_stacked_pole_search_equals_one_item_calls():
    """One pole search over a stack that mixes ordinary energies, a mixed-pair
    energy (a double pole), a pinched energy and a near-coincident one: the
    other items get the pole groups of their one-item calls bit for bit, and
    the stack raises the message of its first failing item alone."""
    spectrum = SingleParticleSpectrum.from_lists((1.0, 1.5), (-1.2,))
    basis = build_basis(spectrum)
    m = np.random.default_rng(5).uniform(-1.0, 1.0, size=(basis.dim, basis.dim))
    # 0.3 = -1.2 + 1.5: a double pole; 2.0 = 1.0 + 1.0: the poles of that ++
    # pair pinch; near -0.2 = -1.2 + 1.0 the upper poles of those states lie
    # 3e-11 apart: farther than MERGE_TOL, closer than PINCH_TOL
    E = np.array([2.07, 0.3, 2.0, -0.2 + 3e-11, 2.31, 2.6])
    g = np.broadcast_to(0.05 * (m + m.T), (len(E), basis.dim, basis.dim))

    def rows(items):
        out = {}
        for members, act, via, d, at, up in propagators._pole_groups(spectrum, E[items], g[items]):
            for r, p in enumerate(members.tolist()):
                out[items[p]] = [a.tobytes() for a in (act, via, d[r], at[r], up)]
        return out

    def message(items):
        with pytest.raises(DegenerateDenominatorError) as aborted:
            rows(items)
        return str(aborted.value)

    ok = [0, 1, 4, 5]
    assert rows(ok) == {p: rows([p])[p] for p in ok}
    assert "pinched" in message([2]) and "near-coincident" in message([3])
    assert message(list(range(len(E)))) == message([2])
    assert message([0, 3, 1, 2]) == message([3])
