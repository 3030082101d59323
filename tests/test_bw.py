import math

import numpy as np
import pytest

from bwlab import (
    ConvergenceError,
    DegenerateDenominatorError,
    ModelConfig,
    build_basis,
    build_Hc,
    build_interaction,
    build_spectrum,
    bw_selfconsistent,
    bw_terms,
    solve_no_pair,
)
from bwlab.operators import build_D, projectors
import bwlab.bw
from bwlab.bw import SECANT_MAX_RATIO, TOL, EnergyLedger, bw_lockstep
from bwlab.controversy import ladder_perturbation
from bwlab.model import SingleParticleSpectrum
from conftest import jittered_dim36

# 2x2 reference model: H = [[0, v], [v, 1]] with v = 0.1; the lowest
# eigenvalue solves E^2 - E - v^2 = 0.
TWO_LEVEL_EXACT = (1.0 - math.sqrt(1.04)) / 2.0


def two_level():
    H_c = np.diag([0.0, 1.0])
    V = np.array([[0.0, 0.1], [0.1, 0.0]])
    psi = np.array([1.0, 0.0])
    return H_c, V, psi


def resolvent_of(H_c):
    """The resolvent about the lowest eigenvector of a symmetric H_c, taken
    whole as the block of the no-pair solve."""
    return solve_no_pair(H_c, range(len(H_c)))[2]


def test_solve_no_pair_zero_coupling(dim4):
    spectrum, basis, _, _ = dim4
    H = build_Hc(basis, np.zeros((4, 4)))
    E_c, psi, _ = solve_no_pair(H, basis.pattern_indices("pp"))
    assert E_c == pytest.approx(2.0)
    assert np.allclose(psi, [1.0, 0.0, 0.0, 0.0])


def test_solve_no_pair_dim4(dim4):
    spectrum, basis, I_c, _ = dim4
    H = build_Hc(basis, I_c)
    E_c, psi, _ = solve_no_pair(H, basis.pattern_indices("pp"))
    assert E_c == pytest.approx(2.1)
    p = projectors(basis)
    assert np.linalg.norm(p.pp @ psi - psi) < 1e-12
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_solve_no_pair_block_and_residual():
    spectrum = SingleParticleSpectrum.from_lists([1.0, 1.5], [-1.2])
    basis = build_basis(spectrum)
    I_c = 0.1 * np.ones((9, 9))
    H = build_Hc(basis, I_c)
    pp = basis.pattern_indices("pp")
    E_c, psi, _ = solve_no_pair(H, pp)
    block = H[np.ix_(pp, pp)]
    assert E_c == pytest.approx(np.linalg.eigvalsh(block)[0], rel=1e-14)
    # no-pair equation residual (D_c - P_pp I_c) psi = 0
    Dc = build_D(basis, E_c)
    P = projectors(basis).pp
    assert np.linalg.norm((Dc - P @ I_c) @ psi) < 1e-12


def test_solve_no_pair_state_index():
    spectrum = SingleParticleSpectrum.from_lists([1.0, 1.5], [-1.2])
    basis = build_basis(spectrum)
    H = build_Hc(basis, 0.1 * np.ones((9, 9)))
    pp = basis.pattern_indices("pp")
    vals = sorted(np.linalg.eigvalsh(H[np.ix_(pp, pp)]))
    for k in range(len(pp)):
        E_k, _, _ = solve_no_pair(H, pp, state_index=k)
        assert E_k == pytest.approx(vals[k])
    with pytest.raises(ValueError):
        solve_no_pair(H, pp, state_index=len(pp))
    with pytest.raises(ValueError):
        solve_no_pair(H, ())


def test_resolvent_kills_reference(dim4):
    spectrum, basis, I_c, _ = dim4
    H = build_Hc(basis, I_c)
    E_c, psi, r = solve_no_pair(H, basis.pattern_indices("pp"))
    assert np.linalg.norm(r.apply(E_c + 0.3, psi)) < 1e-12


def test_resolvent_diagonal_case(dim4):
    spectrum, basis, _, _ = dim4
    H = build_Hc(basis, np.zeros((4, 4)))
    _, psi, r = solve_no_pair(H, basis.pattern_indices("pp"))
    v = np.array([0.0, 1.0, 0.0, 0.0])  # pair (1,2): e = -0.2
    out = r.apply(2.1, v)
    assert np.allclose(out, v / 2.3)


def test_resolvent_output_orthogonal(dim4):
    spectrum, basis, I_c, _ = dim4
    H = build_Hc(basis, I_c)
    _, psi, r = solve_no_pair(H, basis.pattern_indices("pp"))
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.uniform(-1, 1, size=4)
        assert abs(psi @ r.apply(2.4, v)) < 1e-12


def test_resolvent_mm_identity(dim4):
    """P_mm G(E) D(E) = P_mm, and G_Q(E) (E - H_c) = Q on every row against
    the dense H_c, for every tested E."""
    spectrum, basis, I_c, _ = dim4
    H = build_Hc(basis, I_c)
    _, psi, r = solve_no_pair(H, basis.pattern_indices("pp"))
    mm = projectors(basis).mm
    Q = np.eye(basis.dim) - np.outer(psi, psi)
    for E in (2.1, 2.4, 1.3, 3.7):
        G = r.matrix(E)
        D = build_D(basis, E)
        assert np.max(np.abs(mm @ G @ D - mm)) < 1e-12
        assert np.max(np.abs(G @ (E * np.eye(basis.dim) - H) - Q)) < 1e-12


def test_resolvent_singular_guard(dim4):
    spectrum, basis, I_c, _ = dim4
    H = build_Hc(basis, I_c)
    _, psi, r = solve_no_pair(H, basis.pattern_indices("pp"))
    with pytest.raises(DegenerateDenominatorError):
        r.apply(-0.2, np.ones(4))  # -0.2 is a mixed-pair eigenvalue of H_c
    # on the unmixed pairs, which the BW solve uses, the guard still covers
    # the mixed pairs it drops
    u = np.flatnonzero(basis.unmixed_sign)
    with pytest.raises(DegenerateDenominatorError, match="complementary spectrum"):
        r.restrict(u).apply(-0.2, np.ones(u.size))


def test_resolvent_take_after_restrict_keeps_the_whole_guard(dim4):
    """Each item of a restricted stack still guards its own mixed-pair
    energy: -0.2, and -0.1 for the copy of H_c shifted by 0.1."""
    spectrum, basis, I_c, _ = dim4
    H = build_Hc(basis, I_c)
    _, _, r = solve_no_pair(np.stack([H, H + 0.1 * np.eye(4)]), basis.pattern_indices("pp"))
    u = np.flatnonzero(basis.unmixed_sign)
    for k, E in ((0, -0.2), (1, -0.1)):
        with pytest.raises(DegenerateDenominatorError, match="complementary spectrum"):
            r.restrict(u).take(k).apply(E, np.ones(u.size))


def test_bw_terms_two_level():
    H_c, V, psi = two_level()
    r = resolvent_of(H_c)
    E = TWO_LEVEL_EXACT
    t = bw_terms(r, lambda _: V.__matmul__, E, psi, 3)
    assert t[0] == pytest.approx(0.0, abs=1e-15)
    assert t[1] == pytest.approx(0.01 / (E - 1.0), rel=1e-12)
    assert t[2] == pytest.approx(0.0, abs=1e-15)


def test_bw_terms_zero_perturbation(dim4):
    spectrum, basis, I_c, _ = dim4
    H = build_Hc(basis, I_c)
    _, psi, r = solve_no_pair(H, basis.pattern_indices("pp"))
    t = bw_terms(r, lambda _: np.zeros((4, 4)).__matmul__, 2.4, psi, 3)
    assert t.tolist() == [0.0, 0.0, 0.0]


def test_bw_terms_rejects_high_order():
    H_c, V, psi = two_level()
    r = resolvent_of(H_c)
    with pytest.raises(ValueError):
        bw_terms(r, lambda _: V.__matmul__, 0.0, psi, 4)


def test_bw_selfconsistent_zero_perturbation():
    H_c, _, psi = two_level()
    r = resolvent_of(H_c)
    led = bw_selfconsistent(r, lambda _: np.zeros((2, 2)).__matmul__, psi, 0.0)
    assert led.E == 0.0
    assert led.iterations == 1
    assert led.deltaE == 0.0


def test_bw_selfconsistent_two_level_exact():
    """Order-2 BW iterated to self-consistency is exact for the 2x2 model:
    E = v^2/(E-1) has the exact lowest root."""
    H_c, V, psi = two_level()
    r = resolvent_of(H_c)
    led = bw_selfconsistent(r, lambda _: V.__matmul__, psi, 0.0, order=2)
    assert led.E == pytest.approx(TWO_LEVEL_EXACT, abs=1e-10)
    assert led.deltaE == led.E - led.E_c
    assert led.residual < 1e-12


def test_bw_truncation_error_slopes():
    """|E_N - E_exact| = O(lambda^(N+1)): log-log slope within 0.15 of N+1."""
    H0 = np.diag([0.0, 1.0, 1.7, 2.3])
    M = np.array([
        [0.3, 1.0, 0.5, 0.2],
        [1.0, -0.2, 0.7, 0.3],
        [0.5, 0.7, 0.1, 0.9],
        [0.2, 0.3, 0.9, -0.4],
    ])
    psi = np.array([1.0, 0.0, 0.0, 0.0])
    r = resolvent_of(H0)
    lams = [0.02, 0.04, 0.08]
    for order in (1, 2, 3):
        errs = []
        for lam in lams:
            V = lam * M
            exact = np.linalg.eigvalsh(H0 + V)[0]
            led = bw_selfconsistent(r, lambda _: V.__matmul__, psi, 0.0, order=order)
            errs.append(abs(led.E - exact))
        slope = np.polyfit(np.log(lams), np.log(errs), 1)[0]
        assert abs(slope - (order + 1)) < 0.15


def test_bw_nonconvergence_carries_last(monkeypatch):
    H_c, V, psi = two_level()
    r = resolvent_of(H_c)
    monkeypatch.setattr(bwlab.bw, "MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as err:
        bw_selfconsistent(r, lambda _: V.__matmul__, psi, 0.0, order=2)
    assert err.value.last is not None
    assert err.value.last.iterations == 2


# -- spectral resolvent and secant fixed point --------------------------------


def deflated_dense_solve(H_c, psi, E, v):
    """Reference G_Q(E) v: the deflated dense solve Q (E - H_c + |psi><psi|)^-1 Q v."""
    n = H_c.shape[0]
    Q = np.eye(n) - np.outer(psi, psi)
    return Q @ np.linalg.solve(E * np.eye(n) - H_c + np.outer(psi, psi), Q @ v)


def reference_problem(config):
    """(H_c, psi_c, E_c, resolvent, bw) of the pipeline's reference state for
    config, with bw = (resolvent, h_delta, psi_c) of its BW solve on the
    unmixed pairs."""
    spectrum = build_spectrum(config)
    basis = build_basis(spectrum)
    I_c = build_interaction(config, "coulomb")
    g = build_interaction(config, "delta")
    H_c = build_Hc(basis, I_c)
    E_c, psi, r = solve_no_pair(H_c, basis.pattern_indices("pp"))
    u = np.flatnonzero(basis.unmixed_sign)
    return H_c, psi, E_c, r, (r.restrict(u), ladder_perturbation(basis, I_c, g), psi[u])


RESOLVENT_FIXTURES = {
    "dim4": ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,)),
    "dim9": ModelConfig(positive_energies=(1.0, 1.5), negative_energies=(-1.2,),
                        coulomb_matrix="random-symmetric", seed=4),
    "dim36": jittered_dim36(),
}


@pytest.mark.parametrize("name", sorted(RESOLVENT_FIXTURES))
def test_resolvent_spectral_matches_dense_solve(name):
    H_c, psi, E_c, r, _ = reference_problem(RESOLVENT_FIXTURES[name])
    rng = np.random.default_rng(11)
    n = H_c.shape[0]
    # E_c itself, where the reference mode is deflated, and energies around it
    for E in (E_c, E_c + 1e-3, E_c - 0.37, E_c + 0.8, 0.5 * E_c):
        G_ref = np.column_stack([deflated_dense_solve(H_c, psi, E, col) for col in np.eye(n)])
        scale = max(1.0, np.max(np.abs(G_ref)))
        assert np.max(np.abs(r.matrix(E) - G_ref)) <= 1e-13 * scale
        v = rng.uniform(-1, 1, size=n)
        assert np.max(np.abs(r.apply(E, v) - deflated_dense_solve(H_c, psi, E, v))) \
            <= 1e-13 * scale
    # at E = E_c - 1 the deflated matrix is singular (the dense solve raises);
    # G_Q is still defined there: compare with the inverse on the complement of psi
    complement = np.linalg.svd(np.outer(psi, psi))[0][:, 1:]
    E = E_c - 1.0
    G_ref = complement @ np.linalg.solve(
        E * np.eye(n - 1) - complement.T @ H_c @ complement, complement.T)
    assert np.max(np.abs(r.matrix(E) - G_ref)) <= 1e-13 * max(1.0, np.max(np.abs(G_ref)))
    # the guard still fires on every eigenvalue of H_c but the reference one
    vals = np.linalg.eigvalsh(H_c)
    ref = int(np.argmin(np.abs(vals - E_c)))
    for lam in np.delete(vals, ref)[:: max(1, n // 6)]:
        with pytest.raises(DegenerateDenominatorError):
            r.apply(lam, np.ones(n))
        with pytest.raises(DegenerateDenominatorError):
            r.matrix(lam)


def test_resolvent_degenerate_reference():
    """E_c shared with a complementary state: psi_c is whichever vector of
    the degenerate plane eigh returns, and the spectral form must still
    equal the deflated solve about it."""
    rng = np.random.default_rng(1)
    R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    H_c = R @ np.diag([0.0, 0.0, 1.0]) @ R.T
    H_c = 0.5 * (H_c + H_c.T)
    _, psi, r = solve_no_pair(H_c, range(3))
    for E in (0.5, -0.7, 2.0):
        G_ref = np.column_stack([deflated_dense_solve(H_c, psi, E, col) for col in np.eye(3)])
        assert np.max(np.abs(r.matrix(E) - G_ref)) <= 1e-13 * max(1.0, np.max(np.abs(G_ref)))
    with pytest.raises(DegenerateDenominatorError):
        r.apply(0.0, np.ones(3))


def plain_fixed_point(resolvent, h_delta, psi, E_c, tol):
    """The undamped iteration E <- E_c + sum_n Delta E^(n)(E), run until its
    step falls below tol (reference for the secant solver)."""
    E = E_c
    for _ in range(2000):
        new = E_c + sum(bw_terms(resolvent, h_delta, E, psi, 3))
        if abs(new - E) < tol:
            return new
        E = new
    raise AssertionError("plain iteration did not settle")


@pytest.mark.parametrize("name", ["dim4", "dim36"])
def test_bw_secant_reaches_plain_fixed_point(name):
    _, _, E_c, _, (r, h_delta, psi) = reference_problem(RESOLVENT_FIXTURES[name])
    tol = TOL
    led = bw_selfconsistent(r, h_delta, psi, E_c, order=3)
    plain = plain_fixed_point(r, h_delta, psi, E_c, 1e-14 * max(1.0, abs(E_c)))
    assert led.deltaE != 0.0
    assert abs(led.E - plain) <= tol * max(1.0, abs(E_c))
    assert led.iterations <= 12
    assert led.residual <= tol * max(1.0, abs(E_c))
    assert led.dE == bw_terms(r, h_delta, led.E, psi, 3).tolist()


def test_bw_secant_fallback_to_plain_steps():
    """With Delta E(E) = c + s (E - E_c) the secant step is 1 / (1 - s)
    plain steps long: 5, 10 and 20 here, past SECANT_MAX_RATIO.  The first
    one falls back to the plain step; the next secant step predicts the same
    root, so it is taken and lands on c / (1 - s)."""
    H_c, _, psi = two_level()
    r = resolvent_of(H_c)
    c, tol = 1e-4, TOL
    for s in (0.8, 0.9, 0.95):
        assert 1.0 / (1.0 - s) > SECANT_MAX_RATIO
        led = bw_selfconsistent(r, lambda E: np.diag([c + s * E, 0.0]).__matmul__,
                                psi, 0.0, order=1)
        assert abs(led.E - c / (1.0 - s)) <= tol
        assert led.iterations <= 8
        assert led.residual <= tol


def test_bw_secant_max_iter_carries_last(dim4_config, monkeypatch):
    _, _, E_c, _, (r, h_delta, psi) = reference_problem(dim4_config)
    monkeypatch.setattr(bwlab.bw, "MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as err:
        bw_selfconsistent(r, h_delta, psi, E_c, order=3)
    last = err.value.last
    assert last.iterations == 3
    assert last.residual > TOL * max(1.0, abs(E_c))
    assert last.dE == bw_terms(r, h_delta, last.E, psi, 3).tolist()


# -- the lock-step solve of a stack -------------------------------------------


def stacked_problem(lams):
    """The 4-level problems H0 + lam M of test_bw_truncation_error_slopes as
    one stack: (resolvent, V stack, psi stack, E_c stack)."""
    H0 = np.diag([0.0, 1.0, 1.7, 2.3])
    M = np.array([
        [0.3, 1.0, 0.5, 0.2],
        [1.0, -0.2, 0.7, 0.3],
        [0.5, 0.7, 0.1, 0.9],
        [0.2, 0.3, 0.9, -0.4],
    ])
    E_c, psi, r = solve_no_pair(np.array([H0] * len(lams)), range(4))
    return r, np.multiply.outer(lams, M), psi, E_c


def test_bw_lockstep_equals_one_problem_solves(monkeypatch):
    """Each problem of a lock-step stack ends as bw_selfconsistent ends it
    alone: the same ledger, or the same ConvergenceError; the one that
    needs more than MAX_ITER iterations fails alone."""
    lams = np.array([0.02, 1.0, 0.04, 0.3])
    r, V, psi, E_c = stacked_problem(lams)
    evaluations = []

    def select(items):
        def evaluate(E):
            evaluations.append(len(items))
            return bw_terms(r.take(items), lambda _: lambda x: (V[items] @ x[..., None])[..., 0],
                            E, psi[items], 3)
        return evaluate

    monkeypatch.setattr(bwlab.bw, "MAX_ITER", 6)
    outcomes = bw_lockstep(select, E_c)
    for k, outcome in enumerate(outcomes):
        alone = r.take(k)
        try:
            want = bw_selfconsistent(alone, lambda _: V[k].__matmul__, psi[k], E_c[k])
        except ConvergenceError as exc:
            assert type(outcome) is ConvergenceError and str(outcome) == str(exc)
            assert outcome.last == exc.last
            continue
        assert outcome == want
    assert isinstance(outcomes[1], ConvergenceError)
    assert [type(o) for o in outcomes].count(ConvergenceError) == 1
    assert evaluations[0] == len(lams) and evaluations == sorted(evaluations, reverse=True)


def test_bw_lockstep_stops_terms_that_overflow_at_iteration_1():
    """A problem whose terms sum past the largest float (E_c + sum = inf)
    ends with ConvergenceError at iteration 1, and the terms are never
    evaluated at a non-finite E; the other problem of the stack converges
    as it does alone."""
    terms = {0: lambda E: [0.1 * E, 0.0], 1: lambda E: [1e308, 1e308]}
    evaluated = []

    def select(items):
        def evaluate(E):
            evaluated.extend(E)
            return np.array([terms[i](e) for i, e in zip(items, E)])
        return evaluate

    outcomes = bw_lockstep(select, [1.0, 1.0])
    assert isinstance(outcomes[0], EnergyLedger) and outcomes[0] == bw_lockstep(select, [1.0])[0]
    assert type(outcomes[1]) is ConvergenceError
    assert str(outcomes[1]) == ("BW iteration 1 steps off the finite numbers from E = 1 "
                                "(E_c + sum of terms = inf)")
    assert all(math.isfinite(E) for E in evaluated)


def test_bw_lockstep_fails_only_the_singular_ladder_item(dim4):
    """A batched inverse that meets a singular E S_u - K names that item's
    energy, and the lock-step solve fails that item alone, with the error
    its one-problem solve raises."""
    spectrum, basis, I_c, g = dim4
    # E_c = 2.5 and g_pp,pp = 0.5: E S_u - K has a zero row at E = E_c
    I_sing = np.zeros((4, 4))
    I_sing[0, 0] = 0.5
    g_sing = np.diag([0.5, 0.0, 0.0, 0.25])
    I, G = np.stack([I_c, I_sing]), np.stack([g, g_sing])
    with pytest.raises(DegenerateDenominatorError,
                       match=r"^singular ladder block E S_u - K at E = 2.5$"):
        ladder_perturbation(basis, I, G)(np.array([2.3, 2.5]))

    E_c, psi, r = solve_no_pair(build_Hc(basis, I), basis.pattern_indices("pp"))
    u = np.flatnonzero(basis.unmixed_sign)
    r_u, psi_u = r.restrict(u), psi[:, u]

    def select(items):
        return lambda E: bw_terms(r_u.take(items), ladder_perturbation(basis, I[items], G[items]),
                                  E, psi_u[items], 3)

    outcomes = bw_lockstep(select, E_c)
    for k, outcome in enumerate(outcomes):
        alone = (r_u.take(k), ladder_perturbation(basis, I[k], G[k]), psi_u[k], E_c[k])
        if k == 0:
            assert outcome == bw_selfconsistent(*alone)
            continue
        with pytest.raises(DegenerateDenominatorError) as err:
            bw_selfconsistent(*alone)
        assert type(outcome) is DegenerateDenominatorError and str(outcome) == str(err.value)
        assert str(outcome) == "singular ladder block E S_u - K at E = 2.5"
