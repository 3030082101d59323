import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import bwlab.bw
from bwlab import (
    BwlabError,
    ControversyReport,
    ModelConfig,
    RunConfig,
    build_basis,
    build_Hc,
    build_interaction,
    build_spectrum,
    bw_selfconsistent,
    combined_variant,
    coupling_scan,
    deltaE1_direct,
    deltaE2b_direct,
    model_oracle,
    predicted_discrepancy,
    quadrature_oracle,
    run_pipeline,
    sandwich_integral,
    solve_no_pair,
)
from bwlab.controversy import (convention_report, fit_power_law, h_delta2_ladder, ladder_kernel,
                               ladder_perturbation)
from bwlab.operators import build_D, build_HDelta1
from bwlab.pipeline import ReferenceState, _bw_problem, reference_state
from conftest import energy_away_from_poles, jittered_dim36
from bwlab.propagators import xj_matrix, xj_matrix_ssum_route

#: the kernel series' truncation, RunConfig's default j_order
J_ORDER = 2


def solved(dim4):
    """The no-pair reference state of the dim-4 fixture."""
    spectrum, basis, I_c, g = dim4
    H = build_Hc(basis, I_c)
    E_c, psi, r = solve_no_pair(H, basis.pattern_indices("pp"))
    return ReferenceState(basis, I_c, g, E_c, psi, r)


def applied(st, E, j_order, route=xj_matrix):
    """X_J(E) I_c psi_c of st built along route, the Xv the evaluators take."""
    return route(st.basis, E, st.g_delta, j_order, v=st.I_c @ st.psi_c)


def test_deltaE1_frozen_value(dim4):
    """K=1 at E = E_c = 2.1: psi D sandwich(g) I_c psi = 518/495 exactly
    (from the exact dim-4 residue table)."""
    st = solved(dim4)
    val = deltaE1_direct(st, st.E_c, applied(st, st.E_c, 1))
    assert val == pytest.approx(518.0 / 495.0, rel=1e-13)


def test_deltaE1_vs_quadrature_composition(dim4):
    st = solved(dim4)
    spectrum, basis, I_c, g = dim4
    E_c, psi = st.E_c, st.psi_c
    val = deltaE1_direct(st, E_c, applied(st, E_c, 1))
    Xq = quadrature_oracle(spectrum, E_c, g)
    D = build_D(basis, E_c)
    quad_val = psi @ D @ Xq @ I_c @ psi
    assert val == pytest.approx(quad_val, rel=1e-6)


def test_deltaE2b_forms_agree(dim4):
    st = solved(dim4)
    E = st.E_c + 0.2
    Xv = applied(st, E, J_ORDER)
    val, residual = deltaE2b_direct(st, E, Xv)
    assert residual < 1e-10 * max(1.0, abs(val))
    assert val != 0.0


def test_combined_conventions_agree_at_zero_shift(dim4):
    st = solved(dim4)
    Xv = applied(st, st.E_c, J_ORDER)
    lind = combined_variant(st, st.E_c, "lindgren", Xv)
    dkz = combined_variant(st, st.E_c, "dkz", Xv)
    assert lind == dkz


def test_combined_equals_chain_sum(dim4):
    """(D + I_c - D_c) recombines into (I_c + dE): the first-order plus
    reduced second-order terms equal the lindgren combination."""
    st = solved(dim4)
    E = st.E_c + 0.17
    Xv = applied(st, E, J_ORDER)
    d1 = deltaE1_direct(st, E, Xv)
    d2, _ = deltaE2b_direct(st, E, Xv)
    lind = combined_variant(st, E, "lindgren", Xv)
    assert d1 + d2 == pytest.approx(lind, rel=1e-10)


def test_difference_is_twice_shift_times_Y(dim4):
    st = solved(dim4)
    spectrum, basis, I_c, g = dim4
    E_c, psi = st.E_c, st.psi_c
    E = E_c + 0.17
    dE = E - E_c
    Xv = applied(st, E, J_ORDER)
    lind = combined_variant(st, E, "lindgren", Xv)
    dkz = combined_variant(st, E, "dkz", Xv)
    Y = xj_matrix(basis, E, g, J_ORDER) @ I_c
    expect = 2.0 * dE * (psi @ Y @ psi)
    assert (lind - dkz) == pytest.approx(expect, abs=1e-12 * max(1.0, abs(lind)))


def test_dm1_scalar_identity():
    # 1/Dc - dE/(Dc D) = 1/D:  0.5 - 0.1 = 0.4 = 1/2.5
    Dc, dE, D = 2.0, 0.5, 2.5
    assert 1.0 / Dc - dE / (Dc * D) == pytest.approx(1.0 / D, rel=1e-15)


def test_predicted_discrepancy_matches_measured(dim4):
    st = solved(dim4)
    E = st.E_c + 0.17
    Xv = applied(st, E, J_ORDER)
    lind = combined_variant(st, E, "lindgren", Xv)
    dkz = combined_variant(st, E, "dkz", Xv)
    predicted, residuals, dm1_err = predicted_discrepancy(
        st, E, applied(st, E, J_ORDER, xj_matrix_ssum_route),
    )
    assert (lind - dkz) == pytest.approx(predicted, rel=1e-10)
    assert residuals["Dm1_route"] < 1e-12
    assert dm1_err != 0.0


def test_predicted_discrepancy_zero_shift(dim4):
    st = solved(dim4)
    predicted, _, dm1_err = predicted_discrepancy(
        st, st.E_c, applied(st, st.E_c, J_ORDER, xj_matrix_ssum_route),
    )
    assert predicted == 0.0
    assert dm1_err == 0.0


def test_dkz_dc_approx_reported(dim4):
    """The dc approximation is the dkz combination with X_J taken at E_c;
    only "lindgren" and "dkz" are conventions."""
    st = solved(dim4)
    E = st.E_c + 0.17
    Xv = applied(st, E, J_ORDER)
    approx = combined_variant(st, E, "dkz", applied(st, st.E_c, J_ORDER))
    dkz = combined_variant(st, E, "dkz", Xv)
    assert np.isfinite(approx)
    assert approx != dkz
    for name in ("nonsense", "dkz-dc-approx"):
        with pytest.raises(ValueError):
            combined_variant(st, E, name, Xv)


def test_model_oracle_free_limit(dim4):
    zero = np.zeros((4, 4))
    psi = np.array([1.0, 0.0, 0.0, 0.0])
    st = replace(solved(dim4), I_c=zero, g_delta=zero, psi_c=psi)
    assert model_oracle(st) == pytest.approx(2.0)


def test_model_oracle_overlap(dim4_config):
    cfg = ModelConfig(
        positive_energies=(1.0, 1.5), negative_energies=(-1.2, -1.7),
        coulomb_scale=0.1, delta_scale=0.05,
    )
    spectrum = build_spectrum(cfg)
    basis = build_basis(spectrum)
    I_c = build_interaction(cfg, "coulomb")
    g = build_interaction(cfg, "delta")
    H = build_Hc(basis, I_c)
    E_c, psi, r = solve_no_pair(H, basis.pattern_indices("pp"))
    _, vec = model_oracle(ReferenceState(basis, I_c, g, E_c, psi, r), return_vector=True)
    assert (psi @ vec) ** 2 > 0.9


def test_oracle_linear_response_matches_first_order():
    """The oracle's leading response to the remainder coupling equals the
    first-order BW term's, up to O(lambda_c) relative."""
    lam_c = 0.05
    coefs = []
    for ld in (0.01, 0.005):
        cfg = ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                          coulomb_scale=lam_c, delta_scale=ld)
        res = run_pipeline(RunConfig(cfg))
        coefs.append(((res.oracle_energy - res.ledger.E_c) / ld, res.ledger.dE[0] / ld))
    for oracle_coef, dE1_coef in coefs:
        # the oracle also carries a lambda_c^2 piece from the virtual-pair
        # coupling; at these couplings the linear coefficients agree to
        # a few lambda_c relative
        assert abs(oracle_coef - dE1_coef) < 3 * lam_c * abs(dE1_coef)


def test_bw_ladder_tracks_oracle(dim4_config):
    res = run_pipeline(RunConfig(dim4_config))
    assert abs(res.ledger.E - res.oracle_energy) < 5e-5
    assert res.ledger.residual < 1e-11


def test_h_delta2_routes_zero_couplings(dim4):
    spectrum, basis, I_c, g = dim4
    zero = np.zeros((4, 4))
    assert not np.any(h_delta2_ladder(basis, 2.1, zero, g))
    assert not np.any(h_delta2_ladder(basis, 2.1, I_c, zero))


#: the last one's delta coupling is strong enough that K = diag|e_u| + g_uu
#: is indefinite
LADDER_CASES = {
    "dim4": ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                        coulomb_scale=0.1, delta_scale=0.05),
    "dim9 random-symmetric": ModelConfig(
        positive_energies=(1.0, 1.5), negative_energies=(-1.2,),
        coulomb_matrix="random-symmetric", delta_matrix="random-symmetric", seed=4),
    "jittered dim36": jittered_dim36(),
    "dim9 indefinite K": ModelConfig(
        positive_energies=(1.0, 1.5), negative_energies=(-1.2,),
        coulomb_matrix="random-symmetric", delta_matrix="random-symmetric",
        delta_scale=3.0, seed=5),
}


@pytest.mark.parametrize("name", list(LADDER_CASES))
def test_ladder_operator_matches_dense_forms(name):
    """V(E) x from the unmixed-block operator equals H_D1 x plus the dense
    h_delta2_ladder x and plus D (ladder_kernel I_c x), the geometric-series
    reference, for x on the unmixed pairs, where both dense forms map it
    (the operator works on those coordinates alone)."""
    config = LADDER_CASES[name]
    spectrum = build_spectrum(config)
    basis = build_basis(spectrum)
    I_c = build_interaction(config, "coulomb")
    g = build_interaction(config, "delta")
    u = basis.unmixed_sign != 0
    K = np.diag(np.abs(basis.pair_energies()[u])) + g[np.ix_(u, u)]
    assert (np.linalg.eigvalsh(K)[0] < 0.0) == (name == "dim9 indefinite K")
    hd1 = build_HDelta1(basis, I_c)
    V = ladder_perturbation(basis, I_c, g)
    rng = np.random.default_rng(basis.dim)
    for _ in range(3):
        E = energy_away_from_poles(rng, spectrum)
        apply = V(E)
        dense = h_delta2_ladder(basis, E, I_c, g)
        kernel = ladder_kernel(basis, E, g)
        D = E - basis.pair_energies()
        for x in rng.normal(size=(3, basis.dim)) * u:
            got = np.zeros(basis.dim)
            got[u] = apply(x[u])
            for want in (hd1 @ x + dense @ x, hd1 @ x + D * (kernel @ (I_c @ x))):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_pipeline_identity_residuals(dim4_config):
    res = run_pipeline(RunConfig(dim4_config))
    rep = res.controversy
    assert rep.identity_residuals["E2b_vs_E2b2"] < 1e-10
    assert rep.identity_residuals["chain_sum"] < 1e-10
    assert rep.identity_residuals["central_claim"] < 1e-12
    assert rep.identity_residuals["Dm1_route"] < 1e-12
    assert rep.difference == rep.combined_lindgren - rep.combined_dkz


def test_pipeline_zero_delta(dim4_config):
    cfg = ModelConfig(
        positive_energies=(1.0,), negative_energies=(-1.2,),
        coulomb_scale=0.1, delta_scale=0.0,
    )
    res = run_pipeline(RunConfig(cfg))
    assert res.controversy.difference == 0.0
    assert res.controversy.predicted_difference == 0.0
    assert res.ledger.E == pytest.approx(res.ledger.E_c + sum(res.ledger.dE))


def test_pipeline_zero_couplings():
    cfg = ModelConfig(
        positive_energies=(1.0,), negative_energies=(-1.2,),
        coulomb_scale=0.0, delta_scale=0.0,
    )
    res = run_pipeline(RunConfig(cfg))
    assert res.ledger.E == res.ledger.E_c == pytest.approx(2.0)
    assert res.ledger.iterations == 1


def test_fit_power_law_recovers_slope():
    lams = [0.02, 0.04, 0.08, 0.16]
    vals = [3.0 * l ** 2.5 for l in lams]
    slope, r2 = fit_power_law(lams, vals)
    assert slope == pytest.approx(2.5, abs=1e-12)
    assert r2 > 0.999999


def test_coupling_scan_validation(dim4_config):
    with pytest.raises(ValueError, match=">= 4"):
        coupling_scan(RunConfig(dim4_config), [0.1])
    with pytest.raises(ValueError, match="geometric"):
        coupling_scan(RunConfig(dim4_config), [0.1, 0.2, 0.25, 0.3])
    with pytest.raises(ValueError, match="ratio other than 1"):
        coupling_scan(RunConfig(dim4_config), [0.1, 0.1, 0.1, 0.1])
    for schedule in ([float("nan")] * 4, [-0.1, -0.2, -0.4, -0.8]):
        with pytest.raises(ValueError, match="finite, > 0 and geometric"):
            coupling_scan(RunConfig(dim4_config), schedule)


def test_coupling_scan_runs(dim4_config):
    rows, slope, r2, failures = coupling_scan(
        RunConfig(dim4_config), [0.02, 0.04, 0.08, 0.16]
    )
    assert not failures
    assert len(rows) == 4
    for lam, diff, pred, ratio in rows:
        assert diff == pytest.approx(pred, rel=1e-8)
        assert ratio == pytest.approx(1.0, rel=1e-8)
    assert np.isfinite(slope)
    # halving lambda multiplies |difference| by 2^-slope within fit tolerance
    for (l1, d1, _, _), (l2, d2, _, _) in zip(rows[:-1], rows[1:]):
        implied = np.log(abs(d2) / abs(d1)) / np.log(l2 / l1)
        assert abs(implied - slope) < 0.35


def count_kernel_builds(monkeypatch):
    """Replace xj_stack, the body of every X_J build (xj_matrix and
    xj_matrix_ssum_route are its stacks of one), in every module that binds
    it with a counting wrapper; returns the counts of builds by route."""
    import bwlab.pipeline
    import bwlab.propagators

    counts = {"direct": 0, "ssum": 0}
    original = bwlab.propagators.xj_stack

    def counted(*args, **kwargs):
        routes = kwargs.get("routes", args[5] if len(args) > 5 else ("direct", "ssum"))
        for route in routes:
            counts[route] += 1
        return original(*args, **kwargs)

    for module in (bwlab.propagators, bwlab.pipeline):
        monkeypatch.setattr(module, "xj_stack", counted)
    return counts


def test_pipeline_builds_each_kernel_integral_once(dim4_config, monkeypatch):
    counts = count_kernel_builds(monkeypatch)
    res = run_pipeline(RunConfig(dim4_config))
    assert counts == {"direct": 2, "ssum": 1}  # X_J(E), X_J(E_c); S-sum X_J(E)
    assert res.controversy.identity_residuals["central_claim"] < 1e-12


def test_identity_suite_builds_kernel_integral_once(dim4_config, monkeypatch):
    from bwlab.identities import identity_suite, suite_passes

    counts = count_kernel_builds(monkeypatch)
    assert suite_passes(identity_suite(RunConfig(replace(dim4_config, seed=0))))
    assert counts == {"direct": 1, "ssum": 1}


def test_coupling_scan_propagates_programming_errors(dim4_config, monkeypatch):
    """Only BwlabError is per-point data; a fault inside the pipeline is not
    turned into a failed scan row."""
    import bwlab.pipeline

    stacked = bwlab.pipeline.xj_stack

    def broken_at_largest(basis, E, g_delta, order, v):
        if np.max(np.abs(g_delta)) > 0.005:  # 0.05 lambda: only at lambda = 0.16
            raise TypeError("unexpected argument")
        return stacked(basis, E, g_delta, order, v)

    monkeypatch.setattr(bwlab.pipeline, "xj_stack", broken_at_largest)
    with pytest.raises(TypeError, match="unexpected argument"):
        coupling_scan(RunConfig(dim4_config), [0.02, 0.04, 0.08, 0.16])


def test_model_oracle_tracking_failure_is_bwlab_error(dim4):
    """A psi_c that overlaps no eigenvector enough raises OracleTrackingError."""
    from bwlab import BwlabError, OracleTrackingError

    st = solved(dim4)
    psi = np.full(st.basis.dim, 0.5)  # spread evenly over the four free pair states
    with pytest.raises(OracleTrackingError, match="ambiguous") as info:
        model_oracle(replace(st, I_c=0.0 * st.I_c, g_delta=0.0 * st.g_delta, psi_c=psi))
    assert isinstance(info.value, BwlabError)


def test_model_oracle_rejects_a_complex_tracked_eigenvalue():
    """Strong random couplings turn the eigenvalue of the unmixed block that
    tracks psi_c complex: the oracle raises rather than report its real
    part."""
    from bwlab import OracleTrackingError

    cfg = RunConfig(ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2, -1.7),
                                coulomb_scale=1.0, delta_scale=1.0, seed=6,
                                coulomb_matrix="random-symmetric",
                                delta_matrix="random-symmetric"))
    st = reference_state(cfg)
    with pytest.raises(OracleTrackingError, match=r"^tracked eigenvalue not real: \(0\.4189"):
        model_oracle(st)


#: a jittered 2+2 spectrum (dim 16) next to the dim-4 fixture
JITTERED_2X2 = ModelConfig(positive_energies=(1.03, 1.57), negative_energies=(-1.06, -1.52),
                           coulomb_scale=0.1, delta_scale=0.05)


@pytest.mark.parametrize("jittered", [False, True], ids=["dim4", "jittered-2x2"])
def test_coupling_scan_matches_pipeline(dim4_config, monkeypatch, jittered):
    """The scan computes only what it reports: its rows equal run_pipeline's
    values exactly, while its one chunk of points builds X_J once per route,
    as one stack, and never runs the model oracle."""
    import bwlab.pipeline

    cfg = JITTERED_2X2 if jittered else dim4_config
    lams = [0.02, 0.04, 0.08, 0.16]
    expected = [run_pipeline(RunConfig(cfg.scaled(lam))).controversy
                for lam in lams]

    counts = count_kernel_builds(monkeypatch)
    oracle_calls = []
    monkeypatch.setattr(bwlab.pipeline, "model_oracle",
                        lambda *args, **kwargs: oracle_calls.append(args))
    rows, _, _, failures = coupling_scan(RunConfig(cfg), lams)
    assert failures == []
    assert [(diff, pred) for _, diff, pred, _ in rows] == [
        (rep.difference, rep.predicted_difference) for rep in expected
    ]
    assert counts == {"direct": 1, "ssum": 1}
    assert oracle_calls == []


@pytest.mark.parametrize("coulomb, delta", [(0.1, 0.0), (0.0, 0.05), (0.0, 0.0)],
                         ids=["zero-delta", "zero-coulomb", "both-zero"])
def test_pipeline_zero_coupling_report(monkeypatch, coulomb, delta):
    """With either coupling zero every report value and chain residual is 0,
    and no kernel integral is built."""
    counts = count_kernel_builds(monkeypatch)
    cfg = ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                      coulomb_scale=coulomb, delta_scale=delta)
    rep = run_pipeline(RunConfig(cfg)).controversy
    assert [rep.dE1_direct, rep.dE2b_direct, rep.combined_lindgren, rep.combined_dkz,
            rep.combined_dkz_dc_approx, rep.difference, rep.predicted_difference,
            rep.dm1_error_term] == [0.0] * 8
    assert rep.identity_residuals == {
        "E2b_vs_E2b2": 0.0, "chain_sum": 0.0, "central_claim": 0.0, "Dm1_route": 0.0,
    }
    assert counts == {"direct": 0, "ssum": 0}


# -- the scan in lock-step --------------------------------------------------------

#: scans whose points mix outcomes: converged points, ConvergenceError under
#: the small bw.MAX_ITER given with each model (mixed_scan sets it), the
#: unmixed pair-denominator guard during BW, and (dim 9) a pinched pole pair
#: in X_J after BW has converged
MIXED_SCANS = {
    "dim4 guard": (ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                               coulomb_scale=0.3, delta_scale=0.5, seed=3,
                               coulomb_matrix="random-symmetric",
                               delta_matrix="random-symmetric"), 18),
    "dim9 pinched": (ModelConfig(positive_energies=(1.0, 1.5), negative_energies=(-1.2,),
                                 coulomb_scale=0.3, delta_scale=0.5, seed=4,
                                 coulomb_matrix="random-symmetric",
                                 delta_matrix="random-symmetric"), 9),
}
MIXED_LAMS = list(np.geomspace(0.1, 3.0, 8))


def mixed_scan(name, monkeypatch):
    """The RunConfig of MIXED_SCANS[name] at j_order 1, with bw.MAX_ITER set
    to its cap for the test."""
    model, max_iter = MIXED_SCANS[name]
    monkeypatch.setattr(bwlab.bw, "MAX_ITER", max_iter)
    return RunConfig(model, j_order=1)


def one_point_run(cfg, lam):
    """The (ledger, report) of the point cfg.model.scaled(lam) alone, from the
    one-point blocks: bw_selfconsistent, the xj_matrix and
    xj_matrix_ssum_route wrappers and convention_report on unstacked arrays
    (combined_dkz_dc_approx stays 0).  Raises the point's BwlabError."""
    cfg = replace(cfg, model=cfg.model.scaled(lam))
    st = reference_state(cfg)
    ledger = bw_selfconsistent(*_bw_problem(st), st.E_c, order=cfg.bw_order)
    if not (np.any(st.I_c) and np.any(st.g_delta)):
        return ledger, ControversyReport()
    v = st.I_c @ st.psi_c
    Xv, Xv_alt = (route(st.basis, ledger.E, st.g_delta, cfg.j_order, v=v)
                  for route in (xj_matrix, xj_matrix_ssum_route))
    (rep,) = convention_report(st, ledger.E, Xv, Xv_alt)
    return ledger, rep


def one_point_scan(cfg, lams):
    """coupling_scan's rows and failures from one one_point_run per point."""
    rows, failures = [], []
    for lam in lams:
        try:
            _, rep = one_point_run(cfg, lam)
        except BwlabError as exc:
            failures.append((lam, f"{type(exc).__name__}: {exc}"))
            continue
        ratio = (rep.difference / rep.predicted_difference if rep.predicted_difference != 0.0
                 else None)
        rows.append((lam, rep.difference, rep.predicted_difference, ratio))
    return rows, failures


@pytest.mark.parametrize("name", list(MIXED_SCANS))
def test_coupling_scan_mixed_outcomes_match_one_point_runs(name, monkeypatch):
    """Every row and every failure string of a lock-step scan equals the
    one-point run of its point, in schedule order."""
    cfg = mixed_scan(name, monkeypatch)
    rows, _, _, failures = coupling_scan(cfg, MIXED_LAMS)
    assert (rows, failures) == one_point_scan(cfg, MIXED_LAMS)
    kinds = {message.split(":")[0] for _, message in failures}
    assert rows and "ConvergenceError" in kinds and "DegenerateDenominatorError" in kinds
    if name == "dim4 guard":
        assert any("degenerate pair denominator" in message for _, message in failures)


@pytest.mark.parametrize("name", list(MIXED_SCANS))
def test_coupling_scan_one_point_chunks_match_one_point_runs(name, monkeypatch):
    """With a stack budget of one point, each chunk of one still runs the
    stacked stages, and every row and failure string equals the one-point
    run of its point."""
    import bwlab.pipeline

    cfg = mixed_scan(name, monkeypatch)
    n = len(cfg.model.positive_energies) + len(cfg.model.negative_energies)
    monkeypatch.setattr(bwlab.pipeline, "STACK_BYTES", 8 * bwlab.pipeline.STACK_DOUBLES * n ** 4)
    calls = count_stacked_calls(monkeypatch)
    rows, _, _, failures = coupling_scan(cfg, MIXED_LAMS)
    assert calls["eigh"] == [(1,)] * len(MIXED_LAMS)
    assert (rows, failures) == one_point_scan(cfg, MIXED_LAMS)


def test_coupling_scan_overflowing_point_fails_alone():
    """A lambda whose scaled coupling overflows to inf fails as its one-point
    run does, and only that point: the rest of its chunk still runs."""
    cfg = RunConfig(ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                                coulomb_scale=10.0))
    lams = [float(lam) for lam in np.geomspace(0.01, 1e308, 4)]
    rows, _, _, failures = coupling_scan(cfg, lams)
    assert (rows, failures) == one_point_scan(cfg, lams)
    assert [row[0] for row in rows] == [0.01]
    assert [message.split(":")[0] for _, message in failures] == [
        "DegenerateDenominatorError", "DegenerateDenominatorError", "ConfigError"]
    assert failures[-1] == (1e308, "ConfigError: coulomb_scale must be >= 0 and finite")


def count_stacked_calls(monkeypatch):
    """Count the stacked eighs (with their stack sizes) and the stacked BW term
    evaluations of a scan."""
    import bwlab.pipeline

    calls = {"eigh": [], "bw_terms": 0}
    eigh, terms = np.linalg.eigh, bwlab.pipeline.bw_terms

    def counted_eigh(a, *args, **kwargs):
        calls["eigh"].append(a.shape[:-2])
        return eigh(a, *args, **kwargs)

    def counted_terms(*args, **kwargs):
        calls["bw_terms"] += 1
        return terms(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(bwlab.pipeline, "bw_terms", counted_terms)
    return calls


def test_coupling_scan_evaluates_in_lock_step(dim4_config, monkeypatch):
    """A 64-point scan takes one stacked eigh and at most (the largest
    per-point iteration count + 1) stacked term evaluations."""
    cfg = RunConfig(dim4_config)
    lams = list(np.geomspace(0.02, 0.16, 64))
    iterations = [one_point_run(cfg, lam)[0].iterations for lam in lams]
    calls = count_stacked_calls(monkeypatch)
    _, _, _, failures = coupling_scan(cfg, lams)
    assert failures == []
    assert calls["eigh"] == [(64,)]
    assert calls["bw_terms"] <= max(iterations) + 1


@pytest.mark.parametrize("name", list(MIXED_SCANS))
def test_coupling_scan_chunks_give_the_same_rows(name, monkeypatch):
    """Chunks of 3 points (a stack budget of 3 points) give the rows and
    failures of the one-chunk scan, with one stacked eigh per chunk."""
    import bwlab.pipeline

    cfg = mixed_scan(name, monkeypatch)
    whole = coupling_scan(cfg, MIXED_LAMS)
    n = len(cfg.model.positive_energies) + len(cfg.model.negative_energies)
    monkeypatch.setattr(bwlab.pipeline, "STACK_BYTES", 3 * 8 * bwlab.pipeline.STACK_DOUBLES * n ** 4)
    calls = count_stacked_calls(monkeypatch)
    chunked = coupling_scan(cfg, MIXED_LAMS)
    assert (chunked[0], chunked[3]) == (whole[0], whole[3])
    # dim 9: lambda = 0.1, the first point, fails its pinch check after BW;
    # only the convention stage of its chunk is split, so no chunk solves
    # its reference states or BW again
    assert calls["eigh"] == [(3,), (3,), (2,)]


def test_coupling_scan_splits_a_chunk_down_to_its_failing_point(monkeypatch):
    """A 64-point chunk whose first point fails after BW (its pinch check in
    X_J) takes one stacked eigh and one lock-step BW solve; only its
    convention stage is halved down to that point: each failing half is
    split again and each other half takes one stacked X_J build.  Every row
    and failure is that of the point's one-point run."""
    import bwlab.pipeline

    cfg = mixed_scan("dim9 pinched", monkeypatch)
    lams = list(np.geomspace(0.1, 3.0, 64))
    monkeypatch.setattr(bwlab.pipeline, "STACK_BYTES", 64 * 8 * bwlab.pipeline.STACK_DOUBLES * 3 ** 4)
    sizes, xj_stack = [], bwlab.pipeline.xj_stack

    def counted(basis, E, *args, **kwargs):
        sizes.append(len(E))
        return xj_stack(basis, E, *args, **kwargs)

    monkeypatch.setattr(bwlab.pipeline, "xj_stack", counted)
    calls = count_stacked_calls(monkeypatch)
    rows, _, _, failures = coupling_scan(cfg, lams)
    assert calls["eigh"] == [(64,)]
    assert calls["bw_terms"] <= bwlab.bw.MAX_ITER + 1

    def halving(n):
        """The stack sizes of a split down to its first item, the one that fails."""
        return [n] if n == 1 else [n, *halving(n // 2), n - n // 2]

    # the convention stage runs on the points whose BW converged: the rows
    # and the failing first point
    assert sizes == halving(len(rows) + 1)
    assert (rows, failures) == one_point_scan(cfg, lams)
    assert failures[0][0] == lams[0] and "pinched pole pair" in failures[0][1]


def assert_points_match_one_point_runs(cfg, lams):
    """pipeline_points gives, per point, the ledger and report of its
    one-point run, or the same error."""
    from bwlab.pipeline import pipeline_points

    for lam, got in zip(lams, pipeline_points(cfg, lams)):
        try:
            want = one_point_run(cfg, lam)
        except BwlabError as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            continue
        assert got == want


@pytest.mark.parametrize("name", [*MIXED_SCANS, "jittered dim36"])
def test_pipeline_points_match_one_point_runs(name, monkeypatch):
    """Also for blocks of the compare workload's size (n_u = 18)."""
    cfg = (mixed_scan(name, monkeypatch) if name in MIXED_SCANS
           else RunConfig(jittered_dim36(), j_order=1))
    assert_points_match_one_point_runs(cfg, MIXED_LAMS)


def test_pipeline_points_stack_coupled_and_uncoupled_points():
    """A delta coupling that underflows to 0 at the smallest lambda leaves
    that point uncoupled (V = H_D1) in a stack of coupled ones (the ladder,
    equal to H_D1 there only up to rounding): each point still ends with
    its one-point ledger."""
    cfg = RunConfig(ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                                coulomb_scale=0.1, delta_scale=1e-320), j_order=1)
    lams = [1e-4, 1e-3, 1e-2, 1e-1]
    assert [np.any(build_interaction(cfg.model.scaled(lam), "delta")) for lam in lams] == [
        False, True, True, True]
    assert_points_match_one_point_runs(cfg, lams)


def test_conventions_fail_alone_inside_a_stack():
    """Two states in the middle of a stack of five fail after the BW stage:
    one at a mixed-pair energy, where the direct route has a double pole
    but D^-1 of the S-sum route does not exist, one at an eigenvalue of H_c
    past the reference state's, where the resolvent guard aborts.  The
    stacked evaluation raises; split by each_alone, each failing state gets
    the error of its one-point evaluation, and every other state its
    one-point report."""
    from bwlab import BwlabError
    from bwlab.bw import each_alone
    from bwlab.pipeline import _bw_stack, _conventions, reference_state

    model, _ = MIXED_SCANS["dim9 pinched"]
    cfg = RunConfig(model, j_order=2)
    st = reference_state(cfg, [0.2, 0.25, 0.3, 0.35, 0.4])
    ledgers = _bw_stack(cfg, st)
    assert not any(isinstance(ledger, BwlabError) for ledger in ledgers)
    ledgers[1] = replace(ledgers[1], E=1.5 - 1.2)  # a mixed pair's energy
    ledgers[3] = replace(ledgers[3], E=float(np.delete(st.resolvent.vals[3], 0)[0]))
    with pytest.raises(BwlabError):
        _conventions(2, st, ledgers)
    got = each_alone(lambda part: _conventions(2, st.take(part), [ledgers[i] for i in part]),
                     np.arange(len(ledgers)))
    alone = []
    for i, ledger in enumerate(ledgers):
        try:
            (rep,) = _conventions(2, st.take([i]), [ledger])
        except BwlabError as exc:
            rep = exc
        alone.append(rep)
    assert [type(rep) for rep in got] == [type(rep) for rep in alone]
    assert [str(rep) if isinstance(rep, BwlabError) else rep for rep in got] == [
        str(rep) if isinstance(rep, BwlabError) else rep for rep in alone]
    assert str(alone[1]).startswith("degenerate pair denominator at E = 0.3")
    assert "hits the complementary spectrum" in str(alone[3])
    assert not any(isinstance(alone[i], BwlabError) for i in (0, 2, 4))


def test_coupling_scan_nonfinite_bw_step_fails_at_once():
    """A lambda whose BW secant step overflows is never moved by it (an
    infinite secant step does not count as agreeing): its BW converges in a
    few iterations, long before bw.MAX_ITER, and the point fails at X_J's
    pinch check, with no numpy warning on the way."""
    from bwlab.pipeline import ReferenceState, _bw_problem, reference_state

    matrix = tuple(tuple(10.0 if i == j else 1.0 for j in range(4)) for i in range(4))
    cfg = RunConfig(ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                                coulomb_scale=1.0, coulomb_matrix=matrix))
    lams = [float(lam) for lam in np.geomspace(0.01, 1e308, 4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, _, failures = coupling_scan(cfg, lams)
        st = reference_state(replace(cfg, model=cfg.model.scaled(lams[2])))
        ledger = bw_selfconsistent(*_bw_problem(st), st.E_c, order=cfg.bw_order)
    assert dict(failures)[lams[2]] == ("DegenerateDenominatorError: pinched pole pair at "
                                       "eps = -2.33099e+205 (opposite half-planes)")
    assert ledger.iterations < 10


def test_coupling_scan_overflowing_interaction_fails_alone():
    """A lambda at which a finite coulomb scale times its explicit matrix
    overflows fails with the one-point ConfigError, and only that point:
    the rest of its chunk still runs as its one-point runs do."""
    matrix = tuple(tuple(10.0 if i == j else 1.0 for j in range(4)) for i in range(4))
    cfg = RunConfig(ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                                coulomb_scale=1.0, coulomb_matrix=matrix))
    lams = [float(lam) for lam in np.geomspace(0.01, 1e308, 4)]
    rows, _, _, failures = coupling_scan(cfg, lams)
    assert (rows, failures) == one_point_scan(cfg, lams)
    assert [row[0] for row in rows] == [0.01]
    assert failures[-1] == (1e308, "ConfigError: coulomb scale 1e+308 times its matrix "
                                   "is not finite")
