import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bwlab import (
    IntegrationSettings,
    ModelConfig,
    RunConfig,
    build_basis,
    build_Hc,
    build_interaction,
    build_spectrum,
    combined_variant,
    coupling_scan,
    deltaE1_direct,
    deltaE2b_direct,
    h_delta2_ladder,
    model_oracle,
    predicted_discrepancy,
    quadrature_oracle,
    run_pipeline,
    sandwich_integral,
    solve_no_pair,
)
from bwlab.controversy import fit_power_law, ladder_kernel, ladder_perturbation
from bwlab.operators import build_D, build_HDelta1
from conftest import energy_away_from_poles, jittered_dim36
from bwlab.propagators import xj_matrix, xj_matrix_ssum_route


def solved(dim4):
    spectrum, basis, I_c, g = dim4
    H = build_Hc(spectrum, basis, I_c)
    E_c, psi, r = solve_no_pair(H, basis.pattern_indices("pp"))
    return spectrum, basis, I_c, g, r, E_c, psi


def applied(spectrum, basis, E, psi, I_c, g, j_order, route=xj_matrix):
    """X_J(E) I_c psi built along route, the Xv the evaluators take."""
    return route(spectrum, basis, E, g, j_order, v=I_c @ psi)


def test_deltaE1_frozen_value(dim4):
    """K=1 at E = E_c = 2.1: psi D sandwich(g) I_c psi = 518/495 exactly
    (from the exact dim-4 residue table)."""
    spectrum, basis, I_c, g, r, E_c, psi = solved(dim4)
    val = deltaE1_direct(basis, E_c, psi, applied(spectrum, basis, E_c, psi, I_c, g, 1))
    assert val == pytest.approx(518.0 / 495.0, rel=1e-13)


def test_deltaE1_vs_quadrature_composition(dim4, settings):
    spectrum, basis, I_c, g, r, E_c, psi = solved(dim4)
    val = deltaE1_direct(basis, E_c, psi, applied(spectrum, basis, E_c, psi, I_c, g, 1))
    Xq = quadrature_oracle(spectrum, basis, E_c, g, settings)
    D = build_D(spectrum, basis, E_c)
    quad_val = psi @ D @ Xq @ I_c @ psi
    assert val == pytest.approx(quad_val, rel=1e-6)


def test_deltaE2b_forms_agree(dim4, settings):
    spectrum, basis, I_c, g, r, E_c, psi = solved(dim4)
    E = E_c + 0.2
    Xv = applied(spectrum, basis, E, psi, I_c, g, settings.j_order)
    val, residual = deltaE2b_direct(basis, E, E_c, psi, I_c, r, Xv)
    assert residual < 1e-10 * max(1.0, abs(val))
    assert val != 0.0


def test_combined_conventions_agree_at_zero_shift(dim4, settings):
    spectrum, basis, I_c, g, r, E_c, psi = solved(dim4)
    Xv = applied(spectrum, basis, E_c, psi, I_c, g, settings.j_order)
    lind = combined_variant(basis, E_c, E_c, psi, I_c, "lindgren", Xv)
    dkz = combined_variant(basis, E_c, E_c, psi, I_c, "dkz", Xv)
    assert lind == dkz


def test_combined_equals_chain_sum(dim4, settings):
    """(D + I_c - D_c) recombines into (I_c + dE): the first-order plus
    reduced second-order terms equal the lindgren combination."""
    spectrum, basis, I_c, g, r, E_c, psi = solved(dim4)
    E = E_c + 0.17
    Xv = applied(spectrum, basis, E, psi, I_c, g, settings.j_order)
    d1 = deltaE1_direct(basis, E, psi, Xv)
    d2, _ = deltaE2b_direct(basis, E, E_c, psi, I_c, r, Xv)
    lind = combined_variant(basis, E, E_c, psi, I_c, "lindgren", Xv)
    assert d1 + d2 == pytest.approx(lind, rel=1e-10)


def test_difference_is_twice_shift_times_Y(dim4, settings):
    spectrum, basis, I_c, g, r, E_c, psi = solved(dim4)
    E = E_c + 0.17
    dE = E - E_c
    Xv = applied(spectrum, basis, E, psi, I_c, g, settings.j_order)
    lind = combined_variant(basis, E, E_c, psi, I_c, "lindgren", Xv)
    dkz = combined_variant(basis, E, E_c, psi, I_c, "dkz", Xv)
    Y = xj_matrix(spectrum, basis, E, g, settings.j_order) @ I_c
    expect = 2.0 * dE * (psi @ Y @ psi)
    assert (lind - dkz) == pytest.approx(expect, abs=1e-12 * max(1.0, abs(lind)))


def test_dm1_scalar_identity():
    # 1/Dc - dE/(Dc D) = 1/D:  0.5 - 0.1 = 0.4 = 1/2.5
    Dc, dE, D = 2.0, 0.5, 2.5
    assert 1.0 / Dc - dE / (Dc * D) == pytest.approx(1.0 / D, rel=1e-15)


def test_predicted_discrepancy_matches_measured(dim4, settings):
    spectrum, basis, I_c, g, r, E_c, psi = solved(dim4)
    E = E_c + 0.17
    Xv = applied(spectrum, basis, E, psi, I_c, g, settings.j_order)
    lind = combined_variant(basis, E, E_c, psi, I_c, "lindgren", Xv)
    dkz = combined_variant(basis, E, E_c, psi, I_c, "dkz", Xv)
    predicted, residuals, dm1_err = predicted_discrepancy(
        basis, E, E_c, psi, I_c,
        applied(spectrum, basis, E, psi, I_c, g, settings.j_order, xj_matrix_ssum_route),
    )
    assert (lind - dkz) == pytest.approx(predicted, rel=1e-10)
    assert residuals["Dm1_route"] < 1e-12
    assert dm1_err != 0.0


def test_predicted_discrepancy_zero_shift(dim4, settings):
    spectrum, basis, I_c, g, r, E_c, psi = solved(dim4)
    predicted, _, dm1_err = predicted_discrepancy(
        basis, E_c, E_c, psi, I_c,
        applied(spectrum, basis, E_c, psi, I_c, g, settings.j_order, xj_matrix_ssum_route),
    )
    assert predicted == 0.0
    assert dm1_err == 0.0


def test_dkz_dc_approx_reported(dim4, settings):
    spectrum, basis, I_c, g, r, E_c, psi = solved(dim4)
    E = E_c + 0.17
    Xv = applied(spectrum, basis, E, psi, I_c, g, settings.j_order)
    approx = combined_variant(basis, E, E_c, psi, I_c, "dkz-dc-approx",
                              applied(spectrum, basis, E_c, psi, I_c, g, settings.j_order))
    dkz = combined_variant(basis, E, E_c, psi, I_c, "dkz", Xv)
    assert np.isfinite(approx)
    assert approx != dkz
    with pytest.raises(ValueError):
        combined_variant(basis, E, E_c, psi, I_c, "nonsense", Xv)


def test_model_oracle_free_limit(dim4):
    spectrum, basis, _, _ = dim4
    zero = np.zeros((4, 4))
    psi = np.array([1.0, 0.0, 0.0, 0.0])
    assert model_oracle(spectrum, basis, zero, zero, psi) == pytest.approx(2.0)


def test_model_oracle_overlap(dim4_config):
    cfg = ModelConfig(
        positive_energies=(1.0, 1.5), negative_energies=(-1.2, -1.7),
        coulomb_scale=0.1, delta_scale=0.05,
    )
    spectrum = build_spectrum(cfg)
    basis = build_basis(spectrum)
    I_c = build_interaction(cfg, "coulomb")
    g = build_interaction(cfg, "delta")
    H = build_Hc(spectrum, basis, I_c)
    _, psi, _ = solve_no_pair(H, basis.pattern_indices("pp"))
    _, vec = model_oracle(spectrum, basis, I_c, g, psi, return_vector=True)
    assert (psi @ vec) ** 2 > 0.9


def test_oracle_linear_response_matches_first_order():
    """The oracle's leading response to the remainder coupling equals the
    first-order BW term's, up to O(lambda_c) relative."""
    lam_c = 0.05
    coefs = []
    for ld in (0.01, 0.005):
        cfg = ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                          coulomb_scale=lam_c, delta_scale=ld)
        res = run_pipeline(RunConfig(cfg, IntegrationSettings()))
        coefs.append(((res.oracle_energy - res.ledger.E_c) / ld, res.ledger.dE[0] / ld))
    for oracle_coef, dE1_coef in coefs:
        # the oracle also carries a lambda_c^2 piece from the virtual-pair
        # coupling; at these couplings the linear coefficients agree to
        # a few lambda_c relative
        assert abs(oracle_coef - dE1_coef) < 3 * lam_c * abs(dE1_coef)


def test_bw_ladder_tracks_oracle(dim4_config, settings):
    res = run_pipeline(RunConfig(dim4_config, settings))
    assert abs(res.ledger.E - res.oracle_energy) < 5e-5
    assert res.ledger.residual < 1e-11


def test_h_delta2_routes_zero_couplings(dim4, settings):
    spectrum, basis, I_c, g, *_ = solved(dim4)
    zero = np.zeros((4, 4))
    assert not np.any(h_delta2_ladder(spectrum, basis, 2.1, zero, g))
    assert not np.any(h_delta2_ladder(spectrum, basis, 2.1, I_c, zero))


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
        dense = h_delta2_ladder(spectrum, basis, E, I_c, g)
        kernel = ladder_kernel(spectrum, basis, E, g)
        D = E - basis.pair_energies()
        for x in rng.normal(size=(3, basis.dim)) * u:
            got = np.zeros(basis.dim)
            got[u] = apply(x[u])
            for want in (hd1 @ x + dense @ x, hd1 @ x + D * (kernel @ (I_c @ x))):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_pipeline_identity_residuals(dim4_config, settings):
    res = run_pipeline(RunConfig(dim4_config, settings))
    rep = res.controversy
    assert rep.identity_residuals["E2b_vs_E2b2"] < 1e-10
    assert rep.identity_residuals["chain_sum"] < 1e-10
    assert rep.identity_residuals["central_claim"] < 1e-12
    assert rep.identity_residuals["Dm1_route"] < 1e-12
    assert rep.difference == rep.combined_lindgren - rep.combined_dkz


def test_pipeline_zero_delta(dim4_config, settings):
    cfg = ModelConfig(
        positive_energies=(1.0,), negative_energies=(-1.2,),
        coulomb_scale=0.1, delta_scale=0.0,
    )
    res = run_pipeline(RunConfig(cfg, settings))
    assert res.controversy.difference == 0.0
    assert res.controversy.predicted_difference == 0.0
    assert res.ledger.E == pytest.approx(res.ledger.E_c + sum(res.ledger.dE))


def test_pipeline_zero_couplings(settings):
    cfg = ModelConfig(
        positive_energies=(1.0,), negative_energies=(-1.2,),
        coulomb_scale=0.0, delta_scale=0.0,
    )
    res = run_pipeline(RunConfig(cfg, settings))
    assert res.ledger.E == res.ledger.E_c == pytest.approx(2.0)
    assert res.ledger.iterations == 1


def test_fit_power_law_recovers_slope():
    lams = [0.02, 0.04, 0.08, 0.16]
    vals = [3.0 * l ** 2.5 for l in lams]
    slope, r2 = fit_power_law(lams, vals)
    assert slope == pytest.approx(2.5, abs=1e-12)
    assert r2 > 0.999999


def test_coupling_scan_validation(dim4_config, settings):
    with pytest.raises(ValueError, match=">= 4"):
        coupling_scan(RunConfig(dim4_config, settings), [0.1])
    with pytest.raises(ValueError, match="geometric"):
        coupling_scan(RunConfig(dim4_config, settings), [0.1, 0.2, 0.25, 0.3])
    with pytest.raises(ValueError, match="ratio other than 1"):
        coupling_scan(RunConfig(dim4_config, settings), [0.1, 0.1, 0.1, 0.1])
    for schedule in ([float("nan")] * 4, [-0.1, -0.2, -0.4, -0.8]):
        with pytest.raises(ValueError, match="finite, > 0 and geometric"):
            coupling_scan(RunConfig(dim4_config, settings), schedule)


def test_coupling_scan_runs(dim4_config, settings):
    rows, slope, r2, failures = coupling_scan(
        RunConfig(dim4_config, settings), [0.02, 0.04, 0.08, 0.16]
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
        routes = kwargs.get("routes", args[6] if len(args) > 6 else ("direct", "ssum"))
        for route in routes:
            counts[route] += 1
        return original(*args, **kwargs)

    for module in (bwlab.propagators, bwlab.pipeline):
        monkeypatch.setattr(module, "xj_stack", counted)
    return counts


def test_pipeline_builds_each_kernel_integral_once(dim4_config, settings, monkeypatch):
    counts = count_kernel_builds(monkeypatch)
    res = run_pipeline(RunConfig(dim4_config, settings))
    assert counts == {"direct": 2, "ssum": 1}  # X_J(E), X_J(E_c); S-sum X_J(E)
    assert res.controversy.identity_residuals["central_claim"] < 1e-12


def test_identity_suite_builds_kernel_integral_once(dim4_config, settings, monkeypatch):
    from bwlab.identities import identity_suite, suite_passes

    counts = count_kernel_builds(monkeypatch)
    assert suite_passes(identity_suite(RunConfig(replace(dim4_config, seed=0), settings)))
    assert counts == {"direct": 1, "ssum": 1}


def test_coupling_scan_propagates_programming_errors(dim4_config, settings, monkeypatch):
    """Only BwlabError is per-point data; a fault inside the pipeline is not
    turned into a failed scan row."""
    import bwlab.pipeline

    stacked = bwlab.pipeline.xj_stack

    def broken_at_largest(spectrum, basis, E, g_delta, order, v):
        if np.max(np.abs(g_delta)) > 0.005:  # 0.05 lambda: only at lambda = 0.16
            raise TypeError("unexpected argument")
        return stacked(spectrum, basis, E, g_delta, order, v)

    monkeypatch.setattr(bwlab.pipeline, "xj_stack", broken_at_largest)
    with pytest.raises(TypeError, match="unexpected argument"):
        coupling_scan(RunConfig(dim4_config, settings), [0.02, 0.04, 0.08, 0.16])


def test_model_oracle_tracking_failure_is_bwlab_error(dim4):
    """A psi_c that overlaps no eigenvector enough raises OracleTrackingError."""
    from bwlab import BwlabError, OracleTrackingError

    spectrum, basis, I_c, g = dim4
    psi = np.full(basis.dim, 0.5)  # spread evenly over the four free pair states
    with pytest.raises(OracleTrackingError, match="ambiguous") as info:
        model_oracle(spectrum, basis, 0.0 * I_c, 0.0 * g, psi)
    assert isinstance(info.value, BwlabError)


#: a jittered 2+2 spectrum (dim 16) next to the dim-4 fixture
JITTERED_2X2 = ModelConfig(positive_energies=(1.03, 1.57), negative_energies=(-1.06, -1.52),
                           coulomb_scale=0.1, delta_scale=0.05)


@pytest.mark.parametrize("jittered", [False, True], ids=["dim4", "jittered-2x2"])
def test_coupling_scan_matches_pipeline(dim4_config, settings, monkeypatch, jittered):
    """The scan computes only what it reports: its rows equal run_pipeline's
    values exactly, while its one chunk of points builds X_J once per route,
    as one stack, and never runs the model oracle."""
    import bwlab.pipeline

    cfg = JITTERED_2X2 if jittered else dim4_config
    lams = [0.02, 0.04, 0.08, 0.16]
    expected = [run_pipeline(RunConfig(cfg.scaled(lam), settings)).controversy
                for lam in lams]

    counts = count_kernel_builds(monkeypatch)
    oracle_calls = []
    monkeypatch.setattr(bwlab.pipeline, "model_oracle",
                        lambda *args, **kwargs: oracle_calls.append(args))
    rows, _, _, failures = coupling_scan(RunConfig(cfg, settings), lams)
    assert failures == []
    assert [(diff, pred) for _, diff, pred, _ in rows] == [
        (rep.difference, rep.predicted_difference) for rep in expected
    ]
    assert counts == {"direct": 1, "ssum": 1}
    assert oracle_calls == []


@pytest.mark.parametrize("coulomb, delta", [(0.1, 0.0), (0.0, 0.05), (0.0, 0.0)],
                         ids=["zero-delta", "zero-coulomb", "both-zero"])
def test_pipeline_zero_coupling_report(settings, monkeypatch, coulomb, delta):
    """With either coupling zero every report value and chain residual is 0,
    and no kernel integral is built."""
    counts = count_kernel_builds(monkeypatch)
    cfg = ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                      coulomb_scale=coulomb, delta_scale=delta)
    rep = run_pipeline(RunConfig(cfg, settings)).controversy
    assert [rep.dE1_direct, rep.dE2b_direct, rep.combined_lindgren, rep.combined_dkz,
            rep.combined_dkz_dc_approx, rep.difference, rep.predicted_difference,
            rep.dm1_error_term] == [0.0] * 8
    assert rep.identity_residuals == {
        "E2b_vs_E2b2": 0.0, "chain_sum": 0.0, "central_claim": 0.0, "Dm1_route": 0.0,
    }
    assert counts == {"direct": 0, "ssum": 0}


# -- the scan in lock-step --------------------------------------------------------

#: scans whose points mix outcomes: converged points, ConvergenceError under
#: the small [bw] max_iter, the unmixed pair-denominator guard during BW, and
#: (dim 9) a pinched pole pair in X_J after BW has converged
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


def one_point_scan(cfg, lams):
    """coupling_scan's rows and failures from one pipeline_core run per point."""
    from bwlab import BwlabError
    from bwlab.pipeline import pipeline_core

    rows, failures = [], []
    for lam in lams:
        try:
            rep = pipeline_core(replace(cfg, model=cfg.model.scaled(lam))).controversy
        except BwlabError as exc:
            failures.append((lam, f"{type(exc).__name__}: {exc}"))
            continue
        ratio = (rep.difference / rep.predicted_difference if rep.predicted_difference != 0.0
                 else float("nan"))
        rows.append((lam, rep.difference, rep.predicted_difference, ratio))
    return rows, failures


@pytest.mark.parametrize("name", list(MIXED_SCANS))
def test_coupling_scan_mixed_outcomes_match_one_point_runs(name):
    """Every row and every failure string of a lock-step scan equals the
    one-point pipeline_core run of its point, in schedule order."""
    model, max_iter = MIXED_SCANS[name]
    cfg = RunConfig(model, IntegrationSettings(j_order=1), bw_max_iter=max_iter)
    rows, _, _, failures = coupling_scan(cfg, MIXED_LAMS)
    assert (rows, failures) == one_point_scan(cfg, MIXED_LAMS)
    kinds = {message.split(":")[0] for _, message in failures}
    assert rows and "ConvergenceError" in kinds and "DegenerateDenominatorError" in kinds
    if name == "dim4 guard":
        assert any("degenerate pair denominator" in message for _, message in failures)


def test_coupling_scan_overflowing_point_fails_alone():
    """A lambda whose scaled coupling overflows to inf fails as its one-point
    run does, and only that point: the rest of its chunk still runs."""
    cfg = RunConfig(ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                                coulomb_scale=10.0), IntegrationSettings())
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


def test_coupling_scan_evaluates_in_lock_step(dim4_config, settings, monkeypatch):
    """A 64-point scan takes one stacked eigh and at most (the largest
    per-point iteration count + 1) stacked term evaluations."""
    from bwlab.pipeline import pipeline_core

    cfg = RunConfig(dim4_config, settings)
    lams = list(np.geomspace(0.02, 0.16, 64))
    iterations = [pipeline_core(replace(cfg, model=dim4_config.scaled(lam))).ledger.iterations
                  for lam in lams]
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

    model, max_iter = MIXED_SCANS[name]
    cfg = RunConfig(model, IntegrationSettings(j_order=1), bw_max_iter=max_iter)
    whole = coupling_scan(cfg, MIXED_LAMS)
    n = len(model.positive_energies) + len(model.negative_energies)
    monkeypatch.setattr(bwlab.pipeline, "STACK_BYTES", 3 * 8 * bwlab.pipeline.STACK_DOUBLES * n ** 4)
    calls = count_stacked_calls(monkeypatch)
    chunked = coupling_scan(cfg, MIXED_LAMS)
    assert (chunked[0], chunked[3]) == (whole[0], whole[3])
    assert calls["eigh"] == [(3,), (3,), (2,)]


def assert_points_match_one_point_runs(cfg, lams):
    """pipeline_points gives, per point, the ledger and report of the
    one-point pipeline_core run, or the same error."""
    from bwlab import BwlabError
    from bwlab.pipeline import pipeline_core, pipeline_points

    for lam, got in zip(lams, pipeline_points(cfg, lams)):
        try:
            want = pipeline_core(replace(cfg, model=cfg.model.scaled(lam)))
        except BwlabError as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            continue
        assert (got.ledger, got.controversy) == (want.ledger, want.controversy)


@pytest.mark.parametrize("name", [*MIXED_SCANS, "jittered dim36"])
def test_pipeline_points_match_one_point_runs(name):
    """Also for blocks of the compare workload's size (n_u = 18)."""
    model, max_iter = MIXED_SCANS.get(name, (jittered_dim36(), 200))
    assert_points_match_one_point_runs(
        RunConfig(model, IntegrationSettings(j_order=1), bw_max_iter=max_iter), MIXED_LAMS)


def test_pipeline_points_stack_coupled_and_uncoupled_points():
    """A delta coupling that underflows to 0 at the smallest lambda leaves
    that point uncoupled (V = H_D1) in a stack of coupled ones (the ladder,
    equal to H_D1 there only up to rounding): each point still ends with
    its one-point ledger."""
    cfg = RunConfig(ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                                coulomb_scale=0.1, delta_scale=1e-320),
                    IntegrationSettings(j_order=1))
    lams = [1e-4, 1e-3, 1e-2, 1e-1]
    assert [np.any(build_interaction(cfg.model.scaled(lam), "delta")) for lam in lams] == [
        False, True, True, True]
    assert_points_match_one_point_runs(cfg, lams)


def test_conventions_fail_alone_inside_a_stack():
    """Two states in the middle of a stack of five fail after the BW stage:
    one at a mixed-pair energy, where the direct route has a double pole
    but D^-1 of the S-sum route does not exist, one at an eigenvalue of H_c
    past the reference state's, where the resolvent guard aborts.  Each
    gets the error of its one-point evaluation, and every other state its
    one-point report."""
    from bwlab import BwlabError
    from bwlab.pipeline import _bw_stack, _conventions, reference_state

    model, _ = MIXED_SCANS["dim9 pinched"]
    cfg = RunConfig(model, IntegrationSettings(j_order=2))
    st = reference_state(cfg, [0.2, 0.25, 0.3, 0.35, 0.4])
    ledgers = _bw_stack(cfg, st)
    assert not any(isinstance(ledger, BwlabError) for ledger in ledgers)
    ledgers[1] = replace(ledgers[1], E=1.5 - 1.2)  # a mixed pair's energy
    ledgers[3] = replace(ledgers[3], E=float(np.delete(st.resolvent.vals[3], 0)[0]))
    got = _conventions(2, st, ledgers)
    alone = [_conventions(2, st.take([i]), [ledger])[0] for i, ledger in enumerate(ledgers)]
    assert [type(rep) for rep in got] == [type(rep) for rep in alone]
    assert [str(rep) if isinstance(rep, BwlabError) else rep for rep in got] == [
        str(rep) if isinstance(rep, BwlabError) else rep for rep in alone]
    assert str(got[1]).startswith("degenerate pair denominator at E = 0.3")
    assert "hits the complementary spectrum" in str(got[3])
    assert not any(isinstance(got[i], BwlabError) for i in (0, 2, 4))


def test_coupling_scan_nonfinite_bw_step_fails_at_once():
    """A lambda whose BW secant step overflows fails with ConvergenceError at
    the iteration that leaves the finite numbers, long before bw_max_iter,
    and the terms are never evaluated at a non-finite E (no numpy warning)."""
    matrix = tuple(tuple(10.0 if i == j else 1.0 for j in range(4)) for i in range(4))
    cfg = RunConfig(ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                                coulomb_scale=1.0, coulomb_matrix=matrix),
                    IntegrationSettings())
    lams = [float(lam) for lam in np.geomspace(0.01, 1e308, 4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, _, failures = coupling_scan(cfg, lams)
    message = dict(failures)[lams[2]]
    found = re.fullmatch(r"ConvergenceError: BW iteration (\d+) steps off the finite numbers "
                         r"from E = \S+ \(E_c \+ sum of terms = \S+\)", message)
    assert found and int(found[1]) < 10


def test_coupling_scan_overflowing_interaction_fails_alone():
    """A lambda at which a finite coulomb scale times its explicit matrix
    overflows fails with the one-point ConfigError, and only that point:
    the rest of its chunk still runs as its one-point runs do."""
    matrix = tuple(tuple(10.0 if i == j else 1.0 for j in range(4)) for i in range(4))
    cfg = RunConfig(ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                                coulomb_scale=1.0, coulomb_matrix=matrix),
                    IntegrationSettings())
    lams = [float(lam) for lam in np.geomspace(0.01, 1e308, 4)]
    rows, _, _, failures = coupling_scan(cfg, lams)
    assert (rows, failures) == one_point_scan(cfg, lams)
    assert [row[0] for row in rows] == [0.01]
    assert failures[-1] == (1e308, "ConfigError: coulomb scale 1e+308 times its matrix "
                                   "is not finite")
