"""End-to-end composition: model -> no-pair solve -> self-consistent BW ->
both sign conventions -> predicted discrepancy.

The BW perturbation is H_D1 + H_D2 with the ladder (equal-time) kernel,
the resummation consistent with the instantaneous model oracle; the
convention comparison evaluates the relative-energy (joint) expressions
exactly as written, with dE = E - E_c taken from the BW solve.  The
evaluators need the kernel integral only applied to v = I_c psi_c, so the
run builds X_J v once per energy and route, never the dim x dim X_J:
X_J(E) v and X_J(E_c) v on the direct route, and X_J(E) v on the S-sum
route for the predicted difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bw import EnergyLedger, Resolvent, bw_selfconsistent, solve_no_pair
from .controversy import (
    ControversyReport,
    combined_variant,
    deltaE1_direct,
    deltaE2b_direct,
    h_delta2_ladder,
    model_oracle,
    predicted_discrepancy,
)
from .model import ModelConfig, build_basis, build_interaction, build_spectrum
from .operators import build_HDelta1, build_Hc
from .propagators import IntegrationSettings, xj_matrix, xj_matrix_ssum_route


@dataclass
class PipelineResult:
    spectrum: object
    basis: object
    I_c: np.ndarray
    g_delta: np.ndarray
    H_c: np.ndarray
    psi_c: np.ndarray
    ledger: EnergyLedger
    controversy: ControversyReport
    oracle_energy: float


def run_pipeline(model_config: ModelConfig, settings: IntegrationSettings,
                 bw_order=3, bw_max_iter=200, bw_tol=1e-12, state_index=0):
    spectrum = build_spectrum(model_config)
    basis = build_basis(spectrum)
    I_c = build_interaction(model_config, "coulomb")
    g_delta = build_interaction(model_config, "delta")
    H_c = build_Hc(spectrum, basis, I_c)
    pp = basis.pattern_indices("pp")
    E_c, psi_c = solve_no_pair(H_c, pp, state_index=state_index)
    resolvent = Resolvent(H_c, psi_c)
    hd1 = build_HDelta1(basis, I_c)

    def h_delta(E):
        return hd1 + h_delta2_ladder(spectrum, basis, E, I_c, g_delta)

    ledger = bw_selfconsistent(
        resolvent, h_delta, psi_c, E_c, order=bw_order,
        max_iter=bw_max_iter, tol=bw_tol,
    )
    E = ledger.E

    # with either coupling zero the evaluators return 0 without X_J, which
    # may not exist there (E = E_c is a pair energy when I_c = 0)
    Xv = Xv_c = Xv_alt = None
    if np.any(I_c) and np.any(g_delta):
        v = I_c @ psi_c
        Xv = xj_matrix(spectrum, basis, E, g_delta, settings.j_order, v=v)
        Xv_c = xj_matrix(spectrum, basis, E_c, g_delta, settings.j_order, v=v)
        Xv_alt = xj_matrix_ssum_route(spectrum, basis, E, g_delta, settings.j_order, v=v)

    rep = ControversyReport()
    rep.dE1_direct = deltaE1_direct(spectrum, basis, E, psi_c, I_c, g_delta, settings, Xv=Xv)
    rep.dE2b_direct, e2b_res = deltaE2b_direct(
        spectrum, basis, E, E_c, psi_c, I_c, g_delta, resolvent, settings, Xv=Xv
    )
    rep.combined_lindgren = combined_variant(
        spectrum, basis, E, E_c, psi_c, I_c, g_delta, settings, "lindgren", Xv=Xv
    )
    rep.combined_dkz = combined_variant(
        spectrum, basis, E, E_c, psi_c, I_c, g_delta, settings, "dkz", Xv=Xv
    )
    rep.combined_dkz_dc_approx = combined_variant(
        spectrum, basis, E, E_c, psi_c, I_c, g_delta, settings, "dkz-dc-approx", Xv=Xv_c
    )
    rep.difference = rep.combined_lindgren - rep.combined_dkz
    predicted, dm1_res, dm1_err = predicted_discrepancy(
        spectrum, basis, E, E_c, psi_c, I_c, g_delta, settings, Xv=Xv_alt
    )
    rep.predicted_difference = predicted
    rep.dm1_error_term = dm1_err
    scale = max(1.0, abs(rep.combined_lindgren))
    rep.identity_residuals = {
        "E2b_vs_E2b2": e2b_res / max(1.0, abs(rep.dE2b_direct)),
        "chain_sum": abs(rep.dE1_direct + rep.dE2b_direct - rep.combined_lindgren)
        / max(1.0, abs(rep.combined_lindgren)),
        "central_claim": abs(rep.difference - rep.predicted_difference) / scale,
        **dm1_res,
    }

    oracle = model_oracle(spectrum, basis, I_c, g_delta, psi_c)
    return PipelineResult(
        spectrum=spectrum, basis=basis, I_c=I_c, g_delta=g_delta, H_c=H_c,
        psi_c=psi_c, ledger=ledger, controversy=rep, oracle_energy=oracle,
    )
