"""End-to-end composition: model -> no-pair solve -> self-consistent BW ->
both sign conventions -> predicted discrepancy.

The BW perturbation is H_D1 + H_D2 with the ladder (equal-time) kernel,
the resummation consistent with the instantaneous model oracle; the
convention comparison evaluates the relative-energy (joint) expressions
exactly as written, with dE = E - E_c taken from the BW solve.  The
evaluators need the kernel integral only applied to v = I_c psi_c, so the
run builds X_J v once per energy and route, never the dim x dim X_J.
pipeline_core, which compare and scan share, builds X_J(E) v on the direct
and on the S-sum route; run_pipeline (compare) adds X_J(E_c) v for
dkz-dc-approx and the model oracle, neither of which scan reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bw import EnergyLedger, Resolvent, bw_selfconsistent, solve_no_pair
from .controversy import (
    ControversyReport,
    combined_variant,
    convention_report,
    h_delta2_ladder,
    model_oracle,
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
    psi_c: np.ndarray
    ledger: EnergyLedger
    controversy: ControversyReport
    oracle_energy: float | None


def _coupled(I_c, g_delta):
    """Whether both couplings are nonzero; otherwise every convention value
    is 0 and X_J is not built (E = E_c is a pair energy when I_c = 0)."""
    return bool(np.any(I_c) and np.any(g_delta))


def pipeline_core(model_config: ModelConfig, settings: IntegrationSettings,
                  bw_order=3, bw_max_iter=200, bw_tol=1e-12, state_index=0):
    """Model, no-pair solve, BW, X_J(E) v on both routes and the convention
    report; combined_dkz_dc_approx stays 0 and oracle_energy None."""
    spectrum = build_spectrum(model_config)
    basis = build_basis(spectrum)
    I_c = build_interaction(model_config, "coulomb")
    g_delta = build_interaction(model_config, "delta")
    H_c = build_Hc(spectrum, basis, I_c)
    E_c, psi_c = solve_no_pair(H_c, basis.pattern_indices("pp"), state_index=state_index)
    resolvent = Resolvent(H_c, psi_c)
    hd1 = build_HDelta1(basis, I_c)

    def h_delta(E):
        return hd1 + h_delta2_ladder(spectrum, basis, E, I_c, g_delta)

    ledger = bw_selfconsistent(
        resolvent, h_delta, psi_c, E_c, order=bw_order,
        max_iter=bw_max_iter, tol=bw_tol,
    )
    E = ledger.E

    rep = ControversyReport()
    if _coupled(I_c, g_delta):
        v = I_c @ psi_c
        Xv = xj_matrix(spectrum, basis, E, g_delta, settings.j_order, v=v)
        Xv_alt = xj_matrix_ssum_route(spectrum, basis, E, g_delta, settings.j_order, v=v)
        rep = convention_report(basis, E, E_c, psi_c, I_c, resolvent, Xv, Xv_alt)
    return PipelineResult(
        spectrum=spectrum, basis=basis, I_c=I_c, g_delta=g_delta, psi_c=psi_c,
        ledger=ledger, controversy=rep, oracle_energy=None,
    )


def run_pipeline(model_config: ModelConfig, settings: IntegrationSettings, **bw_options):
    """pipeline_core (bw_options are its BW arguments), then the
    dkz-dc-approx value from X_J(E_c) v and the model oracle's energy."""
    res = pipeline_core(model_config, settings, **bw_options)
    spectrum, basis, I_c, g, psi_c = res.spectrum, res.basis, res.I_c, res.g_delta, res.psi_c
    if _coupled(I_c, g):
        E, E_c = res.ledger.E, res.ledger.E_c
        Xv_c = xj_matrix(spectrum, basis, E_c, g, settings.j_order, v=I_c @ psi_c)
        res.controversy.combined_dkz_dc_approx = combined_variant(
            basis, E, E_c, psi_c, I_c, "dkz-dc-approx", Xv_c
        )
    res.oracle_energy = model_oracle(spectrum, basis, I_c, g, psi_c)
    return res
