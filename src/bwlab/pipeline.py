"""End-to-end composition: model -> no-pair solve -> self-consistent BW ->
both sign conventions -> predicted discrepancy.

Every command works on one RunConfig and one reference state, which
reference_state builds: the model, and the no-pair state cfg.state_index
with its BW resolvent.  compare and scan reach it through pipeline_core,
verify through identities.identity_suite.

The BW perturbation is H_D1 + H_D2 with the ladder (equal-time) kernel,
the resummation consistent with the instantaneous model oracle, applied
to vectors on the unmixed block (controversy.ladder_perturbation), so no
dim x dim V is formed at any BW energy.  The convention comparison
evaluates the relative-energy (joint) expressions exactly as written,
with dE = E - E_c taken from the BW solve.  The evaluators need the
kernel integral only applied to v = I_c psi_c, so the run builds X_J v
once per energy and route, never the dim x dim X_J.  pipeline_core,
which compare and scan share, builds X_J(E) v on the direct and on the
S-sum route; run_pipeline (compare) adds X_J(E_c) v for dkz-dc-approx and
the model oracle (eig of the unmixed block), neither of which scan
reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bw import EnergyLedger, Resolvent, bw_selfconsistent, solve_no_pair
from .config import RunConfig
from .controversy import (
    ControversyReport,
    combined_variant,
    convention_report,
    ladder_perturbation,
    model_oracle,
)
from .model import build_basis, build_interaction, build_spectrum
from .operators import build_Hc
from .propagators import xj_matrix, xj_matrix_ssum_route


@dataclass
class ReferenceState:
    """The configured model and its no-pair reference state."""

    spectrum: object
    basis: object
    I_c: np.ndarray
    g_delta: np.ndarray
    E_c: float
    psi_c: np.ndarray
    resolvent: Resolvent


@dataclass
class PipelineResult:
    state: ReferenceState
    ledger: EnergyLedger
    controversy: ControversyReport
    oracle_energy: float | None


def reference_state(cfg: RunConfig) -> ReferenceState:
    """Spectrum, basis, both couplings, the no-pair state cfg.state_index of
    the doubly-positive block, and the BW resolvent about it."""
    spectrum = build_spectrum(cfg.model)
    basis = build_basis(spectrum)
    I_c = build_interaction(cfg.model, "coulomb")
    g_delta = build_interaction(cfg.model, "delta")
    H_c = build_Hc(spectrum, basis, I_c)
    E_c, psi_c = solve_no_pair(H_c, basis.pattern_indices("pp"), state_index=cfg.state_index)
    return ReferenceState(spectrum, basis, I_c, g_delta, E_c, psi_c, Resolvent(H_c, psi_c))


def _coupled(st):
    """Whether both couplings are nonzero; otherwise every convention value
    is 0 and X_J is not built (E = E_c is a pair energy when I_c = 0)."""
    return bool(np.any(st.I_c) and np.any(st.g_delta))


def pipeline_core(cfg: RunConfig) -> PipelineResult:
    """Reference state, BW, X_J(E) v on both routes and the convention
    report; combined_dkz_dc_approx stays 0 and oracle_energy None."""
    st = reference_state(cfg)
    spectrum, basis, I_c, g_delta = st.spectrum, st.basis, st.I_c, st.g_delta
    ledger = bw_selfconsistent(
        st.resolvent, ladder_perturbation(basis, I_c, g_delta), st.psi_c, st.E_c,
        order=cfg.bw_order, max_iter=cfg.bw_max_iter, tol=cfg.bw_tol,
    )
    E = ledger.E

    rep = ControversyReport()
    if _coupled(st):
        order = cfg.integration.j_order
        v = I_c @ st.psi_c
        Xv = xj_matrix(spectrum, basis, E, g_delta, order, v=v)
        Xv_alt = xj_matrix_ssum_route(spectrum, basis, E, g_delta, order, v=v)
        rep = convention_report(basis, E, st.E_c, st.psi_c, I_c, st.resolvent, Xv, Xv_alt)
    return PipelineResult(state=st, ledger=ledger, controversy=rep, oracle_energy=None)


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    """pipeline_core, then the dkz-dc-approx value from X_J(E_c) v and the
    model oracle's energy."""
    res = pipeline_core(cfg)
    st = res.state
    spectrum, basis, I_c, g, psi_c = st.spectrum, st.basis, st.I_c, st.g_delta, st.psi_c
    if _coupled(st):
        E, E_c = res.ledger.E, res.ledger.E_c
        Xv_c = xj_matrix(spectrum, basis, E_c, g, cfg.integration.j_order, v=I_c @ psi_c)
        res.controversy.combined_dkz_dc_approx = combined_variant(
            basis, E, E_c, psi_c, I_c, "dkz-dc-approx", Xv_c
        )
    res.oracle_energy = model_oracle(spectrum, basis, I_c, g, psi_c)
    return res
