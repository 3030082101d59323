"""End-to-end composition: model -> no-pair solve -> self-consistent BW ->
both sign conventions -> predicted discrepancy.

Every command works on one RunConfig and one reference state, which
reference_state builds: the model, and the no-pair state cfg.state_index
with its BW resolvent, both from one eigh of the doubly-positive block.
compare and scan reach it through pipeline_core and pipeline_points,
verify through identities.identity_suite.

The BW perturbation is H_D1 + H_D2 with the ladder (equal-time) kernel,
the resummation consistent with the instantaneous model oracle, applied
to vectors on the unmixed pairs (controversy.ladder_perturbation).  V
maps into those pairs and G_Q keeps vectors there, so the BW solve runs
on them alone, and no dim x dim V is formed at any BW energy.  The
convention comparison evaluates the relative-energy (joint) expressions
exactly as written, with dE = E - E_c taken from the BW solve.  The
evaluators need the kernel integral only applied to v = I_c psi_c, so the
run builds X_J v once per energy and route, never the dim x dim X_J.
pipeline_core, which compare runs and every scan point repeats, builds
X_J(E) v on the direct and on the S-sum route; run_pipeline (compare) adds
X_J(E_c) v for dkz-dc-approx and the model oracle (eig of the unmixed
block), neither of which scan reports.

pipeline_points runs pipeline_core at every point of a coupling schedule
with the BW solves in lock-step: the reference states of a chunk of points
are built as one stack (one eigh for all their pp blocks), and one stacked
term evaluation per round serves every point still iterating
(bw.bw_lockstep).  X_J and the convention report run point by point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bw import EnergyLedger, Resolvent, bw_lockstep, bw_selfconsistent, bw_terms, solve_no_pair
from .config import RunConfig
from .controversy import (
    ControversyReport,
    combined_variant,
    convention_report,
    ladder_perturbation,
    model_oracle,
)
from .errors import BwlabError, ConfigError
from .model import build_basis, build_interaction, build_spectrum
from .operators import build_Hc
from .propagators import xj_matrix, xj_matrix_ssum_route

#: bytes that the stacked arrays of one chunk of scan points may take; a
#: point holds about STACK_DOUBLES dim x dim arrays of doubles (the two
#: couplings, H_c, their copies per BW round and the unmixed blocks)
STACK_BYTES = 4 << 20
STACK_DOUBLES = 8


@dataclass
class ReferenceState:
    """The configured model and its no-pair reference state; or a stack of
    them over one spectrum and basis, one per coupling factor, with a
    leading axis on the arrays."""

    spectrum: object
    basis: object
    I_c: np.ndarray
    g_delta: np.ndarray
    E_c: float
    psi_c: np.ndarray
    resolvent: Resolvent

    def take(self, items):
        """The states `items` (an index or an index array) of a stack."""
        return replace(self, I_c=self.I_c[items], g_delta=self.g_delta[items],
                       E_c=self.E_c[items], psi_c=self.psi_c[items],
                       resolvent=self.resolvent.take(items))


@dataclass
class PipelineResult:
    state: ReferenceState
    ledger: EnergyLedger
    controversy: ControversyReport
    oracle_energy: float | None


def reference_state(cfg: RunConfig, factors=None) -> ReferenceState:
    """Spectrum, basis, both couplings, the no-pair state cfg.state_index of
    the doubly-positive block, and the BW resolvent about it.  With factors,
    the stack of the states of cfg.model.scaled(f), one per factor, from one
    stacked eigh; the caller checks that each scaled model is valid."""
    spectrum = build_spectrum(cfg.model)
    basis = build_basis(spectrum)
    I_c = build_interaction(cfg.model, "coulomb", factors)
    g_delta = build_interaction(cfg.model, "delta", factors)
    H_c = build_Hc(spectrum, basis, I_c)
    E_c, psi_c, resolvent = solve_no_pair(H_c, basis.pattern_indices("pp"),
                                          state_index=cfg.state_index)
    return ReferenceState(spectrum, basis, I_c, g_delta, E_c, psi_c, resolvent)


def _coupled(st):
    """Whether both couplings are nonzero (per item of a stack); otherwise
    every convention value is 0 and X_J is not built (E = E_c is a pair
    energy when I_c = 0)."""
    return st.I_c.any(axis=(-2, -1)) & st.g_delta.any(axis=(-2, -1))


def _bw_problem(st):
    """(resolvent, perturbation, psi_c) of the BW solve of st on the
    unmixed pairs, where V maps and G_Q keeps every vector the terms use."""
    u = np.flatnonzero(st.basis.unmixed_sign)
    return (st.resolvent.restrict(u), ladder_perturbation(st.basis, st.I_c, st.g_delta),
            st.psi_c.take(u, axis=-1))


def _conventions(cfg, st, ledger):
    """X_J(E) v on both routes and the convention report of one state at the
    BW energy; combined_dkz_dc_approx stays 0 and oracle_energy None."""
    rep = ControversyReport()
    if _coupled(st):
        E, order = ledger.E, cfg.integration.j_order
        v = st.I_c @ st.psi_c
        Xv = xj_matrix(st.spectrum, st.basis, E, st.g_delta, order, v=v)
        Xv_alt = xj_matrix_ssum_route(st.spectrum, st.basis, E, st.g_delta, order, v=v)
        rep = convention_report(st.basis, E, ledger.E_c, st.psi_c, st.I_c, st.resolvent,
                                Xv, Xv_alt)
    return PipelineResult(state=st, ledger=ledger, controversy=rep, oracle_energy=None)


def pipeline_core(cfg: RunConfig) -> PipelineResult:
    """Reference state, BW, X_J(E) v on both routes and the convention
    report; combined_dkz_dc_approx stays 0 and oracle_energy None."""
    st = reference_state(cfg)
    resolvent, h_delta, psi_u = _bw_problem(st)
    ledger = bw_selfconsistent(resolvent, h_delta, psi_u, st.E_c, order=cfg.bw_order,
                               max_iter=cfg.bw_max_iter, tol=cfg.bw_tol)
    return _conventions(cfg, st, ledger)


def _bw_stack(cfg, st):
    """Per state of the stack st, the EnergyLedger of its BW solve or the
    BwlabError that pipeline_core's solve raises for it, all solved in
    lock-step.  Coupled and uncoupled states have different perturbations,
    so each kind is one stack."""
    outcomes = [None] * len(st.E_c)
    coupled = _coupled(st)
    for members in (np.flatnonzero(coupled), np.flatnonzero(~coupled)):
        if not members.size:
            continue
        group = st if members.size == coupled.size else st.take(members)

        def select(items, group=group):
            resolvent, h_delta, psi_u = _bw_problem(group.take(items))
            return lambda E: bw_terms(resolvent, h_delta, E, psi_u, cfg.bw_order)

        solved = bw_lockstep(select, group.E_c, cfg.bw_max_iter, cfg.bw_tol)
        for i, outcome in zip(members, solved):
            outcomes[i] = outcome
    return outcomes


def _scaling_error(cfg, factor):
    """The ConfigError of cfg.model.scaled(factor), as a one-point run
    raises it for couplings that are not finite, or None."""
    try:
        cfg.model.scaled(factor)
    except ConfigError as exc:
        return exc
    return None


def _stack_outcomes(cfg, factors):
    """Yields, per factor, its point's PipelineResult or BwlabError, from one
    stack of reference states and BW solves in lock-step."""
    try:
        st = reference_state(cfg, factors)
    except BwlabError as exc:
        # a stack fails as each of its points does: a geometric schedule
        # has one sign, and with the couplings valid nothing else here
        # depends on the factor
        yield from [exc] * len(factors)
        return
    for i, outcome in enumerate(_bw_stack(cfg, st)):
        if not isinstance(outcome, BwlabError):
            try:
                outcome = _conventions(cfg, st.take(i), outcome)
            except BwlabError as exc:
                outcome = exc
        yield outcome


def pipeline_points(cfg: RunConfig, factors):
    """pipeline_core at cfg.model.scaled(f) for each f in factors: yields,
    in order, each point's PipelineResult or the BwlabError pipeline_core
    raises there.  The points are taken in chunks whose stacked arrays fit
    STACK_BYTES; the points of a chunk whose scaled couplings are valid are
    stacked, and their BW solves run in lock-step."""
    dim = (len(cfg.model.positive_energies) + len(cfg.model.negative_energies)) ** 2
    size = max(1, STACK_BYTES // (8 * STACK_DOUBLES * dim * dim))
    for start in range(0, len(factors), size):
        chunk = factors[start:start + size]
        errors = [_scaling_error(cfg, f) for f in chunk]
        stacked = _stack_outcomes(cfg, [f for f, error in zip(chunk, errors) if error is None])
        for error in errors:
            yield next(stacked) if error is None else error


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
