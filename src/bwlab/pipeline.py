"""End-to-end composition: model -> no-pair solve -> self-consistent BW ->
both sign conventions -> predicted discrepancy.

Every command works on one RunConfig and one reference state, which
reference_state builds: the model, and the no-pair state cfg.state_index
with its BW resolvent, both from one eigh of the doubly-positive block.

The BW perturbation is H_D1 + H_D2 with the ladder (equal-time) kernel,
the resummation consistent with the instantaneous model oracle, applied
to vectors on the unmixed pairs (controversy.ladder_perturbation).  V
maps into those pairs and G_Q keeps vectors there, so the BW solve runs
on them alone, and no dim x dim V is formed at any BW energy.  The
convention comparison evaluates the relative-energy (joint) expressions
exactly as written, with dE = E - E_c taken from the BW solve.  The
evaluators need the kernel integral only applied to v = I_c psi_c, so the
run builds X_J v once per energy and route, never the dim x dim X_J.

Each command takes one path.  compare's run_pipeline runs its one point: BW
(bw.bw_selfconsistent), X_J(E) v on the direct and the S-sum route, the
convention report, then X_J(E_c) v for combined_dkz_dc_approx (the dkz
combination with X_J taken at E_c, every D in the kernel replaced by D_c)
and the model oracle (eig of the unmixed block), neither of which scan
reports.  verify runs identities.identity_suite.  scan's pipeline_points
runs every point through the stacked stages alone, chunk by chunk, a chunk
of one too: one stack of reference states (one eigh for all their pp
blocks), BW in lock-step (_bw_stack), then one stacked X_J(E) v build for
both routes and one stacked convention report (_conventions).

A point that aborts fails alone by one rule, bw.each_alone: a stack whose
run raises a BwlabError is split in two and each half run again.  Three
sites apply it, each to its own stage only: pipeline_points to the
reference stage, by chunk, bw_lockstep to a BW round, and _stack_outcomes
to the convention stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bw import (EnergyLedger, Resolvent, bw_lockstep, bw_selfconsistent, bw_terms, each_alone,
                 solve_no_pair)
from .config import RunConfig
from .controversy import (
    ControversyReport,
    combined_variant,
    convention_report,
    ladder_perturbation,
    model_oracle,
)
from .errors import BwlabError
from .model import build_basis, build_interaction, build_spectrum
from .operators import build_Hc
from .propagators import xj_matrix, xj_matrix_ssum_route, xj_stack

#: bytes that the stacked arrays of one chunk of scan points may take; a
#: point holds about STACK_DOUBLES dim x dim arrays of doubles (the two
#: couplings, H_c, their copies per BW round and the unmixed blocks; then
#: X_J's masked copies of g)
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
        """The stack of the states `items` (an index array) of a stack."""
        return ReferenceState(self.spectrum, self.basis, self.I_c[items], self.g_delta[items],
                              self.E_c[items], self.psi_c[items], self.resolvent.take(items))


@dataclass
class PipelineResult:
    """compare's run: reference state, BW ledger, full report, oracle energy."""

    state: ReferenceState
    ledger: EnergyLedger
    controversy: ControversyReport
    oracle_energy: float


def reference_state(cfg: RunConfig, factors=None) -> ReferenceState:
    """Spectrum, basis, both couplings, the no-pair state cfg.state_index of
    the doubly-positive block, and the BW resolvent about it.  With factors,
    the stack of the states of cfg.model.scaled(f), one per factor, from one
    stacked eigh; a factor whose scaled couplings are not both finite
    raises first, with the ConfigError of cfg.model.scaled(f)."""
    if factors is not None:
        with np.errstate(over="ignore"):
            scales = np.multiply.outer(factors, (cfg.model.coulomb_scale, cfg.model.delta_scale))
        for i in np.flatnonzero(~np.isfinite(scales).all(axis=-1)):
            cfg.model.scaled(factors[i])
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


def _conventions(order, st, ledgers):
    """Per state of the stack st, at its ledger's BW energy, its convention
    report from X_J(E) v on both routes (combined_dkz_dc_approx stays 0):
    one xj_stack build and one stacked report for the coupled states.
    Raises the BwlabError of the first state that aborts, as any stage
    does; _stack_outcomes' split of the stack (bw.each_alone) leaves each
    state the outcome it has alone."""
    reports = [ControversyReport() for _ in ledgers]
    items = np.flatnonzero(_coupled(st))
    if not items.size:
        return reports
    group = st.take(items)
    E, E_c = (np.array([getattr(ledgers[i], name) for i in items]) for name in ("E", "E_c"))
    v = (group.I_c @ group.psi_c[..., None])[..., 0]
    Xv, Xv_alt = xj_stack(st.spectrum, st.basis, E, group.g_delta, order, v)
    for i, rep in zip(items, convention_report(st.basis, E, E_c, group.psi_c, group.I_c,
                                               group.resolvent, Xv, Xv_alt)):
        reports[i] = rep
    return reports


def _bw_stack(cfg, st):
    """Per state of the stack st, the EnergyLedger of its BW solve or the
    BwlabError that solving it alone raises, all solved in lock-step.
    Coupled and uncoupled states have different perturbations, so each
    kind is one stack."""
    outcomes = [None] * len(st.E_c)
    coupled = _coupled(st)
    for members in (np.flatnonzero(coupled), np.flatnonzero(~coupled)):
        if not members.size:
            continue
        group = st.take(members)

        def select(items, group=group):
            resolvent, h_delta, psi_u = _bw_problem(group.take(items))
            return lambda E: bw_terms(resolvent, h_delta, E, psi_u, cfg.bw_order)

        solved = bw_lockstep(select, group.E_c)
        for i, outcome in zip(members, solved):
            outcomes[i] = outcome
    return outcomes


def _stack_outcomes(cfg, factors):
    """Per factor, its point's (EnergyLedger, ControversyReport) or the
    BwlabError it raises alone, from one stack of reference states, BW
    solves in lock-step and one stacked convention stage at the converged
    points, which bw.each_alone splits where a point fails in it.  Raises
    where the stacked reference build does."""
    st = reference_state(cfg, factors)
    solved = _bw_stack(cfg, st)
    done = [i for i, outcome in enumerate(solved) if not isinstance(outcome, BwlabError)]
    reports = each_alone(lambda part: _conventions(cfg.j_order, st.take(part),
                                                   [solved[i] for i in part]), done)
    for i, rep in zip(done, reports):
        solved[i] = rep if isinstance(rep, BwlabError) else (solved[i], rep)
    return solved


def pipeline_points(cfg: RunConfig, factors):
    """The point cfg.model.scaled(f) for each f in factors, through the
    stacked stages: yields, in order, each point's (EnergyLedger,
    ControversyReport), with combined_dkz_dc_approx 0, or the BwlabError it
    raises alone.  The points are taken in chunks whose stacked arrays fit
    STACK_BYTES.  A chunk whose reference build raises is split in two
    (bw.each_alone), down to single points; its BW rounds and its
    convention stage split on their own (_stack_outcomes)."""
    dim = (len(cfg.model.positive_energies) + len(cfg.model.negative_energies)) ** 2
    size = max(1, STACK_BYTES // (8 * STACK_DOUBLES * dim * dim))
    for start in range(0, len(factors), size):
        yield from each_alone(lambda chunk: _stack_outcomes(cfg, chunk),
                              factors[start:start + size])


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    """compare's one point: reference state, BW, X_J(E) v on both routes and
    the convention report, then combined_dkz_dc_approx, the dkz combination
    with X_J(E_c) v in place of X_J(E) v, and the model oracle's energy."""
    st = reference_state(cfg)
    spectrum, basis, I_c, g, psi_c = st.spectrum, st.basis, st.I_c, st.g_delta, st.psi_c
    ledger = bw_selfconsistent(*_bw_problem(st), st.E_c, order=cfg.bw_order)
    rep = ControversyReport()
    if _coupled(st):
        E, E_c, order, v = ledger.E, ledger.E_c, cfg.j_order, I_c @ psi_c
        Xv, Xv_alt = (route(spectrum, basis, E, g, order, v=v)
                      for route in (xj_matrix, xj_matrix_ssum_route))
        (rep,) = convention_report(basis, E, E_c, psi_c, I_c, st.resolvent, Xv, Xv_alt)
        Xv_c = xj_matrix(spectrum, basis, E_c, g, order, v=v)
        rep.combined_dkz_dc_approx = float(combined_variant(basis, E, E_c, psi_c, I_c,
                                                            "dkz", Xv_c))
    return PipelineResult(st, ledger, rep, model_oracle(spectrum, basis, I_c, g, psi_c))
