"""Identity suite: every algebraic anchor of the formalism as a named
residual, evaluated on the configured reference state (the model and the
no-pair state solve.state_index, from pipeline.reference_state, as compare
and scan use it).

Each check returns a residual that should sit at rounding level (or at
quadrature level for the oracle comparisons); cmd_verify renders the
table and fails if any residual exceeds its tolerance.
"""

from __future__ import annotations

import bisect

import numpy as np

from .controversy import ControversyReport, convention_report
from .errors import DegenerateDenominatorError
from .operators import build_G0, build_Hc
from .pipeline import reference_state
from .propagators import (
    contour_integral_Finv,
    propagator_S,
    sandwich_integral,
    xj_matrix,
    xj_matrix_ssum_route,
)
from .quadrature import NodeSums, quadrature_finv, quadrature_oracle

#: (name, tolerance); quadrature comparisons carry looser, honest bounds
TOLERANCES = {
    "g0mod_pointwise": 1e-12,
    "dm1_diagonal": 1e-13,
    "resolvent_mm_identity": 1e-12,
    "contour_vs_closed_form": 1e-12,
    "contour_vs_quadrature": 1e-8,
    "sandwich_vs_quadrature": 1e-8,
    "sandwich_linearity": 1e-13,
    "sandwich_exchange_symmetry": 1e-12,
    "E2b_vs_E2b2": 1e-10,
    "chain_sum": 1e-10,
    "central_claim": 1e-12,
    "Dm1_route": 1e-12,
    "g0mod_route": 1e-8,
}


def _uniform(rng, lo, hi):
    """rng.uniform(lo, hi) as one scalar, bit for bit (numpy draws it as
    lo + (hi - lo) * next_double), at a quarter of that call's overhead."""
    return lo + (hi - lo) * rng.random()


def _sample_away_from_poles(rng, pair_sums, lo, hi, min_gap=0.05):
    """A uniform draw farther than min_gap from every pair sum (a sorted
    list).  fl(|x - s|) only grows as s moves away from x, so the two sums
    around x decide, and there it is x - s below x and s - x above."""
    for _ in range(1000):
        x = _uniform(rng, lo, hi)
        k = bisect.bisect(pair_sums, x)
        if ((k == 0 or x - pair_sums[k - 1] > min_gap)
                and (k == len(pair_sums) or pair_sums[k] - x > min_gap)):
            return x
    raise DegenerateDenominatorError(
        f"no sample energy in [{lo:.6g}, {hi:.6g}] lies {min_gap} away from every pair energy")


def _relative(x, ref):
    """max|x - ref| relative to max(1, max|ref|)."""
    return float(np.max(np.abs(x - ref))) / max(1.0, float(np.max(np.abs(ref))))


def identity_suite(cfg):
    """Run every identity check on the reference state of cfg, drawing the
    samples from cfg.model.seed; returns {name: residual}."""
    rng = np.random.default_rng([cfg.model.seed, 421])
    st = reference_state(cfg)
    spectrum, basis, I_c, g, E_c, psi_c = (st.spectrum, st.basis, st.I_c, st.g_delta,
                                           st.E_c, st.psi_c)
    emax = max(abs(e) for e in spectrum.energies)
    pair_sums = sorted({e1 + e2 for e1 in spectrum.energies for e2 in spectrum.energies})
    lo, hi = -3 * emax, 3 * emax
    res = {}

    # The sampled checks draw their samples one at a time (rejection
    # sampling), then evaluate them all at once, one sample per row.

    # F^-1 = S1 S2 = D^-1 (S1 + S2), eta = 0, away from poles
    draws = np.array([(_sample_away_from_poles(rng, pair_sums, lo, hi), _uniform(rng, lo, hi))
                      for _ in range(100)])
    E, eps = draws[:, :1], draws[:, 1:]
    s1 = propagator_S(spectrum, basis, E, eps, 1, 0.0)
    s2 = propagator_S(spectrum, basis, E, eps, 2, 0.0)
    d = E - basis.pair_energies()
    keep = ((np.min(np.abs(1.0 / s1), axis=1) >= 0.05)
            & (np.min(np.abs(1.0 / s2), axis=1) >= 0.05)
            & (np.min(np.abs(d), axis=1) >= 0.05))
    err = np.max(np.abs(s1 * s2 - (s1 + s2) / d), axis=1)
    res["g0mod_pointwise"] = float(np.max(err[keep], initial=0.0))

    # D^-1 = Dc^-1 - dE/(Dc D) on scalars and diagonals
    draws = np.array([(_sample_away_from_poles(rng, pair_sums, lo, hi),
                       _sample_away_from_poles(rng, pair_sums, lo, hi)) for _ in range(100)])
    E, Ec = draws[:, :1], draws[:, 1:]
    d = E - basis.pair_energies()
    dc = Ec - basis.pair_energies()
    dE = E - Ec
    res["dm1_diagonal"] = float(np.max(np.abs(1.0 / d - (1.0 / dc - dE / (dc * d)))))

    # G_Q(E) (E - H_c) = Q against the dense H_c, on every row (on the mm
    # rows it reads P_mm G(E) D(E) = P_mm)
    E = E_c + 0.25 * max(1.0, abs(E_c))
    H_c = build_Hc(spectrum, basis, I_c)
    Q = np.eye(basis.dim) - np.outer(psi_c, psi_c)
    res["resolvent_mm_identity"] = float(
        np.max(np.abs(st.resolvent.matrix(E) @ (E * np.eye(basis.dim) - H_c) - Q)))

    # basic integral: residue engine vs (P_pp - P_mm) D^-1 and quadrature;
    # anchored at the no-pair energy (degenerate configs abort here), except
    # that a fully non-interacting model has no distinguished energy and any
    # nondegenerate anchor serves
    if np.any(I_c) or np.any(g):
        E = E_c
    else:
        E = _sample_away_from_poles(rng, pair_sums, E_c + 0.1, E_c + 2.0)
    finv = contour_integral_Finv(spectrum, basis, E)
    res["contour_vs_closed_form"] = float(np.max(np.abs(finv - build_G0(spectrum, basis, E))))
    # both oracles at E read their node sums from one pass over the nodes,
    # made inside the first of them
    fine = cfg.integration.refined()
    sums = NodeSums(spectrum, E, fine, pairs=bool(np.any(g)))
    quad = quadrature_finv(spectrum, basis, E, fine, sums=sums)
    res["contour_vs_quadrature"] = _relative(quad, finv)

    # sandwich: quadrature, linearity, exchange symmetry
    X = sandwich_integral(spectrum, basis, E, g)
    if np.any(g):
        Xq = quadrature_oracle(spectrum, basis, E, g, fine, sums=sums)
        res["sandwich_vs_quadrature"] = _relative(Xq, X)
    else:
        res["sandwich_vs_quadrature"] = 0.0
    A = rng.uniform(-1, 1, size=(basis.dim, basis.dim))
    B = rng.uniform(-1, 1, size=(basis.dim, basis.dim))
    XA = sandwich_integral(spectrum, basis, E, A)
    lin = sandwich_integral(spectrum, basis, E, 0.3 * A + 1.7 * B) - (
        0.3 * XA + 1.7 * sandwich_integral(spectrum, basis, E, B)
    )
    res["sandwich_linearity"] = float(np.max(np.abs(lin))) / max(
        1.0, float(np.max(np.abs(XA)))
    )
    S = 0.5 * (A + A.T)
    Xs = sandwich_integral(spectrum, basis, E, S)
    res["sandwich_exchange_symmetry"] = _relative(Xs.T, Xs)

    # controversy-chain identities at a nondegenerate working energy, with the
    # kernel integral built once per route; the convention report takes it
    # applied to I_c psi_c, while g0mod_route below compares the whole matrices
    E = E_c + 0.1 * max(1.0, abs(E_c))
    rep, g0mod_route = ControversyReport(), 0.0
    if np.any(g):
        X_direct = xj_matrix(spectrum, basis, E, g, cfg.integration.j_order)
        X_alt = xj_matrix_ssum_route(spectrum, basis, E, g, cfg.integration.j_order)
        if np.any(I_c):
            v = I_c @ psi_c
            (rep,) = convention_report(basis, E, E_c, psi_c, I_c, st.resolvent, X_direct @ v,
                                       X_alt @ v)
        # transformed route reproduces the direct kernel integral
        g0mod_route = _relative(X_alt, X_direct)
    res.update(rep.identity_residuals)
    res["g0mod_route"] = g0mod_route
    return res


def suite_passes(residuals):
    return all(residuals[name] <= tol for name, tol in TOLERANCES.items())
