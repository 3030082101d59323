"""Identity suite: every algebraic anchor of the formalism as a named
residual, evaluated on the configured reference state (the model and the
no-pair state solve.state_index, from pipeline.reference_state, as compare
and scan use it).

Each check returns a residual that should sit at rounding level (the
oracle comparisons a little above it near a pinch); cmd_verify renders
the table and fails if any residual exceeds its tolerance.
"""

from __future__ import annotations

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

#: (name, tolerance); the quadrature comparisons read ~1e-14, 3e-11 at coulomb 1e-5
TOLERANCES = {
    "g0mod_pointwise": 1e-12,
    "dm1_diagonal": 1e-13,
    "resolvent_mm_identity": 1e-12,
    "contour_vs_closed_form": 1e-12,
    "contour_vs_quadrature": 1e-10,
    "sandwich_vs_quadrature": 1e-10,
    "sandwich_linearity": 1e-13,
    "sandwich_exchange_symmetry": 1e-12,
    "E2b_vs_E2b2": 1e-10,
    "chain_sum": 1e-10,
    "central_claim": 1e-12,
    "Dm1_route": 1e-12,
    "g0mod_route": 1e-8,
}


def _kept(lo, hi, *denominators, min_gap=0.05):
    """The sample rows whose denominators (a (rows, k) array per argument)
    all lie min_gap or more from zero; raises where no row does."""
    keep = np.logical_and.reduce([np.min(np.abs(d), axis=1) >= min_gap for d in denominators])
    if not keep.any():
        raise DegenerateDenominatorError(
            f"no sample energy in [{lo:.6g}, {hi:.6g}] lies {min_gap} away from every pair energy")
    return keep


def _widest_gap_middle(lo, hi, levels):
    """The middle of the widest gap between lo, the levels inside (lo, hi)
    and hi: the point of that window farthest from them, with no rng draw."""
    points = sorted([lo, hi, *(x for x in levels if lo < x < hi)])
    a, b = max(zip(points, points[1:]), key=lambda gap: gap[1] - gap[0])
    return float(0.5 * (a + b))


def _relative(x, ref):
    """max|x - ref| relative to max(1, max|ref|)."""
    return float(np.max(np.abs(x - ref))) / max(1.0, float(np.max(np.abs(ref))))


def identity_suite(cfg):
    """Run every identity check on the reference state of cfg, drawing the
    samples from cfg.model.seed; returns {name: residual}."""
    rng = np.random.default_rng([cfg.model.seed, 421])
    st = reference_state(cfg)
    basis, I_c, g, E_c, psi_c = st.basis, st.I_c, st.g_delta, st.E_c, st.psi_c
    spectrum = basis.spectrum
    emax = max(abs(e) for e in spectrum.energies)
    lo, hi = -3 * emax, 3 * emax
    res = {}

    # Each sampled check draws its 128 rows at once and drops those near a pole.

    # F^-1 = S1 S2 = D^-1 (S1 + S2) on the real axis, away from poles
    draws = rng.uniform(lo, hi, size=(128, 2))
    E, eps = draws[:, :1], draws[:, 1:]
    s1 = propagator_S(basis, E, eps, 1)
    s2 = propagator_S(basis, E, eps, 2)
    d = E - basis.pair_energies()
    keep = _kept(lo, hi, d, 1.0 / s1, 1.0 / s2)
    err = np.max(np.abs(s1 * s2 - (1.0 / d) * (s1 + s2)), axis=1)
    res["g0mod_pointwise"] = float(np.max(err[keep]))

    # D^-1 = Dc^-1 - dE/(Dc D) on scalars and diagonals
    draws = rng.uniform(lo, hi, size=(128, 2))
    E, Ec = draws[:, :1], draws[:, 1:]
    d = E - basis.pair_energies()
    dc = Ec - basis.pair_energies()
    dE = E - Ec
    err = np.max(np.abs(1.0 / d - (1.0 / dc - dE / (dc * d))), axis=1)
    res["dm1_diagonal"] = float(np.max(err[_kept(lo, hi, d, dc)]))

    # G_Q(E) (E - H_c) = Q against the dense H_c, on every row (on the mm
    # rows it reads P_mm G(E) D(E) = P_mm), away from the poles of G_Q
    E = _widest_gap_middle(E_c, E_c + max(1.0, abs(E_c)), st.resolvent.guard)
    H_c = build_Hc(basis, I_c)
    Q = np.eye(basis.dim) - np.outer(psi_c, psi_c)
    res["resolvent_mm_identity"] = float(
        np.max(np.abs(st.resolvent.matrix(E) @ (E * np.eye(basis.dim) - H_c) - Q)))

    # basic integral: residue engine vs (P_pp - P_mm) D^-1 and quadrature;
    # anchored at the no-pair energy (degenerate configs abort here), except
    # that a fully non-interacting model has no distinguished energy and any
    # nondegenerate anchor in [E_c + 0.1, E_c + 2] serves.  E_c lies about
    # one coupling from a pair energy: the oracle's contour passes between
    # those poles
    if np.any(I_c) or np.any(g):
        E = E_c
    else:
        E = _widest_gap_middle(E_c + 0.1, E_c + 2.0, basis.pair_energies())
    finv = contour_integral_Finv(basis, E)
    res["contour_vs_closed_form"] = float(np.max(np.abs(finv - build_G0(basis, E))))
    # both oracles at E read their node sums from one pass over the nodes,
    # made inside the first of them
    sums = NodeSums(spectrum, E, pairs=bool(np.any(g)))
    quad = quadrature_finv(spectrum, E, sums=sums)
    res["contour_vs_quadrature"] = _relative(quad, finv)

    # sandwich: quadrature, linearity, exchange symmetry, from one stacked
    # build of g, A, B, 0.3 A + 1.7 B and S = (A + A^T) / 2
    A = rng.uniform(-1, 1, size=(basis.dim, basis.dim))
    B = rng.uniform(-1, 1, size=(basis.dim, basis.dim))
    X, XA, XB, XAB, Xs = sandwich_integral(basis, E, [g, A, B, 0.3 * A + 1.7 * B, 0.5 * (A + A.T)])
    # at g = 0 both are exactly zero: the oracle reads no node sum for A = 0
    res["sandwich_vs_quadrature"] = _relative(quadrature_oracle(spectrum, E, g, sums=sums), X)
    lin = float(np.max(np.abs(XAB - (0.3 * XA + 1.7 * XB))))
    res["sandwich_linearity"] = lin / max(1.0, float(np.max(np.abs(XA))))
    res["sandwich_exchange_symmetry"] = _relative(Xs.T, Xs)

    # controversy-chain identities at a nondegenerate working energy, with the
    # kernel integral built once per route; the convention report takes it
    # applied to I_c psi_c, while g0mod_route below compares the whole matrices
    E = E_c + 0.1 * max(1.0, abs(E_c))
    rep, g0mod_route = ControversyReport(), 0.0
    if np.any(g):
        X_direct = xj_matrix(basis, E, g, cfg.j_order)
        X_alt = xj_matrix_ssum_route(basis, E, g, cfg.j_order)
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
