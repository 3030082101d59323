"""No-pair solve and the Brillouin-Wigner expansion.

The expansion keeps the exact energy E in every denominator:

    Delta E = <psi_c| V + V G V + V G V G V + ... |psi_c>,
    G = G_Q(E) = Q / (E - H_c),  Q = 1 - |psi_c><psi_c|

with V allowed to depend on E itself, so the total energy is a root of
f(E) = E_c + Delta E(E) - E.  It is found by a safeguarded secant
iteration that falls back on the plain (or damped) fixed-point step
E <- E_c + Delta E(E).  V enters only applied to vectors: the caller
passes a function of E that returns the operator x -> V(E) x, and no
dense V is required.  G is applied spectrally: the eigendecomposition of
the deflated H_c is taken once per reference state, so each application
costs two matrix-vector products.  Orders above three are rejected rather
than extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateDenominatorError

MAX_ORDER = 3

#: a secant step longer than this many plain fixed-point steps is not taken,
#: unless successive secant steps agree (bw_selfconsistent)
SECANT_MAX_RATIO = 4.0

#: successive secant steps agree when their predicted roots differ by at most
#: this fraction of the current secant step
SECANT_AGREE_TOL = 0.1

#: E closer than this, relative to max(1, |E|), to an eigenvalue of H_c other
#: than the reference one aborts the resolvent
RESOLVENT_GUARD_TOL = 1e-10


@dataclass
class EnergyLedger:
    """Result of a self-consistent BW solve."""

    E_c: float
    dE: list
    E: float
    deltaE: float
    iterations: int
    residual: float


def solve_no_pair(H_c, pp_indices, state_index=0):
    """Diagonalize the doubly-positive block of H_c and embed the selected
    eigenvector (ascending order; default the lowest) in the full space."""
    pp = list(pp_indices)
    if not pp:
        raise ValueError("empty doubly-positive subspace")
    if not 0 <= state_index < len(pp):
        raise ValueError(f"state_index {state_index} outside the {len(pp)}-dim block")
    block = np.asarray(H_c)[np.ix_(pp, pp)]
    vals, vecs = np.linalg.eigh(block)
    E_c = float(vals[state_index])
    psi = np.zeros(H_c.shape[0])
    psi[pp] = vecs[:, state_index]
    psi /= np.linalg.norm(psi)
    return E_c, psi


class Resolvent:
    """G_Q(E) = Q (E - H_c)^-1 Q for a fixed reference state.

    The reference direction is shifted out of the operator, so that it stays
    invertible near E = E_c: G_Q(E) = Q (E - H_d)^-1 Q with the deflated
    H_d = H_c - |psi_c><psi_c| (+1 on the reference mode of E - H_c).
    __init__ diagonalizes H_d once, H_d = U diag(w) U^T, and keeps QU, so

        G_Q(E) = QU diag(1 / (E - w)) QU^T

    and apply() costs O(dim^2), matrix() one matrix product.  This is the
    spectral form of the deflated dense solve, exact whether or not
    eigenvalues of H_c are degenerate.  The eigenvalues of H_c other than the
    reference one (those of H_d without its reference mode) guard against E
    hitting the complementary spectrum.
    """

    def __init__(self, H_c, psi_c):
        self.H_c = np.asarray(H_c, dtype=float)
        self.psi = np.asarray(psi_c, dtype=float)
        vals, vecs = np.linalg.eigh(self.H_c - np.outer(self.psi, self.psi))
        overlaps = np.abs(vecs.T @ self.psi)
        self._ref = int(np.argmax(overlaps))
        self._q_evals = np.delete(vals, self._ref)
        self._evals = vals
        self._qvecs = vecs - np.outer(self.psi, self.psi @ vecs)

    def _check(self, E):
        if self._q_evals.size:
            gap = np.min(np.abs(E - self._q_evals))
            if gap < RESOLVENT_GUARD_TOL * max(1.0, abs(E)):
                raise DegenerateDenominatorError(
                    f"E = {E:.12g} hits the complementary spectrum (gap {gap:.3e})"
                )

    def _inverse_gaps(self, E):
        """1 / (E - w) after the guard.  The reference mode is psi_c itself
        (Q removes it) unless its eigenvalue w_ref = E_c - 1 is degenerate,
        and then the guard fires near w_ref; so where E meets w_ref exactly,
        its weight is set to 0 instead of dividing by zero."""
        self._check(E)
        gaps = E - self._evals
        if gaps[self._ref] == 0.0:
            gaps[self._ref] = np.inf
        return 1.0 / gaps

    def apply(self, E, v):
        coef = (self._qvecs.T @ np.asarray(v, dtype=float)) * self._inverse_gaps(E)
        return self._qvecs @ coef

    def matrix(self, E):
        return (self._qvecs * self._inverse_gaps(E)) @ self._qvecs.T


def bw_terms(resolvent: Resolvent, h_delta_of_E, E, psi_c, order):
    """[Delta E^(1) .. Delta E^(order)] with the perturbation evaluated at E.

    h_delta_of_E(E) returns the operator at E: a callable that applies the
    (generally nonsymmetric) perturbation V(E) to a vector, for instance
    V.__matmul__ of a fixed matrix.  Delta E^(n) = <psi| V (G V)^(n-1) |psi>.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")
    V = h_delta_of_E(E)
    psi = np.asarray(psi_c, dtype=float)
    terms = []
    r = V(psi)
    terms.append(float(psi @ r))
    for _ in range(order - 1):
        r = V(resolvent.apply(E, r))
        terms.append(float(psi @ r))
    return terms


def bw_selfconsistent(resolvent: Resolvent, h_delta_of_E, psi_c, E_c, order=3,
                      max_iter=200, tol=1e-12):
    """Root of f(E) = E_c + sum_n Delta E^(n)(E) - E, starting at E = E_c.

    Each iteration evaluates f once.  From the second iteration on, the step
    is the secant step through the last two evaluations, -f (E - E_prev) /
    (f - f_prev).  The plain fixed-point step E <- E_c + sum_n Delta E^(n)(E)
    (step f) is taken instead on the first iteration, when the secant step
    is undefined (f == f_prev), or when it is more than SECANT_MAX_RATIO
    plain steps long, unless the previous iteration's secant step predicted
    the same root to within SECANT_AGREE_TOL of the step: f is then close
    to linear over the last three evaluations, and the long step is taken
    (near dSum Delta E/dE = 1 the root is many plain steps away).  The plain
    step is damped on oscillation (sign-flipping values of f that do not
    shrink): the damping halves, starting at 1/2, floor 1/64.  The
    iteration stops when |f| falls below tol * max(1, |E_c|); E is then set
    to E_c + sum_n Delta E^(n)(E) and the terms are evaluated once more
    there, and residual is |f| at that E.
    """
    scale_tol = tol * max(1.0, abs(E_c))
    E = float(E_c)
    damping = 1.0
    last_step = None
    E_prev = None
    last_root = None
    terms = bw_terms(resolvent, h_delta_of_E, E, psi_c, order)
    for it in range(1, max_iter + 1):
        target = E_c + sum(terms)
        step = target - E
        if abs(step) < scale_tol:
            E = target
            terms = bw_terms(resolvent, h_delta_of_E, E, psi_c, order)
            residual = abs(E - (E_c + sum(terms)))
            return EnergyLedger(
                E_c=E_c, dE=terms, E=E, deltaE=E - E_c,
                iterations=it, residual=residual,
            )
        if last_step is not None and step * last_step < 0 and abs(step) >= abs(last_step):
            damping = max(damping / 2.0, 1.0 / 64.0)
        move = damping * step
        root = None
        if last_step is not None and step != last_step:
            secant = -step * (E - E_prev) / (step - last_step)
            root = E + secant
            agree = last_root is not None and (
                abs(root - last_root) <= SECANT_AGREE_TOL * abs(secant))
            if abs(secant) <= SECANT_MAX_RATIO * abs(step) or agree:
                move = secant
        E_prev, last_step, last_root = E, step, root
        E = E + move
        terms = bw_terms(resolvent, h_delta_of_E, E, psi_c, order)
    ledger = EnergyLedger(
        E_c=E_c, dE=terms, E=E, deltaE=E - E_c, iterations=max_iter,
        residual=abs(E - (E_c + sum(terms))),
    )
    raise ConvergenceError(
        f"BW self-consistency did not converge in {max_iter} iterations "
        f"(last residual {ledger.residual:.3e})",
        last=ledger,
    )
