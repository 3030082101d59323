"""No-pair solve and the Brillouin-Wigner expansion.

The expansion keeps the exact energy E in every denominator:

    Delta E = <psi_c| V + V G V + V G V G V + ... |psi_c>,
    G = G_Q(E) = Q / (E - H_c),  Q = 1 - |psi_c><psi_c|

with V allowed to depend on E itself, so the total energy is a root of
f(E) = E_c + Delta E(E) - E.  It is found by a safeguarded secant
iteration that falls back on the plain (or damped) fixed-point step
E <- E_c + Delta E(E) (_secant).  Its stopping rule, TOL and MAX_ITER, is
fixed: no run setting changes it.  V enters only applied to vectors: the
caller passes a function of E that returns the operator x -> V(E) x, and
no dense V is required.  G is kept in the form H_c has, a symmetric block
plus a diagonal: the eigenpairs of the block, taken once by the no-pair
solve, and the diagonal outside it give G_Q at every E, at the cost of two
block-sized matrix-vector products and one scaling per application.
Orders above three are rejected rather than extrapolated.

Every array may carry leading stack axes: a stack of problems on one basis
is evaluated in one batched numpy pass, with E one energy per problem.
bw_lockstep runs the secant iterations of a stack in lock-step, one stacked
term evaluation per round, for every scan point; bw_selfconsistent, its
stack of one, is compare's solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BwlabError, ConvergenceError, DegenerateDenominatorError

MAX_ORDER = 3

#: the stopping rule of every BW solve (_secant): iterations before
#: ConvergenceError; converged step / max(1, |E_c|)
MAX_ITER = 200
TOL = 1e-12

#: a secant step longer than this many plain fixed-point steps is not taken,
#: unless successive secant steps agree (_secant)
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
    eigenvector (ascending order; default the lowest) in the full space.

    H_c is h1 + h2 + P_pp I_c P_pp: symmetric on the pp block and diagonal
    outside it; a stack of them on one basis, along leading axes, is
    diagonalized in one stacked eigh.  Returns (E_c, psi_c, resolvent), the
    resolvent about psi_c built from the same eigenpairs.
    """
    pp = np.array(pp_indices, dtype=int)
    if not pp.size:
        raise ValueError("empty doubly-positive subspace")
    if not 0 <= state_index < pp.size:
        raise ValueError(f"state_index {state_index} outside the {pp.size}-dim block")
    H_c = np.asarray(H_c, dtype=float)
    vals, vecs = np.linalg.eigh(H_c[..., pp[:, None], pp])
    E_c = vals[..., state_index]
    psi = np.zeros(H_c.shape[:-1])
    psi[..., pp] = vecs[..., state_index]
    psi /= np.sqrt(inner(psi, psi))[..., None]
    diag = np.diagonal(H_c, axis1=-2, axis2=-1)
    return E_c, psi, Resolvent(diag, pp, vals, vecs, state_index)


class Resolvent:
    """G_Q(E) = Q (E - H_c)^-1 Q for a fixed reference state, or a stack of
    them on one basis, kept in the form H_c has.

    H_c is symmetric on the coordinates `block`, with eigenpairs (vals, vecs)
    there, and diagonal (diag) elsewhere; psi_c is the eigenvector `ref` of
    the block, and Q removes exactly it.  So

        G_Q(E) v = vecs diag(w) vecs^T v   on the block, w = 1 / (E - vals)
                                           and psi_c's weight 0,
        G_Q(E) v = v (E - diag)^-1         elsewhere,

    exact whether or not eigenvalues of H_c are degenerate, and no dim x dim
    array is formed.  The guard, every eigenvalue of H_c but psi_c's, stops
    E from hitting the complementary spectrum; it runs once per E, in at(E).
    restrict(cols) is the same operator on a subset of the coordinates that
    holds the block (an invariant subspace), and keeps the whole guard.
    """

    def __init__(self, diag, block, vals, vecs, ref, guard=None):
        self.block, self.vals, self.vecs, self.ref = block, vals, vecs, ref
        if guard is None:
            guard = np.concatenate(
                [np.delete(vals, ref, axis=-1), np.delete(diag, block, axis=-1)], axis=-1)
        self.guard = guard
        # a level at infinity has the weight 1 / (E - inf) = 0: psi_c's among
        # the block's, and the block's coordinates on the diagonal
        self.levels = vals.copy()
        self.levels[..., ref] = np.inf
        self.diag = diag.copy()
        self.diag[..., block] = np.inf

    def take(self, items):
        """The resolvents `items` (an index or an index array)."""
        return Resolvent(self.diag[items], self.block, self.vals[items], self.vecs[items],
                         self.ref, self.guard[items])

    def restrict(self, cols):
        """The operator on the coordinates cols (sorted; they hold the block)."""
        return Resolvent(self.diag[..., cols], np.searchsorted(cols, self.block), self.vals,
                         self.vecs, self.ref, self.guard)

    def _check(self, E):
        gap = np.abs(E[..., None] - self.guard).min(axis=-1, initial=np.inf)
        bad = gap < RESOLVENT_GUARD_TOL * np.maximum(1.0, np.abs(E))
        if bad.any():
            k = np.argmax(bad)
            raise DegenerateDenominatorError(
                f"E = {E.flat[k]:.12g} hits the complementary spectrum (gap {gap.flat[k]:.3e})"
            )

    def at(self, E):
        """The operator v -> G_Q(E) v, after the guard; E and v broadcast
        over the stack axes."""
        E = np.asarray(E, dtype=float)
        self._check(E)
        w_block = (1.0 / (E[..., None] - self.levels))[..., None, :]
        w_diag = 1.0 / (E[..., None] - self.diag)
        vecs_t = self.vecs.swapaxes(-1, -2)

        def G(v):
            v = np.asarray(v, dtype=float)
            out = v * w_diag
            out[..., self.block] = (((v[..., None, self.block] @ self.vecs) * w_block)
                                    @ vecs_t)[..., 0, :]
            return out

        return G

    def apply(self, E, v):
        return self.at(E)(v)

    def matrix(self, E):
        """G_Q(E) as a dense matrix (one resolvent, scalar E)."""
        return self.at(E)(np.eye(self.diag.shape[-1]))


def inner(a, b):
    """<a|b> over the last axis, per stack item."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def bw_terms(resolvent: Resolvent, h_delta_of_E, E, psi_c, order):
    """[Delta E^(1) .. Delta E^(order)] with the perturbation evaluated at E,
    an array with the terms along its last axis.

    h_delta_of_E(E) returns the operator at E: a callable that applies the
    (generally nonsymmetric) perturbation V(E) to a vector, for instance
    V.__matmul__ of a fixed matrix, or to a stack of vectors (..., n) when
    E and psi_c are stacks.  Delta E^(n) = <psi| V (G V)^(n-1) |psi>.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")
    V = h_delta_of_E(E)
    psi = np.asarray(psi_c, dtype=float)
    r = V(psi)
    terms = [inner(psi, r)]
    if order > 1:
        G = resolvent.at(E)
        for _ in range(order - 1):
            r = V(G(r))
            terms.append(inner(psi, r))
    return np.array(terms).T


def _secant(E_c):
    """The root search of f(E) = E_c + sum_n Delta E^(n)(E) - E for one
    problem, from E = E_c: a generator that yields each E where it needs
    the terms, receives them (a list), and returns the EnergyLedger or a
    ConvergenceError.  Each iteration evaluates f once.  From the second
    iteration on, the step is the secant step through the last two
    evaluations, -f (E - E_prev) / (f - f_prev).  The plain fixed-point
    step E <- E_c + sum_n Delta E^(n)(E) (step f) is taken instead on the
    first iteration, when the secant step is undefined (f == f_prev), or
    when it is more than SECANT_MAX_RATIO plain steps long, unless the
    previous iteration's secant step predicted the same root to within
    SECANT_AGREE_TOL of the step: f is then close to linear over the last
    three evaluations, and the long step is taken (near dSum Delta E/dE = 1
    the root is many plain steps away).  The plain step is damped on
    oscillation (sign-flipping values of f that do not shrink): the damping
    halves, starting at 1/2, floor 1/64.  The iteration stops when |f|
    falls below TOL * max(1, |E_c|); E is then set to
    E_c + sum_n Delta E^(n)(E) and the terms are evaluated once more there,
    and residual is |f| at that E.  It fails after MAX_ITER iterations, or
    at once on a non-finite E.
    """
    scale_tol = TOL * max(1.0, abs(E_c))
    E = E_c
    damping = 1.0
    last_step = None
    E_prev = None
    last_root = None
    it, converged = 0, False
    terms = yield E
    for it in range(1, MAX_ITER + 1):
        target = E_c + sum(terms)
        step = target - E
        if abs(step) < scale_tol:
            E, converged = target, True
            terms = yield E
            break
        if last_step is not None and step * last_step < 0 and abs(step) >= abs(last_step):
            damping = max(damping / 2.0, 1.0 / 64.0)
        move = damping * step
        root = None
        if last_step is not None and step != last_step:
            secant = -step * (E - E_prev) / (step - last_step)
            root = E + secant
            agree = last_root is not None and math.isfinite(secant) and (
                abs(root - last_root) <= SECANT_AGREE_TOL * abs(secant))
            if abs(secant) <= SECANT_MAX_RATIO * abs(step) or agree:
                move = secant
        E_prev, last_step, last_root = E, step, root
        E = E + move
        if not math.isfinite(E):
            return ConvergenceError(f"BW iteration {it} steps off the finite numbers from "
                                    f"E = {E_prev:.6g} (E_c + sum of terms = {target:.6g})")
        terms = yield E
    ledger = EnergyLedger(E_c=E_c, dE=terms, E=E, deltaE=E - E_c, iterations=it,
                          residual=abs(E - (E_c + sum(terms))))
    if converged:
        return ledger
    return ConvergenceError(f"BW self-consistency did not converge in {MAX_ITER} iterations "
                            f"(last residual {ledger.residual:.3e})", last=ledger)


def each_alone(run, items):
    """Per item, its outcome from run(items) (a list in item order), or the
    BwlabError that run raises on that item alone.  A stack whose run raises
    is split in two and each half run again, so an item that aborts ends
    with its own error while the others stay stacked."""
    try:
        return list(run(items))
    except BwlabError as exc:
        if len(items) == 1:
            return [exc]
    half = len(items) // 2
    return each_alone(run, items[:half]) + each_alone(run, items[half:])


def bw_lockstep(select, E_c):
    """The BW roots of a stack of problems, found in lock-step.

    Problem i starts at E_c[i] and follows the secant rule of _secant.
    select(items) returns the stacked term evaluation of the problems
    `items` (an index array): a function of their energies E that returns
    their terms, shape (len(items), order), and raises a BwlabError when an
    item hits a guard.  Each round evaluates every problem still iterating
    once; select is called again only when that set changes.  A round whose
    evaluation raises is split in two by each_alone (only the halves call
    select), so a problem that hits a guard fails alone.  Returns, per
    problem, its EnergyLedger or its BwlabError: a guard's, which solving
    it alone raises, or the ConvergenceError its secant search returns.
    Any other exception propagates.
    """
    searches = [_secant(float(e)) for e in E_c]
    E = np.array([next(s) for s in searches])
    outcomes = [None] * len(searches)
    items, selected, evaluate = list(range(len(searches))), None, None
    while items:
        if items != selected:
            selected, evaluate = items, select(np.array(items))

        def run(part):
            return (evaluate if len(part) == len(items) else select(part))(E[part]).tolist()

        going = []
        for i, row in zip(items, each_alone(run, np.array(items))):
            if isinstance(row, BwlabError):
                outcomes[i] = row
                continue
            try:
                E[i] = searches[i].send(row)
            except StopIteration as done:
                outcomes[i] = done.value
            else:
                going.append(i)
        items = going
    return outcomes


def bw_selfconsistent(resolvent: Resolvent, h_delta_of_E, psi_c, E_c, order=MAX_ORDER):
    """Root of f(E) = E_c + sum_n Delta E^(n)(E) - E, starting at E = E_c,
    for one problem, by the secant rule of _secant: the stack of one of
    bw_lockstep.  Raises the BwlabError that ends the search."""
    psi = np.asarray(psi_c, dtype=float)

    def evaluate(E):
        return bw_terms(resolvent, h_delta_of_E, float(E[0]), psi, order)[None]

    (outcome,) = bw_lockstep(lambda items: evaluate, [E_c])
    if isinstance(outcome, BwlabError):
        raise outcome
    return outcome
