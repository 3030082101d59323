"""Both evaluations of the disputed combined expression and the predicted
discrepancy between them.

The common factor of both sign conventions is the kernel integral

    X_J = i int deps/2pi F^-1 J F^-1,   J = g (1 - F^-1 g)^-1

truncated at the configured series order, and Y = X_J I_c.  The two
combinations are

    lindgren:  <psi_c| (I_c + dE) Y |psi_c>
    dkz:       <psi_c| (I_c - dE) Y |psi_c>

with dE = E - E_c from the self-consistent BW solve, so their difference
is exactly 2 dE <psi_c| Y |psi_c>.  The first-order term and the reduced
second-order term recombine into the lindgren form through
D + I_c - D_c = I_c + dE, which is checked numerically, as is the
transformed route through F^-1 = D^-1 (S1 + S2) and the partial-fraction
identity D^-1 = Dc^-1 - dE/(Dc D).

The model oracle diagonalizes the instantaneous-interaction analog
h1 + h2 + (P_pp - P_mm)(I_c + g), on its unmixed block, which carries its
whole coupled spectrum; the effective interaction whose BW expansion
reproduces that spectrum is the ladder-resummed one (each propagator
segment between instantaneous vertices carries its own relative-energy
integral).  ladder_perturbation gives the BW perturbation H_D1 + H_D2(E)
of that ladder as an operator on vectors, through one inverse of the
unmixed block per E; h_delta2_ladder is the same interaction as a dense
matrix from ladder_kernel, the geometric-series reference.

Every evaluator uses X_J only applied to v = I_c psi_c and takes that
vector Xv = X_J v, already built at the energy it uses, so that one run
builds each of X_J(E) v, X_J(E_c) v and the S-sum route's X_J(E) v once
and never the dim x dim matrix; what remains is vector algebra, per point
of a stack.  convention_report composes them into the reports that
compare, scan and verify share.  With either coupling zero there is
nothing to evaluate (and X_J may not exist: E = E_c is a pair energy when
I_c = 0); the caller decides that once and keeps the all-zero
ControversyReport().
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bw import inner
from .errors import BwlabError, DegenerateDenominatorError, OracleTrackingError
from .operators import build_HDelta1, free_propagator, inverse_denominator, pair_denominator

#: the chain residuals of a ControversyReport, in report order
CHAIN_RESIDUALS = ("E2b_vs_E2b2", "chain_sum", "central_claim", "Dm1_route")


@dataclass
class ControversyReport:
    """The default, all zeros, is the report of a model with either coupling
    zero."""

    dE1_direct: float = 0.0
    dE2b_direct: float = 0.0
    combined_lindgren: float = 0.0
    combined_dkz: float = 0.0
    combined_dkz_dc_approx: float = 0.0
    difference: float = 0.0
    predicted_difference: float = 0.0
    dm1_error_term: float = 0.0
    identity_residuals: dict = field(
        default_factory=lambda: dict.fromkeys(CHAIN_RESIDUALS, 0.0))


# -- direct-route evaluators -------------------------------------------------
# Each takes one point or a stack (a leading item axis), one BLAS dot per item.


def _column(E):
    """E (one energy, or one per item) as a column against the pairs."""
    return np.asarray(E, dtype=float)[..., None]


def _row_times(x, M):
    """x^T M, per item of a stack."""
    return (x[..., None, :] @ M)[..., 0, :]


def deltaE1_direct(basis, E, psi_c, Xv):
    """First-order term <psi_c| D X_J I_c |psi_c> at energy E
    (Xv: X_J(E) I_c psi_c)."""
    return inner((_column(E) - basis.pair_energies()) * psi_c, Xv)


def _reduced_left(basis, E_c, psi_c, I_c):
    """psi_c^T (I_c - D_c), the left vector of the reduced second-order form."""
    return _row_times(psi_c, I_c) - (_column(E_c) - basis.pair_energies()) * psi_c


def deltaE2b_direct(basis, E, E_c, psi_c, I_c, resolvent, Xv):
    """Reduced second-order cross term <psi_c|(I_c - D_c) X_J I_c|psi_c>
    (Xv: X_J(E) I_c psi_c).

    Also evaluates the resolvent form <psi_c| H_D1 G(E) H_D2(E) |psi_c>
    and returns (value, |resolvent_form - reduced_form|): the two agree
    because G(E) D(E) acts as the identity on the complement of the
    doubly-positive sector.
    """
    reduced = inner(_reduced_left(basis, E_c, psi_c, I_c), Xv)
    hd1_psi = _row_times(psi_c, build_HDelta1(basis, I_c))
    hd2_psi = (_column(E) - basis.pair_energies()) * Xv
    gamma_form = inner(hd1_psi, resolvent.apply(E, hd2_psi))
    return reduced, np.abs(gamma_form - reduced)


def combined_variant(basis, E, E_c, psi_c, I_c, convention, Xv):
    """<psi_c| (I_c +/- dE) Y |psi_c> with Y = X_J I_c and dE = E - E_c.

    convention "lindgren" carries +dE, "dkz" carries -dE.  Xv is
    X_J I_c psi_c at the energy the caller takes the kernel at: E for the
    report's two conventions; compare's combined_dkz_dc_approx is "dkz"
    with Xv at E_c, every D in the kernel replaced by D_c (the
    approximation said to produce the same cancellation).
    """
    if convention not in ("lindgren", "dkz"):
        raise ValueError(f"unknown convention '{convention}'")
    sign = 1.0 if convention == "lindgren" else -1.0
    return inner(_row_times(psi_c, I_c) + _column(sign * (E - E_c)) * psi_c, Xv)


def predicted_discrepancy(basis, E, E_c, psi_c, I_c, Xv):
    """2 dE <psi_c| Y |psi_c> evaluated through the transformed route
    (S1 + S2 factorization; Xv: xj_matrix_ssum_route at E applied to
    I_c psi_c), plus partial-fraction cross checks.

    Returns (predicted, residuals, dm1_error_term) where residuals holds
    "Dm1_route" (the partial-fraction identity applied inside the reduced
    second-order form) and dm1_error_term is the would-be error
    2 dE <psi_c|(I_c - D_c) (Dc D)^-1 W-route |psi_c> that the transformed
    derivation drops when it flips the sign.
    """
    dE = np.asarray(E, dtype=float) - E_c
    predicted = 2.0 * dE * inner(psi_c, Xv)

    dinv = inverse_denominator(basis, E)
    dcinv = inverse_denominator(basis, E_c)

    # reduced second-order form with the left D^-1 of X split by
    # D^-1 = Dc^-1 - dE (Dc D)^-1; X = D^-1 W D^-1 so D X v = W D^-1 v is
    # the remainder of the transform
    w_tail = (_column(E) - basis.pair_energies()) * Xv
    left = _reduced_left(basis, E_c, psi_c, I_c)
    direct = inner(left, dinv * w_tail)
    split = inner(left, (dcinv - _column(dE) * dcinv * dinv) * w_tail)
    residuals = {"Dm1_route": np.abs(direct - split) / np.maximum(1.0, np.abs(direct))}

    dm1_error_term = 2.0 * dE * inner(left, dcinv * dinv * w_tail)
    return predicted, residuals, dm1_error_term


def convention_report(basis, E, E_c, psi_c, I_c, resolvent, Xv, Xv_alt):
    """Both conventions at energy E, their difference, the predicted
    difference and the four chain residuals (Xv: X_J(E) I_c psi_c on the
    direct route, Xv_alt on the S-sum route), as one ControversyReport per
    item: a list of one for one point.  combined_dkz_dc_approx is left at
    0: it needs X_J(E_c), which only compare builds."""
    dE1 = deltaE1_direct(basis, E, psi_c, Xv)
    dE2b, e2b_res = deltaE2b_direct(basis, E, E_c, psi_c, I_c, resolvent, Xv)
    lindgren = combined_variant(basis, E, E_c, psi_c, I_c, "lindgren", Xv)
    dkz = combined_variant(basis, E, E_c, psi_c, I_c, "dkz", Xv)
    difference = lindgren - dkz
    predicted, dm1_res, dm1_error = predicted_discrepancy(basis, E, E_c, psi_c, I_c, Xv_alt)
    scale = np.maximum(1.0, np.abs(lindgren))
    residuals = {
        "E2b_vs_E2b2": e2b_res / np.maximum(1.0, np.abs(dE2b)),
        "chain_sum": np.abs(dE1 + dE2b - lindgren) / scale,
        "central_claim": np.abs(difference - predicted) / scale,
        **dm1_res,
    }
    columns = np.array([dE1, dE2b, lindgren, dkz, difference, predicted, dm1_error,
                        *residuals.values()]).reshape(11, -1).T.tolist()
    return [ControversyReport(dE1_direct=d1, dE2b_direct=d2, combined_lindgren=lind,
                              combined_dkz=dkz, difference=diff, predicted_difference=pred,
                              dm1_error_term=err, identity_residuals=dict(zip(residuals, chain)))
            for d1, d2, lind, dkz, diff, pred, err, *chain in columns]


# -- ladder (equal-time) route ------------------------------------------------


def ladder_kernel(basis, E, g_delta):
    """Equal-time resummation G~ J~ G~ with J~ = g (1 - G~ g)^-1 and
    G~ = (P_pp - P_mm) D^-1 the integrated free propagator.

    This is the geometric series summed in closed form; it is the kernel
    whose BW expansion reproduces the instantaneous model oracle.  G~ is
    diagonal, so with A = G~ g the kernel is (1 - A)^-1 A G~: one linear
    solve and a column scaling.  The reference form of the ladder;
    ladder_perturbation applies the same kernel on the unmixed block.
    """
    gt = free_propagator(basis, E)
    A = gt[:, None] * np.asarray(g_delta, dtype=float)
    return np.linalg.solve(np.eye(basis.dim) - A, A) * gt


def _block(A, idx):
    """The idx x idx block of A, or of every matrix of a stack, C-contiguous
    (an index on the trailing axes of a stack is not, and matmul then sums
    a stack item in another order than the same matrix alone)."""
    return A.take(idx, axis=-2).take(idx, axis=-1)


def _ladder_block(basis, g_delta):
    """E -> (D_u, (E S_u - K)^-1) on the unmixed pairs u, with S = unmixed_sign,
    D = E - e and K = diag|e_u| + g_uu (symmetric, independent of E).  The
    unmixed pair denominators are guarded by pair_denominator; a
    singular E S_u - K aborts the same way.  g_delta and E may be
    stacks (one coupling and energy per item): one batched inverse."""
    u = basis.unmixed_sign != 0
    ui = np.flatnonzero(u)
    e_u = basis.pair_energies()[u]
    S_u = np.diag(basis.unmixed_sign[u])
    K = np.diag(np.abs(e_u)) + _block(np.asarray(g_delta, dtype=float), ui)

    def at(E):
        E = np.asarray(E, dtype=float)
        D = pair_denominator(basis, E, u)[..., u]
        M = E[..., None, None] * S_u - K
        try:
            return D, np.linalg.inv(M)
        except np.linalg.LinAlgError:
            # slogdet's sign is 0 exactly where inv's LU finds a zero pivot
            first = np.broadcast_to(E, M.shape[:-2])[np.linalg.slogdet(M)[0] == 0][0]
            raise DegenerateDenominatorError(
                f"singular ladder block E S_u - K at E = {first:.12g}") from None

    return at


def ladder_perturbation(basis, I_c, g_delta):
    """The BW perturbation V(E) = H_D1 + H_D2(E) of the equal-time ladder as
    an operator on the unmixed pairs u: a function of E that returns
    x_u -> (V(E) x)_u.

    G~ vanishes on mixed pairs, so (1 - G~ g)^-1 is the identity on mixed
    rows; on the unmixed pairs, with S = unmixed_sign, D = E - e and
    e_u = S_u |e_u|, 1 - G~ g = D_u^-1 S_u (E S_u - K).  With y = I_c x,

        V(E) x = scatter_u( D_u (E S_u - K)^-1 y_u ) - P_pp I_c P_pp x:

    the -S y_u of H_D2 cancels against H_D1, and mixed rows are 0.  V maps
    into the unmixed pairs, and the BW solve applies it only to vectors
    there (psi_c and what G_Q makes of them), so the operator works on the
    u coordinates alone.  Each E costs one inverse of the n_u x n_u block and
    each application three matrix-vector products there; the dim x dim V is
    never formed.  With either coupling zero H_D2 vanishes and V = H_D1.
    I_c and g_delta may be stacks along leading axes, one problem per item,
    with E one energy per item; both couplings must then be nonzero in
    every item or zero in every item.
    """
    u = np.flatnonzero(basis.unmixed_sign)
    I_c = np.asarray(I_c, dtype=float)
    if not np.any(I_c) or not np.any(g_delta):
        H = _block(build_HDelta1(basis, I_c), u)
        return lambda E: lambda x: (H @ x[..., None])[..., 0]
    I_uu = _block(I_c, u)
    pp = basis.unmixed_sign[u] > 0
    I_pp = I_uu * np.outer(pp, pp)
    block = _ladder_block(basis, g_delta)

    def at(E):
        D, inv = block(E)

        def apply(x):
            x = x[..., None]
            return D * (inv @ (I_uu @ x))[..., 0] - (I_pp @ x)[..., 0]

        return apply

    return at


def h_delta2_ladder(basis, E, I_c, g_delta):
    """Effective remainder interaction D (G~ J~ G~) I_c of the equal-time
    ladder as a dense matrix, from ladder_kernel: the reference that
    ladder_perturbation's closed form is checked against (0 on mixed rows,
    where G~ vanishes).  Vanishes identically when either coupling is zero."""
    if not np.any(I_c) or not np.any(g_delta):
        return np.zeros((basis.dim, basis.dim))
    kernel = ladder_kernel(basis, E, g_delta)
    return (E - basis.pair_energies())[:, None] * (kernel @ np.asarray(I_c, dtype=float))


# -- model oracle --------------------------------------------------------------


def model_oracle(basis, I_c, g_delta, psi_c, return_vector=False):
    """Exact reference energy: eigenvalue of
    H = h1 + h2 + (P_pp - P_mm)(I_c + g) continuously connected to psi_c.

    H is real but not symmetric.  Its mixed rows are diag(e_m) only, so H is
    block triangular: its spectrum is the e_m plus that of the unmixed block
    H_uu, and the eigenvectors of H_uu, padded with zeros, are eigenvectors
    of H.  eig runs on H_uu alone; the state is tracked by overlap with
    psi_c, which lives on pp pairs, and the tracked eigenvalue must stay
    real.
    """
    u = basis.unmixed_sign != 0
    H = np.diag(basis.pair_energies()[u]) + basis.unmixed_sign[u][:, None] * (
        np.asarray(I_c) + np.asarray(g_delta)
    )[np.ix_(u, u)]
    vals, vecs = np.linalg.eig(H)
    overlaps = np.abs(vecs.conj().T @ np.asarray(psi_c)[u]) / np.linalg.norm(vecs, axis=0)
    k = int(np.argmax(overlaps))
    if overlaps[k] ** 2 < 0.5:
        raise OracleTrackingError(
            f"overlap tracking ambiguous: best |<psi_c|psi>|^2 = {overlaps[k]**2:.3f}"
        )
    val = vals[k]
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise OracleTrackingError(f"tracked eigenvalue not real: {val}")
    if return_vector:
        v = np.zeros(basis.dim)
        v[u] = np.real(vecs[:, k])
        return float(val.real), v / np.linalg.norm(v)
    return float(val.real)


# -- coupling scan -------------------------------------------------------------


def fit_power_law(lams, values):
    """Least-squares slope of log|value| vs log(lambda) and its R^2."""
    x = np.log(np.asarray(lams))
    y = np.log(np.abs(np.asarray(values)))
    coef = np.polyfit(x, y, 1)
    pred = np.polyval(coef, x)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


def coupling_scan(cfg, lam_schedule):
    """Scale both couplings of cfg by each lambda, run BW and the convention
    report at each point (no X_J(E_c) and no model oracle: the scan reports
    neither), record the measured and predicted convention differences,
    and fit the power law of |difference| against lambda.

    Every point runs through the stacked stages of pipeline.pipeline_points
    on a leading axis of points, chunk by chunk: BW in lock-step, then one
    stacked X_J(E) v build on both routes and one stacked convention
    report.  A stage that aborts on a stack is split in two on its own
    (bw.each_alone): the reference build by chunk, a BW round, or the
    convention report; so every row and failure is that of the point alone.

    Returns (rows, fitted_exponent, r_squared, failures); rows are
    (lambda, difference, predicted, ratio) and failures lists
    (lambda, error message) for points whose pipeline aborted with a
    BwlabError; a ConfigError there is a scaled coupling that overflows.  An
    undefined value is None: a row's ratio when its predicted difference is
    0, and the exponent and R^2 when fewer than two differences are nonzero
    (for instance with zero delta coupling).  Any other exception is a
    fault, not data, and propagates.
    A schedule that is not >= 4 finite lambdas > 0 in geometric progression
    raises ValueError before any point runs.
    """
    from .pipeline import pipeline_points

    lams = [float(x) for x in lam_schedule]
    if len(lams) < 4:
        raise ValueError("scan requires >= 4 points")
    ratios = [b / a for a, b in zip(lams[:-1], lams[1:])]
    if (not all(0 < lam < np.inf for lam in lams) or ratios[0] == 1.0
            or any(abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios)):
        raise ValueError("scan schedule must be finite, > 0 and geometrically spaced, "
                         "with a ratio other than 1")

    rows, failures = [], []
    for lam, res in zip(lams, pipeline_points(cfg, lams)):
        if isinstance(res, BwlabError):  # per-point failures are data
            failures.append((lam, f"{type(res).__name__}: {res}"))
            continue
        _, rep = res
        ratio = (rep.difference / rep.predicted_difference
                 if rep.predicted_difference != 0.0 else None)
        rows.append((lam, rep.difference, rep.predicted_difference, ratio))
    good = [(l, d) for l, d, _, _ in rows if d != 0.0]
    if len(good) >= 2:
        slope, r2 = fit_power_law([l for l, _ in good], [d for _, d in good])
    else:
        slope, r2 = None, None
    return rows, slope, r2, failures
