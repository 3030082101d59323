"""Relative-energy propagator algebra.

For a pair (i, j) at total energy E the inverse free propagator is

    F(eps) = (E/2 + eps - e_i) (E/2 - eps - e_j)

so F^-1 = S1 S2 with the electron propagators

    S1(eps) = 1 / (E/2 + eps - e_i + i eta sign(e_i))
    S2(eps) = 1 / (E/2 - eps - e_j + i eta sign(e_j))

The Feynman shifts put S1 poles of positive-energy states below the real
axis (at eps = e - E/2) and S2 poles of positive-energy states above it
(at eps = E/2 - e); negative-energy states mirror.  S1^-1 + S2^-1 =
E - e_i - e_j independently of eps, which is the identity behind
F^-1 = D^-1 (S1 + S2).

Everything integrated here is a product of such diagonal factors with
constant matrices in between, T_k = i int deps/2pi F^-1 (g F^-1)^k g F^-1,
and one matrix-Laurent residue engine evaluates all of them.  Every pole
sits at one of at most 2n positions, e_i - E/2 or E/2 - e_j.  About each
cluster x of them the diagonal factor is expanded as a Laurent series in
u = eps - x, the matrix series F g F ... g F is multiplied out, and the
u^-1 coefficient is its residue sum over all index chains at once.
Confluent poles (E at a mixed-pair energy) are double poles of the series;
pinched and near-coincident poles abort as in the residues module.
contour_integral_Finv, sandwich_integral, j_series and the S-sum route
xj_matrix_ssum_route all use the engine.  contour_integral_Finv is checked
against the closed form operators.free_propagator, (P_pp - P_mm) D^-1, and
the two routes factor differently (F vs D^-1 (S1 + S2)), so comparing them
is a check too.  ChainIntegrator, the scalar chain-by-chain evaluation
through residues.pole_product_integral, stays as a reference; the numerical
quadrature oracle (quadrature module) is the independent check of both.

xj_matrix and xj_matrix_ssum_route share one body, _xj.  Callers that
need X_J only applied to a vector v pass v; the engine then carries a row
block in place of the identity: it starts from v^T diag(h) and multiplies
from the right, at dim^2 rather than dim^3 per step.
"""

from __future__ import annotations

from itertools import product as _iproduct

import numpy as np

from .model import SingleParticleSpectrum, TwoParticleBasis
from .operators import inverse_denominator
from .residues import LOWER, MERGE_TOL, UPPER, clustered_poles, pole_product_integral


def propagator_S(spectrum, basis, E, eps, particle, eta):
    """Diagonal of the chosen electron propagator on the two-particle basis.

    particle 1 depends on the row state i, particle 2 on the column state
    j of the pair (i, j); eta = 0 is allowed away from poles.  E and eps
    broadcast against the pairs: columns of shape (m, 1) give (m, dim).
    """
    if particle not in (1, 2):
        raise ValueError("particle must be 1 or 2")
    e = np.asarray(spectrum.energies)
    i, j = np.divmod(np.arange(basis.dim), spectrum.n)  # pair index k = i * n + j
    if particle == 1:
        return 1.0 / (E / 2 + eps - e[i] + 1j * eta * np.sign(e[i]))
    return 1.0 / (E / 2 - eps - e[j] + 1j * eta * np.sign(e[j]))


def _pair_pole_factors(e_i, e_j, E):
    """Pole factors of F^-1 for one pair: [(pos, side), (pos, side)] and the
    S2 sign is accounted for by the caller (one -1 per pair)."""
    s1 = (e_i - E / 2, LOWER if e_i > 0 else UPPER)
    s2 = (E / 2 - e_j, UPPER if e_j > 0 else LOWER)
    return s1, s2


class ChainIntegrator:
    """Residue evaluation of i int deps/2pi over products of F^-1 factors
    (and of S1 + S2 factors) for a fixed spectrum and total energy E, one
    index chain at a time.

    The scalar reference for the matrix-Laurent engine: enumerating every
    chain costs dim^(k+2) calls per term.  Values depend only on the
    multiset of participating pairs, so they are cached per structure.
    """

    def __init__(self, spectrum: SingleParticleSpectrum, basis: TwoParticleBasis, E: float):
        self.spectrum = spectrum
        self.basis = basis
        self.E = float(E)
        e = spectrum.energies
        self._pair_poles = [
            _pair_pole_factors(e[i], e[j], self.E) for i, j in basis.pairs
        ]
        self._finv_cache = {}
        self._ssum_cache = {}

    # -- joint products of full F^-1 factors --------------------------------

    def finv_product(self, pair_chain):
        """i int deps/2pi of prod_k F^-1(pair_k)(eps); single shared eps."""
        key = tuple(sorted(pair_chain))
        val = self._finv_cache.get(key)
        if val is None:
            poles = []
            for p in pair_chain:
                s1, s2 = self._pair_poles[p]
                poles.append(s1)
                poles.append(s2)
            val = pole_product_integral(poles, (-1.0) ** len(pair_chain))
            self._finv_cache[key] = val
        return val

    # -- joint products of (S1 + S2) factors --------------------------------

    def ssum_product(self, pair_chain):
        """i int deps/2pi of prod_k (S1 + S2)(pair_k)(eps), expanded into
        2^len single-pole products."""
        key = tuple(sorted(pair_chain))
        val = self._ssum_cache.get(key)
        if val is None:
            val = 0.0
            per_pair = [self._pair_poles[p] for p in pair_chain]
            for choice in _iproduct((0, 1), repeat=len(pair_chain)):
                poles = [per_pair[k][c] for k, c in enumerate(choice)]
                val += pole_product_integral(poles, (-1.0) ** sum(choice))
            self._ssum_cache[key] = val
        return val


def contour_integral_Finv(spectrum, basis, E):
    """i int deps/2pi F^-1 (diagonal) from the residue engine: minus the u^-1
    coefficients of F^-1 summed over the upper pole clusters.  Pairs with
    both poles upper (e_i < 0 < e_j) close downwards, as in _kernel_terms,
    and give 0; at a mixed-pair energy a pair's poles form a double pole.
    The value is (P_pp - P_mm) D^-1, i.e. operators.free_propagator."""
    dim = basis.dim
    pos, pos_up, upper, _ = _finv_poles(spectrum, E, np.arange(dim))
    x = np.array([p for p, _ in upper])
    h, m = _diagonal_series(pos, pos_up, x, np.ones(len(x), dtype=bool), 0, False)
    out = -h[:, m - 1].sum(axis=0)
    out[pos_up[:dim] & pos_up[dim:]] = 0.0
    return np.diag(out)


def _finv_poles(spectrum, E, pairs):
    """Poles of F^-1 on the given pair indices: positions (S1 poles, then S2
    poles), whether each lies in the upper half-plane, and the (upper,
    lower) clusters after the pinch and near-coincidence aborts."""
    e = np.asarray(spectrum.energies)
    i, j = np.divmod(pairs, spectrum.n)  # pair index k = i * n + j
    pos = np.concatenate([e[i] - E / 2, E / 2 - e[j]])
    pos_up = np.concatenate([e[i] <= 0, e[j] > 0])
    upper, lower = clustered_poles(zip(pos.tolist(), np.where(pos_up, UPPER, LOWER).tolist()))
    return pos, pos_up, upper, lower


def _diagonal_series(pos, pos_up, x, up, order, ssum):
    """u^m times the diagonal factor about each pole cluster x[c]
    (u = eps - x[c]), with up[c] telling its half-plane: F^-1 = S1 S2, or
    S1 + S2 on the S-sum route.  pos, pos_up hold the S1 poles of the pairs
    followed by their S2 poles.  m is the highest pole order of one factor
    at any cluster (2 only where both poles of one pair meet, at a
    mixed-pair energy).  Returns (Taylor coefficients of orders
    0 .. m(order+1) - 1, shape (clusters, orders, pairs); m)."""
    npairs = pos.size // 2
    d = x[:, None] - pos
    at = (pos_up == up[:, None]) & (np.abs(d) <= MERGE_TOL * np.maximum(1.0, np.abs(pos)))
    m = 2 if not ssum and (at[:, :npairs] & at[:, npairs:]).any() else 1
    n = m * (order + 1)
    # Laurent coefficients of S1 = 1/(eps - a) and S2 = -1/(eps - b):
    # row 0 is u^-1 (nonzero where the pole is at x[c]), row r >= 1 is u^(r-1)
    sign = np.repeat([1.0, -1.0], npairs)
    d[at] = np.inf  # a pole at x has no Taylor part: r = 0 clears its rows
    r = 1.0 / d
    s = np.empty((len(x), n + 1, pos.size))
    s[:, 0] = sign * at
    s[:, 1] = sign * r
    neg_r = -r
    for k in range(2, n + 1):  # sign r (-r)^(k-1) as a running product
        s[:, k] = s[:, k - 1] * neg_r
    s1, s2 = s[..., :npairs], s[..., npairs:]
    if ssum:
        return (s1 + s2)[:, :n], m
    f = np.zeros_like(s1)  # S1 S2, orders -2 .. n-2
    for lag in range(n + 1):
        f[:, lag:] += s1[:, lag: lag + 1] * s2[:, : n + 1 - lag]
    return f[:, 2 - m: 2 - m + n], m


def _times_diagonal(R, h):
    """Truncated product R(u) diag(h(u)), per cluster, of a matrix series
    R (clusters, orders, pairs, pairs) and a diagonal series h."""
    n = h.shape[1]
    P = np.zeros_like(R)
    for lag in range(n):
        P[:, lag:] += R[:, : n - lag] * h[:, lag, None, None, :]
    return P


def _rows_times(R, g):
    """R @ g for a stack R (..., rows, pairs), as one matrix product."""
    return (R.reshape(-1, R.shape[-1]) @ g).reshape(R.shape[:-1] + g.shape[1:])


def _residue_terms(h, m, g, order, scale, via=None, W=None):
    """Per k < order, the u^-1 coefficients of the T_k integrand summed over
    the pole clusters of h (from _diagonal_series, with m): over all index
    chains, or, where via is given, over the chains through at least one
    pair in via.  scale is the D^-1 the inner pairs carry on the S-sum
    route (1.0 on the direct route).  With a block W of left row vectors the
    series starts from W diag(h) and the terms are W T_k, at a cost of
    clusters x orders x rows(W) x pairs^2 per step instead of pairs^3."""

    def first(G):  # series of diag(h) G, or of W diag(h) G
        return h[..., None] * G if W is None else _rows_times(W * h[:, :, None, :], G)

    if via is None:
        R = first(g)  # all chains
    else:  # chains avoiding via so far, and those that met it
        R, met = first(g * ~via[:, None]), first(g * via[:, None])
    out = []
    for k in range(order):
        R = _times_diagonal(R, h)
        if via is not None:
            met = _times_diagonal(met, h) + R * via
            R = R * ~via
        out.append((R if via is None else met)[:, m * (k + 2) - 1].sum(axis=0))
        if k + 1 < order:
            R = _rows_times(R * scale, g)
            if via is not None:
                met = _rows_times(met * scale, g)
    return out


def _kernel_terms(spectrum, basis, E, g, order, dinv=None, W=None):
    """[T_0 .. T_{order-1}] by matrix-Laurent residues, with

        direct route (dinv None):  T_k = i int deps/2pi F^-1 (g F^-1)^k g F^-1
        S-sum route:               T_k = i int deps/2pi s (g D^-1 s)^k g s

    and s = S1 + S2, or [W T_0 .. W T_{order-1}] for a block W of left row
    vectors.  About each pole cluster x the diagonal factor is a Laurent
    series in u = eps - x; the matrix series s g s ... g s (or W s g s ...)
    is multiplied out and its u^-1 coefficient read off.  T_k is minus the sum
    of these over the upper clusters, or plus the sum over the lower ones.
    Index chains through a pair whose poles both lie in the upper
    half-plane (e_i < 0 < e_j) close downwards, where that pair has no pole;
    closed upwards, their residues cancel (exactly, for a chain of such
    pairs only) and lose digits as E nears the pair's energy.  All other
    chains close upwards.  Only pairs with a nonzero row or column of g take
    part, so their poles alone are checked for pinches.
    """
    dim = basis.dim
    rows = dim if W is None else W.shape[0]
    zeros = [np.zeros((rows, dim)) for _ in range(order)]
    act = np.flatnonzero(g.any(axis=0) | g.any(axis=1))
    if act.size == 0:
        return zeros
    pos, pos_up, upper, lower = _finv_poles(spectrum, E, act)
    if not upper or not lower:
        return zeros

    via = pos_up[: act.size] & pos_up[act.size:]  # pairs whose chains close downwards
    x = np.array([p for p, _ in upper + (lower if via.any() else [])])
    up = np.arange(len(x)) < len(upper)
    h, m = _diagonal_series(pos, pos_up, x, up, order, dinv is not None)
    full = act.size == dim
    ga = g if full else g[np.ix_(act, act)]
    Wa = W if full or W is None else W[:, act]
    scale = 1.0 if dinv is None else dinv[act]
    avoid = ~via
    upward = _residue_terms(h[up], m, ga * (avoid[:, None] & avoid), order, scale, W=Wa)
    downward = (_residue_terms(h[~up], m, ga, order, scale, via, Wa)
                if not up.all() else [0.0] * order)
    terms = [T_down - T_up for T_up, T_down in zip(upward, downward)]
    if not full:
        out_rows = act if W is None else np.arange(rows)
        for k, T in enumerate(terms):
            terms[k] = np.zeros((rows, dim))
            terms[k][np.ix_(out_rows, act)] = T
    return terms


def _square(M, basis, name):
    M = np.asarray(M, dtype=float)
    if M.shape != (basis.dim, basis.dim):
        raise ValueError(f"{name} has shape {M.shape}, basis needs {(basis.dim, basis.dim)}")
    return M


def sandwich_integral(spectrum, basis, E, A):
    """i int deps/2pi F^-1 A F^-1 for an eps-independent matrix A.

    The k = 0 term of the kernel series with g = A, from the same
    matrix-Laurent residue engine; entry (p, q) is A[p, q] times the joint
    four-propagator residue value of the pairs p and q.
    """
    return _kernel_terms(spectrum, basis, E, _square(A, basis, "A"), 1)[0]


def j_series(spectrum, basis, E, g_delta, order):
    """Terms T_k = i int deps/2pi F^-1 (g F^-1)^k g F^-1 for k = 0..order-1.

    About each pole cluster x of F^-1 the diagonal factor is expanded as a
    Laurent series in u = eps - x; the matrix series F g F ... g F is
    multiplied out once per cluster, and T_k collects its u^-1 coefficients
    (the residue sums over all index chains at once).  T_0 is
    sandwich_integral(E, g).  The truncated kernel integral is sum(T_k).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return _kernel_terms(spectrum, basis, E, _square(g_delta, basis, "g"), order)


def _xj(spectrum, basis, E, g_delta, order, v, ssum):
    """X_J = D_o T[g] D_o, T[g] = sum_k T_k, or X_J v given v.  Direct route:
    D_o = 1 and the T_k of j_series.  S-sum route: D_o = D^-1, and the T_k
    have S1 + S2 in place of F^-1 and D^-1 on the inner pairs.

    X_J v is evaluated as D_o (u^T T[g^T])^T for u = D_o v: every diagonal
    factor is symmetric and each chain closes on the same side as its
    reverse, so T[g]^T = T[g^T].
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    g = _square(g_delta, basis, "g")
    if v is not None:
        v = np.asarray(v, dtype=float)
        if v.shape != (basis.dim,):
            raise ValueError(f"v has shape {v.shape}, basis needs {(basis.dim,)}")
    if not g.any():  # X_J = 0, also where D^-1 does not exist
        return np.zeros(g.shape if v is None else v.shape)
    dinv = inverse_denominator(basis, E) if ssum else None
    outer = np.ones(basis.dim) if dinv is None else dinv
    if v is None:
        return outer[:, None] * sum(_kernel_terms(spectrum, basis, E, g, order, dinv)) * outer
    u = outer * v
    return outer * sum(_kernel_terms(spectrum, basis, E, g.T, order, dinv, u[None, :]))[0]


def xj_matrix(spectrum, basis, E, g_delta, order, v=None):
    """Truncated kernel integral sum_k T_k of j_series (the X_J of the direct
    route), or, given a vector v, the applied X_J v."""
    return _xj(spectrum, basis, E, g_delta, order, v, ssum=False)


def xj_matrix_ssum_route(spectrum, basis, E, g_delta, order, v=None):
    """Same object evaluated through F^-1 = D^-1 (S1 + S2):

        T_k = D^-1 [ i int (S1+S2) (g D^-1 (S1+S2))^k g (S1+S2) ] D^-1

    so the residue engine multiplies series of (S1 + S2) factors, the inner
    pairs carry explicit 1/(E - e_i - e_j) weights, and the outer D^-1 is
    applied afterwards (to v before, given v).  Algebraically identical to
    xj_matrix; numerically an independent evaluation path.  Aborts where any
    D entry vanishes, which includes the mixed-pair energies the direct
    route handles.
    """
    return _xj(spectrum, basis, E, g_delta, order, v, ssum=True)
