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

The engine works on a stack of items, one energy, g and row block W each;
xj_matrix and xj_matrix_ssum_route are its stacks of one, and j_series
and sandwich_integral its stacks of matrices at one energy.
_pole_groups clusters the poles of the items that share their active pairs
in one residues.clustered_poles call and groups those that also share their
cluster starts and pole order m (2 where both poles of a pair merge, at a
mixed-pair energy); a scan chunk is usually one group.
Groups are not padded to one count or m: BLAS may round a product's row
differently with the number of rows, and an item keeps its one-point bits.

Callers that need X_J only applied to a vector v pass v; the engine then
carries a row block in place of the identity: it starts from v^T diag(h)
and multiplies from the right, at dim^2 rather than dim^3 per step.

Every public function and ChainIntegrator take the pair basis as their one
model-space argument and read the levels from basis.spectrum; _pole_groups
takes the spectrum, since it reads the levels alone.
"""

from __future__ import annotations

from itertools import product as _iproduct

import numpy as np

from .model import TwoParticleBasis
from .operators import inverse_denominator
from .residues import LOWER, MERGE_TOL, UPPER, clustered_poles, pole_product_integral


def propagator_S(basis, E, eps, particle):
    """Diagonal of the chosen electron propagator on the two-particle basis,
    on the real axis away from its poles: particle 1 depends on the row
    state i, particle 2 on the column state j of the pair (i, j).  E and
    eps broadcast against the pairs: columns of shape (m, 1) give (m, dim)."""
    if particle not in (1, 2):
        raise ValueError("particle must be 1 or 2")
    e = np.asarray(basis.spectrum.energies)
    i, j = np.divmod(np.arange(basis.dim), basis.spectrum.n)  # pair index k = i * n + j
    if particle == 1:
        return 1.0 / (E / 2 + eps - e[i])
    return 1.0 / (E / 2 - eps - e[j])


def _pair_pole_factors(e_i, e_j, E):
    """Pole factors of F^-1 for one pair: [(pos, side), (pos, side)] and the
    S2 sign is accounted for by the caller (one -1 per pair)."""
    s1 = (e_i - E / 2, LOWER if e_i > 0 else UPPER)
    s2 = (E / 2 - e_j, UPPER if e_j > 0 else LOWER)
    return s1, s2


class ChainIntegrator:
    """Residue evaluation of i int deps/2pi over products of F^-1 factors
    (and of S1 + S2 factors) for a fixed pair basis and total energy E, one
    index chain at a time.

    The scalar reference for the matrix-Laurent engine: enumerating every
    chain costs dim^(k+2) calls per term.  Values depend only on the
    multiset of participating pairs, so they are cached per structure.
    """

    def __init__(self, basis: TwoParticleBasis, E: float):
        self.basis = basis
        self.E = float(E)
        e = basis.spectrum.energies
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


def contour_integral_Finv(basis, E):
    """i int deps/2pi F^-1 (diagonal) from the residue engine: minus the u^-1
    coefficients of F^-1 summed over the upper pole clusters.  Pairs with
    both poles upper (e_i < 0 < e_j) close downwards, as in _kernel_terms,
    and give 0; at a mixed-pair energy a pair's poles form a double pole.
    The value is (P_pp - P_mm) D^-1, i.e. operators.free_propagator."""
    [(_, _, via, d, at, up)] = _pole_groups(basis.spectrum, np.array([E], dtype=float),
                                            np.ones((1, basis.dim, basis.dim)))
    h, m = _diagonal_series(d[:, up], at[:, up], 0, False)
    out = -h[0, :, m - 1].sum(axis=0)
    out[via] = 0.0
    return np.diag(out)


def _diagonal_series(d, at, order, ssum):
    """u^m times the diagonal factor about each pole cluster x[p, c] of each
    item p (u = eps - x[p, c]): F^-1 = S1 S2, or S1 + S2 on the S-sum route.
    d[p, c, k] = x[p, c] - pos[p, k] for the S1 poles of the pairs followed
    by their S2 poles, and at tells whether pole k lies at the cluster
    (from _pole_groups).  m is the highest pole order of one factor at any
    cluster (2 only where both poles of one pair meet, at a mixed-pair
    energy).  Returns (Taylor coefficients of orders 0 .. m(order+1) - 1,
    shape (items, clusters, orders, pairs); m)."""
    npairs = d.shape[-1] // 2
    m = 2 if not ssum and (at[..., :npairs] & at[..., npairs:]).any() else 1
    n = m * (order + 1)
    # Laurent coefficients of S1 = 1/(eps - a) and S2 = -1/(eps - b):
    # row 0 is u^-1 (nonzero where the pole is at x[p, c]), row r >= 1 is u^(r-1)
    sign = np.repeat([1.0, -1.0], npairs)
    r = 1.0 / np.where(at, np.inf, d)  # a pole at x has no Taylor part: r = 0 clears its rows
    s = np.empty(d.shape[:2] + (n + 1, d.shape[-1]))
    s[:, :, 0] = sign * at
    s[:, :, 1] = sign * r
    neg_r = -r
    for k in range(2, n + 1):  # sign r (-r)^(k-1) as a running product
        s[:, :, k] = s[:, :, k - 1] * neg_r
    s1, s2 = s[..., :npairs], s[..., npairs:]
    if ssum:
        return (s1 + s2)[:, :, :n], m
    f = s1[:, :, :1] * s2  # S1 S2, orders -2 .. n-2
    for lag in range(1, n + 1):
        f[:, :, lag:] += s1[:, :, lag: lag + 1] * s2[:, :, : n + 1 - lag]
    return f[:, :, 2 - m: 2 - m + n], m


def _times_diagonal(R, h):
    """Truncated product R(u) diag(h(u)), per item and cluster, of a matrix
    series R (items, clusters, orders, rows, pairs) and a diagonal series h."""
    n = h.shape[2]
    P = R * h[:, :, 0, None, None, :]
    for lag in range(1, n):
        P[:, :, lag:] += R[:, :, : n - lag] * h[:, :, lag, None, None, :]
    return P


def _rows_times(R, g):
    """R @ g[p] for each item p of a stack R (items, ..., rows, pairs), as one
    matrix product per item."""
    return (R.reshape(len(R), -1, R.shape[-1]) @ g).reshape(R.shape[:-1] + g.shape[-1:])


def _residue_terms(h, m, g, order, scale, via=None, W=None):
    """Per k < order, the u^-1 coefficients of the T_k integrand of each item
    summed over its pole clusters of h (from _diagonal_series, with m): over
    all index chains, or, where via is given, over the chains through at
    least one pair in via.  scale is the D^-1 the inner pairs carry on the
    S-sum route, a row per item (None on the direct route).  With a block W
    of left row vectors per item the series starts from W diag(h) and the
    terms are W T_k, at a cost of clusters x orders x rows(W) x pairs^2 per
    step instead of pairs^3."""

    def first(G):  # series of diag(h) G, or of W diag(h) G
        return (h[..., None] * G[:, None, None] if W is None
                else _rows_times(W[:, None, None] * h[..., None, :], G))

    def step(A):  # A g, the inner pairs weighted by D^-1 on the S-sum route
        return _rows_times(A if scale is None else A * scale[:, None, None, None], g)

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
        out.append((R if via is None else met)[:, :, m * (k + 2) - 1].sum(axis=1))
        if k + 1 < order:
            R, met = step(R), None if via is None else step(met)
    return out


def _pole_groups(spectrum, E, g):
    """Groups (items, act, via, d, at, up) of the items of a stack (E[p], g[p])
    that share their active pairs act (a nonzero row or column of g), the
    starts of their pole clusters and their pole order m.  via marks the pairs
    whose chains close downwards, up the upper clusters; d and at go to
    _diagonal_series.  One clustered_poles call per act clusters the poles of
    all its items, each state's pole once, and checks them for pinches; an
    item with no active pair or no pole on one side is in no group."""
    n, e = spectrum.n, np.asarray(spectrum.energies)
    upper = np.concatenate([e <= 0, e > 0])  # the S1 pole, then the S2 pole, of each state
    active = g.any(axis=-1) | g.any(axis=-2)
    patterns = [row.tobytes() for row in active]
    groups = []
    for pattern in dict.fromkeys(patterns):
        members = np.flatnonzero([k == pattern for k in patterns])
        act = np.flatnonzero(active[members[0]])
        cols = np.concatenate([act // n, n + act % n])  # pair k = i * n + j: poles i, then n + j
        pos_up = upper.take(cols)
        if not 0 < np.count_nonzero(pos_up) < cols.size:  # also where act is empty
            continue
        half = E.take(members)[:, None] / 2
        poles = np.concatenate([e - half, half - e], axis=1)
        once = np.bincount(cols, minlength=2 * n) > 0
        (xu, su), (xl, sl) = clustered_poles(poles.compress(once, axis=1), upper.compress(once))
        pos = poles.take(cols, axis=1)
        via = pos_up[: act.size] & pos_up[act.size:]
        x, start = ((np.concatenate([xu, xl], axis=1), np.concatenate([su, sl], axis=1))
                    if via.any() else (xu, su))  # the lower clusters take part where via
        d = x[..., None] - pos[:, None, :]
        # no pole of the other side is this close to a cluster: it would have pinched
        at = np.abs(d) <= MERGE_TOL * np.maximum(1.0, np.abs(pos))[:, None]
        double = (start[..., None] & at[..., :act.size] & at[..., act.size:]).any(axis=(1, 2))
        keys = list(zip([row.tobytes() for row in start], double.tolist()))
        up = np.arange(x.shape[1]) < xu.shape[1]
        for key in dict.fromkeys(keys):
            same = [p for p, k in enumerate(keys) if k == key]
            c = start[same[0]]  # the group's clusters, where its items' clusters start
            groups.append((members[same], act, via, d[same][:, c], at[same][:, c], up[c]))
    return groups


def _kernel_terms(groups, g, order, dinv=None, W=None):
    """[T_0 .. T_{order-1}] by matrix-Laurent residues for a stack, one g[p]
    per item p and its energy in the pole groups of _pole_groups, each T_k
    of shape (items, dim, dim), with

        direct route (dinv None):  T_k = i int deps/2pi F^-1 (g F^-1)^k g F^-1
        S-sum route:               T_k = i int deps/2pi s (g D^-1 s)^k g s

    and s = S1 + S2 (dinv holds D^-1 per item), or [W T_0 .. W T_{order-1}]
    for a block W of left row vectors per item, (items, rows, dim).  About
    each pole cluster x the diagonal factor is a Laurent series in
    u = eps - x; the matrix series s g s ... g s (or W s g s ...) is
    multiplied out and its u^-1 coefficient read off.  T_k is minus the sum
    of these over the upper clusters, or plus the sum over the lower ones.
    Index chains through a pair whose poles both lie in the upper
    half-plane (e_i < 0 < e_j) close downwards, where that pair has no pole;
    closed upwards, their residues cancel (exactly, for a chain of such
    pairs only) and lose digits as E nears the pair's energy.  All other
    chains close upwards.  Only pairs with a nonzero row or column of g take
    part, so their poles alone are checked for pinches.
    """
    dim = g.shape[-1]
    rows = dim if W is None else W.shape[-2]
    terms = [np.zeros((len(g), rows, dim)) for _ in range(order)]
    for items, act, via, d, at, up in groups:
        h, m = _diagonal_series(d, at, order, dinv is not None)
        full = act.size == dim
        # not only a shortcut: g is transposed on the X_J v route, g[items]
        # keeps its strides where the three-axis index copies C-contiguous,
        # and matmul rounds the two differently (compare's last digits move)
        ga = g[items] if full else g[items[:, None, None], act[:, None], act]
        Wa = None if W is None else W[items] if full else W[items][..., act]
        scale = None if dinv is None else dinv[items][:, act]
        avoid = ~via
        upward = _residue_terms(h[:, up], m, ga * (avoid[:, None] & avoid), order, scale, W=Wa)
        downward = (_residue_terms(h[:, ~up], m, ga, order, scale, via, Wa)
                    if not up.all() else [0.0] * order)
        where = items if full else np.ix_(items, act if W is None else np.arange(rows), act)
        for T, T_up, T_down in zip(terms, upward, downward):
            T[where] = T_down - T_up
    return terms


def _square(M, basis, name):
    """M as floats: a dim x dim matrix, or a stack of them on leading axes."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-2:] != (basis.dim, basis.dim):
        raise ValueError(f"{name} has shape {M.shape}, basis needs {(basis.dim, basis.dim)}")
    return M


def j_series(basis, E, g_delta, order):
    """Terms T_k = i int deps/2pi F^-1 (g F^-1)^k g F^-1 for k = 0..order-1.

    About each pole cluster x of F^-1 the diagonal factor is expanded as a
    Laurent series in u = eps - x; the matrix series F g F ... g F is
    multiplied out once per cluster, and T_k collects its u^-1 coefficients
    (the residue sums over all index chains at once).  T_0 is
    sandwich_integral(E, g).  The truncated kernel integral is sum(T_k).
    g_delta may be a stack of matrices on leading axes, all at the one E;
    each T_k then has its shape, and each item the bits of its own call.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    g = _square(g_delta, basis, "g")
    stack = g.reshape(-1, basis.dim, basis.dim)
    groups = _pole_groups(basis.spectrum, np.full(len(stack), float(E)), stack)
    return [T.reshape(g.shape) for T in _kernel_terms(groups, stack, order)]


def sandwich_integral(basis, E, A):
    """i int deps/2pi F^-1 A F^-1 for an eps-independent matrix A, or for
    each matrix of a stack A on leading axes.

    The k = 0 term of the kernel series with g = A, from the same
    matrix-Laurent residue engine; entry (p, q) is A[p, q] times the joint
    four-propagator residue value of the pairs p and q.
    """
    return j_series(basis, E, A, 1)[0]


def xj_stack(basis, E, g_delta, order, v=None, routes=("direct", "ssum")):
    """Per route of routes, X_J = D_o T[g] D_o, T[g] = sum_k T_k, or X_J v,
    for a stack: one E[p], g_delta[p] and v[p] per item p.  Direct route:
    D_o = 1 and the T_k of j_series.  S-sum route: D_o = D^-1, and the T_k
    have S1 + S2 in place of F^-1 and D^-1 on the inner pairs.  X_J = 0
    where g is, also where D^-1 does not exist.

    X_J v is evaluated as D_o (u^T T[g^T])^T for u = D_o v: every diagonal
    factor is symmetric and each chain closes on the same side as its
    reverse, so T[g]^T = T[g^T].

    The routes share one pole search.  A stack aborts where any of its
    items does, route by route as one item alone would: on the S-sum route
    D^-1 is checked before the poles.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    E, g = np.asarray(E, dtype=float), _square(g_delta, basis, "g")
    if E.ndim != 1 or g.shape[:-2] != E.shape:
        raise ValueError(f"E has shape {E.shape} and g {g.shape}: not one item each")
    if v is not None and np.shape(v) != (*E.shape, basis.dim):
        raise ValueError(f"v has shape {np.shape(v)}, the stack needs {(*E.shape, basis.dim)}")
    live = g.any(axis=(-2, -1))
    G = g if v is None else g.swapaxes(-1, -2)
    groups = None
    out = []
    for route in routes:
        o = inverse_denominator(basis, E, live[:, None]) if route == "ssum" else None
        groups = _pole_groups(basis.spectrum, E, G) if groups is None else groups
        W = None if v is None else (v if o is None else o * v)[:, None, :]
        X = sum(_kernel_terms(groups, G, order, o, W))
        X = X if v is None else X[:, 0]
        if o is not None:
            X = o[:, :, None] * X * o[:, None, :] if v is None else o * X
        out.append(X)
    return out


def _one_point(basis, E, g_delta, order, v, route):
    """X_J (or X_J v) at one energy on one route: the stack of one."""
    g = _square(g_delta, basis, "g").reshape(1, basis.dim, basis.dim)
    v = None if v is None else np.asarray(v, dtype=float)[None]
    (X,) = xj_stack(basis, [E], g, order, v, (route,))
    return X[0]


def xj_matrix(basis, E, g_delta, order, v=None):
    """Truncated kernel integral sum_k T_k of j_series (the X_J of the direct
    route), or, given a vector v, the applied X_J v."""
    return _one_point(basis, E, g_delta, order, v, "direct")


def xj_matrix_ssum_route(basis, E, g_delta, order, v=None):
    """Same object evaluated through F^-1 = D^-1 (S1 + S2):

        T_k = D^-1 [ i int (S1+S2) (g D^-1 (S1+S2))^k g (S1+S2) ] D^-1

    so the residue engine multiplies series of (S1 + S2) factors, the inner
    pairs carry explicit 1/(E - e_i - e_j) weights, and the outer D^-1 is
    applied afterwards (to v before, given v).  Algebraically identical to
    xj_matrix; numerically an independent evaluation path.  Aborts where any
    D entry vanishes, which includes the mixed-pair energies the direct
    route handles.
    """
    return _one_point(basis, E, g_delta, order, v, "ssum")
