"""Closed-form contour integrals of products of simple propagator factors.

Every integrand handled here is a finite product of factors 1/(eps - p_m)
whose poles sit just above or just below the real axis (the infinitesimal
imaginary shifts come from the Feynman prescription; only the side
survives the eta -> 0 limit).  The value computed is

    i * integral deps / (2 pi)  of  prefactor * prod_m (eps - p_m)^(-1)

closed in whichever half-plane holds fewer poles:

    upper:  -(sum of residues there)      lower:  +(sum of residues there)

Repeated positions on the same side are confluent poles; their residues
use the derivative formula, implemented as a truncated Taylor product of
the remaining factors.  A pole pair closing in on the same position from
opposite sides pinches the contour: the limit diverges and we abort.
clustered_poles clusters the poles of a whole stack in one pass, for the
propagators engine and, as a stack of one, for pole_product_integral.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDenominatorError

UPPER = +1
LOWER = -1

#: opposite-side poles closer than this pinch the contour -> abort;
#: same-side poles closer than this (but not identical) are ill-conditioned
PINCH_TOL = 1e-10

#: same-side poles within this distance are treated as one confluent pole
MERGE_TOL = 1e-12


def _series_coeffs(groups, skip_index, order):
    """Taylor coefficients around pole `skip_index` of the product of all
    other factors: coeffs c_t of prod_q (delta_q + u)^(-m_q), t < order."""
    p = groups[skip_index][0]
    coef = np.zeros(order)
    coef[0] = 1.0
    for idx, (q, mq) in enumerate(groups):
        if idx == skip_index:
            continue
        c = p - q
        fac = np.empty(order)
        b = 1.0
        for t in range(order):
            fac[t] = b * c ** (-mq - t)
            b *= -(mq + t) / (t + 1)
        coef = np.convolve(coef, fac)[:order]
    return coef


def clustered_poles(pos, upper):
    """Same-side pole clusters of a whole stack of pole sets in one pass,
    after the pinch and near-coincidence aborts.  pos: (items, k) positions;
    upper: (k,) True for the poles above the real axis, alike for every item.
    Returns (upper, lower), per side (x, start): its positions sorted per
    item, and True where a cluster starts.  A pole joins the cluster before
    it when within MERGE_TOL max(1, |p|) of that cluster's first pole, whose
    position is the cluster's.  With both sides occupied, an item aborts on
    opposite-side clusters, then on adjacent same-side ones, closer than
    PINCH_TOL max(1, max |p|); the first failing item raises."""
    sides = [pos.compress(s, axis=1) for s in (upper, ~upper)]
    for x in sides:
        x.sort()
    ordered = np.sort(pos)
    if not (ordered[:, 1:] - ordered[:, :-1] < PINCH_TOL * np.abs(pos).max(initial=1.0)).any():
        return [(x, np.ones(x.shape, dtype=bool)) for x in sides]  # a cluster each, no abort

    near = PINCH_TOL * np.abs(pos).max(axis=1, initial=1.0)[:, None]
    out = []
    for x in sides:
        tol = MERGE_TOL * np.maximum(1.0, np.abs(x))
        start = np.ones(x.shape, dtype=bool)
        start[:, 1:] = np.diff(x) > tol[:, 1:]  # too far from the pole before it
        while True:  # or, after two merges in a row, from its cluster's first pole
            first = np.take_along_axis(x, np.maximum.accumulate(
                np.where(start, np.arange(x.shape[1]), 0), axis=1), axis=1)
            late = ~start & (x - first > tol)
            if not late.any():
                break
            start |= late & (late.cumsum(axis=1) == 1)  # the first per item moves the later firsts
        out.append((x, start, first))
    (xu, su, fu), (xl, sl, fl) = out
    pinched = su & (sl[:, None] & (np.abs(xu[..., None] - xl[:, None]) < near[..., None])).any(2)
    crowded = [s[:, 1:] & (x[:, 1:] - f[:, :-1] < near) for x, s, f in out]  # adjacent clusters
    failed = np.concatenate([pinched, *crowded], axis=1)
    if xu.shape[1] and xl.shape[1] and failed.any():  # the first failing item's first failure
        p, c = divmod(int(failed.argmax()), failed.shape[1])
        at = np.concatenate([xu, fu[:, :-1], fl[:, :-1]], axis=1)[p, c]
        raise DegenerateDenominatorError(
            f"pinched pole pair at eps = {at:.6g} (opposite half-planes)" if c < xu.shape[1]
            else f"near-coincident poles at eps = {at:.6g} (ill-conditioned)")
    return [(x, start) for x, start, _ in out]


def pole_product_integral(poles, prefactor=1.0):
    """i * int deps/2pi of prefactor * prod 1/(eps - p) over the given poles.

    poles: iterable of (position, side) with side UPPER (+1) or LOWER (-1),
    clustered by clustered_poles as a stack of one.
    Returns a float (all positions are real in the eta -> 0 limit).
    """
    poles = list(poles)
    if not poles:
        raise ValueError("empty pole product")
    pos, sides = np.array(poles, dtype=float).T
    # (position, multiplicity) per cluster, on each side
    upper, lower = ([*zip(x[0, start[0]].tolist(), np.bincount(start[0].cumsum() - 1).tolist())]
                    for x, start in clustered_poles(pos[None], sides == UPPER))

    # all poles on one side: the contour closes in the empty half-plane
    if not upper or not lower:
        return 0.0

    if len(upper) <= len(lower):
        side, groups, other = -1.0, upper, lower
    else:
        side, groups, other = +1.0, lower, upper
    merged = groups + other
    return prefactor * side * sum(_series_coeffs(merged, idx, m)[m - 1]
                                  for idx, (_, m) in enumerate(groups))
