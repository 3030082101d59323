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


def _cluster(positions):
    """Group sorted positions into (position, multiplicity) clusters."""
    if not positions:
        return []
    pos = sorted(positions)
    out = [[pos[0], 1]]
    for p in pos[1:]:
        if abs(p - out[-1][0]) <= MERGE_TOL * max(1.0, abs(p)):
            out[-1][1] += 1
        else:
            out.append([p, 1])
    return [(p, m) for p, m in out]


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


def clustered_poles(poles):
    """Same-side clusters [(position, multiplicity)] of the given poles, as
    (upper, lower), after the pinch and near-coincidence aborts.

    poles: iterable of (position, side) with side UPPER (+1) or LOWER (-1).
    When either half-plane is empty the contour closes in it, the integral
    vanishes and no abort applies.
    """
    poles = list(poles)
    scale = max(1.0, max(abs(p) for p, _ in poles))
    upper = _cluster([p for p, s in poles if s == UPPER])
    lower = _cluster([p for p, s in poles if s == LOWER])
    if not upper or not lower:
        return upper, lower

    for pu, _ in upper:
        for pl, _ in lower:
            if abs(pu - pl) < PINCH_TOL * scale:
                raise DegenerateDenominatorError(
                    f"pinched pole pair at eps = {pu:.6g} (opposite half-planes)"
                )
    for side in (upper, lower):
        for (p1, _), (p2, _) in zip(side, side[1:]):
            if abs(p1 - p2) < PINCH_TOL * scale:
                raise DegenerateDenominatorError(
                    f"near-coincident poles at eps = {p1:.6g} (ill-conditioned)"
                )
    return upper, lower


def pole_product_integral(poles, prefactor=1.0):
    """i * int deps/2pi of prefactor * prod 1/(eps - p) over the given poles.

    poles: iterable of (position, side) with side UPPER (+1) or LOWER (-1).
    Returns a float (all positions are real in the eta -> 0 limit).
    """
    poles = list(poles)
    if not poles:
        raise ValueError("empty pole product")
    upper, lower = clustered_poles(poles)

    # all poles on one side: the contour closes in the empty half-plane
    if not upper or not lower:
        return 0.0

    if len(upper) <= len(lower):
        side, groups, other = -1.0, upper, lower
    else:
        side, groups, other = +1.0, lower, upper
    merged = groups + other

    total = 0.0
    for idx in range(len(groups)):
        m = groups[idx][1]
        coef = _series_coeffs(merged, idx, m)
        total += coef[m - 1]
    return prefactor * side * total
