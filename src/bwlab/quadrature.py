"""Independent numerical oracle for the relative-energy integrals.

Integrates along the real axis with a finite Feynman regulator eta, on
composite Gauss-Legendre panels graded toward the pole positions, then
extrapolates eta -> 0.  Each captured residue is a rational function of
i*eta with real coefficients, so the real part of every integral handled
here is even in eta and the imaginary part is odd in eta.  One rule
(_limit_weights) takes both limits: a linear fit with one term per eta
level, c + eta^2 P(eta^2) for the real part and c + eta P(eta^2) for the
imaginary part, evaluated at eta = 0.  The imaginary constant is a
diagnostic and should be consistent with zero; a pinch (Im ~ 1/eta) or a
constant offset shows up there.

The integrand factors by particle: for the pair k = i * n + j,
F^-1 = S1[i] S2[j], where S1 depends only on the state i and S2 only on
the state j.  So each eta level evaluates the two electron propagators on
the n single-particle states at the nodes, two (n, nodes) arrays
(propagator_grid, which oracles at the same E and settings share), and
forms pair products only where an integrand needs them.  Those are formed
one eta level at a time, to keep the working set small.

This module deliberately shares no code with the residue engine.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import IntegrationSettings
from .errors import QuadratureConvergenceError

#: relative disagreement of the last two extrapolation levels that counts
#: as nonconvergence
EXTRAPOLATION_TOL = 1e-4


def _pole_positions(spectrum, E):
    """Sorted e - E/2 and E/2 - e over the levels e; _panel_breaks drops repeats."""
    e = np.asarray(spectrum.energies)
    return np.sort(np.concatenate((e - E / 2, E / 2 - e))).tolist()


def _panel_breaks(poles, eta_min, L):
    """Graded breakpoints: nested refinement around each pole down to the
    finest eta scale, geometric fill to the cutoff."""
    pts = {-L, L}
    for p in poles:
        pts.add(p)
        s = eta_min / 2
        while s < 4.0:
            pts.add(p - s)
            pts.add(p + s)
            s *= 4
    edge = max(abs(p) for p in poles) + 4.0
    s = edge
    while s < L:
        pts.add(s)
        pts.add(-s)
        s *= 4
    return np.array(sorted(x for x in pts if -L <= x <= L))


@functools.cache
def _gauss_legendre(points):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per point
    count and returned read-only."""
    x, w = np.polynomial.legendre.leggauss(points)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _nodes_weights(spectrum, E, settings: IntegrationSettings):
    poles = _pole_positions(spectrum, E)
    breaks = _panel_breaks(poles, min(settings.eta_sequence), settings.cutoff(spectrum))
    x, w = _gauss_legendre(settings.quadrature_points)
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    halfs = 0.5 * (breaks[1:] - breaks[:-1])
    nodes = (mids[:, None] + halfs[:, None] * x[None, :]).ravel()
    weights = (halfs[:, None] * w[None, :]).ravel()
    return nodes, weights


def _limit_weights(etas, power):
    """Weights w with sum(w * y) = c of the interpolant
    y(eta) = c + eta^power * P(eta^2), deg P = len(etas) - 2, through the
    points: the fit's value at eta = 0.

    (y_i - c) / eta_i^power are values of P at t_i = eta_i^2, so their
    divided difference of order len(etas) - 1 vanishes:
    sum_i (y_i - c) / (eta_i^power prod_{j != i} (t_i - t_j)) = 0.
    """
    t = etas ** 2
    diffs = t[:, None] - t[None, :]
    np.fill_diagonal(diffs, 1.0)
    a = 1.0 / (etas ** power * np.prod(diffs, axis=1))
    return a / a.sum()


def _extrapolate(etas, values):
    """eta -> 0 limit of values[level, ...] sampled on the eta ladder.

    Each part is a linear fit with one term per level, evaluated at
    eta = 0: the real part c + eta^2 P(eta^2), the imaginary part
    c + eta P(eta^2).  The imaginary constant is returned as a diagnostic,
    so a pinch (Im ~ 1/eta) or a constant offset stays visible.  The
    previous estimate of either part is the same fit without the largest
    eta; a one-level ladder returns its single value.

    Returns (real, imag_diagnostic); raises if the last refinement moved
    either part by more than EXTRAPOLATION_TOL relatively.  A pinched
    configuration shows up in the imaginary part (the real part of a
    symmetric pinch is exactly zero), so both parts are watched.
    """
    values = np.asarray(values)
    etas = np.asarray(etas, dtype=float)
    drop = min(1, etas.size - 1)  # the previous fit leaves out the largest eta
    re, re_prev, im, im_prev = (
        np.tensordot(_limit_weights(etas[k:], power), part[k:], axes=1)
        for part, power in ((values.real, 2), (values.imag, 1)) for k in (0, drop)
    )
    scale = np.maximum(1.0, np.abs(re))
    bad = np.abs(re - re_prev) > EXTRAPOLATION_TOL * scale
    if np.any(bad):
        k = np.argmax(bad)
        raise QuadratureConvergenceError(
            f"eta extrapolation did not settle: last two estimates "
            f"{re_prev.flat[k]:.6e} vs {re.flat[k]:.6e}"
        )
    bad = np.abs(im - im_prev) > EXTRAPOLATION_TOL * np.maximum(np.abs(im), scale)
    if np.any(bad):
        k = np.argmax(bad)
        raise QuadratureConvergenceError(
            f"imaginary part diverges under eta refinement: "
            f"{im_prev.flat[k]:.6e} vs {im.flat[k]:.6e} (pinched poles?)"
        )
    return re, im


def _propagator_nodes(spectrum, E, nodes, eta):
    """S1 and S2 of every single-particle state at the nodes, two (n, nodes)
    arrays; F^-1 of the pair k = i * n + j is s1[i] * s2[j]."""
    e = np.asarray(spectrum.energies)[:, None]
    shift = 1j * eta * np.sign(e)
    s1 = 1.0 / (E / 2 + nodes - e + shift)
    s2 = 1.0 / (E / 2 - nodes - e + shift)
    return s1, s2


def propagator_grid(spectrum, E, settings):
    """The node weights and, per eta level, the (S1, S2) arrays of
    _propagator_nodes: all that the oracles below evaluate of the
    propagators.  Oracles taken at the same E with the same settings can
    share one grid (their grid argument) instead of each building it."""
    nodes, weights = _nodes_weights(spectrum, E, settings)
    return weights, [_propagator_nodes(spectrum, E, nodes, eta) for eta in settings.eta_sequence]


def _finv_pairs(s1, s2):
    """(dim, nodes) array of F^-1 per pair, pair index k = i * n + j."""
    return (s1[:, None] * s2[None]).reshape(-1, s1.shape[1])


def quadrature_finv(spectrum, basis, E, settings, return_imag=False, grid=None):
    """Oracle for the basic integral i int deps/2pi F^-1 (diagonal).

    The node sum of S1[i] S2[j] over all pairs is one (n, nodes) x (nodes, n)
    product; F^-1 is never formed per pair.  grid: propagator_grid at E and
    settings, built here when not given.
    """
    weights, levels = propagator_grid(spectrum, E, settings) if grid is None else grid
    per_eta = []
    for s1, s2 in levels:
        per_eta.append(1j * ((s1 * weights) @ s2.T).ravel() / (2 * np.pi))
    re, im = _extrapolate(settings.eta_sequence, per_eta)
    if return_imag:
        return np.diag(re), np.diag(im)
    return np.diag(re)


def quadrature_oracle(spectrum, basis, E, A, settings, return_imag=False, grid=None):
    """Oracle for the sandwich i int deps/2pi F^-1 A F^-1.

    The integrand factorizes per element, so one pairwise node sum covers
    the whole matrix: X[p, q] = A[p, q] * i int f_p f_q deps / 2pi.
    Linear in A, so A = 0 gives zeros without integrating.  grid:
    propagator_grid at E and settings, built here when not given.
    """
    A = np.asarray(A, dtype=float)
    if not np.any(A):
        zeros = np.zeros_like(A)
        return (zeros, zeros.copy()) if return_imag else zeros
    weights, levels = propagator_grid(spectrum, E, settings) if grid is None else grid
    per_eta = []
    for s1, s2 in levels:
        f = _finv_pairs(s1, s2)
        per_eta.append(1j * ((f * weights) @ f.T) / (2 * np.pi))
    re, im = _extrapolate(settings.eta_sequence, per_eta)
    if return_imag:
        return A * re, A * im
    return A * re


def quadrature_chain(spectrum, basis, E, mats, settings):
    """Oracle for i int deps/2pi F^-1 M_1 F^-1 M_2 ... M_k F^-1 with
    constant matrices M_i (validates the higher series terms).  The
    integrand is built for all nodes at once, a (nodes, dim, dim) stack."""
    weights, levels = propagator_grid(spectrum, E, settings)
    per_eta = []
    for s1, s2 in levels:
        f = _finv_pairs(s1, s2).T
        m = f[:, :, None] * np.eye(basis.dim)  # diag(F^-1) per node
        for M in mats:
            m = (m @ M) * f[:, None, :]
        per_eta.append(1j * np.tensordot(weights, m, axes=1) / (2 * np.pi))
    out, _ = _extrapolate(settings.eta_sequence, per_eta)
    return out
