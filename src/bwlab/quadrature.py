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
the state j.  The nodes are taken in blocks sized from a byte budget
(BLOCK_BYTES): each block evaluates the two electron propagators on the n
single-particle states at every eta level and adds its weighted node sums
to accumulators of the results' shapes, so no array as long as the node
list is formed.  Oracles at one E and settings share a pass via NodeSums.

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

#: bytes that the per-node arrays of one node block may take.  A block holds
#: a nonzero multiple of BLOCK_NODES nodes: BLAS splits a product's
#: contraction into chunks of such lengths, so the blocked sums round almost
#: as one product over all nodes does.  The sandwich sums take blocks of at
#: least 2 dim nodes, as shorter contractions slow BLAS at dims 144 and 256.
BLOCK_BYTES = 1 << 20
BLOCK_NODES = 256


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


def _node_blocks(spectrum, E, settings: IntegrationSettings, size):
    """The nodes and weights of the composite rule, in blocks of size nodes:
    node t is Gauss-Legendre point t % points of panel t // points."""
    poles = _pole_positions(spectrum, E)
    breaks = _panel_breaks(poles, min(settings.eta_sequence), settings.cutoff(spectrum))
    x, w = _gauss_legendre(settings.quadrature_points)
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    halfs = 0.5 * (breaks[1:] - breaks[:-1])
    total = mids.size * x.size
    for start in range(0, total, size):
        panel, k = np.divmod(np.arange(start, min(start + size, total)), x.size)
        yield mids[panel] + halfs[panel] * x[k], halfs[panel] * w[k]


def _nodes_weights(spectrum, E, settings):
    """Every node and weight, as two arrays."""
    return tuple(map(np.concatenate, zip(*_node_blocks(spectrum, E, settings, BLOCK_NODES))))


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


def _block_length(node_bytes, lo=0):
    """Nodes per block when each node takes node_bytes, and at least lo."""
    return BLOCK_NODES * max(1, BLOCK_BYTES // (BLOCK_NODES * node_bytes), -(-lo // BLOCK_NODES))


def _propagator_blocks(spectrum, E, settings, size):
    """Per block of size nodes: the weights, and S1 and S2 of every state at
    every eta level, two (levels, n, block) arrays; F^-1 of the pair
    i * n + j is s1[:, i] * s2[:, j]."""
    e = np.asarray(spectrum.energies)[:, None]
    shift = 1j * np.asarray(settings.eta_sequence)[:, None, None] * np.sign(e)
    for nodes, weights in _node_blocks(spectrum, E, settings, size):
        yield weights, 1.0 / (E / 2 + nodes - e + shift), 1.0 / (E / 2 - nodes - e + shift)


class NodeSums:
    """Weighted node sums per eta level for the oracles at one E and settings:
    finv = S1 w S2^T, (levels, n, n), entry (i, j) for the pair i * n + j;
    with pairs, also F^-1 w F^-1^T over pairs, (levels, dim, dim).  One pass
    over the node blocks takes both on first read, for every oracle sharing it."""

    def __init__(self, spectrum, E, settings, pairs=True):
        self.spectrum, self.E, self.settings, self.pairs = spectrum, E, settings, pairs

    @functools.cached_property
    def sums(self):
        levels, n = len(self.settings.eta_sequence), len(self.spectrum.energies)
        # per node: s1, s2, s1 w per state, F^-1, F^-1 w per pair (even without pairs,
        # so finv rounds alike); the buffers last the pass, sparing page faults,
        # and each block takes a contiguous head of them
        size = _block_length(16 * levels * (3 * n + 2 * n * n), 2 * n * n)
        finv = np.zeros((levels, n, n), dtype=complex)
        sandwich = np.zeros((levels, n * n, n * n), dtype=complex) if self.pairs else None
        if self.pairs:
            product, pairs = np.empty_like(sandwich), np.empty(2 * n * n * levels * size, complex)
        for weights, s1, s2 in _propagator_blocks(self.spectrum, self.E, self.settings, size):
            finv += (s1 * weights) @ s2.swapaxes(1, 2)
            if self.pairs:
                f, fw = pairs[:2 * levels * n * n * weights.size].reshape(2, levels, n * n, -1)
                np.multiply(s1[:, :, None], s2[:, None], out=f.reshape(levels, n, n, -1))
                np.multiply(f, weights, out=fw)
                sandwich += np.matmul(fw, f.swapaxes(1, 2), out=product)
        return finv, sandwich


def quadrature_finv(spectrum, basis, E, settings, return_imag=False, sums=None):
    """Oracle for the basic integral i int deps/2pi F^-1 (diagonal).

    The node sum of S1[i] S2[j] over all pairs is one (n, block) x (block, n)
    product per node block; F^-1 is never formed per pair.  sums: NodeSums
    at E and settings, made here when not given.
    """
    finv, _ = (NodeSums(spectrum, E, settings, pairs=False) if sums is None else sums).sums
    re, im = _extrapolate(settings.eta_sequence, 1j * finv.reshape(len(finv), -1) / (2 * np.pi))
    if return_imag:
        return np.diag(re), np.diag(im)
    return np.diag(re)


def quadrature_oracle(spectrum, basis, E, A, settings, return_imag=False, sums=None):
    """Oracle for the sandwich i int deps/2pi F^-1 A F^-1.

    The integrand factorizes per element, so one pairwise node sum covers
    the whole matrix: X[p, q] = A[p, q] * i int f_p f_q deps / 2pi.
    Linear in A, so A = 0 gives zeros without integrating.  sums: NodeSums
    at E and settings (with pairs), made here when not given.
    """
    A = np.asarray(A, dtype=float)
    if not np.any(A):
        zeros = np.zeros_like(A)
        return (zeros, zeros.copy()) if return_imag else zeros
    _, sandwich = (NodeSums(spectrum, E, settings) if sums is None else sums).sums
    re, im = _extrapolate(settings.eta_sequence, 1j * sandwich / (2 * np.pi))
    if return_imag:
        return A * re, A * im
    return A * re


def quadrature_chain(spectrum, basis, E, mats, settings):
    """Oracle for i int deps/2pi F^-1 M_1 F^-1 M_2 ... M_k F^-1 with
    constant matrices M_i (validates the higher series terms).  The
    integrand is built for a node block at once, a (levels, block, dim, dim)
    stack."""
    levels, dim = len(settings.eta_sequence), basis.dim
    acc = np.zeros((levels, dim * dim), dtype=complex)
    size = _block_length(48 * levels * dim * dim)  # per node: m, m @ M, their product with F^-1
    for weights, s1, s2 in _propagator_blocks(spectrum, E, settings, size):
        f = (s1[:, :, None] * s2[:, None]).reshape(levels, dim, -1).swapaxes(1, 2)
        m = f[..., None] * np.eye(dim)  # diag(F^-1) per node
        for M in mats:
            m = (m @ M) * f[:, :, None, :]
        acc += weights @ m.reshape(levels, weights.size, -1)
    out, _ = _extrapolate(settings.eta_sequence, 1j * acc.reshape(levels, dim, dim) / (2 * np.pi))
    return out
