"""Independent numerical oracle for the relative-energy integrals.

S1[i] = 1/(E/2 + eps - e_i + i0 sign(e_i)) has its pole at x = e_i - E/2,
above the real axis for e_i < 0; S2[j] = 1/(E/2 - eps - e_j + i0 sign(e_j))
has it at x = E/2 - e_j, above for e_j > 0.  So the eta -> 0 integral is the
integral along any path above the lower poles and below the upper ones
(the contour deformation of Nagy & Soper, Phys. Rev. D 74, 093006 (2006)):
eps(t) = t + i h(t), h(t) = sum_p -s_p a sigma_p exp(-((t - x_p)/sigma_p)^2)
over the distinct poles x_p, s_p = +1 above, a = CONTOUR_DEPTH and
sigma_p = a min(d_p, 1), d_p the distance to the nearest opposite pole.
Gauss-Legendre at eta = 0, weights dt (1 + i h'(t)), converges fast on
panels that break at x_p + k sigma_p, |k| <= 3, then at distances doubling
out to R = max|x_p| + 4; each tail |t| > R is a panel of t = +-R/u.

Two rules share the panels, COARSE_POINTS per panel and CHECK_POINTS more:
the oracles return the finer one's value, raise QuadratureConvergenceError
when the two differ by more than CONVERGENCE_TOL, and raise
DegenerateDenominatorError where the path cannot pass a pole on its side
(a pinch).  The imaginary part of a result is a diagnostic.

F^-1 of the pair i * n + j is S1[i] S2[j].  The nodes come in blocks of one
rule, sized from a byte budget (BLOCK_BYTES); each adds the node sums of S1
and S2 on the n single-particle states to its rule's accumulators, so no
array as long as the node list is formed.  Oracles at one E share a pass
via NodeSums.

This module deliberately shares no code with the residue engine: it reads
only the pole positions and their Feynman sides.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DegenerateDenominatorError, QuadratureConvergenceError

#: a: the path's depth at a pole is a sigma_p, and sigma_p = a min(d_p, 1)
CONTOUR_DEPTH = 0.3
#: Gauss-Legendre points per panel of the coarser rule
COARSE_POINTS = 16
#: the finer rule takes this many more points per panel than the coarser one
CHECK_POINTS = 8
#: relative disagreement of the two rules that counts as nonconvergence
CONVERGENCE_TOL = 1e-8
#: an upper and a lower pole closer than this pinch the path
PINCH_TOL = 1e-10

#: bytes that the per-node arrays of one node block may take.  A block holds
#: a nonzero multiple of BLOCK_NODES nodes: BLAS splits a product's
#: contraction into chunks of such lengths, so the blocked sums round almost
#: as one product over all nodes does.  The sandwich sums take blocks of at
#: least 2 dim nodes, as shorter contractions slow BLAS at dims 144 and 256.
BLOCK_BYTES = 1 << 20
BLOCK_NODES = 256


def _poles(spectrum, E):
    """The distinct pole positions x_p, their sides s_p (+1 upper, -1 lower)
    and widths sigma_p.  Raises where two opposite poles lie closer than
    PINCH_TOL, or where the dips of farther poles outweigh a close pair's."""
    e = np.asarray(spectrum.energies)
    x, s = np.array(sorted({*zip(e - E / 2, -np.sign(e)), *zip(E / 2 - e, np.sign(e))})).T
    gap = np.abs(x[:, None] - x) + np.where(s[:, None] == s, np.inf, 0.0)
    d = gap.min(axis=1)
    p = np.argmin(d)
    if d[p] >= PINCH_TOL:
        sigma = CONTOUR_DEPTH * np.minimum(d, 1.0)
        clearance = -s * _path(x, x, s, sigma)[0]
        p = np.argmin(clearance)
        if clearance[p] > 0:
            return x, s, sigma
    raise DegenerateDenominatorError(
        f"pinched contour at E = {E:.12g}: the path cannot pass the pole at x = {x[p]:.12g} "
        f"on its side, {d[p]:.3e} from a pole on the other side")


def _path(t, x, s, sigma):
    """h(t) and h'(t) of the path eps(t) = t + i h(t), at the points t."""
    z = (t[:, None] - x) / sigma
    g = CONTOUR_DEPTH * s * np.exp(-z * z)
    return -(g * sigma).sum(axis=1), 2 * (g * z).sum(axis=1)


def _panel_breaks(x, sigma):
    """Breakpoints on [-R, R]: x_p + k sigma_p for |k| <= 3, then at
    distances 3 sigma_p 2^m that double out to R = max|x_p| + 4; and -2R and
    2R, which close the two tail panels."""
    R = np.max(np.abs(x)) + 4.0
    pts = {-R, R}
    for p, width in zip(x, sigma):
        pts.update(p + k * width for k in range(-3, 4))
        d = 6 * width
        while p - d > -R or p + d < R:
            pts.update((p - d, p + d))
            d *= 2
    return np.array([-2 * R, *sorted(t for t in pts if -R <= t <= R), 2 * R]), R


@functools.cache
def _gauss_legendre(points):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per point
    count and returned read-only."""
    x, w = np.polynomial.legendre.leggauss(points)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _node_blocks(spectrum, E, size):
    """Per block of at most size nodes: its rule (1 for the finer), the path
    nodes eps(t), the weights dt (1 + i h'(t)), and S1 and S2 of every state
    there, two (n, block) arrays.  Node m of a rule is Gauss-Legendre point
    m % points of panel m // points."""
    e = np.asarray(spectrum.energies)[:, None]
    x, s, sigma = _poles(spectrum, E)
    breaks, R = _panel_breaks(x, sigma)
    mids, halfs = 0.5 * (breaks[1:] + breaks[:-1]), 0.5 * (breaks[1:] - breaks[:-1])
    for rule, points in enumerate((COARSE_POINTS, COARSE_POINTS + CHECK_POINTS)):
        gl, gw = _gauss_legendre(points)
        total = mids.size * points
        for start in range(0, total, size):
            panel, k = np.divmod(np.arange(start, min(start + size, total)), points)
            # on a tail panel, |u| > R, t = sign(u) R^2 / (2R - |u|) runs out to infinity
            u = mids[panel] + halfs[panel] * gl[k]
            tail, stretch = np.abs(u) > R, R / (2 * R - np.abs(u))
            t = np.where(tail, np.sign(u) * R * stretch, u)
            dt = halfs[panel] * gw[k] * np.where(tail, stretch ** 2, 1.0)
            h, dh = _path(t, x, s, sigma)
            nodes = t + 1j * h
            yield rule, nodes, dt * (1 + 1j * dh), 1 / (E / 2 + nodes - e), 1 / (E / 2 - nodes - e)


def _settled(rules):
    """The finer rule's value of rules[rule, ...], as (real, imag_diagnostic),
    once the coarser one agrees to CONVERGENCE_TOL of max(1, max|value|)."""
    coarse, fine = rules
    diff = float(np.max(np.abs(fine - coarse))) / max(1.0, float(np.max(np.abs(fine))))
    if diff > CONVERGENCE_TOL:
        raise QuadratureConvergenceError(
            f"contour rules of {COARSE_POINTS} and {COARSE_POINTS + CHECK_POINTS} points "
            f"differ by {diff:.3e} relative, above {CONVERGENCE_TOL:g}")
    return fine.real, fine.imag


def _block_length(node_bytes, lo=0):
    """Nodes per block when each node takes node_bytes, and at least lo."""
    return BLOCK_NODES * max(1, BLOCK_BYTES // (BLOCK_NODES * node_bytes), -(-lo // BLOCK_NODES))


class NodeSums:
    """Weighted node sums per rule for the oracles at one E:
    finv = S1 w S2^T, (2, n, n), entry (i, j) for the pair i * n + j;
    with pairs, also F^-1 w F^-1^T over pairs, (2, dim, dim).  One pass
    over the node blocks takes both on first read, for every oracle sharing it."""

    def __init__(self, spectrum, E, pairs=True):
        self.spectrum, self.E, self.pairs = spectrum, E, pairs

    @functools.cached_property
    def sums(self):
        n = len(self.spectrum.energies)
        # per node: s1, s2, s1 w and the path's 4 reals per pole (2n poles) and 2
        # denominators per state, F^-1, F^-1 w per pair (even without pairs, so
        # finv rounds alike); the buffers last the pass, sparing page faults,
        # and each block takes a contiguous head of them
        size = _block_length(16 * (9 * n + 2 * n * n), 2 * n * n)
        finv = np.zeros((2, n, n), dtype=complex)
        sandwich = np.zeros((2, n * n, n * n), dtype=complex) if self.pairs else None
        if self.pairs:
            product, pairs = np.empty_like(sandwich[0]), np.empty(2 * n * n * size, complex)
        for rule, _, weights, s1, s2 in _node_blocks(self.spectrum, self.E, size):
            finv[rule] += (s1 * weights) @ s2.T
            if self.pairs:
                f, fw = pairs[:2 * n * n * weights.size].reshape(2, n * n, -1)
                np.multiply(s1[:, None], s2[None], out=f.reshape(n, n, -1))
                np.multiply(f, weights, out=fw)
                sandwich[rule] += np.matmul(fw, f.T, out=product)
        return finv, sandwich


def _node_sums(spectrum, E, sums, pairs):
    """sums if made for spectrum and E (else ValueError), or new NodeSums."""
    if sums is not None and (sums.spectrum, sums.E) != (spectrum, E):
        raise ValueError(f"sums were made for E = {sums.E!r} on {sums.spectrum.energies}")
    return NodeSums(spectrum, E, pairs) if sums is None else sums


def quadrature_finv(spectrum, E, return_imag=False, sums=None):
    """Oracle for the basic integral i int deps/2pi F^-1 (diagonal).

    The node sum of S1[i] S2[j] over all pairs is one (n, block) x (block, n)
    product per node block; F^-1 is never formed per pair.  sums: NodeSums
    at E, made here when not given (ValueError if made for another E or spectrum).
    """
    finv, _ = _node_sums(spectrum, E, sums, pairs=False).sums
    re, im = _settled(1j * finv.reshape(2, -1) / (2 * np.pi))
    if return_imag:
        return np.diag(re), np.diag(im)
    return np.diag(re)


def quadrature_oracle(spectrum, E, A, return_imag=False, sums=None):
    """Oracle for the sandwich i int deps/2pi F^-1 A F^-1.

    The integrand factorizes per element, so one pairwise node sum covers
    the whole matrix: X[p, q] = A[p, q] * i int f_p f_q deps / 2pi.
    Linear in A, so A = 0 gives zeros without integrating.  sums: as for
    quadrature_finv, with pairs.
    """
    A = np.asarray(A, dtype=float)
    if not np.any(A):
        zeros = np.zeros_like(A)
        return (zeros, zeros.copy()) if return_imag else zeros
    _, sandwich = _node_sums(spectrum, E, sums, pairs=True).sums
    re, im = _settled(1j * sandwich / (2 * np.pi))
    if return_imag:
        return A * re, A * im
    return A * re


def quadrature_chain(spectrum, E, mats):
    """Oracle for i int deps/2pi F^-1 M_1 F^-1 M_2 ... M_k F^-1 with
    constant matrices M_i (validates the higher series terms).  The
    integrand is built for a node block at once, a (block, dim, dim)
    stack."""
    dim = spectrum.n ** 2
    acc = np.zeros((2, dim * dim), dtype=complex)
    size = _block_length(48 * dim * dim)  # per node: m, m @ M, their product with F^-1
    for rule, _, weights, s1, s2 in _node_blocks(spectrum, E, size):
        f = (s1[:, None] * s2[None]).reshape(dim, -1).T
        m = f[..., None] * np.eye(dim)  # diag(F^-1) per node
        for M in mats:
            m = (m @ M) * f[:, None, :]
        acc[rule] += weights @ m.reshape(weights.size, -1)
    out, _ = _settled(1j * acc.reshape(2, dim, dim) / (2 * np.pi))
    return out
