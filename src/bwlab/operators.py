"""Sign masks, the guarded pair denominator and the epsilon-independent
composite operators.

A pair's sign class comes from the energies: the signs of e_i and e_j.
The operators read it as the cached TwoParticleBasis.unmixed_sign, derived
from those signs: +1 on pp pairs, -1 on mm pairs, 0 on mixed pairs, the
diagonal of P_pp - P_mm.  Projector products are row and column masks from
it, at O(dim^2) instead of a dense O(dim^3) product.

inverse_denominator is the one guarded 1/(E - e_i - e_j); it aborts where a
selected denominator is degenerate.  free_propagator is the one closed form
of (P_pp - P_mm) D^-1, the value of i int deps/2pi F^-1; the propagators
module evaluates that integral with its residue engine, and the identity
suite compares the two.  The dense projectors, build_D and build_Dc have no
caller in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominatorError
from .model import SingleParticleSpectrum, TwoParticleBasis

#: any pair denominator with |E - e_i - e_j| below this aborts
DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class ProjectorSet:
    """Diagonal 0/1 projectors per sign pattern; they sum to the identity."""

    pp: np.ndarray
    pm: np.ndarray
    mp: np.ndarray
    mm: np.ndarray


def projectors(basis: TwoParticleBasis) -> ProjectorSet:
    mats = {}
    for pat in ("pp", "pm", "mp", "mm"):
        d = np.array([1.0 if p == pat else 0.0 for p in basis.patterns])
        mats[pat] = np.diag(d)
    return ProjectorSet(**mats)


def build_D(spectrum: SingleParticleSpectrum, basis: TwoParticleBasis, E: float) -> np.ndarray:
    """D = E - h1 - h2, diagonal with entries E - e_i - e_j."""
    return np.diag(E - basis.pair_energies())


def build_Dc(spectrum: SingleParticleSpectrum, basis: TwoParticleBasis, E_c: float) -> np.ndarray:
    """Same as build_D evaluated at the no-pair reference energy."""
    return np.diag(E_c - basis.pair_energies())


def inverse_denominator(basis: TwoParticleBasis, E: float, where=None) -> np.ndarray:
    """(dim,) 1/(E - e_i - e_j) on the pairs in the boolean mask where (all
    pairs by default; it broadcasts against them), 0 elsewhere; a row per
    energy for a stack E.  Raises DegenerateDenominatorError where a selected
    |E - e_i - e_j| is below DEGENERACY_TOL, naming the first such energy."""
    E = np.asarray(E, dtype=float)
    denom = E[..., None] - basis.pair_energies()
    sel = True if where is None else where
    bad = sel & (np.abs(denom) < DEGENERACY_TOL)
    if bad.any():
        item = np.unravel_index(bad.argmax(), bad.shape)[:-1]
        raise DegenerateDenominatorError(f"degenerate pair denominator at E = {E[item]:.12g}, "
                                         f"pair index(es) {np.flatnonzero(bad[item]).tolist()}")
    return np.divide(1.0, denom, out=np.zeros(denom.shape), where=sel)


def free_propagator(basis: TwoParticleBasis, E: float) -> np.ndarray:
    """(dim,) diagonal of (P_pp - P_mm) D^-1, the integrated free pair
    propagator; zero on mixed pairs, whose denominators are not guarded."""
    sign = basis.unmixed_sign
    return sign * inverse_denominator(basis, E, sign != 0)


def build_Hc(spectrum: SingleParticleSpectrum, basis: TwoParticleBasis,
             I_c: np.ndarray) -> np.ndarray:
    """No-pair Hamiltonian h1 + h2 + P_pp I_c P_pp (block-diagonal, symmetric);
    a stack of them for a stack of couplings I_c along leading axes."""
    if I_c.shape[-2:] != (basis.dim, basis.dim):
        raise ValueError(f"I_c has shape {I_c.shape}, basis needs {(basis.dim, basis.dim)}")
    pp = basis.unmixed_sign > 0
    return np.diag(basis.pair_energies()) + I_c * np.outer(pp, pp)


def build_HDelta1(basis: TwoParticleBasis, I_c: np.ndarray) -> np.ndarray:
    """Virtual-pair coupling P_pp I_c (1 - P_pp) - P_mm I_c.

    Couples the reference sector to mixed and doubly-negative pairs; its
    doubly-positive block vanishes identically.  Not symmetric in general.
    """
    pp, mm = basis.unmixed_sign > 0, basis.unmixed_sign < 0
    return I_c * np.outer(pp, ~pp) - mm[:, None] * I_c


def build_G0(spectrum: SingleParticleSpectrum, basis: TwoParticleBasis, E: float) -> np.ndarray:
    """Value of the basic relative-energy integral: (P_pp - P_mm) D^-1 on
    unmixed pairs, zero on mixed pairs."""
    return np.diag(free_propagator(basis, E))
