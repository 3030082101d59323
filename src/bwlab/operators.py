"""Projection operators and the epsilon-independent composite operators.

All operators are dense real matrices on the two-particle basis.  The
four projectors select the sign patterns of a pair; the doubly-positive
and doubly-negative ones are the interesting pair, the mixed ones only
enter through completeness.

Sign bookkeeping for the free two-particle resolvent: the relative-energy
integral of the inverse propagator product has the value
(P_pp - P_mm) / (E - h1 - h2) on unmixed pairs and zero on mixed pairs.
That value is fixed here as the anchor; the propagators module reproduces
it by contour integration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominatorError
from .model import SingleParticleSpectrum, TwoParticleBasis

#: any diagonal inverse with |denominator| below this aborts
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


def build_Hc(spectrum: SingleParticleSpectrum, basis: TwoParticleBasis,
             I_c: np.ndarray) -> np.ndarray:
    """No-pair Hamiltonian h1 + h2 + P_pp I_c P_pp (block-diagonal, symmetric)."""
    if I_c.shape != (basis.dim, basis.dim):
        raise ValueError(f"I_c has shape {I_c.shape}, basis needs {(basis.dim, basis.dim)}")
    P = projectors(basis).pp
    return np.diag(basis.pair_energies()) + P @ I_c @ P


def build_HDelta1(projs: ProjectorSet, I_c: np.ndarray) -> np.ndarray:
    """Virtual-pair coupling P_pp I_c (1 - P_pp) - P_mm I_c.

    Couples the reference sector to mixed and doubly-negative pairs; its
    doubly-positive block vanishes identically.  Not symmetric in general.
    """
    one = np.eye(I_c.shape[0])
    return projs.pp @ I_c @ (one - projs.pp) - projs.mm @ I_c


def build_G0(spectrum: SingleParticleSpectrum, basis: TwoParticleBasis, E: float,
             projs: ProjectorSet) -> np.ndarray:
    """Value of the basic relative-energy integral: (P_pp - P_mm) D^-1 on
    unmixed pairs, zero on mixed pairs."""
    denom = E - basis.pair_energies()
    sel = np.diag(projs.pp) + np.diag(projs.mm)
    bad = (np.abs(denom) < DEGENERACY_TOL) & (sel > 0)
    if np.any(bad):
        raise DegenerateDenominatorError(
            f"degenerate denominator at unmixed pair(s) {np.nonzero(bad)[0].tolist()}"
        )
    sign = np.diag(projs.pp) - np.diag(projs.mm)
    out = np.zeros_like(denom)
    mask = sel > 0
    out[mask] = sign[mask] / denom[mask]
    return np.diag(out)
