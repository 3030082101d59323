"""Model spaces: single-particle spectra, the two-particle tensor basis,
and model interaction matrices.

The single-particle spectrum is a finite stand-in for a Dirac-like spectrum:
its energies are nonzero, pairwise distinct and below MAX_LEVEL in
magnitude, and a state's sign class (+ for positive-energy, - for
negative-energy states) is the sign of its energy; nothing stores it
apart.  Two-particle states are ordered pairs (i, j) flattened row-major
with j varying fastest, so pair (i, j) sits at flat index i * n + j.  A
pair's sign pattern, and the diagonal unmixed_sign of P_pp - P_mm that the
operators use, follow from the signs.

Interaction matrices are dense, symmetric, and independent of the relative
energy; they are scaled by their coupling on construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property

import numpy as np

from .errors import ConfigError

#: named interaction presets
PRESETS = ("ones", "random-symmetric")

SYMMETRY_TOL = 1e-14

#: levels are below this in magnitude: verify multiplies two pair
#: denominators of up to about 12 max|e|, and that product must stay finite
MAX_LEVEL = 1e150


@cache
def _integer_fields(cls):
    return [f.name for f in fields(cls) if f.type in ("int", int)]


def check_integer_fields(settings):
    """Raise ConfigError for a field of the settings dataclass annotated int
    whose value is not a Python or numpy integer."""
    for name in _integer_fields(type(settings)):
        value = getattr(settings, name)
        if not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SingleParticleSpectrum:
    """Model eigenvalues: positives first, then negatives (input order)."""

    energies: tuple

    def __post_init__(self):
        if not self.energies:
            raise ConfigError("spectrum must contain at least one state")
        for e in self.energies:
            if e == 0.0 or not math.isfinite(e):
                raise ConfigError(f"energy {e} is zero or not finite")
            if abs(e) >= MAX_LEVEL:
                raise ConfigError(f"energy {e} is not below {MAX_LEVEL:g} in magnitude")
        if len(set(self.energies)) != len(self.energies):
            raise ConfigError("duplicate energy in spectrum")

    @property
    def n(self):
        return len(self.energies)

    @property
    def signs(self):
        """+1 or -1 per state: the sign of its energy."""
        return tuple(1 if e > 0 else -1 for e in self.energies)

    @classmethod
    def from_lists(cls, positives, negatives):
        energies = tuple(float(e) for e in (*positives, *negatives))
        for e in positives:
            if not 0 < e < math.inf:
                raise ConfigError(f"positive list contains non-positive or non-finite energy {e}")
        for e in negatives:
            if not -math.inf < e < 0:
                raise ConfigError(f"negative list contains non-negative or non-finite energy {e}")
        return cls(energies)


@dataclass(frozen=True)
class TwoParticleBasis:
    """Tensor-product pair basis over a spectrum.

    pairs[k] = (i, j) with k = i * n + j (row-major, j fastest).
    patterns[k] in {"pp", "pm", "mp", "mm"} according to the signs of e_i, e_j.
    """

    spectrum: SingleParticleSpectrum

    @cached_property
    def pairs(self):
        n = self.spectrum.n
        return tuple((i, j) for i in range(n) for j in range(n))

    @cached_property
    def patterns(self):
        tag = ["m" if s < 0 else "p" for s in self.spectrum.signs]
        return tuple(tag[i] + tag[j] for i, j in self.pairs)

    @property
    def dim(self):
        return self.spectrum.n ** 2

    def pair_energies(self):
        """(dim,) read-only array of e_i + e_j in basis order."""
        return self._pair_energies

    @cached_property
    def _pair_energies(self):
        e = np.asarray(self.spectrum.energies)
        out = np.add.outer(e, e).ravel()
        out.flags.writeable = False
        return out

    @cached_property
    def unmixed_sign(self):
        """(dim,) read-only diagonal of P_pp - P_mm: +1 on pp pairs, -1 on
        mm pairs, 0 on mixed pairs."""
        s = np.asarray(self.spectrum.signs, dtype=float)
        out = 0.5 * np.add.outer(s, s).ravel()
        out.flags.writeable = False
        return out

    def pattern_indices(self, pattern):
        return tuple(k for k, p in enumerate(self.patterns) if p == pattern)


@dataclass(frozen=True)
class ModelConfig:
    """Spectrum, couplings and matrix specs, checked in full when made.

    coulomb_matrix / delta_matrix are either a preset name ("ones",
    "random-symmetric") or an explicit symmetric matrix of shape
    (n^2, n^2).  Random presets are seeded deterministically; the coulomb
    and delta channels derive distinct streams from the same seed.
    """

    positive_energies: tuple
    negative_energies: tuple
    coulomb_scale: float = 0.1
    delta_scale: float = 0.05
    coulomb_matrix: object = "ones"
    delta_matrix: object = "ones"
    seed: int = 1

    def __post_init__(self):
        check_integer_fields(self)
        if not 0 <= self.coulomb_scale < math.inf:
            raise ConfigError("coulomb_scale must be >= 0 and finite")
        if not 0 <= self.delta_scale < math.inf:
            raise ConfigError("delta_scale must be >= 0 and finite")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        dim = build_spectrum(self).n ** 2
        for name, spec in (("coulomb", self.coulomb_matrix), ("delta", self.delta_matrix)):
            if isinstance(spec, str):
                if spec not in PRESETS:
                    raise ConfigError(f"unknown {name} preset '{spec}'")
                continue
            m = np.asarray(spec, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ConfigError("explicit interaction matrix must be square")
            if m.shape[0] != dim:
                raise ConfigError(f"interaction matrix is {m.shape[0]}x{m.shape[0]}, "
                                  f"basis needs {dim}x{dim}")
            if not np.allclose(m, m.T, rtol=0.0, atol=SYMMETRY_TOL * max(1.0, np.abs(m).max())):
                raise ConfigError("explicit interaction matrix is not symmetric")

    def scaled(self, factor):
        """Copy with both couplings multiplied by factor (coupling scans)."""
        return replace(self, coulomb_scale=factor * self.coulomb_scale,
                       delta_scale=factor * self.delta_scale)


def build_spectrum(config: ModelConfig) -> SingleParticleSpectrum:
    """Spectrum of a model config, both sign classes populated (checked when
    the ModelConfig is made)."""
    if not config.positive_energies:
        raise ConfigError("spectrum needs at least one positive energy")
    if not config.negative_energies:
        raise ConfigError("spectrum needs at least one negative energy")
    return SingleParticleSpectrum.from_lists(config.positive_energies, config.negative_energies)


def build_basis(spectrum: SingleParticleSpectrum) -> TwoParticleBasis:
    return TwoParticleBasis(spectrum)


def dirac_like_energies(n_each=2, mass=1.0, step=0.5):
    """Default spectrum preset: positives {m + k d}, negatives {-m - k d}.

    The +-2m gap keeps unmixed-pair denominators away from zero for the
    default couplings.
    """
    pos = tuple(mass + k * step for k in range(n_each))
    neg = tuple(-mass - k * step for k in range(n_each))
    return pos, neg


def _base_matrix(spec, dim, seed, channel):
    """The unscaled matrix of a spec that ModelConfig has checked."""
    if not isinstance(spec, str):
        m = np.asarray(spec, dtype=float)
    elif spec == "ones":
        return np.ones((dim, dim))
    else:  # "random-symmetric"
        m = np.random.default_rng([seed, channel]).uniform(-1.0, 1.0, size=(dim, dim))
    return 0.5 * (m + m.T)


def build_interaction(config: ModelConfig, kind: str, factors=None) -> np.ndarray:
    """Scaled interaction matrix lambda * M for kind in {"coulomb", "delta"}.

    M is symmetric by construction; the output scales linearly (and exactly)
    in the coupling and must be finite (ConfigError).  With factors, the stack
    (len(factors), dim, dim) of build_interaction(config.scaled(f), kind).
    """
    if kind not in ("coulomb", "delta"):
        raise ConfigError(f"unknown interaction kind '{kind}'")
    dim = build_spectrum(config).n ** 2
    if kind == "coulomb":
        lam, spec, channel = config.coulomb_scale, config.coulomb_matrix, 0
    else:
        lam, spec, channel = config.delta_scale, config.delta_matrix, 1
    M = _base_matrix(spec, dim, config.seed, channel)
    scales = [lam] if factors is None else [f * lam for f in factors]
    peak = float(np.abs(M).max())  # rounding is monotone: scale * M is finite iff this is
    for scale in map(float, scales):
        if not math.isfinite(scale * peak):
            raise ConfigError(f"{kind} scale {scale!r} times its matrix is not finite")
    return lam * M if factors is None else np.multiply.outer(scales, M)
