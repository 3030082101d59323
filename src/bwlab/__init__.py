"""bwlab: a finite-dimensional laboratory for effective two-particle
Hamiltonians built from relative-energy propagator integrals.

The package constructs small Dirac-like model spaces, solves the no-pair
problem, evaluates the Brillouin-Wigner expansion self-consistently, and
compares the two sign conventions of the combined first-plus-second-order
correction, measuring their difference against the predicted
2 dE <psi|Y|psi> term.
"""

__version__ = "0.1.0"  # set first, so that any submodule can import it

from .bw import EnergyLedger, Resolvent, bw_selfconsistent, bw_terms, solve_no_pair
from .config import RunConfig, config_hash, emit_config, parse_config
from .controversy import (
    ControversyReport,
    combined_variant,
    coupling_scan,
    deltaE1_direct,
    deltaE2b_direct,
    model_oracle,
    predicted_discrepancy,
)
from .errors import (
    BwlabError,
    ConfigError,
    ConvergenceError,
    DegenerateDenominatorError,
    OracleTrackingError,
    QuadratureConvergenceError,
)
from .model import (
    ModelConfig,
    SingleParticleSpectrum,
    TwoParticleBasis,
    build_basis,
    build_interaction,
    build_spectrum,
    dirac_like_energies,
)
from .operators import build_G0, build_HDelta1, build_Hc
from .pipeline import PipelineResult, run_pipeline
from .propagators import (
    contour_integral_Finv,
    j_series,
    propagator_S,
    sandwich_integral,
    xj_matrix,
    xj_matrix_ssum_route,
)
from .quadrature import quadrature_finv, quadrature_oracle
