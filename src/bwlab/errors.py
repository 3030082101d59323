"""Exception types shared across the package."""


class BwlabError(Exception):
    """Base class for all package errors."""


class ConfigError(BwlabError):
    """Invalid configuration file or model parameters."""


class DegenerateDenominatorError(BwlabError):
    """An energy denominator (or a pinched pole pair) fell below the
    degeneracy threshold.  Model configs are expected to be nondegenerate;
    we abort instead of regularizing."""


class OracleTrackingError(BwlabError):
    """The model oracle lost the reference state: no eigenvector of the
    instantaneous analog overlaps psi_c unambiguously, or the tracked
    eigenvalue is not real."""


class ConvergenceError(BwlabError):
    """An iterative solve failed to converge.  Carries the last iterate."""

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


class QuadratureConvergenceError(ConvergenceError):
    """The quadrature oracle's two contour rules disagree beyond its bound."""
