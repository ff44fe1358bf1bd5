"""Exception types raised across the package."""


class HypresError(Exception):
    """Base class for all package-specific errors.

    `stage` names the pipeline stage that raised it; the stage runner sets
    it, and it stays None outside the pipeline.
    """

    stage: str | None = None


class MatrixInversionError(HypresError):
    """A matrix that must be inverted is singular (carries the energy)."""

    def __init__(self, message, energy=None):
        super().__init__(message)
        self.energy = energy


class ClosedChannelError(HypresError):
    """An operation requires an open channel at the given energy."""


class UnsupportedShapeError(HypresError):
    """Matrix/channel count outside the supported shape (2x2 formulas)."""


class PoleEvaluationError(HypresError):
    """Model evaluated exactly at its pole energy."""


class InconsistentParametersError(HypresError):
    """Pole parameters imply a negative partial width."""


class ValidationError(HypresError):
    """A domain-type invariant is violated at construction."""


class AssemblyError(HypresError):
    """Operator assembly failed (bad domain or singular quadrature node)."""


class EigensolverError(HypresError):
    """Eigenvalue iteration failed to converge."""

    def __init__(self, message, rho=None, iterations=None):
        super().__init__(message)
        self.rho = rho
        self.iterations = iterations


class TrackingError(HypresError):
    """Continuity tracking of eigenvectors/branches lost."""


class MatchingQualityError(HypresError):
    """Asymptotic matching produced an asymmetric reaction matrix."""

    def __init__(self, message, energy=None, defect=None):
        super().__init__(message)
        self.energy = energy
        self.defect = defect


class NoOpenChannelError(HypresError):
    """All channels are closed at the requested energy."""


class BracketError(HypresError):
    """No pole passage (sign change) found in the sample window."""


class FitFailureError(HypresError):
    """Least-squares iteration did not converge (carries best-so-far)."""

    def __init__(self, message, best_params=None, residual=None):
        super().__init__(message)
        self.best_params = best_params
        self.residual = residual


class StageError(HypresError):
    """Pipeline stage cannot produce its output (its `stage` names which)."""


class CacheError(HypresError):
    """A cached stage output is missing or stale."""


class ConfigError(HypresError):
    """Run configuration is missing or inconsistent."""
