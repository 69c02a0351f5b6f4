"""Exception types raised by the retrieval and simulation pipelines."""


class TubegapError(Exception):
    """Base class for all package-specific failures."""


class DomainError(TubegapError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class SingularMeasurementError(TubegapError):
    """A scattering data point cannot be inverted (e.g. T = 0)."""


class DegenerateSampleError(TubegapError):
    """A transfer matrix maps to an undefined (T, R) pair."""


class IllConditionedSystemError(TubegapError):
    """The interface field system is singular or unreliable; its message names the frequency."""


class ConvergenceError(TubegapError):
    """A modal sum did not settle within the configured tolerance."""


class ResolutionError(TubegapError):
    """A simulation grid cannot resolve the requested geometry or frequency."""


class ConfigError(TubegapError, ValueError):
    """A run configuration file or value is invalid."""
