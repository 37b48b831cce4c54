"""Exception types shared across the package."""


class NewtonBenchError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(NewtonBenchError):
    """Operands have incompatible dimensions."""


class SingularMatrix(NewtonBenchError):
    """A (regularized) linear system is numerically singular."""


class NonFiniteResult(NewtonBenchError):
    """A computation produced or received NaN/inf values."""


class TooLarge(NewtonBenchError):
    """Input exceeds a hard size limit of an exhaustive routine."""


class ConfigError(NewtonBenchError):
    """Invalid experiment or CLI configuration."""
