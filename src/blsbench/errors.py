"""Exception types shared across the package."""


class BlsBenchError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(BlsBenchError, ValueError):
    """Operand shapes are incompatible."""


class NonFiniteInput(BlsBenchError, ValueError):
    """An input matrix contains NaN or Inf entries."""


class FactorizationFailure(BlsBenchError, RuntimeError):
    """A linear system factorization failed (indefinite or singular matrix)."""


class ClassBalanceError(BlsBenchError, ValueError):
    """A required class is missing or has too few samples."""


class DataFormatError(BlsBenchError, ValueError):
    """A dataset or table file could not be parsed."""


class ConfigError(BlsBenchError, ValueError):
    """A model or run configuration is invalid."""
