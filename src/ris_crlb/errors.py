"""Exception types shared across the package."""


class RisCrlbError(Exception):
    """Base class for all package-specific errors."""


class RankDeficientError(RisCrlbError):
    """A matrix that must have full column rank does not (numerically)."""


class DimensionMismatchError(RisCrlbError):
    """Operand shapes are incompatible."""


class ConfigError(RisCrlbError):
    """Invalid experiment configuration; the message names the offending field."""
