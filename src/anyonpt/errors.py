"""Exception types shared across the package."""


class AnyonptError(Exception):
    """Base class for all package errors."""


class ContractError(AnyonptError, ValueError):
    """An operation was called outside its documented preconditions."""


class DomainError(AnyonptError, ValueError):
    """Mathematically invalid input (pole proximity, out-of-range parameter)."""


class NumericalError(AnyonptError, RuntimeError):
    """A numerical procedure failed or produced an unusable result."""


class DivergenceError(NumericalError):
    """Field amplitude exceeded the overflow guard during time stepping."""


class InconclusiveError(NumericalError):
    """A measurement was requested before the observable settled."""


class ConfigError(AnyonptError, ValueError):
    """Invalid or inconsistent experiment configuration."""
