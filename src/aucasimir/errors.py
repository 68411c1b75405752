"""Shared exception types."""


class DataFormatError(ValueError):
    """A data or config file could not be parsed or failed validation."""


class ConfigError(ValueError):
    """A run configuration is incomplete or inconsistent."""


class ConvergenceError(RuntimeError):
    """A quadrature, sum, fit or root search failed: it could not reach its
    accuracy, or its bracket holds no sign change."""


class DomainError(ValueError):
    """A computed quantity left its physical domain, e.g. eps(i zeta) <= 1."""
