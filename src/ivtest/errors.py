"""Semantic exception hierarchy shared across the package."""


class IVTestError(Exception):
    """Base error for this package."""


class ValidationError(IVTestError, ValueError):
    """Inputs violate a contract: domain, shape, normalization, or format."""


class NonAtomicityError(IVTestError):
    """A point mass prevents an operation that requires a non-atomic measure."""


class EmptyBinError(ValidationError):
    """A discretization bin that must be populated received no samples."""


class MarginalMismatchError(IVTestError):
    """A generator was paired with a joint law it was not built from."""


class DegenerateGridError(ValidationError):
    """The z-grid is too small for the requested test."""
