"""Exception types shared across the package."""


class TensorstatError(Exception):
    """Base class for all package errors."""


class DomainError(TensorstatError):
    """Input lies outside the mathematical domain of an operation."""


class InvalidAlgebraError(DomainError):
    """Family/rank combination does not name a simple Lie algebra."""


class WeylGroupTooLargeError(DomainError):
    """Enumerating W, or a sum over it, would exceed the element cap."""

    def __init__(self, message: str, order: int):
        super().__init__(message)
        self.order = order


class NonRegularError(DomainError):
    """A point required to be regular pairs to zero with some root."""


class LegendreDomainError(DomainError):
    """Dual point does not exist: xi outside the Legendre domain."""


class ConvergenceError(TensorstatError):
    """Iterative solver failed to converge within its iteration budget."""


class GridCoverageError(DomainError):
    """Comparison grid does not capture enough of the limit mass."""


class EntryCapExceededError(DomainError):
    """Decomposition table grew past the configured entry cap."""


class InternalConsistencyError(TensorstatError):
    """An internal cross-check failed; indicates a bug, not bad input."""
