"""Exception types shared across the package."""


class EBChannelsError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(EBChannelsError):
    """Input matrix deviates from Hermiticity beyond tolerance."""


class DimensionMismatch(EBChannelsError):
    """Matrix/vector dimensions are inconsistent with the requested operation."""


class BadDimension(EBChannelsError):
    """Requested Hilbert-space dimension is not supported."""


class NotAState(EBChannelsError):
    """Matrix is not a valid density operator (Hermitian, unit trace)."""


class BadAxis(EBChannelsError):
    """Rotation axis is not a unit vector."""


class NotCP(EBChannelsError):
    """Channel is not completely positive (Choi matrix has a negative eigenvalue)."""

    def __init__(self, message: str, min_eig: float):
        super().__init__(message)
        self.min_eig = min_eig


class PreconditionViolated(EBChannelsError):
    """A closed-form criterion was invoked outside its domain of validity."""


class NegativeTime(EBChannelsError):
    """Dynamical families are only defined for t >= 0."""


class InvalidParameter(EBChannelsError):
    """Family or search parameter outside its allowed range."""


class NonPositiveOutput(EBChannelsError):
    """An abstract affine map produced a matrix with a negative eigenvalue."""

    def __init__(self, message: str, min_eig: float):
        super().__init__(message)
        self.min_eig = min_eig


class ConvergenceFailure(EBChannelsError):
    """Iterative solver failed to converge within its sweep budget."""
