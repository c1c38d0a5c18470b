"""Exception types shared across the library."""


class SwiptError(Exception):
    """Base class for all library errors."""


class InvalidInputError(SwiptError, ValueError):
    """Malformed argument: wrong shape, non-finite entries, bad identifier."""


class ChannelFormatError(InvalidInputError):
    """Channel document failed schema validation; message names the field path."""


class SingularMatrixError(SwiptError):
    """Matrix is numerically singular where an inverse factor is required."""


class DegenerateChannelError(SwiptError):
    """Channel carries no usable signal dimensions."""


class InfeasibleTargetError(SwiptError):
    """Requested energy target exceeds what any feasible input can deliver."""

    def __init__(self, message, max_attainable=None):
        super().__init__(message)
        self.max_attainable = max_attainable


class InvariantViolationError(SwiptError):
    """A computed result broke one of its declared invariants."""

