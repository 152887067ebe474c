"""Exception hierarchy shared by all polywit layers."""


class PolywitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(PolywitError):
    """Matrix or block dimensions are incompatible with the operation."""


class SingularMatrixError(PolywitError):
    """An exact inverse was requested for a singular matrix."""


class RationalLiteralError(PolywitError, ValueError):
    """A scalar literal is not an integer or ``p/q`` with q nonzero."""


class InputDecodeError(PolywitError):
    """An input file is not UTF-8 text, or not valid JSON."""


class PolynomialSyntaxError(PolywitError):
    """Polynomial text does not conform to the input grammar."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class MultilinearityError(PolywitError):
    """A parsed monomial violates the one-use-per-variable requirement."""


class CommutativityError(PolywitError):
    """Matrices assigned to the commuting variables fail to commute."""


class ArityError(PolywitError):
    """An assignment is missing a matrix for a variable the polynomial uses."""


class EmptyPolynomialError(PolywitError):
    """The zero polynomial was passed where a nonzero one is required."""


class PreconditionError(PolywitError):
    """An input violates a documented precondition (e.g. nonzero trace)."""


class ResourceLimitError(PolywitError):
    """A request would build more than a fixed size limit allows."""


class InternalInvariantError(PolywitError):
    """A state the construction proves impossible was reached; always a bug."""
