"""Exception hierarchy shared by all psrewrite modules."""


class RewritingError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(RewritingError):
    """Operands live over different numbers of variables."""


class ZeroOrUnknownLeadingError(RewritingError):
    """Leading term requested but the known support is empty, so the
    minimum of the support is not determined by the stored data."""


class NotReducibleError(RewritingError):
    """A single reduction step was requested at a monomial/rule pair that
    does not satisfy the reduction preconditions."""


class PrecisionUnattainableError(RewritingError):
    """Input or rule truncations cap the reachable precision below the
    requested target."""


class InvalidTraceError(RewritingError):
    """Replaying a reduction trace does not reproduce its recorded data."""


class InvalidConversionError(RewritingError):
    """A conversion's steps do not match the edges of the finite system."""


class PreconditionFailedError(RewritingError):
    """A stated operation hypothesis does not hold for the given input."""


class InvariantViolationError(RewritingError):
    """An internal consistency check failed: the engine produced a state
    its own construction rules out."""


class ParseError(RewritingError):
    """Text input rejected by the series/system grammar."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
