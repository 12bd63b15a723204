"""Exception types shared across the package, and `show` for their messages."""


class AdjPolyError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AdjPolyError):
    """Malformed graph input text."""


class ValidationError(AdjPolyError):
    """Structurally invalid graph (self-loop, duplicate edge, disconnected, ...)."""


class ZeroNormal(AdjPolyError):
    """The zero vector is not a valid inner normal."""


class NotAFacet(AdjPolyError):
    """The minimizer set of the given normal is not (n-1)-dimensional."""


class TooLarge(AdjPolyError):
    """Input exceeds a guard rail on the work or the size of an answer."""


class InternalInconsistency(AdjPolyError):
    """A cross-check that must hold by construction failed; indicates a bug."""


class DomainError(AdjPolyError):
    """Counting formula evaluated outside its domain."""


def show(value: object) -> str:
    """repr(value), or a stand-in where repr refuses an int of over 4,300 digits."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
