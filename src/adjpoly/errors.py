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
    """repr(value), but an int of over 20 digits as `<D-digit int>`, signed,
    and one that repr refuses (past 4,300 digits) as a stand-in; a str of
    over 40 characters as its first 40 and its length; a tuple shows each
    item this way."""
    if type(value) is tuple:
        items = ", ".join(map(show, value))
        return f"({items},)" if len(value) == 1 else f"({items})"
    if type(value) is str and len(value) > 40:
        return f"{value[:40]!r}... ({len(value)} characters)"
    try:
        text = repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
    digits = len(text.lstrip("-"))
    if isinstance(value, int) and digits > 20:
        return f"{text[:-digits]}<{digits}-digit int>"
    return text
