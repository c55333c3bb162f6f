"""Exception types shared across the package, and how their messages
quote raw input."""

QUOTE_LIMIT = 64


def quoted(raw) -> str:
    """`repr(raw)`, cut past `QUOTE_LIMIT` characters or bytes: a str or
    bytes shows the repr of its first `QUOTE_LIMIT`, any other value the
    first `QUOTE_LIMIT` characters of its repr, then the full length.  A
    message that quotes a reader's input or a parsed value stays one short
    line however long it is."""
    text = raw if isinstance(raw, (str, bytes)) else repr(raw)
    if len(text) <= QUOTE_LIMIT:
        return repr(raw)
    head = repr(text[:QUOTE_LIMIT]) if text is raw else text[:QUOTE_LIMIT]
    return f"{head}... ({QUOTE_LIMIT} of {len(text)} shown)"


class ShapeError(ValueError):
    """Input has the wrong dimensions for the requested operation."""


class ParseError(ValueError):
    """Malformed file content."""


class ProbabilityError(ValueError):
    """A probability vector has a negative, NaN or infinite entry, or sums to 0."""


class UnsupportedDepthError(ParseError):
    """Image file uses a sample depth other than 8 bits."""


class CapacityError(ValueError):
    """Requested register exceeds the supported simulation size."""


class RegisterWidthError(ValueError):
    """A register width is not an int of at least 1 (a bool is not one)."""


class HistogramInconsistencyError(ValueError):
    """Histogram encodes contradictory digit assignments for one basis slot."""
