"""Exception types shared across the package, and how their messages
quote raw input."""

QUOTE_LIMIT = 64


def quoted(raw) -> str:
    """`repr(raw)`, or, past `QUOTE_LIMIT` characters or bytes, the repr of
    its first `QUOTE_LIMIT` and its full length: a message that quotes a
    reader's input stays one short line however long the bad text is."""
    if len(raw) <= QUOTE_LIMIT:
        return repr(raw)
    return f"{raw[:QUOTE_LIMIT]!r}... ({QUOTE_LIMIT} of {len(raw)} shown)"


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
