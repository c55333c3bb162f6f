"""Exception types shared across the package."""


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
