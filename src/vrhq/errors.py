"""Exception types shared across the package."""


class VrhqError(Exception):
    """Base class for all library errors."""


class DegenerateScale(VrhqError):
    """The ratio 2^(n-1) / tail_degree(n, r) is undefined because r >= n."""


class DimensionTooLarge(VrhqError):
    """Explicit materialization of a hypercube graph above the configured ceiling."""


class TooLarge(VrhqError):
    """A resource cap was exceeded (simplex count, matrix size, subset enumeration)."""


class IsolatedVertex(VrhqError):
    """Total domination is undefined for graphs with isolated vertices."""


class ParseError(VrhqError):
    """Malformed input text; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InconsistentHeader(ParseError):
    """Header counts disagree with the body of the file."""


class OddCount(VrhqError):
    """A cross-polytope witness needs an even number of vertices."""


class DuplicateVertex(VrhqError):
    """Vertex lists for witness checks must be duplicate-free."""


class DimensionOutOfRange(VrhqError):
    """Requested a boundary operator outside the built dimension range."""


class TruncationTooShallow(VrhqError):
    """The complex was not built deep enough for the requested homology degree."""


class SelfCheckFailed(VrhqError):
    """A result failed the check made before it is returned: a bug, not bad input."""
