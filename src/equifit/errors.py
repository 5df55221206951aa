"""Exception types shared across the package."""


class EquifitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(EquifitError):
    """Shapes of objective, constraint matrix, and right-hand side disagree."""


class NumericFailure(EquifitError):
    """The simplex stalled or produced a solution that fails verification."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class ParseError(EquifitError):
    """A basis spec string could not be parsed.

    Carries the character position and the set of token kinds that would
    have been accepted there.
    """

    def __init__(self, message, position, expected=(), found=""):
        super().__init__(message)
        self.position = position
        self.expected = tuple(expected)
        self.found = found


class DimensionError(EquifitError):
    """An expression references a coordinate beyond the declared dimension."""


class EvaluationError(EquifitError):
    """A basis function produced a non-finite value at some point."""

    def __init__(self, message, point_index=None, label=None):
        super().__init__(message)
        self.point_index = point_index
        self.label = label


class SolverError(EquifitError):
    """The fit could not be computed; wraps failures of the LP layer."""


class DegenerateCase(EquifitError):
    """Exact interpolation or a rank-deficient design; certificate analysis
    is not defined for these inputs."""


class PreconditionError(EquifitError):
    """An operation was invoked outside its stated preconditions."""


class DuplicateNodeError(EquifitError):
    """Interpolation nodes are not pairwise distinct."""


class TooLarge(EquifitError):
    """Instance exceeds the size bounds of the brute-force solver."""


class NoCandidate(EquifitError):
    """No optimal witness candidate: a rank-deficient or ill-conditioned design."""
