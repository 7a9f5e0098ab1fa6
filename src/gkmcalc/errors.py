"""Exception hierarchy shared by all gkmcalc modules."""


class GkmError(Exception):
    """Base class for all errors raised by this package."""


class ZeroWeightError(GkmError):
    """A zero linear form was used where a nonzero weight is required."""


class NotDivisibleError(GkmError):
    """Exact division by a weight failed (the congruence does not hold)."""


class PolynomialParseError(GkmError):
    """A polynomial string did not match the expected grammar."""


class NoSolutionError(GkmError):
    """A congruence system has no homogeneous solution.

    Carries ``generator`` (the vertex whose generator failed) and ``vertex``
    (where its value could not be solved) when raised while solving on a
    graph: the graph is then not realizable as a cell complex satisfying
    the validator's rules.
    """

    def __init__(self, message, vertex=None, generator=None):
        super().__init__(message)
        self.vertex = vertex
        self.generator = generator


class NonUniqueError(GkmError):
    """The congruence system does not pin down a unique solution."""

    def __init__(self, message, dimension):
        super().__init__(message)
        self.dimension = dimension


class NonIntegralError(GkmError):
    """A Z-mode computation produced a non-integer coefficient.

    This is a first-class outcome, not a crash: ``witness`` holds the
    offending polynomial, ``vertex`` the graph vertex and ``generator`` the
    vertex whose generator was being solved, when applicable.
    """

    def __init__(self, message, witness=None, vertex=None, generator=None):
        super().__init__(message)
        self.witness = witness
        self.vertex = vertex
        self.generator = generator


class MissingVertexValueError(GkmError):
    """A cohomology class is not defined on every vertex of the graph."""


class InvalidParabolicError(GkmError):
    """Parabolic node indices are not a subset of the diagram nodes."""


class NotFiniteTypeError(GkmError):
    """An operation restricted to finite-type Cartan matrices got another kind."""


class UnsupportedTypeError(GkmError):
    """No builder is available for the requested group or Cartan matrix."""


class ValidationFailureError(GkmError):
    """A graph operation requiring a valid graph received an invalid one."""

    def __init__(self, report):
        super().__init__("graph failed validation:\n" + report.format_text())
        self.report = report


class NotInSpanError(GkmError):
    """A class could not be expanded in the generator basis.

    Signals either an insufficient degree cutoff or an input that is not a
    GKM class; ``vertex`` names where the expansion broke down and ``edge``
    the down-edge whose weight did not divide the residual, if one did not.
    """

    def __init__(self, message, vertex=None, edge=None):
        super().__init__(message)
        self.vertex = vertex
        self.edge = edge


class CutoffTooSmallError(GkmError):
    """The graph or basis was not built to a high enough degree."""


class CoprimalityViolatedError(GkmError):
    """Weights that must be pairwise coprime are not."""


class NotFactorableError(GkmError):
    """A restriction value is not a scalar times a product of weights."""
