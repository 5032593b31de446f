"""Exception hierarchy shared across the package."""


class FolijetError(Exception):
    """Base class for all package errors."""


class SpaceMismatch(FolijetError):
    """Two series over different spaces were combined."""


class DomainError(FolijetError):
    """An operation was evaluated outside its real-analytic domain."""


class ExprSyntaxError(FolijetError):
    """Expression text failed to parse.

    Carries a 1-based (line, column) position and a short description of
    what was expected.
    """

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownFunction(ExprSyntaxError):
    """A call used a function name outside the frozen function set."""


class UnboundVariable(FolijetError):
    """Evaluation hit a free variable not bound in the environment."""


class SchemaError(FolijetError):
    """An atlas document does not conform to the expected schema."""


class InvariantViolation(FolijetError):
    """A structural invariant of a loaded object failed."""


class OutsideOverlap(FolijetError):
    """A point fed to a transition lies outside the declared overlap."""


class OrderError(FolijetError):
    """Invalid pair of jet orders for an inclusion."""


class ShapeError(FolijetError):
    """A matrix argument has the wrong shape."""


class ExcludedPoint(FolijetError):
    """Evaluation was requested at a point of the excluded set."""


class SingularHessian(FolijetError):
    """The vertical Hessian is (numerically) non-invertible."""


class SingularMetric(FolijetError):
    """A metric matrix is (numerically) non-invertible."""


class NoConvergence(FolijetError):
    """An iterative solve exhausted its iteration budget."""
