"""Exception hierarchy shared across the package: every error is a
`FolijetError`, and an argument that does not fit is a `ShapeError`."""


class FolijetError(Exception):
    """Base class for all package errors."""


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


class ShapeError(FolijetError):
    """An argument does not fit: a jet point's order or dimension against
    its field's (`jets.check_fit`), an order below 1 or an inclusion's pair
    of orders, series over different spaces, or a wrong-shaped array."""


class ExcludedPoint(FolijetError):
    """Evaluation was requested at a point of the excluded set."""


class SingularHessian(FolijetError):
    """The vertical Hessian is (numerically) non-invertible."""


class SingularMetric(FolijetError):
    """A metric matrix is (numerically) non-invertible."""


class NoConvergence(FolijetError):
    """An iterative solve exhausted its iteration budget."""
