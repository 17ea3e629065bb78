"""Exception hierarchy with stable machine-readable codes.

Every error carries a ``code`` (its class name) and an ``exit_status`` used
by the command-line layer: 2 for validation/parse problems, 3 for solver
divergence, 4 for oracle failures.
"""


class MomentBayesError(Exception):
    """Base class for all package errors."""

    exit_status = 2

    @property
    def code(self) -> str:
        return type(self).__name__


class ValidationError(MomentBayesError):
    """Invalid problem data or arguments."""

    exit_status = 2


class LengthMismatch(ValidationError):
    pass


class NonPositivePseudoCount(ValidationError):
    pass


class MomentOutOfRange(ValidationError):
    pass


class DegenerateLabels(ValidationError):
    pass


class OutOfSupport(ValidationError):
    pass


class NoData(ValidationError):
    pass


class ZeroSupport(ValidationError):
    pass


class BadSpec(ValidationError):
    """Malformed spec file (missing field, wrong type, unparseable JSON)."""


class SolverError(MomentBayesError):
    exit_status = 3


class Diverged(SolverError):
    """The solved tilt ``|beta| (f_max - f_min)`` lies past the cap the
    caller set (there is none by default)."""


class NoConvergence(SolverError):
    """A budget ran out before the stopping rule held: the solver's
    evaluations, the contour's spacing halvings, or a series' terms."""


class OracleError(MomentBayesError):
    exit_status = 4


class DimensionTooHigh(OracleError):
    pass


class ToleranceNotMet(OracleError):
    pass


class OracleUnavailable(OracleError):
    """The oracle needs an optional dependency (scipy) that is not installed."""
