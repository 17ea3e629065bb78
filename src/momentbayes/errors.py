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
    """No answer that meets its stopping rule.  The solver raises it when its
    evaluations run out, when no float is left inside its bracket, when the
    seed's tilt is past the float range or the target lies within a
    subnormal distance of an edge label, and from ``full_update``'s check
    on the residual and the mean sum.  The contour raises it when its
    spacing halvings run out, a node pass exceeds its cap, its tail bound
    does not fall, or its terms do not decay; the Kummer series when its
    terms run out."""


class OracleError(MomentBayesError):
    exit_status = 4


class DimensionTooHigh(OracleError):
    pass


class ToleranceNotMet(OracleError):
    pass
