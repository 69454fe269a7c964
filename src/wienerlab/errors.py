"""Exception taxonomy.

Usage errors (bad arguments, malformed inputs) derive from ValueError;
mathematical failures (non-invertible symbol, unreachable tolerance, ...)
derive from MathError so callers (and the CLI) can branch on the class.
The raising code passes a failure's numbers as keyword details, each kept
as an attribute; the CLI's exit-2 diagnostic prints them all.
"""


class MathError(RuntimeError):
    """A mathematically meaningful failure, as opposed to a usage error."""

    def __init__(self, message, **details):
        super().__init__(message)
        vars(self).update(details)  # in the order given


class NotInvertibleError(MathError):
    """The symbol could not be certified bounded away from zero (detail: certificate)."""


class SingularSymbolError(MathError):
    """The symbol has unit-circle zeros; use the singular inversion path (detail: unit_roots)."""


class WrongBranchError(MathError):
    """The symbol has no unit-circle zeros; use the stable inversion path."""


class ToleranceUnreachableError(MathError):
    """Grid refinement hit its cap before reaching the requested tolerance (detail: best_residual)."""


class TailBoundError(MathError):
    """Reproduction-sum tail estimate exceeds the requested tolerance (detail: tail_estimate)."""
