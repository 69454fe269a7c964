"""Exception taxonomy.

Usage errors (bad arguments, malformed inputs) derive from ValueError;
mathematical failures (non-invertible symbol, unreachable tolerance, ...)
derive from MathError so callers (and the CLI) can branch on the class.
"""


class MathError(RuntimeError):
    """A mathematically meaningful failure, as opposed to a usage error."""


class NotInvertibleError(MathError):
    """The symbol could not be certified bounded away from zero."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class SingularSymbolError(MathError):
    """The symbol has unit-circle zeros; use the singular inversion path."""

    def __init__(self, message, unit_roots=()):
        super().__init__(message)
        self.unit_roots = list(unit_roots)


class WrongBranchError(MathError):
    """The symbol has no unit-circle zeros; use the stable inversion path."""


class ToleranceUnreachableError(MathError):
    """Grid refinement hit its cap before reaching the requested tolerance."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class TailBoundError(MathError):
    """Reproduction-sum tail estimate exceeds the requested tolerance."""

    def __init__(self, message, tail_estimate=None):
        super().__init__(message)
        self.tail_estimate = tail_estimate
