"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: parse errors exit 2, precondition
errors exit 3, numerical errors exit 4.
"""


class CircjoinError(Exception):
    """Base class for all package-specific errors."""


class ParseError(CircjoinError, ValueError):
    """A textual input (join document, state file, part spec) is malformed."""


class PreconditionError(CircjoinError, ValueError):
    """An operation was called with inputs outside its contract."""


class NumericalError(CircjoinError):
    """A numerical procedure failed to deliver a trustworthy result."""


class ConvergenceError(NumericalError):
    """LAPACK's eigenvalue iteration did not converge."""


class IllConditionedError(NumericalError):
    """Rank decisions were inconsistent; the input is numerically ambiguous."""


class DivergenceError(NumericalError):
    """A trajectory left the representable range."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


class VerificationError(NumericalError):
    """A residual check (--verify) failed or was not finite."""
