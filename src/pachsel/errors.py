"""Exception types shared across the package.

The CLI maps these onto distinct exit codes (see cli.py), so new error
conditions should reuse one of the classes below rather than raising bare
ValueError from user-facing paths.
"""


class PachselError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(PachselError):
    """Input points/vectors do not live in the expected ambient dimension."""


class PreconditionError(PachselError):
    """A documented operation precondition was violated by the caller."""


class GeneralPositionError(PreconditionError):
    """A required general-position assumption fails; names its witness tuple."""

    def __init__(self, message, witness=None):
        super().__init__(message if witness is None else f"{message}: witness {witness}")
        self.witness = witness


class BudgetExceededError(PachselError):
    """A retry or enumeration budget was exhausted before success."""


class InputValidationError(PreconditionError):
    """Structured input (certificate, configuration, file) is inconsistent."""


class ParseError(PachselError):
    """A structured input file could not be parsed against its schema."""


class InternalInvariantError(PachselError):
    """A mathematically guaranteed property failed; indicates a bug."""
