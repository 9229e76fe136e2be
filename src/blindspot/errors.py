"""Exception types shared across the package."""

__all__ = ["InputError", "InvariantViolation", "MissingPrimaryDiagnosis"]


class InputError(ValueError):
    """Invalid caller-supplied data or parameters: bad files, malformed rows,
    out-of-range arguments.  The CLI maps this to exit code 2."""


class MissingPrimaryDiagnosis(InputError):
    """An admission record carries no sequence-1 diagnosis code."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed.  Indicates a bug in this package,
    not bad input.  The CLI maps this to exit code 3."""
