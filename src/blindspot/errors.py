"""Exception types shared across the package, and the one rule each for
integer and float arguments."""

import operator

__all__ = ["InputError", "InvariantViolation", "MissingPrimaryDiagnosis"]


class InputError(ValueError):
    """Invalid caller-supplied data or parameters: bad files, malformed rows,
    out-of-range arguments.  The CLI maps this to exit code 2."""


class MissingPrimaryDiagnosis(InputError):
    """An admission record carries no sequence-1 diagnosis code."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed.  Indicates a bug in this package,
    not bad input.  The CLI maps this to exit code 3."""


def _check_int(value, what: str, least=None) -> int:
    """``value`` as an int (anything with ``__index__``), at least ``least``
    when given; otherwise an InputError naming ``what``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {type(value).__name__}") from None
    if least is not None and value < least:
        raise InputError(f"{what} must be >= {least}, got {value}")
    return value


def _check_float(value, what: str) -> float:
    """``value`` as a float; otherwise an InputError naming ``what``.  Text is
    not a number here, although ``float`` would parse it."""
    if not isinstance(value, (str, bytes, bytearray)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise InputError(f"{what} must be a number, got {type(value).__name__}")
