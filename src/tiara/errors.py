"""Exception types shared across the toolkit, and the one integer rule and
two finiteness rules that every module applies to its parameters; a rule
returns None for a valid value, otherwise the message that names it.

The CLI maps these onto exit codes: validation problems exit with 2,
tensor-file problems with 4.  A failed theorem verification is not an
exception; it is a report with ``passed=False`` (exit 3 at the CLI).
"""

from math import isfinite

import numpy as np


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class ConfigError(ValidationError):
    """A configuration file is malformed or carries an invalid value."""


class PromptParseError(ValidationError):
    """An organized prompt string does not have the expected shape."""


class AlignmentError(ValidationError):
    """Prompts cannot be aligned component-wise."""


class TensorFileError(OSError):
    """A tensor file is malformed; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


def _integer_rule(value, name: str, low=None, arrays: bool = False) -> str | None:
    """An integer that is >= ``low`` when it is given.  An integer is a
    Python int that is not a bool, a NumPy integer, or, with ``arrays`` (and
    then no bound), an integer-dtype array; a float is never truncated, and
    a Python int of any size stays an integer."""
    bound = "" if low is None else f" >= {low}"
    if isinstance(value, bool) or not isinstance(value, int):  # np.asarray(2**70) has dtype object
        array = np.asarray(value)
        if array.dtype.kind not in "iu":
            got = repr(array.flat[:1].tolist()[0]) if array.size else "an empty array"
            return f"{name} must be an integer{bound}, got {got} (dtype {array.dtype})"
        if array.ndim and not arrays:
            return f"{name} must be an integer{bound}, got an array of shape {array.shape}"
    if low is not None and value < low:
        return f"{name} must be an integer{bound}, got {value}"
    return None


def _finite_rule(value, name: str, low=None) -> str | None:
    """A finite number, >= ``low`` when it is given; NaN fails."""
    try:
        if isfinite(value) and (low is None or value >= low):
            return None
    except OverflowError:  # a Python int too large for a float
        value = "an integer too large for a float"
    return f"{name} must be finite{'' if low is None else f' and >= {low}'}, got {value}"


def _finite_array_rule(array, name: str) -> str | None:
    """Every entry finite; otherwise the index of the first that is not."""
    finite = np.isfinite(array)
    return None if finite.all() else (f"{name} must be finite; first non-finite entry at "
                                      f"index {tuple(np.argwhere(~finite)[0].tolist())}")
