"""Exception types shared across the toolkit, and the one integer rule, the
one index rule, the one array-size bound and two finiteness rules that
every module applies to its parameters; a rule raises ``ValidationError``
with the message that names a bad value, shown by ``_shown``.

The CLI maps these onto exit codes: validation problems exit with 2,
tensor-file problems with 4.  A failed theorem verification is not an
exception; it is a report with ``passed=False`` (exit 3 at the CLI).
"""

from math import isfinite, isqrt

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


def _shown(value, text=str) -> str:
    """``text(value)``; a Python int too long to print (past the interpreter's
    digit limit, 4,300 by default) by its sign and digit count instead."""
    try:
        return text(value)
    except ValueError:
        size = abs(value)
        digits = int(size.bit_length() * 0.30102999566398120)  # times log10(2): at most one short
        if size >= 10**digits:
            digits += 1
        return f"{'-' if value < 0 else ''}<integer of {digits} digits>"


def _integer_rule(value, name: str, low=None, arrays: bool = False) -> None:
    """An integer that is >= ``low`` when it is given.  An integer is a
    Python int that is not a bool, a NumPy integer, or, with ``arrays`` (and
    then no bound; only ``_index_rule`` passes it), an integer-dtype array;
    a float is never truncated, and a Python int of any size stays an integer."""
    bound = "" if low is None else f" >= {low}"
    if isinstance(value, bool) or not isinstance(value, int):  # np.asarray(2**70) has dtype object
        array = np.asarray(value)
        if array.dtype.kind not in "iu":
            got = _shown(array.flat[:1].tolist()[0], repr) if array.size else "an empty array"
            raise ValidationError(f"{name} must be an integer{bound}, got {got} (dtype {array.dtype})")
        if array.ndim and not arrays:
            raise ValidationError(f"{name} must be an integer{bound}, got an array of shape {array.shape}")
    if low is not None and value < low:
        raise ValidationError(f"{name} must be an integer{bound}, got {_shown(value)}")


def _index_rule(index, name: str, stop, start=0) -> np.ndarray:
    """An integer, or an integer-dtype array, each of whose entries lies in
    [start, stop); otherwise the first entry outside, in row-major order.
    The one range check of an index; returns the index as an array."""
    _integer_rule(index, name, arrays=True)
    index = np.asarray(index)
    bad = index[~((start <= index) & (index < stop))]
    if bad.size:
        raise ValidationError(f"{name} {_shown(bad[0])} out of range [{start}, {stop})")
    return index


def _size_rule(value, name: str, low=None, ndim: int = 1) -> None:
    """An integer >= ``low`` that sizes the largest array a call builds, of
    float64 with ``value`` entries along each of ``ndim`` (1 or 2) axes,
    within the most bytes one array can hold; a larger size is named here
    instead of NumPy failing to allocate it."""
    _integer_rule(value, name, low)
    limit = int(np.iinfo(np.intp).max)
    most = limit // 8 if ndim == 1 else isqrt(limit // 8)
    if value > most:
        raise ValidationError(f"{name} must be at most {most}, the largest size whose array "
                              f"fits in {limit} bytes, got {_shown(value)}")


def _finite_rule(value, name: str, low=None) -> None:
    """A finite number, >= ``low`` when it is given; NaN fails, and so does
    what is not a real number (None, a string, an array), named with its type."""
    try:
        if isfinite(value) and (low is None or value >= low):
            return
    except OverflowError:  # a Python int too large for a float
        value = "an integer too large for a float"
    except TypeError:
        value = f"{value!r} (type {type(value).__name__})"
    raise ValidationError(f"{name} must be finite{'' if low is None else f' and >= {low}'}, got {value}")


def _finite_array_rule(array, name: str) -> None:
    """Every entry finite; otherwise the index of the first that is not."""
    finite = np.isfinite(array)
    if not finite.all():
        raise ValidationError(f"{name} must be finite; first non-finite entry at "
                              f"index {tuple(np.argwhere(~finite)[0].tolist())}")
