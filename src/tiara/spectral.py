"""Discrete Fourier and short-time Fourier transforms with window functions.

A signal is a 1-D array of finite floats, indexed periodically: sample n
means sample n mod N everywhere in this module (``dstft_bins`` and
``dstft_magnitudes`` also take a stack of signals along leading axes).
``dft`` sums its one coefficient directly.

Both stacked kernels share one core.  A block of signals at a time,
within the package's one block budget (_BLOCK_BYTES, walked by _blocks),
it gathers each signal's L windowed taps at its shift, takes one real FFT
of the period, and writes ``dstft_bins`` the bins times the per-shift
phase, ``dstft_magnitudes`` their modulus.  NumPy's pocketfft transforms
each row alone with one plan per length, so neither the block nor the
stack changes a signal's bits, as a BLAS product would (OpenBLAS gemm
rounds a row differently in a 2-row and in a 4,096-row call).  The period
may exceed the signal length, with the taps still read N-periodically:
``attention``'s one walk over attention rows transforms their periodic
padding that way, unbuilt.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ValidationError, _finite_array_rule, _index_rule, _integer_rule, _size_rule

WINDOW_KINDS = ("rectangular", "hann", "gaussian", "blackman")

GAUSSIAN_SIGMA = 0.4

# Bytes one block holds in every blocked loop, read by _blocks at each call: the core's taps and
# rfft bins, homogeneity_deviation's rows with their copy, dump-all's frames.
_BLOCK_BYTES = 1 << 20


def _blocks(count: int, item_bytes: int) -> list[slice]:
    """Consecutive slices of range(count), each within _BLOCK_BYTES or of one item."""
    step = max(1, _BLOCK_BYTES // max(1, item_bytes))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


@dataclass(frozen=True)
class Window:
    """A sampled window function.

    Coefficient j multiplies sample m + j - L//2 when the window is placed
    at shift m, i.e. the window is centred on m.
    """

    kind: str
    coefficients: np.ndarray

    @property
    def length(self) -> int:
        return len(self.coefficients)

    @property
    def half(self) -> int:
        return len(self.coefficients) // 2


@dataclass(frozen=True)
class Spectrogram:
    """Complex short-time coefficients indexed by (shift m, frequency k)."""

    coefficients: np.ndarray
    signal_length: int
    window: Window


def as_signal(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValidationError(f"signal must be a 1-D sequence of length >= 1, got shape {x.shape}")
    _finite_array_rule(x, "signal")
    return x


def as_square(a, name: str, stacked: bool = False) -> np.ndarray:
    """Float array of one square matrix, or with ``stacked`` of a stack of
    them with shape (..., N, N)."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or (a.ndim > 2 and not stacked):
        kind = "square matrices (..., N, N)" if stacked else "a square matrix"
        raise ValidationError(f"{name} must be {kind}, got shape {a.shape}")
    return a


def _kind_rule(kind, name: str) -> None:
    if not (isinstance(kind, str) and kind in WINDOW_KINDS):  # an array would compare entrywise
        raise ValidationError(f"unknown {name} {kind!r}; expected one of {WINDOW_KINDS}")


_window_length_rule = partial(_size_rule, low=1)


def make_window(kind: str, length: int) -> Window:
    """Build a window of the given kind and length.

    Closed forms (length L, index j): rectangular 1; Hann
    0.5 - 0.5 cos(2 pi j / (L-1)); Blackman 0.42 - 0.5 cos(2 pi j / (L-1))
    + 0.08 cos(4 pi j / (L-1)); Gaussian exp(-((j - (L-1)/2) / (sigma (L-1)/2))^2 / 2)
    with sigma = 0.4.  L = 1 degenerates to [1] for every kind.  Windows are
    symmetrised exactly (coeff[j] == coeff[L-1-j] bit-for-bit) and clipped
    to [0, 1] to absorb sign noise at endpoints that are zero analytically.
    """
    _kind_rule(kind, "window kind")
    _window_length_rule(length, "window length")
    length = int(length)
    if length == 1 or kind == "rectangular":
        coeffs = np.ones(length)
    else:
        j = np.arange((length + 1) // 2, dtype=float)
        if kind == "hann":
            half = 0.5 - 0.5 * np.cos(2.0 * np.pi * j / (length - 1))
        elif kind == "blackman":
            half = (0.42 - 0.5 * np.cos(2.0 * np.pi * j / (length - 1))
                    + 0.08 * np.cos(4.0 * np.pi * j / (length - 1)))
        else:  # gaussian
            centre = (length - 1) / 2.0
            half = np.exp(-0.5 * ((j - centre) / (GAUSSIAN_SIGMA * (length - 1) / 2.0)) ** 2)
        half = np.clip(half, 0.0, 1.0)
        coeffs = np.concatenate([half, half[: length // 2][::-1]])
    coeffs.setflags(write=False)
    return Window(kind=kind, coefficients=coeffs)


def _check_frequency(k, n: int) -> int:
    _integer_rule(k, "frequency index")  # one index: dft takes no arrays
    return int(_index_rule(k, "frequency index", n))


def dft(x, k: int) -> complex:
    """DFT coefficient sum_n x_n exp(-2i pi k n / N) for 0 <= k < N."""
    x = as_signal(x)
    n = len(x)
    k = _check_frequency(k, n)
    # k*t reduced mod N first, as in the kernel's roots table: unreduced, it reaches ~N^2
    # and the angle's rounding error grows with it
    return complex(np.sum(x * np.exp(-2j * np.pi * (k * np.arange(n) % n) / n)))


def _windowed_sums(x, w: Window, m, ks, phased: bool, period: int | None = None) -> np.ndarray:
    """Each stacked signal's transform at its shift, for every k in ``ks``:
    the coefficient with ``phased``, otherwise its modulus.

    Per block of s signals, the taps t_j = x[(m + j - L//2) mod N] psi_j are
    gathered as (s, L), folded onto the period P = period or N when L > P,
    and zero-padded to P by one rfft, giving sum_j t_j exp(-2i pi j k / P)
    for k <= P/2; bin k is read at min(k, P - k), conjugated above P/2.  The
    coefficient is that times the phase exp(-2i pi ((m - L//2) k mod P) / P).
    """
    x = np.asarray(x, dtype=float)
    m = np.asarray(m)
    n = x.shape[-1]
    period = n if period is None else period
    ks = np.asarray(ks) % period  # frequency k is read P-periodically
    shape = np.broadcast_shapes(x.shape[:-1], m.shape)
    # signal s of the stack is row rows[s] of x, read at shift shifts[s]
    rows = np.broadcast_to(np.arange(x[..., 0].size).reshape(x.shape[:-1]), shape).ravel()
    shifts = np.broadcast_to(m, shape).ravel()
    signals = x.reshape(-1, n)  # once: a view of a contiguous stack
    offsets = np.arange(w.length) - w.half
    bins = np.minimum(ks, period - ks)  # a real signal's bin k is the conjugate of its bin P - k
    roots = np.exp(-2j * np.pi * np.arange(period) / period)
    out = np.empty((len(shifts), len(ks)), dtype=complex if phased else float)
    # bytes per signal: its taps with their indices, the rfft's bins, the K read from them, the phase's
    per_signal = 24 * w.length + 16 * (period // 2 + 1) + (48 if phased else 16) * len(ks)
    for block in _blocks(len(shifts), per_signal):
        taps = signals[rows[block, None], (shifts[block, None] + offsets) % n]
        taps *= w.coefficients
        for start in range(period, w.length, period):  # fold the taps past the period onto it
            taps[:, :min(period, w.length - start)] += taps[:, start:start + period]
        sums = np.fft.rfft(taps[:, :period], n=period)[:, bins]
        if phased:
            np.conjugate(sums, out=sums, where=ks > period // 2)
            # out of place: an in-place complex multiply rounds short arrays differently
            np.multiply(roots[((shifts[block, None] - w.half) * ks) % period], sums, out=out[block])
        else:
            np.abs(sums, out=out[block])
    return out.reshape(shape + (len(ks),))


def dstft_bins(x, w: Window, m, ks) -> np.ndarray:
    """Windowed transform of a stack of signals, one shift per signal.

    Signals lie along the last axis of ``x`` (period N = x.shape[-1]); ``m``
    holds one shift per signal and broadcasts against ``x.shape[:-1]``, so
    the result has shape broadcast(x.shape[:-1], m.shape) + (len(ks),).  The
    sum runs over the window support; sample positions m + j - L//2 and the
    complex exponential are both taken N-periodically, matching the
    periodic extension used throughout.  The exponential factors into the
    per-shift phase exp(-2i pi ((m - L//2) k mod N) / N), read from a table
    of the N-th roots of unity, times the real FFT of the L windowed taps,
    which ``dstft_magnitudes`` reads without the phase.  Each signal gets
    the same bits whatever is stacked beside it (see the module docstring).
    """
    return _windowed_sums(x, w, m, ks, phased=True)


def dstft_magnitudes(x, w: Window, m, ks) -> np.ndarray:
    """|dstft_bins(x, w, m, ks)|, in the same shape, without forming the phase.

    The phase has modulus one, so this is the modulus of the real FFT of
    the windowed taps alone.  It matches np.abs of ``dstft_bins`` to
    rounding, not bit for bit (that path rounds one more complex multiply),
    and each signal gets the same bits whatever is stacked beside it.
    """
    return _windowed_sums(x, w, m, ks, phased=False)


def dstft(x, w: Window, m: int, k: int) -> complex:
    """Short-time coefficient sum_n x_n psi_{n-m} exp(-2i pi k n / N).

    With a rectangular window of length N this equals ``dft(x, k)`` for any
    shift m.  m may be any integer (periodic); k must lie in [0, N).  Each
    call takes one real FFT of length N for its one coefficient; to read
    many, call ``dstft_bins`` once.
    """
    x = as_signal(x)
    k = _check_frequency(k, len(x))
    _integer_rule(m, "m")
    return complex(dstft_bins(x, w, int(m) % len(x), np.array([k]))[0])


def pad_periodic(x, left: int, right: int) -> np.ndarray:
    """Extend a signal by wrapping: prepend the last ``left`` samples and
    append the first ``right`` (repeating whole periods as needed)."""
    x = as_signal(x)
    _integer_rule(left, "left", 0)
    _integer_rule(right, "right", 0)
    _size_rule(len(x) + int(left) + int(right), "padded length len(x) + left + right")
    idx = np.arange(-int(left), len(x) + int(right)) % len(x)
    return x[idx]


def spectrogram(x, w: Window) -> Spectrogram:
    """All N x N short-time coefficients of a signal under one window."""
    x = as_signal(x)
    n = len(x)
    coeffs = dstft_bins(x, w, np.arange(n), np.arange(n))
    return Spectrogram(coefficients=coeffs, signal_length=n, window=w)
