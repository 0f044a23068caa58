"""Temporal attention scores, the additive reweighting matrix, and the
motion-adaptive reweighting pipeline.

Logits are pre-softmax frame-to-frame scores (any key-dimension scaling is
assumed already applied by the producer).  The pipeline softmaxes them,
estimates a per-frame motion intensity from the windowed spectrum of each
attention row, writes -alpha * (1 - rho_i) onto the diagonal of a corner
penalty matrix, and re-softmaxes the shifted logits.  Every step batches
over leading axes: a (..., N, N) stack is processed as independent maps,
and each map gets the same bits as when it is processed alone.
"""

from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import ValidationError
from .spectral import Window, as_square, dstft_bins


@dataclass(frozen=True)
class ReweightMatrix:
    """Additive pre-softmax penalty: non-positive entries on the diagonal
    and in the two anti-diagonal corner triangles, zero elsewhere."""

    matrix: np.ndarray
    alpha: float
    corner_size: int
    corner_penalty: float


@dataclass(frozen=True)
class MotionProfile:
    """Per-frame motion intensities, the band that produced them, and the
    one-sided row spectra (shape rho.shape + (Npad//2 + 1,)) behind them."""

    rho: np.ndarray
    phi1: int
    phi2: int
    window: Window
    spectra: np.ndarray


@dataclass(frozen=True)
class TiaraResult:
    outputs: np.ndarray
    attention: np.ndarray
    rho: np.ndarray


def as_logits(scores) -> np.ndarray:
    scores = as_square(scores, "logits", stacked=True)
    if not np.all(np.isfinite(scores)):
        raise ValidationError("logits must be finite")
    return scores


def softmax_rows(logits) -> np.ndarray:
    """Softmax over the last axis with max-subtraction for stability."""
    scores = np.asarray(logits, dtype=float)
    # a fully masked (all -inf) row comes out NaN, for the caller to reject
    with np.errstate(invalid="ignore"):
        shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def reweighted_attention(logits, penalty, values):
    """Apply an additive penalty before the softmax.

    Returns ``(attention, output)`` where ``attention`` is the row-softmax
    of ``logits + penalty`` and ``output = attention @ values``.  Logits and
    penalty have shape (..., N, N) and values (..., N, d_v), or (N,) for a
    single map.  A zero penalty reproduces plain attention exactly.
    """
    logits = as_logits(logits)
    lam = penalty.matrix if isinstance(penalty, ReweightMatrix) else np.asarray(penalty, dtype=float)
    if lam.shape != logits.shape:
        raise ValidationError(f"penalty shape {lam.shape} does not match logits shape {logits.shape}")
    values = np.asarray(values, dtype=float)
    frames = values.shape if values.ndim == 1 else values.shape[:-1]
    if frames != logits.shape[:-1]:
        raise ValidationError(
            f"values shape {values.shape} does not match logits shape {logits.shape}")
    attention = softmax_rows(logits + lam)
    return attention, attention @ values


def row_spectrum(row, window: Window, i) -> np.ndarray:
    """One-sided magnitude spectrum of an attention row around frame i.

    The row's mean is removed (the static level carries no motion), the
    deviation is padded periodically by L//2 on each side, and the windowed
    transform is taken at the padded position of sample i.  Returned
    magnitudes cover frequency indices 0 .. floor(Npad/2) of the padded
    transform.  Rows may be stacked as (..., N), with ``i`` broadcast
    against the leading axes.
    """
    row = np.asarray(row, dtype=float)
    n = row.shape[-1]
    i = np.asarray(i)
    if np.any((i < 0) | (i >= n)):
        raise ValidationError(f"row index {i} out of range [0, {n})")
    finite = np.isfinite(row)
    if not finite.all():
        raise ValidationError("attention rows must be finite; first non-finite entry at "
                              f"index {tuple(np.argwhere(~finite)[0].tolist())}")
    half = window.half
    deviation = row - row.mean(axis=-1, keepdims=True)
    padded = deviation[..., np.arange(-half, n + half) % n]
    ks = np.arange((n + 2 * half) // 2 + 1)
    return np.abs(dstft_bins(padded, window, i + half, ks))


def _band(n: int, window: Window, phi1, phi2) -> tuple[int, int]:
    """Resolve the default band thresholds of an N-frame row and check them."""
    npad = n + 2 * window.half
    if phi1 is None:
        phi1 = ceil(npad / 8)
    if phi2 is None:
        phi2 = npad // 2 + 1
    if not (isinstance(phi1, (int, np.integer)) and isinstance(phi2, (int, np.integer))):
        raise ValidationError("phi1 and phi2 must be integers")
    if not 0 <= phi1 < phi2 <= npad // 2 + 1:
        raise ValidationError(
            f"thresholds must satisfy 0 <= phi1 < phi2 <= {npad // 2 + 1}, got ({phi1}, {phi2})")
    return int(phi1), int(phi2)


def _high_band_fraction(rows: np.ndarray, spectra: np.ndarray, phi1: int, phi2: int) -> np.ndarray:
    power = spectra[..., :phi2] ** 2
    denominator = power.sum(axis=-1)
    moving = (rows.max(axis=-1) != rows.min(axis=-1)) & (denominator != 0.0)
    return np.divide(power[..., phi1:].sum(axis=-1), denominator,
                     out=np.zeros(denominator.shape), where=moving)


def motion_intensity(row, window: Window, i: int, phi1: int | None = None,
                     phi2: int | None = None) -> float:
    """Fraction of a row's windowed spectral power in the high band.

    The power ratio sum_{phi1 <= k < phi2} / sum_{k < phi2} is taken over
    the one-sided spectrum of the padded row (length Npad = N + 2*(L//2)),
    so 0 <= phi1 < phi2 <= Npad//2 + 1.  Defaults: phi1 = ceil(Npad/8),
    phi2 = Npad//2 + 1.  Rows with zero variation have no motion by
    definition and return 0.0 exactly, as does a vanishing spectrum.
    """
    row = np.asarray(row, dtype=float)
    phi1, phi2 = _band(len(row), window, phi1, phi2)
    return float(_high_band_fraction(row, row_spectrum(row, window, i), phi1, phi2))


def motion_profile(attention_map, window: Window, phi1: int | None = None,
                   phi2: int | None = None) -> MotionProfile:
    """Motion intensity of every row of an attention map (row i at shift i).

    Maps may be stacked as (..., N, N); rho then has shape (..., N).
    """
    a = as_square(attention_map, "attention map", stacked=True)
    n = a.shape[-1]
    phi1, phi2 = _band(n, window, phi1, phi2)
    spectra = row_spectrum(a, window, np.arange(n))
    return MotionProfile(rho=_high_band_fraction(a, spectra, phi1, phi2), phi1=phi1,
                         phi2=phi2, window=window, spectra=spectra)


def build_reweight_matrix(rho, alpha: float, corner_size: int,
                          corner_penalty: float) -> ReweightMatrix:
    """Assemble the penalty matrix: diagonal entry i is -alpha * (1 - rho_i),
    and the c-sized upper-right / lower-left corner triangles get -beta.

    A stack of rho vectors (..., N) gives a stack of matrices (..., N, N).
    """
    rho = np.asarray(getattr(rho, "rho", rho), dtype=float)
    if rho.ndim < 1:
        raise ValidationError("rho must be a sequence (or a stack of them)")
    if np.any(rho < 0) or np.any(rho > 1):
        raise ValidationError("motion intensities must lie in [0, 1]")
    if alpha < 0 or corner_penalty < 0:
        raise ValidationError("alpha and corner_penalty must be >= 0")
    n = rho.shape[-1]
    if not 0 <= corner_size <= n // 2:
        raise ValidationError(f"corner_size must lie in [0, {n // 2}], got {corner_size}")
    i, j = np.indices((n, n))
    corner = (i + (n - 1 - j) < corner_size) | ((n - 1 - i) + j < corner_size)
    lam = np.zeros(rho.shape + (n,))
    lam[..., corner] = -corner_penalty
    lam[..., np.arange(n), np.arange(n)] = -alpha * (1.0 - rho)
    return ReweightMatrix(matrix=lam, alpha=float(alpha), corner_size=int(corner_size),
                          corner_penalty=float(corner_penalty))


def tiara(logits_field, values_field, window: Window, phi1: int | None = None,
          phi2: int | None = None, alpha: float = 6.0, corner_size: int | None = None,
          corner_penalty: float | None = None) -> TiaraResult:
    """Motion-adaptive attention reweighting over a spatial field.

    ``logits_field`` has shape (H, W, N, N) and ``values_field``
    (H, W, N, d_v).  The plain attention maps of all locations are formed
    at once, per-row motion intensities set the diagonal of each location's
    penalty on top of the corner base matrix, and the output is the
    re-softmaxed attention applied to the values.  Locations are
    independent: each gets the same bits as when it is run alone.

    ``corner_size`` defaults to N//4 and ``corner_penalty`` to alpha/2.
    With alpha = 0 and corner_penalty = 0 the output equals plain attention.
    """
    logits_field = np.asarray(logits_field, dtype=float)
    values_field = np.asarray(values_field, dtype=float)
    if logits_field.ndim != 4 or logits_field.shape[2] != logits_field.shape[3]:
        raise ValidationError(f"logits field must have shape (H, W, N, N), got {logits_field.shape}")
    if values_field.ndim != 4 or values_field.shape[:3] != logits_field.shape[:3]:
        raise ValidationError(
            f"values field shape {values_field.shape} does not match logits field {logits_field.shape}")
    n = logits_field.shape[2]
    if corner_size is None:
        corner_size = n // 4
    if corner_penalty is None:
        corner_penalty = alpha / 2.0
    profile = motion_profile(softmax_rows(logits_field), window, phi1, phi2)
    penalty = build_reweight_matrix(profile, alpha, corner_size, corner_penalty)
    attention, outputs = reweighted_attention(logits_field, penalty, values_field)
    return TiaraResult(outputs=outputs, attention=attention, rho=profile.rho)
