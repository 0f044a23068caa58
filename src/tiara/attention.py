"""Temporal attention scores, the additive reweighting matrix, and the
motion-adaptive reweighting pipeline.

Logits are pre-softmax frame-to-frame scores (any key-dimension scaling is
assumed already applied by the producer).  The pipeline softmaxes them,
estimates a per-frame motion intensity from the windowed spectrum of each
attention row, and penalises the logits by -alpha * (1 - rho_i) on the
diagonal and -beta on two corner triangles.  ``tiara`` forms the softmax
of the penalised logits by rescaling the first softmax's penalised entries
and renormalising its rows.  Every step batches over leading axes: a
(..., N, N) stack is processed as independent maps, and each map gets the
same bits as when it is processed alone.
"""

from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import ValidationError, _finite_array_rule, _finite_rule, _index_rule, _integer_rule, _shown
from .spectral import Window, _blocks, _windowed_sums, as_square

# A row whose rescaled sum falls below this is re-softmaxed directly: an entry that underflowed
# in the first softmax then costs at most eps of absolute error once the row is divided.
_RESCALE_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


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
    """Per-frame motion intensities (``motion_intensity``), the band, and the
    one-sided spectra of the periodically padded rows, shape rho.shape +
    (Npad//2 + 1,) (``row_spectrum``): each row is transformed once."""

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


def as_field(logits_field) -> np.ndarray:
    """Float array of a logits field, shape (H, W, N, N)."""
    field = np.asarray(logits_field, dtype=float)
    if field.ndim != 4 or field.shape[2] != field.shape[3]:
        raise ValidationError(f"logits field must have shape (H, W, N, N), got {field.shape}")
    return field


def softmax_rows(logits) -> np.ndarray:
    """Softmax over the last axis with max-subtraction for stability.  The
    one rule for logit values: -inf masks an entry (weight exactly 0); a row
    whose max is not finite (NaN, +inf, or all masked) is rejected.  The
    result is built in one new array; the input is never written."""
    scores = np.asarray(logits, dtype=float)
    if scores.ndim == 0 or scores.shape[-1] == 0:
        raise ValidationError(f"softmax rows must have at least one frame, got shape {scores.shape}")
    peak = scores.max(axis=-1, keepdims=True)
    if not np.isfinite(peak).all():
        row = tuple(np.argwhere(~np.isfinite(peak))[0, :-1].tolist())
        top = peak[row][0]
        reason = "holds NaN" if np.isnan(top) else "holds +inf" if top > 0 else "is fully masked"
        raise ValidationError(f"logits row {row} {reason}")
    e = np.subtract(scores, peak)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def reweighted_attention(logits, penalty, values):
    """Apply an additive penalty before the softmax.

    Returns ``(attention, output)`` where ``attention`` is the row-softmax
    of ``logits + penalty`` and ``output = attention @ values``.  Logits and
    penalty have shape (..., N, N) and values (..., N, d_v), or (N,) for a
    single map.  Penalty entries must be <= 0 (-inf masks); a NaN or
    positive entry is rejected.  A zero penalty reproduces plain attention
    exactly.
    """
    logits = as_square(logits, "logits", stacked=True)
    lam = penalty.matrix if isinstance(penalty, ReweightMatrix) else np.asarray(penalty, dtype=float)
    if lam.shape != logits.shape:
        raise ValidationError(f"penalty shape {lam.shape} does not match logits shape {logits.shape}")
    allowed = lam <= 0.0  # -inf masks an entry, like a -inf logit
    if not allowed.all():
        index = tuple(np.argwhere(~allowed)[0].tolist())
        reason = "holds NaN" if np.isnan(lam[index]) else f"is positive ({float(lam[index])!r})"
        raise ValidationError(f"penalty entry {index} {reason}")
    values = np.asarray(values, dtype=float)
    frames = values.shape if values.ndim == 1 else values.shape[:-1]
    if frames != logits.shape[:-1]:
        raise ValidationError(
            f"values shape {values.shape} does not match logits shape {logits.shape}")
    _finite_array_rule(values, "values")
    attention = softmax_rows(logits + lam)
    return attention, attention @ values


def _rows_at(row, i) -> tuple[np.ndarray, np.ndarray]:
    """Finite float rows (..., N) with N >= 1, and integer frame indices in
    [0, N) that broadcast against the rows' leading axes."""
    row = np.asarray(row, dtype=float)
    if row.ndim == 0 or row.shape[-1] == 0:
        raise ValidationError(f"attention rows must have shape (..., N) with N >= 1, got shape {row.shape}")
    i = _index_rule(i, "row index", row.shape[-1])
    _finite_array_rule(row, "attention rows")
    try:
        np.broadcast_shapes(row.shape[:-1], i.shape)
    except ValueError:
        raise ValidationError(f"frame indices of shape {i.shape} do not broadcast against "
                              f"attention rows of shape {row.shape}") from None
    return row, i


def row_spectrum(row, window: Window, i) -> np.ndarray:
    """One-sided magnitude spectrum of an attention row around frame i.

    By definition the row's mean is removed (the static level carries no
    motion), the deviation is padded periodically by L//2 on each side to
    Npad = N + 2*(L//2) samples, and the windowed transform of period Npad
    is taken at the padded position of sample i.  Returned magnitudes cover
    frequency indices 0 .. floor(Npad/2).  No padded row is built: the
    window there covers deviation samples i - L//2 .. i + L//2 taken
    N-periodically, which are the padded samples exactly, so the kernel
    reads them from each row's deviation with Npad as its period.  Rows may
    be stacked as (..., N), with ``i`` broadcast against the leading axes
    (one row read at many frames is gathered a block of frames at a time,
    never as one copy per frame); ``i`` must have an integer dtype.
    """
    return _motion(*_rows_at(row, i), window, None, None, spectra=True)[1]


def _strength_rule(value, name: str) -> None:
    if value is not None:  # None is unset
        _finite_rule(value, name, 0)


def _corner_size_rule(size, name: str, n: int | None = None) -> None:
    if size is not None:
        _integer_rule(size, name, 0)
        if n is not None and not size <= n // 2:
            raise ValidationError(f"{name} must be <= N//2 = {n // 2}, got {_shown(size)}")


def _band_rule(phi1, phi2, npad: int | None = None) -> None:
    """Each None (unset) or an integer; with Npad known, phi2 <= Npad//2 + 1."""
    for phi, name, low in ((phi1, "phi1", 0), (phi2, "phi2", 1)):
        if phi is not None:
            _integer_rule(phi, name, low)
    if phi1 is not None and phi2 is not None and not phi1 < phi2:
        raise ValidationError(f"phi1 must be < phi2, got {_shown(phi1)} >= {_shown(phi2)}")
    if phi2 is not None and npad is not None and not phi2 <= npad // 2 + 1:
        raise ValidationError(f"phi2 must be <= Npad//2 + 1 = {npad // 2 + 1}, got {_shown(phi2)}")


def _band(n: int, window: Window, phi1, phi2) -> tuple[int, int, int]:
    """The checked band thresholds of an N-frame row, and Npad = N + 2*(L//2)."""
    npad = n + 2 * window.half
    phi1 = min(ceil(npad / 8), npad // 2) if phi1 is None else phi1
    phi2 = npad // 2 + 1 if phi2 is None else phi2
    _band_rule(phi1, phi2, npad)
    return int(phi1), int(phi2), npad


def _motion(rows: np.ndarray, i, window: Window, phi1, phi2, spectra: bool = False):
    """``motion_intensity`` of finite rows (..., N) at valid frames ``i``
    (broadcast against the leading axes), a block of rows at a time, as
    (rho, None), or with ``spectra`` as (rho, ``row_spectrum``).  Every bin
    0 .. Npad//2 is transformed, by one kernel call per block."""
    n = rows.shape[-1]
    phi1, phi2, npad = _band(n, window, phi1, phi2)
    ks = np.arange(npad // 2 + 1)
    shape = np.broadcast_shapes(rows.shape[:-1], np.shape(i))
    signals = rows.reshape(-1, n)
    frames = np.broadcast_to(i, shape).ravel()
    picks = None if len(signals) == len(frames) else np.broadcast_to(  # the row of each frame
        np.arange(len(signals)).reshape(rows.shape[:-1]), shape).ravel()
    rho = np.zeros(len(frames))
    out = np.empty((len(frames), len(ks))) if spectra else None
    # bytes per row: copy, deviation, the kernel's tap indices and taps, its two complex bin arrays, moduli
    for block in _blocks(len(frames), 8 * (2 * n + 2 * window.length + 5 * len(ks))):
        x = signals[block] if picks is None else signals[picks[block]]
        moving = (x != x[:, :1]).any(axis=-1)  # max != min
        x = x - x.mean(axis=-1, keepdims=True)
        magnitudes = _windowed_sums(x, window, frames[block], ks, phased=False, period=npad)
        if spectra:
            out[block] = magnitudes
        power = magnitudes ** 2
        total = power[:, :phi2].sum(axis=-1)
        high = np.maximum(total - power[:, :phi1].sum(axis=-1), 0.0)
        np.divide(high, total, out=rho[block], where=moving & (total != 0.0))
    return rho.reshape(shape), None if out is None else out.reshape(shape + (len(ks),))


def motion_intensity(row, window: Window, i: int, phi1: int | None = None,
                     phi2: int | None = None) -> float:
    """Fraction of a row's windowed spectral power in the high band.

    p_k = |X_k|^2 is the one-sided spectrum of the mean-removed row read as
    periodically padded to Npad = N + 2*(L//2) samples (``row_spectrum``),
    with 0 <= phi1 < phi2 <= Npad//2 + 1.  With total = sum_{k < phi2} p_k
    and low = sum_{k < phi1} p_k, rho = max(total - low, 0) / total, so
    0 <= rho <= 1 holds in floating point too.  Both sums are read from
    the row's one spectrum, whose Npad//2 + 1 bins come from one real FFT;
    for the default phi2 = Npad//2 + 1, total is the whole one-sided power.
    Defaults: phi2 = Npad//2 + 1 and
    phi1 = min(ceil(Npad/8), Npad//2).  Rows with zero variation have no
    motion by definition and return 0.0 exactly, as does a vanishing
    spectrum.
    """
    row = np.asarray(row, dtype=float)
    if row.ndim != 1:
        raise ValidationError(f"attention row must have shape (N,), got shape {row.shape}")
    _integer_rule(i, "row index")  # one row, one frame: row_spectrum also takes arrays
    return float(_motion(*_rows_at(row, i), window, phi1, phi2)[0])


def motion_profile(attention_map, window: Window, phi1: int | None = None,
                   phi2: int | None = None) -> MotionProfile:
    """Motion intensity of every row of an attention map (row i at shift i),
    with the full spectra of the rows.

    Maps may be stacked as (..., N, N); rho then has shape (..., N).
    """
    a = as_square(attention_map, "attention map", stacked=True)
    phi1, phi2, _ = _band(a.shape[-1], window, phi1, phi2)  # the band is named before the rows
    rho, spectra = _motion(*_rows_at(a, np.arange(a.shape[-1])), window, phi1, phi2, spectra=True)
    return MotionProfile(rho=rho, phi1=phi1, phi2=phi2, window=window, spectra=spectra)


def _penalty(rho: np.ndarray, alpha, corner_size, corner_penalty):
    """The checked parts of the penalty lambda for rho (..., N): its (N, N)
    corner part (-beta on the two corner triangles, 0 elsewhere), the corner
    size and penalty beta, and its diagonal (..., N)."""
    if not np.all((rho >= 0.0) & (rho <= 1.0)):  # NaN fails both comparisons
        raise ValidationError("rho (motion intensities) must lie in [0, 1]")
    n = rho.shape[-1]
    _finite_rule(alpha, "alpha", 0)
    _strength_rule(corner_penalty, "corner_penalty")
    _corner_size_rule(corner_size, "corner_size", n)
    corner_size = int(n // 4 if corner_size is None else corner_size)
    beta = float(alpha / 2.0 if corner_penalty is None else corner_penalty)
    i, j = np.indices((n, n))
    corner = np.where((i + (n - 1 - j) < corner_size) | ((n - 1 - i) + j < corner_size), -beta, 0.0)
    return corner, corner_size, beta, -alpha * (1.0 - rho)


def build_reweight_matrix(rho, alpha: float, corner_size: int | None = None,
                          corner_penalty: float | None = None) -> ReweightMatrix:
    """Assemble the penalty matrix: diagonal entry i is -alpha * (1 - rho_i),
    and the c-sized upper-right / lower-left corner triangles get -beta.
    ``corner_size`` defaults to N//4 and ``corner_penalty`` to alpha/2.

    A stack of rho vectors (..., N) gives a stack of matrices (..., N, N).
    """
    try:
        rho = np.asarray(getattr(rho, "rho", rho), dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, or an entry that is no float
        raise ValidationError("rho must be a regular array of numbers") from None
    if rho.ndim < 1:
        raise ValidationError("rho must be a sequence (or a stack of them)")
    corner, corner_size, corner_penalty, diagonal = _penalty(rho, alpha, corner_size, corner_penalty)
    n = rho.shape[-1]
    lam = np.broadcast_to(corner, rho.shape + (n,)).copy()  # zeros + corner would turn -0.0 into 0.0
    lam[..., np.arange(n), np.arange(n)] = diagonal
    return ReweightMatrix(matrix=lam, alpha=float(alpha), corner_size=corner_size,
                          corner_penalty=corner_penalty)


def tiara(logits_field, values_field, window: Window, phi1: int | None = None,
          phi2: int | None = None, alpha: float = 6.0, corner_size: int | None = None,
          corner_penalty: float | None = None) -> TiaraResult:
    """Motion-adaptive attention reweighting over a spatial field.

    ``logits_field`` has shape (H, W, N, N) and ``values_field``
    (H, W, N, d_v).  The attention maps a = softmax(l) of all locations are
    formed at once, and per-row motion intensities set the diagonal of each
    location's penalty lambda on top of the corner base matrix
    (``build_reweight_matrix``).  lambda is zero elsewhere, so the
    reweighted attention softmax(l + lambda) is a with the penalised entries
    scaled by e^lambda and each row divided by its new sum; no lambda array
    is built.  A row whose new sum falls below tiny/eps (about 1e-292), as
    when a penalty below -745 meets a row whose other entries underflowed
    in a, is re-softmaxed from l + lambda directly.  The output is that
    attention applied to the values.  Locations are independent: each gets
    the same bits as when it is run alone.

    ``corner_size`` defaults to N//4 and ``corner_penalty`` to alpha/2.
    With alpha = 0 and corner_penalty = 0 the output is plain attention, to
    rounding.
    """
    logits_field = as_field(logits_field)
    values_field = np.asarray(values_field, dtype=float)
    if values_field.ndim != 4 or values_field.shape[:3] != logits_field.shape[:3]:
        raise ValidationError(
            f"values field shape {values_field.shape} does not match logits field {logits_field.shape}")
    attention = softmax_rows(logits_field)
    frames = np.arange(attention.shape[-1])
    rho = _motion(attention, frames, window, phi1, phi2)[0]
    corner, _, _, diagonal = _penalty(rho, alpha, corner_size, corner_penalty)
    _finite_array_rule(values_field, "values")
    attention *= np.exp(corner)
    attention[..., frames, frames] *= np.exp(diagonal)
    total = attention.sum(axis=-1, keepdims=True)
    kept = total >= _RESCALE_FLOOR
    np.divide(attention, total, out=attention, where=kept)
    if not kept.all():
        rows = np.nonzero(~kept[..., 0])  # (h, w, i) of each row to re-softmax
        lam = corner[rows[-1]]
        lam[np.arange(len(lam)), rows[-1]] = diagonal[rows]
        attention[rows] = softmax_rows(logits_field[rows] + lam)
    return TiaraResult(outputs=attention @ values_field, attention=attention, rho=rho)
