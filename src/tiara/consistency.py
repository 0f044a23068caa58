"""Inconsistency error, dynamic components, and homogeneity/separation
measurements on signals and attention maps."""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spectral import Window, as_signal, as_square, dstft_bins

KAPPA_TOLERANCE = 1e-12


@dataclass(frozen=True)
class InconsistencyReport:
    """E(x, tau) for every shift tau, under one window and threshold."""

    per_tau: np.ndarray
    k_threshold: int
    window: Window


def _check_threshold(k_t, n: int) -> int:
    if not isinstance(k_t, (int, np.integer)) or not 1 <= k_t <= n // 2:
        raise ValidationError(f"k_threshold must be an integer in [1, {n // 2}], got {k_t!r}")
    return int(k_t)


def inconsistency_error(x, w: Window, tau: int, k_t: int) -> float:
    """Sum of windowed-transform magnitudes over k in [k_t, N//2] at shift tau."""
    x = as_signal(x)
    k_t = _check_threshold(k_t, len(x))
    ks = np.arange(k_t, len(x) // 2 + 1)
    return float(np.abs(dstft_bins(x, w, int(tau), ks)).sum())


def inconsistency_profile(x, w: Window, k_t: int) -> InconsistencyReport:
    """E(x, tau) for every shift tau in [0, N), from one batched transform."""
    x = as_signal(x)
    n = len(x)
    k_t = _check_threshold(k_t, n)
    ks = np.arange(k_t, n // 2 + 1)
    per_tau = np.abs(dstft_bins(x, w, np.arange(n), ks)).sum(axis=-1)
    return InconsistencyReport(per_tau=per_tau, k_threshold=k_t, window=w)


def dynamic_component(a) -> np.ndarray:
    """Copy of an attention map with the diagonal zeroed.

    The result is deliberately not row-stochastic: row i sums to
    1 - a[i, i].  It captures the influence of all other frames on frame i.
    """
    out = as_square(a, "attention map").copy()
    np.fill_diagonal(out, 0.0)
    return out


def estimate_kappa(x, x_dyn, w: Window, k_t: int, tol: float = KAPPA_TOLERANCE) -> float:
    """Worst-case high-band magnitude ratio |T(x_dyn)| / |T(x)|.

    The maximum runs over every shift tau in [0, N) and frequency
    k in [k_t, N//2]; positions where |T(x)| < tol are skipped (the
    separation bound is vacuous where x has no power).  Returns 0 if every
    position is skipped.
    """
    x = as_signal(x)
    x_dyn = as_signal(x_dyn)
    if len(x) != len(x_dyn):
        raise ValidationError("x and x_dyn must have the same length")
    n = len(x)
    k_t = _check_threshold(k_t, n)
    ks = np.arange(k_t, n // 2 + 1)
    taus = np.arange(n)
    mag_x = np.abs(dstft_bins(x, w, taus, ks))
    mag_d = np.abs(dstft_bins(x_dyn, w, taus, ks))
    keep = mag_x >= tol
    return float((mag_d[keep] / mag_x[keep]).max()) if keep.any() else 0.0


def homogeneity_deviation(a) -> float:
    """Max over i, j, k of |a[i, i+k] - a[j, j+k]| with wrapped indices.

    Zero exactly when the matrix is circulant.
    """
    a = as_square(a, "attention map")
    rows = np.arange(a.shape[0])[:, None]
    diagonals = a[rows, (rows + rows.T) % a.shape[0]]  # diagonals[i, k] = a[i, i+k]
    return float(np.ptp(diagonals, axis=0).max()) if a.size else 0.0
