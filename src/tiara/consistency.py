"""Inconsistency error, dynamic components, and homogeneity/separation
measurements on signals and attention maps."""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _finite_rule, _integer_rule, _shown
from .spectral import Window, _blocks, as_signal, as_square, dstft_magnitudes

KAPPA_TOLERANCE = 1e-12


@dataclass(frozen=True)
class InconsistencyReport:
    """E(x, tau) for every shift tau, under one window and threshold."""

    per_tau: np.ndarray
    k_threshold: int
    window: Window


def _k_threshold_rule(k_t, name: str, n: int | None = None) -> None:
    _integer_rule(k_t, name, 1)
    if n is not None and not k_t <= n // 2:
        raise ValidationError(f"{name} must be <= N//2 = {n // 2}, got {_shown(k_t)}")


def high_band(x, w: Window, k_t: int, tau=None) -> np.ndarray:
    """Magnitudes |T(x)| over k in [k_t, N//2]: one row per shift tau in
    [0, N), or the single row of the integer shift ``tau`` when it is given.
    The whole table is one ``dstft_magnitudes`` call, which bounds its
    own temporaries at any N."""
    x = as_signal(x)
    n = len(x)
    _k_threshold_rule(k_t, "k_threshold", n)
    if tau is not None:
        _integer_rule(tau, "tau")
    taus = np.arange(n) if tau is None else int(tau) % n
    return dstft_magnitudes(x, w, taus, np.arange(k_t, n // 2 + 1))


def inconsistency_error(x, w: Window, tau: int, k_t: int) -> float:
    """Sum of windowed-transform magnitudes over k in [k_t, N//2] at shift tau."""
    return float(high_band(x, w, k_t, tau).sum())


def inconsistency_profile(x, w: Window, k_t: int) -> InconsistencyReport:
    """E(x, tau) for every shift tau in [0, N), from one batched transform."""
    per_tau = high_band(x, w, k_t).sum(axis=-1)  # high_band has checked k_t
    return InconsistencyReport(per_tau=per_tau, k_threshold=int(k_t), window=w)


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
    k in [k_t, N//2]; positions where |T(x)| < tol (finite, >= 0) are
    skipped, as the bound is vacuous there, and at tol = 0 those where
    |T(x)| is 0, which have no ratio.  Returns 0 if all are skipped.
    """
    x = as_signal(x)
    x_dyn = as_signal(x_dyn)
    if len(x) != len(x_dyn):
        raise ValidationError("x and x_dyn must have the same length")
    return _error_and_kappa(x, x_dyn, w, k_t, tol)[1]


def _error_and_kappa(x, x_dyn, w: Window, k_t: int, tol: float = KAPPA_TOLERANCE):
    """E(x, tau) per shift and ``estimate_kappa``'s kappa of one signal pair,
    from one transform of the stacked pair: x_dyn's table is divided in place."""
    x = as_signal(x)
    _k_threshold_rule(k_t, "k_threshold", len(x))
    _finite_rule(tol, "tol", 0)
    pair = np.stack((x, as_signal(x_dyn)))[:, None]  # each signal at every shift
    mag_x, ratio = dstft_magnitudes(pair, w, np.arange(len(x)), np.arange(k_t, len(x) // 2 + 1))
    keep = mag_x >= tol if tol else mag_x > 0  # a zero |T(x)| has no ratio
    np.divide(ratio, mag_x, out=ratio, where=keep)
    return mag_x.sum(axis=-1), float(ratio.max(where=keep, initial=0.0))


def homogeneity_deviation(a) -> float:
    """Max over i, j, k of |a[i, i+k] - a[j, j+k]| with wrapped indices.

    Zero exactly when the matrix is circulant.  Rows are read a block at a
    time, each block with its copy within the kernel's one block budget
    (``spectral._blocks``), keeping a running max and min per diagonal k;
    both are exact, so blocking does not change the bits.
    """
    a = as_square(a, "attention map")
    n = a.shape[0]
    if not n:
        return 0.0
    top = np.full(n, -np.inf)
    bottom = np.full(n, np.inf)
    for block in _blocks(n, 16 * n):
        twice = np.tile(a[block], 2)  # each row followed by itself
        row_step, column_step = twice.strides
        # diagonals[i, k] = twice[i, s + i + k] = a[s + i, (s + i + k) % n], s = block.start
        diagonals = np.lib.stride_tricks.as_strided(
            twice[:, block.start:], shape=(len(twice), n), strides=(row_step + column_step, column_step),
            writeable=False)
        np.maximum(top, diagonals.max(axis=0), out=top)
        np.minimum(bottom, diagonals.min(axis=0), out=bottom)
    return float((top - bottom).max())
