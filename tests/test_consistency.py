"""Tests for tiara.consistency: inconsistency error, dynamic components,
homogeneity and separation measurements."""

import re

import numpy as np
import pytest

from tiara import (ValidationError, consistency, dynamic_component, estimate_kappa,
                   homogeneity_deviation, inconsistency_error, inconsistency_profile,
                   make_window, motion_profile, row_spectrum, softmax_rows, spectral)
from tiara.consistency import KAPPA_TOLERANCE, _error_and_kappa, high_band
from tiara.spectral import dstft_bins, dstft_magnitudes

from oracles import naive_dstft


class TestInconsistencyError:
    def test_constant_signal_full_rectangular_window(self):
        # all power at DC; under the full-length rectangular window the
        # high-frequency coefficients vanish to rounding noise
        x = np.full(16, 3.7)
        w = make_window("rectangular", 16)
        for k_t in (1, 4, 8):
            assert inconsistency_error(x, w, 0, k_t) < 1e-10

    def test_pure_nyquist_tone(self):
        x = np.array([1.0, -1.0] * 4)
        w = make_window("rectangular", 8)
        assert inconsistency_error(x, w, 0, 4) == pytest.approx(8.0, rel=1e-12)

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal(18)
        w = make_window("blackman", 7)
        for tau in range(18):
            expected = sum(abs(naive_dstft(list(x), list(w.coefficients), tau, k))
                           for k in range(5, 10))
            assert inconsistency_error(x, w, tau, 5) == pytest.approx(expected, abs=1e-10)

    def test_threshold_validation(self):
        w = make_window("hann", 5)
        with pytest.raises(ValidationError, match="k_threshold"):
            inconsistency_error(np.ones(8), w, 0, 0)
        with pytest.raises(ValidationError, match="k_threshold"):
            inconsistency_error(np.ones(8), w, 0, 5)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(14)
        w = make_window("gaussian", 7)
        base = inconsistency_error(x, w, 3, 2)
        assert inconsistency_error(-2.5 * x, w, 3, 2) == pytest.approx(2.5 * base, abs=1e-12 * base)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(43)
        w = make_window("hann", 7)
        for trial in range(10):
            x = rng.standard_normal(12)
            y = rng.standard_normal(12)
            for tau in (0, 5, 11):
                lhs = inconsistency_error(x + y, w, tau, 2)
                rhs = inconsistency_error(x, w, tau, 2) + inconsistency_error(y, w, tau, 2)
                assert lhs <= rhs + 1e-12

    def test_profile_covers_all_shifts(self):
        rng = np.random.default_rng(44)
        x = rng.standard_normal(10)
        w = make_window("blackman", 5)
        report = inconsistency_profile(x, w, 2)
        assert report.per_tau.shape == (10,)
        for tau in range(10):
            assert report.per_tau[tau] == inconsistency_error(x, w, tau, 2)


class TestHighBand:
    def test_rows_are_the_single_shifts(self):
        rng = np.random.default_rng(51)
        x = rng.standard_normal(11)
        w = make_window("hann", 5)
        table = high_band(x, w, 2)
        assert table.shape == (11, 4)
        for tau in range(11):
            assert np.array_equal(table[tau], high_band(x, w, 2, tau))

    def test_matches_brute_force_magnitudes(self):
        rng = np.random.default_rng(52)
        x = rng.standard_normal(10)
        w = make_window("blackman", 7)
        coeffs = list(w.coefficients)
        expected = [[abs(naive_dstft(list(x), coeffs, tau, k)) for k in range(3, 6)]
                    for tau in range(10)]
        assert np.allclose(high_band(x, w, 3), expected, rtol=0, atol=1e-12)

    def test_profile_and_kappa_are_read_from_the_tables(self):
        rng = np.random.default_rng(53)
        x, x_dyn = rng.standard_normal(12), rng.standard_normal(12)
        w = make_window("gaussian", 5)
        assert np.array_equal(inconsistency_profile(x, w, 2).per_tau,
                              high_band(x, w, 2).sum(axis=-1))
        assert estimate_kappa(x, x_dyn, w, 2) == _masked_copy_kappa(x, x_dyn, w, 2, KAPPA_TOLERANCE)

    def test_threshold_validation(self):
        with pytest.raises(ValidationError, match="k_threshold"):
            high_band(np.ones(8), make_window("hann", 3), 5)

    @pytest.mark.parametrize("tau, got", [(1.5, "1.5 (dtype float64)"), (np.nan, "nan (dtype float64)"),
                                          (True, "True (dtype bool)")])
    def test_non_integer_shift_rejected(self, tau, got):
        # nan raised a plain ValueError from int(), and 1.5 was truncated to 1
        w = make_window("hann", 3)
        message = rf"^tau must be an integer, got {re.escape(got)}$"
        with pytest.raises(ValidationError, match=message):
            high_band(np.arange(8.0), w, 2, tau)
        with pytest.raises(ValidationError, match=message):
            inconsistency_error(np.arange(8.0), w, tau, 2)

    # one signal per block, and four per block with the last block partial
    # (42 broadcast signals, 21 shifts, 66 field rows, 18 rows of 3 frames
    # under a 13-tap window: the transform period 15 is not the row length)
    @pytest.mark.parametrize("signals_per_block", [1, 4])
    @pytest.mark.parametrize("call", ["dstft_bins", "dstft_magnitudes", "high_band", "motion_profile",
                                      "row_spectrum"])
    def test_blocks_give_the_bits_of_one_transform(self, monkeypatch, call, signals_per_block):
        rng = np.random.default_rng(54)
        w = make_window("blackman", 7)
        x, m, ks = rng.standard_normal((2, 1, 1, 21)), rng.integers(-21, 42, size=(3, 7)), np.arange(3, 11)
        field = softmax_rows(rng.standard_normal((2, 3, 11, 11)))
        short = rng.standard_normal((6, 3, 3))
        # the arrays each call returns, and its bins per signal
        run, bins = {
            "dstft_bins": (lambda: [dstft_bins(x, w, m, ks)], 8),
            "dstft_magnitudes": (lambda: [dstft_magnitudes(x, w, m, ks)], 8),
            "high_band": (lambda: [high_band(x[0, 0, 0], w, 3), high_band(x[0, 0, 0], w, 3, 7)], 8),
            "motion_profile": (lambda: [(p := motion_profile(field, w)).rho, p.spectra], 9),
            "row_spectrum": (lambda: [row_spectrum(short, make_window("hann", 13), np.arange(3))], 8),
        }[call]
        expected = run()  # one block under the default budget
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 16 * bins * signals_per_block)
        for got, want in zip(run(), expected, strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_one_transform_at_any_length(self, monkeypatch):
        # at N = 2048 the table took 32 kernel calls, one per block of 64 shifts
        calls = []
        real = consistency.dstft_magnitudes

        def counting(*args):
            calls.append(np.shape(args[2]))
            return real(*args)

        monkeypatch.setattr(consistency, "dstft_magnitudes", counting)
        table = high_band(np.random.default_rng(55).standard_normal(2048), make_window("blackman", 9), 4)
        assert table.shape == (2048, 1021)
        assert calls == [(2048,)]


def _masked_copy_kappa(x, x_dyn, w, k_t, tol):
    """kappa read through masked copies of both tables: the oracle for the
    in-place reduction."""
    mag_x, mag_d = high_band(x, w, k_t), high_band(x_dyn, w, k_t)
    keep = mag_x >= tol
    return float((mag_d[keep] / mag_x[keep]).max()) if keep.any() else 0.0


class TestSeparation:
    """The separation coefficient kappa, with E(x, tau), from the one
    reduction of a signal pair (x, x_dyn)."""

    @staticmethod
    def _pairs():
        rng = np.random.default_rng(56)
        for n, kind, length in ((7, "hann", 3), (16, "blackman", 9), (33, "gaussian", 8),
                                (64, "rectangular", 1)):
            yield rng.standard_normal(n), rng.standard_normal(n), make_window(kind, length)

    def test_error_is_the_row_sum_of_the_table(self):
        for x, x_dyn, w in self._pairs():
            e_x, _ = _error_and_kappa(x, x_dyn, w, 2)
            assert np.array_equal(e_x, high_band(x, w, 2).sum(axis=-1))

    def test_skips_positions_below_tolerance(self):
        # tols at quantiles of |T(x)|; the smallest magnitudes give the
        # largest ratios, so a floor above them lowers kappa
        for x, x_dyn, w in self._pairs():
            mag_x = high_band(x, w, 2)
            tols = [KAPPA_TOLERANCE, *np.quantile(mag_x, [0.0, 0.1, 0.5, 0.9, 1.0])]
            kappas = [_error_and_kappa(x, x_dyn, w, 2, tol)[1] for tol in tols]
            assert kappas == [_masked_copy_kappa(x, x_dyn, w, 2, tol) for tol in tols]
            assert kappas[1] > kappas[3] > 0.0

    def test_nothing_kept_is_zero(self):
        for x, x_dyn, w in self._pairs():
            assert _error_and_kappa(np.zeros(len(x)), x_dyn, w, 2)[1] == 0.0
            assert _error_and_kappa(x, x_dyn, w, 2, 2.0 * high_band(x, w, 2).max())[1] == 0.0

    @pytest.mark.parametrize("tol", [np.nan, -1e-12, np.inf])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        # tol = nan skipped every position and read as perfect separation (0.0)
        x, w = np.arange(8.0), make_window("hann", 5)
        message = f"^tol must be finite and >= 0, got {tol}$"
        with pytest.raises(ValidationError, match=message):
            _error_and_kappa(x, x, w, 2, tol)
        with pytest.raises(ValidationError, match=message):
            estimate_kappa(x, x, w, 2, tol)
        with pytest.raises(ValidationError, match="k_threshold"):  # named first
            estimate_kappa(x, x, w, 5, tol)

    def test_zero_tolerance_keeps_every_position(self):
        # |T(x)| near 1e-290 lies below the default floor but is kept at tol = 0
        for x, x_dyn, w in self._pairs():
            x, x_dyn = 1e-290 * x, 1e-290 * x_dyn
            kappa = _error_and_kappa(x, x_dyn, w, 2, 0.0)[1]
            assert kappa == _masked_copy_kappa(x, x_dyn, w, 2, 0.0) > 0.0
            assert _error_and_kappa(x, x_dyn, w, 2)[1] == 0.0

    @pytest.mark.parametrize("x_dyn", [np.zeros(8), np.cos(np.pi * np.arange(8))],
                             ids=["zero", "alternating"])
    def test_zero_magnitudes_have_no_ratio(self, x_dyn):
        # at tol = 0 a zero |T(x)| was kept: nan ("invalid value") against a
        # zero |T(x_dyn)| and inf ("divide by zero") against the alternating one
        w = make_window("hann", 5)
        for tol in (0.0, KAPPA_TOLERANCE):
            assert estimate_kappa(np.zeros(8), x_dyn, w, 2, tol) == 0.0
            assert _error_and_kappa(np.zeros(8), x_dyn, w, 2, tol)[1] == 0.0


class TestDynamicComponent:
    def test_identity_becomes_zero(self):
        assert np.array_equal(dynamic_component(np.eye(5)), np.zeros((5, 5)))

    def test_uniform_matrix(self):
        got = dynamic_component(np.full((4, 4), 0.25))
        expected = np.full((4, 4), 0.25)
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(got, expected)

    def test_row_sums_complement_diagonal(self):
        rng = np.random.default_rng(45)
        a = softmax_rows(rng.standard_normal((7, 7)))
        got = dynamic_component(a)
        assert np.allclose(got.sum(axis=1), 1.0 - np.diag(a), atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            dynamic_component(np.zeros((2, 3)))


class TestEstimateKappa:
    def test_zero_dynamic_signal(self):
        rng = np.random.default_rng(46)
        x = rng.standard_normal(12)
        w = make_window("hann", 5)
        assert estimate_kappa(x, np.zeros(12), w, 2) == 0.0

    def test_proportional_signals(self):
        rng = np.random.default_rng(47)
        x = rng.standard_normal(12)
        w = make_window("blackman", 7)
        assert estimate_kappa(x, 0.5 * x, w, 2) == pytest.approx(0.5, abs=1e-12)

    def test_self_ratio_is_one(self):
        rng = np.random.default_rng(48)
        x = rng.standard_normal(10)
        w = make_window("gaussian", 5)
        assert estimate_kappa(x, x, w, 1) == pytest.approx(1.0, abs=1e-12)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(49)
        a = softmax_rows(rng.standard_normal((12, 12)))
        v = rng.standard_normal(12)
        x = a @ v
        x_dyn = dynamic_component(a) @ v
        w = make_window("blackman", 7)
        coeffs = list(w.coefficients)
        best = 0.0
        for tau in range(12):
            for k in range(3, 7):
                mag_x = abs(naive_dstft(list(x), coeffs, tau, k))
                if mag_x >= 1e-12:
                    best = max(best, abs(naive_dstft(list(x_dyn), coeffs, tau, k)) / mag_x)
        assert estimate_kappa(x, x_dyn, w, 3) == pytest.approx(best, rel=1e-10)

    def test_length_mismatch(self):
        w = make_window("hann", 3)
        with pytest.raises(ValidationError, match="same length"):
            estimate_kappa(np.ones(4), np.ones(5), w, 1)


class TestHomogeneityDeviation:
    def test_circulant_is_zero(self):
        base = np.array([0.4, 0.3, 0.2, 0.1])
        a = np.array([np.roll(base, i) for i in range(4)])
        assert homogeneity_deviation(a) == 0.0

    def test_identity_is_zero(self):
        assert homogeneity_deviation(np.eye(6)) == 0.0

    def test_empty_map_is_zero(self):
        assert homogeneity_deviation(np.zeros((0, 0))) == 0.0

    def test_single_perturbation(self):
        base = np.array([0.4, 0.3, 0.2, 0.1])
        a = np.array([np.roll(base, i) for i in range(4)])
        a[2, 1] += 0.05
        assert homogeneity_deviation(a) == pytest.approx(0.05, abs=1e-15)

    # default blocks, one row per block, and partial last blocks
    @pytest.mark.parametrize("rows_per_block", [None, 1, 2, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 300])
    def test_bits_of_the_index_table(self, monkeypatch, n, rows_per_block):
        if rows_per_block:
            monkeypatch.setattr(spectral, "_BLOCK_BYTES", 16 * n * rows_per_block)
        a = softmax_rows(np.random.default_rng(n).standard_normal((n, n)))
        rows = np.arange(n)[:, None]
        index_table = float(np.ptp(a[rows, (rows + rows.T) % n], axis=0).max())
        assert homogeneity_deviation(a) == index_table

    def test_nonzero_iff_not_circulant(self):
        rng = np.random.default_rng(50)
        a = softmax_rows(rng.standard_normal((6, 6)))
        assert homogeneity_deviation(a) > 0.0
