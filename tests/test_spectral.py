"""Tests for tiara.spectral: transforms, windows, periodic padding."""

import math
import re

import numpy as np
import pytest

from tiara import ValidationError, dft, dstft, make_window, pad_periodic, spectral, spectrogram
from tiara.spectral import WINDOW_KINDS, _blocks, dstft_bins, dstft_magnitudes

from oracles import naive_dft, naive_dstft


class TestDft:
    def test_constant_signal_dc(self):
        assert dft([1, 1, 1, 1], 0) == pytest.approx(4 + 0j, abs=1e-14)

    def test_pure_cosine(self):
        assert dft([1, 0, -1, 0], 1) == pytest.approx(2 + 0j, abs=1e-14)
        assert dft([1, 0, -1, 0], 0) == pytest.approx(0 + 0j, abs=1e-14)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(16)
        for k in range(16):
            expected = naive_dft(list(x), k)
            assert abs(dft(x, k) - expected) <= 1e-12 * max(1.0, abs(expected))

    @pytest.mark.parametrize("x, shape", [(np.ones((2, 3)), "(2, 3)"), ([], "(0,)"), (1.0, "()")])
    def test_signal_must_be_one_dimensional_and_non_empty(self, x, shape):
        message = f"signal must be a 1-D sequence of length >= 1, got shape {shape}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            dft(x, 0)

    def test_frequency_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            dft([1.0, 2.0], 2)
        with pytest.raises(ValidationError, match="out of range"):
            dft([1.0, 2.0], -1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            dft([1.0, np.nan], 0)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(12)
        y = rng.standard_normal(12)
        for k in range(12):
            combined = dft(2.5 * x - 1.25 * y, k)
            separate = 2.5 * dft(x, k) - 1.25 * dft(y, k)
            assert abs(combined - separate) <= 1e-12 * max(1.0, abs(separate))

    def test_parseval(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(20)
        time_energy = float(np.sum(x ** 2))
        freq_energy = sum(abs(dft(x, k)) ** 2 for k in range(20)) / 20
        assert freq_energy == pytest.approx(time_energy, rel=1e-10)

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_angle_reduced_mod_n_before_the_exponential(self, n):
        # with the angle 2 pi k t / N taken unreduced (k t up to ~N^2), dft was 60 and 199
        # eps * sum|x| off this reference at N = 1024 and 4096; reduced mod N, as in the
        # kernel's roots table, it is 0.05 and 0.04
        x = np.random.default_rng(n).standard_normal(n)
        bound = 4 * np.finfo(float).eps * np.abs(x).sum()
        for k in (1, n // 3, n - 1):
            angles = [2 * math.pi * (k * t % n) / n for t in range(n)]
            expected = complex(math.fsum(v * math.cos(a) for v, a in zip(x.tolist(), angles)),
                               -math.fsum(v * math.sin(a) for v, a in zip(x.tolist(), angles)))
            assert abs(dft(x, k) - expected) <= bound


class TestDstft:
    def test_rectangular_full_length_equals_dft(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(10)
        w = make_window("rectangular", 10)
        for m in (0, 3, -4, 17):
            for k in range(10):
                assert abs(dstft(x, w, m, k) - dft(x, k)) < 1e-12

    def test_delta_signal_reads_centre_coefficient(self):
        x = np.zeros(8)
        x[0] = 1.0
        for kind, length in [("blackman", 5), ("hann", 7), ("gaussian", 9)]:
            w = make_window(kind, length)
            for k in range(8):
                assert dstft(x, w, 0, k) == pytest.approx(w.coefficients[length // 2], abs=1e-15)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(32)
        w = make_window("blackman", 9)
        coeffs = list(w.coefficients)
        for m in range(32):
            for k in range(32):
                expected = naive_dstft(list(x), coeffs, m, k)
                assert abs(dstft(x, w, m, k) - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_stacked_signals_match_single_calls(self):
        # each signal gets the same bits whatever is stacked beside it,
        # down to a single frequency bin, in both kernels
        rng = np.random.default_rng(7)
        for kernel in (dstft_bins, dstft_magnitudes):
            for n in (3, 10, 21, 67):
                for kind, length in [("rectangular", 1), ("hann", 4), ("blackman", 8), ("gaussian", 11)]:
                    w = make_window(kind, length)
                    x = rng.standard_normal((3, n))
                    m = rng.integers(-n, 2 * n, size=3)
                    for ks in (np.arange(n // 2 + 1), np.array([n // 2])):
                        stacked = kernel(x, w, m, ks)
                        for s in range(3):
                            assert np.array_equal(stacked[s], kernel(x[s], w, int(m[s]), ks))
                        shifts = kernel(x[0], w, np.arange(n), ks)
                        for tau in range(n):
                            assert np.array_equal(shifts[tau], kernel(x[0], w, tau, ks))
            # 4,096 signals and 13 bins, as in field_reweight's motion spectra;
            # the SIMD split of every multiply and add falls on the signal axis
            x = rng.standard_normal((16, 256, 24))
            w = make_window("blackman", 9)
            m = rng.integers(4, 20, size=256)
            ks = np.arange(13)
            stacked = kernel(x, w, m, ks)
            assert stacked.shape == (16, 256, 13)
            for h in range(16):
                for s in range(256):
                    assert np.array_equal(stacked[h, s], kernel(x[h, s], w, int(m[s]), ks))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("length", [8, 9, 13])
    def test_window_longer_than_the_signal_matches_naive_oracle(self, n, length):
        # L > N: the taps past the period are folded onto it before the transform
        rng = np.random.default_rng(10 * length + n)
        x, m, ks = rng.standard_normal(n), np.arange(-n, 2 * n), np.arange(n)
        for kind in WINDOW_KINDS:
            w = make_window(kind, length)
            coeffs = list(w.coefficients)
            bins, magnitudes = dstft_bins(x, w, m, ks), dstft_magnitudes(x, w, m, ks)
            for shift, row, row_magnitudes in zip(m.tolist(), bins, magnitudes):
                for k in range(n):
                    expected = naive_dstft(list(x), coeffs, shift, k)
                    assert abs(row[k] - expected) <= 1e-12 * max(1.0, abs(expected))
                    assert abs(row_magnitudes[k] - abs(expected)) <= 1e-12 * max(1.0, abs(expected))

    def test_frequencies_are_read_periodically(self):
        # bin k is bin k mod N, in both kernels, as the exponential is periodic
        rng = np.random.default_rng(14)
        x, w, m = rng.standard_normal((3, 7)), make_window("hann", 5), np.array([0, 3, -2])
        ks = np.array([-1, 2, 9, -7, 20, 3])
        for kernel in (dstft_bins, dstft_magnitudes):
            assert np.array_equal(kernel(x, w, m, ks), kernel(x, w, m, ks % 7))

    def test_magnitudes_match_naive_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(24)
        for kind, length in [("blackman", 9), ("hann", 6), ("gaussian", 5)]:
            w = make_window(kind, length)
            coeffs = list(w.coefficients)
            got = dstft_magnitudes(x, w, np.arange(24), np.arange(24))
            for m in range(24):
                for k in range(24):
                    expected = abs(naive_dstft(list(x), coeffs, m, k))
                    assert abs(got[m, k] - expected) <= 1e-12 * max(1.0, expected)

    def test_magnitudes_are_the_modulus_of_the_transform(self):
        # only the unit-modulus phase is skipped, so the two differ by the
        # rounding of one complex multiply and one modulus
        rng = np.random.default_rng(13)
        for n in (5, 16, 64):
            x = rng.standard_normal((4, n)) * 10.0 ** rng.integers(-12, 3, size=(4, 1))
            w = make_window("hann", 7)
            m = rng.integers(-n, 2 * n, size=(3, 1))
            ks = np.arange(n)
            want = np.abs(dstft_bins(x, w, m, ks))
            got = dstft_magnitudes(x, w, m, ks)
            assert got.shape == want.shape == (3, 4, n)
            assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want)

    @pytest.mark.parametrize("m, got", [(1.5, "1.5 (dtype float64)"), (True, "True (dtype bool)"),
                                        (np.float64(2.0), "2.0 (dtype float64)"),
                                        (np.nan, "nan (dtype float64)")])
    def test_non_integer_shift_rejected(self, m, got):
        # 1.5 and True were taken as shift 1
        w = make_window("hann", 3)
        with pytest.raises(ValidationError, match=rf"^m must be an integer, got {re.escape(got)}$"):
            dstft(np.arange(6.0), w, m, 2)

    def test_conjugate_symmetry_for_real_input(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(12)
        spec = spectrogram(x, make_window("hann", 5))
        c = spec.coefficients
        for m in range(12):
            for k in range(12):
                assert c[m, k] == pytest.approx(np.conj(c[m, (12 - k) % 12]), abs=1e-12)


class TestBlocks:
    @pytest.mark.parametrize("budget, count, item_bytes, stops", [
        (1 << 20, 5, 16, [5]),
        (1, 5, 16, [1, 2, 3, 4, 5]),
        (32, 5, 16, [2, 4, 5]),
        (47, 5, 16, [2, 4, 5]),
        (32, 4, 0, [4]),
        (32, 0, 16, []),
    ], ids=["one_block", "one_item_per_block", "partial_last_block", "budget_not_a_multiple",
            "empty_items", "no_items"])
    def test_consecutive_slices_within_the_budget(self, monkeypatch, budget, count, item_bytes,
                                                   stops):
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", budget)  # read at call time
        assert _blocks(count, item_bytes) == [slice(start, stop) for start, stop
                                              in zip([0] + stops[:-1], stops)]


class TestMakeWindow:
    def test_blackman_centre_is_one(self):
        w = make_window("blackman", 9)
        assert abs(w.coefficients[4] - 1.0) <= 1e-15

    def test_rectangular(self):
        assert list(make_window("rectangular", 5).coefficients) == [1.0] * 5

    def test_hann_endpoints_and_centre(self):
        w = make_window("hann", 7)
        assert w.coefficients[0] == 0.0
        assert w.coefficients[6] == 0.0
        assert w.coefficients[3] == 1.0

    @pytest.mark.parametrize("kind", WINDOW_KINDS)
    @pytest.mark.parametrize("length", [1, 2, 5, 7, 8, 9, 16])
    def test_symmetric_and_bounded(self, kind, length):
        w = make_window(kind, length).coefficients
        assert len(w) == length
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        for j in range(length):
            assert w[j] == w[length - 1 - j]

    @pytest.mark.parametrize("kind", WINDOW_KINDS)
    def test_length_one_degenerates(self, kind):
        assert list(make_window(kind, 1).coefficients) == [1.0]

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown window kind"):
            make_window("kaiser", 5)

    def test_bad_length(self):
        with pytest.raises(ValidationError, match="length"):
            make_window("hann", 0)


class TestPadPeriodic:
    def test_wraparound(self):
        assert list(pad_periodic([1, 2, 3], 1, 1)) == [3, 1, 2, 3, 1]

    def test_single_sample(self):
        assert list(pad_periodic([5], 2, 2)) == [5.0] * 5

    def test_full_period_wrap(self):
        assert list(pad_periodic([1, 2, 3, 4], 4, 0)) == [1, 2, 3, 4, 1, 2, 3, 4]

    def test_interior_reproduces_signal(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(7)
        padded = pad_periodic(x, 3, 5)
        assert np.array_equal(padded[3:10], x)

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError, match=">= 0"):
            pad_periodic([1.0], -1, 0)
