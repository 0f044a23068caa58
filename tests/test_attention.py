"""Tests for tiara.attention: softmax, reweighting, motion intensity."""

import re
import tracemalloc
from math import log

import numpy as np
import pytest

from tiara import (ValidationError, alpha_from_closed_form, build_reweight_matrix,
                   conditioning, gen_homogeneous_attention, gen_inconsistent_values,
                   make_instance, make_schedule, make_window, motion_intensity,
                   motion_profile, reweighted_attention, softmax_rows, spectral, tiara,
                   write_tensor)
from tiara import attention
from tiara.attention import row_spectrum
from tiara.cli import main

from oracles import (algorithm_reference, closed_form_rows, naive_dstft, naive_softmax, pad_wrap,
                     rho_reference)


class TestSoftmaxRows:
    def test_equal_logits(self):
        assert np.allclose(softmax_rows([[0.0, 0.0], [0.0, 0.0]]),
                           [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_two_to_one_ratio(self):
        got = softmax_rows([[log(2.0), 0.0], [0.0, log(2.0)]])
        assert np.allclose(got, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-15)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(21)
        logits = rng.standard_normal((8, 8))
        got = softmax_rows(logits)
        assert np.abs(got.sum(axis=1) - 1.0).max() < 1e-12
        assert np.allclose(got, naive_softmax(logits.tolist()), atol=1e-12)

    def test_empty_frame_axis_rejected_with_its_shape(self):
        with pytest.raises(ValidationError, match=r"at least one frame, got shape \(1, 1, 0, 0\)"):
            softmax_rows(np.zeros((1, 1, 0, 0)))
        # an empty stack of non-empty rows is fine
        assert softmax_rows(np.zeros((0, 3, 3))).shape == (0, 3, 3)

    def test_scalar_rejected_by_shape(self):
        # a 0-d input escaped as "TypeError: return arrays must be of ArrayType"
        message = "softmax rows must have at least one frame, got shape ()"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            softmax_rows(3.0)

    def test_masked_entries_get_zero_weight(self):
        logits = np.array([[0.0, -np.inf, log(2.0)], [-np.inf, 1.0, -np.inf]])
        got = softmax_rows(logits)
        assert np.allclose(got, [[1 / 3, 0.0, 2 / 3], [0.0, 1.0, 0.0]], atol=1e-15)
        assert got[0, 1] == 0.0 and got[1, 0] == 0.0 and got[1, 2] == 0.0

    def test_bits_of_the_two_step_formula_and_input_untouched(self):
        logits = 4.0 * np.random.default_rng(33).standard_normal((3, 5, 7))
        logits[0, 1, [2, 5]] = -np.inf
        logits[2, 4, :6] = -np.inf
        before = logits.copy()
        got = softmax_rows(logits)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        assert got.tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()
        assert np.array_equal(logits, before)

    @pytest.mark.parametrize("entry, words", [
        (np.nan, "holds NaN"), (np.inf, "holds \\+inf"), (None, "is fully masked")],
        ids=["nan", "posinf", "fully_masked"])
    def test_invalid_row_named(self, entry, words):
        logits = np.zeros((2, 3, 4, 4))
        if entry is None:
            logits[1, 2, 3] = -np.inf
        else:
            logits[1, 2, 3, 0] = entry
        with pytest.raises(ValidationError, match=rf"logits row \(1, 2, 3\) {words}$"):
            softmax_rows(logits)


class TestReweightedAttention:
    def test_zero_penalty_is_plain_attention(self):
        rng = np.random.default_rng(22)
        logits = rng.standard_normal((6, 6))
        values = rng.standard_normal((6, 3))
        attention, out = reweighted_attention(logits, np.zeros((6, 6)), values)
        assert np.array_equal(attention, softmax_rows(logits))
        assert np.allclose(out, softmax_rows(logits) @ values, atol=1e-15)

    def test_masked_logit_stays_masked(self):
        logits = np.random.default_rng(23).standard_normal((5, 5))
        logits[2, 4] = logits[0, 1] = -np.inf
        attention, _ = reweighted_attention(logits, -2.0 * np.eye(5), np.zeros((5, 1)))
        assert attention[2, 4] == 0.0 and attention[0, 1] == 0.0
        assert np.abs(attention.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("entry, words", [(np.nan, "holds NaN"), (50.0, r"is positive \(50.0\)")])
    def test_bad_penalty_entry_named(self, entry, words):
        penalty = np.zeros((2, 4, 4))
        penalty[1, 2, 1] = entry
        with pytest.raises(ValidationError, match=rf"penalty entry \(1, 2, 1\) {words}"):
            reweighted_attention(np.zeros((2, 4, 4)), penalty, np.zeros((2, 4, 1)))

    def test_minus_inf_penalty_masks(self):
        penalty = -np.eye(4)
        penalty[2, 1] = -np.inf
        attention, _ = reweighted_attention(np.zeros((4, 4)), penalty, np.zeros(4))
        assert attention[2, 1] == 0.0
        assert np.abs(attention.sum(axis=1) - 1.0).max() < 1e-12

    def test_non_finite_values_named(self):
        values = np.zeros((2, 4, 3))
        values[1, 2, 0] = np.inf
        with pytest.raises(ValidationError, match=r"first non-finite entry at index \(1, 2, 0\)"):
            reweighted_attention(np.zeros((2, 4, 4)), np.zeros((2, 4, 4)), values)

    def test_two_frame_uniform_logits(self):
        # uniform logits with -ln 2 on the diagonal: row 0 becomes [1/3, 2/3]
        penalty = -log(2.0) * np.eye(2)
        attention, out = reweighted_attention(np.zeros((2, 2)), penalty, np.array([[1.0], [0.0]]))
        assert np.allclose(attention[0], [1 / 3, 2 / 3], atol=1e-15)
        assert out[0, 0] == pytest.approx(1 / 3, abs=1e-15)

    def test_diagonal_penalty_matches_closed_form_rows(self):
        rng = np.random.default_rng(23)
        for trial in range(100):
            n = int(rng.integers(3, 17))
            logits = 2.0 * rng.standard_normal((n, n))
            alpha = float(rng.uniform(0.1, 6.0))
            attention, _ = reweighted_attention(logits, -alpha * np.eye(n), np.zeros((n, 1)))
            expected = closed_form_rows(softmax_rows(logits).tolist(), alpha)
            assert np.allclose(attention, expected, atol=1e-12)

    def test_rows_stay_stochastic(self):
        rng = np.random.default_rng(24)
        logits = rng.standard_normal((10, 10))
        penalty = -np.abs(rng.standard_normal((10, 10)))
        attention, _ = reweighted_attention(logits, penalty, np.zeros((10, 1)))
        assert np.abs(attention.sum(axis=1) - 1.0).max() < 1e-9
        assert attention.min() >= 0.0

    def test_diagonal_suppression(self):
        rng = np.random.default_rng(25)
        logits = rng.standard_normal((8, 8))
        before = softmax_rows(logits)
        after, _ = reweighted_attention(logits, -1.5 * np.eye(8), np.zeros((8, 1)))
        diag = np.arange(8)
        assert np.all(after[diag, diag] < before[diag, diag])
        off = ~np.eye(8, dtype=bool)
        assert np.all(after[off] > before[off])

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="penalty shape"):
            reweighted_attention(np.zeros((3, 3)), np.zeros((2, 2)), np.zeros((3, 1)))
        with pytest.raises(ValidationError, match="values shape"):
            reweighted_attention(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((4, 1)))


class TestMotionIntensity:
    def test_constant_row_has_zero_motion(self):
        w = make_window("blackman", 9)
        for n in (8, 16, 64):
            row = np.full(n, 1.0 / n)
            for phi1 in (1, 3, 5):
                assert motion_intensity(row, w, 0, phi1) == 0.0

    @pytest.mark.parametrize("length", [7, 8, 9])
    def test_alternating_row_is_high_motion(self, length):
        w = make_window("blackman", length)
        for n in (8, 16, 32):
            row = np.zeros(n)
            row[::2] = 2.0 / n
            for i in range(n):
                assert motion_intensity(row, w, i) >= 0.99

    def test_alternating_row_rectangular(self):
        row = np.zeros(8)
        row[::2] = 0.25
        w = make_window("rectangular", 9)
        assert motion_intensity(row, w, 3) >= 0.99

    def test_matches_reference(self):
        rng = np.random.default_rng(26)
        w = make_window("blackman", 9)
        for trial in range(20):
            row = rng.random(20)
            i = int(rng.integers(0, 20))
            expected = rho_reference(list(row), list(w.coefficients), i)
            assert motion_intensity(row, w, i) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("kind", ["rectangular", "hann", "gaussian", "blackman"])
    def test_every_band_matches_reference(self, kind):
        # odd and even Npad, L > N (the taps wrap the row more than once), and custom bands
        rng = np.random.default_rng(35)
        for length in (1, 2, 7, 8, 9, 13):
            w = make_window(kind, length)
            for n in (1, 2, 3, 5, 6, 16):
                npad = n + 2 * (length // 2)
                row = softmax_rows(3.0 * rng.standard_normal(n))
                i = int(rng.integers(0, n))
                phi2 = int(rng.integers(1, npad // 2 + 2))
                for phi1, top in ((None, None), (int(rng.integers(0, phi2)), phi2),
                                  (int(rng.integers(0, npad // 2 + 1)), None)):
                    got = motion_intensity(row, w, i, phi1, top)
                    expected = rho_reference(list(row), list(w.coefficients), i, phi1, top)
                    assert 0.0 <= got <= 1.0
                    assert got == pytest.approx(expected, abs=1e-12)

    def test_custom_band_rho_is_at_most_one(self):
        # summing the high band apart from the total gave 1.0000000000000002
        logits = np.random.default_rng(1).standard_normal(6) * 30
        w = make_window("hann", 13)
        assert 0.0 <= motion_intensity(softmax_rows(logits), w, 2, 1, 9) <= 1.0
        field = np.broadcast_to(logits, (1, 1, 6, 6))
        result = tiara(field, np.zeros((1, 1, 6, 1)), w, 1, 9)  # raised: rho must lie in [0, 1]
        assert np.all((result.rho >= 0.0) & (result.rho <= 1.0))

    def test_scale_invariance(self):
        rng = np.random.default_rng(27)
        w = make_window("hann", 7)
        row = rng.random(14) + 0.05
        base = motion_intensity(row, w, 4)
        for scale in (1e-3, 3.7, 1e4):
            assert motion_intensity(scale * row, w, 4) == pytest.approx(base, abs=1e-12)

    def test_threshold_ordering_rejected(self):
        w = make_window("hann", 7)
        row = np.arange(10.0)
        with pytest.raises(ValidationError, match="^phi1 must be < phi2, got 5 >= 4$"):
            motion_intensity(row, w, 0, 5, 4)
        with pytest.raises(ValidationError, match=r"^phi2 must be <= Npad//2 \+ 1 = 9, got 99$"):
            motion_intensity(row, w, 0, 0, 99)

    @pytest.mark.parametrize("i, got", [(1.5, "1.5 (dtype float64)"), (True, "True (dtype bool)"),
                                        (np.array([0.0, 1.0]), "0.0 (dtype float64)")])
    def test_non_integer_frame_index_rejected(self, i, got):
        # 1.5 raised a raw IndexError from the gather
        w = make_window("hann", 5)
        message = rf"^row index must be an integer, got {re.escape(got)}$"
        with pytest.raises(ValidationError, match=message):
            row_spectrum(np.arange(8.0), w, i)
        with pytest.raises(ValidationError, match=message):
            motion_intensity(np.arange(8.0), w, i)

    def test_frame_indices_must_broadcast_against_the_rows(self):
        # escaped as NumPy's plain "shape mismatch" ValueError
        message = "frame indices of shape (4,) do not broadcast against attention rows of shape (3, 5)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            row_spectrum(np.ones((3, 5)), make_window("blackman", 9), np.arange(4))

    @pytest.mark.parametrize("i, first", [(np.arange(3, 9), 5), (np.arange(3, 1000), 5),
                                          (np.array([[0, -2], [7, 1]]), -2), (5, 5)])
    def test_out_of_range_frame_names_the_first(self, i, first):
        # the whole index array was printed, and NumPy elides a long one
        with pytest.raises(ValidationError, match=rf"^row index {first} out of range \[0, 5\)$"):
            row_spectrum(np.ones(5), make_window("hann", 5), i)

    @pytest.mark.parametrize("call, message", [
        (lambda w: motion_intensity(np.ones((3, 5)), w, 0), "attention row must have shape (N,), got shape (3, 5)"),
        (lambda w: motion_intensity(0.5, w, 0), "attention row must have shape (N,), got shape ()"),
        (lambda w: motion_intensity([], w, 0), "attention rows must have shape (..., N) with N >= 1, got shape (0,)"),
        (lambda w: row_spectrum(0.5, w, 0), "attention rows must have shape (..., N) with N >= 1, got shape ()"),
        (lambda w: motion_profile(np.zeros((0, 0)), w),
         "attention rows must have shape (..., N) with N >= 1, got shape (0, 0)"),
    ], ids=["matrix", "scalar", "empty", "scalar_rows", "empty_map"])
    def test_bad_row_shape_named(self, call, message):
        # the first four raised TypeError, TypeError, a range error naming row
        # index 0 and IndexError; the empty map warned of a division by zero
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(make_window("blackman", 9))

    @pytest.mark.parametrize("n, kind, length", [(20, "blackman", 9), (6, "hann", 7), (5, "rectangular", 12),
                                                 (3, "blackman", 13), (1, "blackman", 9),
                                                 (7, "gaussian", 31)])
    def test_spectra_match_naive_oracle_of_the_padded_rows(self, n, kind, length):
        # the transform period Npad = N + 2*(L//2) is not the row length, and
        # with L > N the window reads the row more than once
        rng = np.random.default_rng(30)
        w = make_window(kind, length)
        rows, i = rng.standard_normal((4, n)), rng.integers(0, n, size=4)
        got = row_spectrum(rows, w, i)
        half, coeffs = length // 2, list(w.coefficients)
        assert got.shape == (4, (n + 2 * half) // 2 + 1)
        for row, frame, spectrum in zip(rows.tolist(), i.tolist(), got):
            mean = sum(row) / n
            padded = pad_wrap([v - mean for v in row], half)
            for k, magnitude in enumerate(spectrum):
                expected = abs(naive_dstft(padded, coeffs, frame + half, k))
                assert abs(magnitude - expected) <= 1e-12 * max(1.0, expected)

    def test_traced_peak_holds_no_padded_rows(self, monkeypatch):
        """The field_reweight field: S = 4,096 rows of N = 16 frames, a Blackman
        window of L = 9, so Npad = 24 and K = 13 bins, with blocks of s = 14
        rows under a budget of 16 K 64 bytes.  The arrays that must exist at
        once are the (..., N, N) deviation (8 S N bytes), the spectra (8 S K),
        the row means and the kernel's row and shift indices (8 S each), and
        one block: the walker counts 8 (2 N + 2 L + 5 K) bytes per row (the
        rows' copy and deviation, the kernel's tap indices and taps, its rfft
        of the K = Npad//2 + 1 bins and their copy, and the moduli), and the
        block's temporaries stay within 4 budgets; 16 KiB more covers the
        small tables.  A (..., N, Npad) padded copy alone would add
        8 S (Npad - N) = 256 KiB to that."""
        w, n, bins = make_window("blackman", 9), 16, 13
        rows = softmax_rows(np.random.default_rng(29).standard_normal((16, 16, n, n)))
        count = rows.size // n
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 16 * bins * 64)
        tracemalloc.start()
        try:
            spectra = row_spectrum(rows, w, np.arange(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spectra.shape == (16, 16, 16, bins)
        assert peak < 8 * count * (n + bins + 3) + 4 * spectral._BLOCK_BYTES + (16 << 10)

    @pytest.mark.parametrize("call", ["row_spectrum", "motion_profile"])
    def test_traced_peak_holds_no_deviation_of_the_field(self, monkeypatch, call):
        """The field_reweight field as above: S = 4,096 rows, N = 16, K = 13
        bins, blocks of 16 K 64 bytes.  The arrays that must exist at once are
        the spectra (8 S K bytes), rho and the frame of each row (8 S each),
        and the list of block slices (under 64 bytes per block of at least 14
        rows, so under 8 S).  One block of rows, with everything the walker
        and the kernel form from it (its taps, their rfft and the bins read
        from it), fits in 4 budgets; 16 KiB more covers the small tables.  A
        (..., N, N) deviation of the whole field would add 8 S N = 512 KiB to
        that."""
        w, n, bins = make_window("blackman", 9), 16, 13
        rows = softmax_rows(np.random.default_rng(29).standard_normal((16, 16, n, n)))
        count = rows.size // n
        run = {"row_spectrum": lambda: row_spectrum(rows, w, np.arange(n)),
               "motion_profile": lambda: motion_profile(rows, w).spectra}[call]
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 16 * bins * 64)
        tracemalloc.start()
        try:
            spectra = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spectra.shape == (16, 16, 16, bins)
        assert peak < 8 * count * (bins + 3) + 4 * spectral._BLOCK_BYTES + (16 << 10)

    def test_one_row_at_every_frame_is_not_copied_per_frame(self):
        """One row of N = 512 frames read at all N frames: the spectra are
        8 N K bytes (K = 261 bins under a 9-tap window), and each block of
        frames, with the row gathered once per frame in it, stays within 2
        budgets; 16 KiB covers the small tables.  An (N, N) copy of the row
        would add 8 N^2 = 2 MiB."""
        n, w = 512, make_window("blackman", 9)
        row = softmax_rows(np.random.default_rng(31).standard_normal(n))
        tracemalloc.start()
        try:
            spectra = row_spectrum(row, w, np.arange(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bins = (n + 8) // 2 + 1
        assert spectra.shape == (n, bins)
        assert np.array_equal(spectra, row_spectrum(np.broadcast_to(row, (n, n)), w, np.arange(n)))
        assert peak < 8 * n * bins + 2 * spectral._BLOCK_BYTES + (16 << 10)

    @pytest.mark.parametrize("call", ["motion_profile", "analyze"])
    def test_each_row_is_transformed_once(self, monkeypatch, tmp_path, call):
        # rho is read from the spectra's columns; its own bins (k = 0, the
        # bins below phi1 and the Nyquist bin) were transformed a second time
        counted = []
        real = attention._windowed_sums

        def counting(x, w, m, ks, **kwargs):
            counted.append(len(ks) * np.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(m))))
            return real(x, w, m, ks, **kwargs)

        monkeypatch.setattr(attention, "_windowed_sums", counting)
        logits = np.random.default_rng(32).standard_normal((3, 4, 16, 16))
        write_tensor(tmp_path / "l.tf", logits)
        for phi1, phi2 in ((None, None), (2, 7)):
            counted.clear()
            if call == "motion_profile":
                motion_profile(softmax_rows(logits), make_window("blackman", 9), phi1, phi2)
            else:
                band = [] if phi1 is None else ["--phi1", str(phi1), "--phi2", str(phi2)]
                assert main(["analyze", "--input", str(tmp_path / "l.tf"), "--output", str(tmp_path / "rho.tf"),
                             "--spectrogram", str(tmp_path / "spec.csv"), *band]) == 0
            assert sum(counted) == 3 * 4 * 16 * (24 // 2 + 1)

    def test_band_is_named_before_the_rows(self):
        # a bad band on a map that is not finite names the band
        with pytest.raises(ValidationError, match="^phi1 must be < phi2, got 3 >= 2$"):
            motion_profile(np.full((4, 4), np.nan), make_window("hann", 5), 3, 2)
        with pytest.raises(ValidationError, match=r"^phi2 must be <= Npad//2 \+ 1 = 5, got 9$"):
            motion_profile(np.full((4, 4), np.inf), make_window("hann", 5), 1, 9)

    def test_profile_collects_rows(self):
        rng = np.random.default_rng(28)
        a = softmax_rows(rng.standard_normal((6, 6)))
        w = make_window("blackman", 7)
        profile = motion_profile(a, w)
        assert profile.rho.shape == (6,)
        assert np.all(profile.rho >= 0.0) and np.all(profile.rho <= 1.0)
        for i in range(6):
            assert profile.rho[i] == motion_intensity(a[i], w, i)


class TestBuildReweightMatrix:
    def test_scalar_rho_rejected(self):
        with pytest.raises(ValidationError, match=r"^rho must be a sequence \(or a stack of them\)$"):
            build_reweight_matrix(0.5, 1.0)

    def test_full_motion_zeroes_diagonal(self):
        got = build_reweight_matrix(np.ones(5), alpha=4.0, corner_size=0, corner_penalty=1.0)
        assert np.array_equal(got.matrix, np.zeros((5, 5)))

    def test_no_motion_gives_minus_alpha_identity(self):
        got = build_reweight_matrix(np.zeros(4), alpha=6.0, corner_size=0, corner_penalty=0.0)
        assert np.array_equal(got.matrix, -6.0 * np.eye(4))

    def test_corner_structure(self):
        got = build_reweight_matrix(np.ones(4), alpha=1.0, corner_size=1, corner_penalty=2.0)
        expected = np.zeros((4, 4))
        expected[0, 3] = expected[3, 0] = -2.0
        assert np.array_equal(got.matrix, expected)

    @pytest.mark.parametrize("beta", [0, 0.0, np.float32(0.0)], ids=["int", "float", "float32"])
    def test_zero_corner_penalty_is_written_as_minus_zero(self, beta):
        # lambda's corner part is -beta as a float, and the matrix copies it: zeros + corner
        # would turn its -0.0 into 0.0
        got = build_reweight_matrix(np.ones((2, 4)), alpha=1.0, corner_size=1, corner_penalty=beta).matrix
        assert got.dtype == np.float64
        minus_zero = np.eye(4, dtype=bool) | np.eye(4, k=3, dtype=bool) | np.eye(4, k=-3, dtype=bool)
        assert np.array_equal(got, np.zeros((2, 4, 4)))  # rho = 1: the diagonal is -alpha * 0.0 = -0.0
        assert np.array_equal(np.signbit(got), np.broadcast_to(minus_zero, (2, 4, 4)))

    def test_symmetry_and_sign(self):
        rng = np.random.default_rng(29)
        rho = rng.random(12)
        got = build_reweight_matrix(rho, alpha=3.0, corner_size=3, corner_penalty=1.5).matrix
        assert np.array_equal(got, got.T)
        assert got.max() <= 0.0

    def test_monotone_in_alpha_and_rho(self):
        rho = np.linspace(0.0, 1.0, 6)
        low = build_reweight_matrix(rho, 1.0, 0, 0.0).matrix.diagonal()
        high = build_reweight_matrix(rho, 2.0, 0, 0.0).matrix.diagonal()
        assert np.all(high <= low)
        assert np.all(np.diff(low) >= 0.0)  # larger rho -> less negative

    def test_oversized_corner_rejected(self):
        with pytest.raises(ValidationError, match="corner_size"):
            build_reweight_matrix(np.ones(4), 1.0, 3, 1.0)

    @pytest.mark.parametrize("size", [1.5, np.float64(1.0), np.nan])
    def test_non_integer_corner_rejected(self, size):
        # 1.5 used to build the corner_size = 2 matrix and record corner_size = 1
        with pytest.raises(ValidationError,
                           match=rf"^corner_size must be an integer >= 0, got {size} \(dtype float64\)$"):
            build_reweight_matrix(np.ones(4), 1.0, size, 1.0)

    def test_defaults_are_those_of_tiara(self):
        got = build_reweight_matrix(np.full(9, 0.5), 3.0)
        assert (got.corner_size, got.corner_penalty) == (2, 1.5)
        assert np.array_equal(got.matrix, build_reweight_matrix(np.full(9, 0.5), 3.0, 2, 1.5).matrix)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0],
                             ids=["nan", "posinf", "neginf", "negative"])
    @pytest.mark.parametrize("name", ["alpha", "corner_penalty"])
    def test_bad_strength_named_through_tiara(self, name, value):
        with pytest.raises(ValidationError, match=rf"^{name} must be finite and >= 0, got {value}$"):
            tiara(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 4, 1)), make_window("hann", 3),
                  **{name: value})


_FIELD = (np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 4, 1)), make_window("hann", 3))
_MAP = softmax_rows(gen_homogeneous_attention(16, 1.0))
_VALUES = gen_inconsistent_values(16, 1.0, 1e-4, 0)
_SCHEDULE = make_schedule([(0, 4), (8, 12)], (0.6, 1.0), 8)

# (function, parameter, call with that parameter set to v) for every float
# parameter of the library calls behind the config keys and the CLI flags
FLOAT_PARAMETERS = [
    ("tiara", "alpha", lambda v: tiara(*_FIELD, alpha=v)),
    ("tiara", "corner_penalty", lambda v: tiara(*_FIELD, corner_penalty=v)),
    ("build_reweight_matrix", "rho", lambda v: build_reweight_matrix([0.5, v, 0.5, 0.5], 1.0)),
    ("build_reweight_matrix", "alpha", lambda v: build_reweight_matrix(np.ones(4), v, 1, 1.0)),
    ("build_reweight_matrix", "corner_penalty",
     lambda v: build_reweight_matrix(np.ones(4), 1.0, 1, v)),
    ("make_schedule", "t1", lambda v: make_schedule([(0, 4)], (v, 1.0), 8)),
    ("make_schedule", "t2", lambda v: make_schedule([(0, 4)], (0.5, v), 8)),
    ("alpha_from_closed_form", "kappa", lambda v: alpha_from_closed_form(v, 0.9, 0.1)),
    ("alpha_from_closed_form", "eta", lambda v: alpha_from_closed_form(0.1, v, 0.1)),
    ("alpha_from_closed_form", "a_min", lambda v: alpha_from_closed_form(0.1, 0.9, v)),
    ("gen_homogeneous_attention", "decay", lambda v: gen_homogeneous_attention(8, v)),
    ("gen_inconsistent_values", "b_v", lambda v: gen_inconsistent_values(8, v, 1e-4, 0)),
    ("gen_inconsistent_values", "hf_amplitude", lambda v: gen_inconsistent_values(8, 1.0, v, 0)),
    ("make_instance", "eta", lambda v: make_instance(_MAP, _VALUES, make_window("blackman", 9), 5, v)),
    ("conditioning", "t", lambda v: conditioning(_SCHEDULE, np.zeros((2, 3, 2)), 6, v, 0)),
]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, None, "6", np.array([1.0, 2.0])],
                         ids=["nan", "posinf", "neginf", "None", "str", "array"])
@pytest.mark.parametrize("function, name, call", FLOAT_PARAMETERS,
                         ids=[f"{function}-{name}" for function, name, _ in FLOAT_PARAMETERS])
def test_non_finite_float_parameter_named(function, name, call, value):
    # None, a string or an array escaped as a raw TypeError or ValueError
    if value is None and name == "corner_penalty":
        call(value)  # None is the default, alpha/2
        return
    with pytest.raises(ValidationError, match=f"^{name} "):
        call(value)


def test_window_kind_array_named():
    # `kind in WINDOW_KINDS` compared the array entrywise and raised a raw ValueError
    with pytest.raises(ValidationError, match=r"^unknown window kind array\(\[1\., 2\.\]\); expected one of"):
        make_window(np.array([1.0, 2.0]), 3)


class TestTiaraPipeline:
    def test_zero_alpha_zero_corner_is_plain_attention(self):
        rng = np.random.default_rng(30)
        logits = rng.standard_normal((2, 2, 8, 8))
        values = rng.standard_normal((2, 2, 8, 2))
        result = tiara(logits, values, make_window("blackman", 7),
                       alpha=0.0, corner_size=0, corner_penalty=0.0)
        for hi in range(2):
            for wi in range(2):
                plain = softmax_rows(logits[hi, wi])
                assert np.allclose(result.attention[hi, wi], plain, atol=1e-15)
                assert np.allclose(result.outputs[hi, wi], plain @ values[hi, wi], atol=1e-14)

    def test_constant_rows_reduce_to_static_reweighting(self):
        # logits constant along each row: softmax rows are uniform, rho = 0
        rng = np.random.default_rng(31)
        logits = np.repeat(rng.standard_normal((1, 1, 8, 1)), 8, axis=3)
        values = rng.standard_normal((1, 1, 8, 1))
        w = make_window("blackman", 9)
        result = tiara(logits, values, w, alpha=5.0, corner_size=2, corner_penalty=2.5)
        assert np.array_equal(result.rho[0, 0], np.zeros(8))
        static = build_reweight_matrix(np.zeros(8), 5.0, 2, 2.5)
        attention, out = reweighted_attention(logits[0, 0], static, values[0, 0])
        assert np.array_equal(result.attention[0, 0], attention)
        assert np.array_equal(result.outputs[0, 0], out)

    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(32)
        logits = rng.standard_normal((2, 2, 16, 16))
        values = rng.standard_normal((2, 2, 16, 1))
        w = make_window("blackman", 9)
        result = tiara(logits, values, w, alpha=6.0, corner_size=4, corner_penalty=3.0)
        expected = algorithm_reference(logits.tolist(), values.tolist(),
                                       list(w.coefficients), 6.0, 4, 3.0)
        assert np.allclose(result.outputs, np.array(expected), atol=1e-10)

    def test_shape_validation(self):
        w = make_window("hann", 5)
        with pytest.raises(ValidationError, match="logits field"):
            tiara(np.zeros((4, 4)), np.zeros((4, 4, 1, 1)), w)
        with pytest.raises(ValidationError, match="values field"):
            tiara(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 5, 1)), w)

    def test_stacked_locations_match_single_locations(self):
        rng = np.random.default_rng(33)
        logits = rng.standard_normal((3, 2, 10, 10))
        values = rng.standard_normal((3, 2, 10, 2))
        w = make_window("gaussian", 7)
        stacked = tiara(logits, values, w, alpha=4.0)
        for hi in range(3):
            for wi in range(2):
                alone = tiara(logits[hi:hi + 1, wi:wi + 1], values[hi:hi + 1, wi:wi + 1],
                              w, alpha=4.0)
                assert np.array_equal(stacked.rho[hi, wi], alone.rho[0, 0])
                assert np.array_equal(stacked.attention[hi, wi], alone.attention[0, 0])
                assert np.array_equal(stacked.outputs[hi, wi], alone.outputs[0, 0])

    def test_underflowed_rows_are_re_softmaxed_directly(self):
        # a row whose mass sits on its diagonal, which a penalty near -800
        # scales to 0 as well: the rescaled row would be 0/0
        logits = np.zeros((1, 2, 3, 3))
        logits[0, 0, 0] = [0.0, -760.0, -760.0]
        logits[0, 1, 1] = [-760.0, 0.0, -np.inf]
        logits[0, 1, 2, 0] = -np.inf
        values = np.arange(18.0).reshape(1, 2, 3, 3)
        result = tiara(logits, values, make_window("hann", 3), alpha=2400.0, corner_size=0)
        penalty = build_reweight_matrix(result.rho, 2400.0, 0)
        plain = softmax_rows(logits)
        for h, w, i in [(0, 0, 0), (0, 1, 1)]:
            assert plain[h, w, i, i] == 1.0 and penalty.matrix[h, w, i, i] < -760.0
        attention, outputs = reweighted_attention(logits, penalty, values)
        assert np.all(np.isfinite(result.attention)) and np.all(np.isfinite(result.outputs))
        assert np.abs(result.attention - attention).max() <= 1e-10
        assert np.abs(result.outputs - outputs).max() <= 1e-10
        assert result.attention[0, 1, 1, 2] == 0.0 and result.attention[0, 1, 2, 0] == 0.0

    def test_traced_peak_holds_one_attention_map(self, monkeypatch):
        """The arrays that must exist at once: the attention maps, reweighted in
        place (8 N^2 bytes per location), the outputs (8 N d_v), and a few
        vectors of N floats per location: rho, the row maxima and sums, the
        frame indices and the diagonal factors, at most 8 of them.  Then one
        block of the rho walk: the walker sizes its rows' copy and deviation,
        the taps, the kernel's rfft bins and the bins read from them within
        one budget, and one more covers the temporaries of the expression
        being formed; 16 KiB covers the small tables.  A penalty array, the
        shifted logits, a second softmax or the rows' deviation would each add
        8 N^2 bytes per location."""
        h, w, n, d_v = 16, 16, 16, 4
        rng = np.random.default_rng(34)
        logits, values = rng.standard_normal((h, w, n, n)), rng.standard_normal((h, w, n, d_v))
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 1 << 16)
        tracemalloc.start()
        try:
            tiara(logits, values, make_window("blackman", 9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < h * w * 8 * (n * n + n * d_v + 8 * n) + 2 * spectral._BLOCK_BYTES + (16 << 10)
