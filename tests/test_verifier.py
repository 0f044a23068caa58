"""Tests for tiara.verifier: the closed-form coefficient, synthetic
instance generators, and the inconsistency-reduction check."""

import dataclasses
import re
import tracemalloc
from math import exp, log

import numpy as np
import pytest

from tiara import (ValidationError, alpha_from_closed_form, dynamic_component,
                   estimate_kappa, format_report, gen_homogeneous_attention,
                   gen_inconsistent_values, homogeneity_deviation,
                   inconsistency_profile, iota, lambda_coef, make_instance,
                   make_window, softmax_rows, verify_theorem)
from tiara import consistency, spectral
from tiara.verifier import require_feasible, slack

from oracles import closed_form_rows


class TestAlphaClosedForm:
    def test_reference_point(self):
        # log(0.26 / 0.06); the blend identity pins iota and lambda exactly
        alpha = alpha_from_closed_form(0.5, 0.8, 0.3)
        assert alpha == pytest.approx(1.466337068793428, abs=1e-14)
        assert iota(alpha, 0.3) == pytest.approx(0.3, abs=1e-12)
        assert lambda_coef(alpha, 0.3) == pytest.approx(1.0, abs=1e-12)
        assert iota(alpha, 0.3) + 0.5 * lambda_coef(alpha, 0.3) == pytest.approx(0.8, abs=1e-12)

    def test_zero_kappa_zero_diagonal(self):
        for eta in (0.25, 0.5, 0.9):
            alpha = alpha_from_closed_form(0.0, eta, 0.0)
            assert alpha == pytest.approx(log(1.0 / eta), abs=1e-14)
            assert iota(alpha, 0.0) == pytest.approx(eta, abs=1e-14)

    def test_denominator_floor(self):
        # eta at the feasibility boundary kappa / (1 - a_min) sends the
        # denominator to zero and must be rejected
        with pytest.raises(ValidationError, match="eta \\* \\(1 - a_min\\) - kappa"):
            alpha_from_closed_form(0.45, 0.45 / 0.9 + 1e-14, 0.1)

    def test_separation_bound_named(self):
        with pytest.raises(ValidationError, match="kappa < 1 - a_min"):
            alpha_from_closed_form(0.8, 0.9, 0.3)

    def test_eta_upper_bound(self):
        with pytest.raises(ValidationError, match="eta < 1"):
            alpha_from_closed_form(0.2, 1.0, 0.1)

    def test_identity_on_grid(self):
        worst = 0.0
        for a_min in np.linspace(0.0, 0.85, 8):
            for eta in np.linspace(0.1, 0.95, 8):
                for kappa in np.linspace(0.0, 0.9, 8):
                    if kappa < 1 - a_min and kappa / (1 - a_min) <= eta < 1 \
                            and eta * (1 - a_min) - kappa > 1e-9:
                        alpha = alpha_from_closed_form(kappa, eta, a_min)
                        assert alpha >= 0.0
                        worst = max(worst, abs(iota(alpha, a_min)
                                               + kappa * lambda_coef(alpha, a_min) - eta))
        assert worst < 1e-12

    def test_coefficient_identities(self):
        for alpha in (0.0, 0.3, 2.0, 8.0):
            for a_min in (0.0, 0.4, 0.9):
                q = exp(-alpha)
                scale = 1.0 - (1.0 - q) * a_min
                assert iota(alpha, a_min) * scale == pytest.approx(q, abs=1e-12)
                assert lambda_coef(alpha, a_min) * scale == pytest.approx(1.0 - q, abs=1e-12)

    def test_alpha_grows_with_kappa(self):
        # the blend identity forces this direction: at fixed eta and a_min a
        # larger kappa leaves less room for the dynamic term, so the
        # diagonal suppression must strengthen
        previous = None
        for kappa in np.linspace(0.0, 0.4, 9):
            alpha = alpha_from_closed_form(float(kappa), 0.9, 0.3)
            if previous is not None:
                assert alpha > previous
            previous = alpha


class TestGenerators:
    def test_sharp_decay_is_one_hot(self):
        a = softmax_rows(gen_homogeneous_attention(4, 50.0))
        off_diagonal = a[~np.eye(4, dtype=bool)]
        assert off_diagonal.max() < 1e-20
        assert np.allclose(np.diag(a), 1.0, atol=1e-20)

    def test_zero_decay_is_uniform(self):
        logits = gen_homogeneous_attention(5, 0.0)
        assert np.array_equal(logits, np.zeros((5, 5)))
        assert np.allclose(softmax_rows(logits), 0.2, atol=1e-15)

    def test_softmax_is_circulant(self):
        for n, decay in [(8, 0.5), (16, 1.0), (33, 2.0)]:
            a = softmax_rows(gen_homogeneous_attention(n, decay))
            assert homogeneity_deviation(a) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 8, 33])
    @pytest.mark.parametrize("decay", [0.0, 1.0, 3.7])
    def test_bits_of_the_circular_distance(self, n, decay):
        i = np.arange(n)
        d = np.abs(i[:, None] - i[None, :])
        expected = -decay * np.minimum(d, n - d).astype(float)
        assert gen_homogeneous_attention(n, decay).tobytes() == expected.tobytes()

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError, match=">= 2"):
            gen_homogeneous_attention(1, 1.0)

    def test_pure_nyquist_tone(self):
        v = gen_inconsistent_values(8, 2.0, 2.0, seed=3)
        assert np.allclose(v, 2.0 * np.array([1, -1] * 4), atol=1e-12)

    def test_deterministic_from_seed(self):
        a = gen_inconsistent_values(32, 1.0, 1e-3, seed=17)
        b = gen_inconsistent_values(32, 1.0, 1e-3, seed=17)
        assert np.array_equal(a, b)
        c = gen_inconsistent_values(32, 1.0, 1e-3, seed=18)
        assert not np.array_equal(a, c)

    def test_amplitude_bound(self):
        for seed in range(5):
            v = gen_inconsistent_values(64, 1.5, 0.25, seed=seed)
            assert np.abs(v).max() <= 1.5 + 1e-12

    def test_output_has_inconsistency(self):
        a = softmax_rows(gen_homogeneous_attention(64, 1.0))
        v = gen_inconsistent_values(64, 1.0, 1e-3, seed=0)
        profile = inconsistency_profile(a @ v, make_window("blackman", 9), 5)
        assert profile.per_tau.min() > 0.0

    @pytest.mark.parametrize("value, got", [(np.nan, "nan"), (np.inf, "inf"), (None, "None (type NoneType)"),
                                            ("0.5", "'0.5' (type str)"),
                                            (10**400, "an integer too large for a float")],
                             ids=["nan", "inf", "None", "str", "10**400"])
    def test_non_number_amplitude_and_eta_named_as_non_finite(self, value, got):
        with pytest.raises(ValidationError, match=f"^{re.escape(f'hf_amplitude must be finite, got {got}')}$"):
            gen_inconsistent_values(8, 1.0, value, seed=0)
        with pytest.raises(ValidationError, match=f"^{re.escape(f'eta must be finite, got {got}')}$"):
            make_instance(np.eye(4), np.ones(4), make_window("blackman", 3), 1, value)

    def test_bad_amplitude_rejected(self):
        with pytest.raises(ValidationError, match="hf_amplitude"):
            gen_inconsistent_values(8, 1.0, 0.0, seed=0)
        with pytest.raises(ValidationError, match="hf_amplitude"):
            gen_inconsistent_values(8, 1.0, 1.5, seed=0)


class TestVerifyTheorem:
    @staticmethod
    def _instance(n, eta=0.9, seed=0, hf=1e-4, window=None):
        window = window or make_window("blackman", 9)
        a = softmax_rows(gen_homogeneous_attention(n, 1.0))
        v = gen_inconsistent_values(n, 1.0, hf, seed)
        return make_instance(a, v, window, 5, eta)

    def test_empty_map_named(self):
        # raised NumPy's "zero-size array to reduction operation maximum" from the row-sum check
        with pytest.raises(ValidationError, match=r"^attention must have at least one frame, got shape \(0, 0\)$"):
            make_instance(np.zeros((0, 0)), np.zeros(0), make_window("blackman", 9), 5, 0.9)

    def test_measured_instance_fields(self):
        inst = self._instance(32)
        assert inst.feasible
        assert 0.0 < inst.kappa_hat < 1.0 - inst.a_min
        assert inst.homogeneity_dev <= 1e-12
        assert 0.0 < inst.a_min < 1.0

    def test_loose_eta_still_contracts(self):
        report = verify_theorem(self._instance(32, eta=0.999))
        assert report.alpha > 0.0
        assert report.max_ratio < 1.0

    def test_pipeline_bounds_and_report(self):
        for n in (32, 64):
            report = verify_theorem(self._instance(n))
            assert report.passed
            assert report.max_ratio <= 0.9 + slack(n)
            assert report.min_e_x > 1e-12
            assert np.count_nonzero(np.isnan(report.ratio_per_tau)) == 0
            assert report.iota + report.kappa_hat * report.lambda_coef == pytest.approx(
                report.eta, abs=1e-9)
            assert report.kappa_on_y >= 0.0

    def test_infeasible_instance_names_inequality(self):
        # seed 7 puts the carrier phase where a near-cancellation exposes the
        # Nyquist line, pushing the measured kappa past the separation bound
        inst = self._instance(32, seed=7)
        assert not inst.feasible
        with pytest.raises(ValidationError, match="kappa_hat < 1 - a_min"):
            require_feasible(inst)
        with pytest.raises(ValidationError, match="infeasible"):
            verify_theorem(inst)

    def test_eta_below_range_names_inequality(self):
        inst = self._instance(32, eta=0.05)
        assert not inst.feasible
        with pytest.raises(ValidationError, match="eta >= kappa_hat / \\(1 - a_min\\)"):
            require_feasible(inst)

    def test_nan_attention_rejected(self):
        a = softmax_rows(gen_homogeneous_attention(8, 1.0))
        a[3, 5] = np.nan
        with pytest.raises(ValidationError, match=r"attention entries must lie in \[0, 1\]"):
            make_instance(a, gen_inconsistent_values(8, 1.0, 1e-4, 0), make_window("blackman", 9),
                          5, 0.9)

    def test_rows_off_one_rejected(self):
        a = softmax_rows(gen_homogeneous_attention(8, 1.0))
        a[2] *= 1.0 + 1e-8
        with pytest.raises(ValidationError, match="^attention rows must sum to 1 within 1e-9$"):
            make_instance(a, gen_inconsistent_values(8, 1.0, 1e-4, 0), make_window("blackman", 9),
                          2, 0.9)

    @pytest.mark.parametrize("values, shape", [(np.ones(7), "(7,)"), (np.ones((8, 1)), "(8, 1)")])
    def test_values_of_the_wrong_shape_rejected(self, values, shape):
        a = softmax_rows(gen_homogeneous_attention(8, 1.0))
        message = f"values must be a vector of length 8, got shape {shape}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make_instance(a, values, make_window("blackman", 9), 2, 0.9)

    def test_slack_schedule(self):
        assert slack(32) == 0.15
        assert slack(127) == 0.15
        assert slack(128) == 0.05
        assert slack(256) == 0.05

    def test_report_formatting(self):
        report = verify_theorem(self._instance(32))
        text = format_report(report)
        assert "kappa_hat:" in text
        assert "max_ratio:" in text
        assert "pass: true" in text
        assert "tau ratio" in text
        # header lines + one line per shift
        assert len(text.strip().splitlines()) == 15 + 32

    def test_four_transforms_per_instance(self, monkeypatch):
        # one high-band table each for x, x_dyn, y and y_dyn, a stacked pair per call
        calls = []
        real = consistency.dstft_magnitudes

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(consistency, "dstft_magnitudes", counting)
        verify_theorem(self._instance(32))
        assert calls == [(2, 1, 32)] * 2

    def test_instance_tables_match_the_consistency_functions(self):
        inst = self._instance(48)
        x = inst.attention @ inst.values
        x_dyn = x - np.diag(inst.attention) * inst.values
        assert np.array_equal(inst.e_x,
                              inconsistency_profile(x, inst.window, inst.k_t).per_tau)
        assert inst.kappa_hat == estimate_kappa(x, x_dyn, inst.window, inst.k_t)
        product = dynamic_component(inst.attention) @ inst.values
        assert inst.kappa_hat == pytest.approx(
            estimate_kappa(x, product, inst.window, inst.k_t), abs=1e-12)


def _reweighted_signals(monkeypatch, instance):
    """The y and y_dyn that verify_theorem transforms, in that order."""
    signals = []
    real = consistency.dstft_magnitudes

    def recording(pair, *args):
        signals.extend(pair[:, 0])
        return real(pair, *args)

    monkeypatch.setattr(consistency, "dstft_magnitudes", recording)
    report = verify_theorem(instance)
    return report.alpha, signals


class TestClosedFormReweight:
    """verify_theorem's y and y_dyn against the reweighted map built row by
    row; the instance supplies alpha, the map and values are swapped in."""

    N = 24

    @staticmethod
    def _maps():
        rng = np.random.default_rng(70)
        n = TestClosedFormReweight.N
        plain = softmax_rows(2.0 * rng.standard_normal((n, n)))
        sparse = plain * (rng.random((n, n)) < 0.5)
        sparse[3] = 0.0
        sparse[3, 7] = 1.0  # one-hot off the diagonal: d = 0
        sparse[5, 5] = 0.0
        sparse /= sparse.sum(axis=1, keepdims=True)
        logits = rng.standard_normal((n, n))
        logits[0, 0] = logits[1, 9] = 40.0  # near-one-hot rows, on and off the diagonal
        return {"non_circulant": plain, "zero_entries": sparse,
                "near_one_hot": softmax_rows(logits)}

    @pytest.mark.parametrize("kind", ["non_circulant", "zero_entries", "near_one_hot"])
    def test_matches_the_row_oracle(self, monkeypatch, kind):
        a = self._maps()[kind]
        v = np.random.default_rng(71).uniform(-1.0, 1.0, self.N)
        inst = dataclasses.replace(TestVerifyTheorem._instance(self.N), attention=a, values=v)
        alpha, (y, y_dyn) = _reweighted_signals(monkeypatch, inst)
        a_y = np.array(closed_form_rows(a.tolist(), alpha))
        assert np.abs(y - a_y @ v).max() <= 1e-12
        assert np.abs(y_dyn - dynamic_component(a_y) @ v).max() <= 1e-12

    def test_rows_off_one_match_the_softmax(self, monkeypatch):
        # rows summing to 1 within make_instance's 1e-9 are renormalised
        # exactly as softmax(log a - alpha * I) renormalises them
        rng = np.random.default_rng(72)
        a = self._maps()["non_circulant"] * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, (self.N, 1)))
        v = rng.uniform(-1.0, 1.0, self.N)
        inst = dataclasses.replace(TestVerifyTheorem._instance(self.N), attention=a, values=v)
        alpha, (y, y_dyn) = _reweighted_signals(monkeypatch, inst)
        a_y = softmax_rows(np.log(a) - alpha * np.eye(self.N))
        assert np.abs(y - a_y @ v).max() <= 1e-12
        assert np.abs(y_dyn - dynamic_component(a_y) @ v).max() <= 1e-12


def _traced_peak(function, *args):
    """Bytes allocated at the peak of one call, above what existed before."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLargeNMemory:
    """Traced peaks at N = 1024, in units of one N x N float array: the
    generator and the softmax hold their result only, and the verifier
    holds no N x N temporary beyond high-band tables of about half that."""

    N = 1024

    @pytest.fixture(scope="class")
    def inputs(self):
        logits = gen_homogeneous_attention(self.N, 1.0)
        attention = softmax_rows(logits)
        values = gen_inconsistent_values(self.N, 1.0, 1e-12, 0)
        instance = make_instance(attention, values, make_window("blackman", 9), 5, 0.9)
        return {"gen_homogeneous_attention": (gen_homogeneous_attention, self.N, 1.0),
                "softmax_rows": (softmax_rows, logits),
                "verify_theorem": (verify_theorem, instance)}

    @pytest.mark.parametrize("name, bound", [("gen_homogeneous_attention", 1.1),
                                             ("softmax_rows", 1.1), ("verify_theorem", 2.5)])
    def test_traced_peak(self, inputs, name, bound):
        assert _traced_peak(*inputs[name]) <= bound * self.N * self.N * 8


class TestTableMemory:
    """Traced peaks of ``make_instance`` and ``verify_theorem`` at N = 1024,
    above what existed before the call.  Each reads one signal pair through
    ``consistency``'s reduction, which holds at once:

    - two high-band tables, N x (N//2 - k_t + 1) floats each (|T(x)|, and
      |T(x_dyn)| divided in place into the ratios);
    - the mask of kept positions, one byte per table entry;
    - the kernel's block temporaries: the (K, s) complex sums and one
      product beside them, each within ``spectral._BLOCK_BYTES``, plus up
      to four NumPy ufunc buffers of ``np.getbufsize()`` complex entries;
    - O(N) vectors (x, x_dyn, y, y_dyn, the row sums, E, the ratios, index
      arrays), allowed as 32 float vectors of length N.

    That is about 11.2 MiB here; a third table would add 4.0 MiB."""

    N = 1024
    K_T = 5

    @pytest.fixture(scope="class")
    def inputs(self):
        attention = softmax_rows(gen_homogeneous_attention(self.N, 1.0))
        values = gen_inconsistent_values(self.N, 1.0, 1e-12, 0)
        args = (attention, values, make_window("blackman", 9), self.K_T, 0.9)
        return {"make_instance": (make_instance, *args),
                "verify_theorem": (verify_theorem, make_instance(*args))}

    @pytest.mark.parametrize("name", ["make_instance", "verify_theorem"])
    def test_two_tables_and_a_mask(self, inputs, name):
        entries = self.N * (self.N // 2 - self.K_T + 1)
        bound = (2 * 8 * entries + entries + 2 * spectral._BLOCK_BYTES
                 + 4 * 16 * np.getbufsize() + 32 * 8 * self.N)
        assert _traced_peak(*inputs[name]) <= bound


def _rejection(function, *args):
    try:
        function(*args)
    except ValidationError as exc:
        return str(exc)
    return None


class TestOneFeasibilityRule:
    """require_feasible and alpha_from_closed_form reject the same
    (kappa, eta, a_min) points with the same words, kappa_hat for kappa."""

    GRID = sorted({(kappa, eta, a_min)
                   for kappa in (0.0, 0.1, 0.45, 0.5, 0.7, 0.9, 1.0)
                   for eta in (0.05, 0.5, 0.9, 0.999, 1.0)
                   for a_min in (0.0, 0.1, 0.3, 0.55, 1.0)}
                  | {(0.45, 0.5, 0.1), (0.45, 0.45 / 0.9 + 1e-14, 0.1), (0.2, 0.8, -0.1)})

    @pytest.fixture(scope="class")
    def base(self):
        a = softmax_rows(gen_homogeneous_attention(32, 1.0))
        v = gen_inconsistent_values(32, 1.0, 1e-4, 0)
        return make_instance(a, v, make_window("blackman", 9), 5, 0.9)

    def test_same_points_rejected_with_the_same_words(self, base):
        rejected = 0
        for kappa, eta, a_min in self.GRID:
            inst = dataclasses.replace(base, kappa_hat=kappa, eta=eta, a_min=a_min)
            by_instance = _rejection(require_feasible, inst)
            by_closed_form = _rejection(alpha_from_closed_form, kappa, eta, a_min)
            assert (by_closed_form or "").replace("kappa", "kappa_hat") == (by_instance or "")
            rejected += by_instance is not None
        assert 0 < rejected < len(self.GRID)

    def test_eta_at_the_boundary_is_infeasible(self, base):
        # eta = kappa / (1 - a_min) exactly leaves no room for the closed form
        inst = dataclasses.replace(base, kappa_hat=0.45, eta=0.5, a_min=0.1)
        for check, args in ((require_feasible, (inst,)),
                            (alpha_from_closed_form, (0.45, 0.5, 0.1))):
            with pytest.raises(ValidationError) as excinfo:
                check(*args)
            name = "kappa_hat" if check is require_feasible else "kappa"
            assert f"eta >= {name} / (1 - a_min)" in str(excinfo.value)
            assert f"eta * (1 - a_min) - {name}" in str(excinfo.value)
