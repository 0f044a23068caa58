"""Tests for the tensor container, configuration loading, and the CLI."""

import struct

import numpy as np
import pytest

from tiara import (ConfigError, TensorFileError, ValidationError, make_window,
                   motion_intensity, read_tensor, softmax_rows, tiara,
                   write_tensor)
from tiara.cli import _resolve_config, build_parser, main
from tiara.config import Config, load_config
from tiara.verifier import gen_homogeneous_attention, gen_inconsistent_values


class TestTensorFile:
    @pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 4), (2, 2, 3, 3)])
    def test_round_trip_bit_exact(self, tmp_path, shape):
        rng = np.random.default_rng(71)
        array = rng.standard_normal(shape)
        path = tmp_path / "a.tf"
        write_tensor(path, array)
        first = path.read_bytes()
        back = read_tensor(path)
        assert back.shape == shape
        assert np.array_equal(back, array)
        write_tensor(path, back)
        assert path.read_bytes() == first

    @pytest.mark.parametrize("layout", ["transposed", "big_endian"])
    def test_layout_and_byte_order_do_not_change_the_bytes(self, tmp_path, layout):
        array = np.random.default_rng(72).standard_normal((3, 5))
        variant = array.T if layout == "transposed" else array.astype(">f8")
        c_order = np.ascontiguousarray(variant, dtype="<f8")
        path = tmp_path / "a.tf"
        write_tensor(path, variant)
        assert path.read_bytes() == (struct.pack("<4sII", b"TIAR", 1, 2)
                                     + struct.pack("<2Q", *c_order.shape) + c_order.tobytes())

    def test_rank_limit_on_write(self, tmp_path):
        with pytest.raises(ValidationError, match="rank"):
            write_tensor(tmp_path / "bad.tf", np.zeros((1, 1, 1, 1, 1)))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tf"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(TensorFileError, match="byte offset 0"):
            read_tensor(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.tf"
        path.write_bytes(struct.pack("<4sII", b"TIAR", 9, 1) + struct.pack("<Q", 0))
        with pytest.raises(TensorFileError, match="byte offset 4"):
            read_tensor(path)

    def test_bad_rank(self, tmp_path):
        path = tmp_path / "bad.tf"
        path.write_bytes(struct.pack("<4sII", b"TIAR", 1, 7))
        with pytest.raises(TensorFileError, match="byte offset 8"):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.tf"
        good = struct.pack("<4sII", b"TIAR", 1, 1) + struct.pack("<Q", 3) + b"\x00" * 24
        path.write_bytes(good[:-8])
        with pytest.raises(TensorFileError, match="mismatch"):
            read_tensor(path)

    def test_offset_attribute(self, tmp_path):
        path = tmp_path / "bad.tf"
        path.write_bytes(b"NO")
        with pytest.raises(TensorFileError) as excinfo:
            read_tensor(path)
        assert excinfo.value.offset == 2


class TestConfig:
    def test_defaults(self):
        config = Config()
        assert config.alpha == 6.0
        assert config.window_kind == "blackman"
        assert config.window_length == 9
        assert config.k_threshold == 5
        assert config.resolved_corner_size(16) == 4
        assert config.resolved_corner_penalty() == 3.0

    def test_load_and_override(self, tmp_path):
        path = tmp_path / "tiara.cfg"
        path.write_text("# comment\nalpha = 5\nwindow.kind = hann\nwindow.length = 7\n"
                        "eta = 0.8\nseed = 42\n")
        config = load_config(path)
        assert config.alpha == 5.0
        assert config.window_kind == "hann"
        assert config.window_length == 7
        assert config.eta == 0.8
        assert config.seed == 42

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "tiara.cfg"
        path.write_text("beta = 1\n")
        with pytest.raises(ConfigError, match="unknown key 'beta'"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "tiara.cfg"
        path.write_text("alpha = fast\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("alpha", "2.5"), ("corner_size", "3"), ("corner_penalty", "1.5"),
        ("window.kind", "hann"), ("window.length", "7"), ("phi1", "2"), ("phi2", "5"),
        ("k_threshold", "3"), ("eta", "0.5"), ("t1", "0.2"), ("t2", "0.9"),
        ("layer_threshold", "4"), ("seed", "11")])
    def test_flag_and_file_give_the_same_config(self, tmp_path, key, value):
        path = tmp_path / "tiara.cfg"
        path.write_text(f"{key} = {value}\n")
        from_file = load_config(path)
        flag = "--" + key.replace(".", "-").replace("_", "-")
        args = build_parser().parse_args(["synth", "--n", "8", "--out-logits", "l.tf",
                                          "--out-values", "v.tf", flag, value])
        assert _resolve_config(args) == from_file
        assert from_file != Config()

    def test_module_preconditions_enforced(self, tmp_path):
        path = tmp_path / "tiara.cfg"
        path.write_text("eta = 1.5\n")
        with pytest.raises(ConfigError, match="eta"):
            load_config(path)
        path.write_text("window.kind = kaiser\n")
        with pytest.raises(ConfigError, match="window.kind"):
            load_config(path)


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestSynthCommand:
    def test_deterministic_bit_identical(self, tmp_path):
        paths = [(tmp_path / f"l{i}.tf", tmp_path / f"v{i}.tf") for i in (0, 1)]
        for lp, vp in paths:
            assert run_cli("synth", "--n", 16, "--out-logits", lp, "--out-values", vp,
                           "--seed", 5) == 0
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_zero_decay_uniform_logits(self, tmp_path):
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        assert run_cli("synth", "--n", 8, "--decay", 0.0,
                       "--out-logits", lp, "--out-values", vp) == 0
        logits = read_tensor(lp)
        assert logits.shape == (1, 1, 8, 8)
        assert np.array_equal(logits, np.zeros((1, 1, 8, 8)))

    def test_matches_library_generators(self, tmp_path):
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        assert run_cli("synth", "--n", 12, "--decay", 1.5, "--hf-amplitude", 1e-3,
                       "--seed", 9, "--out-logits", lp, "--out-values", vp) == 0
        assert np.array_equal(read_tensor(lp)[0, 0], gen_homogeneous_attention(12, 1.5))
        assert np.array_equal(read_tensor(vp)[0, 0, :, 0],
                              gen_inconsistent_values(12, 1.0, 1e-3, 9))


class TestAnalyzeCommand:
    def test_uniform_logits_give_zero_rho(self, tmp_path):
        lp, rp = tmp_path / "l.tf", tmp_path / "rho.tf"
        write_tensor(lp, np.zeros((2, 2, 8, 8)))
        assert run_cli("analyze", "--input", lp, "--output", rp) == 0
        assert np.array_equal(read_tensor(rp), np.zeros((2, 2, 8)))

    def test_single_location_matches_direct_calls(self, tmp_path):
        rng = np.random.default_rng(72)
        logits = rng.standard_normal((1, 1, 10, 10))
        lp, rp = tmp_path / "l.tf", tmp_path / "rho.tf"
        write_tensor(lp, logits)
        assert run_cli("analyze", "--input", lp, "--output", rp) == 0
        rho = read_tensor(rp)[0, 0]
        attention = softmax_rows(logits[0, 0])
        w = make_window("blackman", 9)
        for i in range(10):
            assert rho[i] == motion_intensity(attention[i], w, i)

    def test_rerun_bit_identical_and_csv(self, tmp_path):
        rng = np.random.default_rng(73)
        lp = tmp_path / "l.tf"
        write_tensor(lp, rng.standard_normal((1, 2, 6, 6)))
        outs = []
        for i in (0, 1):
            rp, cp = tmp_path / f"rho{i}.tf", tmp_path / f"spec{i}.csv"
            assert run_cli("analyze", "--input", lp, "--output", rp,
                           "--spectrogram", cp) == 0
            outs.append((rp.read_bytes(), cp.read_bytes()))
        assert outs[0] == outs[1]
        lines = outs[0][1].decode().splitlines()
        assert lines[0] == "h,w,i,k,magnitude"
        for line in lines[1:]:
            h, w, i, k, magnitude = line.split(",")
            assert float(magnitude) >= 0.0

    def test_wrong_rank_rejected(self, tmp_path):
        lp = tmp_path / "l.tf"
        write_tensor(lp, np.zeros((4, 4)))
        assert run_cli("analyze", "--input", lp, "--output", tmp_path / "rho.tf") == 2


class TestInputPolicy:
    """analyze accepts masked (-inf) logits; a NaN or a fully masked row is
    rejected.  reweight rejects all three."""

    @pytest.mark.parametrize("case, analyze_code", [
        ("masked", 0), ("nan", 2), ("fully_masked", 2)])
    def test_non_finite_logits(self, tmp_path, case, analyze_code):
        rng = np.random.default_rng(78)
        logits = rng.standard_normal((1, 2, 6, 6))
        if case == "masked":
            logits[0, 1, 2, 4] = -np.inf
        elif case == "nan":
            logits[0, 0, 3, 1] = np.nan
        else:
            logits[0, 1, 5, :] = -np.inf
        lp, vp, rp = tmp_path / "l.tf", tmp_path / "v.tf", tmp_path / "rho.tf"
        write_tensor(lp, logits)
        write_tensor(vp, rng.standard_normal((1, 2, 6, 1)))
        assert run_cli("analyze", "--input", lp, "--output", rp) == analyze_code
        if analyze_code == 0:
            rho = read_tensor(rp)
            assert np.all(np.isfinite(rho)) and rho.min() >= 0.0 and rho.max() <= 1.0
        assert run_cli("reweight", "--logits", lp, "--values", vp,
                       "--out-values", tmp_path / "o.tf",
                       "--out-attention", tmp_path / "a.tf") == 2


class TestReweightCommand:
    def test_matches_library_pipeline(self, tmp_path):
        rng = np.random.default_rng(74)
        logits = rng.standard_normal((2, 1, 8, 8))
        values = rng.standard_normal((2, 1, 8, 3))
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        op, ap = tmp_path / "out.tf", tmp_path / "att.tf"
        write_tensor(lp, logits)
        write_tensor(vp, values)
        assert run_cli("reweight", "--logits", lp, "--values", vp,
                       "--out-values", op, "--out-attention", ap,
                       "--alpha", 5.0) == 0
        expected = tiara(logits, values, make_window("blackman", 9),
                         alpha=5.0, corner_size=2, corner_penalty=2.5)
        assert np.array_equal(read_tensor(op), expected.outputs)
        assert np.array_equal(read_tensor(ap), expected.attention)

    def test_zero_alpha_is_plain_attention_at_file_level(self, tmp_path):
        rng = np.random.default_rng(76)
        logits = rng.standard_normal((1, 1, 6, 6))
        values = rng.standard_normal((1, 1, 6, 1))
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        write_tensor(lp, logits)
        write_tensor(vp, values)
        assert run_cli("reweight", "--logits", lp, "--values", vp,
                       "--out-values", tmp_path / "o.tf",
                       "--out-attention", tmp_path / "a.tf",
                       "--alpha", 0.0, "--corner-penalty", 0.0) == 0
        plain = softmax_rows(logits[0, 0])
        assert np.allclose(read_tensor(tmp_path / "a.tf")[0, 0], plain, atol=1e-15)
        assert np.allclose(read_tensor(tmp_path / "o.tf")[0, 0],
                           plain @ values[0, 0], atol=1e-14)

    def test_matches_independent_reference_at_file_level(self, tmp_path):
        from oracles import algorithm_reference
        rng = np.random.default_rng(77)
        logits = rng.standard_normal((2, 2, 12, 12))
        values = rng.standard_normal((2, 2, 12, 1))
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        write_tensor(lp, logits)
        write_tensor(vp, values)
        assert run_cli("reweight", "--logits", lp, "--values", vp,
                       "--out-values", tmp_path / "o.tf",
                       "--out-attention", tmp_path / "a.tf",
                       "--alpha", 6.0, "--corner-size", 3,
                       "--corner-penalty", 3.0) == 0
        expected = np.array(algorithm_reference(
            logits.tolist(), values.tolist(),
            list(make_window("blackman", 9).coefficients), 6.0, 3, 3.0))
        assert np.allclose(read_tensor(tmp_path / "o.tf"), expected, atol=1e-10)

    def test_dimension_mismatch_names_both_shapes(self, tmp_path, capsys):
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        write_tensor(lp, np.zeros((1, 1, 8, 8)))
        write_tensor(vp, np.zeros((1, 1, 6, 1)))
        code = run_cli("reweight", "--logits", lp, "--values", vp,
                       "--out-values", tmp_path / "o.tf",
                       "--out-attention", tmp_path / "a.tf")
        assert code == 2
        err = capsys.readouterr().err
        assert "(1, 1, 8, 8)" in err and "(1, 1, 6, 1)" in err


class TestVerifyTheoremCommand:
    def test_default_run_passes(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        code = run_cli("verify-theorem", "--sizes", "32,64", "--report", report)
        assert code == 0
        text = report.read_text()
        assert text.count("PASS") == 2
        assert "FAIL" not in text
        assert "kappa_hat:" in text

    def test_infeasible_seed_exits_validation(self, tmp_path, capsys):
        code = run_cli("verify-theorem", "--sizes", "32", "--seed", 7,
                       "--report", tmp_path / "r.txt")
        assert code == 2
        assert "kappa_hat < 1 - a_min" in capsys.readouterr().err

    def test_explicit_instance_from_synth_files(self, tmp_path):
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        assert run_cli("synth", "--n", 32, "--out-logits", lp, "--out-values", vp) == 0
        report = tmp_path / "report.txt"
        assert run_cli("verify-theorem", "--logits", lp, "--values", vp,
                       "--report", report) == 0
        assert "PASS n=32" in report.read_text()

    @pytest.mark.parametrize("logits_shape, values_shape, code", [
        ((32, 32), (32,), 0),
        ((1, 1, 32, 32), (32,), 0),
        ((32, 32), (32, 1), 0),
        ((32, 32), (1, 1, 32, 1), 0),
        ((1, 32, 32), (32,), 2),
        ((2, 1, 32, 32), (32,), 2),
        ((32, 32), (32, 2), 2),
        ((32, 32), (1, 1, 32), 2),
    ])
    def test_explicit_instance_shapes(self, tmp_path, logits_shape, values_shape, code):
        logits = gen_homogeneous_attention(32, 1.0)
        values = gen_inconsistent_values(32, 1.0, 1e-4, 0)
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        write_tensor(lp, np.broadcast_to(logits, logits_shape))
        write_tensor(vp, np.broadcast_to(values.reshape(-1, 1), (32, 2))
                     if values_shape == (32, 2) else values.reshape(values_shape))
        report = tmp_path / "report.txt"
        assert run_cli("verify-theorem", "--logits", lp, "--values", vp,
                       "--report", report) == code
        if code == 0:
            assert "PASS n=32" in report.read_text()

    def test_stdout_report(self, capsys):
        assert run_cli("verify-theorem", "--sizes", "32") == 0
        out = capsys.readouterr().out
        assert "summary" in out and "PASS n=32" in out

    def test_failed_verification_exits_three(self, tmp_path, monkeypatch):
        # feasible instances that break the bound do not arise at desk scale
        # (they measure as infeasible first), so exercise the exit wiring by
        # forcing a failing report
        import dataclasses

        import tiara.cli as cli_module
        real = cli_module.verify_theorem

        def failing(instance):
            return dataclasses.replace(real(instance), passed=False)

        monkeypatch.setattr(cli_module, "verify_theorem", failing)
        report = tmp_path / "r.txt"
        code = run_cli("verify-theorem", "--sizes", "32", "--report", report)
        assert code == 3
        assert "FAIL n=32" in report.read_text()


class TestBlendCommand:
    @pytest.fixture
    def blend_files(self, tmp_path):
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("a$b$c$d$e\nf$g$h$i$j\n")
        spans = tmp_path / "spans.txt"
        spans.write_text("0 50\n150 310\n")
        tokens = tmp_path / "tokens.tsv"
        tokens.write_text("".join(f"{c}\t{i}\n" for i, c in enumerate("abcdefghij")))
        rng = np.random.default_rng(75)
        table = rng.standard_normal((10, 4))
        embeddings = tmp_path / "emb.tf"
        write_tensor(embeddings, table)
        return prompts, spans, tokens, embeddings, table

    def test_single_frame_matrix(self, tmp_path, blend_files):
        prompts, spans, tokens, embeddings, table = blend_files
        out = tmp_path / "cond.tf"
        assert run_cli("blend", "--prompts", prompts, "--spans", spans,
                       "--tokens", tokens, "--embeddings", embeddings,
                       "--output", out, "--frame", 100, "--timestep", 0.8,
                       "--layer", 0) == 0
        got = read_tensor(out)
        first = table[[0, 1, 2, 3, 4]]
        second = table[[5, 6, 7, 8, 9]]
        assert np.allclose(got, 0.5 * (first + second), atol=1e-15)

    def test_otherwise_branch_returns_first_prompt(self, tmp_path, blend_files):
        prompts, spans, tokens, embeddings, table = blend_files
        out = tmp_path / "cond.tf"
        assert run_cli("blend", "--prompts", prompts, "--spans", spans,
                       "--tokens", tokens, "--embeddings", embeddings,
                       "--output", out, "--frame", 100, "--timestep", 0.1,
                       "--layer", 2) == 0
        assert np.array_equal(read_tensor(out), table[[0, 1, 2, 3, 4]])

    def test_dump_all_frames(self, tmp_path, blend_files):
        prompts, spans, tokens, embeddings, table = blend_files
        out = tmp_path / "cond.tf"
        assert run_cli("blend", "--prompts", prompts, "--spans", spans,
                       "--tokens", tokens, "--embeddings", embeddings,
                       "--output", out, "--dump-all", "--timestep", 0.8,
                       "--layer", 0) == 0
        stack = read_tensor(out)
        assert stack.shape == (310, 5, 4)
        assert np.array_equal(stack[0], table[[0, 1, 2, 3, 4]])
        assert np.array_equal(stack[309], table[[5, 6, 7, 8, 9]])

    def test_parse_error_reports_line(self, tmp_path, blend_files, capsys):
        prompts, spans, tokens, embeddings, _ = blend_files
        prompts.write_text("a$b$c$d$e\nf$g$h\n")
        code = run_cli("blend", "--prompts", prompts, "--spans", spans,
                       "--tokens", tokens, "--embeddings", embeddings,
                       "--output", tmp_path / "cond.tf", "--frame", 0,
                       "--timestep", 0.5, "--layer", 0)
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    def test_span_count_mismatch(self, tmp_path, blend_files, capsys):
        prompts, spans, tokens, embeddings, _ = blend_files
        spans.write_text("0 50\n")
        code = run_cli("blend", "--prompts", prompts, "--spans", spans,
                       "--tokens", tokens, "--embeddings", embeddings,
                       "--output", tmp_path / "cond.tf", "--frame", 0,
                       "--timestep", 0.5, "--layer", 0)
        assert code == 2


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        assert run_cli("analyze", "--input", tmp_path / "missing.tf",
                       "--output", tmp_path / "o.tf") == 4

    def test_corrupt_file_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.tf"
        bad.write_bytes(b"garbage")
        assert run_cli("analyze", "--input", bad, "--output", tmp_path / "o.tf") == 4

    def test_bad_config_is_validation_error(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("mystery = 1\n")
        lp = tmp_path / "l.tf"
        write_tensor(lp, np.zeros((1, 1, 4, 4)))
        assert run_cli("analyze", "--input", lp, "--output", tmp_path / "o.tf",
                       "--config", cfg) == 2


class TestPipeline:
    def test_synth_analyze_reweight_verify(self, tmp_path):
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        assert run_cli("synth", "--n", 32, "--out-logits", lp, "--out-values", vp) == 0
        assert run_cli("analyze", "--input", lp, "--output", tmp_path / "rho.tf") == 0
        assert run_cli("reweight", "--logits", lp, "--values", vp,
                       "--out-values", tmp_path / "y.tf",
                       "--out-attention", tmp_path / "a.tf") == 0
        assert run_cli("verify-theorem", "--logits", lp, "--values", vp,
                       "--report", tmp_path / "report.txt") == 0
        assert read_tensor(tmp_path / "y.tf").shape == (1, 1, 32, 1)
