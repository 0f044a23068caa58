"""Tests for the tensor container, configuration loading, and the CLI."""

import argparse
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tiara import (ConfigError, TensorFileError, ValidationError, build_reweight_matrix, cli,
                   conditioning, inconsistency_profile, make_instance, make_schedule,
                   make_window, motion_intensity, motion_profile, read_tensor, softmax_rows,
                   spectral, tensorfile, tiara, write_tensor)
from tiara.cli import _resolve_config, build_parser, main
from tiara.config import CONFIG_KEYS, Config, load_config
from tiara.tensorfile import Blocks
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

    def test_truncated_dimension_list(self, tmp_path):
        path = tmp_path / "bad.tf"
        path.write_bytes(struct.pack("<4sII", b"TIAR", 1, 3) + struct.pack("<Q", 4))
        with pytest.raises(TensorFileError, match="^truncated dimension list") as excinfo:
            read_tensor(path)
        assert excinfo.value.offset == 20

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

    def test_length_checked_before_the_payload_is_allocated(self, tmp_path):
        path = tmp_path / "bad.tf"
        path.write_bytes(struct.pack("<4sII", b"TIAR", 1, 1) + struct.pack("<Q", 2**60))
        with pytest.raises(TensorFileError, match="mismatch") as excinfo:
            read_tensor(path)
        assert excinfo.value.offset == 20

    def test_short_read_is_an_error(self, tmp_path, monkeypatch):
        path = tmp_path / "a.tf"
        path.write_bytes(struct.pack("<4sII", b"TIAR", 1, 1) + struct.pack("<Q", 3)
                         + b"\x00" * 16)
        fstat = os.fstat

        def stale_fstat(fd):
            # the file loses its last value between the size check and the read
            real = fstat(fd)
            return SimpleNamespace(st_mode=real.st_mode, st_size=real.st_size + 8)

        monkeypatch.setattr(tensorfile.os, "fstat", stale_fstat)
        with pytest.raises(TensorFileError, match="short read: 16 of 24") as excinfo:
            read_tensor(path)
        assert excinfo.value.offset == 36

    def test_pipe_is_rejected_as_not_a_regular_file(self, tmp_path):
        path = tmp_path / "a.tf"
        write_tensor(path, np.zeros(3))
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, path.read_bytes())
            os.close(write_end)
            with pytest.raises(TensorFileError, match="not a regular file") as excinfo:
                read_tensor(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert excinfo.value.offset == 0

    @pytest.mark.parametrize("blocks", [[np.zeros((2, 3))],
                                        [np.zeros((3, 3)), np.zeros((1, 3))],
                                        [np.zeros((2, 3)), "raise"]],
                             ids=["shortfall", "overrun", "exception"])
    def test_failed_write_leaves_destination_and_no_temp_file(self, tmp_path, blocks):
        def produce():
            for block in blocks:
                if isinstance(block, str):
                    raise RuntimeError("producer failed")
                yield block

        path = tmp_path / "a.tf"
        path.write_bytes(b"previous contents")
        with pytest.raises((ValidationError, RuntimeError)):
            write_tensor(path, Blocks((3, 3), produce()))
        assert path.read_bytes() == b"previous contents"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.tf"]

    def test_blocks_give_the_bytes_of_one_write(self, tmp_path):
        array = np.random.default_rng(74).standard_normal((5, 2, 3))
        write_tensor(tmp_path / "one.tf", array)
        write_tensor(tmp_path / "blocks.tf",
                     Blocks(array.shape, (array[:2], array[2:2], array[2:])))
        assert (tmp_path / "blocks.tf").read_bytes() == (tmp_path / "one.tf").read_bytes()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                             ids=["umask_022", "umask_077", "umask_002"])
    def test_output_mode_follows_the_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            write_tensor(tmp_path / "a.tf", np.zeros(3))
        finally:
            os.umask(previous)
        assert (tmp_path / "a.tf").stat().st_mode & 0o777 == mode


class TestConfig:
    def test_defaults(self):
        config = Config()
        assert config.alpha == 6.0
        assert config.window_kind == "blackman"
        assert config.window_length == 9
        assert config.k_threshold == 5

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

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        path = tmp_path / "tiara.cfg"
        path.write_text("alpha = 5\nalpha 5\n")
        with pytest.raises(ConfigError, match=f"^{path}:2: expected key=value, got 'alpha 5'$"):
            load_config(path)
        assert run_cli("verify-theorem", "--sizes", "32", "--config", path) == 2
        assert capsys.readouterr().err.splitlines()[0] == (
            f"tiara: {path}:2: expected key=value, got 'alpha 5'")

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["alpha", "corner_penalty", "t1", "t2"])
    def test_non_finite_float_named(self, tmp_path, capsys, key, value):
        # each key in the words of its consuming module's check
        rule = {"alpha": "finite and >= 0", "corner_penalty": "finite and >= 0",
                "t1": "finite", "t2": "finite"}[key]
        message = f"{key} must be {rule}"
        path = tmp_path / "tiara.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"^{message}, got {value}$"):
            load_config(path)
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        write_tensor(lp, np.zeros((1, 1, 4, 4)))
        write_tensor(vp, np.zeros((1, 1, 4, 1)))
        flag = "--" + key.replace("_", "-")
        assert run_cli("reweight", "--logits", lp, "--values", vp, "--out-values",
                       tmp_path / "y.tf", "--out-attention", tmp_path / "a.tf",
                       f"{flag}={value}") == 2
        assert capsys.readouterr().err == f"tiara: {message}, got {value}\n"
        assert not (tmp_path / "y.tf").exists()

    def test_module_preconditions_enforced(self, tmp_path):
        path = tmp_path / "tiara.cfg"
        path.write_text("eta = 1.5\n")
        with pytest.raises(ConfigError, match="eta"):
            load_config(path)
        path.write_text("window.kind = kaiser\n")
        with pytest.raises(ConfigError, match="window.kind"):
            load_config(path)


def _rejection(function, *args):
    try:
        function(*args)
    except ValidationError as exc:
        return str(exc)
    return None


_BLACKMAN = make_window("blackman", 9)
_INSTANCE = (softmax_rows(gen_homogeneous_attention(32, 1.0)),
             gen_inconsistent_values(32, 1.0, 1e-4, 0))


class TestOneRulePerKey:
    """load_config rejects exactly the values of a key that the library call
    consuming it rejects, in the same words apart from the name.  Values
    stay clear of the bounds that depend on the frame count N, which the
    config cannot know.  A new key without CASES fails."""

    # key -> (the library's name for it, library call with the value, raw values)
    CASES = {
        "alpha": ("alpha", lambda v: build_reweight_matrix(np.zeros(64), v),
                  ["-1", "-0.0", "0", "2.5", "nan", "inf", "-inf"]),
        "corner_size": ("corner_size", lambda v: build_reweight_matrix(np.zeros(64), 1.0, v),
                        ["-1", "0", "16", "32"]),
        "corner_penalty": ("corner_penalty",
                           lambda v: build_reweight_matrix(np.zeros(64), 1.0, 0, v),
                           ["-1", "0", "1.5", "nan", "inf", "-inf"]),
        "window.kind": ("window kind", lambda v: make_window(v, 9),
                        ["hann", "blackman", "kaiser", "Hann", ""]),
        "window.length": ("window length", lambda v: make_window("hann", v), ["-1", "0", "1", "9"]),
        "phi1": ("phi1", lambda v: motion_profile(np.eye(64), _BLACKMAN, phi1=v),
                 ["-1", "0", "3"]),
        "phi2": ("phi2", lambda v: motion_profile(np.eye(64), _BLACKMAN, phi2=v),
                 ["-1", "0", "10", "37"]),
        "k_threshold": ("k_threshold",
                        lambda v: inconsistency_profile(np.ones(64), _BLACKMAN, v),
                        ["-1", "0", "1", "5", "32"]),
        "eta": ("eta", lambda v: make_instance(*_INSTANCE, _BLACKMAN, 5, v),
                ["0", "0.5", "0.9", "1", "1.5", "nan", "inf", "-inf"]),
        "t1": ("t1", lambda v: make_schedule([(0, 4)], (v, 1.0), 8),
               ["nan", "inf", "-inf", "0.5", "1.0", "2.0"]),
        "t2": ("t2", lambda v: make_schedule([(0, 4)], (0.6, v), 8),
               ["nan", "inf", "-inf", "0.5", "0.6", "0.7"]),
        "layer_threshold": ("layer_threshold", lambda v: make_schedule([(0, 4)], (0.6, 1.0), v),
                            ["-1", "0", "8"]),
        "seed": ("seed", lambda v: gen_inconsistent_values(8, 1.0, 1e-4, v), ["-1", "0", "7"]),
    }

    @pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
    def test_same_values_rejected_with_the_same_words(self, tmp_path, key):
        name, call, raws = self.CASES[key]
        path = tmp_path / "tiara.cfg"
        rejected = 0
        for raw in raws:
            path.write_text(f"{key} = {raw}\n")
            by_config = _rejection(load_config, path)
            by_library = _rejection(call, CONFIG_KEYS[key][1](raw))
            assert (by_config or "").replace(key, name) == (by_library or ""), raw
            rejected += by_config is not None
        assert 0 < rejected < len(raws)


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestEveryKeyGuarded:
    """Every config key is checked before any file is read: with input paths
    that do not exist, an invalid value exits 2 naming the key, not 4.  A
    new key without an entry in INVALID, or without a check, fails."""

    INVALID = {"alpha": "-1", "corner_size": "-1", "corner_penalty": "nan",
               "window.kind": "kaiser", "window.length": "0", "phi1": "-1", "phi2": "0",
               "k_threshold": "0", "eta": "1.5", "t1": "nan", "t2": "inf",
               "layer_threshold": "-1", "seed": "-1"}

    @pytest.mark.parametrize("command", ["analyze", "reweight", "verify-theorem", "blend", "synth"])
    @pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
    def test_invalid_value_exits_validation(self, tmp_path, capsys, command, key):
        missing, out = tmp_path / "missing", tmp_path / "out"
        args = {"analyze": ["--input", missing, "--output", out],
                "reweight": ["--logits", missing, "--values", missing, "--out-values", out,
                             "--out-attention", out],
                "verify-theorem": ["--logits", missing, "--values", missing, "--report", out],
                "blend": ["--prompts", missing, "--spans", missing, "--tokens", missing,
                          "--embeddings", missing, "--output", out, "--dump-all",
                          "--timestep", 0.5, "--layer", 0],
                "synth": ["--n", 8, "--out-logits", out, "--out-values", out]}[command]
        flag = "--" + CONFIG_KEYS[key][0].replace("_", "-")
        assert run_cli(command, *args, f"{flag}={self.INVALID[key]}") == 2
        assert key in capsys.readouterr().err.split()
        assert not out.exists()


class TestCommandSurface:
    """Every command takes --config and one override flag per config key,
    each with default None; synth and verify-theorem take the generator
    inputs; and each command has its own options besides."""

    OWN = {"analyze": ["--input", "--output", "--spectrogram"],
           "reweight": ["--logits", "--values", "--out-values", "--out-attention"],
           "verify-theorem": ["--sizes", "--logits", "--values", "--report"],
           "blend": ["--prompts", "--spans", "--tokens", "--embeddings", "--output",
                     "--timestep", "--layer", "--frame", "--dump-all"],
           "synth": ["--n", "--out-logits", "--out-values"]}
    GENERATOR = {"--decay": ("decay", 1.0), "--b-v": ("b_v", 1.0),
                 "--hf-amplitude": ("hf_amplitude", 1e-4)}

    @pytest.mark.parametrize("command", sorted(OWN))
    def test_flags(self, command):
        commands = next(action.choices for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        flags = {flag: action for action in commands[command]._actions
                 for flag in action.option_strings}
        assert flags.pop("-h") is flags.pop("--help")
        config = flags.pop("--config")
        assert (config.dest, config.type, config.default) == ("config", None, None)
        for name, cast in CONFIG_KEYS.values():
            action = flags.pop("--" + name.replace("_", "-"))
            assert (action.dest, action.type, action.default) == (name, cast, None)
        if command in ("synth", "verify-theorem"):
            for flag, (dest, default) in self.GENERATOR.items():
                action = flags.pop(flag)
                assert (action.dest, action.type, action.default) == (dest, float, default)
        assert sorted(flags) == sorted(self.OWN[command])


class TestSizesNoArrayCanHold:
    """A size whose array NumPy cannot hold exits 2 naming it, before any
    file is read or written; NumPy raised a raw ValueError (exit 1)."""

    @pytest.mark.parametrize("size", [10**400, 2**62], ids=["10**400", "2**62"])
    @pytest.mark.parametrize("command, args, named", [
        ("analyze", ["--input", "missing", "--window-length"], "window.length"),
        ("synth", ["--out-logits", "out", "--out-values", "out", "--n"], "n"),
        ("verify-theorem", ["--report", "out", "--sizes"], "n"),
    ], ids=["analyze", "synth", "verify-theorem"])
    def test_exits_validation(self, tmp_path, capsys, command, args, named, size):
        out = tmp_path / "out"
        argv = [tmp_path / arg if arg in ("missing", "out") else arg for arg in args]
        if command == "analyze":
            argv[2:2] = ["--output", out]
        assert run_cli(command, *argv, size) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"tiara: {named} must be at most ") and err.endswith(f", got {size}\n")
        assert not out.exists()


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

    @pytest.mark.parametrize("flags, name", [
        (["--decay=nan"], "decay"), (["--decay=inf"], "decay"), (["--b-v=inf"], "b_v"),
        (["--b-v=nan"], "b_v"), (["--decay=-1", "--b-v=nan"], "b_v")],
        ids=lambda v: "-".join(v).replace("=", "-") if isinstance(v, list) else None)
    @pytest.mark.parametrize("command", ["synth", "verify-theorem"])
    def test_non_finite_generator_input_named(self, tmp_path, capsys, command, flags, name):
        # synth used to exit 0 with NaN or inf tensors; verify-theorem blamed the logits or signal;
        # with two bad flags synth named decay and verify-theorem, which builds the values first, b_v
        out = tmp_path / "out"
        args = (["--n", 8, "--out-logits", out, "--out-values", out] if command == "synth"
                else ["--report", out])
        assert run_cli(command, *args, *flags) == 2
        assert capsys.readouterr().err.startswith(f"tiara: {name} must be finite")
        assert not out.exists()

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

    def test_rho_bytes_do_not_depend_on_the_spectrogram(self, tmp_path):
        write_tensor(tmp_path / "l.tf", np.random.default_rng(94).standard_normal((2, 3, 7, 7)))
        written = []
        for extra in ([], ["--spectrogram", tmp_path / "spec.csv"]):
            assert run_cli("analyze", "--input", tmp_path / "l.tf", "--output", tmp_path / "rho.tf",
                           *extra) == 0
            written.append((tmp_path / "rho.tf").read_bytes())
        assert written[0] == written[1]

    def test_custom_band_keeps_rho_in_the_unit_interval(self, tmp_path):
        # analyze wrote 1.0000000000000002 and reweight exited 2 on this field
        logits = np.broadcast_to(np.random.default_rng(1).standard_normal(6) * 30, (1, 1, 6, 6))
        write_tensor(tmp_path / "l.tf", logits)
        write_tensor(tmp_path / "v.tf", np.zeros((1, 1, 6, 1)))
        band = ["--window-kind", "hann", "--window-length", 13, "--phi1", 1, "--phi2", 9]
        assert run_cli("analyze", "--input", tmp_path / "l.tf", "--output", tmp_path / "rho.tf", *band) == 0
        assert read_tensor(tmp_path / "rho.tf").max() <= 1.0
        assert run_cli("reweight", "--logits", tmp_path / "l.tf", "--values", tmp_path / "v.tf",
                       "--out-values", tmp_path / "o.tf", "--out-attention", tmp_path / "a.tf",
                       *band) == 0

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

    @pytest.mark.parametrize("shape", [(2, 3, 6, 6), (0, 2, 6, 6)], ids=["field", "empty"])
    def test_spectrogram_rows_in_index_order(self, tmp_path, shape):
        logits = np.random.default_rng(76).standard_normal(shape)
        lp, cp = tmp_path / "l.tf", tmp_path / "spec.csv"
        write_tensor(lp, logits)
        assert run_cli("analyze", "--input", lp, "--output", tmp_path / "rho.tf",
                       "--spectrogram", cp) == 0
        spectra = motion_profile(softmax_rows(logits), make_window("blackman", 9)).spectra
        rows = [f"{h},{w},{i},{k},{float(spectra[h, w, i, k])!r}\n"
                for h, w, i, k in np.ndindex(spectra.shape)]
        assert cp.read_text() == "h,w,i,k,magnitude\n" + "".join(rows)

    def test_wrong_rank_rejected(self, tmp_path):
        lp = tmp_path / "l.tf"
        write_tensor(lp, np.zeros((4, 4)))
        assert run_cli("analyze", "--input", lp, "--output", tmp_path / "rho.tf") == 2


class TestInputPolicy:
    """One rule for logits, held by ``softmax_rows``, so analyze and
    reweight agree: masked (-inf) entries are accepted and get attention
    exactly 0; a row holding a NaN or a +inf, or fully masked, exits 2 and
    is named (h, w, i).  Non-finite values are rejected by reweight."""

    @pytest.mark.parametrize("case, analyze_code", [
        ("masked", 0), ("nan", 2), ("posinf", 2), ("fully_masked", 2)])
    def test_non_finite_logits(self, tmp_path, case, analyze_code):
        rng = np.random.default_rng(78)
        logits = rng.standard_normal((1, 2, 6, 6))
        if case == "masked":
            logits[0, 1, 2, 4] = -np.inf
        elif case == "nan":
            logits[0, 0, 3, 1] = np.nan
        elif case == "posinf":
            logits[0, 0, 3, 1] = np.inf
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
                       "--out-attention", tmp_path / "a.tf") == analyze_code

    @pytest.mark.parametrize("case, row, words", [
        ("nan", (0, 0, 3), "holds NaN"), ("posinf", (1, 0, 2), "holds +inf"),
        ("fully_masked", (0, 1, 5), "is fully masked")], ids=["nan", "posinf", "fully_masked"])
    def test_rejected_row_is_named(self, tmp_path, capsys, case, row, words):
        rng = np.random.default_rng(79)
        logits = rng.standard_normal((2, 2, 6, 6))
        if case == "fully_masked":
            logits[row] = -np.inf
        else:
            logits[row + (1,)] = np.nan if case == "nan" else np.inf
        lp, vp, out = tmp_path / "l.tf", tmp_path / "v.tf", tmp_path / "o.tf"
        write_tensor(lp, logits)
        write_tensor(vp, rng.standard_normal((2, 2, 6, 3)))
        for argv in (("analyze", "--input", lp, "--output", out),
                     ("reweight", "--logits", lp, "--values", vp, "--out-values", out,
                      "--out-attention", tmp_path / "a.tf")):
            assert run_cli(*argv) == 2
            assert f"logits row {row} {words}" in capsys.readouterr().err
            assert not out.exists()

    def test_masked_reweight_matches_reference(self, tmp_path):
        from oracles import algorithm_reference
        rng = np.random.default_rng(80)
        logits = rng.standard_normal((2, 2, 8, 8))
        mask = rng.random(logits.shape) < 0.3
        mask[..., 0] = False  # every row keeps an unmasked entry
        logits[mask] = -np.inf
        values = rng.standard_normal((2, 2, 8, 2))
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        write_tensor(lp, logits)
        write_tensor(vp, values)
        assert run_cli("reweight", "--logits", lp, "--values", vp,
                       "--out-values", tmp_path / "o.tf",
                       "--out-attention", tmp_path / "a.tf") == 0
        attention = read_tensor(tmp_path / "a.tf")
        assert np.all(attention[mask] == 0.0)
        expected = algorithm_reference(logits.tolist(), values.tolist(),
                                       list(make_window("blackman", 9).coefficients),
                                       6.0, 2, 3.0)
        assert np.max(np.abs(read_tensor(tmp_path / "o.tf") - np.array(expected))) <= 1e-10

    def test_non_finite_values_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(81)
        values = rng.standard_normal((1, 1, 6, 2))
        values[0, 0, 4, 1] = np.nan
        lp, vp, out = tmp_path / "l.tf", tmp_path / "v.tf", tmp_path / "o.tf"
        write_tensor(lp, rng.standard_normal((1, 1, 6, 6)))
        write_tensor(vp, values)
        assert run_cli("reweight", "--logits", lp, "--values", vp, "--out-values", out,
                       "--out-attention", tmp_path / "a.tf") == 2
        assert "values must be finite; first non-finite entry at index (0, 0, 4, 1)" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_verify_theorem_names_a_non_finite_value(self, tmp_path, capsys):
        # was "signal values must all be finite", which named neither input nor index
        values = gen_inconsistent_values(8, 1.0, 1e-4, 0)
        values[3] = np.nan
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        write_tensor(lp, gen_homogeneous_attention(8, 1.0))
        write_tensor(vp, values)
        assert run_cli("verify-theorem", "--logits", lp, "--values", vp) == 2
        assert capsys.readouterr().err == \
            "tiara: values must be finite; first non-finite entry at index (3,)\n"

    def test_verify_theorem_names_a_fully_masked_row(self, tmp_path, capsys):
        logits = gen_homogeneous_attention(8, 1.0)
        logits[3, :] = -np.inf
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        write_tensor(lp, logits)
        write_tensor(vp, gen_inconsistent_values(8, 1.0, 1e-4, 0))
        assert run_cli("verify-theorem", "--logits", lp, "--values", vp) == 2
        assert "logits row (3,) is fully masked" in capsys.readouterr().err


class TestSingleFrame:
    """N = 1 with a length-1 window: the padded row has length 1, and the
    default band still resolves, so the lone frame has rho 0."""

    def test_analyze_and_reweight_run(self, tmp_path):
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        write_tensor(lp, np.full((1, 1, 1, 1), 0.5))
        write_tensor(vp, np.full((1, 1, 1, 2), 3.0))
        assert run_cli("analyze", "--input", lp, "--output", tmp_path / "rho.tf",
                       "--window-length", 1) == 0
        assert np.array_equal(read_tensor(tmp_path / "rho.tf"), np.zeros((1, 1, 1)))
        assert run_cli("reweight", "--logits", lp, "--values", vp,
                       "--out-values", tmp_path / "o.tf",
                       "--out-attention", tmp_path / "a.tf", "--window-length", 1) == 0
        assert np.array_equal(read_tensor(tmp_path / "a.tf"), np.ones((1, 1, 1, 1)))
        assert np.array_equal(read_tensor(tmp_path / "o.tf"), np.full((1, 1, 1, 2), 3.0))


class TestEmptyFrameAxis:
    """A zero-length frame axis is rejected where rows are first softmaxed;
    an empty stack of non-empty rows still runs."""

    @pytest.mark.parametrize("command", ["analyze", "reweight", "verify-theorem"])
    def test_rejected_with_its_shape(self, tmp_path, capsys, command):
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        out = tmp_path / "o.tf"
        if command == "verify-theorem":
            shape = (0, 0)
            write_tensor(lp, np.zeros(shape))
            write_tensor(vp, np.zeros(0))
            argv = ("verify-theorem", "--logits", lp, "--values", vp, "--report", out)
        else:
            shape = (1, 1, 0, 0)
            write_tensor(lp, np.zeros(shape))
            write_tensor(vp, np.zeros((1, 1, 0, 3)))
            argv = (("analyze", "--input", lp, "--output", out) if command == "analyze" else
                    ("reweight", "--logits", lp, "--values", vp, "--out-values", out,
                     "--out-attention", tmp_path / "a.tf"))
        assert run_cli(*argv) == 2
        assert f"got shape {shape}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_field_of_frames_runs(self, tmp_path):
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        write_tensor(lp, np.zeros((0, 2, 6, 6)))
        write_tensor(vp, np.zeros((0, 2, 6, 3)))
        assert run_cli("reweight", "--logits", lp, "--values", vp,
                       "--out-values", tmp_path / "o.tf",
                       "--out-attention", tmp_path / "a.tf") == 0
        assert read_tensor(tmp_path / "o.tf").shape == (0, 2, 6, 3)
        assert read_tensor(tmp_path / "a.tf").shape == (0, 2, 6, 6)


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

    def test_wrong_rank_values_name_both_shapes(self, tmp_path, capsys):
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        write_tensor(lp, np.zeros((1, 1, 8, 8)))
        write_tensor(vp, np.zeros((1, 1, 8)))
        assert run_cli("reweight", "--logits", lp, "--values", vp,
                       "--out-values", tmp_path / "o.tf",
                       "--out-attention", tmp_path / "a.tf") == 2
        err = capsys.readouterr().err
        assert "(1, 1, 8, 8)" in err and "(1, 1, 8)" in err


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

    @pytest.mark.parametrize("given", ["--logits", "--values"])
    def test_logits_and_values_come_together(self, tmp_path, capsys, given):
        path = tmp_path / "t.tf"
        write_tensor(path, np.zeros(4))
        assert run_cli("verify-theorem", given, path) == 2
        assert capsys.readouterr().err.splitlines()[0] == (
            "tiara: --logits and --values must be given together")

    def test_zero_values_carry_no_inconsistency(self, tmp_path, capsys):
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        write_tensor(lp, gen_homogeneous_attention(32, 1.0))
        write_tensor(vp, np.zeros(32))
        report = tmp_path / "report.txt"
        assert run_cli("verify-theorem", "--logits", lp, "--values", vp, "--report", report) == 2
        assert capsys.readouterr().err.splitlines()[0] == (
            "tiara: Assumption 1 violated: every E(x, tau) is below tolerance; "
            "the instance carries no inconsistency to reduce")
        assert not report.exists()

    @pytest.mark.parametrize("sizes, named", [
        ("32,abc", "'abc' is not an integer"),
        ("32,4.5", "'4.5' is not an integer"),
        (",", "no sizes given"),
        (" ", "no sizes given"),
    ])
    def test_bad_sizes_exit_validation(self, tmp_path, capsys, sizes, named):
        report = tmp_path / "r.txt"
        assert run_cli("verify-theorem", "--sizes", sizes, "--report", report) == 2
        assert named in capsys.readouterr().err
        assert not report.exists()

    def test_blank_sizes_are_skipped(self, tmp_path):
        report = tmp_path / "r.txt"
        assert run_cli("verify-theorem", "--sizes", " 32,, ", "--report", report) == 0
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

    FRAME_BYTES = 8 * 5 * 4

    @pytest.mark.parametrize("spans, block_bytes", [
        ("3 10\n17 30\n33 45\n", None),
        ("3 10\n17 30\n33 45\n", 4 * FRAME_BYTES),
        ("3 10\n17 30\n33 45\n", 7 * FRAME_BYTES + 5),
        ("3 10\n17 30\n33 45\n", FRAME_BYTES - 1),
        ("0 0\n", None),
    ], ids=["one_block", "transition_split_across_blocks", "partial_last_block",
            "frame_larger_than_block", "zero_frames"])
    def test_dump_all_streamed_equals_one_call(self, tmp_path, monkeypatch, spans, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(spectral, "_BLOCK_BYTES", block_bytes)
        count = spans.count("\n")
        prompts, spans_path = tmp_path / "prompts.txt", tmp_path / "spans.txt"
        prompts.write_text("".join(f"{a}${b}${c}${d}${e}\n" for a, b, c, d, e
                                   in ["abcde", "fghij", "klmno"][:count]))
        spans_path.write_text(spans)
        tokens = tmp_path / "tokens.tsv"
        tokens.write_text("".join(f"{c}\t{i}\n" for i, c in enumerate("abcdefghijklmno")))
        table = np.random.default_rng(77).standard_normal((15, 4))
        table[7, 2] = np.inf  # span frames of prompt 1 copy it; blends stay inf
        embeddings = tmp_path / "emb.tf"
        write_tensor(embeddings, table)
        out = tmp_path / "cond.tf"
        assert run_cli("blend", "--prompts", prompts, "--spans", spans_path,
                       "--tokens", tokens, "--embeddings", embeddings, "--output", out,
                       "--dump-all", "--timestep", 0.8, "--layer", 0) == 0
        segments = [tuple(map(int, line.split())) for line in spans.splitlines()]
        schedule = make_schedule(segments, (0.6, 1.0), 8)  # the config defaults
        embedded = table[np.arange(5 * count).reshape(count, 5)]
        write_tensor(tmp_path / "want.tf", conditioning(
            schedule, embedded, np.arange(schedule.total_frames), 0.8, 0))
        assert out.read_bytes() == (tmp_path / "want.tf").read_bytes()
        assert read_tensor(out).shape == (schedule.total_frames, 5, 4)

    def test_span_bound_past_int64_exits_2(self, tmp_path, blend_files, capsys):
        # was accepted: a span end of 2**63 made the span ends float64, which rounds frames near it
        prompts, spans, tokens, embeddings, _ = blend_files
        spans.write_text("0 50\n150 9223372036854775808\n")
        code = run_cli("blend", "--prompts", prompts, "--spans", spans,
                       "--tokens", tokens, "--embeddings", embeddings,
                       "--output", tmp_path / "cond.tf", "--frame", 100,
                       "--timestep", 0.8, "--layer", 0)
        assert code == 2
        assert "span end 9223372036854775808 out of range" in capsys.readouterr().err
        assert not (tmp_path / "cond.tf").exists()

    def test_parse_error_reports_line(self, tmp_path, blend_files, capsys):
        prompts, spans, tokens, embeddings, _ = blend_files
        prompts.write_text("a$b$c$d$e\nf$g$h\n")
        code = run_cli("blend", "--prompts", prompts, "--spans", spans,
                       "--tokens", tokens, "--embeddings", embeddings,
                       "--output", tmp_path / "cond.tf", "--frame", 0,
                       "--timestep", 0.5, "--layer", 0)
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    def test_blank_lines_are_skipped(self, tmp_path, blend_files):
        prompts, spans, tokens, embeddings, _ = blend_files
        args = ["--tokens", tokens, "--embeddings", embeddings, "--dump-all", "--timestep", 0.8,
                "--layer", 0]
        assert run_cli("blend", "--prompts", prompts, "--spans", spans, *args,
                       "--output", tmp_path / "want.tf") == 0
        blank_prompts, blank_spans = tmp_path / "blank_prompts.txt", tmp_path / "blank_spans.txt"
        blank_prompts.write_text("\n" + prompts.read_text().replace("\n", "\n  \n"))
        blank_spans.write_text("\t\n" + spans.read_text().replace("\n", "\n\n"))
        assert run_cli("blend", "--prompts", blank_prompts, "--spans", blank_spans, *args,
                       "--output", tmp_path / "got.tf") == 0
        assert (tmp_path / "got.tf").read_bytes() == (tmp_path / "want.tf").read_bytes()

    def test_span_line_of_three_fields_names_its_text(self, tmp_path, blend_files, capsys):
        prompts, spans, tokens, embeddings, _ = blend_files
        spans.write_text("0 50\n150 310 400\n")
        code = run_cli("blend", "--prompts", prompts, "--spans", spans,
                       "--tokens", tokens, "--embeddings", embeddings,
                       "--output", tmp_path / "cond.tf", "--frame", 0,
                       "--timestep", 0.5, "--layer", 0)
        assert code == 2
        assert capsys.readouterr().err.splitlines()[0] == (
            f"tiara: {spans}:2: expected 'start end', got '150 310 400'")

    def test_bad_span_line_names_its_text(self, tmp_path, blend_files, capsys):
        prompts, spans, tokens, embeddings, _ = blend_files
        spans.write_text("0 50\n1 x\n")
        code = run_cli("blend", "--prompts", prompts, "--spans", spans,
                       "--tokens", tokens, "--embeddings", embeddings,
                       "--output", tmp_path / "cond.tf", "--frame", 0,
                       "--timestep", 0.5, "--layer", 0)
        assert code == 2
        assert capsys.readouterr().err == f"tiara: {spans}:2: spans must be integers, got '1 x'\n"

    def test_bad_token_line_names_its_file(self, tmp_path, blend_files, capsys):
        # the token table's errors named a line but no file
        prompts, spans, tokens, embeddings, _ = blend_files
        tokens.write_text(tokens.read_text().splitlines()[0] + "\nbad line\n")
        code = run_cli("blend", "--prompts", prompts, "--spans", spans,
                       "--tokens", tokens, "--embeddings", embeddings,
                       "--output", tmp_path / "cond.tf", "--frame", 0,
                       "--timestep", 0.5, "--layer", 0)
        assert code == 2
        assert capsys.readouterr().err == (f"tiara: {tokens}: token table line 2: expected "
                                           f"'token<TAB>id', got 'bad line'\n")

    @pytest.mark.parametrize("timestep", ["nan", "inf", "-inf"])
    def test_non_finite_timestep_rejected(self, tmp_path, blend_files, capsys, timestep):
        prompts, spans, tokens, embeddings, _ = blend_files
        code = run_cli("blend", "--prompts", prompts, "--spans", spans,
                       "--tokens", tokens, "--embeddings", embeddings,
                       "--output", tmp_path / "cond.tf", "--frame", 100,
                       f"--timestep={timestep}", "--layer", 0)
        assert code == 2
        assert capsys.readouterr().err == f"tiara: timestep must be finite, got {timestep}\n"

    def test_negative_layer_rejected(self, tmp_path, blend_files, capsys):
        prompts, spans, tokens, embeddings, _ = blend_files
        code = run_cli("blend", "--prompts", prompts, "--spans", spans,
                       "--tokens", tokens, "--embeddings", embeddings,
                       "--output", tmp_path / "cond.tf", "--frame", 100,
                       "--timestep", 0.5, "--layer", -1)
        assert code == 2
        assert capsys.readouterr().err == "tiara: layer must be an integer >= 0, got -1\n"
        assert not (tmp_path / "cond.tf").exists()

    def test_frame_and_dump_all_together_rejected(self, tmp_path, blend_files, capsys):
        # --dump-all silently won over --frame
        prompts, spans, tokens, embeddings, _ = blend_files
        out = tmp_path / "cond.tf"
        with pytest.raises(SystemExit) as exc:
            run_cli("blend", "--prompts", prompts, "--spans", spans, "--tokens", tokens,
                    "--embeddings", embeddings, "--output", out, "--frame", 100, "--dump-all",
                    "--timestep", 0.5, "--layer", 0)
        assert exc.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("tiara blend: error:") and "--frame" in error and "--dump-all" in error
        assert not out.exists()

    def test_frame_or_dump_all_required_before_any_read(self, tmp_path, blend_files, capsys):
        # the missing choice was found only after every input was read, so a
        # missing embeddings file exited 4 (i/o error) instead of 2
        prompts, spans, tokens, _, _ = blend_files
        with pytest.raises(SystemExit) as exc:
            run_cli("blend", "--prompts", prompts, "--spans", spans, "--tokens", tokens,
                    "--embeddings", tmp_path / "missing.tf", "--output", tmp_path / "cond.tf",
                    "--timestep", 0.5, "--layer", 0)
        assert exc.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("tiara blend: error:") and "--frame" in error and "--dump-all" in error

    def test_span_count_mismatch(self, tmp_path, blend_files, capsys):
        prompts, spans, tokens, embeddings, _ = blend_files
        spans.write_text("0 50\n")
        code = run_cli("blend", "--prompts", prompts, "--spans", spans,
                       "--tokens", tokens, "--embeddings", embeddings,
                       "--output", tmp_path / "cond.tf", "--frame", 0,
                       "--timestep", 0.5, "--layer", 0)
        assert code == 2


class TestMemory:
    """Traced Python and NumPy allocations stay well below the data size."""

    def test_dump_all_holds_a_fraction_of_its_output(self, tmp_path):
        words = [f"w{i}" for i in range(32)]
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("".join(
            f"{' '.join(p[:4])}${' '.join(p[4:7])}${' '.join(p[7:9])}$"
            f"{' '.join(p[9:12])}${' '.join(p[12:])}\n" for p in (words[:16], words[16:])))
        spans = tmp_path / "spans.txt"
        spans.write_text("0 100\n400 600\n")
        tokens = tmp_path / "tokens.tsv"
        tokens.write_text("".join(f"{w}\t{i}\n" for i, w in enumerate(words)))
        embeddings = tmp_path / "emb.tf"
        write_tensor(embeddings, np.random.default_rng(78).standard_normal((32, 256)))
        out = tmp_path / "cond.tf"
        tracemalloc.start()
        try:
            code = run_cli("blend", "--prompts", prompts, "--spans", spans,
                           "--tokens", tokens, "--embeddings", embeddings, "--output", out,
                           "--dump-all", "--timestep", 0.8, "--layer", 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        payload = 600 * 16 * 256 * 8
        assert out.stat().st_size == 36 + payload
        assert peak < payload / 4

    def test_read_holds_the_payload_once(self, tmp_path):
        array = np.random.default_rng(79).standard_normal((64, 128, 128))
        path = tmp_path / "a.tf"
        write_tensor(path, array)
        tracemalloc.start()
        try:
            back = read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, array)
        assert peak < 1.25 * array.nbytes


class TestOneBlockBudget:
    """spectral._BLOCK_BYTES sizes every block of every command: at one byte
    each block holds one item, and each command writes the bytes it writes
    under the default budget."""

    def outputs_at_both_budgets(self, tmp_path, monkeypatch, argv, outputs):
        """Bytes of ``outputs`` after running ``argv`` in tmp_path/default and,
        at a one-byte budget, in tmp_path/one_byte."""
        written = []
        for run, budget in (("default", spectral._BLOCK_BYTES), ("one_byte", 1)):
            monkeypatch.setattr(spectral, "_BLOCK_BYTES", budget)
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            assert run_cli(*argv) == 0
            written.append([Path(name).read_bytes() for name in outputs])
        return written

    @pytest.mark.parametrize("argv, outputs", [
        (["reweight", "--logits", "../l.tf", "--values", "../v.tf", "--out-values", "y.tf",
          "--out-attention", "a.tf"], ["y.tf", "a.tf"]),
        (["analyze", "--input", "../l.tf", "--output", "rho.tf", "--spectrogram", "spectra.csv"],
         ["rho.tf", "spectra.csv"]),
        (["verify-theorem", "--sizes", "32,48", "--report", "r.txt"], ["r.txt"]),
    ], ids=["reweight", "analyze_spectrogram", "verify_theorem"])
    def test_field_and_theorem_commands(self, tmp_path, monkeypatch, argv, outputs):
        rng = np.random.default_rng(92)
        write_tensor(tmp_path / "l.tf", rng.standard_normal((2, 3, 8, 8)))
        write_tensor(tmp_path / "v.tf", rng.standard_normal((2, 3, 8, 4)))
        default, forced = self.outputs_at_both_budgets(tmp_path, monkeypatch, argv, outputs)
        assert forced == default

    def test_blend_dump_all_one_frame_per_block(self, tmp_path, monkeypatch):
        (tmp_path / "p.txt").write_text("a$b$c$d$e\nf$g$h$i$j\n")
        (tmp_path / "s.txt").write_text("0 5\n9 20\n")
        (tmp_path / "t.tsv").write_text("".join(f"{c}\t{i}\n" for i, c in enumerate("abcdefghij")))
        write_tensor(tmp_path / "emb.tf", np.random.default_rng(93).standard_normal((10, 4)))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2].tolist())
            return conditioning(*args, **kwargs)

        monkeypatch.setattr(cli, "conditioning", counted)
        default, forced = self.outputs_at_both_budgets(
            tmp_path, monkeypatch, ["blend", "--prompts", "../p.txt", "--spans", "../s.txt",
                                    "--tokens", "../t.tsv", "--embeddings", "../emb.tf",
                                    "--output", "cond.tf", "--dump-all", "--timestep", 0.8,
                                    "--layer", 0], ["cond.tf"])
        assert forced == default
        assert calls == [list(range(20))] + [[i] for i in range(20)]  # one call, then one per frame


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


class TestSharedParser:
    """``main`` parses with one parser per process; no call may leave state
    in it that changes a later call."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_back_to_back_commands_match_fresh_processes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
        rng = np.random.default_rng(91)
        lp, vp = tmp_path / "l.tf", tmp_path / "v.tf"
        write_tensor(lp, rng.standard_normal((2, 3, 8, 8)))
        write_tensor(vp, rng.standard_normal((2, 3, 8, 4)))
        reweight = ["reweight", "--logits", lp, "--values", vp]
        commands = [
            (reweight + ["--out-values", "y.tf", "--out-attention", "a.tf",
                         "--alpha", 0, "--corner-penalty", 0], ["y.tf", "a.tf"]),
            (reweight + ["--out-values", "y.tf", "--out-attention", "a.tf"], ["y.tf", "a.tf"]),
            (["analyze", "--input", lp, "--output", "rho.tf"], ["rho.tf"]),
            (reweight + ["--out-values", "y.tf", "--out-attention", "a.tf", "--bogus"], []),
            (["verify-theorem", "--sizes", 32], []),
        ]

        def outcome(run, workdir, argv, outputs):
            workdir.mkdir()
            code, out, err = run([str(workdir / a) if a in outputs else str(a) for a in argv])
            return code, out, err, [(workdir / name).read_bytes() for name in outputs]

        def in_process(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return (code,) + tuple(capsys.readouterr())

        package_root = str(Path(cli.__file__).parents[1])

        def fresh_process(argv):
            done = subprocess.run([sys.executable, "-m", "tiara.cli", *argv], capture_output=True,
                                  text=True, env=dict(os.environ, PYTHONPATH=package_root))
            return done.returncode, done.stdout, done.stderr

        shared = [outcome(in_process, tmp_path / f"in{i}", argv, outputs)
                  for i, (argv, outputs) in enumerate(commands)]
        assert [result[0] for result in shared] == [0, 0, 0, 2, 0]
        for i, (argv, outputs) in enumerate(commands):
            assert outcome(fresh_process, tmp_path / f"fresh{i}", argv, outputs) == shared[i]


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
