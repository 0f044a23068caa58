"""Command-line surface: analyze | reweight | verify-theorem | blend | synth.

Exit codes: 0 success, 2 validation error, 3 theorem-verification failure,
4 tensor-file error.  Flags override config-file keys, which override
defaults.  All commands are deterministic given inputs, config, and seed.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from .attention import motion_profile, softmax_rows, tiara
from .config import CONFIG_KEYS, Config, load_config, validate_config
from .errors import TensorFileError, ValidationError
from .promptblend import (TokenTable, align, conditioning, embed_aligned,
                          make_schedule, parse_organized)
from .tensorfile import read_tensor, write_tensor
from .verifier import (format_report, gen_homogeneous_attention,
                       gen_inconsistent_values, make_instance, require_feasible,
                       verify_theorem)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_THEOREM = 3
EXIT_IO = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key=value config file")
    for name, cast in CONFIG_KEYS.values():
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, type=cast, default=None, dest=name)


def _resolve_config(args) -> Config:
    config = load_config(args.config) if args.config else Config()
    updates = {name: getattr(args, name) for name, _ in CONFIG_KEYS.values()
               if getattr(args, name) is not None}
    if updates:
        config = validate_config(replace(config, **updates))
    return config


def _require_field(array, name: str) -> np.ndarray:
    if array.ndim != 4:
        raise ValidationError(f"{name} must be a rank-4 tensor (H, W, N, N), got rank {array.ndim}")
    if array.shape[2] != array.shape[3]:
        raise ValidationError(f"{name} trailing dims must be square, got {array.shape}")
    return array


def cmd_analyze(args) -> int:
    config = _resolve_config(args)
    logits = _require_field(read_tensor(args.input), "logits field")
    profile = motion_profile(softmax_rows(logits), config.window(), config.phi1, config.phi2)
    write_tensor(args.output, profile.rho)
    if args.spectrogram:
        spectra = profile.spectra
        lines = [f"{hi},{wi},{i},{k},{magnitude!r}" for (hi, wi, i, k), magnitude
                 in zip(np.ndindex(spectra.shape), spectra.ravel().tolist())]
        with open(args.spectrogram, "w", encoding="utf-8") as handle:
            handle.write("h,w,i,k,magnitude\n")
            handle.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_reweight(args) -> int:
    config = _resolve_config(args)
    logits = _require_field(read_tensor(args.logits), "logits field")
    values = read_tensor(args.values)
    if values.ndim != 4:
        raise ValidationError(
            f"values field must be rank 4 (H, W, N, d_v), got rank {values.ndim}")
    if values.shape[:3] != logits.shape[:3]:
        raise ValidationError(
            f"shape mismatch: logits field {logits.shape} vs values field {values.shape}")
    n = logits.shape[2]
    result = tiara(logits, values, config.window(), config.phi1, config.phi2,
                   alpha=config.alpha, corner_size=config.resolved_corner_size(n),
                   corner_penalty=config.resolved_corner_penalty())
    write_tensor(args.out_values, result.outputs)
    write_tensor(args.out_attention, result.attention)
    return EXIT_OK


def _read_instance(path, rank: int, name: str) -> np.ndarray:
    """One location of a field file: logits (N, N) or (1, 1, N, N), values
    (N,), (N, 1) or (1, 1, N, 1)."""
    array = read_tensor(path)
    if array.ndim == 4 and array.shape[:2] == (1, 1):
        array = array[0, 0]
    if rank == 1 and array.ndim == 2 and array.shape[1] == 1:
        array = array[:, 0]
    if array.ndim != rank:
        raise ValidationError(f"{name} must have rank {rank} (or a 1x1 spatial field), "
                              f"got shape {array.shape}")
    return array


def cmd_verify_theorem(args) -> int:
    config = _resolve_config(args)
    window = config.window()
    reports = []
    if args.logits or args.values:
        if not (args.logits and args.values):
            raise ValidationError("--logits and --values must be given together")
        instances = [(_read_instance(args.logits, 2, "logits"),
                      _read_instance(args.values, 1, "values"))]
    else:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        instances = []
        for n in sizes:
            logits = gen_homogeneous_attention(n, args.decay)
            values = gen_inconsistent_values(n, args.b_v, args.hf_amplitude, config.seed)
            instances.append((logits, values))
    lines = []
    all_passed = True
    for logits, values in instances:
        instance = make_instance(softmax_rows(logits), values, window,
                                 config.k_threshold, config.eta)
        require_feasible(instance)
        report = verify_theorem(instance)
        reports.append(report)
        all_passed = all_passed and report.passed
        lines.append(format_report(report))
        lines.append("")
    summary = ["summary"]
    for report in reports:
        verdict = "PASS" if report.passed else "FAIL"
        summary.append(f"{verdict} n={report.n} max_ratio={report.max_ratio:.12g} "
                       f"eta={report.eta:.12g} slack={report.slack:.12g}")
    if len(reports) > 1:
        deviations = " ".join(f"{r.homogeneity_dev:.6g}" for r in reports)
        summary.append(f"homogeneity_deviation_per_n: {deviations}")
    text = "\n".join(lines + summary) + "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if all_passed else EXIT_THEOREM


def cmd_blend(args) -> int:
    config = _resolve_config(args)
    with open(args.tokens, "r", encoding="utf-8") as handle:
        table = TokenTable.from_lines(handle)
    prompts = []
    with open(args.prompts, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.rstrip("\n")
            if not text.strip():
                continue
            try:
                prompts.append(parse_organized(text, table))
            except ValidationError as exc:
                raise ValidationError(f"{args.prompts}:{lineno}: {exc}") from exc
    spans = []
    with open(args.spans, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ValidationError(f"{args.spans}:{lineno}: expected 'start end', got {stripped!r}")
            try:
                spans.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ValidationError(f"{args.spans}:{lineno}: spans must be integers")
    if len(spans) != len(prompts):
        raise ValidationError(f"{len(prompts)} prompts but {len(spans)} frame spans")
    embedding_table = read_tensor(args.embeddings)
    embedded = embed_aligned(align(prompts), embedding_table)
    schedule = make_schedule(spans, (config.t1, config.t2), config.layer_threshold)
    frames = np.arange(schedule.total_frames) if args.dump_all else args.frame
    if frames is None:
        raise ValidationError("either --frame or --dump-all is required")
    write_tensor(args.output, conditioning(schedule, embedded, frames, args.timestep, args.layer))
    return EXIT_OK


def cmd_synth(args) -> int:
    config = _resolve_config(args)
    logits = gen_homogeneous_attention(args.n, args.decay)
    values = gen_inconsistent_values(args.n, args.b_v, args.hf_amplitude, config.seed)
    write_tensor(args.out_logits, logits[None, None])
    write_tensor(args.out_values, values[None, None, :, None])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiara",
        description="Temporal-attention reweighting, spectral consistency checks, "
                    "and aligned prompt blending.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="motion-intensity field from an attention-logits field")
    p.add_argument("--input", required=True, help="rank-4 logits TensorFile (H, W, N, N)")
    p.add_argument("--output", required=True, help="destination for the (H, W, N) rho TensorFile")
    p.add_argument("--spectrogram", help="optional CSV of per-row spectrum magnitudes")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reweight", help="motion-adaptive attention reweighting")
    p.add_argument("--logits", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--out-values", required=True)
    p.add_argument("--out-attention", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_reweight)

    p = sub.add_parser("verify-theorem", help="run the inconsistency-reduction check")
    p.add_argument("--sizes", default="32,64,128,256", help="comma-separated frame counts")
    p.add_argument("--decay", type=float, default=1.0)
    p.add_argument("--b-v", type=float, default=1.0, dest="b_v")
    p.add_argument("--hf-amplitude", type=float, default=1e-4, dest="hf_amplitude")
    p.add_argument("--logits", help="verify one explicit instance instead of synthesising")
    p.add_argument("--values", help="value vector for --logits")
    p.add_argument("--report", help="write the report here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("blend", help="aligned multi-prompt conditioning matrices")
    p.add_argument("--prompts", required=True, help="one $-organized prompt per line")
    p.add_argument("--spans", required=True, help="one 'start end' pair per line")
    p.add_argument("--tokens", required=True, help="token table: token<TAB>id lines")
    p.add_argument("--embeddings", required=True, help="rank-2 (vocab x d) TensorFile")
    p.add_argument("--output", required=True)
    p.add_argument("--frame", type=int)
    p.add_argument("--timestep", type=float, required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--dump-all", action="store_true", dest="dump_all")
    _add_common(p)
    p.set_defaults(func=cmd_blend)

    p = sub.add_parser("synth", help="write a synthetic logits/values pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--decay", type=float, default=1.0)
    p.add_argument("--b-v", type=float, default=1.0, dest="b_v")
    p.add_argument("--hf-amplitude", type=float, default=1e-4, dest="hf_amplitude")
    p.add_argument("--out-logits", required=True)
    p.add_argument("--out-values", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TensorFileError as exc:
        print(f"tiara: tensor file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"tiara: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"tiara: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
