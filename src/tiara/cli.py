"""Command-line surface: analyze | reweight | verify-theorem | blend | synth.

Exit codes: 0 success, 2 validation error, 3 theorem-verification failure,
4 tensor-file error.  Flags override config-file keys, which override
defaults.  All commands are deterministic given inputs, config, and seed.
"""

import argparse
import itertools
import sys
from dataclasses import replace
from functools import cache, partial

import numpy as np

from .attention import _motion, as_field, softmax_rows, tiara
from .config import CONFIG_KEYS, Config, load_config
from .errors import TensorFileError, ValidationError, _finite_rule
from .promptblend import (TokenTable, _layer_rule, align, conditioning, embed_aligned,
                          make_schedule, parse_organized)
from .spectral import _blocks
from .tensorfile import Blocks, read_tensor, write_tensor
from .verifier import (format_report, gen_homogeneous_attention,
                       gen_inconsistent_values, make_instance, require_feasible,
                       verify_theorem)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_THEOREM = 3
EXIT_IO = 4


def _resolve_config(args) -> Config:
    config = load_config(args.config) if args.config else Config()
    updates = {name: getattr(args, name) for name, _ in CONFIG_KEYS.values()
               if getattr(args, name) is not None}
    return replace(config, **updates) if updates else config


def cmd_analyze(args, config: Config) -> int:
    attention = softmax_rows(as_field(read_tensor(args.input)))
    window, frames = config.window(), np.arange(attention.shape[-1])
    rho, spectra = _motion(attention, frames, window, config.phi1, config.phi2, bool(args.spectrogram))
    write_tensor(args.output, rho)
    if args.spectrogram:
        h, w, n, bins = spectra.shape
        row_keys = [f"{i},{k}," for i, k in itertools.product(range(n), range(bins))]
        with open(args.spectrogram, "w", encoding="utf-8") as handle:
            handle.write("h,w,i,k,magnitude\n")
            # one (h, w) location at a time; repr keeps every digit of a magnitude
            for (hi, wi), location in zip(itertools.product(range(h), range(w)),
                                          spectra.reshape(h * w, n * bins)):
                prefix = f"{hi},{wi},"
                handle.write("".join([f"{prefix}{key}{magnitude!r}\n" for key, magnitude
                                      in zip(row_keys, location.tolist())]))
    return EXIT_OK


def cmd_reweight(args, config: Config) -> int:
    result = tiara(read_tensor(args.logits), read_tensor(args.values), config.window(),
                   config.phi1, config.phi2, alpha=config.alpha,
                   corner_size=config.corner_size, corner_penalty=config.corner_penalty)
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


def cmd_verify_theorem(args, config: Config) -> int:
    window = config.window()
    if args.logits or args.values:
        if not (args.logits and args.values):
            raise ValidationError("--logits and --values must be given together")
        logits = _read_instance(args.logits, 2, "logits")
        instances = [(lambda: logits, _read_instance(args.values, 1, "values"))]
    else:
        sizes = [token.strip() for token in args.sizes.split(",") if token.strip()]
        if not sizes:
            raise ValidationError(f"--sizes: no sizes given in {args.sizes!r}")
        instances = []
        for token in sizes:
            try:
                n = int(token)
            except ValueError:
                raise ValidationError(f"--sizes: {token!r} is not an integer") from None
            # the values check every n before any N x N logits are built
            instances.append((partial(gen_homogeneous_attention, n, args.decay),
                              gen_inconsistent_values(n, args.b_v, args.hf_amplitude, config.seed)))
    reports = []
    for make_logits, values in instances:
        # one size's logits and attention map at a time
        instance = make_instance(softmax_rows(make_logits()), values, window,
                                 config.k_threshold, config.eta)
        require_feasible(instance)
        reports.append(verify_theorem(instance))
        del instance
    lines = [line for report in reports for line in (format_report(report), "")]
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
    return EXIT_OK if all(report.passed for report in reports) else EXIT_THEOREM


def cmd_blend(args, config: Config) -> int:
    _finite_rule(args.timestep, "timestep")
    _layer_rule(args.layer, "layer")
    with open(args.tokens, "r", encoding="utf-8") as handle:
        try:
            table = TokenTable.from_lines(handle)
        except ValidationError as exc:
            raise ValidationError(f"{args.tokens}: {exc}") from exc
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
                raise ValidationError(f"{args.spans}:{lineno}: spans must be integers, "
                                      f"got {stripped!r}") from None
    if len(spans) != len(prompts):
        raise ValidationError(f"{len(prompts)} prompts but {len(spans)} frame spans")
    embedding_table = read_tensor(args.embeddings)
    embedded = embed_aligned(align(prompts), embedding_table)
    schedule = make_schedule(spans, (config.t1, config.t2), config.layer_threshold)
    if args.dump_all:
        tensor = _all_frames(schedule, embedded, args.timestep, args.layer)
    else:
        tensor = conditioning(schedule, embedded, args.frame, args.timestep, args.layer)
    write_tensor(args.output, tensor)
    return EXIT_OK


def _all_frames(schedule, embedded, t: float, d: int) -> Blocks:
    """Every frame's conditioning as one (frames, L, d) tensor, computed as it
    is written a block of whole frames at a time within the package's one block
    budget (``spectral._blocks``), so memory does not grow with the frame count.
    The block buffer is reused: a fresh array per block pays its page faults again."""
    total, frame_shape = schedule.total_frames, embedded.shape[1:]
    slices = _blocks(total, embedded[0].nbytes)
    buffer = np.empty((slices[0].stop if slices else 0,) + frame_shape)

    def blocks():
        for frames in slices:
            yield conditioning(schedule, embedded, np.arange(frames.start, frames.stop), t, d,
                               out=buffer[:frames.stop - frames.start])

    return Blocks((total,) + frame_shape, blocks())


def cmd_synth(args, config: Config) -> int:
    values = gen_inconsistent_values(args.n, args.b_v, args.hf_amplitude, config.seed)
    logits = gen_homogeneous_attention(args.n, args.decay)  # values first, as in verify-theorem
    write_tensor(args.out_logits, logits[None, None])
    write_tensor(args.out_values, values[None, None, :, None])
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: built on the first call, then shared.
    Parsing leaves it unchanged, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="tiara",
        description="Temporal-attention reweighting, spectral consistency checks, "
                    "and aligned prompt blending.")
    sub = parser.add_subparsers(dest="command", required=True)
    # parents: the config file and its overrides for every command, the generator inputs for two
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key=value config file")
    for name, cast in CONFIG_KEYS.values():
        common.add_argument("--" + name.replace("_", "-"), type=cast, default=None, dest=name)
    generator = argparse.ArgumentParser(add_help=False, parents=[common])
    generator.add_argument("--decay", type=float, default=1.0)
    generator.add_argument("--b-v", type=float, default=1.0, dest="b_v")
    generator.add_argument("--hf-amplitude", type=float, default=1e-4, dest="hf_amplitude")

    p = sub.add_parser("analyze", parents=[common],
                       help="motion-intensity field from an attention-logits field")
    p.add_argument("--input", required=True, help="rank-4 logits TensorFile (H, W, N, N)")
    p.add_argument("--output", required=True, help="destination for the (H, W, N) rho TensorFile")
    p.add_argument("--spectrogram", help="optional CSV of per-row spectrum magnitudes")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reweight", parents=[common], help="motion-adaptive attention reweighting")
    p.add_argument("--logits", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--out-values", required=True)
    p.add_argument("--out-attention", required=True)
    p.set_defaults(func=cmd_reweight)

    p = sub.add_parser("verify-theorem", parents=[generator], help="run the inconsistency-reduction check")
    p.add_argument("--sizes", default="32,64,128,256", help="comma-separated frame counts")
    p.add_argument("--logits", help="verify one explicit instance instead of synthesising")
    p.add_argument("--values", help="value vector for --logits")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("blend", parents=[common], help="aligned multi-prompt conditioning matrices")
    p.add_argument("--prompts", required=True, help="one $-organized prompt per line")
    p.add_argument("--spans", required=True, help="one 'start end' pair per line")
    p.add_argument("--tokens", required=True, help="token table: token<TAB>id lines")
    p.add_argument("--embeddings", required=True, help="rank-2 (vocab x d) TensorFile")
    p.add_argument("--output", required=True)
    p.add_argument("--timestep", type=float, required=True)
    p.add_argument("--layer", type=int, required=True)
    frames = p.add_mutually_exclusive_group(required=True)
    frames.add_argument("--frame", type=int)
    frames.add_argument("--dump-all", action="store_true", dest="dump_all")
    p.set_defaults(func=cmd_blend)

    p = sub.add_parser("synth", parents=[generator], help="write a synthetic logits/values pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out-logits", required=True)
    p.add_argument("--out-values", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _resolve_config(args))
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
