"""The four benchmark workloads: seeded inputs, the CLI call, and the
independent reference check of one output.

Each workload writes its inputs into a work directory from the seed alone,
names the ``tiara`` argv that processes them, and knows how many work units
one operation finishes.  ``check`` compares the outputs of one operation
with references that share no code with ``tiara``: ``tests/oracles.py`` for
the motion intensity and the reweighting pipeline, a closed-form linear
blend for ``blend_dump``, and the PASS verdicts for ``theorem_sweep``.
"""

import math
import random
import struct
from pathlib import Path

import numpy as np

import oracles

SPECTRAL_TOL = 1e-12
PIPELINE_TOL = 1e-10
WINDOW_LENGTH = 9  # the default window.length; the default kind is Blackman

THEOREM_SIZES = (32, 64, 128, 256)
BLEND_FRAMES = 700
BLEND_DIM = 768
BLEND_TIMESTEP = 0.8  # inside the default (t1, t2) window, so transitions blend


def blackman(length):
    """Blackman window from its closed form, written apart from tiara.spectral."""
    return [0.42 - 0.5 * math.cos(2 * math.pi * j / (length - 1))
            + 0.08 * math.cos(4 * math.pi * j / (length - 1)) for j in range(length)]


def read_tf(path):
    """Parse a tensor file with the format spelled out here, not tiara.tensorfile."""
    blob = Path(path).read_bytes()
    magic, version, rank = struct.unpack_from("<4sII", blob, 0)
    if magic != b"TIAR" or version != 1:
        raise ValueError(f"{path}: not a version-1 tensor file")
    dims = struct.unpack_from(f"<{rank}Q", blob, 12)
    if len(blob) != 12 + 8 * rank + 8 * math.prod(dims):
        raise ValueError(f"{path}: {len(blob)} bytes do not match dims {dims}")
    return np.frombuffer(blob, dtype="<f8", offset=12 + 8 * rank).reshape(dims)


def write_tf(path, array):
    array = np.ascontiguousarray(array, dtype="<f8")
    with open(path, "wb") as handle:
        handle.write(struct.pack("<4sII", b"TIAR", 1, array.ndim))
        handle.write(struct.pack(f"<{array.ndim}Q", *array.shape))
        handle.write(array.tobytes())


def _close(name, got, want, tol, problems):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{name}: shape {got.shape}, expected {want.shape}")
        return
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= tol:
        problems.append(f"{name}: max deviation {err:.3g} exceeds {tol:g}")


class Workload:
    """One workload. ``prepare`` returns the argv and the output files."""

    name = ""
    rows = 0            # attention rows H*W*N processed per operation
    signal_samples = 0  # sum of N over the 1-D signals of theorem_sweep
    frames = 0          # frames written by blend_dump

    @property
    def items(self):
        return self.rows or self.signal_samples or self.frames

    def prepare(self, seed, work):
        raise NotImplementedError

    def check(self):
        """Problems found in the outputs of the last operation ([] if none)."""
        raise NotImplementedError


class FieldWorkload(Workload):
    """A seeded field of attention logits; rows differ in sharpness so the
    motion intensities spread over [0, 1]."""

    def __init__(self, name, h, w, n, d_v=0):
        self.name = name
        self.shape = (h, w, n)
        self.d_v = d_v
        self.rows = h * w * n

    def prepare(self, seed, work):
        rng = np.random.default_rng(seed)
        h, w, n = self.shape
        scale = rng.uniform(0.5, 4.0, size=(h, w, n, 1))
        self.logits = rng.standard_normal((h, w, n, n)) * scale
        self.samples = random.Random(seed).sample([(a, b) for a in range(h) for b in range(w)], 2)
        write_tf(work / "logits.tf", self.logits)
        if self.d_v:
            self.values = rng.standard_normal((h, w, n, self.d_v))
            write_tf(work / "values.tf", self.values)
            self.outputs = [work / "out_values.tf", work / "out_attention.tf"]
            return (["reweight", "--logits", str(work / "logits.tf"),
                     "--values", str(work / "values.tf"),
                     "--out-values", str(self.outputs[0]),
                     "--out-attention", str(self.outputs[1])], self.outputs)
        self.outputs = [work / "rho.tf", work / "rows.csv"]
        return (["analyze", "--input", str(work / "logits.tf"),
                 "--output", str(self.outputs[0]), "--spectrogram", str(self.outputs[1])],
                self.outputs)

    def check(self):
        return self._check_reweight() if self.d_v else self._check_analyze()

    def _check_reweight(self):
        problems = []
        h, w, n = self.shape
        outputs = read_tf(self.outputs[0])
        attention = read_tf(self.outputs[1])
        _close("attention rows sum", attention.sum(axis=-1), np.ones((h, w, n)),
               PIPELINE_TOL, problems)
        _close("outputs vs attention @ values", outputs, attention @ self.values,
               PIPELINE_TOL, problems)
        coeffs = blackman(WINDOW_LENGTH)
        for hi, wi in self.samples:
            want = oracles.algorithm_reference(
                [[self.logits[hi, wi].tolist()]], [[self.values[hi, wi].tolist()]],
                coeffs, alpha=6.0, corner_size=n // 4, corner_penalty=3.0)
            _close(f"outputs[{hi},{wi}] vs oracle", outputs[hi, wi], want[0][0],
                   PIPELINE_TOL, problems)
        return problems

    def _check_analyze(self):
        problems = []
        h, w, n = self.shape
        rho = read_tf(self.outputs[0])
        coeffs = blackman(WINDOW_LENGTH)
        half = WINDOW_LENGTH // 2
        bins = (n + 2 * half) // 2 + 1
        with open(self.outputs[1], encoding="utf-8") as handle:
            header = handle.readline()
            body = handle.read().splitlines()
        if header != "h,w,i,k,magnitude\n" or len(body) != self.rows * bins:
            return [f"spectrogram CSV: header {header!r}, {len(body)} rows, "
                    f"expected {self.rows * bins}"]
        for hi, wi in self.samples:
            attention = oracles.naive_softmax(self.logits[hi, wi].tolist())
            want = [oracles.rho_reference(attention[i], coeffs, i) for i in range(n)]
            _close(f"rho[{hi},{wi}] vs oracle", rho[hi, wi], want, PIPELINE_TOL, problems)
            start = ((hi * w + wi) * n) * bins
            got = np.array([[float(v) for v in line.split(",")] for line in body[start:start + n * bins]])
            for i in range(n):
                row = attention[i]
                mean = sum(row) / n
                padded = oracles.pad_wrap([v - mean for v in row], half)
                want_mag = [abs(oracles.naive_dstft(padded, coeffs, i + half, k)) for k in range(bins)]
                block = got[i * bins:(i + 1) * bins]
                if not np.array_equal(block[:, :4], [[hi, wi, i, k] for k in range(bins)]):
                    problems.append(f"spectrogram rows for ({hi},{wi},{i}) out of order")
                    break
                _close(f"spectrogram ({hi},{wi},{i}) vs oracle", block[:, 4], want_mag,
                       SPECTRAL_TOL, problems)
        return problems


class TheoremSweep(Workload):
    """verify-theorem over the default generators, with their default seed.

    The inputs do not depend on the benchmark seed: the generator seed only
    sets the carrier phase, and some phases (generator seeds 7 and 21 among
    0..59) make kappa_hat jump above 1 - a_min at every N, so the command
    exits 2 as infeasible.  That is a defect of the program, not a load
    this benchmark can time.
    """

    name = "theorem_sweep"
    signal_samples = sum(THEOREM_SIZES)

    def prepare(self, seed, work):
        self.outputs = [work / "report.txt"]
        return (["verify-theorem", "--sizes", ",".join(map(str, THEOREM_SIZES)),
                 "--report", str(self.outputs[0])], self.outputs)

    def check(self):
        text = self.outputs[0].read_text(encoding="utf-8")
        summary = text.split("\nsummary\n", 1)[-1].splitlines()
        verdicts = [line.split()[:2] for line in summary if line.startswith(("PASS", "FAIL"))]
        want = [["PASS", f"n={n}"] for n in THEOREM_SIZES]
        return [] if verdicts == want else [f"verdicts {verdicts}, expected {want}"]


class BlendDump(Workload):
    """blend --dump-all over the 12 prompts of the multi-prompt corpus whose
    place component is empty, so that they align; the seed sets the token
    ids, the embeddings and the frame spans."""

    name = "blend_dump"
    frames = BLEND_FRAMES

    def __init__(self, corpus):
        self.corpus = corpus

    def prepare(self, seed, work):
        lines = [line.rstrip("\n") for line in self.corpus.read_text(encoding="utf-8").splitlines()]
        self.prompts = [line for line in lines if line.strip() and not line.startswith("#")
                        and line.split("$")[2].strip() == ""]
        words = sorted({word for text in self.prompts for word in text.replace("$", " ").split()})
        rng = np.random.default_rng(seed)
        ids = rng.permutation(len(words))
        self.vocab = {word: int(i) for word, i in zip(words, ids)}
        self.embeddings = rng.standard_normal((len(words), BLEND_DIM))
        cuts = np.sort(rng.choice(np.arange(1, BLEND_FRAMES), size=2 * len(self.prompts) - 2,
                                  replace=False))
        points = [0, *cuts.tolist(), BLEND_FRAMES]
        self.spans = list(zip(points[0::2], points[1::2]))
        (work / "prompts.txt").write_text("\n".join(self.prompts) + "\n", encoding="utf-8")
        (work / "spans.txt").write_text("".join(f"{s} {e}\n" for s, e in self.spans))
        (work / "tokens.tsv").write_text("".join(f"{w}\t{i}\n" for w, i in self.vocab.items()),
                                         encoding="utf-8")
        write_tf(work / "emb.tf", self.embeddings)
        self.outputs = [work / "cond.tf"]
        return (["blend", "--prompts", str(work / "prompts.txt"),
                 "--spans", str(work / "spans.txt"), "--tokens", str(work / "tokens.tsv"),
                 "--embeddings", str(work / "emb.tf"), "--output", str(self.outputs[0]),
                 "--timestep", str(BLEND_TIMESTEP), "--layer", "0", "--dump-all"],
                self.outputs)

    def _aligned(self):
        """(prompts, length, dim) embeddings after cyclic component alignment."""
        parts = [[piece.split() for piece in text.split("$")] for text in self.prompts]
        targets = [max(len(p[k]) for p in parts) for k in range(5)]
        rows = [[self.vocab[p[k][t % len(p[k])]] for k in range(5) for t in range(targets[k])]
                for p in parts]
        return self.embeddings[np.array(rows)]

    def _reference_frame(self, aligned, n):
        i = max(k for k, (start, _) in enumerate(self.spans) if start <= n)
        end = self.spans[i][1]
        if n <= end or i == len(self.spans) - 1:
            return aligned[i]
        a = (n - end) / (self.spans[i + 1][0] - end)
        return (1.0 - a) * aligned[i] + a * aligned[i + 1]

    def check(self):
        problems = []
        aligned = self._aligned()
        dims = (BLEND_FRAMES, *aligned.shape[1:])
        with open(self.outputs[0], "rb") as handle:
            head = handle.read(12 + 8 * 3)
            if head != struct.pack("<4sII3Q", b"TIAR", 1, 3, *dims):
                return [f"blend output header {head!r}, expected dims {dims}"]
            frame_bytes = 8 * aligned.shape[1] * aligned.shape[2]
            for n in range(BLEND_FRAMES):
                chunk = handle.read(frame_bytes)
                if len(chunk) != frame_bytes:
                    return [f"blend output ends inside frame {n}"]
                got = np.frombuffer(chunk, dtype="<f8").reshape(dims[1:])
                _close(f"frame {n} vs closed-form blend", got,
                       self._reference_frame(aligned, n), SPECTRAL_TOL, problems)
                if problems:
                    break
            if handle.read(1):
                problems.append("blend output has trailing bytes")
        return problems


# Workload name -> factory taking the checkout root.
FACTORIES = {
    "field_reweight": lambda root: FieldWorkload("field_reweight", 16, 16, 16, d_v=64),
    "field_analyze": lambda root: FieldWorkload("field_analyze", 8, 8, 64),
    "theorem_sweep": lambda root: TheoremSweep(),
    "blend_dump": lambda root: BlendDump(root / "tests" / "data" / "multiprompt_sets.txt"),
}
