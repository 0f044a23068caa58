"""Component-aligned prompt interpolation.

Prompts arrive pre-organized as five ``$``-separated components in a fixed
order (subject, action, place, time, quality description).  Alignment
equalises each component's token length across prompts by repeating the
shorter token sequences cyclically, which keeps every embedded prompt the
same shape so that frame-indexed linear blending is well defined.
Tokenisation and embedding are plain lookup tables supplied as data; no
text model is involved.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, PromptParseError, ValidationError

COMPONENT_NAMES = ("subject", "action", "place", "time", "quality")
COMPONENT_COUNT = len(COMPONENT_NAMES)
SEPARATOR = "$"


@dataclass(frozen=True)
class TokenTable:
    """Word-level token lookup: whitespace-split strings to integer ids."""

    ids: dict

    @classmethod
    def from_lines(cls, lines) -> "TokenTable":
        ids = {}
        for lineno, line in enumerate(lines, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValidationError(
                    f"token table line {lineno}: expected 'token<TAB>id', got {line!r}")
            token, raw_id = parts
            try:
                token_id = int(raw_id)
            except ValueError:
                raise ValidationError(f"token table line {lineno}: id {raw_id!r} is not an integer")
            if token_id < 0:
                raise ValidationError(f"token table line {lineno}: id must be >= 0")
            ids[token] = token_id
        return cls(ids=ids)

    def tokenize(self, text: str) -> tuple:
        tokens = []
        for word in text.split():
            if word not in self.ids:
                raise ValidationError(f"unknown token {word!r}")
            tokens.append(self.ids[word])
        return tuple(tokens)


@dataclass(frozen=True)
class OrganizedPrompt:
    """Five ordered token sequences plus the original text."""

    components: tuple
    raw_text: str


@dataclass(frozen=True)
class AlignedPromptSet:
    """Aligned token matrix (one row per prompt) and the per-component
    segment lengths that partition each row."""

    prompts: np.ndarray
    component_lengths: tuple
    total_length: int


@dataclass(frozen=True)
class BlendSchedule:
    """Frame spans owned by each prompt, the denoising-step window in which
    blending applies, and the layer index from which it always applies."""

    segments: tuple
    t_window: tuple
    layer_threshold: int
    total_frames: int


def parse_organized(text: str, token_table: TokenTable) -> OrganizedPrompt:
    """Split a ``$``-separated organized prompt and tokenize each component.

    Exactly four separators are required; whitespace around them is
    trimmed.  Empty components are allowed and tokenize to ().
    """
    found = text.count(SEPARATOR)
    if found != COMPONENT_COUNT - 1:
        if found > COMPONENT_COUNT - 1:
            position = _nth_index(text, SEPARATOR, COMPONENT_COUNT)
            raise PromptParseError(
                f"expected 4 '$' separators, found {found}; "
                f"unexpected separator at position {position}")
        raise PromptParseError(f"expected 4 '$' separators, found {found} in {text!r}")
    pieces = [piece.strip() for piece in text.split(SEPARATOR)]
    return OrganizedPrompt(components=tuple(token_table.tokenize(p) for p in pieces),
                           raw_text=text)


def _nth_index(text: str, needle: str, n: int) -> int:
    idx = -1
    for _ in range(n):
        idx = text.index(needle, idx + 1)
    return idx


def align(prompts) -> AlignedPromptSet:
    """Equalise component lengths across prompts by cyclic repetition.

    For each component the target length is the maximum across prompts;
    shorter sequences repeat from their first token.  A component that is
    empty in one prompt but non-empty in another cannot be repeated and
    raises an alignment error naming the component.
    """
    prompts = list(prompts)
    if not prompts:
        raise ValidationError("at least one prompt is required")
    for p in prompts:
        if len(p.components) != COMPONENT_COUNT:
            raise ValidationError(
                f"prompt must have exactly {COMPONENT_COUNT} components, got {len(p.components)}")
    lengths = []
    for k, name in enumerate(COMPONENT_NAMES):
        sizes = [len(p.components[k]) for p in prompts]
        target = max(sizes)
        if target > 0 and any(s == 0 for s in sizes):
            empty_at = sizes.index(0)
            raise AlignmentError(
                f"component {name!r} is empty in prompt {empty_at} but non-empty in another; "
                "cyclic repetition of an empty sequence is undefined")
        lengths.append(target)
    rows = []
    for p in prompts:
        row = []
        for k, target in enumerate(lengths):
            tokens = p.components[k]
            row.extend(tokens[t % len(tokens)] for t in range(target))
        rows.append(row)
    matrix = np.array(rows, dtype=np.int64).reshape(len(prompts), sum(lengths))
    return AlignedPromptSet(prompts=matrix, component_lengths=tuple(lengths),
                            total_length=int(sum(lengths)))


def embed_aligned(aligned: AlignedPromptSet, embedding_table) -> np.ndarray:
    """Look up every aligned token: (m, total_length, d) embedding stack."""
    table = np.asarray(embedding_table, dtype=float)
    if table.ndim != 2:
        raise ValidationError(f"embedding table must be rank 2 (vocab x d), got shape {table.shape}")
    tokens = aligned.prompts
    if tokens.size and tokens.max() >= table.shape[0]:
        raise ValidationError(
            f"token id {tokens.max()} out of range for vocabulary of {table.shape[0]}")
    return table[tokens]


def make_schedule(segments, t_window, layer_threshold: int) -> BlendSchedule:
    segments = tuple((int(s), int(e)) for s, e in segments)
    if not segments:
        raise ValidationError("at least one frame span is required")
    for s, e in segments:
        if s > e:
            raise ValidationError(f"span start {s} exceeds span end {e}")
    for (s0, e0), (s1, e1) in zip(segments, segments[1:]):
        if not e0 < s1:
            raise ValidationError(f"spans must be ordered with end {e0} < next start {s1}")
    t1, t2 = float(t_window[0]), float(t_window[1])
    if t1 > t2:
        raise ValidationError(f"timestep window start {t1} exceeds end {t2}")
    if layer_threshold < 0:
        raise ValidationError("layer_threshold must be >= 0")
    return BlendSchedule(segments=segments, t_window=(t1, t2),
                         layer_threshold=int(layer_threshold),
                         total_frames=segments[-1][1])


def interpolation_weight(n, n_end: int, next_start: int):
    """Linear position of frame n, or of each frame in an integer array n,
    inside the transition (n_end, next_start)."""
    if next_start <= n_end:
        raise ValidationError(f"next span start {next_start} must exceed span end {n_end}")
    frames = np.asarray(n)
    bad = frames[~((n_end <= frames) & (frames <= next_start))]
    if bad.size:
        raise ValidationError(f"frame {bad[0]} outside transition window [{n_end}, {next_start}]")
    return (frames - n_end) / (next_start - n_end)


def conditioning(schedule: BlendSchedule, embedded: np.ndarray, n, t: float,
                 d: int) -> np.ndarray:
    """Text-conditioning matrix for frame n at denoising step t, layer d.

    Inside span i the i-th embedded prompt is returned unchanged.  In the
    transition between spans i and i+1 the two prompts are blended
    entrywise with weight a_n when t lies in the configured window or
    d reaches the layer threshold; otherwise the earlier prompt is kept.
    From the start of span i+1 onward the later prompt takes over.  Frames
    before the first span use the first prompt.  One frame n gives a fresh
    (L, d) matrix; an integer array of frames gives ``n.shape + (L, d)``.
    """
    embedded = np.asarray(embedded, dtype=float)
    if embedded.ndim != 3:
        raise ValidationError(f"embedded prompts must be (m, total_length, d), got {embedded.shape}")
    if embedded.shape[0] != len(schedule.segments):
        raise ValidationError(
            f"{embedded.shape[0]} embedded prompts but {len(schedule.segments)} spans")
    frames = np.asarray(n)
    bad = frames[~((0 <= frames) & (frames < schedule.total_frames))]
    if bad.size:
        raise ValidationError(f"frame {bad[0]} out of range [0, {schedule.total_frames})")
    starts = [s for s, _ in schedule.segments]
    owner = np.maximum(np.searchsorted(starts, frames, side="right") - 1, 0)
    # take() copies even for a 0-d index, so a single frame never aliases embedded
    out = np.take(embedded, owner, axis=0)
    t1, t2 = schedule.t_window
    if t1 <= t <= t2 or d >= schedule.layer_threshold:
        transitions = zip(schedule.segments, schedule.segments[1:])
        for i, ((_, end), (next_start, _)) in enumerate(transitions):
            inside = (frames > end) & (frames < next_start)
            a = interpolation_weight(frames[inside], end, next_start)[:, None, None]
            out[inside] = (1.0 - a) * embedded[i] + a * embedded[i + 1]
    return out
