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
from functools import partial

import numpy as np

from .errors import (AlignmentError, PromptParseError, ValidationError, _finite_rule, _index_rule,
                     _integer_rule, _shown)

COMPONENT_NAMES = ("subject", "action", "place", "time", "quality")
COMPONENT_COUNT = len(COMPONENT_NAMES)
SEPARATOR = "$"
_INT64 = np.iinfo(np.int64)


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
    blending applies, and the layer index from which it always applies.
    It checks itself when built: at least one span, its bounds integers in
    int64, each start <= its end < the next start; finite t1 <= t2; an
    integer layer >= 0.  total_frames is the last span end."""

    segments: tuple
    t_window: tuple
    layer_threshold: int

    def __post_init__(self):
        segments = tuple(self.segments)
        for s, e in segments:
            for bound, name in ((s, "span start"), (e, "span end")):  # conditioning reads them as int64
                _integer_rule(bound, name)
                _index_rule(bound, name, _INT64.max + 1, _INT64.min)
            if not s <= e:
                raise ValidationError(f"span start {s} exceeds span end {e}")
        segments = tuple((int(s), int(e)) for s, e in segments)
        if not segments:
            raise ValidationError("at least one frame span is required")
        for (s0, e0), (s1, e1) in zip(segments, segments[1:]):
            if not e0 < s1:
                raise ValidationError(f"spans must be ordered with end {e0} < next start {s1}")
        t1, t2 = self.t_window[0], self.t_window[1]
        _t_window_rule(t1, t2)  # before float(), which cannot name None or 10**400
        _layer_rule(self.layer_threshold, "layer_threshold")
        for name, value in (("segments", segments), ("t_window", (float(t1), float(t2))),
                            ("layer_threshold", int(self.layer_threshold))):
            object.__setattr__(self, name, value)

    @property
    def total_frames(self) -> int:
        return self.segments[-1][1]


def parse_organized(text: str, token_table: TokenTable) -> OrganizedPrompt:
    """Split a ``$``-separated organized prompt and tokenize each component.

    Exactly four separators are required; whitespace around them is
    trimmed.  Empty components are allowed and tokenize to ().
    """
    pieces = text.split(SEPARATOR)
    found = len(pieces) - 1
    if found > COMPONENT_COUNT - 1:
        position = len(SEPARATOR.join(pieces[:COMPONENT_COUNT]))  # the first unexpected one
        raise PromptParseError(f"expected 4 '$' separators, found {found}; "
                               f"unexpected separator at position {position}")
    if found < COMPONENT_COUNT - 1:
        raise PromptParseError(f"expected 4 '$' separators, found {found} in {text!r}")
    return OrganizedPrompt(components=tuple(token_table.tokenize(p.strip()) for p in pieces),
                           raw_text=text)


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
    return table[_index_rule(aligned.prompts, "token id", table.shape[0])]  # -1 would read the last row


def _t_window_rule(t1, t2) -> None:
    _finite_rule(t1, "t1")
    _finite_rule(t2, "t2")
    if not t1 <= t2:
        raise ValidationError(f"t1 must be <= t2, got {t1} > {t2}")


_layer_rule = partial(_integer_rule, low=0)


make_schedule = BlendSchedule  # the schedule's original builder, kept as an alias


def interpolation_weight(n, n_end: int, next_start: int):
    """Linear position of frame n, or of each frame in an integer array n,
    inside the transition (n_end, next_start), whose bounds and width must
    fit int64."""
    _integer_rule(n_end, "n_end")
    _integer_rule(next_start, "next_start")
    n_end, next_start = int(n_end), int(next_start)
    if next_start <= n_end:
        raise ValidationError(f"next span start {_shown(next_start)} must exceed span end {_shown(n_end)}")
    if not (_INT64.min <= n_end and next_start <= _INT64.max and next_start - n_end <= _INT64.max):
        raise ValidationError(f"transition window [{_shown(n_end)}, {_shown(next_start)}] must lie in int64 "
                              f"and be less than 2**63 wide")
    frames = _index_rule(n, "frame", next_start + 1, n_end)
    # every frame now lies in the window, so int64 holds it and its offset exactly
    return (frames.astype(np.int64, copy=False) - n_end) / (next_start - n_end)


def conditioning(schedule: BlendSchedule, embedded: np.ndarray, n, t: float,
                 d: int, *, out=None) -> np.ndarray:
    """Text-conditioning matrix for frame n at denoising step t, layer d.

    Inside span i the i-th embedded prompt is returned unchanged.  In the
    transition between spans i and i+1 the two prompts are blended
    entrywise with weight a_n when t lies in the configured window or
    d reaches the layer threshold; otherwise the earlier prompt is kept.
    From the start of span i+1 onward the later prompt takes over.  Frames
    before the first span use the first prompt.  One integer frame n gives
    a fresh (L, d) matrix; an integer array of frames gives
    ``n.shape + (L, d)``; a float or bool frame, a non-finite t, or a layer
    d that is not an integer >= 0 is rejected.  With ``out``, a float64 array of that shape that shares no
    memory with ``embedded``, the result is written into it and ``out`` is
    returned.  Each blended frame is computed in place in its own row of
    the result, with one (L, d) scratch matrix for the whole call, so the
    blend allocates no temporary that grows with the frame count.
    """
    embedded = np.asarray(embedded, dtype=float)
    if embedded.ndim != 3:
        raise ValidationError(f"embedded prompts must be (m, total_length, d), got {embedded.shape}")
    if embedded.shape[0] != len(schedule.segments):
        raise ValidationError(
            f"{embedded.shape[0]} embedded prompts but {len(schedule.segments)} spans")
    # as int64, which holds every frame of a schedule: a uint64 frame would meet the starts as float64
    frames = _index_rule(n, "frame", schedule.total_frames).astype(np.int64, copy=False)
    _finite_rule(t, "t")
    _layer_rule(d, "d")
    if out is not None:
        shape = frames.shape + embedded.shape[1:]
        if out.shape != shape or out.dtype != np.float64:
            raise ValidationError(f"out must be a float64 array of shape {shape}, "
                                  f"got {out.dtype} of shape {out.shape}")
        if np.may_share_memory(out, embedded):
            raise ValidationError("out may share memory with embedded; "
                                  "blending writes out while it reads embedded")
    starts, ends = np.array(schedule.segments, dtype=np.int64).T
    owner = np.maximum(np.searchsorted(starts, frames, side="right") - 1, 0)
    # take() copies even for a 0-d index, so a single frame never aliases embedded;
    # every owner is in range, and mode="clip" fills out directly where "raise"
    # would gather into a temporary first
    out = np.take(embedded, owner, axis=0, out=out, mode="clip")
    t1, t2 = schedule.t_window
    if t1 <= t <= t2 or d >= schedule.layer_threshold:
        # a frame lies strictly inside transition i exactly when its owner i is
        # not the last span and the frame is past span i's end
        inside = (owner < len(starts) - 1) & (frames > ends[owner])
        where, owners, inner = np.argwhere(inside), owner[inside], frames[inside]
        term = np.empty(embedded.shape[1:])
        for i in np.unique(owners):
            mine = owners == i
            weights = interpolation_weight(inner[mine], int(ends[i]), starts[i + 1])
            for index, a in zip(where[mine], weights):
                # (1 - a) * embedded[i] + a * embedded[i + 1], operation for operation
                row = out[tuple(index)]
                np.multiply(1.0 - a, embedded[i], out=row)
                np.multiply(a, embedded[i + 1], out=term)
                row += term
    return out
