"""Property tests: the reweighting pipeline against the plain-loop oracles,
and frame-array blending against per-frame calls and a plain-loop blend.

Examples are derandomized, so every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tiara import conditioning, make_schedule, make_window, motion_profile, softmax_rows, tiara
from tiara.spectral import WINDOW_KINDS

from oracles import algorithm_reference

PROPERTY = settings(derandomize=True, deadline=None, max_examples=50)


@st.composite
def fields(draw, scales):
    """A (H, W, N, N) logits field with random -inf masks that leave every
    row one unmasked entry, a values field, and pipeline parameters."""
    h, w, n = draw(st.integers(0, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = draw(scales) * rng.standard_normal((h, w, n, n))
    mask = rng.random(logits.shape) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    mask &= np.arange(n) != rng.integers(0, n, size=(h, w, n, 1))
    logits[mask] = -np.inf
    window = make_window(draw(st.sampled_from(WINDOW_KINDS)), draw(st.integers(1, 13)))
    return dict(logits=logits, mask=mask, values=rng.standard_normal((h, w, n, 2)),
                window=window, alpha=draw(st.floats(0.0, 10.0)),
                corner_size=draw(st.integers(0, n // 2)),
                corner_penalty=draw(st.floats(0.0, 5.0)))


def _run(case):
    return tiara(case["logits"], case["values"], case["window"], alpha=case["alpha"],
                 corner_size=case["corner_size"], corner_penalty=case["corner_penalty"])


@PROPERTY
@given(fields(st.floats(1e-3, 30.0)))
def test_pipeline_matches_reference(case):
    result = _run(case)
    expected = np.reshape(algorithm_reference(  # an H = 0 field comes back as []
        case["logits"].tolist(), case["values"].tolist(), list(case["window"].coefficients),
        case["alpha"], case["corner_size"], case["corner_penalty"]), result.outputs.shape)
    assert np.abs(result.outputs - expected).max(initial=0.0) <= 1e-10
    assert np.all(result.attention[case["mask"]] == 0.0)


@PROPERTY
@given(fields(st.sampled_from([-1e3, 1e3])))
def test_large_logits_keep_the_invariants(case):
    # naive_softmax overflows at this scale, so only invariants are checked
    result = _run(case)
    assert np.all(np.isfinite(result.outputs))
    assert np.abs(result.attention.sum(axis=-1) - 1.0).max(initial=0.0) <= 1e-12
    assert np.all((result.rho >= 0.0) & (result.rho <= 1.0))
    assert np.all(result.attention[case["mask"]] == 0.0)


@st.composite
def banded_fields(draw):
    """A (H, W, N, N) logits field, sharp or flat, with a window and a band
    0 <= phi1 < phi2 <= Npad//2 + 1 whose ends may be the defaults."""
    n = draw(st.integers(1, 12))
    window = make_window(draw(st.sampled_from(WINDOW_KINDS)), draw(st.integers(1, 13)))
    npad = n + 2 * window.half
    phi2 = draw(st.one_of(st.none(), st.integers(1, npad // 2 + 1)))
    phi1 = draw(st.one_of(st.none(), st.integers(0, npad // 2)) if phi2 is None
                else st.integers(0, phi2 - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0, 1e3]))
    return scale * rng.standard_normal((draw(st.integers(1, 2)), 2, n, n)), window, phi1, phi2


@PROPERTY
@given(banded_fields())
def test_rho_lies_in_the_unit_interval_for_every_band(case):
    logits, window, phi1, phi2 = case
    rho = motion_profile(softmax_rows(logits), window, phi1, phi2).rho
    assert np.all((rho >= 0.0) & (rho <= 1.0))
    result = tiara(logits, np.ones(logits.shape[:3] + (1,)), window, phi1, phi2)
    assert np.array_equal(result.rho, rho)


@st.composite
def schedules(draw):
    """Ordered, non-overlapping spans (possibly empty ones and gaps), a
    timestep window, a layer threshold, one embedded prompt per span, and
    a 1-D or 2-D integer array of frames (possibly empty)."""
    count = draw(st.integers(1, 4))
    spans, start = [], draw(st.integers(0, 3))
    for _ in range(count):
        end = start + draw(st.integers(0, 5))
        spans.append((start, end))
        start = end + draw(st.integers(1, 6))
    if spans[-1][1] == 0:
        spans[-1] = (spans[-1][0], 1)
    t1 = draw(st.floats(0.0, 1.0))
    schedule = make_schedule(spans, (t1, draw(st.floats(t1, 1.0))), draw(st.integers(0, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    embedded = rng.standard_normal((count, draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    shape = draw(st.one_of(st.tuples(st.integers(0, 12)),
                           st.tuples(st.integers(1, 3), st.integers(1, 4))))
    size = int(np.prod(shape))
    frames = np.array(draw(st.lists(st.integers(0, schedule.total_frames - 1),
                                    min_size=size, max_size=size)), dtype=np.int64).reshape(shape)
    return schedule, embedded, frames, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 12))


def _loop_blend(spans, t_window, layer_threshold, embedded, n, t, d):
    """Conditioning of frame n written out with Python scalars."""
    owner = 0
    for i, (start, _) in enumerate(spans):
        if start <= n:
            owner = i
    rows = embedded[owner].tolist()
    blending = t_window[0] <= t <= t_window[1] or d >= layer_threshold
    if blending and owner + 1 < len(spans):
        end, next_start = spans[owner][1], spans[owner + 1][0]
        if end < n < next_start:
            a = (n - end) / (next_start - end)
            later = embedded[owner + 1].tolist()
            rows = [[(1.0 - a) * x + a * y for x, y in zip(row, other)]
                    for row, other in zip(rows, later)]
    return rows


@PROPERTY
@given(schedules())
def test_frame_array_blend_matches_single_frames_and_loop(drawn):
    schedule, embedded, frames, t, d = drawn
    together = conditioning(schedule, embedded, frames, t, d)
    assert together.shape == frames.shape + embedded.shape[1:]
    out = np.full(together.shape, np.nan)
    assert conditioning(schedule, embedded, frames, t, d, out=out) is out
    assert out.tobytes() == together.tobytes()
    for index in np.ndindex(frames.shape):
        n = int(frames[index])
        alone = conditioning(schedule, embedded, n, t, d)
        assert together[index].tobytes() == alone.tobytes()
        loop = _loop_blend(schedule.segments, schedule.t_window, schedule.layer_threshold,
                           embedded, n, t, d)
        assert np.array_equal(alone, np.array(loop))
