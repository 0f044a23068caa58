"""Tests for tiara.promptblend: parsing, alignment, interpolation."""

import re
import tracemalloc

import numpy as np
import pytest

from tiara import (AlignmentError, BlendSchedule, OrganizedPrompt, PromptParseError,
                   TokenTable, ValidationError, align, conditioning,
                   embed_aligned, interpolation_weight, make_schedule,
                   parse_organized)


def table_for(*texts):
    """Word-level token table covering every word in the given texts."""
    vocab = {}
    for text in texts:
        for word in text.replace("$", " ").split():
            vocab.setdefault(word, len(vocab))
    return TokenTable(ids=vocab)


def organized(*component_token_lists):
    return OrganizedPrompt(components=tuple(tuple(c) for c in component_token_lists),
                           raw_text="")


class TestParseOrganized:
    def test_empty_time_component(self):
        text = "A dog$ is walking away from the tree$ in the park$$ high quality, 4K"
        prompt = parse_organized(text, table_for(text))
        assert len(prompt.components) == 5
        assert prompt.components[3] == ()  # time is empty
        assert len(prompt.components[0]) == 2  # "A dog"
        assert prompt.raw_text == text

    def test_single_letter_components(self):
        table = TokenTable(ids={c: i for i, c in enumerate("abcde")})
        prompt = parse_organized("a$b$c$d$e", table)
        assert prompt.components == ((0,), (1,), (2,), (3,), (4,))

    def test_too_few_separators(self):
        with pytest.raises(PromptParseError, match="found 2"):
            parse_organized("a$b$c", TokenTable(ids={}))

    def test_too_many_separators_reports_position(self):
        with pytest.raises(PromptParseError, match="position 9"):
            parse_organized("a$b$c$d$e$f", TokenTable(ids={c: 0 for c in "abcdef"}))
        # several extra separators: the fifth is the first unexpected one
        message = "expected 4 '$' separators, found 7; unexpected separator at position 12"
        with pytest.raises(PromptParseError, match=f"^{re.escape(message)}$"):
            parse_organized("a $b$ c$d $e$$f$", TokenTable(ids={c: 0 for c in "abcdef"}))

    def test_whitespace_trimmed(self):
        table = table_for("a b c d e")
        prompt = parse_organized("  a $ b $ c $ d $ e ", table)
        assert all(len(c) == 1 for c in prompt.components)

    def test_unknown_token(self):
        with pytest.raises(ValidationError, match="unknown token 'z'"):
            parse_organized("z$b$c$d$e", TokenTable(ids={c: 0 for c in "bcde"}))


class TestTokenTable:
    def test_from_lines(self):
        table = TokenTable.from_lines(["dog\t0\n", "cat\t1\n", "\n"])
        assert table.tokenize("cat dog") == (1, 0)

    def test_bad_line(self):
        with pytest.raises(ValidationError, match="line 1"):
            TokenTable.from_lines(["dog 0"])

    def test_non_integer_id(self):
        with pytest.raises(ValidationError, match="not an integer"):
            TokenTable.from_lines(["dog\tx"])


    def test_negative_id(self):
        with pytest.raises(ValidationError, match="^token table line 2: id must be >= 0$"):
            TokenTable.from_lines(["dog\t0", "cat\t-1"])

class TestAlign:
    def test_cyclic_repetition(self):
        prompts = [organized([7, 8, 9], [1], [1], [1], [1]),
                   organized([1, 2, 3, 4, 5], [1], [1], [1], [1])]
        aligned = align(prompts)
        assert aligned.component_lengths[0] == 5
        assert list(aligned.prompts[0][:5]) == [7, 8, 9, 7, 8]
        assert list(aligned.prompts[1][:5]) == [1, 2, 3, 4, 5]

    def test_single_prompt_is_identity(self):
        prompt = organized([4, 5], [6], [], [7, 8, 9], [1])
        aligned = align([prompt])
        assert aligned.component_lengths == (2, 1, 0, 3, 1)
        assert list(aligned.prompts[0]) == [4, 5, 6, 7, 8, 9, 1]

    def test_equal_lengths_unchanged(self):
        prompts = [organized([1, 2], [3], [4], [5], [6]),
                   organized([7, 8], [9], [10], [11], [12])]
        aligned = align(prompts)
        assert list(aligned.prompts[0]) == [1, 2, 3, 4, 5, 6]
        assert list(aligned.prompts[1]) == [7, 8, 9, 10, 11, 12]

    def test_empty_conflict_names_component(self):
        prompts = [organized([1], [2], [], [3], [4]),
                   organized([1], [2], [5, 6], [3], [4])]
        with pytest.raises(AlignmentError, match="component 'place'"):
            align(prompts)

    def test_alignment_idempotent(self):
        prompts = [organized([7, 8, 9], [1, 2], [3], [], [4]),
                   organized([1, 2, 3, 4, 5], [9], [3, 3], [], [5])]
        first = align(prompts)
        # re-wrap the aligned rows as organized prompts and align again
        rewrapped = []
        for row in first.prompts:
            components, start = [], 0
            for length in first.component_lengths:
                components.append(tuple(int(t) for t in row[start:start + length]))
                start += length
            rewrapped.append(OrganizedPrompt(components=tuple(components), raw_text=""))
        second = align(rewrapped)
        assert second.component_lengths == first.component_lengths
        assert np.array_equal(second.prompts, first.prompts)

    def test_four_components_rejected(self):
        with pytest.raises(ValidationError, match="^prompt must have exactly 5 components, got 4$"):
            align([organized([1], [2], [3], [4], [5]), organized([1], [2], [3], [4])])

    def test_no_prompts_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            align([])


class TestEmbedAligned:
    def test_lookup_shape(self):
        aligned = align([organized([0, 1], [2], [3], [1], [0])])
        table = np.arange(20.0).reshape(4, 5)
        embedded = embed_aligned(aligned, table)
        assert embedded.shape == (1, 6, 5)
        assert np.array_equal(embedded[0, 0], table[0])

    def test_rank_one_table_rejected(self):
        aligned = align([organized([0], [0], [0], [0], [0])])
        message = "embedding table must be rank 2 (vocab x d), got shape (4,)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            embed_aligned(aligned, np.zeros(4))

    def test_out_of_vocabulary_id(self):
        aligned = align([organized([9], [0], [0], [0], [0])])
        with pytest.raises(ValidationError, match="out of range"):
            embed_aligned(aligned, np.zeros((4, 3)))

    def test_first_bad_id_in_row_major_order_is_named(self):
        # the largest id was named first, whatever its position
        aligned = align([organized([2, -1], [0], [0], [0], [7])])
        with pytest.raises(ValidationError, match=r"^token id -1 out of range \[0, 4\)$"):
            embed_aligned(aligned, np.zeros((4, 3)))

    def test_negative_id_rejected(self):
        # id -1 silently read the last row of the table
        aligned = align([organized([2, -1], [0], [0], [0], [0])])
        message = "token id -1 out of range [0, 4)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            embed_aligned(aligned, np.zeros((4, 3)))


class TestInterpolationWeight:
    def test_endpoints(self):
        assert interpolation_weight(10, 10, 20) == 0.0
        assert interpolation_weight(20, 10, 20) == 1.0

    def test_paper_transition_midpoint(self):
        assert interpolation_weight(100, 50, 150) == 0.5

    def test_outside_window(self):
        with pytest.raises(ValidationError, match=r"^frame 9 out of range \[10, 21\)$"):
            interpolation_weight(9, 10, 20)

    def test_degenerate_window(self):
        with pytest.raises(ValidationError, match="must exceed"):
            interpolation_weight(10, 10, 10)

    @pytest.mark.parametrize("n, named", [(12.5, "frame 12.5"), (np.float64(15.0), "frame 15.0"),
                                          (True, "frame True"),
                                          (np.array([12.0, 15.0]), "frame 12.0")])
    def test_non_integer_frame_rejected(self, n, named):
        name, got = named.split(" ")
        with pytest.raises(ValidationError, match=rf"^{name} must be an integer, got {got} \(dtype"):
            interpolation_weight(n, 10, 20)


    @pytest.mark.parametrize("n, n_end, next_start", [
        (5, -2**63 + 1, 10),         # 2**63 + 9 wide: the offset wrapped to -1.0
        (6, 5, 10**400),             # past int64: a raw OverflowError
        (6, -10**400, 10),
        (0, -2**62, 2**62),          # exactly 2**63 wide
        (5, np.int64(-2**63), np.uint64(10))],
        ids=["2**63+9 wide", "end 10**400", "start -10**400", "2**63 wide", "NumPy bounds"])
    def test_window_outside_int64_named(self, n, n_end, next_start):
        message = f"transition window [{n_end}, {next_start}] must lie in int64 and be less than 2**63 wide"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            interpolation_weight(n, n_end, next_start)

    @pytest.mark.parametrize("frames", [np.array([2**62 - 2, 2**62 - 1], dtype=np.int64),
                                        np.array([2**31 - 1], dtype=np.int32)])
    def test_widest_windows_stay_in_the_unit_interval(self, frames):
        # the widest window int64 holds, and an int32 frame array whose offset int32 cannot
        n_end, next_start = -2**62, 2**62 - 1
        weights = interpolation_weight(frames, n_end, next_start)
        want = [(int(f) - n_end) / (next_start - n_end) for f in frames]
        assert weights.tolist() == pytest.approx(want, rel=1e-15, abs=0)
        assert ((0 <= weights) & (weights <= 1)).all()

    def test_conditioning_never_blends_past_the_later_prompt(self):
        embedded = np.arange(8.0).reshape(2, 2, 2)
        schedule = make_schedule([(-2**63, -2**63 + 1), (10, 20)], (0.5, 1.0), 4)
        with pytest.raises(ValidationError, match=r"^transition window \[-9223372036854775807, 10\]"):
            conditioning(schedule, embedded, 5, 0.8, 0)  # returned -embedded[1]


class TestSchedule:
    def test_overlapping_spans_rejected(self):
        with pytest.raises(ValidationError, match="ordered"):
            make_schedule([(0, 50), (50, 100)], (0.5, 1.0), 8)

    def test_reversed_span_rejected(self):
        with pytest.raises(ValidationError, match="exceeds span end"):
            make_schedule([(5, 3)], (0.5, 1.0), 8)

    def test_bad_t_window(self):
        with pytest.raises(ValidationError, match="^t1 must be <= t2, got 0.9 > 0.5$"):
            make_schedule([(0, 10)], (0.9, 0.5), 8)

    def test_t_window_printed_as_given(self):
        # as Config(t1=2, t2=1) prints it: the window is checked before float()
        with pytest.raises(ValidationError, match="^t1 must be <= t2, got 2 > 1$"):
            make_schedule([(0, 10)], (2, 1), 8)

    @pytest.mark.parametrize("t_window", [(np.nan, 1.0), (0.5, np.nan), (-np.inf, 1.0),
                                          (0.5, np.inf)])
    def test_non_finite_t_window_rejected(self, t_window):
        name, value = ("t1", t_window[0]) if not np.isfinite(t_window[0]) else ("t2", t_window[1])
        with pytest.raises(ValidationError, match=rf"^{name} must be finite, got {value}$"):
            make_schedule([(0, 5), (8, 10)], t_window, 8)

    @pytest.mark.parametrize("layer", [np.nan, 2.5, -1])
    def test_layer_threshold_must_be_an_integer(self, layer):
        # NaN used to raise a plain ValueError from int(), and 2.5 was truncated to 2
        dtype = "" if layer == -1 else r" \(dtype float64\)"
        with pytest.raises(ValidationError,
                           match=f"^layer_threshold must be an integer >= 0, got {layer}{dtype}$"):
            make_schedule([(0, 10)], (0.5, 1.0), layer)

    @pytest.mark.parametrize("segments, named", [
        ([(0, 2**60 + 200), (2**60 + 300, 2**63)], "span end 9223372036854775808"),
        ([(-2**63 - 1, 4)], "span start -9223372036854775809"),
        ([(0, 4), (10**400, 10**400)], f"span start {10**400}")],
        ids=["end 2**63", "start -2**63-1", "start 10**400"])
    def test_span_bound_outside_int64_rejected(self, segments, named):
        # a bound of 2**63 made conditioning's span ends float64, rounding 2**60 + 200 up to
        # 2**60 + 256: frame 2**60 + 250 returned prompt 0 unblended
        message = f"{named} out of range [-9223372036854775808, 9223372036854775808)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make_schedule(segments, (0.5, 1.0), 4)

    def test_no_spans_rejected(self):
        with pytest.raises(ValidationError, match="^at least one frame span is required$"):
            make_schedule([], (0.5, 1.0), 8)

    def test_total_frames(self):
        schedule = make_schedule([(0, 50), (150, 310)], (0.6, 1.0), 8)
        assert schedule.total_frames == 310

    def test_direct_construction_checks_itself(self):
        # the schedule was built, and conditioning raised a raw OverflowError from
        # np.array(segments, dtype=np.int64); now the schedule is refused as it is built
        message = "span end 9223372036854775808 out of range [-9223372036854775808, 9223372036854775808)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            conditioning(BlendSchedule(((0, 50), (150, 2**63)), (0.6, 1.0), 8),
                         np.zeros((2, 1, 1)), 0, 0.8, 0)

    @pytest.mark.parametrize("segments, t_window, layer, message", [
        ([], (0.5, 1.0), 8, "at least one frame span is required"),
        ([(5, 3)], (0.5, 1.0), 8, "span start 5 exceeds span end 3"),
        ([(0, 50), (50, 100)], (0.5, 1.0), 8, "spans must be ordered with end 50 < next start 50"),
        ([(0, 4.0)], (0.5, 1.0), 8, "span end must be an integer, got 4.0 (dtype float64)"),
        ([(0, 10)], (0.9, 0.5), 8, "t1 must be <= t2, got 0.9 > 0.5"),
        ([(0, 10)], (0.5, np.nan), 8, "t2 must be finite, got nan"),
        ([(0, 10)], (0.5, 1.0), -1, "layer_threshold must be an integer >= 0, got -1"),
    ], ids=["no_spans", "reversed", "unordered", "float_bound", "t_window", "non_finite_t", "layer"])
    def test_direct_construction_runs_make_schedules_rules(self, segments, t_window, layer, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            BlendSchedule(segments, t_window, layer)

    def test_direct_construction_matches_make_schedule(self):
        built = BlendSchedule([(0, np.int64(50)), (150, 310)], [1, 2], np.uint8(8))
        assert make_schedule is BlendSchedule
        assert built == make_schedule([(0, 50), (150, 310)], (1, 2), 8)
        assert (built.segments, built.t_window, built.layer_threshold, built.total_frames) == (
            ((0, 50), (150, 310)), (1.0, 2.0), 8, 310)
        assert all(type(v) is int for span in built.segments for v in span)


@pytest.fixture
def blend_setup():
    rng = np.random.default_rng(61)
    embedded = rng.standard_normal((2, 6, 4))
    schedule = make_schedule([(0, 50), (150, 310)], (0.6, 1.0), 8)
    return schedule, embedded


class TestConditioning:
    def test_inside_span_returns_prompt(self, blend_setup):
        schedule, embedded = blend_setup
        for n in (0, 25, 50):
            assert np.array_equal(conditioning(schedule, embedded, n, 0.0, 0), embedded[0])
        for n in (150, 200, 309):
            assert np.array_equal(conditioning(schedule, embedded, n, 0.0, 0), embedded[1])

    def test_midpoint_blend_in_time_window(self, blend_setup):
        schedule, embedded = blend_setup
        got = conditioning(schedule, embedded, 100, 0.8, 0)
        assert np.allclose(got, 0.5 * (embedded[0] + embedded[1]), atol=1e-15)

    def test_blend_when_layer_reaches_threshold(self, blend_setup):
        schedule, embedded = blend_setup
        got = conditioning(schedule, embedded, 75, 0.0, 8)
        a = interpolation_weight(75, 50, 150)
        assert np.allclose(got, (1 - a) * embedded[0] + a * embedded[1], atol=1e-15)

    def test_otherwise_keeps_earlier_prompt(self, blend_setup):
        schedule, embedded = blend_setup
        assert np.array_equal(conditioning(schedule, embedded, 100, 0.2, 3), embedded[0])

    def test_continuity_at_window_edges(self, blend_setup):
        schedule, embedded = blend_setup
        at_end = conditioning(schedule, embedded, 50, 0.8, 9)
        assert np.array_equal(at_end, embedded[0])
        just_after = conditioning(schedule, embedded, 51, 0.8, 9)
        a = interpolation_weight(51, 50, 150)
        assert np.allclose(just_after, (1 - a) * embedded[0] + a * embedded[1], atol=1e-15)
        at_next_start = conditioning(schedule, embedded, 150, 0.8, 9)
        assert np.array_equal(at_next_start, embedded[1])

    def test_blend_is_entrywise_convex(self, blend_setup):
        schedule, embedded = blend_setup
        lo = np.minimum(embedded[0], embedded[1])
        hi = np.maximum(embedded[0], embedded[1])
        for n in range(51, 150, 7):
            got = conditioning(schedule, embedded, n, 0.7, 9)
            assert np.all(got >= lo - 1e-12)
            assert np.all(got <= hi + 1e-12)

    def test_shape_is_stable(self, blend_setup):
        schedule, embedded = blend_setup
        shapes = {conditioning(schedule, embedded, n, t, d).shape
                  for n in (0, 75, 100, 200) for t in (0.0, 0.8) for d in (0, 8)}
        assert shapes == {embedded[0].shape}

    def test_frame_before_first_span_uses_first_prompt(self):
        rng = np.random.default_rng(62)
        embedded = rng.standard_normal((2, 3, 2))
        schedule = make_schedule([(10, 20), (30, 40)], (0.5, 1.0), 4)
        assert np.array_equal(conditioning(schedule, embedded, 5, 0.0, 0), embedded[0])

    def test_frame_out_of_range(self, blend_setup):
        schedule, embedded = blend_setup
        with pytest.raises(ValidationError, match="out of range"):
            conditioning(schedule, embedded, 310, 0.0, 0)

    def test_rank_two_prompts_rejected(self, blend_setup):
        schedule, embedded = blend_setup
        message = "embedded prompts must be (m, total_length, d), got (2, 24)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            conditioning(schedule, embedded.reshape(2, 24), 0, 0.0, 0)

    def test_prompt_count_mismatch(self, blend_setup):
        schedule, _ = blend_setup
        with pytest.raises(ValidationError, match="spans"):
            conditioning(schedule, np.zeros((3, 6, 4)), 0, 0.0, 0)

    @pytest.mark.parametrize("n, message", [
        (6.5, "frame must be an integer, got 6.5 (dtype float64)"),
        (np.float64(6.0), "frame must be an integer, got 6.0 (dtype float64)"),
        (True, "frame must be an integer, got True (dtype bool)"),
        (np.array([6.0, 7.0]), "frame must be an integer, got 6.0 (dtype float64)"),
        (np.array([[False]]), "frame must be an integer, got False (dtype bool)"),
        ([], "frame must be an integer, got an empty array (dtype float64)")])
    def test_non_integer_frame_rejected(self, n, message):
        embedded = np.zeros((2, 3, 4))
        schedule = make_schedule([(0, 5), (8, 10)], (0.5, 1.0), 4)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            conditioning(schedule, embedded, n, 0.5, 0)

    @pytest.mark.parametrize("d", [np.nan, 2.5, -1])
    def test_layer_must_be_an_integer(self, blend_setup, d):
        # NaN returned the unblended prompt, and -1 was accepted
        schedule, embedded = blend_setup
        dtype = "" if d == -1 else r" \(dtype float64\)"
        with pytest.raises(ValidationError, match=f"^d must be an integer >= 0, got {d}{dtype}$"):
            conditioning(schedule, embedded, 100, 0.0, d)


class TestConditioningFrameArrays:
    """An array of frames gives the stack of the single-frame results."""

    @pytest.fixture
    def three_spans(self):
        rng = np.random.default_rng(63)
        embedded = rng.standard_normal((3, 4, 5))
        embedded[1, 2, 3] = np.inf  # span frames must copy it, not turn it into NaN
        schedule = make_schedule([(7, 20), (31, 45), (52, 80)], (0.5, 1.0), 6)
        return schedule, embedded

    @pytest.mark.parametrize("t, d", [(0.8, 0), (0.1, 6), (0.1, 5)],
                             ids=["in_window", "layer_threshold", "neither"])
    def test_matches_per_frame_calls_bit_for_bit(self, three_spans, t, d):
        schedule, embedded = three_spans
        frames = np.arange(schedule.total_frames)
        got = conditioning(schedule, embedded, frames, t, d)
        want = np.stack([conditioning(schedule, embedded, int(n), t, d) for n in frames])
        assert got.shape == (80, 4, 5)
        assert got.tobytes() == want.tobytes()
        # frames 0..6, before the first span, belong to prompt 0 as well
        for i, first, last in [(0, 0, 20), (1, 31, 45), (2, 52, 79)]:
            for frame in got[first:last + 1]:
                assert frame.tobytes() == embedded[i].tobytes()

    def test_frame_grid_keeps_its_shape(self, three_spans):
        schedule, embedded = three_spans
        frames = np.array([[0, 25], [50, 79]])
        got = conditioning(schedule, embedded, frames, 0.8, 0)
        assert got.shape == (2, 2, 4, 5)
        assert got[1, 1].tobytes() == conditioning(schedule, embedded, 79, 0.8, 0).tobytes()

    @pytest.mark.parametrize("n, t", [(3, 0.8), (10, 0.8), (25, 0.1)])
    def test_single_frame_result_does_not_alias_embedded(self, three_spans, n, t):
        schedule, embedded = three_spans
        before = embedded.copy()
        conditioning(schedule, embedded, n, t, 0)[...] = 0.0
        assert embedded.tobytes() == before.tobytes()

    @pytest.mark.parametrize("bad", [80, -1])
    def test_out_of_range_frame_in_array_is_named(self, three_spans, bad):
        schedule, embedded = three_spans
        with pytest.raises(ValidationError, match=f"frame {bad} out of range"):
            conditioning(schedule, embedded, np.array([0, 12, bad, 40]), 0.8, 0)

    @pytest.mark.parametrize("frames", [np.arange(80), np.arange(15, 40), np.array(33)],
                             ids=["all", "across_transition", "single"])
    @pytest.mark.parametrize("t, d", [(0.8, 0), (0.1, 5)], ids=["blend", "no_blend"])
    def test_out_buffer_matches_allocating_call(self, three_spans, frames, t, d):
        schedule, embedded = three_spans
        out = np.full(frames.shape + (4, 5), np.nan)
        assert conditioning(schedule, embedded, frames, t, d, out=out) is out
        assert out.tobytes() == conditioning(schedule, embedded, frames, t, d).tobytes()

    def test_out_buffer_of_wrong_shape_is_rejected(self, three_spans):
        schedule, embedded = three_spans
        wrong = r"shape \(4, 4, 5\), got float64 of shape \(3, 4, 5\)"
        with pytest.raises(ValidationError, match=wrong):
            conditioning(schedule, embedded, np.arange(4), 0.8, 0, out=np.empty((3, 4, 5)))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_frames_near_2_to_the_60_are_blended(self, dtype):
        # a uint64 frame array was searched among the int64 span starts as float64, so frame
        # 2**60 + 250 was given to the span starting at 2**60 + 300
        embedded = np.arange(12.0).reshape(3, 2, 2)
        schedule = make_schedule([(0, 2**60 + 200), (2**60 + 300, 2**60 + 400),
                                  (2**60 + 500, 2**63 - 1)], (0.5, 1.0), 4)
        got = conditioning(schedule, embedded, np.array([2**60 + 250], dtype=dtype), 0.8, 0)
        assert np.array_equal(got[0], 0.5 * embedded[0] + 0.5 * embedded[1])

    def test_interpolation_weight_on_frame_array(self):
        frames = np.array([10, 15, 20])
        assert np.array_equal(interpolation_weight(frames, 10, 20), [0.0, 0.5, 1.0])
        with pytest.raises(ValidationError, match=r"^frame 9 out of range \[10, 21\)$"):
            interpolation_weight(np.array([12, 9]), 10, 20)


class TestConditioningInPlace:
    """Blending writes each frame into its own row of the result."""

    @pytest.fixture
    def wide(self):
        rng = np.random.default_rng(64)
        embedded = rng.standard_normal((2, 20, 768))  # blend_dump-sized frames
        schedule = make_schedule([(0, 50), (150, 310)], (0.6, 1.0), 8)
        return schedule, embedded

    def test_out_block_inside_a_transition_allocates_at_most_two_frames(self, wide):
        schedule, embedded = wide
        frames = np.arange(60, 92)  # 32 frames, all strictly inside (50, 150)
        out = np.empty((32,) + embedded.shape[1:])
        conditioning(schedule, embedded, frames, 0.8, 0, out=out)
        tracemalloc.start()
        try:
            conditioning(schedule, embedded, frames, 0.8, 0, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * embedded[0].nbytes
        assert out.tobytes() == conditioning(schedule, embedded, frames, 0.8, 0).tobytes()

    def test_strided_out_gets_the_bytes_of_the_allocating_call(self, wide):
        schedule, embedded = wide
        frames = np.array([[40, 75], [100, 149]])
        backing = np.full((2, 2, 40, 768), np.nan)
        out = backing[:, :, ::2]
        assert conditioning(schedule, embedded, frames, 0.8, 0, out=out) is out
        assert out.tobytes() == conditioning(schedule, embedded, frames, 0.8, 0).tobytes()
        assert np.isnan(backing[:, :, 1::2]).all()

    @pytest.mark.parametrize("out_of", [lambda e: e, lambda e: e[:1], lambda e: e[1, None, :, :]],
                             ids=["whole", "first_prompt", "second_prompt"])
    def test_out_sharing_memory_with_embedded_is_rejected(self, out_of):
        embedded = np.random.default_rng(65).standard_normal((2, 3, 4))
        schedule = make_schedule([(0, 5), (8, 10)], (0.5, 1.0), 4)
        before = embedded.copy()
        out = out_of(embedded)
        frames = np.arange(6, 6 + len(out))
        with pytest.raises(ValidationError, match="^out may share memory with embedded"):
            conditioning(schedule, embedded, frames, 0.5, 0, out=out)
        assert embedded.tobytes() == before.tobytes()
