"""Tests for tiara.promptblend: parsing, alignment, interpolation."""

import numpy as np
import pytest

from tiara import (AlignmentError, OrganizedPrompt, PromptParseError,
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

    def test_out_of_vocabulary_id(self):
        aligned = align([organized([9], [0], [0], [0], [0])])
        with pytest.raises(ValidationError, match="out of range"):
            embed_aligned(aligned, np.zeros((4, 3)))


class TestInterpolationWeight:
    def test_endpoints(self):
        assert interpolation_weight(10, 10, 20) == 0.0
        assert interpolation_weight(20, 10, 20) == 1.0

    def test_paper_transition_midpoint(self):
        assert interpolation_weight(100, 50, 150) == 0.5

    def test_outside_window(self):
        with pytest.raises(ValidationError, match="outside transition"):
            interpolation_weight(9, 10, 20)

    def test_degenerate_window(self):
        with pytest.raises(ValidationError, match="must exceed"):
            interpolation_weight(10, 10, 10)


class TestSchedule:
    def test_overlapping_spans_rejected(self):
        with pytest.raises(ValidationError, match="ordered"):
            make_schedule([(0, 50), (50, 100)], (0.5, 1.0), 8)

    def test_reversed_span_rejected(self):
        with pytest.raises(ValidationError, match="exceeds span end"):
            make_schedule([(5, 3)], (0.5, 1.0), 8)

    def test_bad_t_window(self):
        with pytest.raises(ValidationError, match="timestep window"):
            make_schedule([(0, 10)], (0.9, 0.5), 8)

    def test_total_frames(self):
        schedule = make_schedule([(0, 50), (150, 310)], (0.6, 1.0), 8)
        assert schedule.total_frames == 310


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

    def test_prompt_count_mismatch(self, blend_setup):
        schedule, _ = blend_setup
        with pytest.raises(ValidationError, match="spans"):
            conditioning(schedule, np.zeros((3, 6, 4)), 0, 0.0, 0)


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

    def test_interpolation_weight_on_frame_array(self):
        frames = np.array([10, 15, 20])
        assert np.array_equal(interpolation_weight(frames, 10, 20), [0.0, 0.5, 1.0])
        with pytest.raises(ValidationError, match="frame 9 outside"):
            interpolation_weight(np.array([12, 9]), 10, 20)
