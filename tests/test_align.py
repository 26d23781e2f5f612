import math
import warnings

import numpy as np
import pytest

from naveval import align
from naveval.align import (
    TargetMatrix,
    alignment_losses,
    attention_coverage_loss,
    build_cost,
    contrastive_loss,
    dtw_align,
    expand_alignment,
    softmax_attention,
    target_from_word_map,
    total_loss,
    validate_alignment_matrix,
)


def brute_force_min_cost(cost):
    """Enumerate every monotone corner-to-corner path and return the cheapest total.

    Steps advance right, down, or diagonally. Costs are assumed nonnegative so
    partial sums can be pruned.
    """
    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    best = [math.inf]

    def walk(i, j, acc):
        acc += cost[i, j]
        if acc >= best[0]:
            return
        if i == m - 1 and j == n - 1:
            best[0] = acc
            return
        if i + 1 < m and j + 1 < n:
            walk(i + 1, j + 1, acc)
        if i + 1 < m:
            walk(i + 1, j, acc)
        if j + 1 < n:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def loop_dtw_align(cost):
    """Reference DTW: the double loop over numpy scalars that dtw_align must agree with, ties included."""
    c = np.asarray(cost, dtype=float)
    m, n = c.shape
    acc = np.empty((m, n))
    acc[0, 0] = c[0, 0]
    for j in range(1, n):
        acc[0, j] = acc[0, j - 1] + c[0, j]
    for i in range(1, m):
        acc[i, 0] = acc[i - 1, 0] + c[i, 0]
        for j in range(1, n):
            acc[i, j] = c[i, j] + min(acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])

    a = np.zeros((m, n), dtype=int)
    i, j = m - 1, n - 1
    a[i, j] = 1
    while (i, j) != (0, 0):
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, vert, horiz = acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]
            best = min(diag, vert, horiz)
            if diag == best:
                i, j = i - 1, j - 1
            elif vert == best:
                i -= 1
            else:
                j -= 1
        a[i, j] = 1
    return a


COST_KINDS = {
    "uniform": lambda rng, shape: rng.uniform(0.0, 2.0, size=shape),
    "integer": lambda rng, shape: rng.integers(0, 3, size=shape).astype(float),
    "one-decimal": lambda rng, shape: np.round(rng.uniform(0.0, 2.0, size=shape), 1),
    "all-zero": lambda rng, shape: np.zeros(shape),
    "negative": lambda rng, shape: -rng.uniform(0.0, 2.0, size=shape),
}


class TestBuildCost:
    def test_cosine_distance_values(self):
        cost = build_cost([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(cost, [[0.0, 1.0, 2.0]], atol=1e-12)

    def test_scale_invariance(self):
        a = build_cost([[2.0, 1.0]], [[0.5, 3.0]])
        b = build_cost([[4.0, 2.0]], [[1.0, 6.0]])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_zero_norm_vector_names_index(self):
        with pytest.raises(ValueError, match=r"sub_instructions\[1\]"):
            build_cost([[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]])
        with pytest.raises(ValueError, match=r"panoramas\[0\]"):
            build_cost([[1.0, 0.0]], [[0.0, 0.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            build_cost([[1.0, 0.0]], [[1.0, 0.0, 0.0]])

    def test_ragged_and_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_cost([[1.0], [1.0, 2.0]], [[1.0]])
        with pytest.raises(ValueError):
            build_cost([], [[1.0]])

    def test_entries_within_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            subs = rng.normal(size=(rng.integers(1, 5), 4))
            panos = rng.normal(size=(rng.integers(1, 6), 4))
            cost = build_cost(subs, panos)
            assert (cost >= 0.0).all() and (cost <= 2.0).all()

    def test_antiparallel_rounding_is_clipped_to_two(self):
        """Unit rows of opposite vectors can have a dot product just below -1, so 1 - dot just above 2."""
        subs = [[0.4, 5.9], [5.9, 0.4], [0.1, 1.0], [1.0, 0.1]]
        cost = build_cost(subs, [[-x for x in row] for row in subs])
        assert cost.max() <= 2.0


class TestDtwAlign:
    def test_single_row_fills_row(self):
        a = dtw_align([[0.3, 0.1, 0.6]])
        np.testing.assert_array_equal(a, [[1, 1, 1]])

    def test_single_column_fills_column(self):
        a = dtw_align([[0.3], [0.1]])
        np.testing.assert_array_equal(a, [[1], [1]])

    def test_worked_two_by_three(self):
        """Tie between diagonal and horizontal predecessors resolves to the diagonal."""
        a = dtw_align([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(a, [[1, 1, 0], [0, 0, 1]])

    def test_identity_cost_gives_diagonal(self):
        cost = 1.0 - np.eye(4)
        np.testing.assert_array_equal(dtw_align(cost), np.eye(4, dtype=int))

    def test_matches_brute_force_minimum(self):
        """DP path cost equals exhaustive enumeration over all monotone paths."""
        rng = np.random.default_rng(42)
        for _ in range(80):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 9))
            cost = rng.uniform(0.0, 1.0, size=(m, n))
            a = dtw_align(cost)
            validate_alignment_matrix(a)
            assert abs((a * cost).sum() - brute_force_min_cost(cost)) < 1e-9

    def test_constant_shift_keeps_diagonal_path(self):
        """Shifting costs by a constant leaves a strictly-diagonal optimum unchanged."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            cost = rng.uniform(1.0, 2.0, size=(n, n))
            np.fill_diagonal(cost, 0.0)
            base = dtw_align(cost)
            np.testing.assert_array_equal(base, np.eye(n, dtype=int))
            for shift in (-0.1, 0.0, 0.5, 3.7):
                np.testing.assert_array_equal(dtw_align(cost + shift), base)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        cost = rng.uniform(size=(5, 6))
        np.testing.assert_array_equal(dtw_align(cost), dtw_align(cost))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            dtw_align(np.zeros((0, 3)))
        with pytest.raises(ValueError, match="finite"):
            dtw_align([[0.0, np.nan]])

    def test_ragged_cost_rejected(self):
        with pytest.raises(ValueError, match="cost matrix must be a rectangular array"):
            dtw_align([[0.0, 1.0], [0.5]])

    def test_overflowing_accumulation_rejected(self):
        with pytest.raises(ValueError, match="non-finite path cost"):
            dtw_align([[1e308, 1e308]])
        with pytest.raises(ValueError, match="non-finite path cost"):
            dtw_align([[-1e308] * 2] * 2)

    @pytest.mark.parametrize("kind", sorted(COST_KINDS))
    def test_matches_reference_loop_exactly(self, kind):
        """Same matrix as the numpy-scalar loop, ties included, up to 50x300."""
        rng = np.random.default_rng(sorted(COST_KINDS).index(kind))
        make = COST_KINDS[kind]
        shapes = [(1, 1), (1, 9), (9, 1), (1, 300), (50, 1), (25, 150), (50, 300), (300, 50)]
        shapes += [(int(rng.integers(1, 13)), int(rng.integers(1, 41))) for _ in range(150)]
        for shape in shapes:
            cost = make(rng, shape)
            assert np.array_equal(dtw_align(cost), loop_dtw_align(cost)), shape


# The start of each error that a ragged matrix raises: numpy's reason follows.
RAGGED = "must be a rectangular array of numbers: "


class TestValidateAlignmentMatrix:
    def test_ragged_matrix_named(self):
        with pytest.raises(ValueError) as excinfo:
            validate_alignment_matrix([[1, 0], [1]])
        assert str(excinfo.value).startswith("alignment matrix " + RAGGED)

    def test_accepts_valid_staircase(self):
        validate_alignment_matrix([[1, 1, 0], [0, 0, 1]])
        validate_alignment_matrix([[1, 0], [1, 0], [0, 1]])
        validate_alignment_matrix([[1]])

    def test_rejects_missing_corner(self):
        with pytest.raises(ValueError, match="corner"):
            validate_alignment_matrix([[0, 1], [1, 0]])

    def test_rejects_broken_path(self):
        with pytest.raises(ValueError, match="breaks"):
            validate_alignment_matrix([[1, 0, 0], [0, 0, 1]])

    def test_rejects_stray_cells(self):
        with pytest.raises(ValueError, match="outside the path"):
            validate_alignment_matrix([[1, 1], [1, 1]])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            validate_alignment_matrix([[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (3,)], ids=["no-rows", "no-columns", "1-D"])
    def test_rejects_empty_or_flat(self, shape):
        with pytest.raises(ValueError) as excinfo:
            validate_alignment_matrix(np.ones(shape, dtype=int))
        assert str(excinfo.value) == "alignment matrix must be a nonempty 2-D array"

    @pytest.mark.parametrize("a", [[[0, 1], [0, 1]], [[1, 0], [1, 0]]], ids=["no-start", "no-end"])
    def test_either_missing_corner_names_both(self, a):
        with pytest.raises(ValueError) as excinfo:
            validate_alignment_matrix(a)
        assert str(excinfo.value) == "alignment path must start at (0, 0) and end at the opposite corner"


class TestExpandAlignment:
    def test_rows_copied_per_word(self):
        a = np.array([[1, 1, 0], [0, 0, 1]])
        target = expand_alignment(a, [(0, 2), (2, 5)], n_words=5)
        np.testing.assert_array_equal(
            target.a_prime, [[1, 1, 0], [1, 1, 0], [0, 0, 1], [0, 0, 1], [0, 0, 1]]
        )

    def test_plain_span_pairs_accepted(self):
        """Numpy-integer bounds behave as ints."""
        a = np.array([[1, 0], [0, 1]])
        for spans in ([(0, 1), (1, 3)], np.array([[0, 1], [1, 3]]), [(np.int64(0), np.int32(1)), (1, np.int64(3))]):
            target = expand_alignment(a, spans, n_words=3)
            np.testing.assert_array_equal(target.a_prime, [[1, 0], [0, 1], [0, 1]])

    @pytest.mark.parametrize(
        "spans, message",
        [
            ([(0, 1.9), (1.2, 3)], "spans[0] end must be an integer, got 1.9"),
            ([(0, 1), (1.0, 3)], "spans[1] start must be an integer, got 1.0"),
            ([(False, True), (True, 3)], "spans[0] start must be an integer, got False"),
            ([(0, 1), (1, np.float64(3))], f"spans[1] end must be an integer, got {np.float64(3)!r}"),
        ],
        ids=["floats", "integral-float", "bools", "numpy-float"],
    )
    def test_bounds_that_are_not_integers_rejected(self, spans, message):
        """Bounds are not truncated: the word map is held to the same rule."""
        a = np.array([[1, 0], [0, 1]])
        with pytest.raises(ValueError) as excinfo:
            expand_alignment(a, spans, n_words=3)
        assert str(excinfo.value) == message

    def test_uncovered_word_rejected(self):
        a = np.array([[1, 0], [0, 1]])
        with pytest.raises(ValueError) as excinfo:
            expand_alignment(a, [(0, 1), (2, 3)], n_words=3)
        assert str(excinfo.value) == "words not covered by any sub-instruction span: [1]"

    def test_overlapping_spans_rejected(self):
        a = np.array([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="more than one"):
            expand_alignment(a, [(0, 2), (1, 3)], n_words=3)

    def test_overlap_names_the_first_word_already_covered(self):
        """Word 2 is the first word of the span (0, 3) that (2, 3) covers; words 0 and 1 are free."""
        a = np.array([[1, 0], [0, 1]])
        with pytest.raises(ValueError) as excinfo:
            expand_alignment(a, [(2, 3), (0, 3)], n_words=3)
        assert str(excinfo.value) == "word 2 is covered by more than one sub-instruction span"

    def test_zero_width_span_rejected(self):
        a = np.array([[1, 0], [0, 1]])
        with pytest.raises(ValueError) as excinfo:
            expand_alignment(a, [(0, 1), (1, 1), (1, 3)], n_words=3)
        assert str(excinfo.value) == "sub-instruction span (1, 1) out of range for 3 words"

    @pytest.mark.parametrize(
        "spans, n_words, uncovered",
        [
            ([(1, 2), (4, 5)], 6, "[0, 2, 3, 5]"),
            ([(0, 1), (11, 12)], 12, "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
            ([(0, 1), (12, 13)], 13, "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 1 more (11 in all)"),
        ],
        ids=["gaps-everywhere", "ten", "eleven"],
    )
    def test_uncovered_words_listed_in_order_up_to_ten(self, spans, n_words, uncovered):
        with pytest.raises(ValueError) as excinfo:
            expand_alignment(np.eye(2, dtype=int), spans, n_words)
        assert str(excinfo.value) == f"words not covered by any sub-instruction span: {uncovered}"

    @pytest.mark.parametrize("n_words", [2 * 10**6, 10**30], ids=["two-million", "past-an-index"])
    def test_uncovered_words_bounded_by_the_spans_not_n_words(self, n_words):
        """The message lists ten words and counts the rest; no list of n_words entries is built."""
        with pytest.raises(ValueError) as excinfo:
            expand_alignment([[1]], [(0, 1)], n_words)
        assert str(excinfo.value) == (
            "words not covered by any sub-instruction span: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] "
            f"and {n_words - 11} more ({n_words - 1} in all)"
        )

    def test_overlap_found_among_runs_out_of_order(self):
        """Word 4 of (3, 6) is the first covered twice: (4, 5) came before it, (0, 1) and (6, 8) do not meet it."""
        with pytest.raises(ValueError) as excinfo:
            expand_alignment(np.eye(4, dtype=int), [(6, 8), (0, 1), (4, 5), (3, 6)], 8)
        assert str(excinfo.value) == "word 4 is covered by more than one sub-instruction span"

    def test_one_word(self):
        target = expand_alignment(np.array([[1]]), [(0, 1)], n_words=1)
        np.testing.assert_array_equal(target.a_prime, [[1]])

    def test_span_count_must_match_rows(self):
        """The message names the spans, not a word-to-chunk map the caller never passed."""
        a = np.array([[1, 1, 0], [0, 0, 1]])
        for spans in ([(0, 3)], [(0, 1), (1, 2), (2, 3)]):
            with pytest.raises(ValueError) as excinfo:
                expand_alignment(a, spans, n_words=3)
            assert str(excinfo.value) == f"sub-instruction spans ({len(spans)}) do not match the alignment rows (2)"

    def test_no_words_rejected(self):
        a = np.array([[1, 0], [0, 1]])
        with pytest.raises(ValueError) as excinfo:
            expand_alignment(a, [(0, 1), (1, 2)], 0)
        assert str(excinfo.value) == "n_words must be >= 1"

    @pytest.mark.parametrize("n_words", [1.0, "1", True, np.float64(1)], ids=["float", "string", "bool", "numpy-float"])
    def test_n_words_that_is_not_an_integer_rejected(self, n_words):
        """n_words is held to the rule of the span bounds: no bool, float or string counts as 1."""
        with pytest.raises(ValueError) as excinfo:
            expand_alignment([[1]], [(0, 1)], n_words)
        assert str(excinfo.value) == f"n_words must be an integer, got {n_words!r}"

    def test_numpy_integers_accepted(self):
        target = expand_alignment(np.array([[1, 0], [0, 1]]), [(np.int64(0), 1), (1, np.int32(3))], np.int64(3))
        np.testing.assert_array_equal(target.a_prime, [[1, 0], [0, 1], [0, 1]])

    def test_ragged_alignment_named(self):
        with pytest.raises(ValueError) as excinfo:
            expand_alignment([[1, 0], [1]], [(0, 1), (1, 2)], 2)
        assert str(excinfo.value).startswith("alignment matrix " + RAGGED)

    def test_span_past_the_last_word_rejected(self):
        a = np.array([[1, 0], [0, 1]])
        with pytest.raises(ValueError) as excinfo:
            expand_alignment(a, [(0, 1), (1, 4)], n_words=3)
        assert str(excinfo.value) == "sub-instruction span (1, 4) out of range for 3 words"

    def test_out_of_order_spans_rejected(self):
        """Spans that partition the words out of order would give a non-monotone target."""
        cases = {
            ((1, 3), (0, 1)): "(0, 1) does not start where (1, 3) ends",
            ((0, 1), (2, 3), (1, 2)): "(2, 3) does not start where (0, 1) ends",
        }
        for spans, message in cases.items():
            with pytest.raises(ValueError) as excinfo:
                expand_alignment(np.eye(len(spans), dtype=int), spans, n_words=3)
            assert str(excinfo.value) == f"sub-instruction spans out of order: {message}"

    @pytest.mark.parametrize("spans", [[(1, 3), (0, 1)], [(0, 3)]], ids=["out-of-order", "too-few"])
    def test_alignment_errors_come_before_span_order_and_count(self, spans):
        with pytest.raises(ValueError) as excinfo:
            expand_alignment(np.array([[0, 1], [1, 0]]), spans, n_words=3)
        assert str(excinfo.value) == "alignment path must start at (0, 0) and end at the opposite corner"


class TestTargetFromWordMap:
    def test_valid_map(self):
        a = np.array([[1, 1, 0], [0, 0, 1]])
        target = target_from_word_map(a, [0, 0, 1])
        np.testing.assert_array_equal(target.a_prime, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])

    def test_non_monotone_rejected(self):
        a = np.array([[1, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="non-decreasing"):
            target_from_word_map(a, [1, 0, 1])

    def test_must_cover_every_row(self):
        a = np.array([[1, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="cover"):
            target_from_word_map(a, [0, 0, 0])

    def test_out_of_range_rejected(self):
        a = np.array([[1, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="out of range"):
            target_from_word_map(a, [0, 2])

    @pytest.mark.parametrize(
        "word_to_sub, message",
        [([0, 1.0], "word_to_sub[1] must be an integer, got 1.0"), ([], "word_to_sub must be nonempty")],
        ids=["float", "empty"],
    )
    def test_malformed_map_rejected(self, word_to_sub, message):
        a = np.array([[1, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError) as excinfo:
            target_from_word_map(a, word_to_sub)
        assert str(excinfo.value) == message

    def test_ragged_alignment_named(self):
        with pytest.raises(ValueError) as excinfo:
            target_from_word_map([[1, 1], [0]], [0, 1])
        assert str(excinfo.value).startswith("alignment matrix " + RAGGED)


class TestAttentionCoverageLoss:
    def test_perfect_one_hot_attention_is_zero(self):
        assert attention_coverage_loss([[1.0, 0.0]], [[1, 0]]) == 0.0

    def test_zero_loss_is_positive_zero(self):
        loss = attention_coverage_loss([[1.0, 0.0], [0.0, 1.0]], [[1, 0], [0, 1]])
        assert loss == 0.0
        assert math.copysign(1.0, loss) == 1.0

    def test_lone_aligned_viewpoint_gives_minus_log_eps(self):
        assert attention_coverage_loss([[1.0]], [[1]]) == -math.log(1e-8)
        assert abs(attention_coverage_loss([[1.0]], [[1]]) - 18.42) < 0.005

    def test_uniform_attention_two_viewpoints(self):
        loss = attention_coverage_loss([[0.5, 0.5]], [[1, 0]])
        assert abs(loss - 2 * math.log(2)) < 1e-12

    def test_eps_clamp_on_fully_aligned_row(self):
        loss = attention_coverage_loss([[0.5, 0.5]], [[1, 1]], eps=1e-8)
        assert abs(loss - (-math.log(1e-8))) < 1e-9

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError, match="eps"):
            attention_coverage_loss([[1.0, 0.0]], [[1, 0]], eps=0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_eps_must_be_finite(self, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            attention_coverage_loss([[0.5, 0.5]], [[1, 0]], eps=eps)

    def test_attention_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            attention_coverage_loss([[0.7, 0.1]], [[1, 0]])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            attention_coverage_loss([[1.5, -0.5]], [[1, 0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            attention_coverage_loss([[1.0, 0.0]], [[1, 0, 0]])

    def test_nan_attention_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            attention_coverage_loss([[math.nan, 1.0]], [[1, 0]])
        assert str(excinfo.value) == "attention entries must be finite"

    @pytest.mark.parametrize(
        "beta, message",
        [
            ([[math.inf, 0.0]], "attention entries must be finite"),
            ([[1.5, 0.0]], "attention entries must lie in [0, 1]"),
        ],
        ids=["inf", "above-one"],
    )
    def test_entries_are_checked_before_row_sums(self, beta, message):
        """Neither row sums to 1, but the message names the bad entry."""
        with pytest.raises(ValueError) as excinfo:
            attention_coverage_loss(beta, [[1, 0]])
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "beta, a_prime, message",
        [
            ([[0.7, 0.1]], [[1, 0]], "attention rows must sum to 1"),
            ([[1.0, 0.0]], [[1, 2]], "target matrix entries must be 0 or 1"),
            ([[1.0, 0.0]], [[1, 0, 0]], "attention shape (1, 2) does not match target shape (1, 3)"),
        ],
        ids=["attention", "target", "shape"],
    )
    def test_eps_is_checked_after_the_target_and_the_attention(self, beta, a_prime, message):
        with pytest.raises(ValueError) as excinfo:
            attention_coverage_loss(beta, a_prime, eps=0.0)
        assert str(excinfo.value) == message

    def test_hand_built_target_must_be_2d(self):
        with pytest.raises(ValueError) as excinfo:
            TargetMatrix(a_prime=np.array([1, 0]))
        assert str(excinfo.value) == "target matrix must be a nonempty 2-D array"

    def test_ragged_hand_built_target_named(self):
        with pytest.raises(ValueError) as excinfo:
            TargetMatrix([[1], [1, 0]])
        assert str(excinfo.value).startswith("target matrix " + RAGGED)

    @pytest.mark.parametrize("loss", ["coverage", "contrastive"])
    def test_ragged_raw_target_named(self, loss):
        with pytest.raises(ValueError) as excinfo:
            if loss == "coverage":
                attention_coverage_loss([[1.0, 0.0], [1.0, 0.0]], [[1, 0], [1]])
            else:
                contrastive_loss([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], [[1, 0], [1]])
        assert str(excinfo.value).startswith("target matrix " + RAGGED)

    def test_ragged_attention_named(self):
        with pytest.raises(ValueError) as excinfo:
            attention_coverage_loss([[1.0, 0.0], [1.0]], [[1, 0], [1, 0]])
        assert str(excinfo.value).startswith("attention " + RAGGED)

    def test_hand_built_target_checked_at_construction(self):
        with pytest.raises(ValueError, match="target matrix entries must be 0 or 1"):
            TargetMatrix(a_prime=np.array([[1, 2]]))

    def test_target_matrix_entries_read_only(self):
        raw = np.array([[1, 0]])
        target = TargetMatrix(a_prime=raw)
        raw[0, 1] = 2
        np.testing.assert_array_equal(target.a_prime, [[1, 0]])
        with pytest.raises(ValueError, match="read-only"):
            target.a_prime[0, 1] = 2

    def test_built_target_is_read_only_and_independent_of_its_source(self):
        a = np.array([[1, 1, 0], [0, 0, 1]])
        target = target_from_word_map(a, [0, 0, 1])
        a[:] = 7
        assert target.a_prime.dtype == np.dtype(int)
        np.testing.assert_array_equal(target.a_prime, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        assert not target.a_prime.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            target.a_prime[0, 0] = 0

    def test_accepts_target_matrix_wrapper(self):
        target = TargetMatrix(a_prime=np.array([[1, 0]]))
        assert attention_coverage_loss([[1.0, 0.0]], target) == 0.0

    def test_non_binary_target_rejected(self):
        with pytest.raises(ValueError, match="target matrix entries must be 0 or 1"):
            attention_coverage_loss([[0.5, 0.5]], [[1.0, 0.5]])

    def test_sharp_attention_with_many_unaligned_columns_goes_negative(self):
        """The unaligned sum can exceed 1, so the literal loss dips below zero."""
        loss = attention_coverage_loss([[0.998, 0.001, 0.001]], [[1, 0, 0]])
        assert loss < 0.0

    def test_permuting_unaligned_columns_is_neutral(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(3, 7))
            rows = int(rng.integers(1, 4))
            beta = rng.dirichlet(np.ones(n), size=rows)
            a_prime = np.zeros((rows, n), dtype=int)
            a_prime[:, 0] = 1
            swapped = beta.copy()
            swapped[:, [1, 2]] = swapped[:, [2, 1]]
            before = attention_coverage_loss(beta, a_prime)
            after = attention_coverage_loss(swapped, a_prime)
            assert abs(before - after) < 1e-12


class TestContrastiveLoss:
    def test_fully_aligned_row_is_zero(self):
        loss = contrastive_loss([[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]], [[1, 1]])
        assert loss == 0.0

    def test_zero_loss_is_positive_zero(self):
        loss = contrastive_loss([[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]], [[1, 1]])
        assert math.copysign(1.0, loss) == 1.0

    def test_equal_logits_single_aligned_gives_log_n(self):
        panos = [[1.0, 0.0]] * 4
        loss = contrastive_loss(panos, [[1.0, 0.0]], [[1, 0, 0, 0]])
        assert abs(loss - math.log(4)) < 1e-12

    def test_dominant_aligned_logit_nearly_zero(self):
        panos = np.eye(4)
        words = np.array([[10.0, 0.0, 0.0, 0.0]])
        loss = contrastive_loss(panos, words, [[1, 0, 0, 0]])
        assert abs(loss - math.log(1 + 3 * math.exp(-10))) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n_p = int(rng.integers(1, 6))
            n_w = int(rng.integers(1, 5))
            d = int(rng.integers(1, 5))
            panos = rng.normal(size=(n_p, d))
            words = rng.normal(size=(n_w, d))
            a_prime = (rng.random(size=(n_w, n_p)) < 0.5).astype(int)
            a_prime[a_prime.sum(axis=1) == 0, 0] = 1
            assert contrastive_loss(panos, words, a_prime) >= 0.0

    def test_shift_invariance_via_appended_dimension(self):
        """Adding a per-word constant to every logit leaves the loss unchanged."""
        rng = np.random.default_rng(29)
        for _ in range(100):
            n_p = int(rng.integers(2, 6))
            n_w = int(rng.integers(1, 5))
            d = int(rng.integers(1, 5))
            panos = rng.normal(size=(n_p, d))
            words = rng.normal(size=(n_w, d))
            a_prime = (rng.random(size=(n_w, n_p)) < 0.5).astype(int)
            a_prime[a_prime.sum(axis=1) == 0, 0] = 1
            shifts = rng.uniform(-50.0, 50.0, size=(n_w, 1))
            panos_aug = np.hstack([panos, np.ones((n_p, 1))])
            words_aug = np.hstack([words, shifts])
            base = contrastive_loss(panos, words, a_prime)
            shifted = contrastive_loss(panos_aug, words_aug, a_prime)
            assert abs(base - shifted) < 1e-9

    def test_aligned_logit_far_below_row_maximum_stays_finite(self):
        """The aligned mass underflows in linear space; in log space the loss is its exact value."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = contrastive_loss([[1.0, 0.0], [0.0, 1.0]], [[1000.0, 0.0]], [[0, 1]])
        assert loss == pytest.approx(1000.0)

    def test_all_zero_target_row_rejected(self):
        with pytest.raises(ValueError, match="row 0"):
            contrastive_loss([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]], [[0, 0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="target shape"):
            contrastive_loss([[1.0, 0.0]], [[1.0, 0.0]], [[1, 0], [0, 1]])

    def test_dimension_mismatch_names_words_first(self):
        with pytest.raises(ValueError, match="dimension mismatch: words have 3, panoramas have 2"):
            contrastive_loss([[1.0, 0.0]], [[1.0, 0.0, 0.0]], [[1]])

    def test_non_binary_target_rejected(self):
        with pytest.raises(ValueError, match="target matrix entries must be 0 or 1"):
            contrastive_loss([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]], [[1, 2]])


class TestSoftmaxAttention:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(37)
        beta = softmax_attention(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)))
        assert beta.shape == (3, 5)
        np.testing.assert_allclose(beta.sum(axis=1), np.ones(3), atol=1e-12)
        assert (beta > 0.0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch: words have 2, panoramas have 3"):
            softmax_attention([[1.0, 0.0]], [[1.0, 0.0, 0.0]])


# +inf, -inf and inf - inf: finite features whose products do not fit a float64.
OVERFLOWING = {
    "plus-inf": ([[1e200, 0.0]], [[1e200, 0.0], [1.0, 0.0]]),
    "minus-inf": ([[1e200, 0.0]], [[-1e200, 0.0], [1.0, 0.0]]),
    "nan": ([[1e200, 1e200]], [[1e200, -1e200], [1.0, 0.0]]),
}


class TestAlignmentLosses:
    @pytest.mark.parametrize("words, panoramas", OVERFLOWING.values(), ids=OVERFLOWING)
    @pytest.mark.parametrize("entry", ["softmax_attention", "contrastive_loss", "alignment_losses"])
    def test_overflowing_products_raise_one_error(self, entry, words, panoramas):
        """Every loss entry point raises the same error, with no RuntimeWarning (pytest makes those errors)."""
        calls = {
            "softmax_attention": lambda: softmax_attention(words, panoramas),
            "contrastive_loss": lambda: contrastive_loss(panoramas, words, [[1, 0]]),
            "alignment_losses": lambda: alignment_losses(words, panoramas, [[1, 0]]),
        }
        with pytest.raises(ValueError) as excinfo:
            calls[entry]()
        assert str(excinfo.value) == "word-panorama products must be finite"

    def test_overflow_is_reported_before_target_errors(self):
        words, panoramas = OVERFLOWING["plus-inf"]
        with pytest.raises(ValueError) as excinfo:
            alignment_losses(words, panoramas, [[1, 2]])
        assert str(excinfo.value) == "word-panorama products must be finite"

    def test_large_finite_products_accepted(self):
        """1e300 fits a float64: the softmax is one-hot and the losses finite."""
        words, panoramas = [[1e150, 0.0]], [[1e150, 0.0], [1.0, 0.0]]
        np.testing.assert_array_equal(softmax_attention(words, panoramas), [[1.0, 0.0]])
        assert alignment_losses(words, panoramas, [[1, 0]]) == (0.0, 0.0)

    def test_each_input_converted_once(self, monkeypatch):
        """A raw target is converted once, and the softmax built inside is not checked as an attention."""
        seen = []

        def counting_as_array(value, name, dtype=None):
            seen.append(name)
            return as_array(value, name, dtype)

        as_array = align._as_array
        monkeypatch.setattr(align, "_as_array", counting_as_array)
        rng = np.random.default_rng(41)
        a_prime = np.eye(3, dtype=int)[[0, 0, 1, 2]].tolist()
        alignment_losses(rng.normal(size=(4, 5)), rng.normal(size=(3, 5)), a_prime)
        assert (seen.count("target matrix"), seen.count("attention")) == (1, 0)

    @pytest.mark.parametrize("eps", [0.0, math.nan])
    def test_eps_checked_after_the_target(self, eps):
        with pytest.raises(ValueError) as excinfo:
            alignment_losses([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], [[1, 0, 0]], eps)
        assert str(excinfo.value) == "target shape (1, 3) does not match (1 words, 2 panoramas)"
        with pytest.raises(ValueError) as excinfo:
            alignment_losses([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], [[1, 0]], eps)
        assert str(excinfo.value) == f"eps must be positive and finite, got {eps!r}"


class TestTotalLoss:
    def test_weighted_sum(self):
        assert total_loss(1.0, 2.0, 3.0) == 6.0
        assert total_loss(1.0, 2.0, 3.0, lambda1=0.5, lambda2=0.25) == 2.75

    @pytest.mark.parametrize("lambda1, lambda2, total", [(0.0, 1.0, 4.0), (1.0, 0.0, 3.0), (0.0, 0.0, 1.0)])
    def test_zero_weights_accepted(self, lambda1, lambda2, total):
        assert total_loss(1.0, 2.0, 3.0, lambda1, lambda2) == total

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            total_loss(0.0, 0.0, 0.0, lambda1=-1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            total_loss(math.nan, 0.0, 0.0)
