import random
from fractions import Fraction

import pytest

from naveval.metric import (
    ScoringInput,
    SynonymMap,
    _sum,
    check_labels,
    lcs_length,
    normalize_tuples,
    score_pair,
    spice_d_score,
    spice_score,
)
from naveval.text import load_taxonomy, tokenize

LABELS = ("left", "right", "around")


def lcs_brute(a, b):
    """Exhaustive oracle: longest subsequence of a that is also a subsequence of b."""
    best = 0
    for mask in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if mask >> i & 1]
        if len(sub) > best and _is_subsequence(sub, b):
            best = len(sub)
    return best


def _is_subsequence(sub, seq):
    it = iter(seq)
    return all(x in it for x in sub)


def random_tuple_set(rng, max_size=6):
    vocab = ["door", "hall", "sofa", "stairs", "lamp", "rug", "wall", "bed"]
    out = set()
    for _ in range(rng.randrange(0, max_size + 1)):
        arity = rng.randrange(1, 4)
        out.add(tuple(rng.choice(vocab) for _ in range(arity)))
    return frozenset(out)


class TestNormalizeTuples:
    def test_lowercases_and_dedupes(self):
        ts = normalize_tuples([["Door"], ["door"], ["door", "White"]])
        assert ts == frozenset({("door",), ("door", "white")})

    def test_arity_bounds(self):
        with pytest.raises(ValueError, match="arity"):
            normalize_tuples([[]])
        with pytest.raises(ValueError, match="arity"):
            normalize_tuples([["a", "b", "c", "d"]])

    def test_bare_string_rejected(self):
        with pytest.raises(ValueError, match="bare string"):
            normalize_tuples(["door"])

    def test_empty_element_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            normalize_tuples([["door", " "]])


class TestSynonymMap:
    def test_first_member_is_representative(self):
        syn = SynonymMap([["sofa", "couch"], ["fridge", "refrigerator"]])
        tuples = frozenset({("couch",), ("sofa", "red"), ("door", "near", "refrigerator")})
        assert syn.canonical_set(tuples) == {("sofa",), ("sofa", "red"), ("door", "near", "fridge")}

    def test_conflicting_membership_rejected(self):
        with pytest.raises(ValueError, match="more than one"):
            SynonymMap([["sofa", "couch"], ["settee", "couch"]])

    def test_load(self, tmp_path):
        p = tmp_path / "syn.json"
        p.write_text('[["sofa", "couch"]]')
        assert SynonymMap.load(p).canonical_set(frozenset({("couch",)})) == {("sofa",)}
        bad = tmp_path / "bad.json"
        # Not a list of lists, a JSON number, a non-string member, an empty group.
        for doc in ('{"sofa": "couch"}', "5", '[["sofa", 1]]', "[[]]"):
            bad.write_text(doc)
            with pytest.raises(ValueError):
                SynonymMap.load(bad)


def tuple_matches(candidate, reference, synonyms=None):
    return spice_d_score(candidate, reference, (), (), synonyms).n_tuple_matches


class TestTupleMatches:
    def test_exact_set_intersection(self):
        assert tuple_matches([["door"], ["door", "white"]], [["door"], ["wall"]]) == 1

    def test_synonyms_bridge_surface_forms(self):
        syn = SynonymMap([["sofa", "couch"]])
        assert tuple_matches([["sofa"]], [["couch"]], syn) == 1
        assert tuple_matches([["sofa"]], [["couch"]]) == 0

    def test_each_candidate_tuple_matches_at_most_once(self):
        syn = SynonymMap([["sofa", "couch"]])
        # Both reference tuples collapse to (sofa,); the single candidate matches once.
        assert tuple_matches([["sofa"]], [["sofa"], ["couch"]], syn) == 1

    def test_none_is_empty(self):
        assert tuple_matches(None, [["door"]]) == 0
        report = spice_d_score(None, None, ["left"], ["left"])
        assert (report.n_cand_tuples, report.n_ref_tuples, report.spice_d) == (0, 0, 1.0)


class TestSpiceScore:
    def test_partial_overlap(self):
        pr, re, f = spice_score([["door"], ["wall"]], [["door"]])
        assert pr == 0.5 and re == 1.0
        assert abs(f - 2 / 3) < 1e-12

    def test_zero_denominator_convention(self):
        assert spice_score([], [["door"]]) == (0.0, 0.0, 0.0)
        assert spice_score([["door"]], []) == (0.0, 0.0, 0.0)
        assert spice_score([], []) == (0.0, 0.0, 0.0)

    def test_identical_sets_score_one(self):
        pr, re, f = spice_score([["door"], ["door", "white"]], [["door"], ["door", "white"]])
        assert (pr, re, f) == (1.0, 1.0, 1.0)

    def test_scores_stay_in_unit_interval(self):
        rng = random.Random(11)
        for _ in range(500):
            pr, re, f = spice_score(random_tuple_set(rng), random_tuple_set(rng))
            assert 0.0 <= pr <= 1.0 and 0.0 <= re <= 1.0 and 0.0 <= f <= 1.0


class TestLcsLength:
    def test_examples(self):
        assert lcs_length(["left", "right", "left"], ["right", "left"]) == 2
        assert lcs_length([], ["left"]) == 0
        assert lcs_length(["left"], []) == 0
        assert lcs_length(["left", "right"], ["left", "right"]) == 2
        assert lcs_length(["left", "right"], ["right", "left"]) == 1

    def test_matches_exhaustive_enumeration(self):
        """DP result equals brute-force maximum over all common subsequences."""
        rng = random.Random(23)
        for _ in range(300):
            a = [rng.choice(LABELS) for _ in range(rng.randrange(0, 9))]
            b = [rng.choice(LABELS) for _ in range(rng.randrange(0, 9))]
            assert lcs_length(a, b) == lcs_brute(a, b)

    def test_appending_shared_label_adds_one(self):
        rng = random.Random(5)
        for _ in range(200):
            a = [rng.choice(LABELS) for _ in range(rng.randrange(0, 8))]
            b = [rng.choice(LABELS) for _ in range(rng.randrange(0, 8))]
            x = rng.choice(LABELS)
            assert lcs_length(a + [x], b + [x]) == lcs_length(a, b) + 1


class TestSpiceDScore:
    def test_worked_example(self):
        """4 tuple matches out of 5/6, LCS 2 over 2/2 directions."""
        report = spice_d_score(
            [["a"], ["b"], ["c"], ["d"], ["x"]],
            [["a"], ["b"], ["c"], ["d"], ["y"], ["z"]],
            ["left", "right"],
            ["left", "right"],
        )
        assert abs(report.pr_sd - 6 / 7) < 1e-12
        assert abs(report.re_sd - 0.75) < 1e-12
        expected = 2 * Fraction(6, 7) * Fraction(3, 4) / (Fraction(6, 7) + Fraction(3, 4))
        assert expected == Fraction(4, 5)
        assert abs(report.spice_d - float(expected)) < 1e-12
        assert report.n_tuple_matches == 4
        assert report.n_dir_matches == 2

    def test_reduces_to_spice_without_directions(self):
        """With no directions on either side, SPICE-D and SPICE are the same number."""
        rng = random.Random(17)
        for _ in range(300):
            cand = random_tuple_set(rng)
            ref = random_tuple_set(rng)
            report = spice_d_score(cand, ref, [], [])
            assert report.spice_d == report.spice
            assert report.pr_sd == report.pr_s
            assert report.re_sd == report.re_s

    def test_order_sensitivity(self):
        cand = [["sofa"], ["hall", "long"]]
        same = spice_d_score(cand, cand, ["left", "right"], ["left", "right"])
        flipped = spice_d_score(cand, cand, ["left", "right"], ["right", "left"])
        assert same.n_dir_matches == 2
        assert flipped.n_dir_matches == 1
        assert same.spice_d > flipped.spice_d

    def test_perfect_score_iff_everything_matches(self):
        """On nonempty inputs, SPICE-D hits 1 exactly when tuples and directions agree fully."""
        rng = random.Random(31)
        for _ in range(400):
            cand = random_tuple_set(rng)
            ref = random_tuple_set(rng)
            cd = [rng.choice(LABELS) for _ in range(rng.randrange(0, 4))]
            rd = [rng.choice(LABELS) for _ in range(rng.randrange(0, 4))]
            if not (cand or ref or cd or rd):
                continue
            report = spice_d_score(cand, ref, cd, rd)
            perfect = (
                cand == ref
                and report.n_dir_matches == len(cd) == len(rd)
            )
            assert (report.spice_d == 1.0) == perfect

    def test_adding_matched_tuple_never_hurts(self):
        rng = random.Random(41)
        for _ in range(200):
            cand = random_tuple_set(rng)
            ref = random_tuple_set(rng)
            cd = [rng.choice(LABELS) for _ in range(rng.randrange(0, 4))]
            rd = [rng.choice(LABELS) for _ in range(rng.randrange(0, 4))]
            before = spice_d_score(cand, ref, cd, rd)
            extra = ("fresh", "tuple", str(rng.randrange(1000)))
            after = spice_d_score(cand | {extra}, ref | {extra}, cd, rd)
            assert after.pr_sd >= before.pr_sd - 1e-12
            assert after.re_sd >= before.re_sd - 1e-12
            assert after.spice_d >= before.spice_d - 1e-12

    def test_bounds(self):
        rng = random.Random(59)
        for _ in range(300):
            report = spice_d_score(
                random_tuple_set(rng),
                random_tuple_set(rng),
                [rng.choice(LABELS) for _ in range(rng.randrange(0, 5))],
                [rng.choice(LABELS) for _ in range(rng.randrange(0, 5))],
            )
            for v in (report.spice, report.spice_d, report.pr_s, report.re_s, report.pr_sd, report.re_sd):
                assert 0.0 <= v <= 1.0


@pytest.fixture(scope="module")
def r2r():
    return load_taxonomy("r2r")


class TestCheckLabels:
    def test_known_labels_pass(self, r2r):
        for labels in (["left", "around"], (), iter(("right", "right"))):
            check_labels(labels, r2r)

    @pytest.mark.parametrize(
        "make",
        [list, tuple, iter, lambda labels: (label for label in labels)],
        ids=["list", "tuple", "iterator", "generator"],
    )
    def test_unknown_labels_named_once_and_sorted(self, r2r, make):
        # A one-shot iterator is read in full before the error names its labels.
        with pytest.raises(ValueError) as excinfo:
            check_labels(make(["upward", "left", "sideways", "sideways"]), r2r)
        assert str(excinfo.value) == "direction labels not in taxonomy 'r2r': sideways, upward"


class TestScorePair:
    def _input(self, text, tuples=None, directions=None):
        return ScoringInput(instruction=tokenize(text), tuples=tuples, directions=directions)

    def test_identical_pair_scores_one(self, r2r):
        tuples = frozenset({("bathroom",), ("bathroom", "exit")})
        cand = self._input("walk out of the bathroom and turn left", tuples)
        report = score_pair(cand, [cand], r2r)
        assert report.spice_d == 1.0 and report.spice == 1.0

    def test_max_picks_best_reference(self, r2r):
        cand = self._input("turn left then turn right")
        ref_match = self._input("turn left and make a right")
        ref_flip = self._input("turn right then turn left")
        report = score_pair(cand, [ref_flip, ref_match], r2r, aggregation="max")
        assert report.spice_d == 1.0
        assert report.direction_only

    def test_mean_averages_reference_scores(self, r2r):
        cand = self._input("turn left then turn right")
        ref_match = self._input("turn left and make a right")
        ref_flip = self._input("turn right then turn left")
        report = score_pair(cand, [ref_match, ref_flip], r2r, aggregation="mean")
        assert abs(report.spice_d - 0.75) < 1e-12

    def test_score_sum_adds_left_to_right_from_zero(self):
        """Builtin sum compensates the rounding from Python 3.12: 1.0 and 1.0 here."""
        assert _sum([0.1] * 10) == 0.9999999999999999
        assert _sum([1e16, 1.0, -1e16]) == 0.0
        assert _sum([]) == 0

    def test_direction_overrides_used_verbatim(self, r2r):
        cand = self._input("spin here", directions=("around",))
        ref = self._input("turn around here")
        report = score_pair(cand, [ref], r2r)
        assert report.n_dir_matches == 1 and report.spice_d == 1.0

    def test_unknown_override_label_rejected(self, r2r):
        cand = self._input("go up", directions=("upward",))
        with pytest.raises(ValueError, match="upward"):
            score_pair(cand, [self._input("go up")], r2r)

    def test_missing_tuples_flags_direction_only(self, r2r):
        with_tuples = self._input("turn left", frozenset({("door",)}))
        without = self._input("turn left")
        assert score_pair(without, [without], r2r).direction_only
        assert score_pair(with_tuples, [without], r2r).direction_only
        assert score_pair(without, [with_tuples], r2r).direction_only
        assert not score_pair(with_tuples, [with_tuples], r2r).direction_only

    def test_direction_only_ignores_one_sided_tuples(self, r2r):
        """When any side lacks tuples the record is scored on directions alone."""
        with_tuples = self._input("turn left", frozenset({("door",)}))
        without = self._input("turn left")
        report = score_pair(with_tuples, [without], r2r)
        assert report.n_cand_tuples == 0 and report.spice_d == 1.0

    def test_empty_references_rejected(self, r2r):
        with pytest.raises(ValueError, match="reference"):
            score_pair(self._input("turn left"), [], r2r)

    def test_unknown_aggregation_rejected(self, r2r):
        cand = self._input("turn left")
        with pytest.raises(ValueError, match="aggregation"):
            score_pair(cand, [cand], r2r, aggregation="median")

    def test_max_tie_prefers_earliest_reference(self, r2r):
        cand = self._input("turn left", frozenset({("door",)}))
        ref_a = self._input("turn left", frozenset({("door",), ("wall",)}))
        ref_b = self._input("turn left then turn left", frozenset({("door",)}))
        tie_a = score_pair(cand, [ref_a], r2r).spice_d
        tie_b = score_pair(cand, [ref_b], r2r).spice_d
        assert tie_a == tie_b
        # Genuine tie: the report must carry the first reference's counts.
        report = score_pair(cand, [ref_a, ref_b], r2r)
        assert report.n_ref_tuples == 2 and report.n_ref_dirs == 1

    def test_unnormalized_tuples_score_like_spice_d_score(self, r2r):
        """ScoringInput normalizes raw tuples once; the scores equal spice_d_score on the raw sets."""
        synonyms = SynonymMap([["sofa", "couch"], ["door", "doorway"]])
        cand_raw = {("Couch ",), (" DOOR", "Left Of", "sofa"), ("wall", "white")}
        ref_raw = [("sofa",), ("doorway ", "left of", "Couch"), ("Lamp",)]
        cand = ScoringInput(tokenize("Turn LEFT at the couch"), cand_raw)
        ref = ScoringInput(tokenize("turn left then turn right"), ref_raw)
        assert cand.tuples == normalize_tuples(cand_raw)
        expected = spice_d_score(cand_raw, ref_raw, ["left"], ["left", "right"], synonyms)
        assert expected.n_tuple_matches == 2
        assert score_pair(cand, [ref], r2r, synonyms) == expected

    def test_explicit_directions_need_no_instruction(self, r2r):
        cand = ScoringInput(None, {("door",)}, ("left", "right"))
        ref = self._input("turn left then turn right", frozenset({("door",)}))
        assert score_pair(cand, [ref], r2r).spice_d == 1.0
        with pytest.raises(ValueError, match="instruction"):
            ScoringInput(None, {("door",)})
