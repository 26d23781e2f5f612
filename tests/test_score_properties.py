"""Property tests for the score path: tokenizer, phrase scan, SPICE-D and the
score report writer; skipped when hypothesis is not installed."""

import json

import pytest

from naveval.cli import _score_report_text
from naveval.metric import ScoreReport, SynonymMap, spice_d_score
from naveval.text import _labels, _words, direction_labels, load_taxonomy, tokenize

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=200, deadline=None, database=None)

TAXONOMIES = {name: load_taxonomy(name) for name in ("r2r", "urban")}
# Each taxonomy's phrases as token tuples, mapped to their class labels.
PHRASE_LABELS = {
    name: {tokenize(phrase).tokens: label for label, phrases in tax.classes for phrase in phrases}
    for name, tax in TAXONOMIES.items()
}


@PROPERTY_SETTINGS
@given(st.text())
def test_tokenize_spans_point_back_into_raw(raw):
    ins = tokenize(raw)
    prev_end = 0
    for token, (start, end) in zip(ins.tokens, ins.spans, strict=True):
        assert prev_end <= start < end <= len(raw)
        assert raw[start:end].lower() == token
        prev_end = end
    assert _words(raw) == ins.tokens


@st.composite
def text_with_one_phrase(draw):
    name = draw(st.sampled_from(sorted(TAXONOMIES)))
    taxonomy = TAXONOMIES[name]
    phrase, label = draw(st.sampled_from(sorted(PHRASE_LABELS[name].items())))
    phrase_tokens = {tok for p in PHRASE_LABELS[name] for tok in p}
    before, after = draw(st.text()), draw(st.text())
    # The surrounding text holds no token of any phrase, so it can neither
    # match by itself nor extend the inserted phrase.
    assume(not phrase_tokens & set(_words(before) + _words(after)))
    return taxonomy, f"{before} {' '.join(phrase)} {after}", label


@PROPERTY_SETTINGS
@given(text_with_one_phrase())
def test_inserted_phrase_is_parsed_back_to_its_label(case):
    taxonomy, raw, label = case
    assert direction_labels(tokenize(raw), taxonomy) == [label]
    assert _labels(_words(raw), taxonomy) == [label]


# A small vocabulary in mixed case and padding, so that tuples match often.
words = st.sampled_from(["sofa", "Sofa", " door ", "door", "left of", "table", "TABLE", "red"])
tuples = st.lists(st.lists(words, min_size=1, max_size=3), max_size=6)
labels = st.lists(st.sampled_from(["left", "right", "around"]), max_size=6)
sides = st.tuples(st.none() | tuples, labels)


@PROPERTY_SETTINGS
@given(sides, sides)
def test_spice_d_and_its_parts_stay_in_unit_interval(cand, ref):
    report = spice_d_score(cand[0], ref[0], cand[1], ref[1])
    for value in (report.spice, report.spice_d, report.pr_s, report.re_s, report.pr_sd, report.re_sd):
        assert 0.0 <= value <= 1.0


@PROPERTY_SETTINGS
@given(sides, sides)
def test_swapping_sides_swaps_precision_and_recall(cand, ref):
    forward = spice_d_score(cand[0], ref[0], cand[1], ref[1])
    backward = spice_d_score(ref[0], cand[0], ref[1], cand[1])
    assert (backward.pr_s, backward.re_s) == (forward.re_s, forward.pr_s)
    assert (backward.pr_sd, backward.re_sd) == (forward.re_sd, forward.pr_sd)
    assert (backward.spice, backward.spice_d) == (forward.spice, forward.spice_d)


NOUNS = ("sofa", "couch", "settee", "door", "doorway", "table", "red")


@st.composite
def synonym_groups(draw):
    """Disjoint groups over a shuffled part of NOUNS."""
    members = draw(st.permutations(NOUNS))[: draw(st.integers(0, len(NOUNS)))]
    groups, start = [], 0
    while start < len(members):
        size = draw(st.integers(1, 3))
        groups.append(members[start : start + size])
        start += size
    return groups


noun_tuples = st.frozensets(st.lists(st.sampled_from(NOUNS), min_size=1, max_size=3).map(tuple), max_size=6)


@PROPERTY_SETTINGS
@given(synonym_groups(), noun_tuples)
# Two tuples that collapse into one.
@example([["sofa", "couch"]], frozenset({("sofa", "red"), ("couch", "red"), ("door",)}))
def test_canonical_set_canonicalizes_each_element(groups, tuple_set):
    representative = {word: group[0] for group in groups for word in group}
    expected = frozenset(tuple(representative.get(e, e) for e in t) for t in tuple_set)
    assert SynonymMap(groups).canonical_set(tuple_set) == expected


# Strings with the characters json escapes: quotes, backslashes, control
# characters, U+2028 and anything outside ASCII.
strings = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029\xe9\U0001f600'))
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, 1.0, 1 / 3, 1e-17, 5e-324]
)
counts = st.integers(min_value=0, max_value=10**6)


@st.composite
def rows(draw):
    scores = [draw(floats) for _ in range(6)]
    tallies = [draw(counts) for _ in range(6)]
    return draw(strings), draw(counts), ScoreReport(*scores, *tallies, draw(st.booleans()))


def expected_record(rid, n_references, r):
    # The record as the report format defines it, spelled out independently
    # of the writer.
    return {
        "id": rid,
        "n_references": n_references,
        "spice": r.spice,
        "spice_d": r.spice_d,
        "pr_s": r.pr_s,
        "re_s": r.re_s,
        "pr_sd": r.pr_sd,
        "re_sd": r.re_sd,
        "counts": {
            "cand_tuples": r.n_cand_tuples,
            "ref_tuples": r.n_ref_tuples,
            "tuple_matches": r.n_tuple_matches,
            "cand_dirs": r.n_cand_dirs,
            "ref_dirs": r.n_ref_dirs,
            "dir_matches": r.n_dir_matches,
        },
        "direction_only": r.direction_only,
    }


@PROPERTY_SETTINGS
@given(
    strings,
    st.sampled_from(["max", "mean"]) | strings,
    st.lists(rows(), max_size=4),
    st.fixed_dictionaries(
        {"mean_spice": floats, "mean_spice_d": floats, "n_records": counts, "n_direction_only": counts}
    ),
)
def test_report_writer_matches_json_dumps(taxonomy, aggregation, report_rows, corpus):
    doc = {
        "taxonomy": taxonomy,
        "aggregation": aggregation,
        "records": [expected_record(*row) for row in report_rows],
        "corpus": corpus,
    }
    text = _score_report_text(taxonomy, aggregation, report_rows, corpus)
    assert text == json.dumps(doc, indent=2) + "\n"
