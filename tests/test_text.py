import os
import random

import pytest

from naveval.text import (
    DirectionTaxonomy,
    Instruction,
    _labels,
    _words,
    chunk_instruction,
    direction_labels,
    load_taxonomy,
    load_verb_lexicon,
    span_text,
    tokenize,
)

from words_exact import mismatched_blocks

VERBS = frozenset({"walk", "go", "turn", "stop", "exit", "enter", "take", "make", "veer", "wait"})

SEPARATOR_PUNCTUATION = frozenset('.,;:!?"')


def loop_tokenize(raw):
    """Reference tokenizer: the per-character loop that tokenize must agree with."""
    tokens = []
    spans = []
    start = None
    for i, ch in enumerate(raw):
        if ch.isspace() or ch in SEPARATOR_PUNCTUATION:
            if start is not None:
                tokens.append(raw[start:i].lower())
                spans.append((start, i))
                start = None
        elif start is None:
            start = i
    if start is not None:
        tokens.append(raw[start:].lower())
        spans.append((start, len(raw)))
    return tuple(tokens), tuple(spans)


def phrase_labels(taxonomy):
    """Reference phrase map: each phrase's tokens to its class label."""
    return {tokenize(phrase).tokens: label for label, phrases in taxonomy.classes for phrase in phrases}


def loop_parse_directions(tokens, taxonomy):
    """Reference scan: the greedy loop that tries every token position.

    Gives (label, start, end) per matched phrase, end exclusive."""
    index = phrase_labels(taxonomy)
    out = []
    i = 0
    while i < len(tokens):
        for length in sorted({len(p) for p in index}, reverse=True):
            label = index.get(tokens[i : i + length])
            if label is not None and i + length <= len(tokens):
                out.append((label, i, i + length))
                i += length
                break
        else:
            i += 1
    return out


class TestTokenize:
    def test_lowercase_and_punctuation_stripped(self):
        assert tokenize("Turn left.").tokens == ("turn", "left")
        assert tokenize("Go, go; GO!").tokens == ("go", "go", "go")
        assert tokenize('say "stop" now').tokens == ("say", "stop", "now")

    def test_apostrophe_and_hyphen_kept(self):
        assert tokenize("nine o'clock u-turn").tokens == ("nine", "o'clock", "u-turn")

    def test_empty_and_whitespace_input(self):
        assert tokenize("").tokens == ()
        assert tokenize("  \t ...  ").tokens == ()

    def test_spans_point_back_into_raw(self):
        raw = "  Walk, THEN stop!"
        ins = tokenize(raw)
        assert ins.tokens == ("walk", "then", "stop")
        for tok, (start, end) in zip(ins.tokens, ins.spans):
            assert raw[start:end].lower() == tok

    def test_spans_strictly_increasing_on_random_text(self):
        """Spans are in-bounds, ordered, and reproduce the tokens for arbitrary input."""
        rng = random.Random(7)
        chars = "ab c,.;D'!-  \t?"
        for _ in range(500):
            raw = "".join(rng.choice(chars) for _ in range(rng.randrange(0, 40)))
            ins = tokenize(raw)
            prev_end = 0
            for tok, (start, end) in zip(ins.tokens, ins.spans):
                assert 0 <= start < end <= len(raw)
                assert start >= prev_end
                assert raw[start:end].lower() == tok
                assert not any(ch.isspace() for ch in tok)
                prev_end = end

    def test_matches_loop_tokenizer_on_random_text(self):
        """Separators, Unicode whitespace and punctuation, and İ, whose lower() is two characters."""
        alphabet = (
            " \t\n\r\x0b\x0c.,;:!?\"'-"
            "\u00a0\u2003\u3000\u001c"
            "\u2026\uff0c\u201c"
            "\u0130"
            "aZ9é"
        )
        rng = random.Random(11)
        for _ in range(3000):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
            ins = tokenize(raw)
            assert (ins.tokens, ins.spans) == loop_tokenize(raw), repr(raw)
            assert _words(raw) == ins.tokens, repr(raw)
            assert Instruction(raw, ins.tokens, ins.spans) == ins

    def test_separators_are_exactly_whitespace_and_punctuation(self):
        """Over every code point, a character is left out of all tokens exactly
        when it is whitespace or one of .,;:!?\"."""
        raw = "".join(map(chr, range(0x110000)))
        ins = tokenize(raw)
        covered = bytearray(len(raw))
        for start, end in ins.spans:
            covered[start:end] = b"\x01" * (end - start)
        separators = [i for i, flag in enumerate(covered) if not flag]
        expected = [i for i, ch in enumerate(raw) if ch.isspace() or ch in SEPARATOR_PUNCTUATION]
        assert separators == expected
        assert (ins.tokens, ins.spans) == loop_tokenize(raw)
        assert _words(raw) == ins.tokens

    def test_words_lower_each_token_like_tokenize(self):
        """A final sigma lowers to ς at the end of a token and to σ mid-text."""
        assert _words("ΑΣ.Β") == tokenize("ΑΣ.Β").tokens == ("ας", "β")
        assert "ΑΣ.Β".lower() == "ασ.β"

    @pytest.mark.parametrize("context", ["ΑΣ{}Β", "Α{}Σ", "İ{}x"])
    def test_words_match_the_regex_for_every_code_point_in_context(self, context):
        """_words equals the lowered regex tokens with each code point beside a
        capital sigma or İ. tests/words_exact.py runs more contexts as a script."""
        assert mismatched_blocks(context) == []

    def test_instruction_validates_spans(self):
        with pytest.raises(ValueError):
            Instruction(raw="ab", tokens=("a", "b"), spans=((0, 1), (0, 1)))
        with pytest.raises(ValueError, match="spans"):
            Instruction(raw="ab", tokens=("a",), spans=((1, 1),))
        with pytest.raises(ValueError):
            Instruction(raw="ab", tokens=("a b",), spans=((0, 2),))

    def test_instruction_tokens_and_spans_must_match_in_length(self):
        with pytest.raises(ValueError) as excinfo:
            Instruction(raw="a b", tokens=("a",), spans=((0, 1), (2, 3)))
        assert str(excinfo.value) == "tokens and spans must have equal length"

    @pytest.mark.parametrize(
        "tokens, spans, message",
        [
            (("a", "b"), ((0, 1), (0, 1)), "token spans must be strictly increasing and within the raw text"),
            (("a",), ((1, 3),), "token spans must be strictly increasing and within the raw text"),
            (("a b",), ((0, 2),), "invalid token 'a b': tokens must be nonempty and whitespace-free"),
            (("",), ((0, 1),), "invalid token '': tokens must be nonempty and whitespace-free"),
        ],
    )
    def test_hand_built_instruction_keeps_every_check(self, tokens, spans, message):
        with pytest.raises(ValueError) as excinfo:
            Instruction(raw="ab", tokens=tokens, spans=spans)
        assert str(excinfo.value) == message
        with pytest.raises(ValueError) as excinfo:
            Instruction("ab", tokens, spans)
        assert str(excinfo.value) == message

    def test_keyword_construction(self):
        ins = Instruction(spans=((0, 4), (5, 9)), raw="Turn left", tokens=("turn", "left"))
        assert ins == Instruction("Turn left", ("turn", "left"), ((0, 4), (5, 9))) == tokenize("Turn left")

    def test_tokenize_runs_no_instruction_check(self, monkeypatch):
        """tokenize builds its tokens and spans valid, so it stores them unchecked; a hand-built one is checked."""
        calls = []
        check = Instruction._check

        def counting(raw, tokens, spans):
            calls.append(raw)
            check(raw, tokens, spans)

        monkeypatch.setattr(Instruction, "_check", staticmethod(counting))
        for raw in ["", "Turn left, then walk past the sofa.", "ΑΣ.Β İx", "a" * 1000]:
            ins = tokenize(raw)
            assert ins.raw == raw and len(ins.tokens) == len(ins.spans)
        assert calls == []
        Instruction(ins.raw, ins.tokens, ins.spans)
        assert calls == [ins.raw]


class TestTaxonomy:
    def test_bundled_taxonomies_load(self):
        r2r = load_taxonomy("r2r")
        assert r2r.label_set == {"right", "left", "around"}
        urban = load_taxonomy("urban")
        assert urban.label_set == {
            "right",
            "left",
            "nine_oclock",
            "ten_oclock",
            "eleven_oclock",
            "twelve_oclock",
            "one_oclock",
            "two_oclock",
            "three_oclock",
        }

    def test_load_by_path(self, tmp_path):
        p = tmp_path / "tiny.json"
        p.write_text('{"name": "tiny", "classes": [{"label": "up", "phrases": ["go up"]}]}')
        tax = load_taxonomy(p)
        assert [label for label, _ in tax.classes] == ["up"]

    @pytest.mark.parametrize("absolute", [True, False], ids=["absolute", "relative"])
    @pytest.mark.parametrize("relpath", ["tiny.json", os.path.join("d", "tiny")], ids=["suffix", "separator"])
    def test_load_by_str_path(self, tmp_path, monkeypatch, absolute, relpath):
        """A str that ends in .json or holds a path separator is read as a path."""
        p = tmp_path / relpath
        p.parent.mkdir(exist_ok=True)
        p.write_text('{"name": "tiny", "classes": [{"label": "up", "phrases": ["go up"]}]}')
        monkeypatch.chdir(tmp_path)
        assert [label for label, _ in load_taxonomy(str(p) if absolute else relpath).classes] == ["up"]

    def test_bare_name_ignores_file_of_that_name_in_cwd(self, tmp_path, monkeypatch):
        (tmp_path / "r2r").write_text("not json", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert load_taxonomy("r2r").name == "r2r"

    def test_data_dir_override(self, tmp_path, monkeypatch):
        (tmp_path / "taxonomies").mkdir()
        (tmp_path / "taxonomies" / "custom.json").write_text(
            '{"name": "custom", "classes": [{"label": "down", "phrases": ["go down"]}]}'
        )
        monkeypatch.setenv("NAVEVAL_DATA_DIR", str(tmp_path))
        assert [label for label, _ in load_taxonomy("custom").classes] == ["down"]

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DirectionTaxonomy(
                name="bad", classes=(("left", ("left",)), ("left", ("turn left",)))
            )

    def test_phrase_in_two_classes_rejected(self):
        with pytest.raises(ValueError, match="appears under both"):
            DirectionTaxonomy(
                name="bad", classes=(("left", ("turn left",)), ("right", ("turn left",)))
            )

    @pytest.mark.parametrize(
        "name, classes, message",
        [
            ("", (("left", ("left",)),), "taxonomy name must be nonempty"),
            ("t", (("", ("left",)),), "direction class labels must be nonempty"),
        ],
        ids=["name", "label"],
    )
    def test_empty_name_or_label_rejected(self, name, classes, message):
        with pytest.raises(ValueError) as excinfo:
            DirectionTaxonomy(name, classes)
        assert str(excinfo.value) == message

    def test_empty_phrase_rejected(self):
        with pytest.raises(ValueError, match="empty after tokenization"):
            DirectionTaxonomy(name="bad", classes=(("left", ("...",)),))

    @pytest.mark.parametrize(
        "doc",
        [
            {"name": 5, "classes": [{"label": "up", "phrases": ["go up"]}]},
            {"name": "t", "classes": []},
            {"name": "t", "classes": [{"label": 5, "phrases": ["go up"]}]},
            {"name": "t", "classes": [{"label": "up", "phrases": []}]},
            {"name": "t", "classes": [{"label": "up", "phrases": "go up"}]},
            {"name": "t", "classes": [{"label": "up", "phrases": ["go up", 5]}]},
        ],
        ids=["name-not-str", "no-classes", "label-not-str", "no-phrases", "phrases-not-list", "phrase-not-str"],
    )
    def test_from_mapping_rejects_malformed_document(self, doc):
        with pytest.raises(ValueError):
            DirectionTaxonomy.from_mapping(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([{"name": "t"}], "taxonomy document must be a JSON object"),
            ({"name": "t", "classes": ["left"]}, "each taxonomy class must be an object"),
        ],
        ids=["list", "class-not-object"],
    )
    def test_from_mapping_names_the_wrong_shape(self, doc, message):
        with pytest.raises(ValueError) as excinfo:
            DirectionTaxonomy.from_mapping(doc)
        assert str(excinfo.value) == message


@pytest.fixture(scope="module")
def r2r():
    return load_taxonomy("r2r")


class TestParseDirections:
    def test_mixed_instruction(self, r2r):
        labels = direction_labels(
            tokenize("walk straight then turn left and make a right at the sofa"), r2r
        )
        assert labels == ["left", "right"]

    def test_turn_around_and_veer_right(self, r2r):
        assert direction_labels(tokenize("turn around and veer right"), r2r) == ["around", "right"]

    def test_right_synonyms_all_map_to_right(self, r2r):
        for text in ("turn right", "make a right", "veer right"):
            assert direction_labels(tokenize(text), r2r) == ["right"]

    def test_no_phrases(self, r2r):
        assert direction_labels(tokenize("walk to the door"), r2r) == []

    def test_longest_match_wins(self):
        tax = DirectionTaxonomy(name="t", classes=(("right", ("right", "make a right")),))
        ins = tokenize("make a right")
        assert loop_parse_directions(ins.tokens, tax) == [("right", 0, 3)]
        assert direction_labels(ins, tax) == ["right"]
        # Also among phrases that share their first token.
        tax = DirectionTaxonomy(name="t", classes=(("left", ("turn",)), ("around", ("turn around",))))
        assert direction_labels(tokenize("turn around"), tax) == ["around"]
        # The phrase's length decides, not its label's.
        tax = DirectionTaxonomy(name="t", classes=(("around", ("turn",)), ("left", ("turn left",))))
        assert direction_labels(tokenize("turn left"), tax) == ["left"]

    def test_spans_ordered_and_disjoint(self, r2r):
        ins = tokenize("turn left, turn to the right, then turn around")
        expected = loop_parse_directions(ins.tokens, r2r)
        assert direction_labels(ins, r2r) == [label for label, _, _ in expected] == ["left", "right", "around"]
        prev_end = 0
        for _, start, end in expected:
            assert prev_end <= start < end
            prev_end = end

    def test_urban_clock_phrases(self):
        urban = load_taxonomy("urban")
        labels = direction_labels(
            tokenize("head toward two o'clock then turn left at nine o'clock"), urban
        )
        assert labels == ["two_oclock", "left", "nine_oclock"]

    def test_random_insertions_recover_label_sequence(self, r2r):
        """Phrases dropped into neutral filler text are recovered in order with disjoint spans."""
        rng = random.Random(42)
        phrase_pool = [(" ".join(toks), label) for toks, label in phrase_labels(r2r).items()]
        filler = ["walk", "go", "past", "the", "to", "door", "room", "hall", "stairs", "straight"]
        for _ in range(300):
            expected = []
            words: list[str] = []
            for _ in range(rng.randrange(1, 5)):
                words.extend(rng.choice(filler) for _ in range(rng.randrange(0, 4)))
                phrase, label = rng.choice(phrase_pool)
                words.append(phrase)
                expected.append(label)
            words.extend(rng.choice(filler) for _ in range(rng.randrange(0, 3)))
            ins = tokenize(" ".join(words))
            assert direction_labels(ins, r2r) == expected
            assert [label for label, _, _ in loop_parse_directions(ins.tokens, r2r)] == expected

    @pytest.mark.parametrize("name", ["r2r", "urban"])
    def test_scan_matches_loop_over_every_position(self, name):
        """Phrase tokens, their parts and filler in random order, as the reference loop finds them."""
        taxonomy = load_taxonomy(name)
        pool = sorted({tok for phrase in phrase_labels(taxonomy) for tok in phrase}) + ["the", "walk", "u"]
        rng = random.Random(13)
        for _ in range(3000):
            tokens = tuple(rng.choice(pool) for _ in range(rng.randrange(0, 12)))
            expected = [label for label, _, _ in loop_parse_directions(tokens, taxonomy)]
            assert _labels(tokens, taxonomy) == expected
            assert direction_labels(tokenize(" ".join(tokens)), taxonomy) == expected

    def test_deterministic(self, r2r):
        ins = tokenize("turn left and turn right then turn around")
        assert direction_labels(ins, r2r) == direction_labels(ins, r2r) == ["left", "right", "around"]


class TestChunkInstruction:
    def test_boundary_after_comma(self):
        ins = tokenize("go down the stairs, then stop at the door")
        chunks = chunk_instruction(ins, VERBS)
        assert [span_text(ins, span) for span in chunks] == [
            "go down the stairs",
            "then stop at the door",
        ]

    @pytest.mark.parametrize("mark", list(".,;:!?"))
    def test_boundary_after_every_clause_mark(self, mark):
        ins = tokenize(f"turn left{mark} walk to the door")
        assert chunk_instruction(ins, VERBS) == [(0, 2), (2, 6)]

    def test_quotation_mark_separates_tokens_but_opens_no_chunk(self):
        ins = tokenize('turn left "walk" to the door')
        assert ins.tokens == ("turn", "left", "walk", "to", "the", "door")
        assert chunk_instruction(ins, VERBS) == [(0, 6)]

    def test_boundary_at_token_one(self):
        ins = tokenize("stop then turn left")
        chunks = chunk_instruction(ins, VERBS)
        assert [span_text(ins, span) for span in chunks] == ["stop", "then turn left"]

    def test_boundary_on_and(self):
        ins = tokenize("Walk out of the bathroom and go into the living room")
        chunks = chunk_instruction(ins, VERBS)
        assert [span_text(ins, span) for span in chunks] == [
            "walk out of the bathroom",
            "and go into the living room",
        ]

    def test_verbless_chunk_merges_backward(self):
        ins = tokenize("turn left and quickly")
        chunks = chunk_instruction(ins, VERBS)
        assert [span_text(ins, span) for span in chunks] == ["turn left and quickly"]

    def test_first_chunk_kept_even_without_verb(self):
        ins = tokenize("quickly now, then turn left")
        chunks = chunk_instruction(ins, VERBS)
        assert [span_text(ins, span) for span in chunks] == ["quickly now", "then turn left"]

    def test_single_token(self):
        ins = tokenize("stop")
        chunks = chunk_instruction(ins, VERBS)
        assert chunks == [(0, 1)]

    def test_empty_instruction_rejected(self):
        with pytest.raises(ValueError, match="no tokens"):
            chunk_instruction(tokenize(""), VERBS)

    def test_spans_partition_token_range(self):
        """Chunk spans always cover every token exactly once, in order."""
        rng = random.Random(3)
        vocab = ["walk", "go", "stop", "and", "then", "the", "door", "hall", "blue", "now"]
        seps = [" ", " ", ", ", ". "]
        for _ in range(400):
            n = rng.randrange(1, 12)
            raw = ""
            for i in range(n):
                raw += rng.choice(vocab)
                if i < n - 1:
                    raw += rng.choice(seps)
            ins = tokenize(raw)
            verbs = frozenset(w for w in vocab if rng.random() < 0.4)
            chunks = chunk_instruction(ins, verbs)
            pos = 0
            for start, end in chunks:
                assert start == pos
                assert start < end
                pos = end
            assert pos == len(ins.tokens)
            # Every chunk after the first must carry a verb from the lexicon.
            for start, end in chunks[1:]:
                assert any(t in verbs for t in ins.tokens[start:end])

    def test_bundled_lexicon_passed_explicitly(self):
        ins = tokenize("walk ahead and stop")
        assert chunk_instruction(ins, load_verb_lexicon()) == [(0, 2), (2, 4)]
        with pytest.raises(TypeError):
            chunk_instruction(ins)


class TestVerbLexicon:
    def test_bundled_lexicon_loads(self):
        verbs = load_verb_lexicon()
        assert {"walk", "go", "turn", "stop", "exit", "enter", "continue"} <= verbs

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "verbs.txt"
        p.write_text("# comment\n\nWalk\nrun\n")
        assert load_verb_lexicon(p) == {"walk", "run"}
