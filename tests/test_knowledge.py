import random

import pytest

from naveval.knowledge import (
    KnowledgeBase,
    KnowledgeFact,
    load_kb,
    retrieve_facts,
)


class TestLoadKb:
    def test_loads_fixture(self, kb_fixture_path):
        kb = load_kb(kb_fixture_path)
        assert isinstance(kb, KnowledgeBase)
        assert kb.n_facts == 10
        counts = {head: len(retrieve_facts(kb, head, k=10)) for head in ("microwave", "sink", "fridge", "bed")}
        assert counts == {"microwave": 4, "sink": 3, "fridge": 2, "bed": 1}

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("# header\n\nsofa\tAtLocation\tliving room\t2.5\n")
        kb = load_kb(path)
        assert kb.n_facts == 1
        assert retrieve_facts(kb, "sofa") == [KnowledgeFact("sofa", "AtLocation", "living room", 2.5)]

    @pytest.mark.parametrize(
        "char, eol", [("\x85", "\n"), ("\u2028", "\n"), ("\u2029", "\n"), (" ", "\r\n")],
        ids=["U+0085", "U+2028", "U+2029", "CRLF"],
    )
    def test_a_row_is_one_newline_terminated_line(self, tmp_path, char, eol):
        path = tmp_path / "kb.tsv"
        lines = ["# kitchen", f"lamp\tHasA\tshade{char}cord\t2.0", "lamp\tAtLocation\tdesk\t1.0"]
        path.write_bytes("".join(line + eol for line in lines).encode("utf-8"))
        kb = load_kb(path)
        assert kb.n_facts == 2
        assert retrieve_facts(kb, "lamp", k=1) == [KnowledgeFact("lamp", "HasA", f"shade{char}cord", 2.0)]
        path.write_bytes(path.read_bytes() + f"lamp{char}desk{eol}".encode("utf-8"))
        with pytest.raises(ValueError, match=r": line 4: expected 4 tab-separated columns, got 1$"):
            load_kb(path)

    def test_head_lookup_case_insensitive(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("Sofa\tAtLocation\tliving room\t2.5\n")
        kb = load_kb(path)
        assert len(retrieve_facts(kb, "SOFA")) == 1
        assert len(retrieve_facts(kb, "sofa")) == 1

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("sofa\tAtLocation\tliving room\t2.5\nbad\trow\n")
        with pytest.raises(ValueError, match="line 2"):
            load_kb(path)

    def test_bad_weight_reports_line(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("sofa\tAtLocation\tliving room\theavy\n")
        with pytest.raises(ValueError, match="line 1"):
            load_kb(path)

    def test_all_problems_reported_together(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text(
            "bad\trow\n"
            "sofa\tAtLocation\tliving room\t2.5\n"
            "sofa\tAtLocation\tden\tnan\n"
        )
        with pytest.raises(ValueError) as excinfo:
            load_kb(path)
        message = str(excinfo.value)
        assert "line 1" in message and "line 3" in message

    def test_empty_field_rejected(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("sofa\t\tliving room\t2.5\n")
        with pytest.raises(ValueError, match="line 1"):
            load_kb(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_kb(tmp_path / "nope.tsv")

    def test_nonfinite_weight_reported_with_fact_message(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("sofa\tAtLocation\tliving room\tinf\n")
        with pytest.raises(ValueError, match="line 1: fact weight must be finite"):
            load_kb(path)

    def test_every_kind_of_bad_row_in_one_message(self, tmp_path):
        path = tmp_path / "kb.tsv"
        rows = [
            "# comment",
            "sink\tUsedFor\twashing\t2.0",
            "",
            "sink\tAtLocation\tkitchen",
            "stove\tUsedFor\tcooking\theavy",
            "\tUsedFor\tcooking\t1.0",
            "oven\tUsedFor\tbaking\tinf",
            "   # indented comment",
            "   ",
            "lamp\tx\ty\t1\textra",
            "fridge\t \tfood\tnan",
            "door\tPartOf\thouse\tnan",
            "cup\tUsedFor\tdrinking\t-inf",
            "bed\tUsedFor\tsleep\t 1.5 ",
        ]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            load_kb(path)
        assert str(excinfo.value) == (
            f"{path}: line 4: expected 4 tab-separated columns, got 3; "
            "line 5: non-numeric weight 'heavy'; "
            "line 6: fact fields must be nonempty; "
            "line 7: fact weight must be finite, got inf; "
            "line 10: expected 4 tab-separated columns, got 5; "
            "line 11: fact fields must be nonempty; "
            "line 12: fact weight must be finite, got nan; "
            "line 13: fact weight must be finite, got -inf"
        )

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_bytes(b"sofa\tAtLocation\t\xff\t1.0\n")
        with pytest.raises(UnicodeDecodeError):
            load_kb(path)


class TestRetrieveFacts:
    def test_top_three_by_weight(self, kb_fixture_path):
        kb = load_kb(kb_fixture_path)
        facts = retrieve_facts(kb, "microwave")
        assert [f.weight for f in facts] == [6.2, 4.1, 3.3]

    def test_k_truncates(self, kb_fixture_path):
        kb = load_kb(kb_fixture_path)
        assert len(retrieve_facts(kb, "microwave", k=1)) == 1
        assert len(retrieve_facts(kb, "microwave", k=10)) == 4

    def test_k_must_be_positive(self, kb_fixture_path):
        kb = load_kb(kb_fixture_path)
        with pytest.raises(ValueError):
            retrieve_facts(kb, "microwave", k=0)

    def test_unknown_entity_empty(self, kb_fixture_path):
        kb = load_kb(kb_fixture_path)
        assert retrieve_facts(kb, "submarine") == []

    def test_entity_case_insensitive(self, kb_fixture_path):
        kb = load_kb(kb_fixture_path)
        assert retrieve_facts(kb, "Microwave") == retrieve_facts(kb, "microwave")

    def test_equal_weights_break_ties_lexically(self, kb_fixture_path):
        """Facts with identical weight sort by relation then tail."""
        kb = load_kb(kb_fixture_path)
        facts = retrieve_facts(kb, "sink")
        assert all(f.weight == 4.0 for f in facts)
        keys = [(f.relation, f.tail) for f in facts]
        assert keys == sorted(keys)

    def test_large_seeded_kb_matches_reference_sort(self, tmp_path):
        rng = random.Random(7)
        # Few relations, tails and weights, so many facts tie on weight.
        facts = [
            (
                f"E{rng.randrange(300)}",
                f"rel{rng.randrange(12)}",
                f"t{rng.randrange(40)}",
                rng.choice([1.0, 2.5, rng.uniform(-5, 5)]),
            )
            for _ in range(30_000)
        ]
        path = tmp_path / "kb.tsv"
        path.write_text("".join(f"{h}\t{r}\t{t}\t{w!r}\n" for h, r, t, w in facts), encoding="utf-8")
        kb = load_kb(path)
        assert kb.n_facts == 30_000
        by_head = {}
        for fact in facts:
            by_head.setdefault(fact[0].lower(), []).append(fact)
        for entity in [f"e{i}" for i in range(0, 300, 7)] + ["E5", "nothing"]:
            for k in (1, 3, 10, 1000):
                want = sorted(by_head.get(entity.lower(), []), key=lambda f: (-f[3], f[1], f[2]))[:k]
                got = retrieve_facts(kb, entity, k)
                assert got == [KnowledgeFact(head=h, relation=r, tail=t, weight=w) for h, r, t, w in want]
                assert all(type(f) is KnowledgeFact for f in got)

    def test_weights_non_increasing(self, kb_fixture_path):
        kb = load_kb(kb_fixture_path)
        rng = random.Random(31)
        heads = ["microwave", "sink", "fridge", "bed"]
        for _ in range(50):
            head = rng.choice(heads)
            k = rng.randrange(1, 6)
            weights = [f.weight for f in retrieve_facts(kb, head, k=k)]
            assert weights == sorted(weights, reverse=True)


class TestKnowledgeBase:
    def test_built_from_facts(self, tmp_path):
        """Heads are indexed case-insensitively, each with its facts in file order."""
        path = tmp_path / "kb.tsv"
        path.write_text(
            "Sofa\tAtLocation\tden\t1.0\n"
            "lamp\tAtLocation\tdesk\t2.0\n"
            "SOFA\tAtLocation\tden\t1.0\n"
            "sofa\tUsedFor\tsitting\t3.0\n",
            encoding="utf-8",
        )
        kb = load_kb(path)
        assert isinstance(kb, KnowledgeBase) and kb.n_facts == 4
        # The two den facts tie on the whole ranking key, so the stable sort
        # shows the order the index holds them in: file order.
        assert retrieve_facts(kb, "sOfA") == [
            KnowledgeFact("sofa", "UsedFor", "sitting", 3.0),
            KnowledgeFact("Sofa", "AtLocation", "den", 1.0),
            KnowledgeFact("SOFA", "AtLocation", "den", 1.0),
        ]
        assert [f.head for f in retrieve_facts(kb, "sofa", 1)] == ["sofa"]
        empty = tmp_path / "empty.tsv"
        empty.write_text("# no facts\n", encoding="utf-8")
        assert load_kb(empty).n_facts == 0

    @pytest.mark.parametrize(
        "row, message",
        [
            (("door", "AtLocation", "hall", float("nan")), "fact weight must be finite, got nan"),
            (("door", "", "x", 1.0), "fact fields must be nonempty"),
        ],
        ids=["nan-weight", "empty-relation"],
    )
    def test_hand_built_rows_are_checked(self, row, message):
        """A KnowledgeBase built by hand holds only rows that KnowledgeFact accepts."""
        with pytest.raises(ValueError) as excinfo:
            KnowledgeBase([("door", "AtLocation", "hall", 1.0), row])
        assert str(excinfo.value) == message

    def test_hand_built_rows_are_copied(self):
        """Rows are held as tuples, so a caller's later change to a row reaches no fact."""
        row = ["door", "AtLocation", "hall", 1.0]
        kb = KnowledgeBase(iter([row]))
        row[3] = float("nan")
        assert kb.n_facts == 1
        assert retrieve_facts(kb, "DOOR") == [KnowledgeFact("door", "AtLocation", "hall", 1.0)]


class TestKnowledgeFact:
    def test_validation(self):
        with pytest.raises(ValueError):
            KnowledgeFact(head="", relation="AtLocation", tail="kitchen", weight=1.0)
        with pytest.raises(ValueError):
            KnowledgeFact(head="sofa", relation="AtLocation", tail="kitchen", weight=float("inf"))

    @pytest.mark.parametrize(
        "fields, message",
        [
            (("", "AtLocation", "kitchen", 1.0), "fact fields must be nonempty"),
            (("sofa", "", "kitchen", 1.0), "fact fields must be nonempty"),
            (("sofa", "AtLocation", "", 1.0), "fact fields must be nonempty"),
            (("sofa", "AtLocation", "kitchen", float("nan")), "fact weight must be finite, got nan"),
            (("sofa", "AtLocation", "kitchen", float("-inf")), "fact weight must be finite, got -inf"),
        ],
    )
    def test_hand_built_fact_keeps_every_check(self, fields, message):
        with pytest.raises(ValueError) as excinfo:
            KnowledgeFact(*fields)
        assert str(excinfo.value) == message
        with pytest.raises(ValueError) as excinfo:
            KnowledgeFact(**dict(zip(KnowledgeFact._fields, fields)))
        assert str(excinfo.value) == message

    def test_keyword_construction(self):
        fact = KnowledgeFact(weight=2.5, tail="kitchen", relation="AtLocation", head="sofa")
        assert fact == KnowledgeFact("sofa", "AtLocation", "kitchen", 2.5)
        assert (fact.head, fact.relation, fact.tail, fact.weight) == ("sofa", "AtLocation", "kitchen", 2.5)
