import random

import pytest

from naveval.knowledge import (
    Detection,
    KnowledgeBase,
    KnowledgeBaseError,
    KnowledgeFact,
    gather_entities,
    load_kb,
    retrieve_facts,
)


class TestDetection:
    def test_valid(self):
        d = Detection(label="sofa", confidence=0.9, step=2)
        assert d.label == "sofa"

    def test_confidence_bounds(self):
        Detection(label="sofa", confidence=0.0, step=0)
        Detection(label="sofa", confidence=1.0, step=0)
        with pytest.raises(ValueError):
            Detection(label="sofa", confidence=1.2, step=0)
        with pytest.raises(ValueError):
            Detection(label="sofa", confidence=-0.1, step=0)

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            Detection(label="", confidence=0.5, step=0)


class TestGatherEntities:
    def test_strictly_above_threshold(self):
        """A detection at exactly the threshold is excluded."""
        dets = [
            Detection("sofa", 0.9, step=0),
            Detection("lamp", 0.5, step=0),
            Detection("door", 0.51, step=0),
        ]
        (step,) = gather_entities(dets)
        assert step.step == 0
        assert step.entities == frozenset({"door", "sofa"})

    def test_steps_without_survivors_still_listed(self):
        dets = [Detection("sofa", 0.9, step=0), Detection("lamp", 0.1, step=1)]
        steps = gather_entities(dets)
        assert [s.step for s in steps] == [0, 1]
        assert steps[1].entities == frozenset()

    def test_steps_sorted_ascending(self):
        dets = [Detection("a", 0.9, step=5), Detection("b", 0.9, step=2)]
        steps = gather_entities(dets)
        assert [s.step for s in steps] == [2, 5]

    def test_duplicates_collapse(self):
        dets = [Detection("sofa", 0.8, step=0), Detection("sofa", 0.95, step=0)]
        (step,) = gather_entities(dets)
        assert step.entities == frozenset({"sofa"})

    def test_input_order_independent(self):
        rng = random.Random(11)
        dets = [
            Detection(label, conf, step=s)
            for s in range(3)
            for label, conf in [("sofa", 0.9), ("lamp", 0.4), ("door", 0.7)]
        ]
        base = gather_entities(dets)
        for _ in range(20):
            shuffled = dets[:]
            rng.shuffle(shuffled)
            assert gather_entities(shuffled) == base

    def test_raising_threshold_never_adds_entities(self):
        rng = random.Random(23)
        dets = [
            Detection(f"obj{i}", rng.random(), step=rng.randrange(4))
            for i in range(50)
        ]
        prev = None
        for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
            steps = gather_entities(dets, threshold=threshold)
            kept = {(s.step, e) for s in steps for e in s.entities}
            if prev is not None:
                assert kept <= prev
            prev = kept

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            gather_entities([], threshold=1.5)
        with pytest.raises(ValueError):
            gather_entities([], threshold=-0.2)

    def test_empty_input(self):
        assert gather_entities([]) == []


class TestLoadKb:
    def test_loads_fixture(self, kb_fixture_path):
        kb = load_kb(kb_fixture_path)
        assert isinstance(kb, KnowledgeBase)
        assert kb.n_facts == 10
        assert len(kb) == 4  # distinct heads
        assert len(kb.facts_for("microwave")) == 4

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("# header\n\nsofa\tAtLocation\tliving room\t2.5\n")
        kb = load_kb(path)
        assert len(kb) == 1

    def test_head_lookup_case_insensitive(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("Sofa\tAtLocation\tliving room\t2.5\n")
        kb = load_kb(path)
        assert len(kb.facts_for("SOFA")) == 1
        assert len(kb.facts_for("sofa")) == 1

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("sofa\tAtLocation\tliving room\t2.5\nbad\trow\n")
        with pytest.raises(KnowledgeBaseError, match="line 2"):
            load_kb(path)

    def test_bad_weight_reports_line(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("sofa\tAtLocation\tliving room\theavy\n")
        with pytest.raises(KnowledgeBaseError, match="line 1"):
            load_kb(path)

    def test_all_problems_reported_together(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text(
            "bad\trow\n"
            "sofa\tAtLocation\tliving room\t2.5\n"
            "sofa\tAtLocation\tden\tnan\n"
        )
        with pytest.raises(KnowledgeBaseError) as excinfo:
            load_kb(path)
        message = str(excinfo.value)
        assert "line 1" in message and "line 3" in message

    def test_empty_field_rejected(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("sofa\t\tliving room\t2.5\n")
        with pytest.raises(KnowledgeBaseError, match="line 1"):
            load_kb(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_kb(tmp_path / "nope.tsv")

    def test_nonfinite_weight_reported_with_fact_message(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("sofa\tAtLocation\tliving room\tinf\n")
        with pytest.raises(KnowledgeBaseError, match="line 1: fact weight must be finite"):
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
        with pytest.raises(KnowledgeBaseError) as excinfo:
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
        with pytest.raises(KnowledgeBaseError, match="not valid UTF-8"):
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
    def test_built_from_facts(self):
        facts = [
            KnowledgeFact("Sofa", "AtLocation", "den", 1.0),
            KnowledgeFact("lamp", "AtLocation", "desk", 2.0),
            KnowledgeFact("sofa", "UsedFor", "sitting", 3.0),
        ]
        kb = KnowledgeBase(facts)
        assert (kb.n_facts, len(kb)) == (3, 2)
        assert kb.facts_for("SOFA") == (facts[0], facts[2])
        assert retrieve_facts(kb, "sofa", 1) == [facts[2]]
        assert KnowledgeBase().n_facts == 0


class TestKnowledgeFact:
    def test_validation(self):
        with pytest.raises(ValueError):
            KnowledgeFact(head="", relation="AtLocation", tail="kitchen", weight=1.0)
        with pytest.raises(ValueError):
            KnowledgeFact(head="sofa", relation="AtLocation", tail="kitchen", weight=float("inf"))
