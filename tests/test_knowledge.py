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

    def test_weights_non_increasing(self, kb_fixture_path):
        kb = load_kb(kb_fixture_path)
        rng = random.Random(31)
        heads = ["microwave", "sink", "fridge", "bed"]
        for _ in range(50):
            head = rng.choice(heads)
            k = rng.randrange(1, 6)
            weights = [f.weight for f in retrieve_facts(kb, head, k=k)]
            assert weights == sorted(weights, reverse=True)


class TestKnowledgeFact:
    def test_validation(self):
        with pytest.raises(ValueError):
            KnowledgeFact(head="", relation="AtLocation", tail="kitchen", weight=1.0)
        with pytest.raises(ValueError):
            KnowledgeFact(head="sofa", relation="AtLocation", tail="kitchen", weight=float("inf"))
