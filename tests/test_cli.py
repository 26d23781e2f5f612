import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from naveval.align import (
    attention_coverage_loss,
    build_cost,
    contrastive_loss,
    dtw_align,
    softmax_attention,
    target_from_word_map,
)
from naveval.cli import build_parser, main

HALF_SQRT2 = 0.7071067811865476

FEATURES = {
    "sub_instructions": [[1.0, 0.0], [0.0, 1.0]],
    "panoramas": [[1.0, 0.0], [HALF_SQRT2, HALF_SQRT2], [0.0, 1.0]],
    "words": [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
    "word_to_sub": [0, 0, 1],
}


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScore:
    def test_self_scoring_is_perfect(self, capsys, mini_corpus_dir):
        cands = str(mini_corpus_dir / "candidates.jsonl")
        code, out, _ = run_cli(capsys, "score", cands, cands, "--quiet")
        assert code == 0
        doc = json.loads(out)
        assert doc["corpus"]["mean_spice_d"] == 1.0
        assert all(r["spice_d"] == 1.0 for r in doc["records"])

    def test_reference_scoring_summary(self, capsys, mini_corpus_dir):
        code, out, err = run_cli(
            capsys,
            "score",
            str(mini_corpus_dir / "candidates.jsonl"),
            str(mini_corpus_dir / "references.jsonl"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["taxonomy"] == "r2r"
        assert doc["aggregation"] == "max"
        assert doc["corpus"]["n_records"] == 20
        assert doc["corpus"]["n_direction_only"] == 2
        assert "scored 20 records" in err

    def test_output_file_deterministic(self, capsys, tmp_path, mini_corpus_dir):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            code, stdout, _ = run_cli(
                capsys,
                "score",
                str(mini_corpus_dir / "candidates.jsonl"),
                str(mini_corpus_dir / "references.jsonl"),
                "--quiet",
                "--out",
                str(out),
            )
            assert code == 0
            assert stdout == ""
        assert out_a.read_bytes() == out_b.read_bytes()
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert leftovers == []

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=["022", "077", "002"]
    )
    def test_output_file_mode_follows_umask(self, capsys, tmp_path, mini_corpus_dir, umask, mode):
        out = tmp_path / "report.json"
        old = os.umask(umask)
        try:
            code, _, _ = run_cli(
                capsys,
                "score",
                str(mini_corpus_dir / "candidates.jsonl"),
                str(mini_corpus_dir / "references.jsonl"),
                "--quiet",
                "--out",
                str(out),
            )
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(out.stat().st_mode) == mode

    def test_missing_reference_id_fails_without_output(self, capsys, tmp_path):
        cands = tmp_path / "c.jsonl"
        refs = tmp_path / "r.jsonl"
        write_jsonl(cands, [{"id": "a", "text": "turn left"}, {"id": "b", "text": "turn right"}])
        write_jsonl(refs, [{"id": "a", "text": "turn left"}])
        out = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "score", str(cands), str(refs), "--out", str(out))
        assert code == 1
        assert "b" in err
        assert not out.exists()

    def test_malformed_jsonl_reports_line(self, capsys, tmp_path):
        cands = tmp_path / "c.jsonl"
        cands.write_text('{"id": "a", "text": "turn left"}\n{broken\n', encoding="utf-8")
        refs = tmp_path / "r.jsonl"
        write_jsonl(refs, [{"id": "a", "text": "turn left"}])
        code, _, err = run_cli(capsys, "score", str(cands), str(refs))
        assert code == 2
        assert ":2:" in err

    def test_duplicate_candidate_id(self, capsys, tmp_path):
        cands = tmp_path / "c.jsonl"
        write_jsonl(cands, [{"id": "a", "text": "turn left"}, {"id": "a", "text": "turn right"}])
        refs = tmp_path / "r.jsonl"
        write_jsonl(refs, [{"id": "a", "text": "turn left"}])
        code, _, err = run_cli(capsys, "score", str(cands), str(refs))
        assert code == 2
        assert "duplicate" in err

    def test_unknown_direction_override_label(self, capsys, tmp_path):
        cands = tmp_path / "c.jsonl"
        write_jsonl(cands, [{"id": "a", "text": "go on", "directions": ["sideways"]}])
        refs = tmp_path / "r.jsonl"
        write_jsonl(refs, [{"id": "a", "text": "go on"}])
        code, _, err = run_cli(capsys, "score", str(cands), str(refs))
        assert code == 2
        assert f"{cands}:1: direction labels not in taxonomy 'r2r': sideways" in err

    @pytest.mark.parametrize("ref_id", ["a", "b"], ids=["used", "unused"])
    def test_unknown_reference_label_checked_at_load(self, capsys, tmp_path, ref_id):
        """Every reference record is checked, also one whose id no candidate has."""
        cands = tmp_path / "c.jsonl"
        write_jsonl(cands, [{"id": "a", "text": "turn left"}])
        refs = tmp_path / "r.jsonl"
        write_jsonl(
            refs,
            [
                {"id": "a", "text": "turn left"},
                {"id": ref_id, "text": "go up", "directions": ["left", "upward"]},
            ],
        )
        code, out, err = run_cli(capsys, "score", str(cands), str(refs))
        assert code == 2
        assert out == ""
        assert f"{refs}:2: direction labels not in taxonomy 'r2r': upward" in err

    def test_unknown_label_reported_before_missing_id(self, capsys, tmp_path):
        cands = tmp_path / "c.jsonl"
        write_jsonl(cands, [{"id": "a", "text": "turn left"}, {"id": "b", "text": "x", "directions": ["up"]}])
        refs = tmp_path / "r.jsonl"
        write_jsonl(refs, [{"id": "a", "text": "turn left"}])
        code, _, err = run_cli(capsys, "score", str(cands), str(refs))
        assert code == 2
        assert f"{cands}:2:" in err and "missing" not in err

    def test_synonyms_flag_merges_tuple_vocab(self, capsys, tmp_path):
        cands = tmp_path / "c.jsonl"
        refs = tmp_path / "r.jsonl"
        write_jsonl(cands, [{"id": "a", "text": "turn left at the fridge", "tuples": [["fridge"]]}])
        write_jsonl(refs, [{"id": "a", "text": "turn left at the refrigerator", "tuples": [["refrigerator"]]}])
        syn = tmp_path / "syn.json"
        syn.write_text(json.dumps([["fridge", "refrigerator"]]), encoding="utf-8")

        code, out, _ = run_cli(capsys, "score", str(cands), str(refs), "--quiet")
        assert code == 0
        assert json.loads(out)["records"][0]["spice_d"] == 0.5

        code, out, _ = run_cli(
            capsys, "score", str(cands), str(refs), "--quiet", "--synonyms", str(syn)
        )
        assert code == 0
        assert json.loads(out)["records"][0]["spice_d"] == 1.0

    def test_mean_aggregation_differs_from_max(self, capsys, tmp_path):
        cands = tmp_path / "c.jsonl"
        refs = tmp_path / "r.jsonl"
        write_jsonl(cands, [{"id": "a", "text": "turn left", "tuples": [["door"]]}])
        write_jsonl(
            refs,
            [
                {"id": "a", "text": "turn left", "tuples": [["door"]]},
                {"id": "a", "text": "turn right", "tuples": [["window"]]},
            ],
        )
        code, out, _ = run_cli(capsys, "score", str(cands), str(refs), "--quiet")
        max_score = json.loads(out)["records"][0]["spice_d"]
        code, out, _ = run_cli(
            capsys, "score", str(cands), str(refs), "--quiet", "--aggregation", "mean"
        )
        mean_score = json.loads(out)["records"][0]["spice_d"]
        assert max_score == 1.0
        assert abs(mean_score - 0.5) < 1e-12


class TestAlign:
    def write_features(self, tmp_path, doc):
        path = tmp_path / "features.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_worked_alignment_and_losses(self, capsys, tmp_path):
        path = self.write_features(tmp_path, FEATURES)
        code, out, _ = run_cli(capsys, "align", path, "--ce", "0.25", "--quiet")
        assert code == 0
        doc = json.loads(out)
        assert doc["A"] == [[1, 1, 0], [0, 0, 1]]
        assert doc["A_prime"] == [[1, 1, 0], [1, 1, 0], [0, 0, 1]]

        a = dtw_align(build_cost(FEATURES["sub_instructions"], FEATURES["panoramas"]))
        target = target_from_word_map(a, FEATURES["word_to_sub"])
        beta = softmax_attention(FEATURES["words"], FEATURES["panoramas"])
        l_att = attention_coverage_loss(beta, target)
        l_nce = contrastive_loss(FEATURES["panoramas"], FEATURES["words"], target)
        assert abs(doc["l_att"] - l_att) < 1e-12
        assert abs(doc["l_nce"] - l_nce) < 1e-12
        assert abs(doc["total_loss"] - (0.25 + l_att + l_nce)) < 1e-12

    def test_loss_weights_scale_total(self, capsys, tmp_path):
        path = self.write_features(tmp_path, FEATURES)
        code, out, _ = run_cli(
            capsys, "align", path, "--quiet", "--lambda1", "0.5", "--lambda2", "0"
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["total_loss"] - 0.5 * doc["l_att"]) < 1e-12

    def test_single_sub_instruction(self, capsys, tmp_path):
        doc = {
            "sub_instructions": [[1.0, 0.0]],
            "panoramas": [[1.0, 0.0], [0.0, 1.0]],
            "words": [[1.0, 0.0]],
            "word_to_sub": [0],
        }
        path = self.write_features(tmp_path, doc)
        code, out, _ = run_cli(capsys, "align", path, "--quiet")
        assert code == 0
        assert json.loads(out)["A"] == [[1, 1]]

    def test_dimension_mismatch(self, capsys, tmp_path):
        doc = dict(FEATURES, sub_instructions=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        path = self.write_features(tmp_path, doc)
        code, _, err = run_cli(capsys, "align", path)
        assert code == 1
        assert "dimension" in err

    def test_zero_norm_vector(self, capsys, tmp_path):
        doc = dict(FEATURES, sub_instructions=[[1.0, 0.0], [0.0, 0.0]])
        path = self.write_features(tmp_path, doc)
        code, _, err = run_cli(capsys, "align", path)
        assert code == 1
        assert "zero-norm" in err

    def test_missing_key(self, capsys, tmp_path):
        doc = {k: v for k, v in FEATURES.items() if k != "words"}
        path = self.write_features(tmp_path, doc)
        code, _, err = run_cli(capsys, "align", path)
        assert code == 2
        assert "words" in err

    def test_word_map_length_mismatch(self, capsys, tmp_path):
        doc = dict(FEATURES, word_to_sub=[0, 1])
        path = self.write_features(tmp_path, doc)
        code, _, err = run_cli(capsys, "align", path)
        assert code == 2


class TestDirectionsAndChunk:
    def test_directions_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "directions", "--text", "Turn left, walk past the sofa, and turn right."
        )
        assert code == 0
        assert out == "left right\n"

    def test_directions_empty(self, capsys):
        code, out, _ = run_cli(capsys, "directions", "--text", "walk to the kitchen")
        assert code == 0
        assert out == "\n"

    def test_directions_urban_taxonomy(self, capsys):
        code, out, _ = run_cli(
            capsys, "directions", "--text", "head toward two o'clock", "--taxonomy", "urban"
        )
        assert code == 0
        assert out == "two_oclock\n"

    def test_bare_taxonomy_name_ignores_file_in_cwd(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "r2r").write_text("not json", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "directions", "--text", "turn left")
        assert code == 0
        assert out == "left\n"

    def test_chunk_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "chunk", "--text", "Turn left, walk past the sofa, and stop by the door."
        )
        assert code == 0
        assert out.splitlines() == ["turn left", "walk past the sofa", "and stop by the door"]

    def test_chunk_empty_text(self, capsys):
        code, _, err = run_cli(capsys, "chunk", "--text", "   ")
        assert code == 1


class TestCorrelate:
    def write_table(self, tmp_path, text):
        path = tmp_path / "scores.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_worked_correlation(self, capsys, tmp_path):
        path = self.write_table(
            tmp_path, "id,m,human\nq1,1,1\nq2,2,3\nq3,3,2\nq4,4,4\n"
        )
        code, out, _ = run_cli(capsys, "correlate", path, "--quiet")
        assert code == 0
        (entry,) = json.loads(out)
        assert entry["metric"] == "m"
        assert abs(entry["pearson"] - 0.8) < 1e-12
        assert entry["n"] == 4

    def test_columns_sorted_descending(self, capsys, tmp_path):
        path = self.write_table(
            tmp_path, "id,weak,strong,human\nq1,1,1,1\nq2,3,2,2\nq3,2,3,3\nq4,4,4,4\n"
        )
        code, out, _ = run_cli(capsys, "correlate", path, "--quiet")
        assert code == 0
        entries = json.loads(out)
        assert [e["metric"] for e in entries] == ["strong", "weak"]

    def test_missing_values_dropped_with_note(self, capsys, tmp_path):
        path = self.write_table(
            tmp_path, "id,m,human\nq1,1,1\nq2,,3\nq3,3,2\nq4,4,4\n"
        )
        code, out, err = run_cli(capsys, "correlate", path)
        assert code == 0
        (entry,) = json.loads(out)
        assert entry["n"] == 3
        assert "dropped 1" in err

    def test_single_complete_row_fails(self, capsys, tmp_path):
        path = self.write_table(tmp_path, "id,m,human\nq1,1,1\nq2,,3\n")
        code, _, err = run_cli(capsys, "correlate", path)
        assert code == 1

    def test_non_numeric_cell(self, capsys, tmp_path):
        path = self.write_table(tmp_path, "id,m,human\nq1,good,1\n")
        code, _, err = run_cli(capsys, "correlate", path)
        assert code == 2
        assert ":2:" in err

    def test_bad_header(self, capsys, tmp_path):
        path = self.write_table(tmp_path, "name,m,human\nq1,1,1\n")
        code, _, err = run_cli(capsys, "correlate", path)
        assert code == 2

    def test_min_directions_requires_instructions(self, capsys, tmp_path):
        path = self.write_table(tmp_path, "id,m,human\nq1,1,1\nq2,2,2\n")
        code, _, err = run_cli(capsys, "correlate", path, "--min-directions", "2")
        assert code == 1
        assert "--instructions" in err

    def test_min_directions_filters_rows(self, capsys, tmp_path):
        table = self.write_table(
            tmp_path,
            "id,m,human\nq1,1,1\nq2,2,3\nq3,3,2\nq4,4,4\nq5,9,0\n",
        )
        instructions = tmp_path / "instr.jsonl"
        write_jsonl(
            instructions,
            [
                {"id": "q1", "text": "turn left then turn right"},
                {"id": "q2", "text": "turn left and then go right"},
                {"id": "q3", "text": "turn left twice and turn right"},
                {"id": "q4", "text": "go left, go right, go left"},
                {"id": "q5", "text": "walk straight ahead"},
            ],
        )
        code, out, err = run_cli(
            capsys,
            "correlate",
            table,
            "--min-directions",
            "2",
            "--instructions",
            str(instructions),
        )
        assert code == 0
        (entry,) = json.loads(out)
        assert entry["n"] == 4
        assert abs(entry["pearson"] - 0.8) < 1e-12
        assert "removed 1" in err

    def test_min_directions_counts_explicit_directions(self, capsys, tmp_path):
        table = self.write_table(tmp_path, "id,m,human\nq1,1,1\nq2,2,3\nq3,3,2\nq4,4,4\nq5,9,0\n")
        instructions = tmp_path / "instr.jsonl"
        write_jsonl(
            instructions,
            [
                {"id": "q1", "text": "walk on", "directions": ["left", "right"]},
                {"id": "q2", "text": "walk on", "directions": ["left", "left"]},
                {"id": "q3", "text": "walk on", "directions": ["around", "right", "left"]},
                {"id": "q4", "text": "turn left", "directions": ["left", "right"]},
                {"id": "q5", "text": "turn left then turn right", "directions": ["right"]},
            ],
        )
        code, out, err = run_cli(
            capsys, "correlate", table, "--min-directions", "2", "--instructions", str(instructions)
        )
        assert code == 0
        (entry,) = json.loads(out)
        assert entry["n"] == 4
        assert abs(entry["pearson"] - 0.8) < 1e-12
        assert "removed 1" in err

    def test_min_directions_unknown_label(self, capsys, tmp_path):
        table = self.write_table(tmp_path, "id,m,human\nq1,1,1\nq2,2,2\n")
        instructions = tmp_path / "instr.jsonl"
        write_jsonl(
            instructions,
            [
                {"id": "q1", "text": "turn left"},
                {"id": "q2", "text": "go up", "directions": ["left", "right", "upward"]},
            ],
        )
        code, _, err = run_cli(
            capsys, "correlate", table, "--min-directions", "1", "--instructions", str(instructions)
        )
        assert code == 2
        assert f"{instructions}:2: direction labels not in taxonomy 'r2r': upward" in err

    def test_min_directions_unknown_table_id(self, capsys, tmp_path):
        table = self.write_table(tmp_path, "id,m,human\nq1,1,1\nq9,2,2\n")
        instructions = tmp_path / "instr.jsonl"
        write_jsonl(instructions, [{"id": "q1", "text": "turn left"}])
        code, _, err = run_cli(
            capsys, "correlate", table, "--min-directions", "1", "--instructions", str(instructions)
        )
        assert code == 1
        assert "q9" in err

    def test_instructions_requires_min_directions(self, capsys, tmp_path):
        table = self.write_table(tmp_path, "id,m,human\nq1,1,1\nq2,2,2\n")
        instructions = tmp_path / "instr.jsonl"
        write_jsonl(instructions, [{"id": "q1", "text": "turn left"}, {"id": "q2", "text": "go"}])
        code, out, err = run_cli(capsys, "correlate", table, "--instructions", str(instructions))
        assert code == 1
        assert out == ""
        assert "--instructions requires --min-directions" in err

    def test_duplicate_instruction_id(self, capsys, tmp_path):
        table = self.write_table(tmp_path, "id,m,human\nq1,1,1\nq2,2,2\nq3,3,3\n")
        instructions = tmp_path / "instr.jsonl"
        write_jsonl(
            instructions,
            [
                {"id": "q1", "text": "turn left"},
                {"id": "q2", "text": "go"},
                {"id": "q3", "text": "go"},
                {"id": "q1", "text": "turn left then right"},
            ],
        )
        code, out, err = run_cli(
            capsys, "correlate", table, "--min-directions", "2", "--instructions", str(instructions)
        )
        assert code == 2
        assert out == ""
        assert f"{instructions}: duplicate instruction id 'q1'" in err


class TestUnreadableInputs:
    @pytest.mark.parametrize(
        "case", ["score", "correlate-table", "correlate-instructions", "align", "kb-query", "taxonomy-dir"]
    )
    def test_exit_code_not_traceback(self, capsys, tmp_path, case):
        """Bytes that are not UTF-8 are a schema error naming the file; a directory is an input error."""
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe not utf-8\n")
        good = tmp_path / "good.jsonl"
        write_jsonl(good, [{"id": "q1", "text": "turn left"}])
        table = tmp_path / "table.csv"
        table.write_text("id,m,human\nq1,1,1\n", encoding="utf-8")
        argv, expected_code, named = {
            "score": (["score", str(bad), str(good)], 2, bad),
            "correlate-table": (["correlate", str(bad)], 2, bad),
            "correlate-instructions": (
                ["correlate", str(table), "--min-directions", "1", "--instructions", str(bad)], 2, bad
            ),
            "align": (["align", str(bad)], 2, bad),
            "kb-query": (["kb", "query", "--kb", str(bad), "--entity", "sofa"], 2, bad),
            "taxonomy-dir": (["directions", "--text", "turn left", "--taxonomy", str(tmp_path)], 1, tmp_path),
        }[case]
        code, out, err = run_cli(capsys, *argv)
        assert code == expected_code
        assert out == ""
        assert err.startswith("naveval: error: ") and str(named) in err


class TestKbQuery:
    def test_top_k_order(self, capsys, kb_fixture_path):
        code, out, _ = run_cli(
            capsys, "kb", "query", "--kb", str(kb_fixture_path), "--entity", "microwave"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        weights = [float(line.split("\t")[3]) for line in lines]
        assert weights == [6.2, 4.1, 3.3]

    def test_k_flag(self, capsys, kb_fixture_path):
        code, out, _ = run_cli(
            capsys, "kb", "query", "--kb", str(kb_fixture_path), "--entity", "microwave", "--k", "1"
        )
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_tie_break_order(self, capsys, kb_fixture_path):
        code, out, _ = run_cli(
            capsys, "kb", "query", "--kb", str(kb_fixture_path), "--entity", "sink"
        )
        assert code == 0
        tails = [line.split("\t")[2] for line in out.splitlines()]
        assert tails == sorted(tails)

    def test_unknown_entity_empty_success(self, capsys, kb_fixture_path):
        code, out, _ = run_cli(
            capsys, "kb", "query", "--kb", str(kb_fixture_path), "--entity", "submarine"
        )
        assert code == 0
        assert out == ""

    def test_malformed_kb(self, capsys, tmp_path):
        bad = tmp_path / "kb.tsv"
        bad.write_text("only\ttwo\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "kb", "query", "--kb", str(bad), "--entity", "only")
        assert code == 2
        assert "line 1" in err

    def test_missing_kb_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "kb", "query", "--kb", str(tmp_path / "nope.tsv"), "--entity", "sofa"
        )
        assert code == 1

    def test_invalid_k(self, capsys, kb_fixture_path):
        code, _, err = run_cli(
            capsys, "kb", "query", "--kb", str(kb_fixture_path), "--entity", "sink", "--k", "0"
        )
        assert code == 1


NUMPY_FREE_SCRIPT = """
import json, pathlib, sys
import naveval
from naveval.cli import main

assert "numpy" not in sys.modules, "import naveval"
tmp = pathlib.Path(sys.argv[1])
mini = naveval.text.data_dir() / "mini_corpus"
(tmp / "table.csv").write_text("id,spice_d,human\\nq01,0.5,3\\nq02,0.9,4\\nq03,0.1,1\\n")
(tmp / "texts.jsonl").write_text(
    "".join(json.dumps({"id": i, "text": "turn left and go right"}) + "\\n" for i in ("q01", "q02", "q03"))
)
runs = {
    "score": ["score", str(mini / "candidates.jsonl"), str(mini / "references.jsonl")],
    "directions": ["directions", "--text", "turn left"],
    "chunk": ["chunk", "--text", "turn left and stop"],
    "kb query": ["kb", "query", "--kb", sys.argv[2], "--entity", "sink"],
    "correlate": ["correlate", str(tmp / "table.csv"), "--min-directions", "1",
                  "--instructions", str(tmp / "texts.jsonl")],
}
for name, argv in runs.items():
    assert main(argv + ["--quiet", "--out", str(tmp / "out")]) == 0, name
    assert "numpy" not in sys.modules, name

assert callable(naveval.dtw_align)
from naveval import TargetMatrix
assert TargetMatrix.__module__ == "naveval.align"
assert "numpy" in sys.modules
print("ok")
"""


def test_numpy_loaded_only_for_align(tmp_path, kb_fixture_path):
    import naveval

    env = dict(os.environ, PYTHONPATH=str(Path(naveval.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_SCRIPT, str(tmp_path), str(kb_fixture_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


class TestParser:
    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["score"])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_each_subcommand_has_only_its_own_flags(self):
        def flags(parser):
            return {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}

        subcommands = next(a for a in build_parser()._actions if a.dest == "command").choices
        kb_query = next(a for a in subcommands["kb"]._actions if a.dest == "kb_command").choices["query"]
        output = {"--out", "--quiet"}
        assert flags(subcommands["score"]) == output | {"--taxonomy", "--synonyms", "--aggregation"}
        assert flags(subcommands["align"]) == output | {"--ce", "--lambda1", "--lambda2", "--eps"}
        assert flags(subcommands["directions"]) == output | {"--taxonomy", "--text"}
        assert flags(subcommands["chunk"]) == output | {"--text"}
        assert flags(subcommands["correlate"]) == output | {"--taxonomy", "--min-directions", "--instructions"}
        assert flags(kb_query) == output | {"--kb", "--entity", "--k"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["kb", "query", "--kb", "f.tsv", "--entity", "sofa", "--lambda1", "3"],
            ["score", "c.jsonl", "r.jsonl", "--eps", "5"],
            ["chunk", "--text", "turn left", "--taxonomy", "urban"],
            ["align", "f.json", "--aggregation", "mean"],
        ],
        ids=["kb-lambda1", "score-eps", "chunk-taxonomy", "align-aggregation"],
    )
    def test_foreign_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
