import errno
import io
import json
import math
import os
import re
import shlex
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
from naveval.cli import _build_parser, main
from naveval.stats import pearson

HALF_SQRT2 = 0.7071067811865476

FEATURES = {
    "sub_instructions": [[1.0, 0.0], [0.0, 1.0]],
    "panoramas": [[1.0, 0.0], [HALF_SQRT2, HALF_SQRT2], [0.0, 1.0]],
    "words": [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
    "word_to_sub": [0, 0, 1],
}


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def _naveval_env(**changes):
    """The environment of a naveval child process: this checkout first on the caller's path.

    The caller's PYTHONPATH is kept after it, so that a hook placed on it (a
    sitecustomize, say) reaches every child. A change of None unsets the
    variable.
    """
    import naveval

    path = [str(Path(naveval.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def test_child_environment_puts_this_checkout_before_the_callers_path(monkeypatch):
    import naveval

    src = str(Path(naveval.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(["hooks", "more"]))
    assert _naveval_env()["PYTHONPATH"].split(os.pathsep) == [src, "hooks", "more"]
    monkeypatch.delenv("PYTHONPATH")
    assert _naveval_env()["PYTHONPATH"] == src


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScore:
    def test_labels_parsed_from_text_are_not_checked_at_load(self, capsys, monkeypatch, mini_corpus_dir):
        import naveval.metric

        checked = []
        check_labels = naveval.metric.check_labels

        def counting(labels, taxonomy):
            checked.append(tuple(labels))
            return check_labels(labels, taxonomy)

        # The CLI binds check_labels from naveval.metric when it loads a file.
        monkeypatch.setattr(naveval.metric, "check_labels", counting)
        files = [mini_corpus_dir / "candidates.jsonl", mini_corpus_dir / "references.jsonl"]
        code, _, _ = run_cli(capsys, "score", *map(str, files), "--quiet")
        assert code == 0
        records = [json.loads(line) for f in files for line in f.read_text(encoding="utf-8").splitlines()]
        explicit = [tuple(r["directions"]) for r in records if "directions" in r]
        # Explicit labels once each, at load; scoring checks none again.
        assert explicit and checked == explicit

    @pytest.mark.parametrize(
        "cand_text, ref_text, counts",
        [
            ("turn left at the sofa", "turn left, then turn right at the sofa", (1, 2)),
            ("turn left, then turn right at the sofa", "turn left at the sofa", (2, 1)),
        ],
        ids=["1-2", "2-1"],
    )
    def test_direction_counts_keep_their_sides(self, capsys, tmp_path, cand_text, ref_text, counts):
        """Both goldens have equal counts on the two sides, so they cannot pin which is which."""
        cands, refs, report = tmp_path / "c.jsonl", tmp_path / "r.jsonl", tmp_path / "report.json"
        write_jsonl(cands, [{"id": "q1", "text": cand_text}])
        write_jsonl(refs, [{"id": "q1", "text": ref_text}])
        code, _, _ = run_cli(capsys, "score", str(cands), str(refs), "--quiet", "--out", str(report))
        assert code == 0
        record = json.loads(report.read_text(encoding="utf-8"))["records"][0]
        assert (record["counts"]["cand_dirs"], record["counts"]["ref_dirs"]) == counts
        assert record["counts"]["dir_matches"] == 1

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

    @pytest.mark.parametrize(
        "entry, shown",
        [(5, "5"), (None, "null"), (True, "true"), ({"a": 1}, '{"a": 1}'), ("door", "a bare string")],
        ids=["number", "null", "boolean", "object", "string"],
    )
    def test_tuple_entry_that_is_not_a_list(self, capsys, tmp_path, entry, shown):
        """The entry is named as the file spells it."""
        cands = tmp_path / "c.jsonl"
        write_jsonl(cands, [{"id": "a", "text": "turn left", "tuples": [["door"], entry]}])
        refs = tmp_path / "r.jsonl"
        write_jsonl(refs, [{"id": "a", "text": "turn left", "tuples": [["door"]]}])
        code, out, err = run_cli(capsys, "score", str(cands), str(refs))
        assert code == 2
        assert out == ""
        assert f"{cands}:1: each semantic tuple must be a sequence of strings, not {shown}" in err

    @pytest.mark.parametrize(
        "element, shown",
        [(None, "null"), (" ", '" "'), (5, "5"), (True, "true")],
        ids=["null", "blank", "number", "boolean"],
    )
    def test_tuple_element_spelled_as_in_file(self, capsys, tmp_path, element, shown):
        cands = tmp_path / "c.jsonl"
        write_jsonl(cands, [{"id": "a", "text": "turn left", "tuples": [["door", element]]}])
        refs = tmp_path / "r.jsonl"
        write_jsonl(refs, [{"id": "a", "text": "turn left", "tuples": [["door"]]}])
        code, out, err = run_cli(capsys, "score", str(cands), str(refs))
        assert (code, out) == (2, "")
        assert err == f"naveval: error: {cands}:1: semantic tuple elements must be nonempty strings, got {shown}\n"

    @pytest.mark.parametrize(
        "record, message",
        [
            ([1], "record must be a JSON object"),
            ({"id": 5, "text": "turn left"}, "'id' must be a nonempty string"),
            ({"id": "", "text": "turn left"}, "'id' must be a nonempty string"),
            ({"id": "b", "text": "turn left", "tuples": "door"}, "'tuples' must be a list of string lists"),
            ({"id": "b", "text": "turn left", "directions": "left"}, "'directions' must be a list of nonempty strings"),
            ({"id": "b", "text": "turn left", "directions": ["left", ""]}, "'directions' must be a list of nonempty strings"),
        ],
        ids=["not-object", "id-number", "id-empty", "tuples-string", "directions-string", "directions-empty-label"],
    )
    def test_record_schema_error(self, capsys, tmp_path, record, message):
        cands = tmp_path / "c.jsonl"
        write_jsonl(cands, [{"id": "a", "text": "turn left"}, record])
        refs = tmp_path / "r.jsonl"
        write_jsonl(refs, [{"id": "a", "text": "turn left"}, {"id": "b", "text": "turn left"}])
        code, out, err = run_cli(capsys, "score", str(cands), str(refs))
        assert (code, out) == (2, "")
        assert err == f"naveval: error: {cands}:2: {message}\n"

    def test_empty_candidates_file(self, capsys, tmp_path):
        cands = tmp_path / "c.jsonl"
        cands.write_text("\n  \n", encoding="utf-8")
        refs = tmp_path / "r.jsonl"
        write_jsonl(refs, [{"id": "a", "text": "turn left"}])
        code, out, err = run_cli(capsys, "score", str(cands), str(refs))
        assert (code, out) == (1, "")
        assert err == f"naveval: error: {cands}: no candidate records\n"

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

    @pytest.mark.parametrize("synonyms", ["missing", "malformed"])
    @pytest.mark.parametrize("corpus", ["candidate schema", "reference schema", "missing id", "good"])
    def test_bad_synonyms_reported_after_every_corpus_error(self, capsys, tmp_path, synonyms, corpus):
        cands, refs, syn = tmp_path / "c.jsonl", tmp_path / "r.jsonl", tmp_path / "syn.json"
        write_jsonl(cands, [{"id": "a", "text": "turn left", "tuples": [["door"]]}])
        write_jsonl(refs, [{"id": "a", "text": "turn left", "tuples": [["door"]]}])
        if synonyms == "malformed":
            syn.write_text('{"sofa": "couch"}', encoding="utf-8")
        if corpus == "candidate schema":
            cands.write_text(cands.read_text(encoding="utf-8") + "{broken\n", encoding="utf-8")
            code, message = 2, f"{cands}:2: invalid JSON"
        elif corpus == "reference schema":
            refs.write_text(refs.read_text(encoding="utf-8") + '{"id": "a"}\n', encoding="utf-8")
            code, message = 2, f"{refs}:2: 'text' must be a nonempty string"
        elif corpus == "missing id":
            write_jsonl(refs, [{"id": "b", "text": "turn left"}])
            code, message = 1, "candidate ids missing from references: a"
        elif synonyms == "missing":
            code, message = 1, f"No such file or directory: '{syn}'"
        else:
            code, message = 2, f"{syn}: synonym file must hold a JSON list of lists of strings"
        out = tmp_path / "report.json"
        got, _, err = run_cli(capsys, "score", str(cands), str(refs), "--synonyms", str(syn), "--out", str(out))
        assert (got, err.count("naveval: error:")) == (code, 1)
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("quiet", [False, True], ids=["noted", "quiet"])
    def test_reference_ids_without_candidate_are_counted(self, capsys, tmp_path, quiet):
        cands, refs, only_a = tmp_path / "c.jsonl", tmp_path / "r.jsonl", tmp_path / "a.jsonl"
        write_jsonl(cands, [{"id": "a", "text": "turn left"}])
        ref_a = {"id": "a", "text": "turn left, then right"}
        write_jsonl(refs, [{"id": "zzz", "text": "turn left"}, ref_a, {"id": "zzz", "text": "go on"}])
        write_jsonl(only_a, [ref_a])
        flags = ["--quiet"] if quiet else []
        code, out, err = run_cli(capsys, "score", str(cands), str(refs), *flags)
        assert code == 0
        assert out == run_cli(capsys, "score", str(cands), str(only_a), "--quiet")[1]
        if quiet:
            assert err == ""
        else:
            assert err.splitlines()[0] == "ignored 2 reference records whose id no candidate has"
            assert err.count("ignored") == 1 and "scored 1 records" in err

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

    def test_record_layout_keys_are_the_score_report_fields(self):
        """The writer fills the layout with a report's fields in _fields order, so its keys name them in that order.

        The count keys drop the n_ of their fields, being inside "counts".
        """
        from naveval.cli import _RECORD_LAYOUT
        from naveval.metric import ScoreReport

        counts = re.search(r'"counts": \{(.*?)\}', _RECORD_LAYOUT, re.S)[1]
        count_keys = re.findall(r'"(\w+)": %', counts)
        keys = [f"n_{key}" if key in count_keys else key for key in re.findall(r'"(\w+)": %', _RECORD_LAYOUT)]
        assert keys[:2] == ["id", "n_references"]
        assert keys[2:] == list(ScoreReport._fields)


class TestAlign:
    def write_features(self, tmp_path, doc):
        path = tmp_path / "features.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_worked_alignment_and_losses(self, capsys, tmp_path):
        path = self.write_features(tmp_path, FEATURES)
        code, out, _ = run_cli(capsys, "align", path, "--ce", "0.25")
        assert code == 0
        doc = json.loads(out)
        assert doc["A"] == [[1, 1, 0], [0, 0, 1]]
        assert doc["A_prime"] == [[1, 1, 0], [1, 1, 0], [0, 0, 1]]

        a = dtw_align(build_cost(FEATURES["sub_instructions"], FEATURES["panoramas"]))
        target = target_from_word_map(a, FEATURES["word_to_sub"])
        beta = softmax_attention(FEATURES["words"], FEATURES["panoramas"])
        l_att = attention_coverage_loss(beta, target)
        l_nce = contrastive_loss(FEATURES["panoramas"], FEATURES["words"], target)
        assert doc["l_att"] == l_att
        assert doc["l_nce"] == l_nce
        assert doc["total_loss"] == 0.25 + l_att + l_nce

    def test_zero_loss_prints_unsigned(self, capsys, tmp_path):
        doc = {"sub_instructions": [[1, 0]], "panoramas": [[1, 0]], "words": [[1, 0]], "word_to_sub": [0]}
        code, out, _ = run_cli(capsys, "align", self.write_features(tmp_path, doc))
        assert code == 0
        assert '"l_nce": 0.0,' in out
        assert "-0.0" not in out

    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
    def test_eps_must_be_positive_and_finite(self, capsys, tmp_path, eps):
        """The message names eps, not the l_att it would have spoiled."""
        path = self.write_features(tmp_path, FEATURES)
        code, out, err = run_cli(capsys, "align", path, "--eps", eps)
        assert code == 1
        assert out == ""
        assert err.startswith("naveval: error: eps must be positive and finite")
        assert "l_att" not in err

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus-inf", "minus-inf"])
    def test_overflowing_products_name_the_file(self, capsys, tmp_path, sign):
        """Features that are finite but whose word-panorama products overflow: exit 1, naming the file."""
        doc = dict(
            FEATURES,
            panoramas=[[x * 1e150 for x in row] for row in FEATURES["panoramas"]],
            words=[[x * sign * 1e200 for x in row] for row in FEATURES["words"]],
        )
        path = self.write_features(tmp_path, doc)
        code, out, err = run_cli(capsys, "align", path)
        assert (code, out) == (1, "")
        assert err == f"naveval: error: {path}: word-panorama products must be finite\n"

    def test_loss_weights_scale_total(self, capsys, tmp_path):
        path = self.write_features(tmp_path, FEATURES)
        code, out, _ = run_cli(
            capsys, "align", path, "--lambda1", "0.5", "--lambda2", "0"
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["total_loss"] - 0.5 * doc["l_att"]) < 1e-12

    def test_each_matrix_checked_for_0_1_once(self, capsys, tmp_path, monkeypatch):
        """One 0/1 check for the alignment matrix; the target takes its checked rows unchecked."""
        import naveval.align

        calls = []
        as_binary = naveval.align._as_binary

        def counting(value, name):
            calls.append(name)
            return as_binary(value, name)

        monkeypatch.setattr(naveval.align, "_as_binary", counting)
        path = self.write_features(tmp_path, FEATURES)
        code, _, _ = run_cli(capsys, "align", path)
        assert code == 0
        assert calls == ["alignment matrix"]

    def test_features_checked_and_multiplied_once(self, capsys, monkeypatch, test_data_dir):
        """build_cost and the one log-softmax each check a pair of feature matrices; the losses share it."""
        import naveval.align

        calls = []
        matching_widths = naveval.align._matching_widths

        def counting(a, a_name, b, b_name):
            calls.append((a_name, b_name))
            return matching_widths(a, a_name, b, b_name)

        monkeypatch.setattr(naveval.align, "_matching_widths", counting)
        code, _, _ = run_cli(capsys, "align", str(test_data_dir / "align_features.json"))
        assert code == 0
        assert calls == [("sub_instructions", "panoramas"), ("words", "panoramas")]

    def test_single_sub_instruction(self, capsys, tmp_path):
        doc = {
            "sub_instructions": [[1.0, 0.0]],
            "panoramas": [[1.0, 0.0], [0.0, 1.0]],
            "words": [[1.0, 0.0]],
            "word_to_sub": [0],
        }
        path = self.write_features(tmp_path, doc)
        code, out, _ = run_cli(capsys, "align", path)
        assert code == 0
        assert json.loads(out)["A"] == [[1, 1]]

    def test_dimension_mismatch(self, capsys, tmp_path):
        doc = dict(FEATURES, sub_instructions=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        path = self.write_features(tmp_path, doc)
        code, _, err = run_cli(capsys, "align", path)
        assert code == 1
        assert "dimension" in err

    def test_non_finite_panorama_names_the_file(self, capsys, tmp_path):
        panoramas = [[1.0, 0.0], [math.nan, HALF_SQRT2], [0.0, 1.0]]
        path = self.write_features(tmp_path, dict(FEATURES, panoramas=panoramas))
        code, out, err = run_cli(capsys, "align", path)
        assert (code, out) == (1, "")
        assert err == f"naveval: error: {path}: panoramas must contain only finite values\n"

    def test_words_width_mismatch_names_the_file(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        doc = {
            "sub_instructions": rng.standard_normal((2, 512)).tolist(),
            "panoramas": rng.standard_normal((3, 512)).tolist(),
            "words": rng.standard_normal((3, 511)).tolist(),
            "word_to_sub": [0, 0, 1],
        }
        path = self.write_features(tmp_path, doc)
        code, out, err = run_cli(capsys, "align", path)
        assert (code, out) == (1, "")
        assert err == f"naveval: error: {path}: dimension mismatch: words have 511, panoramas have 512\n"

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

    def test_feature_document_not_an_object(self, capsys, tmp_path):
        path = self.write_features(tmp_path, [FEATURES])
        code, out, err = run_cli(capsys, "align", path)
        assert (code, out) == (2, "")
        assert err == f"naveval: error: {path}: feature document must be a JSON object\n"

    def test_word_map_not_a_list(self, capsys, tmp_path):
        path = self.write_features(tmp_path, dict(FEATURES, word_to_sub={"0": 0}))
        code, out, err = run_cli(capsys, "align", path)
        assert (code, out) == (2, "")
        assert err == f"naveval: error: {path}: 'word_to_sub' must be a list of integers\n"

    def test_word_map_length_mismatch(self, capsys, tmp_path):
        doc = dict(FEATURES, word_to_sub=[0, 1])
        path = self.write_features(tmp_path, doc)
        code, _, err = run_cli(capsys, "align", path)
        assert code == 2

    def test_word_map_index_out_of_range(self, capsys, tmp_path):
        path = self.write_features(tmp_path, dict(FEATURES, word_to_sub=[0, 0, 2]))
        code, out, err = run_cli(capsys, "align", path)
        assert (code, out) == (2, "")
        assert err == f"naveval: error: {path}: word_to_sub[2] = 2 out of range for 2 sub-instructions\n"

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "features.json"
        path.write_text("{not json", encoding="utf-8")
        code, out, err = run_cli(capsys, "align", str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"naveval: error: {path}: invalid JSON: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"
        )


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

    def test_chunk_opens_a_clause_after_every_clause_mark(self, capsys):
        """;, :, ! and ? end a clause as , and . do; a quotation mark does not."""
        code, out, _ = run_cli(capsys, "chunk", "--text", "turn left; walk to the door! stop: wait here")
        assert code == 0
        assert out.splitlines() == ["turn left", "walk to the door", "stop", "wait here"]
        code, out, _ = run_cli(capsys, "chunk", "--text", 'turn left? walk to the door "stop" wait here')
        assert code == 0
        assert out.splitlines() == ["turn left", "walk to the door stop wait here"]

    def test_chunk_empty_text(self, capsys):
        code, _, err = run_cli(capsys, "chunk", "--text", "   ")
        assert code == 1

    def test_chunk_unreadable_verb_lexicon_is_input_error(self, tmp_path):
        lexicon = tmp_path / "verbs.txt"
        lexicon.mkdir()
        env = _naveval_env(NAVEVAL_DATA_DIR=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-m", "naveval", "chunk", "--text", "walk and stop"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"naveval: error: verb lexicon {str(lexicon)!r} cannot be read: ")
        assert proc.stderr.count(str(lexicon)) == 1
        assert proc.stdout == ""

    def test_chunk_verb_lexicon_not_utf8_is_schema_error(self, tmp_path):
        lexicon = tmp_path / "verbs.txt"
        lexicon.write_bytes(b"turn\n\xffgo\n")
        env = _naveval_env(NAVEVAL_DATA_DIR=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-m", "naveval", "chunk", "--text", "turn left and go"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"naveval: error: {lexicon}: not valid UTF-8 (byte 5)\n"
        assert proc.stdout == ""


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

    @pytest.mark.parametrize(
        "cells, expected",
        [(["1e160", "2e160", "4e160"], 0.9819805060619657), (["1.7e308", "1e308", "1.5e308"], -0.27735009811261446)],
    )
    def test_metric_values_outside_the_float_range(self, capsys, tmp_path, cells, expected):
        """Scores whose sums or squares overflow correlate as their scaled copies do."""
        rows = "".join(f"q{i},{cell},{i}\n" for i, cell in enumerate(cells, 1))
        path = self.write_table(tmp_path, "id,m,human\n" + rows)
        code, out, err = run_cli(capsys, "correlate", path)
        assert (code, err) == (0, "")
        (entry,) = json.loads(out)
        assert abs(entry["pearson"] - expected) < 1e-15

    @pytest.mark.parametrize("human", ["0.7", "5"])
    def test_constant_human_column_is_exit_1_naming_it(self, capsys, tmp_path, human):
        """0.7, 0.7, 0.7 printed "pearson": 0.0, and 5, 5, 5 blamed column 'm'."""
        path = self.write_table(tmp_path, "id,m,human\n" + "".join(f"q{i},{i},{human}\n" for i in range(3)))
        assert run_cli(capsys, "correlate", path) == (
            1, "", "naveval: error: human column: correlation is undefined for a constant series\n"
        )

    def test_exactly_linear_columns_read_one(self, capsys, tmp_path):
        """This table printed 1.0000000000000002."""
        path = self.write_table(tmp_path, "id,m,human\nq1,1,0.7\nq2,2,1.4\nq3,3,2.1\nq4,4,2.8\n")
        code, out, err = run_cli(capsys, "correlate", path)
        assert (code, err) == (0, "")
        assert json.loads(out) == [{"metric": "m", "pearson": 1.0, "n": 4}]

    def test_single_complete_row_fails(self, capsys, tmp_path):
        path = self.write_table(tmp_path, "id,m,human\nq1,1,1\nq2,,3\n")
        code, _, err = run_cli(capsys, "correlate", path)
        assert code == 1

    def test_non_numeric_cell(self, capsys, tmp_path):
        path = self.write_table(tmp_path, "id,m,human\nq1,good,1\n")
        code, _, err = run_cli(capsys, "correlate", path)
        assert code == 2
        assert ":2:" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    @pytest.mark.parametrize("column", ["metric", "human"])
    def test_non_finite_cell(self, capsys, tmp_path, cell, column):
        rows = ["q1,1,1", "q2,2,3", "q3,3,2", f"q4,{cell},4" if column == "metric" else f"q4,4,{cell}"]
        path = self.write_table(tmp_path, "id,m,human\n" + "\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "correlate", path)
        assert code == 2
        assert out == ""
        assert f"{path}:5: non-finite value {cell!r}" in err

    def test_short_row(self, capsys, tmp_path):
        path = self.write_table(tmp_path, "id,m,human\nq1,1,1\nq2,2\n")
        code, out, err = run_cli(capsys, "correlate", path)
        assert (code, out) == (2, "")
        assert err == f"naveval: error: {path}:3: expected 3 columns, got 2\n"

    def test_blank_row_skipped(self, capsys, tmp_path):
        path = self.write_table(tmp_path, "id,m,human\nq1,1,1\n\nq2,2,3\nq3,3,2\nq4,4,4\n")
        code, out, err = run_cli(capsys, "correlate", path)
        assert (code, err) == (0, "")
        assert json.loads(out) == [{"metric": "m", "pearson": pytest.approx(0.8, abs=1e-12), "n": 4}]

    def test_bad_header(self, capsys, tmp_path):
        path = self.write_table(tmp_path, "name,m,human\nq1,1,1\n")
        code, _, err = run_cli(capsys, "correlate", path)
        assert code == 2

    def test_empty_table(self, capsys, tmp_path):
        path = self.write_table(tmp_path, "")
        code, out, err = run_cli(capsys, "correlate", path)
        assert (code, out) == (2, "")
        assert err == f"naveval: error: {path}: empty table\n"

    def test_negative_min_directions(self, capsys, tmp_path):
        path = self.write_table(tmp_path, "id,m,human\nq1,1,1\nq2,2,2\n")
        instructions = tmp_path / "instr.jsonl"
        write_jsonl(instructions, [{"id": "q1", "text": "turn left"}, {"id": "q2", "text": "turn right"}])
        code, out, err = run_cli(
            capsys, "correlate", path, "--min-directions", "-1", "--instructions", str(instructions)
        )
        assert (code, out) == (1, "")
        assert err == "naveval: error: --min-directions must be nonnegative\n"

    def test_zero_min_directions_keeps_every_row(self, capsys, tmp_path):
        path = self.write_table(tmp_path, "id,m,human\nq1,1,1\nq2,2,3\nq3,3,2\n")
        instructions = tmp_path / "instr.jsonl"
        texts = ["walk ahead", "turn left", "turn left then turn right"]
        write_jsonl(instructions, [{"id": f"q{i}", "text": text} for i, text in enumerate(texts, 1)])
        code, out, err = run_cli(
            capsys, "correlate", path, "--min-directions", "0", "--instructions", str(instructions)
        )
        assert (code, err) == (0, "direction filter kept 3 rows, removed 0\n")
        (entry,) = json.loads(out)
        assert entry["n"] == 3

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

    def test_missing_table_id_named_once_in_first_order(self, tmp_path):
        """An id on two rows reads the same instruction, so it is missing once."""
        table = self.write_table(tmp_path, "id,m,human\nq9,1,1\nq1,2,2\nq7,3,3\nq9,4,4\n")
        instructions = tmp_path / "instr.jsonl"
        write_jsonl(instructions, [{"id": "q1", "text": "turn left"}])
        proc = subprocess.run(
            [sys.executable, "-m", "naveval", "correlate", table, "--min-directions", "1", "--instructions", str(instructions)],
            capture_output=True,
            text=True,
            env=_naveval_env(),
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == "naveval: error: table ids missing from the instructions file: q9, q7\n"
        assert proc.stdout == ""

    def test_instructions_requires_min_directions(self, capsys, tmp_path):
        table = self.write_table(tmp_path, "id,m,human\nq1,1,1\nq2,2,2\n")
        instructions = tmp_path / "instr.jsonl"
        write_jsonl(instructions, [{"id": "q1", "text": "turn left"}, {"id": "q2", "text": "go"}])
        code, out, err = run_cli(capsys, "correlate", table, "--instructions", str(instructions))
        assert code == 1
        assert out == ""
        assert "--instructions requires --min-directions" in err

    def test_taxonomy_requires_min_directions(self, capsys, tmp_path):
        table = self.write_table(tmp_path, "id,m,human\nq1,1,1\nq2,2,2\n")
        code, out, err = run_cli(capsys, "correlate", table, "--taxonomy", str(tmp_path / "missing.json"))
        assert (code, out) == (1, "")
        assert err == "naveval: error: --taxonomy requires --min-directions with the minimum label count\n"

    @pytest.mark.parametrize(
        "taxonomy, code, err",
        [
            ([], 1, "direction filter kept 0 rows, removed 4\nnaveval: error: need at least two complete rows, got 0\n"),
            (["--taxonomy", "urban"], 0, "direction filter kept 3 rows, removed 1\n"),
        ],
        ids=["r2r-by-default", "urban"],
    )
    def test_min_directions_counts_labels_of_the_given_taxonomy(self, capsys, tmp_path, taxonomy, code, err):
        table = self.write_table(tmp_path, "id,m,human\nq1,1,1\nq2,2,3\nq3,3,2\nq4,4,4\n")
        instructions = tmp_path / "instr.jsonl"
        texts = ["head toward two o'clock"] * 3 + ["walk on"]
        write_jsonl(instructions, [{"id": f"q{i}", "text": t} for i, t in enumerate(texts, 1)])
        argv = ["correlate", table, "--min-directions", "1", "--instructions", str(instructions), *taxonomy]
        assert run_cli(capsys, *argv)[::2] == (code, err)

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

    def test_repeated_metric_name_is_schema_error(self, capsys, tmp_path):
        """Two columns of one name would correlate as one; the header names the file and the name."""
        path = self.write_table(tmp_path, "id,m,m,human\nq1,1,3,1\nq2,2,2,3\nq3,3,1,2\n")
        code, out, err = run_cli(capsys, "correlate", path)
        assert (code, out) == (2, "")
        assert err == f"naveval: error: {path}: repeated metric name 'm' in the header\n"

    @pytest.mark.parametrize("header", ["id,id,human", "id,human,human"])
    def test_metric_may_share_a_name_with_the_id_or_human_column(self, capsys, tmp_path, header):
        path = self.write_table(tmp_path, header + "\nq1,1,1\nq2,2,3\nq3,3,2\nq4,4,4\n")
        code, out, err = run_cli(capsys, "correlate", path)
        assert (code, err) == (0, "")
        assert json.loads(out) == [{"metric": header.split(",")[1], "pearson": pytest.approx(0.8, abs=1e-12), "n": 4}]

    @pytest.mark.parametrize(
        "a_text, d_text, note, n, r",
        [
            ("turn left", "walk on", "direction filter kept 4 rows, removed 1\n", 4, 0.8),
            ("walk on", "turn left", "direction filter kept 3 rows, removed 2\n", 3, pearson([2, 4, 9], [3, 4, 0])),
        ],
        ids=["both-kept", "both-removed"],
    )
    def test_repeated_row_id_rows_are_independent_judgments(self, capsys, tmp_path, a_text, d_text, note, n, r):
        """Both rows of id a count in n, and the direction filter keeps or removes them together."""
        table = self.write_table(tmp_path, "id,m,human\na,1,1\nb,2,3\na,3,2\nc,4,4\nd,9,0\n")
        code, out, err = run_cli(capsys, "correlate", table, "--quiet")
        assert code == 0
        assert [e["n"] for e in json.loads(out)] == [5]
        instructions = tmp_path / "instr.jsonl"
        texts = {"a": a_text, "b": "turn right", "c": "go left", "d": d_text}
        write_jsonl(instructions, [{"id": rid, "text": text} for rid, text in texts.items()])
        code, out, err = run_cli(
            capsys, "correlate", table, "--min-directions", "1", "--instructions", str(instructions)
        )
        assert (code, err) == (0, note)
        assert json.loads(out) == [{"metric": "m", "pearson": pytest.approx(r, abs=1e-12), "n": n}]

    def test_direction_filter_runs_before_rows_with_missing_values_drop(self, capsys, tmp_path):
        """The filter removes a row with an empty cell; a kept one with an empty cell is then dropped."""
        table = self.write_table(
            tmp_path,
            "id,weak,strong,human\nq1,4,1,1\nq2,,2,5\nq3,2,,2\nq4,2,3,3\nq5,1,4,4\nq6,9,5,0\n",
        )
        instructions = tmp_path / "instr.jsonl"
        texts = ["turn left", "walk on", "turn right", "go left", "turn left then right", "walk straight ahead"]
        write_jsonl(instructions, [{"id": f"q{i}", "text": t} for i, t in enumerate(texts, 1)])
        code, out, err = run_cli(
            capsys, "correlate", table, "--min-directions", "1", "--instructions", str(instructions)
        )
        assert code == 0
        assert err == "direction filter kept 4 rows, removed 2\ndropped 1 rows with missing values\n"
        human = [1, 3, 4]
        assert json.loads(out) == [
            {"metric": "strong", "pearson": pearson([1, 3, 4], human), "n": 3},
            {"metric": "weak", "pearson": pearson([4, 2, 1], human), "n": 3},
        ]


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
        if case == "kb-query":
            assert err == f"naveval: error: {bad}: not valid UTF-8 (byte 0)\n"

    @pytest.mark.parametrize("case", ["taxonomy-path", "taxonomy-name", "synonyms"])
    def test_option_file_not_utf8_is_schema_error(self, capsys, monkeypatch, tmp_path, mini_corpus_dir, case):
        bad = tmp_path / "taxonomies" / "mine.json"
        bad.parent.mkdir()
        bad.write_bytes(b'{"left": ["turn \xff left"]}')
        option = {
            "taxonomy-path": ["--taxonomy", str(bad)],
            "taxonomy-name": ["--taxonomy", "mine"],
            "synonyms": ["--synonyms", str(bad)],
        }[case]
        if case == "taxonomy-name":
            monkeypatch.setenv("NAVEVAL_DATA_DIR", str(tmp_path))
        corpus = [str(mini_corpus_dir / "candidates.jsonl"), str(mini_corpus_dir / "references.jsonl")]
        code, out, err = run_cli(capsys, "score", *corpus, *option)
        assert code == 2
        assert out == ""
        assert err == f"naveval: error: {bad}: not valid UTF-8 (byte 16)\n"

    @pytest.mark.parametrize(
        "case",
        [
            "align-json", "align-schema", "score-line", "score-duplicate", "synonyms-utf8", "synonyms-groups",
            "taxonomy-utf8", "correlate-table", "correlate-instructions", "kb-utf8", "kb-schema",
        ],
    )
    def test_file_is_named_as_typed(self, capsys, monkeypatch, tmp_path, mini_corpus_dir, case):
        """Every error names an input file exactly as its argument spells it."""
        monkeypatch.chdir(tmp_path)
        files = {
            "g.json": b"{not json",
            "f.json": b'{"x": 1}',
            "r.jsonl": b'{"id": "a", "text": "turn left"}\n{broken\n',
            "c.jsonl": b'{"id": "a", "text": "turn left"}\n{"id": "a", "text": "go"}\n',
            "bad.json": b"\xff",
            "s.json": b'[["a", "b"], ["b", "c"]]',
            "t.csv": b"id,m,human\nq1,x,1\n",
            "ok.csv": b"id,m,human\nq1,1,1\n",
            "i.jsonl": b"{broken\n",
            "kb.tsv": b"lamp\tHasA\n",
        }
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        corpus = [str(mini_corpus_dir / "candidates.jsonl"), str(mini_corpus_dir / "references.jsonl")]
        argv, named = {
            "align-json": (["align", "./g.json"], "./g.json: invalid JSON: "),
            "align-schema": (["align", "./f.json"], "./f.json: missing required key "),
            "score-line": (["score", "./r.jsonl", "./r.jsonl"], "./r.jsonl:2: invalid JSON: "),
            "score-duplicate": (["score", "./c.jsonl", "./c.jsonl"], "./c.jsonl: duplicate candidate id "),
            "synonyms-utf8": (["score", *corpus, "--synonyms", "./bad.json"], "./bad.json: not valid UTF-8 "),
            "synonyms-groups": (["score", *corpus, "--synonyms", "./s.json"], "./s.json: word 'b' appears "),
            "taxonomy-utf8": (["directions", "--text", "go", "--taxonomy", "./bad.json"], "./bad.json: not valid "),
            "correlate-table": (["correlate", "./t.csv"], "./t.csv:2: non-numeric value "),
            "correlate-instructions": (
                ["correlate", "./ok.csv", "--min-directions", "1", "--instructions", "./i.jsonl"],
                "./i.jsonl:1: invalid JSON: ",
            ),
            "kb-utf8": (["kb", "query", "--kb", "./bad.json", "--entity", "lamp"], "./bad.json: not valid UTF-8 "),
            "kb-schema": (["kb", "query", "--kb", "./kb.tsv", "--entity", "lamp"], "./kb.tsv: line 1: expected 4 "),
        }[case]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"naveval: error: {named}")


# A record is one "\n"-terminated line: U+0085, U+2028 and U+2029 may sit raw
# inside a JSON string or a TSV field, and a \r\n file reads as its \n copy.
LINE_CASES = {"U+0085": ("\x85", "\n"), "U+2028": ("\u2028", "\n"), "U+2029": ("\u2029", "\n"), "CRLF": (" ", "\r\n")}


def write_lines(path, lines, eol="\n"):
    path.write_bytes("".join(line + eol for line in lines).encode("utf-8"))


def write_raw_jsonl(path, rows, eol="\n"):
    write_lines(path, [json.dumps(row, ensure_ascii=False) for row in rows], eol)


class TestRecordLines:
    @pytest.mark.parametrize("case", LINE_CASES)
    def test_score_keeps_the_record_whole(self, capsys, tmp_path, case):
        char, eol = LINE_CASES[case]
        rows = [
            {"id": "a", "text": f"turn left{char}at the sofa", "tuples": [["sofa"], [f"red{char}sofa"]]},
            {"id": "b", "text": f"walk ahead{char}then turn right", "tuples": [["door"]]},
        ]
        cands, refs = tmp_path / "c.jsonl", tmp_path / "r.jsonl"
        write_raw_jsonl(cands, rows, eol)
        write_raw_jsonl(refs, rows, eol)
        code, out, err = run_cli(capsys, "score", str(cands), str(refs), "--quiet")
        assert (code, err) == (0, "")
        records = json.loads(out)["records"]
        assert [(r["id"], r["spice"], r["spice_d"]) for r in records] == [("a", 1.0, 1.0), ("b", 1.0, 1.0)]
        assert [r["counts"]["cand_tuples"] for r in records] == [2, 1]

    @pytest.mark.parametrize("case", LINE_CASES)
    def test_correlate_instructions_keep_the_record_whole(self, capsys, tmp_path, case):
        char, eol = LINE_CASES[case]
        table = tmp_path / "t.csv"
        write_lines(table, ["id,m,human", "q1,1,1", "q2,2,3", "q3,3,2", "q4,4,4", "q5,9,0"], eol)
        instructions = tmp_path / "i.jsonl"
        texts = ["turn left", "go left", "turn right", "go right", "walk ahead"]
        rows = [{"id": f"q{i}", "text": f"{text}{char}then turn around"} for i, text in enumerate(texts, 1)]
        rows[4]["text"] = f"walk{char}ahead"
        write_raw_jsonl(instructions, rows, eol)
        code, out, err = run_cli(
            capsys, "correlate", str(table), "--min-directions", "2", "--instructions", str(instructions)
        )
        assert (code, err) == (0, "direction filter kept 4 rows, removed 1\n")
        (entry,) = json.loads(out)
        assert entry["n"] == 4
        assert abs(entry["pearson"] - 0.8) < 1e-12

    @pytest.mark.parametrize("case", LINE_CASES)
    def test_kb_query_keeps_the_fact_whole(self, capsys, tmp_path, case):
        char, eol = LINE_CASES[case]
        kb = tmp_path / "kb.tsv"
        write_lines(kb, ["# kitchen", f"lamp\tHasA\tshade{char}cord\t2.0", "lamp\tAtLocation\tdesk\t1.0"], eol)
        code, out, err = run_cli(capsys, "kb", "query", "--kb", str(kb), "--entity", "lamp")
        assert (code, err) == (0, "")
        assert out == f"lamp\tHasA\tshade{char}cord\t2.0\nlamp\tAtLocation\tdesk\t1.0\n"

    @pytest.mark.parametrize("case", LINE_CASES)
    def test_line_numbers_count_newlines_only(self, capsys, tmp_path, case):
        char, eol = LINE_CASES[case]
        cands = tmp_path / "c.jsonl"
        write_lines(cands, [json.dumps({"id": "a", "text": f"turn{char}left"}, ensure_ascii=False), "{broken"], eol)
        code, _, err = run_cli(capsys, "score", str(cands), str(cands))
        assert code == 2
        assert err.startswith(f"naveval: error: {cands}:2: invalid JSON: ")


class TestByteOrderMark:
    """A leading UTF-8 BOM, as spreadsheet programs write it, is dropped by the one reader."""

    @pytest.mark.parametrize("case", ["score", "correlate", "align", "kb", "taxonomy", "synonyms"])
    def test_bom_file_reads_as_its_copy_without_one(self, capsys, tmp_path, test_data_dir, mini_corpus_dir, case):
        from naveval.text import data_dir

        mini = [str(mini_corpus_dir / "candidates.jsonl"), str(mini_corpus_dir / "references.jsonl")]
        argv = {
            "score": ["score", *mini, "--quiet"],
            "correlate": [
                "correlate", str(test_data_dir / "correlate_table.csv"), "--min-directions", "1",
                "--instructions", str(test_data_dir / "correlate_instructions.jsonl"), "--quiet",
            ],
            "align": ["align", str(test_data_dir / "align_features.json"), "--ce", "0.25", "--eps", "0.5"],
            "kb": ["kb", "query", "--kb", str(test_data_dir / "kb_fixture.tsv"), "--entity", "microwave"],
            "taxonomy": ["score", *mini, "--quiet", "--taxonomy", str(data_dir() / "taxonomies" / "r2r.json")],
            "synonyms": [
                "score", *mini, "--quiet", "--aggregation", "mean",
                "--synonyms", str(data_dir() / "synonyms" / "example.json"),
            ],
        }[case]
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0
        # Every input file of the command gets a BOM.
        files = [i for i, arg in enumerate(argv) if Path(arg).is_file()]
        assert files
        for i in files:
            copy = tmp_path / f"{i}{Path(argv[i]).suffix}"
            copy.write_bytes(b"\xef\xbb\xbf" + Path(argv[i]).read_bytes())
            argv[i] = str(copy)
        assert run_cli(capsys, *argv) == (0, expected, "")

    def test_bad_byte_offset_counts_the_bom(self, capsys, tmp_path):
        bad = tmp_path / "c.jsonl"
        bad.write_bytes(b'\xef\xbb\xbf{"id":\xff"a"}\n')
        code, out, err = run_cli(capsys, "score", str(bad), str(bad))
        assert (code, out) == (2, "")
        # utf-8-sig would name byte 6, the offset after the BOM.
        assert err == f"naveval: error: {bad}: not valid UTF-8 (byte 9)\n"


# The most digits int() converts from a string, 0 where there is no limit.
INT_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_MAX_STR_DIGITS, reason="this Python converts integers of any length")
class TestIntegerDigitLimit:
    """An integer longer than int() converts is invalid JSON, exit 2, not a traceback."""

    BIG = "1" * (INT_MAX_STR_DIGITS + 1)

    def test_score(self, capsys, tmp_path):
        cands = tmp_path / "c.jsonl"
        rows = ['{"id": "a", "text": "turn left"}', '{"id": "b", "text": "go", "n": %s}' % self.BIG]
        cands.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        code, out, err = run_cli(capsys, "score", str(cands), str(cands))
        assert (code, out) == (2, "")
        assert err.startswith(f"naveval: error: {cands}:2: invalid JSON: ")

    def test_correlate_instructions(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("id,m,human\nq1,1,1\nq2,2,3\n", encoding="utf-8")
        instructions = tmp_path / "i.jsonl"
        instructions.write_text('{"id": "q1", "text": "turn left", "n": %s}\n' % self.BIG, encoding="utf-8")
        code, out, err = run_cli(
            capsys, "correlate", str(table), "--min-directions", "1", "--instructions", str(instructions)
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"naveval: error: {instructions}:1: invalid JSON: ")

    def test_align(self, capsys, tmp_path):
        features = tmp_path / "f.json"
        features.write_text(json.dumps(FEATURES)[:-1] + ', "n": %s}' % self.BIG, encoding="utf-8")
        code, out, err = run_cli(capsys, "align", str(features))
        assert (code, out) == (2, "")
        assert err.startswith(f"naveval: error: {features}: invalid JSON: ")


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

    def test_each_fact_checked_once(self, capsys, kb_fixture_path, monkeypatch):
        """load_kb checks each fact line; the facts printed are built from its checked rows."""
        import naveval.knowledge

        calls = []
        check_fact = naveval.knowledge._check_fact

        def counting(head, relation, tail, weight):
            calls.append(head)
            check_fact(head, relation, tail, weight)

        monkeypatch.setattr(naveval.knowledge, "_check_fact", counting)
        monkeypatch.setattr(naveval.knowledge.KnowledgeFact, "_check", staticmethod(counting), raising=False)
        lines = kb_fixture_path.read_text(encoding="utf-8").splitlines()
        n_facts = sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))
        code, out, _ = run_cli(capsys, "kb", "query", "--kb", str(kb_fixture_path), "--entity", "microwave")
        assert (code, len(out.splitlines())) == (0, 3)
        assert len(calls) == n_facts

    def test_invalid_k(self, capsys, kb_fixture_path):
        code, _, err = run_cli(
            capsys, "kb", "query", "--kb", str(kb_fixture_path), "--entity", "sink", "--k", "0"
        )
        assert code == 1


@pytest.mark.parametrize(
    "case, message",
    [
        ("chunk-blank-text", "cannot chunk an instruction with no tokens"),
        ("kb-k-0", "k must be >= 1, got 0"),
        ("correlate-constant-column", "column 'm': correlation is undefined for a constant series"),
        ("align-eps-0", "eps must be positive and finite, got 0.0"),
        ("align-zero-norm-row", "zero-norm vector at sub_instructions[1]"),
    ],
)
def test_failed_library_check_is_exit_1_with_its_message(capsys, tmp_path, kb_fixture_path, case, message):
    """main() turns the library's ValueError into one error line, with no traceback.

    Only a check of align's feature matrices names the file those come from.
    """
    features = tmp_path / "features.json"
    zero_norm_row = dict(FEATURES, sub_instructions=[[1.0, 0.0], [0.0, 0.0]])
    features.write_text(json.dumps(zero_norm_row if case == "align-zero-norm-row" else FEATURES), encoding="utf-8")
    table = tmp_path / "scores.csv"
    table.write_text("id,m,human\nq1,5,1\nq2,5,3\nq3,5,2\n", encoding="utf-8")
    argv = {
        "chunk-blank-text": ["chunk", "--text", "   "],
        "kb-k-0": ["kb", "query", "--kb", str(kb_fixture_path), "--entity", "sink", "--k", "0"],
        "correlate-constant-column": ["correlate", str(table)],
        "align-eps-0": ["align", str(features), "--eps", "0"],
        "align-zero-norm-row": ["align", str(features)],
    }[case]
    if case == "align-zero-norm-row":
        message = f"{features}: {message}"
    assert run_cli(capsys, *argv) == (1, "", f"naveval: error: {message}\n")


@pytest.mark.parametrize("target", ["missing-dir", "existing-dir"])
def test_unwritable_out_is_input_error(tmp_path, mini_corpus_dir, target):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "missing" / "x.json" if target == "missing-dir" else out_dir
    env = _naveval_env()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "naveval",
            "score",
            str(mini_corpus_dir / "candidates.jsonl"),
            str(mini_corpus_dir / "references.jsonl"),
            "--quiet",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    reason = os.strerror(errno.ENOENT if target == "missing-dir" else errno.EISDIR)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"naveval: error: cannot write {str(out)!r}: {reason}\n"
    # No temp file is left next to the target.
    assert list(tmp_path.iterdir()) == [out_dir]
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["directions", "--text", "turn left"],
        ["chunk", "--text", "turn left and stop"],
        ["align", "FEATURES"],
        ["kb", "query", "--kb", "KB", "--entity", "sink"],
    ],
    ids=["directions", "chunk", "align", "kb-query"],
)
def test_out_to_directory_is_input_error_on_every_subcommand(capsys, tmp_path, kb_fixture_path, argv):
    features = tmp_path / "features.json"
    features.write_text(json.dumps(FEATURES), encoding="utf-8")
    argv = [{"FEATURES": str(features), "KB": str(kb_fixture_path)}.get(a, a) for a in argv]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
    assert code == 1
    assert out == ""
    assert err.startswith("naveval: error: ") and str(out_dir) in err
    assert list(out_dir.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features.json", "out"]


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
    assert main(argv + ["--out", str(tmp / "out")]) == 0, name
    assert "numpy" not in sys.modules, name

assert callable(naveval.align.dtw_align)
from naveval.align import TargetMatrix
assert TargetMatrix.__module__ == "naveval.align"
assert "numpy" in sys.modules
print("ok")
"""


def test_numpy_loaded_only_for_align(tmp_path, kb_fixture_path):
    env = _naveval_env()
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_SCRIPT, str(tmp_path), str(kb_fixture_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


MODULES_SCRIPT = """
import contextlib, io, sys
sys.path.append(sys.argv.pop(1))  # numpy's directory, after the stdlib
from naveval.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    for argv in sys.argv[1:]:
        assert main(argv.split("|")) == 0, argv
print(" ".join(sorted(sys.modules)))
"""

# Modules a subcommand must not load: other subcommands' modules, and stdlib
# modules that only another path needs.
NOT_FOR_SHORT_CALLS = {
    "naveval.knowledge",
    "naveval.stats",
    "dataclasses",
    "inspect",
    "csv",
    "tempfile",
    "typing",
    "importlib.resources",
}


@pytest.mark.parametrize(
    "commands, absent",
    [
        (
            [
                "score|MINI/candidates.jsonl|MINI/references.jsonl",
                "directions|--text|turn left",
                "chunk|--text|turn left and stop",
            ],
            NOT_FOR_SHORT_CALLS,
        ),
        (["kb|query|--kb|KB|--entity|sink"], {"naveval.metric", "naveval.text", "naveval.stats", "numpy"}),
        (
            ["align|TMP/features.json"],
            {"naveval.metric", "naveval.text", "naveval.knowledge", "naveval.stats", "csv"},
        ),
        (
            ["correlate|TMP/table.csv|--min-directions|1|--instructions|TMP/texts.jsonl"],
            {"naveval.knowledge", "numpy"},
        ),
    ],
    ids=["score-directions-chunk", "kb-query", "align", "correlate"],
)
def test_each_subcommand_imports_only_what_it_runs(tmp_path, mini_corpus_dir, kb_fixture_path, commands, absent):
    (tmp_path / "table.csv").write_text("id,spice_d,human\nq01,0.5,3\nq02,0.9,4\nq03,0.1,1\n")
    write_jsonl(tmp_path / "texts.jsonl", [{"id": i, "text": "turn left and go right"} for i in ("q01", "q02", "q03")])
    (tmp_path / "features.json").write_text(json.dumps(FEATURES), encoding="utf-8")
    places = {"MINI": mini_corpus_dir, "KB": kb_fixture_path, "TMP": tmp_path}
    for name, place in places.items():
        commands = [c.replace(name, str(place)) for c in commands]
    # -S keeps site-packages hooks, which may import modules of their own, out
    # of the interpreter; align finds numpy on a path appended by the script.
    env = _naveval_env()
    proc = subprocess.run(
        [sys.executable, "-S", "-c", MODULES_SCRIPT, str(Path(np.__file__).resolve().parents[1]), *commands],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "naveval.cli" in loaded
    assert sorted(absent & loaded) == []


# Runs cli.run() with a main() that writes OPENBLAS_NUM_THREADS through _emit,
# as every subcommand writes its output, and returns 3. The atexit hook prints
# only if the interpreter is torn down.
RUN_SCRIPT = """
import atexit, os, sys
import naveval.cli

def main():
    naveval.cli._emit(f"{os.environ.get('OPENBLAS_NUM_THREADS')}\\n", None)
    if sys.argv[1] == "raise":
        raise SystemExit(4)
    return 3

atexit.register(print, "teardown")
naveval.cli.main = main
naveval.cli.run()
"""

BLAS_UNSET = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))


@pytest.mark.parametrize(
    "user, seen",
    [
        ({}, "1"),
        ({"OPENBLAS_NUM_THREADS": "4"}, "4"),
        ({"OMP_NUM_THREADS": "2"}, "None"),
        ({"MKL_NUM_THREADS": "2"}, "None"),
    ],
    ids=["unset", "openblas-set", "omp-set", "mkl-set"],
)
def test_run_defaults_to_one_blas_thread_and_keeps_the_users(user, seen):
    env = _naveval_env(**{**BLAS_UNSET, **user})
    proc = subprocess.run(
        [sys.executable, "-c", RUN_SCRIPT, "return"], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout.splitlines()[0] == seen


@pytest.mark.parametrize("how, code, lines", [("return", 3, ["1"]), ("raise", 4, ["1", "teardown"])])
def test_run_skips_teardown_unless_main_raises(how, code, lines):
    # Without PYTHONUNBUFFERED, the output reaches the pipe before os._exit
    # only because _emit flushes it.
    env = _naveval_env(**BLAS_UNSET, PYTHONUNBUFFERED=None)
    proc = subprocess.run([sys.executable, "-c", RUN_SCRIPT, how], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout.splitlines(), proc.stderr) == (code, lines, "")


@pytest.mark.parametrize("case", ["emit", "final-flush"])
def test_closed_stdout_is_a_clean_error(capsys, tmp_path, case):
    if case == "emit":
        # A report larger than stdout's buffer: the write in _emit fails.
        cands, refs = tmp_path / "c.jsonl", tmp_path / "r.jsonl"
        rows = [{"id": f"q{i:02d}", "text": "turn left and go right"} for i in range(40)]
        write_jsonl(cands, rows)
        write_jsonl(refs, rows)
        argv = ["score", str(cands), str(refs), "--quiet"]
        assert len(run_cli(capsys, *argv)[1].encode()) > io.DEFAULT_BUFFER_SIZE
    else:
        # A small output fits in stdout's buffer: the flush in _emit fails.
        argv = ["directions", "--text", "turn left"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "naveval", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_naveval_env(PYTHONUNBUFFERED=None),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == f"naveval: error: cannot write to stdout: {os.strerror(errno.EPIPE)}\n"


def test_stdout_that_cannot_encode_the_output_is_a_clean_error():
    """A stdout whose encoding cannot hold the output is a stdout that cannot be written."""
    proc = subprocess.run(
        [sys.executable, "-m", "naveval", "chunk", "--text", "walk past the caf\u00e9 and stop"],
        capture_output=True,
        env=_naveval_env(PYTHONIOENCODING="ascii"),
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == (
        b"naveval: error: cannot write to stdout: 'ascii' codec can't encode character '\\xe9' "
        b"in position 17: ordinal not in range(128)\n"
    )


def _run_shell(argv, redirects, **kwargs):
    """python -m naveval argv in a shell that applies the redirections.

    The standard streams are buffered, as by default: what a failed write
    leaves in a buffer must neither fail again nor print a traceback at exit.
    """
    command = f"{shlex.join([sys.executable, '-m', 'naveval', *argv])} {redirects}"
    return subprocess.run(command, shell=True, env=_naveval_env(PYTHONUNBUFFERED=None), timeout=120, **kwargs)


@pytest.mark.parametrize("closed", [">&-", "2>&-"], ids=["stdout", "stderr"])
def test_run_with_a_standard_stream_closed_at_start(tmp_path, closed):
    out = tmp_path / "labels.txt"
    proc = _run_shell(["directions", "--text", "turn left", "--out", str(out)], closed, capture_output=True)
    assert proc.returncode == 0, proc
    assert out.read_text(encoding="utf-8") == "left\n"


# stderr closed at start (sys.stderr is None), or open with every write failing.
UNWRITABLE_STDERR = pytest.mark.parametrize("stderr", ["2>&-", "2>/dev/full"], ids=["closed", "full"])


@UNWRITABLE_STDERR
def test_unwritable_stderr_keeps_a_successful_score_at_exit_0(tmp_path, mini_corpus_dir, golden_report_path, stderr):
    # Without --quiet, score writes a note to stderr after the report.
    out = tmp_path / "report.json"
    argv = ["score", str(mini_corpus_dir / "candidates.jsonl"), str(mini_corpus_dir / "references.jsonl")]
    proc = _run_shell(argv, f"{stderr} > {shlex.quote(str(out))}")
    assert proc.returncode == 0
    assert out.read_bytes() == golden_report_path.read_bytes()


@UNWRITABLE_STDERR
def test_unwritable_stderr_keeps_the_schema_error_exit_code(tmp_path, mini_corpus_dir, stderr):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": 5}\n', encoding="utf-8")
    proc = _run_shell(["score", str(bad), str(mini_corpus_dir / "references.jsonl")], stderr, capture_output=True)
    assert (proc.returncode, proc.stdout) == (2, b"")


def test_stdout_closed_at_start_is_a_clean_error():
    proc = _run_shell(["directions", "--text", "turn left"], ">&-", capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == f"naveval: error: cannot write to stdout: {os.strerror(errno.EBADF)}\n"


@pytest.mark.parametrize(
    "argv, redirect, error",
    [(["--help"], ">&-", errno.EBADF), (["score", "--help"], ">/dev/full", errno.ENOSPC)],
    ids=["closed", "full"],
)
def test_help_that_cannot_be_written_is_a_clean_error(argv, redirect, error):
    proc = _run_shell(argv, redirect, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (1, f"naveval: error: cannot write to stdout: {os.strerror(error)}\n")


# Each subcommand's whole stdout, and for score its notes on stderr; run from
# tests/data.
PIPED_RUNS = {
    "score": (["score", "MINI/candidates.jsonl", "MINI/references.jsonl"], "golden_score_report.json"),
    "align": (["align", "align_features.json", "--ce", "0.25", "--eps", "0.5"], "golden_align_report.json"),
    "directions": (["directions", "--text", "turn left, then go right"], b"left right\n"),
    "chunk": (
        ["chunk", "--text", "turn left, walk past the sofa, and stop by the door"],
        b"turn left\nwalk past the sofa\nand stop by the door\n",
    ),
    "correlate": (
        ["correlate", "correlate_table.csv", "--min-directions", "1", "--instructions", "correlate_instructions.jsonl"],
        "golden_correlate_report.json",
    ),
    "kb-query": (
        ["kb", "query", "--kb", "kb_fixture.tsv", "--entity", "microwave"],
        b"microwave\tAtLocation\tkitchen\t6.2\nmicrowave\tRelatedTo\toven\t4.1\nmicrowave\tUsedFor\theating\t3.3\n",
    ),
}


@pytest.mark.parametrize("name", PIPED_RUNS)
def test_each_subcommand_delivers_its_output_to_pipes(capsys, monkeypatch, test_data_dir, mini_corpus_dir, name):
    # Without PYTHONUNBUFFERED both streams are buffered, and os._exit flushes
    # neither: stdout arrives because _emit flushes it, and stderr notes
    # because each is a whole line.
    argv, expected = PIPED_RUNS[name]
    argv = [a.replace("MINI", str(mini_corpus_dir)) for a in argv]
    if isinstance(expected, str):
        expected = (test_data_dir / expected).read_bytes()
    monkeypatch.chdir(test_data_dir)
    _, _, err = run_cli(capsys, *argv)
    proc = subprocess.run(
        [sys.executable, "-m", "naveval", *argv],
        capture_output=True,
        env=_naveval_env(PYTHONUNBUFFERED=None),
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, err.encode())
    if name == "score":
        corpus = json.loads(expected)["corpus"]
        means = f"mean SPICE {corpus['mean_spice']:.4f}, mean SPICE-D {corpus['mean_spice_d']:.4f}"
        assert err == f"scored {corpus['n_records']} records: {means}\n"


def test_only_emit_writes_stdout():
    """sys.stdout is named only in cli._emit, and every print names its file."""
    import ast

    import naveval

    found = []
    for path in sorted(Path(naveval.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        emit = set()
        if path.name == "cli.py":
            emit = {id(n) for f in tree.body if getattr(f, "name", None) == "_emit" for n in ast.walk(f)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "stdout"
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
                and id(node) not in emit
            ):
                found.append(f"{path.name}:{node.lineno}: sys.stdout")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
                and not any(k.arg == "file" for k in node.keywords)
            ):
                found.append(f"{path.name}:{node.lineno}: print without file=")
    assert found == []


def test_package_exposes_only_version_and_submodules():
    """Each public name has one spelling, naveval.<submodule>.<name>."""
    import naveval

    submodules = ("align", "cli", "knowledge", "metric", "stats", "text")
    with pytest.raises(AttributeError):
        naveval.spice_d_score
    with pytest.raises(AttributeError):
        naveval.nothing
    assert not hasattr(naveval, "__all__")
    for module in submodules:
        assert getattr(naveval, module) is sys.modules[f"naveval.{module}"]
    assert {name for name in vars(naveval) if not name.startswith("_")} == set(submodules)


def test_import_naveval_loads_no_submodule():
    script = "import sys, naveval; print(sorted(m for m in sys.modules if m.startswith('naveval.')))"
    env = _naveval_env()
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


class TestParser:
    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["score"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv, usage",
        [(["--help"], "usage: naveval [-h]"), (["kb", "query", "-h"], "usage: naveval kb query [-h]")],
        ids=["top-level", "kb-query"],
    )
    def test_help_goes_to_stdout_and_exits_zero(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        out, err = capsys.readouterr()
        assert (excinfo.value.code, err) == (0, "")
        assert out.startswith(usage)

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_each_subcommand_has_only_its_own_flags(self):
        def flags(parser):
            return {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}

        subcommands = next(a for a in _build_parser()._actions if a.dest == "command").choices
        kb_query = next(a for a in subcommands["kb"]._actions if a.dest == "kb_command").choices["query"]
        # --quiet only where notes are written.
        noted = {"--out", "--quiet"}
        assert flags(subcommands["score"]) == noted | {"--taxonomy", "--synonyms", "--aggregation"}
        assert flags(subcommands["align"]) == {"--out", "--ce", "--lambda1", "--lambda2", "--eps"}
        assert flags(subcommands["directions"]) == {"--out", "--taxonomy", "--text"}
        assert flags(subcommands["chunk"]) == {"--out", "--text"}
        assert flags(subcommands["correlate"]) == noted | {"--taxonomy", "--min-directions", "--instructions"}
        assert flags(kb_query) == {"--out", "--kb", "--entity", "--k"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["kb", "query", "--kb", "f.tsv", "--entity", "sofa", "--lambda1", "3"],
            ["score", "c.jsonl", "r.jsonl", "--eps", "5"],
            ["chunk", "--text", "turn left", "--taxonomy", "urban"],
            ["align", "f.json", "--aggregation", "mean"],
            # --quiet only where notes are written.
            ["align", "f.json", "--quiet"],
            ["directions", "--text", "turn left", "--quiet"],
            ["chunk", "--text", "turn left", "--quiet"],
            ["kb", "query", "--kb", "f.tsv", "--entity", "sofa", "--quiet"],
        ],
        ids=[
            "kb-lambda1",
            "score-eps",
            "chunk-taxonomy",
            "align-aggregation",
            "align-quiet",
            "directions-quiet",
            "chunk-quiet",
            "kb-quiet",
        ],
    )
    def test_foreign_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
