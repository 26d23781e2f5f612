"""`naveval score` gives the same bytes as the straightforward composition kept here.

The reference loads each record into a ScoringInput (tuples normalized there,
labels parsed from the text or checked against the taxonomy), canonicalizes
each side's tuples with the synonyms, builds one ScoreReport per reference,
picks the best with max(range(...)) (earliest on ties) or averages under
"mean", and writes the report with cli._score_report_text. Every mean adds
its floats left to right from 0, as naveval does on every Python; builtin
sum compensates the rounding from Python 3.12. The CLI instead
prepares each side once at load and builds one report per record; the two
must agree byte for byte on seeded corpora that hold direction-only records,
explicit directions, tuples that one synonym group merges, and tied
references.
"""

import json
import operator
import random
from functools import reduce

import pytest

from naveval.cli import _score_report_text, main
from naveval.metric import ScoreReport, ScoringInput, SynonymMap, check_labels, lcs_length, normalize_tuples
from naveval.text import data_dir, direction_labels, load_taxonomy, tokenize

SYNONYMS = data_dir() / "synonyms" / "example.json"
FILLER = ["walk", "past", "the", "go", "into", "wait", "near", "stop", "stairs", "kitchen", "and", "then"]
WORDS = ["sofa", "Couch", " couch ", "fridge", "Refrigerator ", "lamp", "door", "wall", "red", "left of", "TV"]

# ---------------------------------------------------------------------------
# Reference composition


def ref_sum(values):
    return reduce(operator.add, values, 0)


def ref_ratio(num, den):
    return num / den if den > 0 else 0.0


def ref_f_score(p, r):
    return 2.0 * p * r / (p + r) if p + r > 0.0 else 0.0


def ref_spice_d(cand, ref, cand_dirs, ref_dirs, direction_only):
    inter = len(cand & ref)
    pr_s = ref_ratio(inter, len(cand))
    re_s = ref_ratio(inter, len(ref))
    matches = lcs_length(cand_dirs, ref_dirs)
    pr_sd = ref_ratio(inter + matches, len(cand) + len(cand_dirs))
    re_sd = ref_ratio(inter + matches, len(ref) + len(ref_dirs))
    return ScoreReport(
        ref_f_score(pr_s, re_s), ref_f_score(pr_sd, re_sd), pr_s, re_s, pr_sd, re_sd,
        len(cand), len(ref), inter, len(cand_dirs), len(ref_dirs), matches, direction_only,
    )


def ref_load(path, taxonomy):
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        directions = obj.get("directions")
        if directions is None:
            directions = direction_labels(tokenize(obj["text"]), taxonomy)
        else:
            check_labels(directions, taxonomy)
        records.append((obj["id"], ScoringInput(None, obj.get("tuples"), tuple(directions))))
    return records


def ref_score_pair(cand, refs, synonyms, aggregation):
    direction_only = cand.tuples is None or any(r.tuples is None for r in refs)

    def prepared(item):
        tuples = frozenset() if direction_only else item.tuples
        return (tuples if synonyms is None else synonyms.canonical_set(tuples)), item.directions

    cand_tuples, cand_dirs = prepared(cand)
    reports = []
    for ref in refs:
        ref_tuples, ref_dirs = prepared(ref)
        reports.append(ref_spice_d(cand_tuples, ref_tuples, cand_dirs, ref_dirs, direction_only))
    best = max(range(len(reports)), key=lambda i: (reports[i].spice_d, -i))
    chosen = reports[best]
    if aggregation == "max":
        return chosen, reports
    n = len(reports)
    mean = ScoreReport(
        *(ref_sum(getattr(r, f) for r in reports) / n for f in ("spice", "spice_d", "pr_s", "re_s", "pr_sd", "re_sd")),
        chosen.n_cand_tuples, chosen.n_ref_tuples, chosen.n_tuple_matches,
        chosen.n_cand_dirs, chosen.n_ref_dirs, chosen.n_dir_matches, direction_only,
    )
    return mean, reports


def ref_report(cands_path, refs_path, taxonomy, synonyms, aggregation):
    """The report text and every record's per-reference reports."""
    candidates = dict(ref_load(cands_path, taxonomy))
    references = {}
    for rid, ref in ref_load(refs_path, taxonomy):
        references.setdefault(rid, []).append(ref)
    rows, per_reference = [], []
    for rid, cand in candidates.items():
        report, reports = ref_score_pair(cand, references[rid], synonyms, aggregation)
        rows.append((rid, len(references[rid]), report))
        per_reference.append(reports)
    n = len(rows)
    corpus = {
        "mean_spice": ref_sum(r.spice for _, _, r in rows) / n,
        "mean_spice_d": ref_sum(r.spice_d for _, _, r in rows) / n,
        "n_records": n,
        "n_direction_only": sum(1 for _, _, r in rows if r.direction_only),
    }
    return _score_report_text(taxonomy.name, aggregation, rows, corpus), per_reference


# ---------------------------------------------------------------------------
# Seeded corpora


def make_side(rng, rid, phrases, labels):
    clauses = [" ".join(rng.sample(FILLER, rng.randint(1, 3))) for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 3)):
        clauses.insert(rng.randrange(len(clauses) + 1), rng.choice(phrases))
    obj = {"id": rid, "text": ", ".join(clauses) + "."}
    if rng.random() < 0.85:
        tuples = [[rng.choice(WORDS) for _ in range(rng.choice((1, 1, 2, 3)))] for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.15:
            tuples += [["fridge"], ["Refrigerator "]]
        obj["tuples"] = tuples
    if rng.random() < 0.15:
        obj["directions"] = [rng.choice(labels) for _ in range(rng.randint(0, 3))]
    return obj


def write_corpus(tmp_path, seed, taxonomy):
    rng = random.Random(seed)
    phrases = sorted(p for _, ps in taxonomy.classes for p in ps)
    labels = sorted(taxonomy.label_set)
    cands, refs = [], []
    for i in range(150):
        rid = f"r{i:03d}"
        cands.append(make_side(rng, rid, phrases, labels))
        sides = [make_side(rng, rid, phrases, labels) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.2:
            sides.append(dict(sides[0]))  # a tie with the first reference
        refs.extend(sides)
    rng.shuffle(refs)
    paths = tmp_path / "c.jsonl", tmp_path / "r.jsonl"
    for path, rows in zip(paths, (cands, refs)):
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return paths


@pytest.fixture(scope="module")
def r2r():
    return load_taxonomy("r2r")


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("with_synonyms", [False, True], ids=["plain", "synonyms"])
@pytest.mark.parametrize("aggregation", ["max", "mean"])
def test_report_bytes_match_the_reference(tmp_path, r2r, seed, with_synonyms, aggregation):
    cands, refs = write_corpus(tmp_path, seed, r2r)
    synonyms = SynonymMap.load(SYNONYMS) if with_synonyms else None
    want, per_reference = ref_report(cands, refs, r2r, synonyms, aggregation)

    out = tmp_path / "report.json"
    argv = ["score", str(cands), str(refs), "--aggregation", aggregation, "--quiet", "--out", str(out)]
    assert main(argv + (["--synonyms", str(SYNONYMS)] if with_synonyms else [])) == 0
    assert out.read_text(encoding="utf-8") == want

    # The corpus covers each case the report must get right.
    records = [json.loads(line) for path in (cands, refs) for line in path.read_text().splitlines()]
    assert any(r.direction_only for reports in per_reference for r in reports)
    assert any("directions" in r for r in records)
    if with_synonyms:
        normalized = [normalize_tuples(r["tuples"]) for r in records if "tuples" in r]
        assert any(len(synonyms.canonical_set(t)) < len(t) for t in normalized)
    assert any(
        a.spice_d == b.spice_d and a != b
        for reports in per_reference
        for i, a in enumerate(reports)
        for b in reports[i + 1 :]
    )
