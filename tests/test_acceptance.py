"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from naveval.align import (
    attention_coverage_loss,
    contrastive_loss,
    dtw_align,
    validate_alignment_matrix,
)
from naveval.cli import main
from naveval.knowledge import load_kb, retrieve_facts
from naveval.metric import lcs_length, spice_d_score, spice_score
from naveval.stats import pearson

CAND_TUPLES = frozenset(
    {
        ("door",),
        ("sofa",),
        ("sofa", "red"),
        ("door", "left of", "sofa"),
        ("lamp",),
    }
)
REF_TUPLES = CAND_TUPLES - {("lamp",)} | {("rug",), ("rug", "blue")}


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def lcs_brute(a, b):
    """Longest common subsequence by exhaustive subsequence enumeration."""
    best = 0
    for r in range(len(a), 0, -1):
        if r <= best:
            break
        for picked in itertools.combinations(a, r):
            if is_subsequence(picked, b):
                best = r
                break
    return best


def is_subsequence(sub, seq):
    it = iter(seq)
    return all(item in it for item in sub)


def brute_force_min_cost(cost):
    """Cheapest monotone corner-to-corner path by full enumeration."""
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


def test_criterion_1_worked_example_exact_and_fast():
    with criterion(1, "worked example gives 6/7, 0.75, 0.8 within 1e-12 in < 1 ms"):
        dirs = ("right", "left")
        report = spice_d_score(CAND_TUPLES, REF_TUPLES, dirs, dirs)
        assert report.n_cand_tuples == 5
        assert report.n_ref_tuples == 6
        assert report.n_tuple_matches == 4
        assert report.n_dir_matches == 2
        assert abs(report.pr_sd - 6 / 7) < 1e-12
        assert abs(report.re_sd - 0.75) < 1e-12
        assert abs(report.spice_d - 0.8) < 1e-12

        spice_d_score(CAND_TUPLES, REF_TUPLES, dirs, dirs)
        elapsed = min(
            _timed(lambda: spice_d_score(CAND_TUPLES, REF_TUPLES, dirs, dirs))
            for _ in range(5)
        )
        assert elapsed < 1e-3, f"single call took {elapsed * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_degenerates_to_spice_without_directions():
    with criterion(2, "SPICE-D equals SPICE to 1e-12 on 1,000 direction-free pairs"):
        rng = random.Random(202)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(1000):
            cand = _random_tuples(rng, vocab)
            ref = _random_tuples(rng, vocab)
            _, _, spice = spice_score(cand, ref)
            report = spice_d_score(cand, ref, (), ())
            assert abs(report.spice_d - spice) <= 1e-12
            assert abs(report.spice - spice) <= 1e-12


def _random_tuples(rng, vocab):
    out = set()
    for _ in range(rng.randrange(0, 6)):
        arity = rng.randrange(1, 4)
        out.add(tuple(rng.choice(vocab) for _ in range(arity)))
    return frozenset(out)


def test_criterion_3_direction_order_sensitivity():
    with criterion(3, "swapped direction order lowers the score; LCS drops 2 to 1"):
        tuples = frozenset({("hallway",), ("door", "blue")})
        in_order = spice_d_score(tuples, tuples, ("left", "right"), ("left", "right"))
        swapped = spice_d_score(tuples, tuples, ("right", "left"), ("left", "right"))
        assert lcs_length(("left", "right"), ("left", "right")) == 2
        assert lcs_length(("right", "left"), ("left", "right")) == 1
        assert in_order.n_dir_matches == 2
        assert swapped.n_dir_matches == 1
        assert in_order.spice_d > swapped.spice_d


def test_criterion_4_lcs_matches_exhaustive_enumeration():
    with criterion(4, "lcs_length matches brute-force enumeration on 500 pairs in < 5 s"):
        rng = random.Random(404)
        labels = ["left", "right", "around", "up", "down"]
        start = time.perf_counter()
        for _ in range(500):
            a = tuple(rng.choice(labels) for _ in range(rng.randrange(0, 9)))
            b = tuple(rng.choice(labels) for _ in range(rng.randrange(0, 9)))
            assert lcs_length(a, b) == lcs_brute(a, b)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_5_dtw_matches_brute_force():
    with criterion(5, "DTW path cost equals brute-force minimum on 200 matrices in < 10 s"):
        rng = np.random.default_rng(505)
        start = time.perf_counter()
        for _ in range(200):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 9))
            cost = rng.uniform(0.0, 1.0, size=(m, n))
            a = dtw_align(cost)
            validate_alignment_matrix(a)
            assert a[0, 0] == 1 and a[m - 1, n - 1] == 1
            assert abs(float((a * cost).sum()) - brute_force_min_cost(cost)) < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_6_loss_reference_values():
    with criterion(6, "loss values match closed forms; contrastive loss is shift invariant"):
        assert attention_coverage_loss([[1.0, 0.0]], [[1, 0]]) == 0.0
        assert contrastive_loss([[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]], [[1, 1]]) == 0.0

        l_att = attention_coverage_loss([[0.5, 0.5]], [[1, 0]])
        assert abs(l_att - 2 * math.log(2)) < 1e-9

        panos = [[1.0, 0.0]] * 4
        l_nce = contrastive_loss(panos, [[1.0, 0.0]], [[1, 0, 0, 0]])
        assert abs(l_nce - math.log(4)) < 1e-9

        rng = np.random.default_rng(606)
        for _ in range(100):
            n_p = int(rng.integers(2, 6))
            n_w = int(rng.integers(1, 5))
            d = int(rng.integers(1, 5))
            panos = rng.normal(size=(n_p, d))
            words = rng.normal(size=(n_w, d))
            a_prime = (rng.random(size=(n_w, n_p)) < 0.5).astype(int)
            a_prime[a_prime.sum(axis=1) == 0, 0] = 1
            shifts = rng.uniform(-50.0, 50.0, size=(n_w, 1))
            base = contrastive_loss(panos, words, a_prime)
            shifted = contrastive_loss(
                np.hstack([panos, np.ones((n_p, 1))]),
                np.hstack([words, shifts]),
                a_prime,
            )
            assert abs(base - shifted) < 1e-9


def test_criterion_7_pearson_reference_value_and_affine_invariance():
    with criterion(7, "pearson returns 0.8 within 1e-12 and is affine invariant"):
        assert abs(pearson([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]) - 0.8) < 1e-12
        rng = random.Random(707)
        for _ in range(100):
            n = rng.randrange(3, 20)
            x = [rng.gauss(0, 1) for _ in range(n)]
            y = [rng.gauss(0, 1) for _ in range(n)]
            base = pearson(x, y)
            a = rng.uniform(0.1, 10.0)
            b = rng.uniform(-5.0, 5.0)
            assert abs(pearson([a * v + b for v in x], y) - base) < 1e-12
            assert abs(pearson([-a * v + b for v in x], y) + base) < 1e-12


def test_criterion_8_knowledge_retrieval_order(kb_fixture_path):
    with criterion(8, "top-K facts sort by weight with deterministic ties; default K is 3"):
        kb = load_kb(kb_fixture_path)
        default = retrieve_facts(kb, "microwave")
        assert len(default) == 3
        assert default == retrieve_facts(kb, "microwave", k=3)
        weights = [f.weight for f in retrieve_facts(kb, "microwave", k=10)]
        assert weights == sorted(weights, reverse=True)

        ties = retrieve_facts(kb, "sink")
        assert all(f.weight == 4.0 for f in ties)
        keys = [(f.relation, f.tail) for f in ties]
        assert keys == sorted(keys)
        assert ties == retrieve_facts(kb, "sink")


def test_criterion_9_end_to_end_scoring(tmp_path, capsys, mini_corpus_dir, golden_report_path):
    with criterion(9, "corpus report is byte-identical to the golden file; self-score is 1.0"):
        cands = str(mini_corpus_dir / "candidates.jsonl")
        refs = str(mini_corpus_dir / "references.jsonl")

        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            assert main(["score", cands, refs, "--quiet", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_bytes() == golden_report_path.read_bytes()

        assert main(["score", cands, cands, "--quiet"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["corpus"]["mean_spice_d"] == 1.0


def test_criterion_9_mean_synonyms_report(tmp_path, capsys, mini_corpus_dir, golden_mean_synonyms_report_path):
    # The mini corpus has ids with two and three references, so this golden
    # pins the mean aggregation and synonym canonicalization as well.
    with criterion(9, "mean-aggregated report with synonyms is byte-identical to its golden file"):
        synonyms = str(mini_corpus_dir.parent / "synonyms" / "example.json")
        out = tmp_path / "report.json"
        argv = ["score", str(mini_corpus_dir / "candidates.jsonl"), str(mini_corpus_dir / "references.jsonl")]
        argv += ["--aggregation", "mean", "--synonyms", synonyms, "--quiet", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert out.read_bytes() == golden_mean_synonyms_report_path.read_bytes()


# Installs the float sum of Python 3.12 and later, which compensates rounding
# (Neumaier), in a Python that adds left to right.
COMPENSATED_SUM = """
import builtins
import math

_builtin_sum = builtins.sum


def _compensated_sum(iterable, /, start=0):
    # From a zero start, floats alone; anything else is left to the builtin.
    items = list(iterable)
    if start != 0 or not items or {type(x) for x in items} != {float}:
        return _builtin_sum(items, start)
    total, compensation = start + items[0], 0.0
    for x in items[1:]:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


builtins.sum = _compensated_sum
"""


def test_criterion_9_score_reports_do_not_depend_on_builtin_sum(tmp_path, mini_corpus_dir, test_data_dir):
    """Both score goldens hold in a `python -m naveval` whose builtin sum compensates, as from Python 3.12."""
    import naveval

    with criterion(9, "score reports are byte-identical to their goldens under a compensated builtin sum"):
        site = tmp_path / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(COMPENSATED_SUM, encoding="utf-8")
        src = Path(naveval.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(site), str(src)]))

        def run(*argv):
            proc = subprocess.run([sys.executable, *argv], capture_output=True, env=env, timeout=120)
            assert (proc.returncode, proc.stderr) == (0, b"")
            return proc.stdout

        # The child's sum is the compensated one: left to right, ten 0.1 add to 0.9999999999999999.
        assert run("-c", "print(sum([0.1] * 10))") == b"1.0\n"
        corpus = [str(mini_corpus_dir / "candidates.jsonl"), str(mini_corpus_dir / "references.jsonl")]
        synonyms = str(mini_corpus_dir.parent / "synonyms" / "example.json")
        goldens = {
            "golden_score_report.json": [],
            "golden_score_report_mean_synonyms.json": ["--aggregation", "mean", "--synonyms", synonyms],
        }
        for golden, options in goldens.items():
            report = run("-m", "naveval", "score", *corpus, *options, "--quiet")
            assert report == (test_data_dir / golden).read_bytes(), golden


# Run from tests/data. Word logits of 1000 make align's attention exactly
# one-hot, and an eps of 0.5 keeps every log at 1, 2 or 0.5, so the losses
# have the same bits under any math library.
GOLDEN_RUNS = {
    "golden_align_report.json": ["align", "align_features.json", "--ce", "0.25", "--eps", "0.5"],
    "golden_correlate_report.json": [
        "correlate",
        "correlate_table.csv",
        "--min-directions",
        "1",
        "--instructions",
        "correlate_instructions.jsonl",
        "--quiet",
    ],
}


def test_criterion_9_align_and_correlate_reports(capsys, monkeypatch, test_data_dir):
    with criterion(9, "align and correlate reports are byte-identical to their golden files"):
        monkeypatch.chdir(test_data_dir)
        for golden, argv in GOLDEN_RUNS.items():
            assert main(argv) == 0
            assert capsys.readouterr().out.encode() == (test_data_dir / golden).read_bytes(), golden
