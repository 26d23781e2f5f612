"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

They check that the same seed gives byte-identical inputs in any process, and
that every output checker accepts the program's real output and rejects a
corrupted copy: a flipped count, a moved path cell, a dropped output line.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
from workloads import AlignTrain, Inputs, Program, run_child  # noqa: E402

GENERATE = """
import sys
sys.path.insert(0, {here!r})
from pathlib import Path
from workloads import Inputs
inputs = Inputs(Path({root!r}), int(sys.argv[1]), Path(sys.argv[2]))
inputs.shard(0); inputs.pool(); inputs.cli()
"""


def generate(seed: int, out: Path, hash_seed: str) -> dict[str, bytes]:
    out.mkdir()
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    code = GENERATE.format(here=str(HERE), root=str(ROOT))
    subprocess.run([sys.executable, "-c", code, str(seed), str(out)], check=True, env=env, cwd=ROOT)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class Determinism(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
            a = generate(7, Path(tmp) / "a", "1")
            b = generate(7, Path(tmp) / "b", "2")
            c = generate(8, Path(tmp) / "c", "1")
        self.assertEqual(sorted(a), sorted(b))
        for name in a:
            self.assertEqual(a[name], b[name], name)
        self.assertNotEqual(a["shard0-candidates.jsonl"], c["shard0-candidates.jsonl"])


class Checkers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory(dir=HERE / ".work")
        cls.dir = Path(cls.tmp.name)
        cls.program = Program(ROOT)
        cls.inputs = Inputs(ROOT, 3, cls.dir)
        cls.cli = cls.inputs.cli()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def run_ok(self, args: list[str]) -> bytes:
        _, rc, out, err = self.program.run(args)
        self.assertEqual(rc, 0, err)
        return out

    def test_score_report_flipped_count_and_dropped_row(self):
        cands, refs, truth = gen.score_shard(3, 0, self.inputs.vocab, n=80)
        paths = []
        for name, recs in (("c", cands), ("r", refs)):
            path = self.dir / f"{name}.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8")
            paths.append(str(path))
        out = self.run_ok(["score", *paths, "--synonyms", self.inputs.synonyms, "--quiet"])
        self.assertEqual(oracle.check_score_report(out, truth), [])
        doc = json.loads(out)

        flipped = copy.deepcopy(doc)
        flipped["records"][5]["counts"]["tuple_matches"] += 1
        self.assertTrue(oracle.check_score_report(json.dumps(flipped).encode(), truth))

        dirs = copy.deepcopy(doc)
        dirs["records"][9]["counts"]["dir_matches"] ^= 1
        self.assertTrue(oracle.check_score_report(json.dumps(dirs).encode(), truth))

        score = copy.deepcopy(doc)
        score["records"][2]["spice_d"] = min(1.0, score["records"][2]["spice_d"] + 0.01)
        self.assertTrue(oracle.check_score_report(json.dumps(score).encode(), truth))

        dropped = copy.deepcopy(doc)
        del dropped["records"][40]
        self.assertTrue(oracle.check_score_report(json.dumps(dropped).encode(), truth))

    def test_align_report_moved_path_cell(self):
        path = self.cli["features"][0]
        features = json.loads(Path(path).read_text(encoding="utf-8"))
        out = self.run_ok(["align", path])
        self.assertEqual(oracle.check_align_output(out, features), [])
        doc = json.loads(out)
        moved = copy.deepcopy(doc)
        moved["A"] = _move_cell(moved["A"])
        self.assertTrue(oracle.check_align_output(json.dumps(moved).encode(), features))

    def test_align_train_moved_path_cell_and_nonfinite_loss(self):
        w = AlignTrain(self.program, self.inputs)
        w.prepare()
        out = run_child(self.program, "align", {"root": str(ROOT), "pool": w.pool_path, "seconds": 0.5, "trace": False}, self.dir)
        phase = w.check(out["ops"], out["paths"])
        self.assertGreater(phase.attempted, 10)
        self.assertEqual(phase.failed, 0, phase.problems)

        d = str(out["ops"][0][0])
        paths = copy.deepcopy(out["paths"])
        m = 1 + max(i for i, _ in paths[d])
        n = 1 + max(j for _, j in paths[d])
        grid = [[int([i, j] in paths[d]) for j in range(n)] for i in range(m)]
        moved = _move_cell(grid)
        paths[d] = [[i, j] for i in range(m) for j in range(n) if moved[i][j]]
        self.assertGreater(w.check(out["ops"], paths).failed, 0)

        ops = copy.deepcopy(out["ops"])
        ops[-1][4] = float("inf")  # the last op has no later repeat to disagree with
        self.assertEqual(w.check(ops, out["paths"]).failed, 1)

    def test_short_commands_dropped_line(self):
        text = next(t for t in self.cli["texts"] if len(t.chunks) >= 2)
        out = self.run_ok(["chunk", "--text", text.text])
        want = "\n".join(text.chunks) + "\n"
        self.assertEqual(out.decode(), want)
        self.assertNotEqual("".join(out.decode().splitlines(True)[1:]), want)

        entity, k = next((e, k) for e, k in self.cli["queries"] if k >= 3 and e.lower() in self.cli["facts"])
        out = self.run_ok(["kb", "query", "--kb", self.cli["kb"], "--entity", entity, "--k", str(k)])
        want = oracle.expected_kb_lines(self.cli["facts"], entity, k)
        self.assertEqual(out.decode(), want)
        self.assertNotEqual("".join(out.decode().splitlines(True)[:-1]), want)

        args = ["correlate", self.cli["table"], "--min-directions", "1", "--instructions", self.cli["instructions"], "--quiet"]
        out = self.run_ok(args)
        check = lambda b: oracle.check_correlate(b, self.cli["table_rows"], self.cli["metric_names"], 1)  # noqa: E731
        self.assertEqual(check(out), [])
        self.assertTrue(check(json.dumps(json.loads(out)[:-1]).encode()))

        golden = (ROOT / "tests" / "data" / "golden_score_report.json").read_bytes()
        mini = gen.data_dir(ROOT) / "mini_corpus"
        out = self.run_ok(["score", str(mini / "candidates.jsonl"), str(mini / "references.jsonl"), "--quiet"])
        self.assertEqual(out, golden)


def _move_cell(a: list[list[int]]) -> list[list[int]]:
    """Shift one interior path cell sideways, so the path breaks or gets dearer."""
    a = [list(row) for row in a]
    cells = [(i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]
    i, j = cells[len(cells) // 2]
    a[i][j] = 0
    a[i][j + 1 if j + 1 < len(a[i]) and not a[i][j + 1] else j - 1] = 1
    return a


if __name__ == "__main__":
    (HERE / ".work").mkdir(exist_ok=True)
    unittest.main()
