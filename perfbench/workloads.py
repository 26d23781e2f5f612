"""The three workloads. Each is a closed loop with one client: the next
operation starts only after the previous one has finished and been checked.

score-corpus  `naveval score` subprocesses over seeded corpus shards
cli-short     short `naveval` subprocess calls in a seeded order
align-train   the alignment-loss chain in-process, in one child process
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracle
from spans import Tracer

HERE = Path(__file__).resolve().parent
CALL_TIMEOUT_S = 120
REFERENCE_LOOPS = 20_000


def reference_ms() -> float:
    """Wall time of a fixed pure-Python loop: how fast the machine runs right now.

    Runs sample it between operations, never during one, so the program's own
    speed does not move it.
    """
    start = time.perf_counter_ns()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return (time.perf_counter_ns() - start) / 1e6


# Thread-count variables of OpenBLAS, OpenMP and MKL. The in-process children
# set them to 1: on a 2-vCPU machine OpenBLAS's second thread made align-train's
# median document time swing by up to 1.5x from run to run. The CLI
# subprocesses keep the user's settings, since thread-pool start-up is part of
# what a `naveval` call costs.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Program:
    """Runs naveval from the checkout's src/ tree in fresh interpreters."""

    def __init__(self, root: Path, blas_threads: str | None = None):
        self.root = root
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        if blas_threads is not None:
            env.update(dict.fromkeys(BLAS_THREAD_VARS, blas_threads))
        self.env = env

    def run(self, args: list[str]) -> tuple[float, int, bytes, bytes]:
        """Wall seconds, exit code, stdout and stderr of `python -m naveval ARGS`."""
        return self.python(["-m", "naveval", *args])

    def python(self, args: list[str]) -> tuple[float, int, bytes, bytes]:
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, cwd=self.root
        ) as proc:
            try:
                out, err = proc.communicate(timeout=CALL_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
        return time.perf_counter() - start, proc.returncode, out, err

    def median_fresh_s(self, code: str, repeat: int) -> float:
        """Median wall time of a fresh interpreter running `code`."""
        times = []
        for _ in range(repeat):
            dt, rc, _, err = self.python(["-c", code])
            if rc != 0:
                raise RuntimeError(f"set-up failed: {err.decode(errors='replace')[-500:]}")
            times.append(dt)
        return statistics.median(times)


@dataclass
class Phase:
    """Samples of one timed loop."""

    latencies_s: list[float] = field(default_factory=list)
    items: list[int] = field(default_factory=list)  # work items per operation
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(self.items)

    def add(self, dt: float, items: int, failed: int, problems: list[str]) -> None:
        self.latencies_s.append(dt)
        self.items.append(items)
        self.failed += failed
        self.problems += problems[:3]


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (p in 0..100)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Inputs:
    """Generated files for one seed, made on first use."""

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed, self.dir = root, seed, workdir
        self.vocab = gen.Vocab.load(root)
        self.synonyms = str(gen.data_dir(root) / "synonyms" / "example.json")
        self._shards: dict[int, tuple[str, str, list]] = {}
        self._pool: str | None = None
        self._cli: dict | None = None

    def shard(self, k: int) -> tuple[str, str, list]:
        if k not in self._shards:
            cands, refs, truth = gen.score_shard(self.seed, k, self.vocab)
            paths = []
            for name, recs in (("candidates", cands), ("references", refs)):
                path = self.dir / f"shard{k}-{name}.jsonl"
                path.write_text("".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8")
                paths.append(str(path))
            self._shards[k] = (paths[0], paths[1], truth)
        return self._shards[k]

    def pool(self) -> str:
        if self._pool is None:
            path = self.dir / "align-pool.npz"
            gen.align_pool(self.seed, self.vocab).save(path)
            self._pool = str(path)
        return self._pool

    def cli(self) -> dict:
        if self._cli is None:
            self._cli = gen.cli_inputs(self.seed, self.vocab, self.dir)
        return self._cli


class Workload:
    name = ""
    item = ""  # what one item of throughput is
    tail_pct = 90.0
    setup_code = ""

    def __init__(self, program: Program, inputs: Inputs):
        self.program, self.inputs = program, inputs
        self.rng = random.Random(f"{self.name}:{inputs.seed}")
        self.reference_ms: list[float] = []  # sampled during the timed loop

    def prepare(self) -> dict:
        """Generate inputs and run one unmeasured operation; return calibration figures."""
        raise NotImplementedError

    def measure(self, seconds: float, tracer: Tracer | None) -> list[Phase]:
        """The untraced phase, and with a tracer a traced one whose operations
        alternate with the untraced ones, so that drift in machine speed falls
        on both alike."""
        phases = [Phase()] if tracer is None else [Phase(), Phase()]
        tracers = [Tracer(enabled=False), tracer]
        deadline = time.perf_counter() + seconds
        n = 0
        # Finish the last seeded block, so every run has whole blocks of the same mix.
        while time.perf_counter() < deadline or self.order:
            k = n % len(phases)
            self.reference_ms.append(reference_ms())
            self.op(phases[k], tracers[k])
            n += 1
        return phases

    def op(self, phase: Phase, tracer: Tracer) -> None:
        raise NotImplementedError


class ScoreCorpus(Workload):
    name = "score-corpus"
    item = "candidate records"
    tail_pct = 75.0  # about 40 calls a run; p75 keeps 10 samples above it
    setup_code = (
        "import naveval.cli\n"
        "from naveval.metric import SynonymMap\n"
        "from naveval.text import load_taxonomy\n"
        "load_taxonomy('r2r'); SynonymMap.load({synonyms!r})"
    )

    def prepare(self) -> dict:
        self.shards = [self.inputs.shard(k) for k in range(gen.SCORE_SHARDS)]
        self.order: list[int] = []
        self.op(Phase(), Tracer(enabled=False))
        self.order = []
        truth = [t for _, _, ts in self.shards for t in ts]
        texts = [t["cand"]["text"] for t in truth] + [r["text"] for t in truth for r in t["refs"]]
        tuples = [len(s["tuples"]) for t in truth for s in [t["cand"], *t["refs"]] if s["tuples"] is not None]
        cal = gen.calibration(self.inputs.vocab, self.inputs.root, texts, tuples)
        only = sum(oracle.expected_row(t)["direction_only"] for t in truth)
        cal["direction_only_share"] = round(only / len(truth), 3)
        return cal

    def op(self, phase: Phase, tracer: Tracer) -> None:
        if not self.order:
            self.order = self.rng.sample(range(len(self.shards)), len(self.shards))
        cands, refs, truth = self.shards[self.order.pop()]
        with tracer.span("cli.score"):
            dt, rc, out, err = self.program.run(["score", cands, refs, "--synonyms", self.inputs.synonyms, "--quiet"])
        problems = oracle.check_score_report(out, truth) if rc == 0 else [f"exit {rc}: {err[-300:]!r}"]
        phase.add(dt, len(truth), len(truth) if rc else min(len(truth), len(problems)), problems)


class CliShort(Workload):
    name = "cli-short"
    item = "commands"
    kinds = ("score", "directions", "chunk", "align", "kb", "correlate")
    tail_pct = 90.0
    setup_code = (
        "import naveval.cli\n"
        "from naveval.text import load_taxonomy, load_verb_lexicon\n"
        "load_taxonomy('r2r'); load_verb_lexicon()"
    )

    def prepare(self) -> dict:
        self.data = self.inputs.cli()
        self.golden = (self.inputs.root / "tests" / "data" / "golden_score_report.json").read_bytes()
        self.mini = gen.data_dir(self.inputs.root) / "mini_corpus"
        self.features = [json.loads(Path(p).read_text(encoding="utf-8")) for p in self.data["features"]]
        self.order: list[str] = []
        for kind in self.kinds:
            self.call(kind, Phase(), Tracer(enabled=False))
        texts = self.data["texts"]
        return {
            "short_texts": len(texts),
            "tokens_per_text": round(statistics.fmean(t.n_tokens for t in texts), 3),
            "directions_per_text": round(statistics.fmean(len(t.labels) for t in texts), 3),
            "kb_facts": gen.KB_FACTS,
            "table_rows": gen.TABLE_ROWS,
        }

    def op(self, phase: Phase, tracer: Tracer) -> None:
        if not self.order:
            self.order = self.rng.sample(self.kinds, len(self.kinds))
        self.call(self.order.pop(), phase, tracer)

    def call(self, kind: str, phase: Phase, tracer: Tracer) -> None:
        d, rng = self.data, self.rng
        check = None
        if kind == "score":
            args = ["score", str(self.mini / "candidates.jsonl"), str(self.mini / "references.jsonl"), "--quiet"]
            want = self.golden
        elif kind in ("directions", "chunk"):
            text = rng.choice(d["texts"])
            args = [kind, "--text", text.text]
            want = ((" ".join(text.labels) if kind == "directions" else "\n".join(text.chunks)) + "\n").encode()
        elif kind == "align":
            k = rng.randrange(len(d["features"]))
            args = ["align", d["features"][k]]
            check = lambda out: oracle.check_align_output(out, self.features[k])  # noqa: E731
        elif kind == "kb":
            entity, k = rng.choice(d["queries"])
            args = ["kb", "query", "--kb", d["kb"], "--entity", entity, "--k", str(k)]
            want = oracle.expected_kb_lines(d["facts"], entity, k).encode()
        else:
            args = ["correlate", d["table"], "--min-directions", str(gen.MIN_DIRECTIONS), "--instructions", d["instructions"], "--quiet"]
            check = lambda out: oracle.check_correlate(out, d["table_rows"], d["metric_names"], gen.MIN_DIRECTIONS)  # noqa: E731
        with tracer.span(f"cli.{kind}"):
            dt, rc, out, err = self.program.run(args)
        if rc != 0:
            problems = [f"{kind}: exit {rc}: {err[-300:]!r}"]
        elif check is not None:
            problems = [f"{kind}: {p}" for p in check(out)]
        else:
            problems = [] if out == want else [f"{kind}: printed {out[:200]!r}, want {want[:200]!r}"]
        phase.add(dt, 1, int(bool(problems)), problems)


class AlignTrain(Workload):
    name = "align-train"
    item = "documents"
    tail_pct = 99.0
    setup_code = "import naveval.align, naveval.text\nnaveval.text.load_verb_lexicon()"

    def prepare(self) -> dict:
        self.pool_path = self.inputs.pool()
        pool = gen.load_pool(Path(self.pool_path))
        self.pool = pool
        gaps = [self._logit_gap(d) for d in range(len(pool["text"]))]
        return {
            "documents": len(pool["text"]),
            "long_share": round(float(pool["long"][pool["order"]].mean()), 3),
            "long_shapes": [list(s) for s in gen.ALIGN_LONG_SHAPES],
            "r2r_words_per_doc": round(statistics.fmean(len(w) for w, long in zip(pool["words"], pool["long"]) if not long), 3),
            "feature_dim": gen.FEATURE_DIM,
            "feature_std": gen.FEATURE_STD,
            "max_logit_gap": round(max(gaps), 1),  # contrastive_loss underflows past ~745
        }

    def _logit_gap(self, d: int) -> float:
        """Largest distance from a word's best logit to its best same-segment panorama logit."""
        import numpy as np

        p = self.pool
        words = p["words"][d].astype(np.float64)
        panos = p["panos"][d].astype(np.float64)
        m, n = len(p["subs"][d]), len(panos)
        logits = words @ panos.T
        own = (np.arange(n) * m) // n == p["word_to_sub"][d][:, None]
        best_own = np.where(own, logits, -np.inf).max(axis=1)
        return float(np.max(logits.max(axis=1) - np.where(np.isfinite(best_own), best_own, logits.min(axis=1))))

    def measure(self, seconds: float, tracer: Tracer | None) -> list[Phase]:
        spec = {"root": str(self.inputs.root), "pool": self.pool_path, "seconds": seconds, "trace": tracer is not None}
        out = run_child(Program(self.inputs.root, blas_threads="1"), "align", spec, self.inputs.dir)
        phases = [self.check(out["ops"], out["paths"])]
        self.reference_ms = out["reference_ms"]
        if tracer is not None:
            phases.append(self.check(out["traced_ops"], out["paths"]))
            tracer.adopt(out["spans"])
        return phases

    def check(self, ops: list, paths: dict) -> Phase:
        """Every op: no error, finite losses, and the same path as the doc's first,
        which must be a staircase of minimum cost."""
        phase = Phase()
        first: dict[int, tuple] = {}
        verdict: dict[int, str] = {}
        for d, ns, err, l_att, l_nce, total, digest in ops:
            problems = [f"doc {d}: {err}"] if err else []
            if not all(map(_finite, (l_att, l_nce))):
                problems.append(f"doc {d}: non-finite loss l_att={l_att} l_nce={l_nce}")
            if d not in verdict:
                verdict[d] = self._check_path(d, paths.get(str(d)))
                first[d] = (digest, l_att, l_nce, total)
            if verdict[d]:
                problems.append(f"doc {d}: {verdict[d]}")
            elif first[d] != (digest, l_att, l_nce, total) and not err:
                problems.append(f"doc {d}: output differs between repeats")
            phase.add(ns / 1e9, 1, int(bool(problems)), problems)
        return phase

    def _check_path(self, d: int, cells) -> str:
        if cells is None:
            return "no alignment produced"
        p = self.pool
        cost = oracle.cosine_cost(p["subs"][d], p["panos"][d])
        return oracle.check_path([tuple(c) for c in cells], cost.shape, cost)


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def run_child(program: Program, mode: str, spec: dict, workdir: Path) -> dict:
    spec_path = workdir / f"{mode}-spec.json"
    out_path = workdir / f"{mode}-out.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    _, rc, _, err = program.python([str(HERE / "inproc.py"), mode, str(spec_path), str(out_path)])
    if rc != 0:
        raise RuntimeError(f"inproc.py {mode} failed: {err.decode(errors='replace')[-2000:]}")
    return json.loads(out_path.read_text(encoding="utf-8"))


WORKLOADS = {w.name: w for w in (ScoreCorpus, CliShort, AlignTrain)}
