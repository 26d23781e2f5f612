"""Child process that calls naveval's public functions in-process.

    python inproc.py align SPEC OUT    the align-train loop (timed, optionally traced)
    python inproc.py layers SPEC OUT   traced per-layer probes over the generated inputs

SPEC is a JSON file written by run.py; OUT receives a JSON document with the
raw timings, outputs and spans. The parent checks the outputs and derives the
metrics, so this process holds only what the program needs.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
import time
from pathlib import Path

import gen
from spans import Tracer
from workloads import reference_ms


def _import_program(root: str):
    sys.path.insert(0, str(Path(root) / "src"))
    import naveval.align as align
    import naveval.text as text

    return align, text


class AlignChain:
    """tokenize -> chunk_instruction -> build_cost -> dtw_align -> expand_alignment
    -> softmax_attention -> attention_coverage_loss -> contrastive_loss -> total_loss."""

    def __init__(self, root: str, pool_path: str, tracer: Tracer):
        self.align, self.text = _import_program(root)
        self.verbs = self.text.load_verb_lexicon()
        self.pool = gen.load_pool(Path(pool_path))
        self.t = tracer

    def run(self, d: int, with_word_map: bool = False):
        """One document through the chain: (path matrix or None, l_att, l_nce, total, error)."""
        al, tx, call, p = self.align, self.text, self.t.call, self.pool
        subs, panos, words = p["subs"][d], p["panos"][d], p["words"][d]
        a = None
        l_att = l_nce = total = math.nan
        try:
            inst = call("text.tokenize", tx.tokenize, p["text"][d])
            chunks = call("text.chunk_instruction", tx.chunk_instruction, inst, self.verbs)
            cost = call("align.build_cost", al.build_cost, subs, panos)
            a = call("align.dtw_align", al.dtw_align, cost)
            target = call("align.expand_alignment", al.expand_alignment, a, chunks, len(inst))
            if with_word_map:
                call("align.target_from_word_map", al.target_from_word_map, a, p["word_to_sub"][d].tolist())
            beta = call("align.softmax_attention", al.softmax_attention, words, panos)
            l_att = call("align.attention_coverage_loss", al.attention_coverage_loss, beta, target)
            l_nce = call("align.contrastive_loss", al.contrastive_loss, panos, words, target)
            total = call("align.total_loss", al.total_loss, float(p["ce"][d]), l_att, l_nce)
        except Exception as exc:  # any failure of the program counts against this document
            return a, l_att, l_nce, total, f"{type(exc).__name__}: {exc}"
        return a, l_att, l_nce, total, ""

    def loop(self, seconds: float, trace: bool) -> dict:
        """Closed loop over the seeded document order for `seconds`. With
        `trace`, every other document runs traced and is reported apart."""
        ops, traced_ops, paths, refs = [], [], {}, []
        order = self.pool["order"]
        deadline = time.perf_counter() + seconds
        k = 0
        while time.perf_counter() < deadline or k % gen.ALIGN_BLOCK:  # finish the last block
            if k % gen.ALIGN_BLOCK == 0:
                refs.append(reference_ms())
            d = int(order[k % len(order)])
            self.t.enabled = trace and k % 2 == 1
            record = traced_ops if self.t.enabled else ops
            k += 1
            with self.t.span("align.doc"):
                t0 = time.perf_counter_ns()
                a, l_att, l_nce, total, err = self.run(d)
                dt = time.perf_counter_ns() - t0
            digest = "" if a is None else hashlib.blake2b(a.tobytes(), digest_size=8).hexdigest()
            if a is not None and d not in paths:
                paths[d] = [[int(i), int(j)] for i, j in zip(*a.nonzero())]
            record.append([d, dt, err, l_att, l_nce, total, digest])
        return {"ops": ops, "traced_ops": traced_ops, "paths": paths, "spans": self.t.spans, "reference_ms": refs}


def run_align(spec: dict) -> dict:
    chain = AlignChain(spec["root"], spec["pool"], Tracer(enabled=False))
    chain.run(int(chain.pool["order"][0]))  # first call pays one-time costs
    return chain.loop(spec["seconds"], spec["trace"])


# ---------------------------------------------------------------------------
# per-layer probes


def _last_us(t: Tracer) -> float:
    return (t.spans[-1][4] - t.spans[-1][3]) / 1000


def _mean_span(t: Tracer, name: str) -> float:
    values = t.durations_us(name)
    return sum(values) / len(values)


def _median_ms(t: Tracer, name: str, fn, *args, repeat: int):
    for _ in range(repeat):
        result = t.call(name, fn, *args)
    return result, statistics.median(t.durations_us(name)) / 1000


def probe_scoring(t: Tracer, spec: dict, naveval) -> dict:
    """text and metric layers over one score-corpus shard, plus in-process cli.main."""
    cli, metric, text = naveval.cli, naveval.metric, naveval.text
    taxonomy, load_ms = _median_ms(t, "text.load_taxonomy", text.load_taxonomy, "r2r", repeat=20)
    synonyms = metric.SynonymMap.load(spec["synonyms"])
    cands = gen.read_jsonl(Path(spec["candidates"]))
    refs: dict[str, list[dict]] = {}
    for rec in gen.read_jsonl(Path(spec["references"])):
        refs.setdefault(rec["id"], []).append(rec)

    n_tokens = n_labels = n_comparisons = 0
    pair_us = stage_us = 0.0

    def side(rec: dict):
        """ScoringInput for one record, its labels, and the time of its
        direction stage and of its tuple stages, each run once."""
        nonlocal n_tokens, n_labels
        inst = t.call("text.tokenize", text.tokenize, rec["text"])
        n_tokens += len(inst)
        labels = t.call("text.direction_labels", text.direction_labels, inst, taxonomy)
        n_labels += len(labels)
        dirs = rec.get("directions")
        dir_us = _last_us(t) if dirs is None else 0.0
        tuples, tuple_us = None, 0.0
        if rec.get("tuples") is not None:
            tuples = t.call("metric.normalize_tuples", metric.normalize_tuples, rec["tuples"])
            tuple_us += _last_us(t)
            t.call("metric.SynonymMap.canonical_set", synonyms.canonical_set, tuples)
            tuple_us += _last_us(t)
        item = metric.ScoringInput(inst, tuples, None if dirs is None else tuple(dirs))
        return item, labels if dirs is None else dirs, dir_us, tuple_us

    with t.span("probe.scoring"):
        for cand in cands:
            sides = [side(cand)] + [side(r) for r in refs[cand["id"]]]
            (c_item, c_dirs, _, _), ref_sides = sides[0], sides[1:]
            only = any(s[0].tuples is None for s in sides)
            us = sum(s[2] + (0.0 if only else s[3]) for s in sides)
            c_set = frozenset() if only else synonyms.canonical_set(c_item.tuples)
            for r_item, r_dirs, _, _ in ref_sides:
                t.call("metric.lcs_length", metric.lcs_length, c_dirs, r_dirs)
                us += _last_us(t)
                r_set = frozenset() if only else synonyms.canonical_set(r_item.tuples)
                t.call("metric.spice_d_score", metric.spice_d_score, c_set, r_set, c_dirs, r_dirs, synonyms)
            t.call("metric.score_pair", metric.score_pair, c_item, [s[0] for s in ref_sides], taxonomy, synonyms)
            pair_us += _last_us(t)
            stage_us += us
            n_comparisons += len(ref_sides)

    argv = ["score", spec["candidates"], spec["references"], "--synonyms", spec["synonyms"], "--quiet", "--out", spec["score_out"]]
    _, main_ms = _median_ms(t, "cli.main.score", cli.main, argv, repeat=3)
    report = json.loads(Path(spec["score_out"]).read_text(encoding="utf-8"))
    _, serialize_ms = _median_ms(t, "cli.serialize", lambda doc: json.dumps(doc, indent=2), report, repeat=3)
    n = len(cands) + sum(len(v) for v in refs.values())
    return {
        "cli.score_main_s": main_ms / 1000,
        "cli.serialize_ms": serialize_ms,
        "text.tokenize.us_per_call": _mean_span(t, "text.tokenize"),
        "text.tokenize.tokens_per_call": n_tokens / n,
        "text.direction_labels.us_per_call": _mean_span(t, "text.direction_labels"),
        "text.direction_labels.labels_per_call": n_labels / n,
        "text.load_taxonomy.ms": load_ms,
        "metric.normalize_tuples.us_per_call": _mean_span(t, "metric.normalize_tuples"),
        "metric.SynonymMap.canonical_set.us_per_call": _mean_span(t, "metric.SynonymMap.canonical_set"),
        "metric.lcs_length.us_per_call": _mean_span(t, "metric.lcs_length"),
        "metric.spice_d_score.us_per_call": _mean_span(t, "metric.spice_d_score"),
        "metric.score_pair.us_per_comparison": pair_us / n_comparisons,
        "metric.comparisons": n_comparisons,
        "metric.score_pair.stage_ratio": pair_us / stage_us,
    }


def probe_align(t: Tracer, spec: dict) -> dict:
    """Every distinct alignment document once, each call in its own span."""
    chain = AlignChain(spec["root"], spec["pool"], t)
    pool = chain.pool
    t.enabled = False
    chain.run(0)  # first call pays one-time costs
    t.enabled = True
    cost_us = {True: [], False: []}
    dtw_us = {True: [], False: []}
    cells = nonfinite = 0
    with t.span("probe.align"):
        for d in range(len(pool["text"])):
            mark = len(t.spans)
            _, l_att, l_nce, _, _ = chain.run(d, with_word_map=True)
            mine = {s[2]: (s[4] - s[3]) / 1000 for s in t.spans[mark:]}
            is_long = bool(pool["long"][d])
            cost_us[is_long].append(mine.get("align.build_cost", math.nan))
            dtw_us[is_long].append(mine.get("align.dtw_align", math.nan))
            cells += len(pool["subs"][d]) * len(pool["panos"][d])
            nonfinite += not (math.isfinite(l_att) and math.isfinite(l_nce))
    mean = statistics.fmean
    return {
        "text.chunk_instruction.us_per_call": _mean_span(t, "text.chunk_instruction"),
        "align.build_cost.r2r_us": mean(cost_us[False]),
        "align.build_cost.long_us": mean(cost_us[True]),
        "align.dtw_align.r2r_us": mean(dtw_us[False]),
        "align.dtw_align.long_us": mean(dtw_us[True]),
        "align.dtw_align.cells_per_s": cells / (sum(dtw_us[False] + dtw_us[True]) / 1e6),
        "align.expand_alignment.us_per_call": _mean_span(t, "align.expand_alignment"),
        "align.target_from_word_map.us_per_call": _mean_span(t, "align.target_from_word_map"),
        "align.softmax_attention.us_per_call": _mean_span(t, "align.softmax_attention"),
        "align.attention_coverage_loss.us_per_call": _mean_span(t, "align.attention_coverage_loss"),
        "align.contrastive_loss.us_per_call": _mean_span(t, "align.contrastive_loss"),
        "align.nonfinite_losses": nonfinite,
    }


def probe_knowledge(t: Tracer, spec: dict, knowledge) -> dict:
    kb, load_ms = _median_ms(t, "knowledge.load_kb", knowledge.load_kb, spec["kb"], repeat=3)
    queries = spec["queries"]
    hits = 0
    with t.span("probe.knowledge"):
        for _ in range(25):
            for entity, k in queries:
                hits += bool(t.call("knowledge.retrieve_facts", knowledge.retrieve_facts, kb, entity, k))
    return {
        "knowledge.load_kb.ms": load_ms,
        "knowledge.load_kb.facts": kb.n_facts,
        "knowledge.retrieve_facts.us_per_call": _mean_span(t, "knowledge.retrieve_facts"),
        "knowledge.retrieve_facts.hit_ratio": hits / (25 * len(queries)),
    }


def probe_stats(t: Tracer, spec: dict, stats) -> dict:
    rows = spec["table_rows"]
    names = spec["metric_names"]
    columns = {name: [cells[i] for _, cells, _ in rows] for i, name in enumerate(names)}
    human = [cells[-1] for _, cells, _ in rows]
    report, corr_ms = _median_ms(t, "stats.correlate_metrics", stats.correlate_metrics, columns, human, repeat=20)
    complete = [cells for _, cells, _ in rows if None not in cells]
    with t.span("probe.stats"):
        for _ in range(20):
            for i in range(len(names)):
                t.call("stats.pearson", stats.pearson, [c[i] for c in complete], [c[-1] for c in complete])
    return {
        "stats.correlate_metrics.ms": corr_ms,
        "stats.correlate_metrics.rows_dropped": report.n_dropped,
        "stats.pearson.us_per_call": _mean_span(t, "stats.pearson"),
    }


def run_layers(spec: dict) -> dict:
    _import_program(spec["root"])
    import naveval.cli
    import naveval.knowledge
    import naveval.stats

    t = Tracer()
    metrics = {}
    metrics.update(probe_scoring(t, spec, naveval))
    metrics.update(probe_align(t, spec))
    metrics.update(probe_knowledge(t, spec, naveval.knowledge))
    metrics.update(probe_stats(t, spec, naveval.stats))
    return {"metrics": metrics, "spans": t.spans}


def main(argv: list[str]) -> int:
    mode, spec_path, out_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    out = run_align(spec) if mode == "align" else run_layers(spec)
    Path(out_path).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
