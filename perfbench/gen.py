"""Seeded inputs for the three perfbench workloads, with their ground truth.

Everything is drawn from the data bundled with naveval: the r2r taxonomy
phrases, ``verbs.txt``, the mini corpus's tuple vocabulary and the synonym
groups. The bundled files are parsed here with the standard library only, so
the ground truth does not depend on the code under test. The same seed gives
byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

# Anderson et al., CVPR 2018 (arXiv:1711.07280): R2R instructions average ~29
# words, and each path has 5-7 viewpoints.
R2R_WORDS = 29

# Feature rows stand in for pooled encoder outputs: 512 dimensions (the size of
# CLIP's joint embedding and of common VLN hidden states), entries with
# standard deviation 0.5, so a row's norm is about 0.5 * sqrt(512) ~ 11.3.
FEATURE_DIM = 512
FEATURE_STD = 0.5

SCORE_SHARDS = 4
SCORE_SHARD_RECORDS = 1000
REFS_PER_CANDIDATE = 3
ALIGN_R2R_DOCS = 200
# Long documents alternate between two fixed shapes, so every seed has the
# same share of each size and the seed varies only their content. Each shape
# is 2.5% of all documents, so p99 falls near the middle of the 50x300 times.
ALIGN_LONG_SHAPES = ((25, 150), (50, 300))
ALIGN_LONG_PER_SHAPE = 4
ALIGN_BLOCK = 20  # one long document in every block of 20 (5%)
ALIGN_ORDER_LEN = 200_000
KB_FACTS = 30_000
KB_HEADS = 2000
CLI_TEXTS = 40
CLI_FEATURE_DOCS = 4
CLI_QUERIES = 40
TABLE_ROWS = 300
MIN_DIRECTIONS = 1

PREPOSITIONS = ("past", "toward", "into", "through", "near", "by", "along", "beside", "across", "to", "up", "down")
# (punctuation, connector word) placed before each clause after the first;
# each opens a new sub-instruction in naveval's chunker.
CONNECTORS = ((",", "then"), ("", "then"), ("", "and"), (",", ""), (".", ""))
RELATIONS = ("near", "part_of", "used_for", "located_in", "has", "adjacent_to", "above", "below")


def data_dir(root: Path) -> Path:
    return root / "src" / "naveval" / "data"


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


@dataclass(frozen=True)
class Vocab:
    """The bundled vocabulary, parsed without naveval."""

    phrases: dict[str, tuple[tuple[str, ...], ...]]  # label -> tokenized phrases
    verbs: frozenset[str]
    motion_verbs: tuple[str, ...]  # verbs that start no direction phrase
    objects: tuple[str, ...]  # canonical object words
    attributes: tuple[str, ...]
    relations: tuple[str, ...]
    synonyms: dict[str, tuple[str, ...]]  # canonical word -> its spellings

    @classmethod
    def load(cls, root: Path) -> "Vocab":
        d = data_dir(root)
        tax = json.loads((d / "taxonomies" / "r2r.json").read_text(encoding="utf-8"))
        phrases = {c["label"]: tuple(tuple(p.lower().split()) for p in c["phrases"]) for c in tax["classes"]}
        verbs = frozenset(
            line.strip().lower()
            for line in (d / "verbs.txt").read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.strip().startswith("#")
        )
        groups = json.loads((d / "synonyms" / "example.json").read_text(encoding="utf-8"))
        canonical = {w.lower(): g[0].lower() for g in groups for w in g}
        synonyms = {g[0].lower(): tuple(w.lower() for w in g) for g in groups}
        objects, attributes, relations = set(), set(), set()
        for name in ("candidates.jsonl", "references.jsonl"):
            for rec in read_jsonl(d / "mini_corpus" / name):
                for t in rec.get("tuples") or ():
                    t = [e.lower() for e in t]
                    objects.add(t[0])
                    if len(t) == 2:
                        attributes.add(t[1])
                    elif len(t) == 3:
                        relations.add(t[1])
                        objects.add(t[2])
        objects |= set(canonical)
        # Words that open a direction phrase never appear in filler text, so the
        # only phrases in a generated text are the ones inserted on purpose.
        openers = {p[0] for ps in phrases.values() for p in ps}
        return cls(
            phrases=phrases,
            verbs=verbs,
            motion_verbs=tuple(sorted(verbs - openers - {"and", "then"})),
            objects=tuple(sorted({canonical.get(o, o) for o in objects})),
            attributes=tuple(sorted(attributes)),
            relations=tuple(sorted(relations | set(RELATIONS))),
            synonyms=synonyms,
        )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.phrases)

    def plain_words(self, words) -> list[str]:
        return [w for w in words if w.isalpha()]


# ---------------------------------------------------------------------------
# instruction text


@dataclass(frozen=True)
class Text:
    """An instruction and its ground truth: labels, chunks and word owners."""

    text: str
    labels: tuple[str, ...]
    chunks: tuple[str, ...]  # tokens of each sub-instruction, space-joined
    word_to_sub: tuple[int, ...]

    @property
    def n_tokens(self) -> int:
        return len(self.word_to_sub)


def _clause(rng: random.Random, vocab: Vocab, n_words: int, label: str | None) -> list[str]:
    objects = vocab.plain_words(vocab.objects)
    attributes = vocab.plain_words(vocab.attributes)
    if label is None:
        words = [rng.choice(vocab.motion_verbs)]
    else:
        phrase = list(rng.choice(vocab.phrases[label]))
        # A clause must hold a verb to stand as its own sub-instruction.
        words = phrase if any(w in vocab.verbs for w in phrase) else [rng.choice(vocab.motion_verbs)] + phrase
    while True:
        words += [rng.choice(PREPOSITIONS), "the"]
        if rng.random() < 0.4:
            words.append(rng.choice(attributes))
        words.append(rng.choice(objects))
        if len(words) >= n_words - 1:
            return words


def make_text(rng: random.Random, vocab: Vocab, labels: list[str], n_clauses: int, n_words: int) -> Text:
    """Join clauses into one instruction; each label goes into its own clause."""
    n_clauses = max(n_clauses, len(labels), 1)
    slots = sorted(rng.sample(range(n_clauses), len(labels)))
    per_clause = max(3, round(n_words / n_clauses))
    parts: list[str] = []
    chunks: list[str] = []
    owners: list[int] = []
    it = iter(labels)
    for k in range(n_clauses):
        words = _clause(rng, vocab, per_clause, next(it) if k in slots else None)
        punct = ""
        if k:
            punct, lead = rng.choice(CONNECTORS)
            words = [lead] + words if lead else words
        text = " ".join(words)
        if k == 0 or punct == ".":
            text = text[0].upper() + text[1:]
        parts.append(f"{punct} {text}" if k else text)
        chunks.append(text.lower())
        owners += [k] * len(words)
    return Text("".join(parts) + ".", tuple(labels), tuple(chunks), tuple(owners))


def _labels(rng: random.Random, vocab: Vocab, weights=(0.1, 0.3, 0.3, 0.2, 0.1)) -> list[str]:
    n = rng.choices(range(len(weights)), weights)[0]
    return [rng.choice(vocab.labels) for _ in range(n)]


def _perturb(rng: random.Random, vocab: Vocab, labels: list[str], p: float) -> list[str]:
    out = list(labels)
    if rng.random() < p and len(out) >= 2:
        i = rng.randrange(len(out) - 1)
        out[i], out[i + 1] = out[i + 1], out[i]
    if rng.random() < p and out:
        del out[rng.randrange(len(out))]
    if rng.random() < p and out:
        out[rng.randrange(len(out))] = rng.choice(vocab.labels)
    if rng.random() < p and len(out) < 5:
        out.insert(rng.randrange(len(out) + 1), rng.choice(vocab.labels))
    return out


def _r2r_text(rng: random.Random, vocab: Vocab, labels: list[str]) -> Text:
    # Clauses overshoot their target by about three words on average.
    n_words = min(40, max(15, round(rng.gauss(R2R_WORDS - 3, 5))))
    return make_text(rng, vocab, labels, rng.randint(3, 5), n_words)


# ---------------------------------------------------------------------------
# score-corpus


def _tuple(rng: random.Random, vocab: Vocab) -> tuple[str, ...]:
    kind = rng.choices((1, 2, 3), (0.5, 0.35, 0.15))[0]
    obj = rng.choice(vocab.objects)
    if kind == 1:
        return (obj,)
    if kind == 2:
        return (obj, rng.choice(vocab.attributes))
    return (obj, rng.choice(vocab.relations), rng.choice(vocab.objects))


def _render(rng: random.Random, vocab: Vocab, tuples: set[tuple[str, ...]]) -> list[list[str]]:
    """Raw spellings of canonical tuples: synonyms, capitals, padding, repeats."""

    def spell(word: str) -> str:
        w = rng.choice(vocab.synonyms.get(word, (word,)))
        if rng.random() < 0.15:
            w = w.capitalize()
        if rng.random() < 0.05:
            w = f" {w} "
        return w

    raw = [[spell(e) for e in t] for t in sorted(tuples)]
    if raw and rng.random() < 0.2:
        raw.append([spell(e) for e in rng.choice(sorted(tuples))])
    rng.shuffle(raw)
    return raw


def _side(rng, vocab, rid, truth_tuples, truth_labels, keep, p_perturb, p_no_tuples):
    """One scored record (JSON object) and its ground truth (canonical tuples, labels)."""
    tuples = None
    if rng.random() >= p_no_tuples:
        tuples = {t for t in sorted(truth_tuples) if rng.random() < keep}
        tuples |= {_tuple(rng, vocab) for _ in range(rng.randint(0, 2))}
    labels = _perturb(rng, vocab, truth_labels, p_perturb)
    text = _r2r_text(rng, vocab, labels)
    obj = {"id": rid, "text": text.text}
    if tuples is not None:
        obj["tuples"] = _render(rng, vocab, tuples)
    truth_dirs = list(labels)
    if rng.random() < 0.1:
        truth_dirs = _perturb(rng, vocab, labels, 0.5)
        obj["directions"] = truth_dirs
    return obj, {"tuples": None if tuples is None else sorted(tuples), "dirs": truth_dirs, "text": text}


def score_shard(seed: int, shard: int, vocab: Vocab, n: int = SCORE_SHARD_RECORDS):
    """Candidates, references (3 per id) and ground truth for one corpus shard."""
    rng = random.Random(f"score:{seed}:{shard}")
    cands, refs, truth = [], [], []
    for i in range(n):
        rid = f"s{shard}-{i:05d}"
        route = {_tuple(rng, vocab) for _ in range(rng.randint(2, 5))}
        labels = _labels(rng, vocab)
        cand, ct = _side(rng, vocab, rid, route, labels, 0.7, 0.5, 0.1)
        cands.append(cand)
        rts = []
        for _ in range(REFS_PER_CANDIDATE):
            ref, rt = _side(rng, vocab, rid, route, labels, 0.8, 0.3, 0.035)
            refs.append(ref)
            rts.append(rt)
        truth.append({"id": rid, "cand": ct, "refs": rts})
    return cands, refs, truth


# ---------------------------------------------------------------------------
# alignment documents


def _features(nrng: np.random.Generator, m: int, n: int, word_to_sub) -> tuple[np.ndarray, ...]:
    """Sub-instruction, panorama and word rows around one latent vector per sub-instruction.

    Panoramas follow the sub-instructions in order, as viewpoints follow a
    path; rows get their own noise at half the latent scale.
    """
    z = nrng.normal(0.0, FEATURE_STD, (m, FEATURE_DIM))
    noise = FEATURE_STD / 2

    def rows(owner):
        owner = np.asarray(owner)
        return (z[owner] + nrng.normal(0.0, noise, (len(owner), FEATURE_DIM))).astype(np.float32)

    pano_owner = (np.arange(n) * m) // n
    return rows(np.arange(m)), rows(pano_owner), rows(word_to_sub)


def align_doc(rng: random.Random, nrng: np.random.Generator, vocab: Vocab, m: int, n: int, long: bool):
    labels = [rng.choice(vocab.labels) for _ in range(rng.randint(0, min(m, 4)))]
    n_words = 6 * m if long else min(40, max(m * 3, round(rng.gauss(R2R_WORDS - 3, 5))))
    text = make_text(rng, vocab, labels, m, n_words)
    subs, panos, words = _features(nrng, m, n, text.word_to_sub)
    return text, subs, panos, words


@dataclass
class AlignPool:
    texts: list[Text]
    subs: list[np.ndarray]
    panos: list[np.ndarray]
    words: list[np.ndarray]
    ce: np.ndarray
    long: np.ndarray  # bool per document
    order: np.ndarray  # document index of each operation

    def save(self, path: Path) -> None:
        arrays = {"ce": self.ce, "long": self.long, "order": self.order}
        for key in ("subs", "panos", "words"):
            parts = getattr(self, key)
            arrays[key] = np.concatenate(parts)
            arrays[key + "_len"] = np.array([len(p) for p in parts], dtype=np.int64)
        arrays["text"] = np.array([t.text for t in self.texts])
        arrays["word_to_sub"] = np.concatenate([np.array(t.word_to_sub, dtype=np.int64) for t in self.texts])
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)


def load_pool(path: Path) -> dict:
    """The saved pool as per-document lists (used by the child that runs the program)."""
    with np.load(path) as z:
        out = {"ce": z["ce"], "long": z["long"], "order": z["order"], "text": [str(t) for t in z["text"]]}
        for key in ("subs", "panos", "words"):
            out[key] = np.split(z[key], np.cumsum(z[key + "_len"])[:-1])
        out["word_to_sub"] = np.split(z["word_to_sub"], np.cumsum(z["words_len"])[:-1])
    return out


def align_pool(seed: int, vocab: Vocab) -> AlignPool:
    rng = random.Random(f"align:{seed}")
    nrng = np.random.default_rng([seed, 1])
    shapes = [(rng.randint(3, 7), rng.randint(5, 7), False) for _ in range(ALIGN_R2R_DOCS)]
    shapes += [(m, n, True) for m, n in ALIGN_LONG_SHAPES for _ in range(ALIGN_LONG_PER_SHAPE)]
    docs = [align_doc(rng, nrng, vocab, m, n, long) for m, n, long in shapes]
    is_long = np.array([s[2] for s in shapes])
    long_ids = np.flatnonzero(is_long)
    r2r_ids = np.flatnonzero(~is_long)
    order = nrng.choice(r2r_ids, ALIGN_ORDER_LEN)
    for b in range(0, ALIGN_ORDER_LEN, ALIGN_BLOCK):
        order[b + nrng.integers(ALIGN_BLOCK)] = long_ids[(b // ALIGN_BLOCK) % len(long_ids)]
    return AlignPool(
        texts=[d[0] for d in docs],
        subs=[d[1] for d in docs],
        panos=[d[2] for d in docs],
        words=[d[3] for d in docs],
        ce=nrng.uniform(1.0, 3.0, len(docs)),
        long=is_long,
        order=order,
    )


# ---------------------------------------------------------------------------
# cli-short


def _short_text(rng: random.Random, vocab: Vocab) -> Text:
    labels = [rng.choice(vocab.labels) for _ in range(rng.randint(0, 3))]
    return make_text(rng, vocab, labels, rng.randint(1, 3), rng.randint(5, 12))


def _feature_json(text: Text, subs, panos, words) -> dict:
    def rows(a):
        return [[round(float(v), 6) for v in row] for row in a]

    return {
        "sub_instructions": rows(subs),
        "panoramas": rows(panos),
        "words": rows(words),
        "word_to_sub": list(text.word_to_sub),
    }


def cli_inputs(seed: int, vocab: Vocab, workdir: Path) -> dict:
    """Files for the short commands plus what each command must print."""
    rng = random.Random(f"cli:{seed}")
    nrng = np.random.default_rng([seed, 2])
    texts = [_short_text(rng, vocab) for _ in range(CLI_TEXTS)]

    features = []
    for k in range(CLI_FEATURE_DOCS):
        text, subs, panos, words = align_doc(rng, nrng, vocab, rng.randint(3, 7), rng.randint(5, 7), False)
        path = workdir / f"features-{k}.json"
        path.write_text(json.dumps(_feature_json(text, subs, panos, words)), encoding="utf-8")
        features.append(str(path))

    # Object kinds plus numbered instances of them, about 15 facts per head.
    per_object = KB_HEADS // len(vocab.objects)
    heads = sorted({f"{o}_{i}" for o in vocab.objects for i in range(per_object)} | set(vocab.objects))
    lines = ["# generated knowledge base: head, relation, tail, weight"]
    facts: dict[str, list[tuple[str, str, str, str]]] = {}
    for i in range(KB_FACTS):
        if i % 997 == 0:
            lines.append("")
        fact = (rng.choice(heads), rng.choice(vocab.relations), rng.choice(vocab.objects), f"{rng.randint(0, 500) / 100:.2f}")
        lines.append("\t".join(fact))
        facts.setdefault(fact[0], []).append(fact)
    kb_path = workdir / "kb.tsv"
    kb_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    queries = []
    for _ in range(CLI_QUERIES):
        entity = rng.choice(heads) if rng.random() < 0.9 else f"unknown_{rng.randrange(10**6)}"
        if rng.random() < 0.2:
            entity = entity.capitalize()
        queries.append((entity, rng.choice((1, 3, 5, 10))))

    # Correlation table: ids point at instructions with known direction counts.
    instr_path = workdir / "instructions.jsonl"
    table_path = workdir / "table.csv"
    rows, instr = [], []
    for i in range(TABLE_ROWS):
        rid = f"t{i:04d}"
        text = _short_text(rng, vocab)
        instr.append(json.dumps({"id": rid, "text": text.text}))
        human = rng.uniform(1, 5)
        cells = [human * 0.1 + rng.gauss(0, 0.2), human * 0.12 + rng.gauss(0, 0.15), rng.uniform(0, 1), human]
        cells = [None if rng.random() < 0.03 else round(c, 4) for c in cells]
        rows.append((rid, cells, len(text.labels)))
    instr_path.write_text("\n".join(instr) + "\n", encoding="utf-8")
    table_lines = ["id,spice,spice_d,bleu,human"]
    table_lines += [rid + "," + ",".join("" if c is None else repr(c) for c in cells) for rid, cells, _ in rows]
    table_path.write_text("\n".join(table_lines) + "\n", encoding="utf-8")

    return {
        "texts": texts,
        "features": features,
        "kb": str(kb_path),
        "facts": facts,
        "queries": queries,
        "table": str(table_path),
        "instructions": str(instr_path),
        "table_rows": rows,
        "metric_names": ["spice", "spice_d", "bleu"],
    }


# ---------------------------------------------------------------------------
# calibration


def calibration(vocab: Vocab, root: Path, texts: list[Text], tuple_counts: list[int]) -> dict:
    """Tokens, directions and tuples per record beside the mini corpus and R2R.

    The mini corpus figures come from the runner's own tokenizer and phrase
    matcher, so the printout does not depend on the code under test.
    """
    mini = []
    for name in ("candidates.jsonl", "references.jsonl"):
        mini += read_jsonl(data_dir(root) / "mini_corpus" / name)
    mini_tuples = [len(r["tuples"]) for r in mini if r.get("tuples") is not None]

    def mean(xs):
        return round(sum(xs) / len(xs), 3) if xs else 0.0

    return {
        "generated": {
            "records": len(texts),
            "tokens_per_record": mean([t.n_tokens for t in texts]),
            "directions_per_record": mean([len(t.labels) for t in texts]),
            "tuples_per_record": mean(tuple_counts),
        },
        "mini_corpus": {
            "records": len(mini),
            "tokens_per_record": mean([len(oracle.own_tokens(r["text"])) for r in mini]),
            "directions_per_record": mean([oracle.count_directions(oracle.own_tokens(r["text"]), vocab.phrases) for r in mini]),
            "tuples_per_record": mean(mini_tuples),
        },
        "r2r_words_per_instruction": R2R_WORDS,
        "feature_dim": FEATURE_DIM,
        "feature_std": FEATURE_STD,
    }
