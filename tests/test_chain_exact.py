"""The alignment chain gives the same bits as the straightforward versions kept here.

tokenize -> chunk_instruction -> build_cost -> dtw_align -> expand_alignment ->
softmax_attention -> attention_coverage_loss -> contrastive_loss -> total_loss,
with alignment_losses beside the two losses, is run on seeded R2R-size (5x6,
29 words), 25x150 and 50x300 documents with float32, float64 and list inputs.
Arrays are compared with .tobytes(), so a -0.0 where the reference has +0.0
counts as a difference; losses with ==.
"""

import random
import re

import numpy as np
import pytest

from naveval.align import (
    TargetMatrix,
    alignment_losses,
    attention_coverage_loss,
    build_cost,
    contrastive_loss,
    dtw_align,
    expand_alignment,
    softmax_attention,
    target_from_word_map,
    total_loss,
)
from naveval.text import Instruction, chunk_instruction, load_verb_lexicon, tokenize
from test_align import loop_dtw_align

# ---------------------------------------------------------------------------
# Reference versions: generator expressions, np.linalg.norm, np.mean, np.isfinite
# and one 0/1 check per target, as the chain computed them before its per-call
# overhead was cut.


def ref_tokenize(raw):
    matches = list(re.finditer(r'[^\s.,;:!?"]+', raw))
    return tuple(m.group().lower() for m in matches), tuple(m.span() for m in matches)


def ref_chunk_spans(tokens, spans, raw, verbs):
    cuts = [0]
    for i in range(1, len(tokens)):
        gap = raw[spans[i - 1][1] : spans[i][0]]
        if tokens[i] in ("and", "then") or any(ch in ",.;:!?" for ch in gap):
            cuts.append(i)
    cuts.append(len(tokens))
    chunks = [(cuts[k], cuts[k + 1]) for k in range(len(cuts) - 1)]
    merged = [chunks[0]]
    for start, end in chunks[1:]:
        if any(tok in verbs for tok in tokens[start:end]):
            merged.append((start, end))
        else:
            merged[-1] = (merged[-1][0], end)
    return merged


def ref_build_cost(subs, panos):
    def unit(x):
        norms = np.linalg.norm(x, axis=1)
        return x / norms[:, None]

    cost = 1.0 - unit(np.asarray(subs, dtype=float)) @ unit(np.asarray(panos, dtype=float)).T
    np.clip(cost, 0.0, 2.0, out=cost)
    return cost


def ref_a_prime(a, spans, n_words):
    owner = [-1] * n_words
    for k, (start, end) in enumerate(spans):
        for o in range(start, end):
            owner[o] = k
    arr = np.asarray(a)
    return np.array(arr[np.array(owner), :])


def ref_logsumexp(x):
    top = x.max(axis=1, keepdims=True)
    return top + np.log(np.exp(x - top).sum(axis=1, keepdims=True))


def ref_softmax_attention(words, panos):
    logits = np.asarray(words, dtype=float) @ np.asarray(panos, dtype=float).T
    return np.exp(logits - ref_logsumexp(logits))


def ref_attention_coverage_loss(beta, target, eps=1e-8):
    b = np.asarray(beta, dtype=float)
    aligned = (target * b).sum(axis=1)
    unaligned = ((1.0 - target) * (1.0 - b)).sum(axis=1)
    per_word = np.log(np.maximum(aligned, eps)) + np.log(np.maximum(unaligned, eps))
    return float(-per_word.mean())


def ref_contrastive_loss(panos, words, target):
    logits = np.asarray(words, dtype=float) @ np.asarray(panos, dtype=float).T
    per_word = ref_logsumexp(np.where(target > 0, logits, -np.inf)) - ref_logsumexp(logits)
    return float(-per_word.mean())


def ref_total_loss(ce, l_att, l_nce, lambda1=1.0, lambda2=1.0):
    return float(ce + lambda1 * l_att + lambda2 * l_nce)


# ---------------------------------------------------------------------------
# Seeded documents

VERBS = load_verb_lexicon()
CLAUSE_VERBS = sorted(VERBS)
FILLER = ["the", "left", "right", "past", "door", "sofa", "hall", "stairs", "o'clock", "u-turn", "ΑΣ", "Straße"]
OPENERS = [", ", ". ", " and ", ", then ", " then ", ",", "."]
SHAPES = [(5, 6, 29), (25, 150, 150), (50, 300, 300)]
DIM = 48


def make_text(rng, m, n_words):
    """m clauses of n_words words in all, each opening with a verb.

    A clause may begin with "and" or "then", which count as its words, and
    may hold a verbless comma aside, which chunking merges back. So the text
    chunks into exactly m sub-instructions.
    """
    sizes = [1] * m
    for _ in range(n_words - m):
        sizes[rng.randrange(m)] += 1
    parts = []
    for k, size in enumerate(sizes):
        opener = "" if k == 0 else rng.choice(OPENERS if size > 1 else [", ", ". ", ","])
        verb = rng.choice(CLAUSE_VERBS)
        words = [opener, verb.capitalize() if rng.random() < 0.3 else verb]
        for _ in range(size - 1 - len(tokenize(opener))):
            sep = ", " if rng.random() < 0.1 else rng.choice([" ", "  ", "\t", "\u00a0"])
            words.append(sep + rng.choice(FILLER))
        parts.append("".join(words))
    return "".join(parts) + rng.choice(["", ".", " .", "!"])


def make_doc(seed, m, n, n_words):
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    text = make_text(rng, m, n_words)
    subs = nrng.normal(size=(m, DIM))
    panos = nrng.normal(size=(n, DIM))
    words = nrng.normal(size=(n_words, DIM))
    return text, subs, panos, words, float(nrng.uniform(1.0, 3.0))


def as_kind(x, kind):
    if kind == "float32":
        return x.astype(np.float32)
    if kind == "list":
        return x.tolist()
    return x


DOCS = [(shape, seed) for shape in SHAPES for seed in range(3)]


def _bytes_equal(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["float32", "float64", "list"])
@pytest.mark.parametrize("shape,seed", DOCS, ids=[f"{m}x{n}-seed{s}" for (m, n, _), s in DOCS])
def test_chain_matches_reference_bit_for_bit(shape, seed, kind):
    m, n, n_words = shape
    text, subs64, panos64, words64, ce = make_doc(seed, m, n, n_words)
    subs, panos, words = (as_kind(x, kind) for x in (subs64, panos64, words64))
    copies = [np.array(x, copy=True) for x in (subs, panos, words)]

    inst = tokenize(text)
    assert (inst.tokens, inst.spans) == ref_tokenize(text)
    chunks = chunk_instruction(inst, VERBS)
    ref_spans = ref_chunk_spans(inst.tokens, inst.spans, text, VERBS)
    assert chunks == ref_spans
    assert len(inst) == n_words and len(chunks) == m

    cost = build_cost(subs, panos)
    ref_cost = ref_build_cost(subs, panos)
    assert _bytes_equal(cost, ref_cost)
    a = dtw_align(cost)
    assert _bytes_equal(a, loop_dtw_align(ref_cost))

    target = expand_alignment(a, chunks, len(inst))
    ref_target = ref_a_prime(a, ref_spans, n_words)
    assert _bytes_equal(target.a_prime, ref_target)

    beta = softmax_attention(words, panos)
    assert _bytes_equal(beta, ref_softmax_attention(words, panos))
    l_att = attention_coverage_loss(beta, target)
    assert l_att == ref_attention_coverage_loss(beta, ref_target)
    l_nce = contrastive_loss(panos, words, target)
    assert l_nce == ref_contrastive_loss(panos, words, ref_target)
    # Both eps values clamp some words on these documents.
    assert alignment_losses(words, panos, target) == (l_att, l_nce)
    assert alignment_losses(words, panos, target, 0.5) == (attention_coverage_loss(beta, target, 0.5), l_nce)
    assert total_loss(ce, l_att, l_nce) == ref_total_loss(ce, l_att, l_nce)
    assert total_loss(ce, l_att, l_nce, 0.5, 2.0) == ref_total_loss(ce, l_att, l_nce, 0.5, 2.0)

    # No step writes to its inputs.
    for got, want in zip((subs, panos, words), copies):
        assert np.array(got).tobytes() == want.tobytes()
    assert _bytes_equal(target.a_prime, ref_target)


@pytest.mark.parametrize("shape,seed", DOCS, ids=[f"{m}x{n}-seed{s}" for (m, n, _), s in DOCS])
def test_targets_of_every_form_give_reference_losses(shape, seed):
    """The losses agree on a built, a hand-built, a float and a plain-list target."""
    m, n, n_words = shape
    _, subs, panos, words, _ = make_doc(seed, m, n, n_words)
    a = dtw_align(build_cost(subs, panos))
    owner = sorted(random.Random(seed).sample(range(1, n_words), m - 1))
    word_to_sub = [sum(o >= cut for cut in owner) for o in range(n_words)]
    ref_target = np.asarray(a)[np.array(word_to_sub), :]

    built = target_from_word_map(a.tolist(), word_to_sub)
    assert _bytes_equal(built.a_prime, ref_target)
    beta = softmax_attention(words, panos)
    beta_copy = beta.copy()
    for target in (built, TargetMatrix(ref_target), ref_target.astype(float), ref_target.tolist()):
        want = np.asarray(target.a_prime if isinstance(target, TargetMatrix) else target)
        for eps in (1e-8, 0.5):
            assert attention_coverage_loss(beta, target, eps=eps) == ref_attention_coverage_loss(beta, want, eps)
        assert contrastive_loss(panos, words, target) == ref_contrastive_loss(panos, words, want)
    assert beta.tobytes() == beta_copy.tobytes()


def test_word_map_of_numpy_integers_matches_plain_ints():
    a = np.array([[1, 1, 0], [0, 0, 1]])
    plain = target_from_word_map(a, [0, 0, 1])
    for word_to_sub in (np.array([0, 0, 1]), [np.int64(0), np.int32(0), 1], (0, 0, 1)):
        target = target_from_word_map(a, word_to_sub)
        assert target == plain
        assert _bytes_equal(target.a_prime, plain.a_prime)


def test_build_cost_clip_gives_positive_zero():
    """Identical directions cost exactly +0.0, and opposite ones exactly 2.0."""
    cost = build_cost([[3.0, 4.0], [1.0, 1.0]], [[6.0, 8.0], [-1.0, -1.0], [1.0, 1.0]])
    assert cost[0, 0] == 0.0 and np.signbit(cost).sum() == 0
    assert _bytes_equal(cost, ref_build_cost([[3.0, 4.0], [1.0, 1.0]], [[6.0, 8.0], [-1.0, -1.0], [1.0, 1.0]]))


def test_tokenize_and_chunk_match_reference_on_random_text():
    rng = random.Random(7)
    alphabet = list("abcxyz ,.;:!?\"'-\t\n") + ["and", "then", "walk", "Turn", "ΑΣ", " ", " ", "İ"]
    for _ in range(3000):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
        inst = tokenize(raw)
        assert (inst.tokens, inst.spans) == ref_tokenize(raw)
        if inst.tokens:
            assert chunk_instruction(inst, VERBS) == ref_chunk_spans(inst.tokens, inst.spans, raw, VERBS)


def test_chunk_takes_any_iterable_of_verbs():
    inst = Instruction("walk, then go", ("walk", "then", "go"), ((0, 4), (6, 10), (11, 13)))
    assert chunk_instruction(inst, ["walk", "go"]) == [(0, 1), (1, 3)]

