"""DTW alignment between feature sequences and the alignment-guided losses.

Sub-instruction features are warped onto panorama features with dynamic time
warping over cosine-distance costs. The binary alignment matrix is expanded to
word level and drives two auxiliary losses: an attention-coverage term and a
softmax contrastive term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_EPS = 1e-8
DEFAULT_LAMBDA1 = 1.0
DEFAULT_LAMBDA2 = 1.0

# Attention rows must sum to 1 within this tolerance.
ATTENTION_ROW_TOL = 1e-6


def _as_hidden_matrix(value: object, name: str = "vectors") -> np.ndarray:
    """Coerce a sequence of equal-length feature vectors to a finite 2-D float array."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a rectangular array of numbers: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must be a nonempty 2-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite values")
    return arr


def _unit_rows(arr: np.ndarray, name: str) -> np.ndarray:
    norms = np.linalg.norm(arr, axis=1)
    for i, n in enumerate(norms):
        if n == 0.0:
            raise ValueError(f"zero-norm vector at {name}[{i}]")
    return arr / norms[:, None]


def build_cost(sub_instructions: object, panoramas: object) -> np.ndarray:
    """Pairwise cosine-distance cost matrix, entries clipped to [0, 2]."""
    subs = _as_hidden_matrix(sub_instructions, "sub_instructions")
    panos = _as_hidden_matrix(panoramas, "panoramas")
    if subs.shape[1] != panos.shape[1]:
        raise ValueError(
            f"dimension mismatch: sub_instructions have {subs.shape[1]}, panoramas have {panos.shape[1]}"
        )
    cost = 1.0 - _unit_rows(subs, "sub_instructions") @ _unit_rows(panos, "panoramas").T
    np.clip(cost, 0.0, 2.0, out=cost)
    return cost


def dtw_align(cost: object) -> np.ndarray:
    """Minimum-cost monotone alignment through the cost matrix.

    The path runs from the top-left cell to the bottom-right cell with steps
    that advance the sub-instruction index, the panorama index, or both. Ties
    during backtracking prefer the diagonal predecessor, then the vertical one
    (previous sub-instruction), then the horizontal one, which makes the
    returned binary matrix deterministic.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] == 0 or c.shape[1] == 0:
        raise ValueError(f"cost matrix must be a nonempty 2-D array, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("cost matrix entries must be finite")

    m, n = c.shape
    acc = np.empty((m, n))
    acc[0, 0] = c[0, 0]
    for j in range(1, n):
        acc[0, j] = acc[0, j - 1] + c[0, j]
    for i in range(1, m):
        acc[i, 0] = acc[i - 1, 0] + c[i, 0]
        for j in range(1, n):
            acc[i, j] = c[i, j] + min(acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])

    a = np.zeros((m, n), dtype=int)
    i, j = m - 1, n - 1
    a[i, j] = 1
    while (i, j) != (0, 0):
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, vert, horiz = acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]
            best = min(diag, vert, horiz)
            if diag == best:
                i, j = i - 1, j - 1
            elif vert == best:
                i -= 1
            else:
                j -= 1
        a[i, j] = 1
    return a


def validate_alignment_matrix(a: object) -> None:
    """Raise ValueError unless the matrix is a single monotone staircase path.

    Checks: binary entries, both corner cells set, the set cells form one
    connected path using only right/down/diagonal steps, and every row and
    column is covered.
    """
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError("alignment matrix must be a nonempty 2-D array")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("alignment matrix entries must be 0 or 1")
    m, n = arr.shape
    ones = {(int(i), int(j)) for i, j in zip(*np.nonzero(arr))}
    if (0, 0) not in ones or (m - 1, n - 1) not in ones:
        raise ValueError("alignment path must start at (0, 0) and end at the opposite corner")
    # A valid monotone path is forced: whenever the cell to the right (or below,
    # or diagonally below-right) is set, that must be the next path cell.
    i, j = 0, 0
    visited = 1
    while (i, j) != (m - 1, n - 1):
        if (i, j + 1) in ones:
            j += 1
        elif (i + 1, j) in ones:
            i += 1
        elif (i + 1, j + 1) in ones:
            i, j = i + 1, j + 1
        else:
            raise ValueError(f"alignment path breaks after cell ({i}, {j})")
        visited += 1
    if visited != len(ones):
        raise ValueError("alignment matrix holds cells outside the path")
    if not arr.any(axis=1).all() or not arr.any(axis=0).all():
        raise ValueError("alignment path must cover every row and column")


@dataclass(frozen=True)
class TargetMatrix:
    """Word-level alignment targets: row o copies the alignment row of the sub-instruction owning word o."""

    a_prime: np.ndarray
    word_to_sub: tuple[int, ...]


def _sub_span(sub: object) -> tuple[int, int]:
    span = getattr(sub, "token_span", sub)
    start, end = span  # type: ignore[misc]
    return int(start), int(end)


def expand_alignment(a: object, sub_instructions: Sequence[object], n_words: int) -> TargetMatrix:
    """Expand a sub-instruction alignment to word level via the chunk spans.

    The spans must partition [0, n_words) in order, one per alignment row.
    They become a word-to-chunk map, built into the target by
    target_from_word_map.
    """
    if n_words < 1:
        raise ValueError("n_words must be >= 1")
    owner = [-1] * n_words
    for k, sub in enumerate(sub_instructions):
        start, end = _sub_span(sub)
        if not (0 <= start < end <= n_words):
            raise ValueError(f"sub-instruction span ({start}, {end}) out of range for {n_words} words")
        for o in range(start, end):
            if owner[o] != -1:
                raise ValueError(f"word {o} is covered by more than one sub-instruction span")
            owner[o] = k
    uncovered = [o for o, k in enumerate(owner) if k == -1]
    if uncovered:
        raise ValueError(f"words not covered by any sub-instruction span: {uncovered}")
    return target_from_word_map(a, owner)


def target_from_word_map(a: object, word_to_sub: Sequence[int]) -> TargetMatrix:
    """Build the word-level target matrix from an explicit word-to-chunk map.

    The map must be non-decreasing and cover every alignment row, as produced
    by an in-order chunk partition.
    """
    arr = np.asarray(a)
    validate_alignment_matrix(arr)
    m = arr.shape[0]
    owner: list[int] = []
    for o, k in enumerate(word_to_sub):
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ValueError(f"word_to_sub[{o}] must be an integer, got {k!r}")
        if not 0 <= k < m:
            raise ValueError(f"word_to_sub[{o}] = {k} out of range for {m} sub-instructions")
        owner.append(int(k))
    if not owner:
        raise ValueError("word_to_sub must be nonempty")
    if owner != sorted(owner):
        raise ValueError("word_to_sub must be non-decreasing")
    if set(owner) != set(range(m)):
        raise ValueError(f"word_to_sub must cover every one of the {m} sub-instructions")
    return TargetMatrix(a_prime=arr[np.array(owner), :], word_to_sub=tuple(owner))


def _as_target(a_prime: object) -> np.ndarray:
    arr = a_prime.a_prime if isinstance(a_prime, TargetMatrix) else np.asarray(a_prime)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError("target matrix must be a nonempty 2-D array")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("target matrix entries must be 0 or 1")
    return arr.astype(float)


def _check_attention(beta: object, shape: tuple[int, int]) -> np.ndarray:
    b = np.asarray(beta, dtype=float)
    if b.shape != shape:
        raise ValueError(f"attention shape {b.shape} does not match target shape {shape}")
    if not np.isfinite(b).all():
        raise ValueError("attention entries must be finite")
    if (b < 0.0).any() or (b > 1.0).any():
        raise ValueError("attention entries must lie in [0, 1]")
    sums = b.sum(axis=1)
    if (np.abs(sums - 1.0) > ATTENTION_ROW_TOL).any():
        raise ValueError("attention rows must sum to 1")
    return b


def attention_coverage_loss(beta: object, a_prime: object, eps: float = DEFAULT_EPS) -> float:
    """Coverage loss over attention mass on aligned and unaligned viewpoints.

    Per word: -log(sum of attention on aligned viewpoints) minus
    log(sum of one-minus-attention over unaligned viewpoints), both sums
    clamped below at eps, averaged over words. The second sum can exceed 1
    when several viewpoints are unaligned, so the value may be negative for
    sharp attention; it is exactly 0 for one-hot attention on a fully aligned
    single viewpoint.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    target = _as_target(a_prime)
    b = _check_attention(beta, target.shape)
    aligned = (target * b).sum(axis=1)
    unaligned = ((1.0 - target) * (1.0 - b)).sum(axis=1)
    per_word = np.log(np.maximum(aligned, eps)) + np.log(np.maximum(unaligned, eps))
    return float(-per_word.mean())


def _logsumexp(x: np.ndarray) -> np.ndarray:
    # Row-wise log(sum(exp(x))), shifted by the row maximum so that nothing
    # overflows and a row's largest entry never underflows.
    top = x.max(axis=1, keepdims=True)
    return top + np.log(np.exp(x - top).sum(axis=1, keepdims=True))


def contrastive_loss(panoramas: object, words: object, a_prime: object) -> float:
    """Softmax contrastive loss pulling word features toward aligned panoramas.

    For each word the logits are its dot products with every panorama feature;
    the loss is the negative log of the softmax mass on aligned viewpoints,
    averaged over words. It is computed in log space, as the logsumexp over
    the aligned logits minus the logsumexp over the row, so it is finite for
    finite features and invariant to adding a per-word constant.
    """
    p = _as_hidden_matrix(panoramas, "panoramas")
    w = _as_hidden_matrix(words, "words")
    if p.shape[1] != w.shape[1]:
        raise ValueError(f"dimension mismatch: panoramas have {p.shape[1]}, words have {w.shape[1]}")
    target = _as_target(a_prime)
    if target.shape != (w.shape[0], p.shape[0]):
        raise ValueError(
            f"target shape {target.shape} does not match ({w.shape[0]} words, {p.shape[0]} panoramas)"
        )
    row_sums = target.sum(axis=1)
    if (row_sums == 0).any():
        o = int(np.argmax(row_sums == 0))
        raise ValueError(f"target row {o} has no aligned viewpoint")
    logits = w @ p.T
    per_word = _logsumexp(np.where(target > 0, logits, -np.inf)) - _logsumexp(logits)
    return float(-per_word.mean())


def softmax_attention(words: object, panoramas: object) -> np.ndarray:
    """Row-softmax of word-panorama dot products; rows sum to 1."""
    w = _as_hidden_matrix(words, "words")
    p = _as_hidden_matrix(panoramas, "panoramas")
    if w.shape[1] != p.shape[1]:
        raise ValueError(f"dimension mismatch: words have {w.shape[1]}, panoramas have {p.shape[1]}")
    logits = w @ p.T
    return np.exp(logits - _logsumexp(logits))


def total_loss(
    ce: float,
    l_att: float,
    l_nce: float,
    lambda1: float = DEFAULT_LAMBDA1,
    lambda2: float = DEFAULT_LAMBDA2,
) -> float:
    """Weighted training objective: ce + lambda1 * l_att + lambda2 * l_nce."""
    values = {"ce": ce, "l_att": l_att, "l_nce": l_nce, "lambda1": lambda1, "lambda2": lambda2}
    for name, v in values.items():
        if not np.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    if lambda1 < 0.0 or lambda2 < 0.0:
        raise ValueError("loss weights must be nonnegative")
    return float(ce + lambda1 * l_att + lambda2 * l_nce)
